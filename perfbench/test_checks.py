"""Self-tests of the benchmark's reference and output checks.

Run with ``python3 -m pytest perfbench`` from the repository root; the
tier-1 suite (``testpaths = tests``) does not collect them.  Each check is
shown to pass on real abflux outputs, made here at small sizes, and to
reject a deliberately corrupted copy of them.
"""

import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402


@pytest.mark.parametrize("z", [-3.7, 0.4, 1.7, 2.5, 3.3, 6.0])
def test_reference_fresnel_matches_quadrature(z):
    re, _ = quad(lambda t: math.cos(0.5 * math.pi * t * t), 0.0, z, limit=400)
    im, _ = quad(lambda t: math.sin(0.5 * math.pi * t * t), 0.0, z, limit=400)
    assert abs(ref.fresnel_e(z) - complex(re, im)) < 1e-10


def _cli(name, argv, outputs, **extra):
    return {"kind": "cli", "name": name, "argv": argv, "outputs": outputs, **extra}


PLANS = {
    "infer": [
        workloads.simulate_op(workloads.INFER_TRUTH, 3000, 7, "hits.csv"),
        _cli("infer", ["infer", "hits.csv", "--out", "surface.csv",
                       "--theta-points", "31", "--phi-points", "31"],
             ["surface.csv"], hits_op=0, points=31),
    ],
    "discriminate": [
        workloads.simulate_op(workloads.SUPERPOSED_TRUTH, 3000, 8, "superposed.csv"),
        workloads.simulate_op(workloads.DEFINITE_TRUTH, 3000, 9, "definite.csv"),
        _cli("discriminate", ["discriminate", "superposed.csv", "--out", "sup_cmp.csv"],
             ["sup_cmp.csv"], hits_op=0, expect_superposed=True),
        _cli("discriminate", ["discriminate", "definite.csv", "--out", "def_cmp.csv"],
             ["def_cmp.csv"], hits_op=1, expect_superposed=False),
    ],
    "patterns": [
        _cli("sweep", ["sweep", "--thetas", "0.3,2.9", "--phis", "1.1,4.0",
                       "--screen-points", "512", "--out-dir", "sweep"],
             ["sweep"], thetas=[0.3, 2.9], phis=[1.1, 4.0], screen_points=512),
        _cli("figure3", ["figure3", "--screen-points", "64", "--param-points", "16",
                         "--out-dir", "figure3"],
             ["figure3"], screen_points=64, param_points=16),
        _cli("figure4", ["figure4", "--heatmap", "--screen-points", "64",
                         "--param-points", "16", "--out-dir", "figure4"],
             ["figure4"], screen_points=64, param_points=16),
    ],
    "hits": [
        {**workloads.simulate_op(workloads.BULK_TRUTH, 20000, 5, "bulk.csv"), "goodness_of_fit": True},
        {**workloads.simulate_op(workloads.BULK_TRUTH, 1000, 5, "prefix.csv"), "prefix_of": 0},
        {"kind": "lib", "name": "read_hits_csv", "path": "bulk.csv", "outputs": [],
         "hits_op": 0},
        {"kind": "lib", "name": "log_likelihood", "truth": workloads.BULK_TRUTH,
         "outputs": [], "hits_op": 0},
    ],
}


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """{plan name: (plan, records, directory)} of real abflux runs."""
    made = {}
    for name, ops in PLANS.items():
        work = tmp_path_factory.mktemp(name)
        for sub in ("sweep", "figure3", "figure4"):
            (work / sub).mkdir()
        state = {}
        records = []
        with pytest.MonkeyPatch.context() as mp:
            mp.chdir(work)
            for op in ops:
                code, error, value = worker._run_op(op, state, None)
                records.append({"rc": code, "error": error, "value": worker._describe(value)})
        made[name] = ({"ops": ops}, records, work)
    return made


def _copy(outputs, name, tmp_path):
    plan, records, work = outputs[name]
    target = tmp_path / name
    shutil.copytree(work, target)
    return plan, records, target


@pytest.mark.parametrize("name", sorted(PLANS))
def test_real_outputs_pass(outputs, name):
    plan, records, work = outputs[name]
    assert checks.check(plan, records, work) == [[] for _ in plan["ops"]]


def _rewrite(path, old, new):
    text = path.read_text()
    assert old in text
    path.write_text(text.replace(old, new, 1))


def test_shifted_loglik_max_is_rejected(outputs, tmp_path):
    plan, records, work = _copy(outputs, "infer", tmp_path)
    comments, _, _ = ref.read_table(work / "surface.csv")
    best = comments["loglik_max"]
    _rewrite(work / "surface.csv", f"loglik_max={best}",
             f"loglik_max={float(best) + 1.0!r}")
    failures = checks.check(plan, records, work)
    assert failures[0] == [] and any("loglik_max" in f for f in failures[1])


def test_one_density_off_by_1e8_is_rejected(outputs, tmp_path):
    plan, records, work = _copy(outputs, "patterns", tmp_path)
    path = sorted((work / "sweep").glob("*.csv"))[0]
    _, _, data = ref.read_table(path)
    peak = int(np.argmax(data[:, 1]))
    x, v = (float(u) for u in data[peak])
    _rewrite(path, f"{x!r},{v!r}\n", f"{x!r},{v * (1 + 1e-8)!r}\n")
    failures = checks.check(plan, records, work)
    assert any("density off" in f for f in failures[0])
    assert failures[1] == [] and failures[2] == []


def test_truncated_hits_file_is_rejected(outputs, tmp_path):
    plan, records, work = _copy(outputs, "hits", tmp_path)
    lines = (work / "bulk.csv").read_text().splitlines(keepends=True)
    (work / "bulk.csv").write_text("".join(lines[:-10]))
    failures = checks.check(plan, records, work)
    assert any("rows" in f for f in failures[0])
    assert failures[2] and failures[3]


def test_swapped_definite_direction_is_rejected(outputs, tmp_path):
    plan, records, work = _copy(outputs, "discriminate", tmp_path)
    _rewrite(work / "def_cmp.csv", "definite_direction=up", "definite_direction=down")
    failures = checks.check(plan, records, work)
    assert failures[2] == [] and any("definite" in f for f in failures[3])


def test_hits_from_another_theta_are_rejected(outputs, tmp_path):
    plan, records, work = _copy(outputs, "hits", tmp_path)
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(work)
        code, _, _ = worker._run_op(
            workloads.simulate_op((1.4, workloads.BULK_TRUTH[1]), 20000, 5, "bulk.csv"),
            {}, None)
    assert code == 0
    _rewrite(work / "bulk.csv", "# theta=1.4\n", f"# theta={workloads.BULK_TRUTH[0]!r}\n")
    failures = checks.check(plan, records, work)
    assert any("chi-square" in f for f in failures[0])
