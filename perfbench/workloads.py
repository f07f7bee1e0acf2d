"""The four benchmark workloads: their inputs, made from a seed, and the
operations one pass runs.

Standard library only, because the worker imports this before timing the
cold ``import abflux.cli``.

An operation is one CLI call, ``abflux.cli.main(argv)``, or one library
call.  Output paths are relative to the run's scratch directory, which is
the worker's working directory.  ``outputs`` lists what each operation
writes; the checks read it and the worker hashes it after every pass.
"""

import math
import random

PI_2 = math.pi / 2.0

NAMES = ("infer_surface", "discriminate_pair", "pattern_sweep", "bulk_hits")

INFER_N = 20_000
DISCRIMINATE_N = 50_000
BULK_N = 1_000_000
PREFIX_N = 10_000
SWEEP_SIDE = 7
SWEEP_SCREEN_POINTS = 8192

# Truth of every simulated file: (theta, phi).
INFER_TRUTH = (PI_2, PI_2)
SUPERPOSED_TRUTH = (PI_2, PI_2)
DEFINITE_TRUTH = (0.0, PI_2)
BULK_TRUTH = (0.7, 2.0)


def simulate_seed(seed, index):
    """Sampling seed of the index-th simulated file of a run."""
    return (int(seed) * 1000 + index) % 2**64


def sweep_angles(seed):
    """7 thetas in [0, pi] and 7 phis in [0, 2 pi], one per equal stratum,
    jittered by the seed.  Every value keeps at least 5% of a stratum from
    its neighbours, so sweep's ``%.6g`` file names never collide."""
    rng = random.Random(int(seed))

    def strata(top):
        width = top / SWEEP_SIDE
        return [(k + 0.05 + 0.9 * rng.random()) * width for k in range(SWEEP_SIDE)]

    return strata(math.pi), strata(2.0 * math.pi)


def _angle(value):
    return repr(float(value))


def simulate_op(truth, n, seed, out):
    """One ``simulate`` CLI operation writing n hits to out."""
    theta, phi = truth
    return {
        "kind": "cli",
        "name": "simulate",
        "argv": ["simulate", "--theta", _angle(theta), "--phi", _angle(phi),
                 "--n-hits", str(n), "--seed", str(seed), "--out", out],
        "outputs": [out],
        "n": n,
        "seed": seed,
        "truth": truth,
    }


def plan(name, seed):
    """Warm-up argv and the operation list of one pass of a workload."""
    if name == "infer_surface":
        s = simulate_seed(seed, 0)
        ops = [
            simulate_op(INFER_TRUTH, INFER_N, s, "hits.csv"),
            {"kind": "cli", "name": "infer",
             "argv": ["infer", "hits.csv", "--out", "surface.csv"],
             "outputs": ["surface.csv"], "hits_op": 0, "points": 181},
        ]
        warmup = ["simulate", "--n-hits", "1000", "--out", "warmup.csv"]
    elif name == "discriminate_pair":
        ops = [
            simulate_op(SUPERPOSED_TRUTH, DISCRIMINATE_N, simulate_seed(seed, 0),
                      "superposed.csv"),
            simulate_op(DEFINITE_TRUTH, DISCRIMINATE_N, simulate_seed(seed, 1),
                      "definite.csv"),
            {"kind": "cli", "name": "discriminate",
             "argv": ["discriminate", "superposed.csv", "--out", "superposed_cmp.csv"],
             "outputs": ["superposed_cmp.csv"], "hits_op": 0, "expect_superposed": True},
            {"kind": "cli", "name": "discriminate",
             "argv": ["discriminate", "definite.csv", "--out", "definite_cmp.csv"],
             "outputs": ["definite_cmp.csv"], "hits_op": 1, "expect_superposed": False},
        ]
        warmup = ["simulate", "--n-hits", "1000", "--out", "warmup.csv"]
    elif name == "pattern_sweep":
        thetas, phis = sweep_angles(seed)
        ops = [
            {"kind": "cli", "name": "sweep",
             "argv": ["sweep", "--thetas", ",".join(map(_angle, thetas)),
                      "--phis", ",".join(map(_angle, phis)),
                      "--screen-points", str(SWEEP_SCREEN_POINTS), "--out-dir", "sweep"],
             "outputs": ["sweep"], "thetas": thetas, "phis": phis,
             "screen_points": SWEEP_SCREEN_POINTS},
            {"kind": "cli", "name": "figure3",
             "argv": ["figure3", "--out-dir", "figure3"],
             "outputs": ["figure3"], "screen_points": 512, "param_points": 256},
            {"kind": "cli", "name": "figure4",
             "argv": ["figure4", "--heatmap", "--out-dir", "figure4"],
             "outputs": ["figure4"], "screen_points": 512, "param_points": 256},
        ]
        warmup = ["pattern", "--out", "warmup.csv"]
    elif name == "bulk_hits":
        s = simulate_seed(seed, 0)
        ops = [
            simulate_op(BULK_TRUTH, BULK_N, s, "bulk.csv"),
            simulate_op(BULK_TRUTH, PREFIX_N, s, "prefix.csv"),
            {"kind": "lib", "name": "read_hits_csv", "path": "bulk.csv",
             "outputs": [], "hits_op": 0},
            {"kind": "lib", "name": "log_likelihood", "truth": BULK_TRUTH,
             "outputs": [], "hits_op": 0},
        ]
        ops[0]["goodness_of_fit"] = True
        ops[1]["prefix_of"] = 0
        warmup = ["simulate", "--n-hits", "1000", "--out", "warmup.csv"]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    directories = sorted({op["outputs"][0] for op in ops
                          if op["name"] in ("sweep", "figure3", "figure4")})
    return {"name": name, "seed": int(seed), "warmup": warmup, "ops": ops,
            "directories": directories}
