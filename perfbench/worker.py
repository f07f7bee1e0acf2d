"""Runs one workload in a fresh interpreter and writes ``result.json`` into
its scratch directory, which ``run.py`` reads and checks.

Set-up is timed from just before the cold ``import abflux.cli`` to the end
of one warm-up CLI call; it includes creating the scratch directory.  Then
whole passes of the workload's operations run, each timed for wall and
process CPU time: one pass at least, and more while the next one should
end within ``--seconds``.  Outputs are hashed after each pass, outside the
timed region, so ``run.py`` can check the last pass in full and the others
by their hashes.

With ``--probe`` the worker stops after set-up.  With ``--trace 1`` the
passes run under ``spans.install``, and the Fresnel kernel is timed on the
workload's own slit-edge arguments after the last pass.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
                                   --trace 0|1 --work DIR [--probe]
"""

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (standard library only)


def _parse():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--probe", action="store_true")
    return parser.parse_args()


def _call_cli(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _digest(paths, value):
    h = hashlib.sha256(json.dumps(value, sort_keys=True).encode())
    for path in paths:
        p = Path(path)
        files = sorted(p.iterdir()) if p.is_dir() else [p]
        for f in files:
            h.update(f.name.encode())
            h.update(f.read_bytes() if f.exists() else b"<missing>")
    return h.hexdigest()


def _run_op(op, state, recorder):
    """One operation; returns (rc, error text, library result)."""
    import abflux
    import abflux.cli
    import abflux.io

    if op["kind"] == "cli":
        span = recorder.open("cli." + op["name"]) if recorder else None
        try:
            code, text = _call_cli(abflux.cli, op["argv"])
        finally:
            if span:
                recorder.close(span)
        return code, (text if code else None), None
    if op["name"] == "read_hits_csv":
        state["hits"] = abflux.io.read_hits_csv(op["path"])
        return 0, None, state["hits"]
    theta, phi = op["truth"]
    return 0, None, abflux.log_likelihood(state["hits"], theta=theta, phi=phi)


def _describe(result):
    """JSON-able record of a library call's result."""
    if result is None:
        return None
    if isinstance(result, float):
        return {"value": repr(result)}
    return {
        "n": len(result),
        "sha256": hashlib.sha256(result.positions.tobytes()).hexdigest(),
        "theta": repr(result.flux.theta),
        "phi": repr(result.flux.phi),
        "window": [repr(v) for v in result.config.window],
    }


def _hit_positions(path):
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        skip = 1 + sum(1 for _ in itertools.takewhile(lambda s: s.startswith("#"), fh))
    return np.loadtxt(path, delimiter=",", skiprows=skip, usecols=1, ndmin=1)


def _fresnel_timing(plan):
    """fresnel_ei_grid on the slit-edge arguments of every screen position
    the workload evaluates: the window grid of sampling and the likelihood,
    screen grids, and hit positions read from the last pass."""
    import numpy as np
    from abflux.fresnel import fresnel_ei_grid

    import reference as ref

    xs = []
    for op in plan["ops"]:
        if op["name"] == "simulate" and "prefix_of" not in op:
            xs.append(np.linspace(*ref.WINDOW, ref.GRID_POINTS))
            xs.append(_hit_positions(op["outputs"][0]))
        elif "screen_points" in op:
            xs.append(np.linspace(*ref.WINDOW, op["screen_points"]))
    args = np.concatenate(ref.slit_edge_args(np.concatenate(xs)))
    start = time.perf_counter()
    fresnel_ei_grid(args)
    elapsed = time.perf_counter() - start
    # abflux.fresnel.SERIES_CUTOFF: the series branch takes |z| <= 2.5
    series = float(np.mean(np.abs(args) <= 2.5))
    return elapsed, args.size, series


def main():
    args = _parse()
    plan = workloads.plan(args.workload, args.seed)
    work = Path(args.work)

    start = time.perf_counter()
    import abflux.cli  # noqa: E402  (the timed cold import)
    import_s = time.perf_counter() - start
    work.mkdir(parents=True, exist_ok=True)
    for sub in plan["directories"]:
        (work / sub).mkdir(exist_ok=True)
    os.chdir(work)
    code, text = _call_cli(abflux.cli, plan["warmup"])
    if code != 0:
        sys.exit(f"warm-up {' '.join(plan['warmup'])} exited {code}: {text}")
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.probe:
        Path("result.json").write_text(json.dumps(result))
        return

    recorder = None
    if args.trace:
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)

    passes = []
    begin = time.perf_counter()
    # another pass starts only if it should end within --seconds
    while not passes or (time.perf_counter() - begin
                         + passes[-1]["wall_s"] <= args.seconds):
        state = {}
        records = []
        t_wall = time.perf_counter()
        t_cpu = time.process_time()
        for op in plan["ops"]:
            try:
                code, error, value = _run_op(op, state, recorder)
            except Exception as exc:  # an operation that raises counts as failed
                code, error, value = None, f"{type(exc).__name__}: {exc}", None
            records.append([code, error, value])
        wall = time.perf_counter() - t_wall
        cpu = time.process_time() - t_cpu
        for (op, record) in zip(plan["ops"], records):
            record[2] = _describe(record[2])
            record.append(_digest(op["outputs"], record[2]))
        entry = {"wall_s": wall, "cpu_s": cpu,
                 "ops": [dict(zip(("rc", "error", "value", "digest"), r))
                         for r in records]}
        if recorder:
            entry["layers"] = spans.layer_metrics(recorder.spans)
            recorder.reset()
        passes.append(entry)
        del state, records
    result["passes"] = passes
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if recorder:
        eval_s, n_args, series = _fresnel_timing(plan)
        result["fresnel"] = {"eval_s": eval_s, "args": n_args, "series_share": series}
    Path("result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main()
