"""The abflux benchmark: one workload per run, its outputs checked against
an independent reference, and one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of infer_surface, discriminate_pair, pattern_sweep, bulk_hits,
or ``all`` (the default), which runs the four in turn.  Run it from the
root of a checkout; it imports abflux from ``src/`` and needs scipy for
the reference.

Each workload runs in one fresh worker process (``worker.py``) on one
thread: ABFLUX_WORKERS and the numeric-library thread variables are pinned
to 1.  On a small shared host a pool as wide as the machine waits for
whichever thread the scheduler pre-empts, so its wall time measures the
host's other load more than abflux; one thread leaves a core to the rest
of the system.  ``setup_s`` is the median of SETUP_SAMPLES set-ups, the
worker's own and extra set-up-only workers.  The last line of standard
output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1``.  ``failed`` counts operations that exited non-zero,
raised, or failed an output check; ``correct`` is false when an operation
that ran to its end wrote a wrong output.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 9
WORKER_TIMEOUT_S = 150
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))


def _environment():
    env = dict(os.environ)
    for key in ("ABFLUX_WORKERS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def _worker(name, seed, seconds, trace, work, probe=False):
    """Run worker.py and return its result.json."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
            "--work", str(work)]
    if probe:
        argv.append("--probe")
    done = subprocess.run(argv, env=_environment(), capture_output=True, text=True,
                          timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"worker for {name} exited {done.returncode}:\n"
                           f"{done.stdout}{done.stderr}")
    return json.loads((work / "result.json").read_text())


def _verify(plan, result, work):
    """(attempted, failed, correct, messages): the last pass is checked in
    full; every other pass must have written the same bytes and returned
    the same values, operation by operation."""
    import checks

    passes = result["passes"]
    last = passes[-1]["ops"]
    verdicts = checks.check(plan, last, work)
    attempted = failed = 0
    correct = True
    messages = []
    for number, entry in enumerate(passes):
        for index, (op, record) in enumerate(zip(plan["ops"], entry["ops"])):
            attempted += 1
            if record["rc"] != 0:
                problems = [f"exit code {record['rc']}: {record['error']}"]
            elif record["digest"] != last[index]["digest"]:
                problems = ["output differs from the last pass's for the same input"]
                correct = False
            else:
                problems = verdicts[index]
                correct = correct and not problems
            if problems:
                failed += 1
                messages.append(f"pass {number} op {index} ({op['name']}): "
                                + "; ".join(problems))
    return attempted, failed, correct, messages


def run_workload(name, seed, seconds, trace):
    """One benchmark run of one workload; returns the result object."""
    plan = workloads.plan(name, seed)
    base = HERE / "_run" / f"{name}-{os.getpid()}"
    try:
        result = _worker(name, seed, seconds, trace, base / "main")
        attempted, failed, correct, messages = _verify(plan, result, base / "main")
        for message in messages:
            print(f"  {name}: {message}")
        passes = result["passes"]
        if trace:
            metrics = _layer_metrics(passes, result)
            units = dict(spans.METRICS)
        else:
            setups = [result["setup_s"]] + [
                _worker(name, seed, seconds, 0, base / f"probe{k}", probe=True)["setup_s"]
                for k in range(SETUP_SAMPLES - 1)]
            metrics = {
                "wall_s": statistics.median(p["wall_s"] for p in passes),
                "cpu_s": statistics.median(p["cpu_s"] for p in passes),
                "peak_rss_mb": result["peak_rss_mb"],
                "setup_s": statistics.median(setups),
            }
            units = dict(END_TO_END)
        print(f"{name}: seed {seed}, {len(passes)} passes, {attempted} operations, "
              f"{failed} failed, outputs {'correct' if correct else 'WRONG'}")
        for key, value in metrics.items():
            print(f"  {key:28s} {value:16.6g} {units[key]}")
        if trace:
            fresnel = result["fresnel"]
            print(f"  traced pass wall time: "
                  + ", ".join(f"{p['wall_s']:.3f} s" for p in passes)
                  + f"; Fresnel args {fresnel['args']}, "
                  f"{100 * fresnel['series_share']:.1f}% on the series branch")
        return {"correct": correct, "attempted": attempted, "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    finally:
        shutil.rmtree(base, ignore_errors=True)


def _layer_metrics(passes, result):
    """Median over passes of each per-layer metric, plus the Fresnel kernel
    timing and the cold import time."""
    fresnel = result["fresnel"]
    metrics = {}
    for key, _ in spans.METRICS:
        if key == "fresnel.eval_s":
            metrics[key] = fresnel["eval_s"]
        elif key == "fresnel.args_per_s":
            metrics[key] = fresnel["args"] / fresnel["eval_s"]
        elif key == "cli.import_s":
            metrics[key] = result["import_s"]
        else:
            metrics[key] = statistics.median(p["layers"][key] for p in passes)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "abflux" / "cli.py").is_file():
        sys.exit(f"abflux sources not found under {ROOT / 'src'}; "
                 "run from the root of an abflux checkout")
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    else:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace)
                   for name in workloads.NAMES}
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": value for name, r in results.items()
                        for key, value in r["metrics"].items()},
        }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
