"""Output checks of one pass, against ``reference`` and against properties
the method must have.  ``check(plan, ops, work)`` returns one list of
failure messages per operation; an empty list means the operation's
outputs are correct.

Tolerances, and why each holds on every seed:

* Likelihood values agree with the reference to 1e-9 relative.  Both sides
  sum the same logs; the Fresnel values differ by ~1e-13.
* An MLE is at least the likelihood at the truth, less REFINE_NATS: the
  program stops refining at 1e-4 rad, which costs at most ~1e-4 nats at
  n = 5e4.
* Estimates lie within 5 standard deviations of the truth, with the
  per-hit Fisher prediction sd = 1.49/sqrt(n) at theta = phi = pi/2.
* The KS distance and a 100-bin chi-square statistic are compared with
  their critical values at ALPHA = 1e-6.  At 1%, one run in a hundred
  would fail by chance; the benchmark runs dozens of seeds, so a check
  must not fail on a correct program.  KS alone misses fringe-shape errors:
  a sampler biased by 0.05 rad in theta at n = 1e6 gives KS 1.3e-3, below
  even the 1% value 1.6e-3, and chi-square 727 against 181.
* Densities agree with the reference to 1e-9 of the panel's peak.
* The discrimination verdict uses the 5-nat llr threshold of acceptance
  criterion 9.  On definite-flux data 2 llr follows 1/2 chi2_0 + 1/2
  chi2_1, so llr > 5 has probability 8e-4 on a correct program.
"""

import hashlib
import math
from pathlib import Path

import numpy as np

import reference as ref

LIKELIHOOD_RTOL = 1e-9
REFINE_NATS = 1e-3
SIGMAS = 5.0
FISHER_SD = 1.49
ALPHA = 1e-6
CHI_SQUARE_BINS = 100
DENSITY_TOL = 1e-9
LLR_THRESHOLD = 5.0


def _close(value, expected, rtol=LIKELIHOOD_RTOL):
    return abs(value - expected) <= rtol * abs(expected)


def _provenance(comments, failures, expected):
    for key, want in {**ref.PROVENANCE, **expected}.items():
        if key not in comments:
            failures.append(f"provenance lacks {key}")
        elif float(comments[key]) != float(want):
            failures.append(f"provenance {key}={comments[key]}, expected {want!r}")


def _hits_file(op, work, failures):
    """Hit positions of a simulate output, after checking its structure."""
    comments, header, data = ref.read_table(work / op["outputs"][0])
    theta, phi = op["truth"]
    _provenance(comments, failures, {"theta": theta, "phi": phi, "n_hits": op["n"],
                                     "seed": op["seed"], "grid_points": ref.GRID_POINTS})
    if header != ["index", "x_m"]:
        failures.append(f"header {header}")
        return np.empty(0)
    if data.shape[0] != op["n"]:
        failures.append(f"{data.shape[0]} rows, expected {op['n']}")
    if not np.array_equal(data[:, 0], np.arange(data.shape[0])):
        failures.append("indices do not run 0..n-1")
    x = data[:, 1]
    outside = np.count_nonzero((x < ref.WINDOW[0]) | (x > ref.WINDOW[1]))
    if outside:
        failures.append(f"{outside} hits outside the window")
    return x


def _check_infer(op, truth, hits, work, failures):
    n = hits.size
    comments, header, data = ref.read_table(work / op["outputs"][0])
    points = op["points"]
    grid = np.linspace(0.0, math.pi, points)
    if header != ["theta", "phi", "loglik"] or data.shape[0] != points * points:
        failures.append(f"surface has header {header} and {data.shape[0]} rows")
        return
    thetas = data[:, 0].reshape(points, points)
    phis = data[:, 1].reshape(points, points)
    surface = data[:, 2].reshape(points, points)
    if not (np.allclose(thetas, grid[:, None], rtol=0, atol=1e-15)
            and np.allclose(phis, grid[None, :], rtol=0, atol=1e-15)):
        failures.append("surface grid is not linspace(0, pi) by linspace(0, pi)")
    theta_hat = float(comments["theta_hat"])
    phi_hat = float(comments["phi_hat"])
    best = float(comments["loglik_max"])
    likelihood = ref.Likelihood(hits)
    bound = SIGMAS * FISHER_SD / math.sqrt(n)
    if abs(theta_hat - truth[0]) > bound or abs(phi_hat - truth[1]) > bound:
        failures.append(f"(theta_hat, phi_hat) = ({theta_hat}, {phi_hat}) is more than "
                        f"{bound:.3g} from the truth {truth}")
    at_truth = likelihood(*truth)
    if best < at_truth - REFINE_NATS:
        failures.append(f"loglik_max {best} is below the likelihood at the truth {at_truth}")
    at_hat = likelihood(theta_hat, phi_hat)
    if not _close(best, at_hat):
        failures.append(f"loglik_max {best} != reference {at_hat} at the estimate")
    if best < np.max(surface) - LIKELIHOOD_RTOL * abs(best):
        failures.append(f"loglik_max {best} is below the surface maximum {np.max(surface)}")
    if comments.get("theta_flat") != "False":
        failures.append(f"theta_flat={comments.get('theta_flat')} at theta = phi = pi/2")
    last = points - 1
    mid = points // 2
    for i, j in ((0, 0), (0, last), (last, 0), (last, last), (mid, mid),
                 (points // 4, 3 * points // 4), (3 * points // 4, points // 5)):
        expected = likelihood(grid[i], grid[j])
        if not _close(surface[i, j], expected):
            failures.append(f"surface cell ({i}, {j}) = {surface[i, j]}, "
                            f"reference {expected}")


def _check_discriminate(op, truth, hits, work, failures):
    comments, header, data = ref.read_table(work / op["outputs"][0])
    names = ["loglik_superposition", "loglik_definite", "llr", "n_hits",
             "theta_hat", "phi_hat", "definite_phi"]
    if header != names or data.shape[0] != 1:
        failures.append(f"comparison has header {header} and {data.shape[0]} rows")
        return
    row = dict(zip(names, data[0]))
    direction = comments.get("definite_direction")
    sup, dfn, llr = row["loglik_superposition"], row["loglik_definite"], row["llr"]
    likelihood = ref.Likelihood(hits)
    at_truth = likelihood(*truth)
    if int(row["n_hits"]) != hits.size:
        failures.append(f"n_hits {row['n_hits']} for {hits.size} hits")
    if llr < 0.0 or not _close(llr + dfn, sup):
        failures.append(f"llr {llr} is not sup - def = {sup} - {dfn} >= 0")
    if sup < at_truth - REFINE_NATS:
        failures.append(f"loglik_superposition {sup} is below the truth {at_truth}")
    at_hat = likelihood(row["theta_hat"], row["phi_hat"])
    if not _close(sup, at_hat):
        failures.append(f"loglik_superposition {sup} != reference {at_hat} at the estimate")
    if direction not in ("up", "down"):
        failures.append(f"definite_direction={direction}")
        return
    definite_theta = 0.0 if direction == "up" else math.pi
    at_definite = likelihood(definite_theta, row["definite_phi"])
    if not _close(dfn, at_definite):
        failures.append(f"loglik_definite {dfn} != reference {at_definite} at "
                        f"({direction}, {row['definite_phi']})")
    if op["expect_superposed"]:
        if not llr > LLR_THRESHOLD:
            failures.append(f"llr {llr} <= {LLR_THRESHOLD} on superposed data")
    else:
        if llr > LLR_THRESHOLD:
            failures.append(f"llr {llr} > {LLR_THRESHOLD} on definite-flux data")
        if direction != ("up" if truth[0] == 0.0 else "down"):
            failures.append(f"definite_direction={direction} for theta = {truth[0]}")
        if dfn < at_truth - REFINE_NATS:
            failures.append(f"loglik_definite {dfn} is below the truth {at_truth}")


def _density_error(values, expected):
    peak = np.max(np.abs(expected))
    return float(np.max(np.abs(values - expected)) / peak)


def _check_sweep(op, work, failures):
    files = sorted((work / op["outputs"][0]).glob("*.csv"))
    wanted = {(t, p) for t in op["thetas"] for p in op["phis"]}
    x = np.linspace(*ref.WINDOW, op["screen_points"])
    plus, minus = ref.amplitudes(x)
    seen = set()
    for path in files:
        comments, header, data = ref.read_table(path)
        key = (float(comments["theta"]), float(comments["phi"]))
        if key not in wanted or key in seen:
            failures.append(f"{path.name}: unexpected or repeated (theta, phi) {key}")
            continue
        seen.add(key)
        if header != ["x_m", "density"] or not np.allclose(data[:, 0], x, rtol=0,
                                                            atol=1e-20):
            failures.append(f"{path.name}: x column is not the {x.size}-point window")
            continue
        error = _density_error(data[:, 1], ref.mixture(plus, minus, *key))
        if error > DENSITY_TOL:
            failures.append(f"{path.name}: density off by {error:.3g} of the peak")
    if seen != wanted:
        failures.append(f"{len(wanted - seen)} of {len(wanted)} sweep points missing")


def _check_panels(op, work, failures):
    """figure3 (theta fixed, phi in [0, 2 pi]) or figure4 (phi fixed, theta
    in [0, pi]) panels, and their graymaps when written."""
    figure = op["name"]
    heatmap = "--heatmap" in op["argv"]
    if figure == "figure3":
        panels = {"theta_0": 0.0, "theta_pi": math.pi, "theta_pi_2": math.pi / 2}
        params = np.linspace(0.0, 2.0 * math.pi, op["param_points"])
        header = ["x_m", "phi", "density"]
    else:
        panels = {"phi_pi_4": math.pi / 4, "phi_pi_2": math.pi / 2, "phi_pi": math.pi}
        params = np.linspace(0.0, math.pi, op["param_points"])
        header = ["x_m", "theta", "density"]
    x = np.linspace(*ref.WINDOW, op["screen_points"])
    plus, minus = ref.amplitudes(x)
    for suffix, fixed in panels.items():
        path = work / op["outputs"][0] / f"{figure}_{suffix}.csv"
        comments, names, data = ref.read_table(path)
        shape = (params.size, x.size)
        if names != header or data.shape[0] != shape[0] * shape[1]:
            failures.append(f"{path.name}: header {names}, {data.shape[0]} rows")
            continue
        xs = data[:, 0].reshape(shape)
        ps = data[:, 1].reshape(shape)
        values = data[:, 2].reshape(shape)
        if not (np.allclose(xs, x[None, :], rtol=0, atol=1e-20)
                and np.allclose(ps, params[:, None], rtol=0, atol=1e-14)):
            failures.append(f"{path.name}: (x, parameter) grid is wrong")
            continue
        if figure == "figure3":
            expected = ref.mixture(plus, minus, fixed, params[:, None])
        else:
            expected = ref.mixture(plus, minus, params[:, None], fixed)
        error = _density_error(values, expected)
        if error > DENSITY_TOL:
            failures.append(f"{path.name}: density off by {error:.3g} of the peak")
        if heatmap:
            pixels = ref.read_pgm(path.with_suffix(".pgm"))
            clipped = np.maximum(values, 0.0)
            scaled = 255.0 * (clipped / clipped.max())
            # a value within rounding of an integer level may land either side
            if pixels.shape != shape or np.any((pixels != np.floor(scaled)) & (
                    np.abs(scaled - np.round(scaled)) > 1e-9)):
                failures.append(f"{path.with_suffix('.pgm').name}: pixels are not "
                                "floor(255 v / max) of the CSV")


def check(plan, ops, work):
    """Failure messages per operation for one pass whose outputs are in work."""
    work = Path(work)
    failures = [[] for _ in plan["ops"]]
    hits = {}
    for index, (op, record) in enumerate(zip(plan["ops"], ops)):
        if record["rc"] != 0:
            failures[index].append(f"exit code {record['rc']}: {record['error']}")
            continue
        try:
            _check_op(plan, index, op, record, hits, work, failures[index])
        except Exception as exc:  # unreadable or malformed output
            failures[index].append(f"{type(exc).__name__}: {exc}")
    return failures


def _check_op(plan, index, op, record, hits, work, failures):
    name = op["name"]
    if name == "simulate":
        hits[index] = _hits_file(op, work, failures)
        if "prefix_of" in op:
            full = hits[op["prefix_of"]]
            if not np.array_equal(hits[index], full[:hits[index].size]):
                failures.append("a shorter run with the same seed is not a prefix")
        elif op.get("goodness_of_fit"):
            d = ref.ks_statistic(hits[index], *op["truth"])
            critical = ref.ks_critical(op["n"], ALPHA)
            if d > critical:
                failures.append(f"KS distance {d:.3g} > {critical:.3g}")
            stat = ref.chi_square(hits[index], *op["truth"], CHI_SQUARE_BINS)
            critical = ref.chi_square_critical(CHI_SQUARE_BINS, ALPHA)
            if stat > critical:
                failures.append(f"chi-square {stat:.4g} > {critical:.4g} "
                                f"over {CHI_SQUARE_BINS} bins")
    elif name == "infer":
        _check_infer(op, plan["ops"][op["hits_op"]]["truth"], hits[op["hits_op"]],
                     work, failures)
    elif name == "discriminate":
        _check_discriminate(op, plan["ops"][op["hits_op"]]["truth"], hits[op["hits_op"]],
                            work, failures)
    elif name == "sweep":
        _check_sweep(op, work, failures)
    elif name in ("figure3", "figure4"):
        _check_panels(op, work, failures)
    elif name == "read_hits_csv":
        value = record["value"]
        source = plan["ops"][op["hits_op"]]
        x = np.ascontiguousarray(hits[op["hits_op"]])
        if value["n"] != source["n"] or value["sha256"] != hashlib.sha256(x.tobytes()).hexdigest():
            failures.append("HitSet positions differ from the file's rows")
        if (float(value["theta"]), float(value["phi"])) != tuple(source["truth"]) or [
                float(v) for v in value["window"]] != list(ref.WINDOW):
            failures.append("HitSet flux or window differ from the file's provenance")
    elif name == "log_likelihood":
        value = float(record["value"]["value"])
        expected = ref.Likelihood(hits[op["hits_op"]])(*op["truth"])
        if not _close(value, expected):
            failures.append(f"log_likelihood {value} != reference {expected}")
