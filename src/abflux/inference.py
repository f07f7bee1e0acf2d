"""Likelihood inference of flux-superposition parameters from hits.

The screen density is A(x) + B(x) cos(phi) + C(x) sin(phi) cos(theta)
with geometry-only components A, B, C, so a likelihood evaluation needs
the components once per hit set while every (theta, phi) cell costs one
fused pass over the hits.  Normalization over the window is exact in the
same decomposition: the trapezoid integral of the density is the same
linear combination of the component integrals.

Estimation is plain unbinned maximum likelihood over the window-normalized
density: a coarse grid scan over theta, phi in [0, pi] followed by
alternating golden-section refinement on each axis.  The parameter pair is
degenerate under (theta, phi) -> (pi - theta, 2 pi - phi); estimates are
reported with phi in [0, pi], which the scan domain already enforces.

The hidden-flux test compares the best superposition fit against the best
definite-flux fit (theta pinned to 0 or pi, phi free).  The definite
family is the boundary of the superposition family, so its maximized
log-likelihood can never exceed the superposition one; the difference is
the reported log-likelihood ratio.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError
from .pattern import pattern_components
from .sampling import DEFAULT_GRID_POINTS, HitSet
from .slits import ApertureGeometry

DEFAULT_SCAN_POINTS = 181
DEFAULT_DISCRIMINATE_SCAN_POINTS = 91   # per-axis scan inside discriminate
REFINE_STEP = 1e-4          # rad; stop refining when neither axis moves this much
_GOLDEN = (5.0 ** 0.5 - 1.0) / 2.0
_FLAT_GAP_NATS = 10.0       # if the best fit beats the better zero-phase fit
                            # (phi = 0 or pi, where sin(phi) = 0 and theta
                            # drops out of the density) by less than this,
                            # theta is unidentified; the two regimes
                            # separate by orders of magnitude (flat data
                            # stays below ~4 nats, identified cases run to
                            # hundreds even at n = 1e3)
_CELL_BLOCK_FLOPS = 4_000_000


def canonical_angles(theta, phi):
    """Map (theta, phi) to the canonical reporting domain phi in [0, pi].

    The screen density is invariant under (theta, phi) ->
    (pi - theta, 2 pi - phi); this picks the representative with
    phi in [0, pi] after reducing phi mod 2 pi.
    """
    phi = float(phi) % (2.0 * np.pi)
    theta = float(theta)
    if phi > np.pi:
        return np.pi - theta, 2.0 * np.pi - phi
    return theta, phi


class Checkpoint(NamedTuple):
    n_hits: int
    theta_hat: float
    phi_hat: float
    llr: float


@dataclass(frozen=True)
class LikelihoodSurface:
    """Log-likelihood over a (theta, phi) grid plus the refined argmax."""

    theta_grid: np.ndarray
    phi_grid: np.ndarray
    loglik: np.ndarray          # shape (len(theta_grid), len(phi_grid)), nats
    theta_hat: float
    phi_hat: float
    loglik_max: float
    theta_flat: bool            # theta unidentifiable (phi = 0 or pi fits)

    @property
    def argmax(self):
        return (self.theta_hat, self.phi_hat)


@dataclass(frozen=True)
class HypothesisResult:
    """Superposition-vs-definite-flux comparison on one hit set."""

    loglik_superposition: float
    loglik_definite: float
    llr: float
    n_hits: int
    theta_hat: float            # superposition-family estimate
    phi_hat: float
    definite_direction: str     # "up" or "down"
    definite_phi: float

    def __post_init__(self):
        if self.llr < 0.0:
            raise DomainError(
                "definite-flux fit exceeded the superposition fit; "
                "the families are nested so this cannot happen"
            )


@dataclass(frozen=True)
class SequentialTrace:
    """Estimates and llr recomputed on growing hit prefixes."""

    checkpoints: tuple

    def __post_init__(self):
        counts = [c.n_hits for c in self.checkpoints]
        if any(b <= a for a, b in zip(counts, counts[1:])):
            raise DomainError("checkpoint hit counts must be strictly increasing")
        object.__setattr__(self, "checkpoints", tuple(self.checkpoints))


def segment_slopes(trace: SequentialTrace, split_index: int):
    """Least-squares slopes of llr vs hit count before/after a checkpoint
    index; a jump in the source shows up as a change between the two."""
    points = [(c.n_hits, c.llr) for c in trace.checkpoints]
    if not 2 <= split_index <= len(points) - 2:
        raise DomainError("need at least two checkpoints on each side of the split")

    def slope(part):
        ns = np.array([p[0] for p in part], dtype=float)
        ys = np.array([p[1] for p in part], dtype=float)
        return float(np.polyfit(ns, ys, 1)[0])

    return slope(points[:split_index]), slope(points[split_index:])


class _LikelihoodContext:
    """Pattern components at the hit positions and on the normalization
    grid, with log-likelihood evaluation for single cells and cell batches."""

    def __init__(self, positions, geometry, window, grid_points=DEFAULT_GRID_POINTS):
        positions = np.asarray(positions, dtype=float)
        if positions.ndim != 1:
            raise DomainError("hit positions must be a 1-D array")
        x_min, x_max = (float(v) for v in window)
        if not (np.isfinite(x_min) and np.isfinite(x_max) and x_min < x_max):
            raise DomainError(f"window must satisfy x_min < x_max, got {window!r}")
        if positions.size and not (
            np.all(positions >= x_min) and np.all(positions <= x_max)
        ):
            raise DomainError("hits must lie inside the likelihood window")
        grid = np.linspace(x_min, x_max, int(grid_points))
        grid_a, grid_b, grid_c = pattern_components(geometry, grid)
        self.norm_a = float(np.trapezoid(grid_a, grid))
        self.norm_b = float(np.trapezoid(grid_b, grid))
        self.norm_c = float(np.trapezoid(grid_c, grid))
        self.hit_a, self.hit_b, self.hit_c = pattern_components(geometry, positions)
        self.n = positions.size

    def prefix(self, n):
        """A view of this context restricted to the first n hits."""
        if not 0 <= n <= self.n:
            raise DomainError(f"prefix length {n} out of range")
        sub = object.__new__(_LikelihoodContext)
        sub.norm_a, sub.norm_b, sub.norm_c = self.norm_a, self.norm_b, self.norm_c
        sub.hit_a = self.hit_a[:n]
        sub.hit_b = self.hit_b[:n]
        sub.hit_c = self.hit_c[:n]
        sub.n = n
        return sub

    def loglik_and_zero_count(self, theta, phi):
        c = np.cos(phi)
        s = np.sin(phi) * np.cos(theta)
        vals = self.hit_a + c * self.hit_b + s * self.hit_c
        zeros = int(np.count_nonzero(vals <= 0.0))
        if zeros:
            return -np.inf, zeros
        norm = self.norm_a + c * self.norm_b + s * self.norm_c
        return float(np.log(vals).sum() - self.n * np.log(norm)), 0

    def loglik(self, theta, phi):
        return self.loglik_and_zero_count(theta, phi)[0]

    def loglik_cells(self, thetas, phis):
        """Log-likelihood at paired (theta, phi) arrays, blocked so the
        hits-by-cells work array stays small."""
        thetas = np.asarray(thetas, dtype=float)
        phis = np.asarray(phis, dtype=float)
        c = np.cos(phis)
        s = np.sin(phis) * np.cos(thetas)
        out = np.empty(c.size)
        if self.n == 0:
            out.fill(0.0)
            return out
        block = max(1, _CELL_BLOCK_FLOPS // self.n)
        for i in range(0, c.size, block):
            cc = c[i:i + block, None]
            ss = s[i:i + block, None]
            v = self.hit_a[None, :] + cc * self.hit_b[None, :]
            v += ss * self.hit_c[None, :]
            bad = (v <= 0.0).any(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                rows = np.log(v).sum(axis=1)
            rows[bad] = -np.inf
            out[i:i + block] = rows
        return out - self.n * np.log(self.norm_a + c * self.norm_b + s * self.norm_c)


def _resolve_inputs(hits, geometry, window):
    """Accept a HitSet (carrying geometry/window) or a bare position array."""
    if isinstance(hits, HitSet):
        positions = hits.positions
        geometry = geometry if geometry is not None else hits.geometry
        window = window if window is not None else hits.config.window
    else:
        positions = np.asarray(hits, dtype=float)
    if geometry is None or window is None:
        raise DomainError("geometry and window are required with bare position arrays")
    if not isinstance(geometry, ApertureGeometry):
        raise DomainError("geometry must be an ApertureGeometry")
    return positions, geometry, window


def log_likelihood(hits, geometry=None, theta=None, phi=None, window=None,
                   grid_points=DEFAULT_GRID_POINTS):
    """Unbinned log-likelihood of (theta, phi) for a hit set, in nats.

    Each hit contributes log of the window-normalized density at its
    position (the same normalization the sampler uses).  Hits sitting
    exactly where the model density vanishes poison the sum: the result is
    -inf and a warning reports how many such hits there were.
    """
    if theta is None or phi is None:
        raise DomainError("theta and phi are required")
    positions, geometry, window = _resolve_inputs(hits, geometry, window)
    ctx = _LikelihoodContext(positions, geometry, window, grid_points)
    value, zeros = ctx.loglik_and_zero_count(float(theta), float(phi))
    if zeros:
        warnings.warn(
            f"{zeros} of {ctx.n} hits sit where the model density is zero; "
            "log-likelihood is -inf",
            stacklevel=2,
        )
    return value


def _golden_max(func, lo, hi, tol):
    """Golden-section maximization of func on [lo, hi]; (x, f(x))."""
    a, b = float(lo), float(hi)
    width = b - a
    if width <= tol:
        mid = 0.5 * (a + b)
        return mid, func(mid)
    x1 = b - _GOLDEN * width
    x2 = a + _GOLDEN * width
    f1 = func(x1)
    f2 = func(x2)
    while width > tol:
        if f1 < f2:
            a = x1
            width = b - a
            x1, f1 = x2, f2
            x2 = a + _GOLDEN * width
            f2 = func(x2)
        else:
            b = x2
            width = b - a
            x2, f2 = x1, f1
            x1 = b - _GOLDEN * width
            f1 = func(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _refine(ctx, theta, phi, theta_step, phi_step):
    """Alternating per-axis golden-section climb from a scan cell."""
    for _ in range(60):
        new_theta, _ = _golden_max(
            lambda t: ctx.loglik(t, phi),
            max(0.0, theta - theta_step), min(np.pi, theta + theta_step),
            REFINE_STEP,
        )
        new_phi, _ = _golden_max(
            lambda p: ctx.loglik(new_theta, p),
            max(0.0, phi - phi_step), min(np.pi, phi + phi_step),
            REFINE_STEP,
        )
        moved = max(abs(new_theta - theta), abs(new_phi - phi))
        theta, phi = new_theta, new_phi
        if moved < REFINE_STEP:
            break
    return theta, phi, ctx.loglik(theta, phi)


def _scan_and_refine(ctx, theta_points, phi_points):
    """Grid scan over [0, pi] x [0, pi] plus refinement; returns the grids,
    the loglik matrix, and the refined (theta, phi, loglik)."""
    theta_grid = np.linspace(0.0, np.pi, int(theta_points))
    phi_grid = np.linspace(0.0, np.pi, int(phi_points))
    mesh_t, mesh_p = np.meshgrid(theta_grid, phi_grid, indexing="ij")
    matrix = ctx.loglik_cells(mesh_t.ravel(), mesh_p.ravel()).reshape(mesh_t.shape)
    i, j = np.unravel_index(np.argmax(matrix), matrix.shape)
    theta_step = theta_grid[1] - theta_grid[0] if theta_grid.size > 1 else np.pi
    phi_step = phi_grid[1] - phi_grid[0] if phi_grid.size > 1 else np.pi
    theta_hat, phi_hat, best = _refine(
        ctx, float(theta_grid[i]), float(phi_grid[j]), theta_step, phi_step
    )
    return theta_grid, phi_grid, matrix, theta_hat, phi_hat, best


def fit_mle(hits, geometry=None, window=None, theta_points=DEFAULT_SCAN_POINTS,
            phi_points=DEFAULT_SCAN_POINTS, grid_points=DEFAULT_GRID_POINTS):
    """Maximum-likelihood (theta, phi) from a hit set.

    Coarse grid scan over [0, pi] x [0, pi] (the canonical half of the
    degenerate parameter torus) followed by alternating golden-section
    refinement until the per-round step drops below 1e-4 rad.

    Returns a :class:`LikelihoodSurface`; ``theta_flat`` is set when the
    fit cannot reject the zero-phase family (phi = 0 or phi = pi, inside
    which theta has no effect on the density), in which case
    ``theta_hat`` is not meaningful.
    """
    positions, geometry, window = _resolve_inputs(hits, geometry, window)
    if positions.size == 0:
        raise DomainError("cannot fit an empty hit set")
    ctx = _LikelihoodContext(positions, geometry, window, grid_points)
    theta_grid, phi_grid, matrix, theta_hat, phi_hat, best = _scan_and_refine(
        ctx, theta_points, phi_points
    )
    theta_hat, phi_hat = canonical_angles(theta_hat, phi_hat)
    zero_phase = max(ctx.loglik(0.0, 0.0), ctx.loglik(0.0, np.pi))
    theta_flat = bool(best - zero_phase < _FLAT_GAP_NATS)
    return LikelihoodSurface(
        theta_grid=theta_grid,
        phi_grid=phi_grid,
        loglik=matrix,
        theta_hat=theta_hat,
        phi_hat=phi_hat,
        loglik_max=best,
        theta_flat=theta_flat,
    )


def _fit_definite(ctx, phi_points):
    """Best definite-flux model: direction in {up, down}, phi free."""
    phi_grid = np.linspace(0.0, np.pi, int(phi_points))
    phi_step = phi_grid[1] - phi_grid[0]
    best = (-np.inf, "up", 0.0)
    for direction, theta_fixed in (("up", 0.0), ("down", np.pi)):
        row = ctx.loglik_cells(np.full_like(phi_grid, theta_fixed), phi_grid)
        j = int(np.argmax(row))
        phi_hat, value = _golden_max(
            lambda p: ctx.loglik(theta_fixed, p),
            max(0.0, phi_grid[j] - phi_step), min(np.pi, phi_grid[j] + phi_step),
            REFINE_STEP,
        )
        if value > best[0]:
            best = (value, direction, float(phi_hat))
    return best


def discriminate(hits, geometry=None, window=None,
                 scan_points=DEFAULT_DISCRIMINATE_SCAN_POINTS,
                 phi_points=DEFAULT_SCAN_POINTS, grid_points=DEFAULT_GRID_POINTS):
    """Superposition-vs-definite-flux likelihood comparison.

    Maximizes the log-likelihood under (a) the full superposition family
    and (b) the definite-flux family (theta pinned to 0 or pi, phi free),
    and reports both maxima and their difference (llr, >= 0 since the
    definite family is the boundary of the superposition family).
    """
    positions, geometry, window = _resolve_inputs(hits, geometry, window)
    if positions.size == 0:
        raise DomainError("cannot discriminate on an empty hit set")
    ctx = _LikelihoodContext(positions, geometry, window, grid_points)
    return _discriminate_ctx(ctx, scan_points, phi_points)


def _discriminate_ctx(ctx, scan_points, phi_points):
    loglik_definite, direction, definite_phi = _fit_definite(ctx, phi_points)
    _, _, _, theta_hat, phi_hat, loglik_sup = _scan_and_refine(
        ctx, scan_points, scan_points
    )
    # the definite optimum is a point of the superposition family; folding
    # it in makes the nesting inequality exact instead of refinement-limited
    boundary_theta = 0.0 if direction == "up" else np.pi
    if loglik_definite > loglik_sup:
        theta_hat, phi_hat, loglik_sup = boundary_theta, definite_phi, loglik_definite
    theta_hat, phi_hat = canonical_angles(theta_hat, phi_hat)
    return HypothesisResult(
        loglik_superposition=loglik_sup,
        loglik_definite=loglik_definite,
        llr=loglik_sup - loglik_definite,
        n_hits=ctx.n,
        theta_hat=theta_hat,
        phi_hat=phi_hat,
        definite_direction=direction,
        definite_phi=definite_phi,
    )


def sequential_trace(hits, geometry=None, window=None, checkpoint_schedule=(),
                     theta_points=DEFAULT_SCAN_POINTS, phi_points=DEFAULT_SCAN_POINTS,
                     scan_points=DEFAULT_DISCRIMINATE_SCAN_POINTS,
                     grid_points=DEFAULT_GRID_POINTS) -> SequentialTrace:
    """Fit and discriminate on growing hit prefixes.

    ``checkpoint_schedule`` is a strictly increasing sequence of prefix
    lengths, each at most the number of hits.  The pattern components are
    computed once for the full set and sliced per checkpoint.
    """
    positions, geometry, window = _resolve_inputs(hits, geometry, window)
    schedule = [int(n) for n in checkpoint_schedule]
    if not schedule:
        raise DomainError("checkpoint schedule must not be empty")
    if any(n < 1 for n in schedule) or any(
        b <= a for a, b in zip(schedule, schedule[1:])
    ):
        raise DomainError("checkpoint schedule must be strictly increasing and >= 1")
    if schedule[-1] > positions.size:
        raise DomainError(
            f"schedule reaches {schedule[-1]} hits but only {positions.size} are available"
        )
    ctx = _LikelihoodContext(positions, geometry, window, grid_points)
    checkpoints = []
    for n in schedule:
        sub = ctx.prefix(n)
        _, _, _, theta_hat, phi_hat, _ = _scan_and_refine(sub, theta_points, phi_points)
        theta_hat, phi_hat = canonical_angles(theta_hat, phi_hat)
        result = _discriminate_ctx(sub, scan_points, phi_points)
        checkpoints.append(Checkpoint(n, theta_hat, phi_hat, result.llr))
    return SequentialTrace(checkpoints=tuple(checkpoints))
