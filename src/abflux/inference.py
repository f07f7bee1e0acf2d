"""Likelihood inference of flux-superposition parameters from hits.

The screen density is A(x) + B(x) c + C(x) s with geometry-only components
A, B, C and the flux's point (c, s) of the unit disk (pattern.disk_point),
so a likelihood evaluation needs the components once per hit set and
takes disk points.  A hit's term is then log A plus log(1 + c B/A + s C/A),
and the factors of a group of hits share one log through their product;
hits where the density can come close to zero keep the term
log(A + B c + C s) as it stands.  The part 1 + c B/A (or A + B c) depends
on c alone, so points that share c, such as a phi column of the surface,
share it too: c may be passed once per column.  Normalization over the
window is exact in the same decomposition: the trapezoid integral of the
density is the same combination of the component integrals.

Estimation is unbinned maximum likelihood over the disk: in
u = t (1, c, s) on the plane N . u = 1 the log-likelihood
sum_i log(a_i . u) is concave (Charnes & Cooper, NRLQ 9, 1962): damped
Newton from the disk centre finds its one maximum without a grid.  When it
is not inside the disk, the disk's maximum lies on the boundary circle, the
definite-flux family (theta = 0 or pi), whose global maximum branch and
bound over arcs certifies to _GAP_NATS: on the same plane, tangent planes
of the concave log-likelihood bound it from above.  Estimates have phi in
[0, pi]; (theta, phi) and (pi - theta, 2 pi - phi) give the same density.

The hidden-flux test compares the best superposition fit against the best
definite-flux fit.  The definite family is the boundary of the
superposition family, so its maximized log-likelihood can never exceed the
superposition one; the difference is the reported log-likelihood ratio,
exactly 0 when the maximum lies on the boundary.
"""

from __future__ import annotations

import heapq
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DomainError, _checked_count, _checked_real
from .pattern import combine_components, disk_angles, disk_point, pattern_components
from .sampling import DEFAULT_GRID_POINTS, HitSet, _checked_hits, _window_grid
from .slits import ApertureGeometry

DEFAULT_SURFACE_POINTS = 181
_GAP_NATS = 1e-9            # certified distance of the circle fit below its maximum
_ARCS = 16                  # initial arcs of the circle's branch and bound
_NEWTON_STEPS = 50          # fits with an interior maximum take at most ~10
_NEWTON_GAP_NATS = 1e-10    # stop once the Newton decrement lambda^2 / 2 is below
_FLAT_GAP_NATS = 10.0       # theta is unidentified when the best fit beats
                            # the better zero-phase fit (phi = 0 or pi, where
                            # theta drops out) by less than this; a sample's
                            # maximum lies inside the disk, not on c = +-1.
                            # Flat data stays below ~4 nats, identified cases
                            # reach hundreds even at n = 1e3
_CELL_BLOCK = 1 << 16       # hits-by-points elements per loglik block
_FLAG_RATIO = 1e-5          # a hit whose density can fall below this share
                            # of A keeps its raw log-density term
_GROUP = 32                 # hits whose factors share one log


def canonical_angles(theta, phi):
    """Map (theta, phi) to the canonical reporting domain phi in [0, pi].

    The screen density is invariant under (theta, phi) ->
    (pi - theta, 2 pi - phi); this picks the representative with
    phi in [0, pi] after reducing phi mod 2 pi.
    """
    theta = _checked_real("theta", theta, 0.0, np.pi)
    phi = _checked_real("phi", phi) % (2.0 * np.pi)
    if phi > np.pi:
        return np.pi - theta, 2.0 * np.pi - phi
    return theta, phi


class Checkpoint(NamedTuple):
    n_hits: int
    theta_hat: float
    phi_hat: float
    llr: float


class _OnFirstRead:
    """A dataclass field that may be given as a function of no arguments:
    the first read calls it and keeps what it returns."""

    def __set_name__(self, owner, name):
        self.slot = "_" + name

    def __get__(self, obj, owner=None):
        if obj is None:
            # no class-level value, so the dataclass sees no default
            raise AttributeError(self.slot)
        value = obj.__dict__[self.slot]
        if callable(value):
            value = obj.__dict__[self.slot] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.slot] = value


@dataclass(frozen=True)
class LikelihoodSurface:
    """Log-likelihood over a (theta, phi) grid plus the likelihood maximum."""

    theta_grid: np.ndarray
    phi_grid: np.ndarray
    loglik: np.ndarray = _OnFirstRead()   # (len(theta_grid), len(phi_grid)), nats
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
    # at least two checkpoints on each side of the split
    split_index = _checked_count("split_index", split_index, 2, len(points) - 1)

    def slope(part):
        ns = np.array([p[0] for p in part], dtype=float)
        ys = np.array([p[1] for p in part], dtype=float)
        return float(np.polyfit(ns, ys, 1)[0])

    return slope(points[:split_index]), slope(points[split_index:])


class _LikelihoodContext:
    """Pattern components at the hit positions and their integrals over the
    window, with log-likelihood evaluation for single cells and cell batches.

    A hit whose smallest density over the disk, A - hypot(B, C), is at least
    _FLAG_RATIO * A is kept; the others are flagged, and flag_at holds their
    indices.  The per-hit arrays hit_a, hit_b, hit_c hold the flagged hits
    first, in reverse hit order, as their raw A, B and C, and then the kept
    hits in hit order as log A, B / A and C / A.  So the first n hits are
    always one run of columns, and a prefix is a view.
    """

    def __init__(self, positions, geometry, window, grid_points=DEFAULT_GRID_POINTS):
        positions = _checked_hits(positions, window)
        grid = _window_grid(window, grid_points)
        norms = [float(np.trapezoid(v, grid)) for v in pattern_components(geometry, grid)]
        self._adopt(norms, *pattern_components(geometry, positions))

    @classmethod
    def from_components(cls, norms, a, b, c):
        """A context over hits with components a, b, c (arrays this takes
        over and overwrites) and window integrals norms = (N_A, N_B, N_C)."""
        ctx = object.__new__(cls)
        ctx._adopt(norms, a, b, c)
        return ctx

    def _adopt(self, norms, a, b, c):
        self.norm_a, self.norm_b, self.norm_c = norms
        self.n = a.size
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.hypot(b, c)
            ratio /= a
        keep = ratio <= 1.0 - _FLAG_RATIO   # false for A = 0
        del ratio   # freed before the copies below
        self.flag_at = np.flatnonzero(~keep)
        j = self.flag_at.size
        if j:
            for x in (a, b, c):
                x[j:], x[:j] = x[keep], x[self.flag_at[::-1]]
        np.divide(b[j:], a[j:], out=b[j:])
        np.divide(c[j:], a[j:], out=c[j:])
        np.log(a[j:], out=a[j:])
        self.hit_a, self.hit_b, self.hit_c = a, b, c

    def prefix(self, n):
        """A view of this context restricted to the first n hits."""
        n = _checked_count("prefix length", n, 0, self.n + 1)
        sub = object.__new__(_LikelihoodContext)
        sub.norm_a, sub.norm_b, sub.norm_c = self.norm_a, self.norm_b, self.norm_c
        sub.n = n
        j = int(np.searchsorted(self.flag_at, n))
        sub.flag_at = self.flag_at[:j]
        cols = slice(self.flag_at.size - j, self.flag_at.size - j + n)
        sub.hit_a, sub.hit_b, sub.hit_c = self.hit_a[cols], self.hit_b[cols], self.hit_c[cols]
        return sub

    def slopes(self):
        """Per-hit g_i = N_A (B_i, C_i) / A_i - (N_B, N_C): the kept hits,
        then the flagged ones, each in hit order."""
        j = self.flag_at.size
        g1, g2 = (np.concatenate((x[j:], x[:j][::-1] / self.hit_a[:j][::-1]))
                  for x in (self.hit_b, self.hit_c))
        return self.norm_a * g1 - self.norm_b, self.norm_a * g2 - self.norm_c

    def loglik(self, c, s):
        """Log-likelihood at the disk points (c, s), -inf where a hit's
        density is not positive.  c and s are floats or arrays that broadcast
        together, and the result has their broadcast shape (a float when it
        is ()).  Each entry of c heads a fan, the points it broadcasts over,
        so c may only be broadcast along trailing axes: a fan is then a run
        of points in C order.  Paired arrays are fans of one point; the
        surface passes cos(phi) of shape (phi, 1), one fan per phi column.

        A kept hit's term is log A + log(1 + c B/A + s C/A).  Its factor lies
        in [_FLAG_RATIO, 2], so halving passes multiply the factors into
        products of at most _GROUP, which stay far from underflow and
        overflow, and each product takes one log.  A flagged hit's term is
        log(A + B c + C s) as it stands, since near a zero of the density
        1 + c B/A cancels to the rounding of B/A.  The base c B/A + 1, or
        A + B c, is formed once per fan; each point then costs s C/A, or
        s C, into one buffer and one add of its base, so a cell rounds as
        (c B/A + 1) + s C/A whatever the fan.  Points go in blocks of
        _CELL_BLOCK hits-by-points elements, whole fans to a block when they
        fit, through one buffer that also holds the bases, so the work stays
        in cache and nothing is allocated per block."""
        shape, lead = np.broadcast(c, s).shape, np.shape(c)
        lead = (1,) * (len(shape) - len(lead)) + lead
        axes = len(lead)
        while axes and lead[axes - 1] == 1:
            axes -= 1
        if lead[:axes] != shape[:axes]:
            raise DomainError(
                f"c of shape {np.shape(c)} is broadcast along a leading axis of {shape}")
        norm = np.log(combine_components((self.norm_a, self.norm_b, self.norm_c), c, s))
        c, s = np.ravel(c), np.broadcast_to(s, shape).ravel()
        fan = s.size // c.size if s.size else 1     # points per entry of c
        c = c[:s.size // fan]                       # no fans without points
        out = np.empty(s.size)
        n, j = self.n, self.flag_at.size
        rows = max(1, min(s.size, _CELL_BLOCK // max(n, 1)))
        fans = max(1, rows // fan)      # whole fans per block, or one fan over blocks
        block = min(rows, fans * fan)
        buffer = _aligned_rows(fans + block, n)
        base, v = buffer[:fans], buffer[fans:]
        # a zero density logs to -inf and a negative one to nan
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(0, c.size, fans):
                m = min(fans, c.size - i)
                np.multiply(c[i:i + m, None], self.hit_b, out=base[:m])
                base[:m, :j] += self.hit_a[:j]
                base[:m, j:] += 1.0
                for p in range(i * fan, (i + m) * fan, block):
                    k = min(block, (i + m) * fan - p)
                    vk = v[:k]
                    fanned = vk.reshape(m, k // m, n)
                    np.multiply(s[p:p + k].reshape(m, k // m, 1), self.hit_c, out=fanned)
                    fanned += base[:m, None]
                    # the products of the kept factors follow the flagged densities
                    size = j + _group_products(vk[:, j:])
                    np.log(vk[:, :size], out=vk[:, :size])
                    np.sum(vk[:, :size], axis=1, out=out[p:p + k])
        out -= n * np.ravel(norm)
        out += self.hit_a[j:].sum()
        out[np.isnan(out)] = -np.inf
        return float(out[0]) if shape == () else out.reshape(shape)


def _group_products(factors):
    """Multiply the factors along the last axis, in place, into products of
    at most _GROUP of them, and return how many leading entries hold the
    products.  Each halving pass multiplies the back half onto the front."""
    size = factors.shape[-1]
    groups = -(-size // _GROUP)
    while size > groups:
        half = -(-size // 2)
        factors[..., :size - half] *= factors[..., half:size]
        size = half
    return size


def _aligned_rows(rows, n):
    """An empty (rows, n) float array whose every row starts on a 64-byte
    boundary, its row stride padded to a multiple of 8 floats.  On AVX-512
    hosts the kernel runs slower on rows that start at 16 (mod 32) bytes,
    and np.empty gives either alignment depending on the heap's state."""
    stride = -(-n // 8) * 8
    raw = np.empty(rows * stride + 7)
    start = -raw.ctypes.data % 64 // 8
    return raw[start:start + rows * stride].reshape(rows, stride)[:, :n]


def _resolve_inputs(hits, geometry, window, grid_points):
    """Positions, geometry, window and normalization grid_points of a HitSet,
    each argument given overriding the HitSet's; or of a bare position
    array, which needs geometry and window and defaults grid_points to
    DEFAULT_GRID_POINTS."""
    positions = hits
    if isinstance(hits, HitSet):
        positions = hits.positions
        geometry = hits.geometry if geometry is None else geometry
        window = hits.config.window if window is None else window
        grid_points = hits.config.grid_points if grid_points is None else grid_points
    grid_points = DEFAULT_GRID_POINTS if grid_points is None else grid_points
    if geometry is None or window is None:
        raise DomainError("geometry and window are required with bare position arrays")
    if not isinstance(geometry, ApertureGeometry):
        raise DomainError("geometry must be an ApertureGeometry")
    return positions, geometry, window, grid_points


def log_likelihood(hits, geometry=None, theta=None, phi=None, window=None,
                   grid_points=None):
    """Unbinned log-likelihood of (theta, phi) for a hit set, in nats.

    Each hit contributes log of the window-normalized density at its
    position (the same normalization the sampler uses).  Hits sitting
    exactly where the model density vanishes poison the sum: the result is
    -inf and a warning reports how many such hits there were.
    """
    theta, phi = _checked_real("theta", theta), _checked_real("phi", phi)
    ctx = _LikelihoodContext(*_resolve_inputs(hits, geometry, window, grid_points))
    point = disk_point(theta, phi)
    value = ctx.loglik(*point)
    if value == -math.inf:
        # only a flagged hit's density can reach zero
        j = ctx.flag_at.size
        zeros = np.count_nonzero(
            combine_components((ctx.hit_a[:j], ctx.hit_b[:j], ctx.hit_c[:j]), *point) <= 0.0)
        warnings.warn(
            f"{zeros} of {ctx.n} hits sit where the model density is zero; "
            "log-likelihood is -inf",
            stacklevel=2,
        )
    return value


def _newton_disk(ctx, g1, g2):
    """The log-likelihood maximum (c, s) inside the unit disk, or None.

    With y = t (c, s) on the plane N . u = 1, log(a_i . u) is
    log(A_i / N_A) + log(1 + y . g_i), g_i = N_A (B_i, C_i) / A_i - (N_B, N_C).
    Damped Newton starts at y = 0, the disk centre.  A singular Hessian, an
    unbounded likelihood or a limit outside the disk give None.
    """
    y1 = y2 = 0.0
    for _ in range(_NEWTON_STEPS):
        inv = 1.0 / (1.0 + y1 * g1 + y2 * g2)
        q1, q2 = g1 * inv, g2 * inv
        grad1, grad2 = q1.sum(), q2.sum()
        h11, h12, h22 = (q1 * q1).sum(), (q1 * q2).sum(), (q2 * q2).sum()
        det = h11 * h22 - h12 * h12
        if not det > 1e-12 * h11 * h22:
            return None
        d1 = (h22 * grad1 - h12 * grad2) / det
        d2 = (h11 * grad2 - h12 * grad1) / det
        decrement = grad1 * d1 + grad2 * d2
        if decrement < 2.0 * _NEWTON_GAP_NATS:
            t = (1.0 - ctx.norm_b * y1 - ctx.norm_c * y2) / ctx.norm_a
            if t > 0.0 and (y1 / t) ** 2 + (y2 / t) ** 2 < 1.0:
                return float(y1 / t), float(y2 / t)
            return None
        # each term changes by log1p(step * ratio); backtrack until the
        # step stays in the domain and gains a quarter of its linear estimate
        ratio = d1 * q1 + d2 * q2
        step = 1.0
        while not (step * ratio.min() > -1.0
                   and np.log1p(step * ratio).sum() >= 0.25 * step * decrement):
            step *= 0.5
            if step < 1e-12:
                return None
        y1, y2 = y1 + step * d1, y2 + step * d2
    return None


def _circle_angles(alpha):
    """alpha in [-pi, pi] with -pi taken as pi, and the (theta, phi) of the
    circle point (cos alpha, sin alpha): up (0, alpha) from 0 on, down
    (pi, -alpha) below 0.  alpha itself is kept, so phi is the certified
    anchor's angle to the bit."""
    if alpha == -np.pi:
        alpha = np.pi
    return alpha, 0.0 if alpha >= 0.0 else np.pi, abs(alpha)


def _circle_roots(v0, v1, v2):
    """Angles alpha with v0 + v1 cos(alpha) + v2 sin(alpha) = 0."""
    rho = math.hypot(v1, v2)
    if not rho >= abs(v0):
        return ()
    beta, half = math.atan2(v2, v1), math.acos(-v0 / rho)
    return beta - half, beta + half


def _circle_anchor(ctx, g1, g2):
    """The anchor function of _fit_definite's branch and bound over the
    slopes g1, g2 of ctx.slopes(): alpha -> (alpha, F, L), F the value at
    the circle point and L its tangent plane (None with F = -inf where a
    flagged hit's definite density is not positive).

    Each call reuses two n-buffers.  v = (1 + tc g1) + ts g2 rounds as the
    plain expression would; w = 1 / v gives the gradient's dot products,
    and F takes one log per product of _GROUP kept factors, as the surface
    kernel does, and one log per flagged factor."""
    na, nb, nc = ctx.norm_a, ctx.norm_b, ctx.norm_c
    kept = g1.size - ctx.flag_at.size
    v, w = np.empty(g1.size), np.empty(g1.size)
    flagged = v[kept:]

    def anchor(alpha):
        c, s = math.cos(alpha), math.sin(alpha)
        t = 1.0 / (na + nb * c + nc * s)
        np.multiply(g1, t * c, out=v)
        np.add(v, 1.0, out=v)
        np.multiply(g2, t * s, out=w)
        np.add(v, w, out=v)
        # a kept factor is at least t N_A _FLAG_RATIO; a flagged hit's
        # definite density can vanish
        if flagged.size and not flagged.min() > 0.0:
            return alpha, -math.inf, None
        np.divide(1.0, v, out=w)
        k1, k2 = float(g1 @ w), float(g2 @ w)
        size = _group_products(v[:kept])
        value = float(np.log(v[:size], out=v[:size]).sum()
                      + np.log(flagged, out=flagged).sum())
        shift = value - t * (k1 * c + k2 * s)
        return alpha, value, (shift * na, shift * nb + k1, shift * nc + k2)

    return anchor


def _fit_definite(ctx, g1, g2):
    """Best definite-flux model: the log-likelihood maximum on the boundary
    circle (c, s) = (cos alpha, sin alpha), to within _GAP_NATS.

    There y = (c, s) / N . w with w = (1, c, s) and N = (N_A, N_B, N_C), and
    F(y) = sum log(1 + y . g_i) is concave, so the tangent plane at an anchor
    bounds F everywhere.  On the circle it reads L . w / N . w with
    L = (F - k . y) N + (0, k), k the gradient; its stationary points solve
    (L x N) . (-1, c, s) = 0.  An arc's bound is the largest value of the
    smaller tangent of its two ends, taken at an end, at a stationary point
    or where the tangents cross, (L_lo - L_hi) . w = 0.  The arc of largest
    bound is halved until no bound beats the best anchor by more than the
    gap, or float spacing leaves no midpoint.

    An anchor's factors are 1 + y . g_i = t N_A (A_i + B_i c + C_i s) / A_i
    with t = 1 / N . w.  A kept hit's lies in [t N_A _FLAG_RATIO, 2 t N_A],
    and t N_A >= 1/2 since N . w <= 2 N_A, so a kept factor is positive and
    only the flagged ones need a sign check.  A product of _GROUP kept
    factors lies in [(t N_A _FLAG_RATIO)^32, (2 t N_A)^32], at least 2e-170:
    it cannot underflow, and it could overflow only past t N_A = 2^31,
    where the window holds under 2^-31 of N_A at that angle.  A definite
    density vanishes only at isolated points, so such a window lies within
    about 1e-5 fringe spacings of one, where no hit is kept (on the default
    geometry none is within 3e-3 spacings of x = 0); on the default window
    t N_A stays within 1e-6 of 1.
    """
    na, nb, nc = ctx.norm_a, ctx.norm_b, ctx.norm_c
    anchor = _circle_anchor(ctx, g1, g2)

    def push(lo, hi, spare):
        # every tangent plane bounds F everywhere, so an end with no tangent
        # borrows the other end's, or the parent arc's
        (a, _, la), (b, _, lb) = lo, hi
        la, lb = la or lb or spare, lb or la or spare
        bound = math.inf
        if la:
            # the smaller tangent peaks at an end, where the tangents cross or
            # where one of them is stationary
            roots = [] if la is lb else list(
                _circle_roots(*(p - q for p, q in zip(la, lb))))
            for l0, l1, l2 in (la, lb):
                roots += _circle_roots(l2 * nb - l1 * nc, l2 * na - l0 * nc,
                                       l0 * nb - l1 * na)
            alphas = [a, b] + [x for x in (a + (r - a) % (2.0 * math.pi) for r in roots)
                               if x < b]
            bound = max(
                min(la[0] + la[1] * c + la[2] * s, lb[0] + lb[1] * c + lb[2] * s)
                / (na + nb * c + nc * s)
                for c, s in ((math.cos(x), math.sin(x)) for x in alphas)
            )
        heapq.heappush(heap, (-bound, a, lo, hi, la))

    anchors = [anchor(a) for a in np.linspace(-np.pi, np.pi, _ARCS + 1).tolist()]
    best = max(anchors, key=lambda e: e[1])
    heap = []
    for lo, hi in zip(anchors, anchors[1:]):
        push(lo, hi, None)
    while heap and -heap[0][0] > best[1] + _GAP_NATS:
        _, a, lo, hi, spare = heapq.heappop(heap)
        mid = 0.5 * (a + hi[0])
        if a < mid < hi[0]:
            middle = anchor(mid)
            best = max(best, middle, key=lambda e: e[1])
            push(lo, middle, spare)
            push(middle, hi, spare)
    alpha, theta, phi = _circle_angles(best[0])
    value = ctx.loglik(math.cos(alpha), math.sin(alpha))
    return value, "up" if theta == 0.0 else "down", phi


def fit_mle(hits, geometry=None, window=None, theta_points=DEFAULT_SURFACE_POINTS,
            phi_points=DEFAULT_SURFACE_POINTS, grid_points=None):
    """Maximum-likelihood (theta, phi) from a hit set.

    The estimate is the likelihood maximum over the (c, s) disk, the same
    solve as :func:`discriminate`.  The returned ``theta_points`` x
    ``phi_points`` surface over [0, pi] x [0, pi] is an output only, built
    when ``loglik`` is first read; no cell of it exceeds the maximum.

    Returns a :class:`LikelihoodSurface`; ``theta_flat`` is set when the
    fit cannot reject the zero-phase family (phi = 0 or phi = pi, inside
    which theta has no effect on the density), in which case
    ``theta_hat`` is not meaningful.
    """
    ctx = _LikelihoodContext(*_resolve_inputs(hits, geometry, window, grid_points))
    if ctx.n == 0:
        raise DomainError("cannot fit an empty hit set")
    theta_grid = np.linspace(0.0, np.pi, _checked_count("theta_points", theta_points, 2))
    phi_grid = np.linspace(0.0, np.pi, _checked_count("phi_points", phi_points, 2))
    best = _discriminate_ctx(ctx)

    def surface():
        return ctx.loglik(*disk_point(theta_grid, phi_grid[:, None])).T

    zero_phase = max(ctx.loglik(1.0, 0.0), ctx.loglik(-1.0, 0.0))
    return LikelihoodSurface(
        theta_grid=theta_grid, phi_grid=phi_grid, loglik=surface,
        theta_hat=best.theta_hat, phi_hat=best.phi_hat,
        loglik_max=best.loglik_superposition,
        theta_flat=bool(best.loglik_superposition - zero_phase < _FLAT_GAP_NATS),
    )


def discriminate(hits, geometry=None, window=None, grid_points=None):
    """Superposition-vs-definite-flux likelihood comparison.

    Maximizes the log-likelihood over the superposition family, the (c, s)
    disk, and over the definite-flux family, its boundary circle (theta 0
    or pi, phi free), and reports both maxima and their difference
    llr >= 0.
    """
    ctx = _LikelihoodContext(*_resolve_inputs(hits, geometry, window, grid_points))
    if ctx.n == 0:
        raise DomainError("cannot discriminate on an empty hit set")
    return _discriminate_ctx(ctx)


def _discriminate_ctx(ctx):
    g1, g2 = ctx.slopes()
    loglik_definite, direction, definite_phi = _fit_definite(ctx, g1, g2)
    theta_hat = 0.0 if direction == "up" else np.pi
    phi_hat, loglik_sup = definite_phi, loglik_definite
    point = _newton_disk(ctx, g1, g2)
    if point is not None:
        theta, phi = map(float, disk_angles(*point))
        value = ctx.loglik(*point)
        # the definite optimum is a point of the superposition family; folding
        # it in makes the nesting inequality exact instead of rounding-limited
        if value > loglik_definite:
            theta_hat, phi_hat, loglik_sup = theta, phi, value
    return HypothesisResult(
        loglik_superposition=loglik_sup, loglik_definite=loglik_definite,
        llr=loglik_sup - loglik_definite, n_hits=ctx.n,
        theta_hat=theta_hat, phi_hat=phi_hat,
        definite_direction=direction, definite_phi=definite_phi,
    )


def sequential_trace(hits, geometry=None, window=None, checkpoint_schedule=(),
                     grid_points=None) -> SequentialTrace:
    """Fit and discriminate on growing hit prefixes.

    ``checkpoint_schedule`` is a strictly increasing sequence of prefix
    lengths, each at most the number of hits.  The pattern components are
    computed once for the full set and sliced per checkpoint, each of which
    is one :func:`discriminate` solve.
    """
    ctx = _LikelihoodContext(*_resolve_inputs(hits, geometry, window, grid_points))
    schedule = [_checked_count("checkpoint", n, 1) for n in checkpoint_schedule]
    if not schedule:
        raise DomainError("checkpoint schedule must not be empty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise DomainError("checkpoint schedule must be strictly increasing")
    if schedule[-1] > ctx.n:
        raise DomainError(
            f"schedule reaches {schedule[-1]} hits but only {ctx.n} are available"
        )
    checkpoints = []
    for n in schedule:
        result = _discriminate_ctx(ctx.prefix(n))
        checkpoints.append(Checkpoint(n, result.theta_hat, result.phi_hat, result.llr))
    return SequentialTrace(checkpoints=tuple(checkpoints))
