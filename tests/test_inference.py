"""Likelihood, fitting, discrimination, and sequential-trace tests.

Statistical tolerances here were calibrated before freezing: estimator
errors follow the per-hit Fisher information of the window-normalized
density (sd of theta_hat at n=5e4 is ~0.0067 rad), so the 0.05 rad bounds
carry several-sigma headroom; the flatness and small-llr bounds sit well
above the largest values seen over 10+ calibration seeds.
"""

import heapq
import math
import types

import numpy as np
import pytest

from abflux import inference
from abflux.errors import DomainError
from abflux.inference import (
    Checkpoint,
    HypothesisResult,
    SequentialTrace,
    _CELL_BLOCK,
    _FLAG_RATIO,
    _LikelihoodContext,
    _aligned_rows,
    canonical_angles,
    discriminate,
    fit_mle,
    log_likelihood,
    segment_slopes,
    sequential_trace,
)
from abflux.pattern import FluxState, disk_point, pattern_components
from abflux.sampling import SampleConfig, sample_hits
from abflux.slits import DEFAULT_WINDOW

from _oracle import normalized_density_direct


def make_hits(geometry, theta, phi, n, seed):
    config = SampleConfig(n_hits=n, seed=seed, window=DEFAULT_WINDOW)
    return sample_hits(geometry, FluxState(theta, phi), config)


def test_empty_hit_set_loglik_zero(jonsson):
    value = log_likelihood(
        np.array([]), geometry=jonsson, theta=0.7, phi=1.1, window=DEFAULT_WINDOW
    )
    assert value == 0.0


def test_fit_and_discriminate_reject_empty(jonsson):
    empty = np.array([])
    with pytest.raises(DomainError):
        fit_mle(empty, geometry=jonsson, window=DEFAULT_WINDOW)
    with pytest.raises(DomainError):
        discriminate(empty, geometry=jonsson, window=DEFAULT_WINDOW)


def test_missing_angles_rejected(jonsson):
    with pytest.raises(DomainError):
        log_likelihood(np.array([0.0]), geometry=jonsson, window=DEFAULT_WINDOW)


def test_single_hit_matches_normalized_density(jonsson):
    value = log_likelihood(
        np.array([0.0]),
        geometry=jonsson,
        theta=np.pi / 2,
        phi=np.pi / 2,
        window=DEFAULT_WINDOW,
    )
    oracle = np.log(
        normalized_density_direct(
            jonsson, np.pi / 2, np.pi / 2, 0.0, DEFAULT_WINDOW, 8192
        )[0]
    )
    assert abs(value - oracle) <= 1e-9
    assert abs(value - 11.524180553903737) <= 1e-9


def test_degeneracy_of_loglik(jonsson):
    # (theta, phi) and (pi - theta, 2 pi - phi) are one disk point up to the
    # rounding of the mapped angles and of cos and sin, so the two values,
    # near 1.1e4 here, agree to a few of their ulps (1.8e-12), not closer
    hits = make_hits(jonsson, 0.9, 2.2, 1000, 11)
    for theta, phi in [(0.9, 2.2), (0.3, 1.0), (2.0, 4.5)]:
        direct = log_likelihood(hits, theta=theta, phi=phi)
        mapped = log_likelihood(hits, theta=np.pi - theta, phi=2.0 * np.pi - phi)
        assert abs(direct - mapped) <= 4 * np.spacing(abs(direct))
    rng = np.random.default_rng(0)
    thetas, phis = rng.uniform(0.0, np.pi, 300), rng.uniform(0.0, 2.0 * np.pi, 300)
    point = disk_point(thetas, phis)
    mapped_point = disk_point(np.pi - thetas, 2.0 * np.pi - phis)
    for x, y in zip(point, mapped_point):
        assert np.all(np.abs(x - y) <= 4 * np.spacing(1.0))
    ctx = _LikelihoodContext(hits.positions, jonsson, DEFAULT_WINDOW)
    direct, mapped = ctx.loglik(*point), ctx.loglik(*mapped_point)
    assert np.all(np.abs(direct - mapped) <= 4 * np.spacing(np.abs(direct)))


def test_zero_density_hit_poisons_sum_with_warning(jonsson):
    # the density at x=0 vanishes identically for phi=pi, so a hit there is
    # impossible under that model; the sum must be -inf and reported
    for hits, count in (([0.0, 1.0e-6], "1 of 2 hits"), ([0.0, 0.0, 1.0e-6], "2 of 3 hits")):
        with pytest.warns(UserWarning, match=count):
            value = log_likelihood(
                np.array(hits), geometry=jonsson, theta=0.3, phi=np.pi, window=DEFAULT_WINDOW
            )
        assert value == -np.inf


def test_non_finite_angles_rejected(jonsson):
    hits = make_hits(jonsson, 1.0, 1.0, 50, 5)
    for theta, phi in ((np.nan, 1.0), (1.0, np.inf), (-np.inf, 0.5), (0.5, np.nan)):
        with pytest.raises(DomainError, match="must be finite"):
            log_likelihood(hits, theta=theta, phi=phi)


def test_bare_array_requires_geometry_and_window(jonsson):
    hits = np.array([0.0])
    with pytest.raises(DomainError):
        log_likelihood(hits, theta=0.1, phi=0.1)
    with pytest.raises(DomainError):
        log_likelihood(hits, geometry=jonsson, theta=0.1, phi=0.1)


def test_hits_outside_window_rejected(jonsson):
    hits = np.array([0.0, 3.0e-5])
    with pytest.raises(DomainError):
        log_likelihood(
            hits, geometry=jonsson, theta=0.1, phi=0.1, window=DEFAULT_WINDOW
        )


def test_canonical_angles():
    assert canonical_angles(0.3, 1.0) == (0.3, 1.0)
    theta, phi = canonical_angles(0.3, 5.0)
    assert abs(theta - (np.pi - 0.3)) <= 1e-15
    assert abs(phi - (2.0 * np.pi - 5.0)) <= 1e-15
    assert canonical_angles(0.5, 2.0 * np.pi) == (0.5, 0.0)
    assert canonical_angles(0.5, np.pi) == (0.5, np.pi)
    theta, phi = canonical_angles(1.0, -0.5)
    assert abs(theta - (np.pi - 1.0)) <= 1e-15
    assert abs(phi - 0.5) <= 1e-15


def test_same_seed_identical_surfaces(jonsson):
    first = fit_mle(make_hits(jonsson, 1.1, 1.9, 2000, 21), theta_points=31, phi_points=31)
    second = fit_mle(make_hits(jonsson, 1.1, 1.9, 2000, 21), theta_points=31, phi_points=31)
    assert np.array_equal(first.loglik, second.loglik)
    assert first.theta_hat == second.theta_hat
    assert first.phi_hat == second.phi_hat
    assert first.loglik_max == second.loglik_max
    assert first.theta_flat == second.theta_flat


def test_surface_argmax_consistent(jonsson):
    hits = make_hits(jonsson, np.pi / 2, np.pi / 2, 5000, 8)
    surface = fit_mle(hits, theta_points=31, phi_points=31)
    assert surface.argmax == (surface.theta_hat, surface.phi_hat)
    # refinement only improves on the best scanned cell
    assert surface.loglik_max >= np.max(surface.loglik)
    truth = log_likelihood(hits, theta=np.pi / 2, phi=np.pi / 2)
    assert surface.loglik_max >= truth


def test_recovery_at_central_superposition(jonsson):
    hits = make_hits(jonsson, np.pi / 2, np.pi / 2, 20000, 5)
    surface = fit_mle(hits, theta_points=61, phi_points=61)
    assert abs(surface.theta_hat - np.pi / 2) <= 0.05
    assert abs(surface.phi_hat - np.pi / 2) <= 0.05
    assert not surface.theta_flat


def test_recovery_at_up_boundary(jonsson):
    hits = make_hits(jonsson, 0.0, np.pi / 2, 50000, 6)
    surface = fit_mle(hits, theta_points=61, phi_points=61)
    assert surface.theta_hat <= 0.1
    assert abs(surface.phi_hat - np.pi / 2) <= 0.05
    assert not surface.theta_flat


def test_zero_phase_data_reports_flat_theta(jonsson):
    # at phi=0 and phi=pi the density does not depend on theta at all, so
    # the fit must flag theta as unidentified no matter where theta_hat lands
    for phi, seed in ((0.0, 7), (0.0, 401), (0.0, 403), (np.pi, 5)):
        hits = make_hits(jonsson, 1.0, phi, 20000, seed)
        surface = fit_mle(hits, theta_points=61, phi_points=61)
        assert surface.theta_flat
        if phi == 0.0:
            assert surface.phi_hat <= 0.2
        else:
            assert surface.phi_hat >= np.pi - 0.2


def test_estimator_consistency_medians(jonsson):
    # median absolute theta error over 5 seeds must not grow with n;
    # per-hit Fisher information predicts sd ~ 1.49/sqrt(n)
    medians = []
    for n in (1000, 10000, 100000):
        errors = []
        for seed in range(5, 10):
            hits = make_hits(jonsson, np.pi / 2, np.pi / 2, n, seed)
            surface = fit_mle(hits, theta_points=61, phi_points=61)
            errors.append(abs(surface.theta_hat - np.pi / 2))
        medians.append(float(np.median(errors)))
    assert medians[0] >= medians[1] >= medians[2]


def test_nesting_llr_nonnegative(jonsson):
    cases = [
        (0.0, np.pi / 2, 300),
        (np.pi, np.pi / 2, 301),
        (np.pi / 2, np.pi / 2, 0),
        (1.0, 0.0, 400),
    ]
    for theta, phi, seed in cases:
        result = discriminate(make_hits(jonsson, theta, phi, 5000, seed))
        assert result.llr >= 0.0
        assert result.loglik_superposition >= result.loglik_definite
        assert result.n_hits == 5000


def test_llr_small_for_definite_up_data(jonsson):
    result = discriminate(make_hits(jonsson, 0.0, np.pi / 2, 20000, 300))
    assert result.llr <= 5.0
    assert result.definite_direction == "up"
    assert abs(result.definite_phi - np.pi / 2) <= 0.05


def test_llr_small_for_zero_phase_data(jonsson):
    result = discriminate(make_hits(jonsson, 1.0, 0.0, 20000, 400))
    assert result.llr <= 5.0


def test_llr_grows_with_sample_size(jonsson):
    small = discriminate(make_hits(jonsson, np.pi / 2, np.pi / 2, 1000, 200))
    large = discriminate(make_hits(jonsson, np.pi / 2, np.pi / 2, 10000, 200))
    assert 0.0 < small.llr < large.llr
    # llr scales roughly linearly in n here; check the order of magnitude
    assert large.llr > 5.0 * small.llr


def test_hypothesis_result_rejects_negative_llr():
    with pytest.raises(DomainError):
        HypothesisResult(
            loglik_superposition=1.0,
            loglik_definite=2.0,
            llr=-1.0,
            n_hits=10,
            theta_hat=0.0,
            phi_hat=0.0,
            definite_direction="up",
            definite_phi=0.0,
        )


def test_sequential_trace_counts_validated():
    good = Checkpoint(10, 0.1, 0.2, 0.0)
    with pytest.raises(DomainError):
        SequentialTrace(checkpoints=(good, Checkpoint(10, 0.1, 0.2, 0.0)))
    with pytest.raises(DomainError):
        SequentialTrace(checkpoints=(good, Checkpoint(5, 0.1, 0.2, 0.0)))


def test_schedule_validation(jonsson):
    hits = make_hits(jonsson, np.pi / 2, np.pi / 2, 100, 30)
    with pytest.raises(DomainError):
        sequential_trace(hits, checkpoint_schedule=())
    with pytest.raises(DomainError):
        sequential_trace(hits, checkpoint_schedule=(50, 50))
    with pytest.raises(DomainError):
        sequential_trace(hits, checkpoint_schedule=(50, 101))
    with pytest.raises(DomainError):
        sequential_trace(hits, checkpoint_schedule=(0, 50))


def test_single_checkpoint_equals_full_fit(jonsson):
    hits = make_hits(jonsson, np.pi / 2, np.pi / 2, 3000, 20)
    trace = sequential_trace(hits, checkpoint_schedule=(3000,))
    surface = fit_mle(hits, theta_points=31, phi_points=31)
    result = discriminate(hits)
    (checkpoint,) = trace.checkpoints
    assert checkpoint.n_hits == 3000
    assert checkpoint.theta_hat == surface.theta_hat
    assert checkpoint.phi_hat == surface.phi_hat
    assert checkpoint.llr == result.llr


def test_checkpoints_reproducible_from_prefixes(jonsson):
    hits = make_hits(jonsson, np.pi / 2, np.pi / 2, 2500, 22)
    trace = sequential_trace(hits, checkpoint_schedule=(1000, 2500))
    prefix = fit_mle(
        hits.positions[:1000], geometry=jonsson, window=DEFAULT_WINDOW,
        theta_points=31, phi_points=31,
    )
    assert trace.checkpoints[0].theta_hat == prefix.theta_hat
    assert trace.checkpoints[0].phi_hat == prefix.phi_hat


def test_spliced_stream_changes_llr_slope(jonsson):
    # first half from a definite up flux, second half from a definite down
    # flux: the accumulating mixture defeats every definite-flux model, so
    # the llr slope jumps from ~0 to ~1 nat per hit after the splice
    up_leg = make_hits(jonsson, 0.0, np.pi / 2, 6000, 700)
    down_leg = make_hits(jonsson, np.pi, np.pi / 2, 6000, 701)
    spliced = np.concatenate([up_leg.positions, down_leg.positions])
    trace = sequential_trace(
        spliced, geometry=jonsson, window=DEFAULT_WINDOW,
        checkpoint_schedule=tuple(range(1500, 12001, 1500)),
    )
    before, after = segment_slopes(trace, 4)
    assert abs(before) <= 0.01
    assert after >= 0.5


def test_segment_slopes_split_bounds(jonsson):
    trace = SequentialTrace(checkpoints=tuple(
        Checkpoint(n, 0.1, 0.2, float(n)) for n in (10, 20, 30, 40)
    ))
    before, after = segment_slopes(trace, 2)
    assert abs(before - 1.0) <= 1e-12
    assert abs(after - 1.0) <= 1e-12
    with pytest.raises(DomainError):
        segment_slopes(trace, 1)
    with pytest.raises(DomainError):
        segment_slopes(trace, 3)


def test_scan_sizes_below_two_rejected(jonsson):
    hits = make_hits(jonsson, np.pi / 2, np.pi / 2, 100, 31)
    for points in (1, 0, -3):
        with pytest.raises(DomainError):
            fit_mle(hits, theta_points=points, phi_points=31)
        with pytest.raises(DomainError):
            fit_mle(hits, theta_points=31, phi_points=points)


def test_grid_points_below_two_rejected(jonsson):
    # the normalization grid spans the window, so it needs both ends
    hits = make_hits(jonsson, np.pi / 2, np.pi / 2, 100, 31)
    calls = (
        lambda points: log_likelihood(hits, theta=1.0, phi=1.0, grid_points=points),
        lambda points: fit_mle(hits, theta_points=3, phi_points=3, grid_points=points),
        lambda points: discriminate(hits, grid_points=points),
        lambda points: sequential_trace(hits, checkpoint_schedule=(50, 100),
                                        grid_points=points),
    )
    for call in calls:
        for points in (1, 0):
            with pytest.raises(DomainError, match="grid_points must be at least 2"):
                call(points)


def test_few_hits_give_finite_fits(jonsson):
    # one and two hits leave no interior maximum (a singular Hessian, or a
    # likelihood unbounded off the disk), so the boundary circle answers;
    # these three hits have one
    hits = make_hits(jonsson, 1.2, 2.0, 3, 41)
    for n in (1, 2, 3):
        prefix = hits.positions[:n]
        kwargs = dict(geometry=jonsson, window=DEFAULT_WINDOW)
        surface = fit_mle(prefix, **kwargs)
        result = discriminate(prefix, **kwargs)
        assert np.isfinite(surface.loglik_max)
        assert surface.loglik_max >= np.max(surface.loglik)
        assert np.isfinite(result.loglik_superposition)
        assert result.llr >= 0.0
        for angle in (surface.theta_hat, surface.phi_hat, result.theta_hat,
                      result.phi_hat, result.definite_phi):
            assert 0.0 <= angle <= np.pi


def test_fit_and_discriminate_share_one_maximum(jonsson):
    for theta, phi, seed in ((np.pi / 2, np.pi / 2, 50), (0.0, np.pi / 2, 300),
                             (2.6, 0.7, 51)):
        hits = make_hits(jonsson, theta, phi, 4000, seed)
        surface = fit_mle(hits, theta_points=21, phi_points=45)
        result = discriminate(hits)
        assert surface.theta_hat == result.theta_hat
        assert surface.phi_hat == result.phi_hat
        assert surface.loglik_max == result.loglik_superposition


def test_boundary_maximum_reports_definite_fit(jonsson):
    # definite-up data whose likelihood peaks outside the (c, s) disk: the
    # disk maximum is the definite fit itself, so llr is exactly zero
    result = discriminate(make_hits(jonsson, 0.0, np.pi / 2, 20000, 300))
    assert result.llr == 0.0
    assert result.theta_hat == 0.0
    assert result.phi_hat == result.definite_phi
    # an interior maximum beats the circle, and no nearby point beats it
    hits = make_hits(jonsson, 1.2, 2.0, 3000, 52)
    result = discriminate(hits)
    assert result.llr > 0.0
    for d_theta, d_phi in ((1e-3, 0.0), (-1e-3, 0.0), (0.0, 1e-3), (0.0, -1e-3)):
        nearby = log_likelihood(
            hits, theta=result.theta_hat + d_theta, phi=result.phi_hat + d_phi
        )
        assert nearby < result.loglik_superposition


def test_discriminate_scans_no_grid(jonsson, monkeypatch):
    # neither the disk nor its boundary circle is scanned
    sizes = []
    original = _LikelihoodContext.loglik

    def counted(self, c, s):
        if np.size(c) > 1:
            sizes.append(np.size(c))
        return original(self, c, s)

    monkeypatch.setattr(_LikelihoodContext, "loglik", counted)
    hits = make_hits(jonsson, np.pi / 2, np.pi / 2, 2000, 53)
    discriminate(hits)
    sequential_trace(hits, checkpoint_schedule=(1000, 2000))
    assert sizes == []


def test_fit_builds_its_surface_on_first_read(jonsson, monkeypatch):
    sizes = []
    original = _LikelihoodContext.loglik

    def counted(self, c, s):
        if np.broadcast(c, s).size > 1:
            sizes.append(np.broadcast(c, s).size)
        return original(self, c, s)

    monkeypatch.setattr(_LikelihoodContext, "loglik", counted)
    surface = fit_mle(make_hits(jonsson, 1.0, 1.2, 500, 9), theta_points=5, phi_points=7)
    assert sizes == []
    first = surface.loglik
    assert sizes == [35] and first.shape == (5, 7)
    assert surface.loglik is first and sizes == [35]


def test_definite_fit_is_the_global_circle_maximum(jonsson):
    # each circle holds a local maximum close to the global one, 1.5e-3 nats
    # below it in the first case and 0.306 nats in the second, that a
    # 361-cell scan brackets instead
    for theta, phi, n, seed, best_phi in (
            (1.0813697027219586, 4.2957156093153035, 478, 3748687006, 2.1729),
            (1.505440187971224, 4.14234703491679, 34488, 3242807349, 3.1172)):
        hits = make_hits(jonsson, theta, phi, n, seed)
        result = discriminate(hits)
        ctx = _LikelihoodContext(hits.positions, jonsson, DEFAULT_WINDOW)
        alphas = np.linspace(-np.pi, np.pi, 65536, endpoint=False)
        scan = ctx.loglik(*disk_point(np.where(alphas >= 0.0, 0.0, np.pi), np.abs(alphas)))
        assert result.loglik_definite >= scan.max() - 1e-9 * abs(scan.max())
        assert abs(result.definite_phi - best_phi) <= 1e-3


def test_definite_phi_is_the_best_anchor_angle(jonsson, monkeypatch):
    # the reported definite point is the certified anchor itself, to the
    # bit, so loglik_definite is the value at the angle whose bound was
    # certified; alpha = -pi is the same point as pi
    anchors = []
    original = inference._circle_angles

    def recorded(alpha):
        anchors.append(alpha)
        return original(alpha)

    monkeypatch.setattr(inference, "_circle_angles", recorded)
    rng = np.random.default_rng(23)
    for seed in range(40):
        theta, phi = rng.choice([0.0, np.pi]), rng.uniform(0.0, np.pi)
        hits = make_hits(jonsson, theta, phi, 300, seed)
        result = discriminate(hits)
        alpha = anchors[-1]
        assert -np.pi <= alpha <= np.pi
        assert result.definite_phi == abs(alpha)
        assert result.definite_direction == ("up" if alpha >= 0.0 or alpha == -np.pi else "down")
        ctx = _LikelihoodContext(hits.positions, jonsson, DEFAULT_WINDOW)
        assert result.loglik_definite == ctx.loglik(math.cos(alpha), math.sin(alpha))


def test_definite_fit_with_a_hit_on_a_fringe_zero(jonsson, monkeypatch):
    # the definite densities near alpha = +-pi vanish at x = 0 to within
    # rounding, so the anchors there have no tangent; the arcs next to them
    # must still get finite bounds, or the search halves them for millions
    # of arcs
    arcs = []

    def counted(heap, item):
        arcs.append(item)
        heapq.heappush(heap, item)

    monkeypatch.setattr(inference, "heapq",
                        types.SimpleNamespace(heappush=counted, heappop=heapq.heappop))
    window = (-2.0e-5, 2.5e-5)
    hits = sample_hits(jonsson, FluxState(0.0, np.pi),
                       SampleConfig(n_hits=500, seed=1, window=window)).positions
    hits[0] = 0.0
    result = discriminate(hits, geometry=jonsson, window=window)
    assert len(arcs) <= 200
    ctx = _LikelihoodContext(hits, jonsson, window)
    alphas = np.linspace(-np.pi, np.pi, 65536, endpoint=False)
    scan = ctx.loglik(*disk_point(np.where(alphas >= 0.0, 0.0, np.pi), np.abs(alphas)))
    assert result.loglik_definite >= scan.max() - 1e-9 * abs(scan.max())


def _per_cell(ctx, thetas, phis):
    return np.array([ctx.loglik(*disk_point(t, p)) for t, p in zip(thetas, phis)])


def test_loglik_cells_equal_per_cell_loglik(jonsson):
    # 667 cells at 21 per block, the last block partial; then one cell per block
    for n, thetas, phis in (
            (3000, np.linspace(0.0, np.pi, 23), np.linspace(0.0, 2.0 * np.pi, 29)),
            (_CELL_BLOCK + 1000, np.array([0.3, 2.0]), np.array([0.4, 1.7, 5.0]))):
        hits = make_hits(jonsson, 1.1, 2.3, n, 71)
        ctx = _LikelihoodContext(hits.positions, jonsson, DEFAULT_WINDOW)
        mesh_t, mesh_p = (m.ravel() for m in np.meshgrid(thetas, phis, indexing="ij"))
        assert np.array_equal(ctx.loglik(*disk_point(mesh_t, mesh_p)),
                              _per_cell(ctx, mesh_t, mesh_p))


@pytest.mark.parametrize("n, thetas, phis", [
    # 23 fans of 29 points at 7 fans per block, the last block 2 fans
    (300, np.linspace(0.0, np.pi, 29), np.linspace(0.0, np.pi, 23)),
    # each 181-point fan runs over 60 blocks of 3 points and one of 1
    (20000, np.linspace(0.0, np.pi, 181), np.array([0.4, 2.0, np.pi])),
    # one point per block
    (_CELL_BLOCK + 1000, np.array([0.3, 2.0]), np.array([0.4, np.pi])),
])
def test_loglik_fans_equal_paired_points(jonsson, n, thetas, phis):
    # the last hit sits at x = 0, where every phi = pi density is zero
    hits = make_hits(jonsson, np.pi / 2, np.pi / 2, n, 17).positions
    hits[-1] = 0.0
    ctx = _LikelihoodContext(hits, jonsson, DEFAULT_WINDOW)
    assert ctx.flag_at.size > 1 and ctx.flag_at[-1] == n - 1
    fans = disk_point(thetas, phis[:, None])
    paired = disk_point(*np.meshgrid(thetas, phis))
    assert fans[0].shape == (phis.size, 1) and paired[0].shape == fans[1].shape
    for sub in (ctx, ctx.prefix(n - 1), ctx.prefix(n // 2), ctx.prefix(0)):
        cells = sub.loglik(*fans)
        assert np.array_equal(cells, sub.loglik(*paired))
        assert np.array_equal(np.isneginf(cells), np.broadcast_to(
            (phis == np.pi)[:, None] & (sub.n == n), cells.shape))


def test_loglik_broadcasts_c_along_trailing_axes(jonsson):
    ctx = _LikelihoodContext(make_hits(jonsson, 1.0, 1.0, 200, 3).positions,
                             jonsson, DEFAULT_WINDOW)
    c, s = np.linspace(-0.9, 0.9, 3), np.linspace(-0.3, 0.3, 8).reshape(2, 4)
    for sub in (ctx, ctx.prefix(0)):
        assert np.array_equal(sub.loglik(0.2, s), sub.loglik(np.full(s.shape, 0.2), s))
        assert np.array_equal(sub.loglik(s, 0.1), sub.loglik(s, np.full(s.shape, 0.1)))
        grid = np.broadcast_to(s, (3, 2, 4))
        assert np.array_equal(sub.loglik(c[:, None, None], s),
                              sub.loglik(np.broadcast_to(c[:, None, None], grid.shape), grid))
        assert isinstance(sub.loglik(0.2, 0.1), float)
        for c_empty, s_empty, shape in ((np.empty(0), np.empty(0), (0,)),
                                        (np.empty((0, 1)), np.empty((0, 5)), (0, 5)),
                                        (0.2, np.empty((2, 0)), (2, 0)),
                                        (np.full((3, 1), 0.2), np.empty((3, 0)), (3, 0))):
            assert sub.loglik(c_empty, s_empty).shape == shape
    # a c that repeats along a leading axis would pair with the wrong points
    for c_shape, s_shape in (((1, 4), (3, 4)), ((3, 1, 4), (3, 2, 4)), ((4,), (3, 4, 1))):
        with pytest.raises(DomainError, match="leading axis"):
            ctx.loglik(np.full(c_shape, 0.2), np.zeros(s_shape))


def test_loglik_cells_zero_and_negative_density_read_minus_inf():
    # hit 0 has zero density at phi = pi, hit 1 a negative one wherever
    # sin(phi) cos(theta) < -1/2, hit 2 is positive everywhere
    a, b, c = np.array([1.0, 1.0, 2.0]), np.array([1.0, 0.0, 0.5]), np.array([0.0, 2.0, 0.5])
    ctx = _LikelihoodContext.from_components((1.0, 0.2, 0.1), a.copy(), b.copy(), c.copy())
    thetas, phis = (m.ravel() for m in np.meshgrid(
        [0.0, 1.0, 2.5, np.pi], [0.0, 1.0, np.pi / 2, 2.5, np.pi], indexing="ij"))
    density = (a + np.cos(phis)[:, None] * b + (np.sin(phis) * np.cos(thetas))[:, None] * c)
    zero, negative = (density == 0.0).any(axis=1), (density < 0.0).any(axis=1)
    assert zero.any() and negative.any()
    cells = ctx.loglik(*disk_point(thetas, phis))
    assert np.array_equal(np.isneginf(cells), zero | negative)
    assert np.array_equal(cells, _per_cell(ctx, thetas, phis))


def _fsum_loglik(components, norms, thetas, phis):
    """Per-hit log-densities summed exactly, -inf where one is not positive."""
    a, b, c = components
    values = []
    for theta, phi in zip(thetas, phis):
        cos, sin = math.cos(phi), math.sin(phi) * math.cos(theta)
        with np.errstate(divide="ignore", invalid="ignore"):
            total = math.fsum(np.log(a + b * cos + c * sin).tolist())
        norm = norms[0] + cos * norms[1] + sin * norms[2]
        values.append(-math.inf if math.isnan(total) else total - a.size * math.log(norm))
    return np.array(values)


def test_loglik_cells_match_a_per_hit_fsum(jonsson):
    # flagged hits, where |psi+| and |psi-| nearly agree, keep the raw term;
    # the last hit sits at x = 0, where every phi = pi density is zero, and
    # three before it a few 1e-13 m away, where it is about 1e-8 against
    # A and B of about 1e5, so that 1 - B/A would cancel to B/A's rounding
    hits = make_hits(jonsson, np.pi / 2, np.pi / 2, 3000, 5).positions
    hits[-4:] = (-3.0e-13, 2.3e-12, 5.0e-11, 0.0)
    ctx = _LikelihoodContext(hits, jonsson, DEFAULT_WINDOW)
    assert ctx.flag_at.size > 10 and ctx.flag_at[-1] == hits.size - 1
    norms = (ctx.norm_a, ctx.norm_b, ctx.norm_c)
    row = (np.full(181, 0.7), np.linspace(0.0, np.pi, 181))
    at_pi = (np.linspace(0.0, np.pi, 181), np.full(181, np.pi))
    for sub, (thetas, phis) in ((ctx, row), (ctx.prefix(hits.size - 1), row),
                                (ctx.prefix(hits.size - 1), at_pi), (ctx, at_pi)):
        expected = _fsum_loglik(pattern_components(jonsson, hits[:sub.n]), norms,
                                thetas, phis)
        cells = sub.loglik(*disk_point(thetas, phis))
        finite = np.isfinite(expected)
        assert np.array_equal(np.isfinite(cells), finite)
        assert np.all(np.abs(cells[finite] - expected[finite]) <= 1e-12 * np.abs(expected[finite]))
    assert np.isneginf(ctx.loglik(*disk_point(*at_pi))).all()


def test_loglik_buffer_rows_are_aligned_and_a_padded_stride_keeps_every_cell(jonsson):
    assert _aligned_rows(5, 0).shape == (5, 0)
    for rows, n in ((1, 1), (3, 7), (22, 2999), (4, 16)):
        buffer = _aligned_rows(rows, n)
        assert buffer.shape == (rows, n)
        assert [buffer[i:].ctypes.data % 64 for i in range(rows)] == [0] * rows
    # 3001 hits pad each kernel row to 3008 floats; a block holds 21 points,
    # so fans of 9 points run two to a block and fans of 50 over three blocks
    hits = make_hits(jonsson, 1.0, 1.2, 3001, 8).positions
    assert _CELL_BLOCK // hits.size == 21
    ctx = _LikelihoodContext(hits, jonsson, DEFAULT_WINDOW)
    components = pattern_components(jonsson, hits)
    norms = (ctx.norm_a, ctx.norm_b, ctx.norm_c)
    for columns, fan in ((40, 9), (2, 50)):
        thetas, phis = np.meshgrid(np.linspace(0.0, np.pi, fan),
                                   np.linspace(0.1, 2.0 * np.pi, columns))
        c, s = disk_point(thetas, phis)
        cells = ctx.loglik(c[:, :1], s)
        expected = _fsum_loglik(components, norms, thetas.ravel(), phis.ravel())
        assert np.all(np.abs(cells.ravel() - expected) <= 1e-12 * np.abs(expected))


def test_loglik_products_stay_normal_when_every_factor_is_at_the_floor():
    # each hit's factor 1 + c B/A at c = 1 is 1 - (1 - tau): a product of a
    # group of them must neither underflow to 0 nor lose digits as a subnormal
    n = 5000
    a = 2.0 ** np.random.default_rng(2).integers(-20, 20, n)
    floor = 1.0 - (1.0 - _FLAG_RATIO)
    ctx = _LikelihoodContext.from_components(
        (1.0, 0.0, 0.0), a.copy(), -(1.0 - _FLAG_RATIO) * a, np.zeros(n))
    assert ctx.flag_at.size == 0
    cells = ctx.loglik(*disk_point([0.0, 1.0, np.pi], [0.0, 0.0, 0.0]))
    expected = n * math.log(floor) + math.fsum(np.log(a).tolist())
    assert np.all(np.abs(cells - expected) <= 1e-12 * abs(expected))


def test_prefix_is_a_fresh_context_on_the_first_hits(jonsson):
    hits = make_hits(jonsson, np.pi / 2, np.pi / 2, 3000, 5).positions
    ctx = _LikelihoodContext(hits, jonsson, DEFAULT_WINDOW)
    thetas, phis = np.array([0.0, 0.4, 2.0, np.pi]), np.array([0.3, np.pi, 1.7, 5.0])
    for k in (0, 1, int(ctx.flag_at[0]), int(ctx.flag_at[0]) + 1, 1500, hits.size):
        fresh = _LikelihoodContext(hits[:k], jonsson, DEFAULT_WINDOW)
        sub = ctx.prefix(k)
        assert np.array_equal(sub.flag_at, fresh.flag_at)
        assert np.array_equal(sub.loglik(*disk_point(thetas, phis)),
                              fresh.loglik(*disk_point(thetas, phis)))
        for theta, phi in zip(thetas, phis):
            assert sub.loglik(*disk_point(theta, phi)) == fresh.loglik(*disk_point(theta, phi))
        assert all(np.array_equal(x, y) for x, y in zip(sub.slopes(), fresh.slopes()))


def _edge_layout(kept, flagged, seed):
    """Components of kept and flagged hits in a shuffled hit order: a kept
    hit's hypot(B, C) is at most 0.9 A, a flagged one's is within 1e-5 of A,
    and every density over the disk stays at least 5e-6 A."""
    rng = np.random.default_rng(seed)
    n = kept + flagged
    a = 1e5 * rng.uniform(0.5, 2.0, n)
    ratio = np.concatenate((rng.uniform(0.0, 0.9, kept),
                            rng.uniform(1.0 - 1e-5, 1.0 - 5e-6, flagged)))
    ratio = rng.permutation(ratio)
    angle = rng.uniform(-np.pi, np.pi, n)
    return a, a * ratio * np.cos(angle), a * ratio * np.sin(angle)


@pytest.mark.parametrize("kept, flagged", [(0, 150), (64, 100)])
def test_loglik_kernel_edge_layouts(kept, flagged):
    # every hit flagged; and flagged hits among kept ones, so that most
    # prefixes take some hits of each kind
    components = _edge_layout(kept, flagged, kept + flagged)
    norms = (1.0, 0.2, 0.1)

    def context(k):
        return _LikelihoodContext.from_components(norms, *(x[:k].copy() for x in components))

    ctx = context(kept + flagged)
    assert ctx.flag_at.size == flagged
    thetas, phis = (m.ravel() for m in np.meshgrid(
        np.linspace(0.0, np.pi, 7), np.linspace(0.0, 2.0 * np.pi, 9), indexing="ij"))
    cells = ctx.loglik(*disk_point(thetas, phis))
    expected = _fsum_loglik(components, norms, thetas, phis)
    assert np.all(np.abs(cells - expected) <= 1e-12 * np.abs(expected))
    assert np.array_equal(cells, _per_cell(ctx, thetas, phis))
    for k in (0, 1, 37, 100, kept + flagged):
        fresh, sub = context(k), ctx.prefix(k)
        assert np.array_equal(sub.flag_at, fresh.flag_at)
        assert np.array_equal(sub.loglik(*disk_point(thetas, phis)),
                              fresh.loglik(*disk_point(thetas, phis)))
        assert all(np.array_equal(x, y) for x, y in zip(sub.slopes(), fresh.slopes()))


def _class_layout(seed):
    """Components of hits of every kernel class, shuffled: raw kept hits
    with C = 0 and with |C| one ulp below 2^-30 A; q-form hits with |C| at
    and one ulp above it, whose largest factor |q + s| is near 2^31, hits
    whose smallest factor is 1e-5 at s = +-1, and hits of either sign of C
    in every group; and flagged hits.  Returns a, b, c and the kinds (0 raw
    kept, 1 q-form, 2 flagged)."""
    rng = np.random.default_rng(seed)
    parts = []

    def add(kind, a, b, c):
        parts.append((np.full(a.size, kind), a, b, c))

    a = 1e5 * rng.uniform(0.5, 2.0, 40)
    add(0, a[:10], a[:10] * rng.uniform(-0.9, 0.9, 10), np.zeros(10))
    tiny = inference._Q_RATIO * a[10:]
    sign = np.where(np.arange(30) % 2, 1.0, -1.0)
    big = sign * (1.0 - 2.0 * _FLAG_RATIO) * a[10:]
    add(0, a[10:20], big[:10], sign[:10] * np.nextafter(tiny[:10], 0.0))
    add(1, a[20:30], big[10:20], sign[10:20] * tiny[10:20])
    add(1, a[30:40], big[20:30], sign[20:30] * np.nextafter(tiny[20:30], np.inf))
    a = 2.0 ** rng.integers(10, 20, 20)
    add(1, a, np.zeros(20), np.where(np.arange(20) % 2, 1.0, -1.0) * (1.0 - _FLAG_RATIO) * a)
    a = 1e5 * rng.uniform(0.5, 2.0, 200)
    ratio, angle = rng.uniform(0.0, 0.9, 200), rng.uniform(-np.pi, np.pi, 200)
    add(1, a, a * ratio * np.cos(angle), a * ratio * np.sin(angle))
    a = 1e5 * rng.uniform(0.5, 2.0, 30)
    ratio, angle = rng.uniform(1.0 - 1e-5, 1.0 - 5e-6, 30), rng.uniform(-np.pi, np.pi, 30)
    add(2, a, a * ratio * np.cos(angle), a * ratio * np.sin(angle))
    kind, a, b, c = (np.concatenate(x) for x in zip(*parts))
    order = rng.permutation(kind.size)
    return a[order], b[order], c[order], kind[order]


def test_loglik_kernel_hit_classes():
    a, b, c, kind = _class_layout(12)
    norms = (1.0, 0.2, 0.1)

    def context(k):
        return _LikelihoodContext.from_components(norms, a[:k].copy(), b[:k].copy(), c[:k].copy())

    ctx = context(a.size)
    assert ctx.flag_at.tolist() == np.flatnonzero(kind == 2).tolist()
    assert ctx.raw_at.tolist() == np.flatnonzero(kind != 1).tolist()
    # the q-form hits of either sign of C share groups
    signs = np.sign(c[kind == 1])
    groups = signs[:signs.size // 32 * 32].reshape(32, -1)
    assert ((groups > 0).any(axis=0) & (groups < 0).any(axis=0)).all()
    # c = +-1 and s = +-1 reach the factors' bounds
    thetas, phis = (m.ravel() for m in np.meshgrid(
        np.linspace(0.0, np.pi, 9), np.linspace(0.0, 2.0 * np.pi, 13), indexing="ij"))
    q = kind == 1
    with np.errstate(divide="ignore"):
        factors = np.abs(a[q] + np.multiply.outer(np.cos(phis), b[q])
                         + np.multiply.outer(np.sin(phis) * np.cos(thetas), c[q])) / np.abs(c[q])
    assert 1e-5 <= factors.min() < 1.01e-5 and 2.0 ** 30.9 < factors.max() <= 2.0 ** 31
    cells = ctx.loglik(*disk_point(thetas, phis))
    expected = _fsum_loglik((a, b, c), norms, thetas, phis)
    assert np.all(np.abs(cells - expected) <= 1e-12 * np.abs(expected))
    fans = disk_point(thetas.reshape(9, 13).T, phis.reshape(9, 13).T[:, :1])
    assert np.array_equal(ctx.loglik(*fans), cells.reshape(9, 13).T)
    assert np.array_equal(cells, _per_cell(ctx, thetas, phis))
    for k in (0, 1, 33, 100, 201, a.size - 1, a.size):
        fresh, sub = context(k), ctx.prefix(k)
        assert np.array_equal(sub.flag_at, fresh.flag_at)
        assert np.array_equal(sub.raw_at, fresh.raw_at)
        assert np.array_equal(sub.loglik(*disk_point(thetas, phis)),
                              fresh.loglik(*disk_point(thetas, phis)))
        assert all(np.array_equal(x, y) for x, y in zip(sub.slopes(), fresh.slopes()))


@pytest.mark.parametrize("at_top", [False, True])
def test_loglik_products_stay_finite_at_the_factor_bounds(at_top):
    # every q-form factor near 2^31 at (c, s) = (1, 0), so that a product of
    # 32 is near 2^992, or at 1e-5 at (0, -1), a product of 32 near 1e-160
    n = 3000
    a = 2.0 ** np.random.default_rng(3).integers(-20, 20, n)
    if at_top:
        b, c, point = (1.0 - 2.0 * _FLAG_RATIO) * a, inference._Q_RATIO * a, (1.0, 0.0)
    else:
        b, c, point = np.zeros(n), (1.0 - _FLAG_RATIO) * a, (0.0, -1.0)
    ctx = _LikelihoodContext.from_components((1.0, 0.0, 0.0), a.copy(), b.copy(), c.copy())
    assert ctx.raw_at.size == 0
    value = ctx.loglik(*point)
    expected = math.fsum(np.log(a + b * point[0] + c * point[1]).tolist())
    assert abs(value - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("rows", [1, 3])
@pytest.mark.parametrize("size", [0, 1, 31, 32, 33, 1000])
def test_group_products_take_their_documented_members(rows, size):
    factors = np.random.default_rng(size).uniform(0.5, 2.0, (3, size))
    groups = size // inference._GROUP
    members = [list(range(g, groups * inference._GROUP, groups)) for g in range(groups)]
    if size % inference._GROUP:
        members.append(list(range(groups * inference._GROUP, size)))
    out = np.full((rows, len(members) + 2), np.nan)
    work = factors[:rows].copy()
    assert inference._group_products(work, out) == len(members)
    assert np.array_equal(work, factors[:rows])
    for r in range(rows):
        expected = [math.prod(factors[r, m].tolist()) for m in members]
        assert out[r, :len(members)].tolist() == expected
    assert np.isnan(out[:, len(members):]).all()


def test_loglik_cells_on_empty_context(jonsson):
    hits = make_hits(jonsson, 1.0, 1.0, 10, 3)
    ctx = _LikelihoodContext(hits.positions, jonsson, DEFAULT_WINDOW).prefix(0)
    assert ctx.loglik(*disk_point(0.1, 0.2)) == 0.0
    assert np.array_equal(ctx.loglik(*disk_point([0.1], [0.2])), [0.0])


def test_likelihood_grid_defaults_to_the_hits_grid(jonsson):
    config = SampleConfig(n_hits=200, seed=4, grid_points=64)
    hits = sample_hits(jonsson, FluxState(1.0, 1.2), config)
    assert log_likelihood(hits, theta=1.0, phi=1.2) == log_likelihood(
        hits, theta=1.0, phi=1.2, grid_points=64)
    assert log_likelihood(hits, theta=1.0, phi=1.2) != log_likelihood(
        hits, theta=1.0, phi=1.2, grid_points=8192)
    assert discriminate(hits) == discriminate(hits, grid_points=64)
    bare = dict(geometry=jonsson, window=DEFAULT_WINDOW)
    assert log_likelihood(hits.positions, theta=1.0, phi=1.2, **bare) == log_likelihood(
        hits, theta=1.0, phi=1.2, grid_points=8192)


def test_circle_angles_at_the_seam():
    # alpha = -pi is the circle point alpha = pi: up, at phi = pi
    assert inference._circle_angles(-math.pi) == (math.pi, 0.0, math.pi)
    assert inference._circle_angles(-0.5) == (-0.5, math.pi, 0.5)


def _plain_anchor(ctx, g1, g2, alpha):
    """The circle anchor written out with one log per hit, summed exactly,
    and its tangent plane as a function of the value it is taken at; None
    where a factor is not positive."""
    na, nb, nc = ctx.norm_a, ctx.norm_b, ctx.norm_c
    c, s = math.cos(alpha), math.sin(alpha)
    t = 1.0 / (na + nb * c + nc * s)
    v = 1.0 + (t * c) * g1 + (t * s) * g2
    if not v.min() > 0.0:
        return None
    inv = 1.0 / v
    k1, k2 = float(g1 @ inv), float(g2 @ inv)

    def plane(value):
        shift = value - t * (k1 * c + k2 * s)
        return (shift * na, shift * nb + k1, shift * nc + k2)

    return math.fsum(np.log(v).tolist()), plane


def test_circle_anchor_takes_grouped_logs(jonsson):
    # the fringe-zero set of the test above, whose x = 0 hit vanishes at
    # alpha = pi, and a superposed set with flagged hits a few 1e-13 m from
    # x = 0; the tangent's dot products take the same 1 / v bit for bit
    window = (-2.0e-5, 2.5e-5)
    fringe = sample_hits(jonsson, FluxState(0.0, np.pi),
                         SampleConfig(n_hits=500, seed=1, window=window)).positions
    fringe[0] = 0.0
    superposed = make_hits(jonsson, np.pi / 2, np.pi / 2, 3000, 5).positions
    superposed[-4:] = (-3.0e-13, 2.3e-12, 5.0e-11, 0.0)
    alphas = np.linspace(-np.pi, np.pi, 129).tolist()
    for hits, win in ((fringe, window), (superposed, DEFAULT_WINDOW)):
        ctx = _LikelihoodContext(hits, jonsson, win)
        assert 0 < ctx.flag_at.size < ctx.n
        g1, g2 = ctx.slopes()
        anchor = inference._circle_anchor(ctx, g1, g2)
        finite = 0
        for alpha in alphas:
            plain = _plain_anchor(ctx, g1, g2, alpha)
            got_alpha, value, plane = anchor(alpha)
            assert got_alpha == alpha
            if plain is None:
                assert value == -math.inf and plane is None
                continue
            finite += 1
            expected, plane_at = plain
            assert abs(value - expected) <= 1e-12 * abs(expected)
            assert plane == plane_at(value)
        assert finite >= 64
    # a flagged factor of exactly 0, then a negative one, at alpha = 0
    for b in (-1.0, -1.5):
        ctx = _LikelihoodContext.from_components(
            (1.0, 0.0, 0.0), np.ones(3), np.array([0.5, -0.25, b]), np.zeros(3))
        assert ctx.flag_at.tolist() == [2]
        assert inference._circle_anchor(ctx, *ctx.slopes())(0.0) == (0.0, -math.inf, None)
