"""Sampler tests: determinism, distribution fidelity, validation."""

import numpy as np
import pytest

from abflux import (
    DegenerateDistributionError,
    DomainError,
    FluxState,
    HitSet,
    SampleConfig,
    normalized_pdf_cdf,
    sample_hits,
    uniform_variates,
)
from abflux.sampling import GriddedDistribution, _distribution_from_values

_MASK = (1 << 64) - 1


def _reference_variate(seed, index):
    """splitmix64 written out in plain Python integers."""
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    z = z ^ (z >> 31)
    return (z >> 11) / float(1 << 53)


def test_variates_match_reference_mix():
    for seed in (0, 1, 123456789, _MASK):
        got = uniform_variates(seed, 0, 8)
        want = [_reference_variate(seed, i) for i in range(8)]
        assert np.array_equal(got, np.array(want))


def test_variates_chunking_is_invisible():
    whole = uniform_variates(99, 0, 5000)
    parts = np.concatenate(
        [uniform_variates(99, 0, 1234), uniform_variates(99, 1234, 5000)]
    )
    assert np.array_equal(whole, parts)


def test_variates_range_and_moments():
    u = uniform_variates(7, 0, 100000)
    assert u.min() >= 0.0
    assert u.max() < 1.0
    assert abs(u.mean() - 0.5) <= 0.005
    assert abs(u.std() - np.sqrt(1.0 / 12.0)) <= 0.005


def test_variates_validation():
    with pytest.raises(DomainError):
        uniform_variates(1, 5, 2)
    with pytest.raises(DomainError):
        uniform_variates(1, -1, 2)


def test_pdf_cdf_construction(jonsson):
    dist = normalized_pdf_cdf(jonsson, FluxState(0.0, 0.0), (-2e-5, 2e-5), 4096)
    assert dist.cdf[0] == 0.0
    assert abs(dist.cdf[-1] - 1.0) <= 1e-12
    assert np.all(np.diff(dist.cdf) >= 0.0)
    assert abs(np.trapezoid(dist.pdf, dist.positions) - 1.0) <= 1e-12


def test_pdf_even_for_zero_phase(jonsson):
    dist = normalized_pdf_cdf(jonsson, FluxState(0.0, 0.0), (-2e-5, 2e-5), 8192)
    probes = np.linspace(0.0, 1.9e-5, 777)
    assert np.max(np.abs(dist.pdf_at(probes) - dist.pdf_at(-probes))) <= (
        1e-10 * dist.pdf.max()
    )


def test_ppf_cdf_round_trip(jonsson):
    dist = normalized_pdf_cdf(jonsson, FluxState(np.pi / 2, 2.0), (-2e-5, 2e-5), 8192)
    xs = np.linspace(-1.8e-5, 1.8e-5, 101)
    back = dist.ppf(dist.cdf_at(xs))
    assert np.max(np.abs(back - xs)) <= 1e-9


def test_degenerate_distribution_rejected():
    positions = np.linspace(0.0, 1.0, 32)
    with pytest.raises(DegenerateDistributionError):
        _distribution_from_values(positions, np.zeros(32))
    with pytest.raises(DegenerateDistributionError):
        _distribution_from_values(positions, np.full(32, -5.0))


def test_same_seed_bit_identical(jonsson):
    cfg = SampleConfig(n_hits=5000, seed=31337)
    flux = FluxState(np.pi / 2, np.pi / 2)
    first = sample_hits(jonsson, flux, cfg)
    second = sample_hits(jonsson, flux, cfg)
    assert np.array_equal(first.positions, second.positions)


def test_worker_count_bit_identical(jonsson):
    cfg = SampleConfig(n_hits=10001, seed=8)
    flux = FluxState(1.0, 1.0)
    lone = sample_hits(jonsson, flux, cfg, workers=1)
    for workers in (2, 3, 7):
        assert np.array_equal(
            sample_hits(jonsson, flux, cfg, workers=workers).positions,
            lone.positions,
        )


def test_zero_hits_allowed(jonsson):
    cfg = SampleConfig(n_hits=0, seed=5)
    hits = sample_hits(jonsson, FluxState(0.0, 0.0), cfg)
    assert len(hits) == 0


def test_hits_stay_inside_window(jonsson):
    cfg = SampleConfig(window=(-1.2e-5, 0.7e-5), n_hits=20000, seed=11)
    hits = sample_hits(jonsson, FluxState(0.3, 2.0), cfg)
    assert hits.positions.min() >= cfg.window[0]
    assert hits.positions.max() <= cfg.window[1]


def test_ks_statistic_against_construction_cdf(jonsson):
    # same seed convention as the acceptance sweep: 1000 + 10 i + j
    cfg = SampleConfig(n_hits=100000, seed=1001)
    flux = FluxState(0.0, np.pi / 2)
    hits = sample_hits(jonsson, flux, cfg)
    dist = normalized_pdf_cdf(jonsson, flux, cfg.window, cfg.grid_points)
    model = dist.cdf_at(np.sort(hits.positions))
    n = len(hits)
    steps = np.arange(n, dtype=float)
    ks = max(np.max(model - steps / n), np.max((steps + 1.0) / n - model))
    assert ks < 1.627624 / np.sqrt(n)   # two-sided 1% critical value


def test_sample_config_validation():
    SampleConfig(n_hits=1, seed=0)
    with pytest.raises(DomainError):
        SampleConfig(window=(1.0, -1.0))
    with pytest.raises(DomainError):
        SampleConfig(grid_points=1)
    with pytest.raises(DomainError):
        SampleConfig(n_hits=-1)
    with pytest.raises(DomainError):
        SampleConfig(seed=-1)
    with pytest.raises(DomainError):
        SampleConfig(seed=1 << 64)


def test_hit_set_validation(jonsson):
    cfg = SampleConfig(n_hits=2, seed=0)
    flux = FluxState(0.0, 0.0)
    HitSet(
        positions=np.array([0.0, 1e-6]), config=cfg, flux=flux, geometry=jonsson
    )
    with pytest.raises(DomainError):
        HitSet(
            positions=np.array([0.0]), config=cfg, flux=flux, geometry=jonsson
        )
    with pytest.raises(DomainError):
        HitSet(
            positions=np.array([0.0, 1.0]), config=cfg, flux=flux, geometry=jonsson
        )


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


def test_ppf_equals_interp_bit_for_bit(jonsson):
    # a peaked table on K = 2**13 nodes and on an odd K, tables with flat
    # cdf runs (zero density at both window ends and over consecutive
    # inner nodes), and a 2-node grid
    x = np.linspace(-1.0, 1.0, 40)
    gaps = np.where((np.abs(x) > 0.8) | ((x > 0.1) & (x < 0.3)), 0.0, 1.0 + x * x)
    tables = [normalized_pdf_cdf(jonsson, FluxState(np.pi / 2, np.pi / 2), (-2e-5, 2e-5), 8192),
              normalized_pdf_cdf(jonsson, FluxState(0.0, np.pi), (-2e-5, 2.5e-5), 1001),
              _distribution_from_values(x, gaps),
              _distribution_from_values(np.array([0.0, 1.0]), np.array([0.0, 1.0]))]
    assert np.sum(np.diff(tables[2].cdf) == 0.0) == 9
    for dist in tables:
        cdf = dist.cdf
        u = np.concatenate([[0.0, 1.0 - 2.0**-53, -0.0, -1e-300, 1.0, 2.0, np.inf, -np.inf,
                             np.nan],
                            cdf, np.nextafter(cdf, -1.0), np.nextafter(cdf, 2.0),
                            uniform_variates(7, 0, 100_000)])
        expected = np.interp(u, cdf, dist.positions)
        assert np.array_equal(_bits(dist.ppf(u)), _bits(expected))
        assert np.array_equal(_bits(dist.ppf(u[:99].reshape(9, 11))),
                              _bits(expected[:99]).reshape(9, 11))
        assert _bits(dist.ppf(0.25)) == _bits(np.interp(0.25, cdf, dist.positions))


def test_ppf_takes_interp_fallbacks_where_a_cell_gives_nan():
    # an infinite position gives nan from the lower end of its cell, then
    # -inf from the upper end; a cell of two infinite ends keeps its position
    for positions in ([-np.inf, 0.0, 1.0], [np.inf, np.inf, np.inf], [0.0, np.inf, np.inf]):
        dist = GriddedDistribution(np.array(positions), np.ones(3), np.array([0.0, 0.5, 1.0]))
        u = np.array([0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0), 1.0, np.nan])
        expected = np.interp(u, dist.cdf, dist.positions)
        assert np.array_equal(_bits(dist.ppf(u)), _bits(expected))
