"""Accuracy and contract tests for the complex Fresnel integral."""

import math

import numpy as np
import pytest
from scipy.special import fresnel as scipy_fresnel

from _oracle import fresnel_quad
from abflux import DomainError, fresnel_ei, fresnel_ei_grid
from abflux.fresnel import (
    _SERIES_TERMS,
    SERIES_CUTOFF,
    _continued_fraction,
    _series,
)


def test_zero_is_zero():
    assert fresnel_ei(0.0) == 0j


def test_known_value_at_one():
    # frozen from adaptive quadrature of exp(i pi t^2 / 2) on [0, 1]
    expected = 0.7798934003768226 + 0.4382591473903548j
    assert abs(fresnel_ei(1.0) - expected) <= 1e-13


def test_matches_quadrature_on_wide_range():
    zs = np.linspace(-50.0, 50.0, 201)
    values = fresnel_ei_grid(zs)
    worst = max(
        abs(v - fresnel_quad(z)) for z, v in zip(zs, values)
    )
    assert worst <= 1e-10


def test_matches_scipy_dense():
    zs = np.linspace(-40.0, 40.0, 2001)
    s, c = scipy_fresnel(zs)
    worst = np.max(np.abs(fresnel_ei_grid(zs) - (c + 1j * s)))
    assert worst <= 1e-12


def test_odd_symmetry_exact():
    zs = np.linspace(0.0, 30.0, 1201)
    assert np.array_equal(fresnel_ei_grid(-zs), -fresnel_ei_grid(zs))


def test_small_argument_leading_term():
    for z in (1e-8, -1e-8, 1e-10):
        assert abs(fresnel_ei(z) - z) <= 1e-17


def test_branch_agreement_on_overlap():
    # both evaluation branches are accurate on this band, so switching
    # the cutoff inside it cannot move results at the tested precision
    zs = np.linspace(2.0, 2.8, 81)
    worst = np.max(np.abs(_series(zs) - _continued_fraction(zs)))
    assert worst <= 1e-12


def test_cutoff_is_inside_overlap_band():
    assert 2.0 <= SERIES_CUTOFF <= 2.8


def test_derivative_matches_integrand():
    # fundamental theorem of calculus at finite-difference resolution
    h = 1e-6
    worst = 0.0
    for x in np.linspace(-10.0, 10.0, 41):
        diff = (fresnel_ei(x + h) - fresnel_ei(x - h)) / (2.0 * h)
        worst = max(worst, abs(diff - np.exp(0.5j * np.pi * x * x)))
    assert worst <= 2e-7


def test_grid_matches_scalar_calls():
    # 40,000 continued-fraction arguments make the grid's temporaries far
    # larger than the 256 KiB from which numpy reuses them in place; every
    # eighth of them is checked against its own call
    zs = np.concatenate([
        [-7.3, -2.6, -1.0, 0.0, 0.5, 2.5, 2.50001, 9.9],
        np.linspace(2.6, 40.0, 40_000),
    ])
    grid = fresnel_ei_grid(zs)
    checked = np.r_[0:8, 8:zs.size:8]
    scalars = np.array([fresnel_ei(z) for z in zs[checked]])
    assert np.array_equal(grid[checked], scalars)


def test_grid_empty_input():
    out = fresnel_ei_grid(np.array([]))
    assert out.shape == (0,)
    assert out.dtype == np.complex128


def test_rejects_nonfinite_scalar():
    with pytest.raises(DomainError):
        fresnel_ei(np.nan)
    with pytest.raises(DomainError):
        fresnel_ei(np.inf)


def test_grid_error_names_offending_index():
    zs = np.array([0.0, 1.0, np.nan, 3.0])
    with pytest.raises(DomainError, match="index 2"):
        fresnel_ei_grid(zs)


def _bottom_up_fraction(z, depth):
    # reference: the same continued fraction as _continued_fraction, deeper
    pizz = np.pi * z * z
    b = 1.0 - 1j * pizz
    f = b + 4.0 * depth
    for k in range(depth, 0, -1):
        f = (b + 4.0 * (k - 1)) + (-2.0 * k * (2.0 * k - 1.0)) / f
    return (0.5 + 0.5j) * (1.0 - np.exp(0.5j * pizz) * (1.0 - 1j) * z / f)


def test_matches_scipy_dense_on_hit_range():
    # the slit-edge arguments of the Jonsson windows and hits lie in here
    zs = np.linspace(-13.0, 13.0, 200_001)
    s, c = scipy_fresnel(zs)
    assert np.max(np.abs(fresnel_ei_grid(zs) - (c + 1j * s))) <= 1e-12


def test_continuous_at_cutoff():
    above = np.nextafter(SERIES_CUTOFF, 3.0)
    assert abs(fresnel_ei(SERIES_CUTOFF) - fresnel_ei(above)) < 1e-12


def test_continued_fraction_depth_suffices():
    for z in (2.0, 2.5, 4.0):
        assert abs(_continued_fraction(z) - _bottom_up_fraction(z, 200)) <= 1e-15


def test_series_term_count_suffices():
    # first term the series leaves out, at the top of the overlap band
    z, n = 2.8, 2 * _SERIES_TERMS
    omitted = (np.pi / 2) ** n * z ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    assert omitted < 1e-17


def test_values_independent_of_batch():
    rng = np.random.default_rng(11)
    first = np.concatenate([
        np.linspace(-20.0, 20.0, 4001),
        [SERIES_CUTOFF, np.nextafter(SERIES_CUTOFF, 3.0), -SERIES_CUTOFF, 1e17, -1e300],
    ])
    second = rng.uniform(-13.0, 13.0, 5000)
    alone = np.concatenate([fresnel_ei_grid(first), fresnel_ei_grid(second)])
    batch = np.concatenate([first, second])
    order = rng.permutation(batch.size)
    assert np.array_equal(fresnel_ei_grid(batch[order]), alone[order])


@pytest.mark.filterwarnings("error")
def test_saturates_at_huge_arguments():
    half = 0.5 + 0.5j
    for z in (1e17, 1e154, 1e300):
        assert fresnel_ei(z) == half
        assert fresnel_ei(-z) == -half
    assert fresnel_ei(-1e200) == -half
    assert np.all(np.isfinite(fresnel_ei_grid([np.finfo(float).max])))
    assert np.array_equal(fresnel_ei_grid([np.finfo(float).max]), [half])


def test_large_arguments_match_scipy():
    # the phase exp(i pi z^2 / 2) needs z^2 exactly; a rounded z^2 drifts
    # like z * 1e-16 (5.7e-9 at z = 1e8)
    zs = np.array([2.6, 15.0, 3e4, 1e5, 1e6, 1e8, 1e12, 1e16])
    s, c = scipy_fresnel(zs)
    assert np.max(np.abs(fresnel_ei_grid(zs) - (c + 1j * s))) <= 1e-12
    assert np.max(np.abs(fresnel_ei_grid(-zs) + (c + 1j * s))) <= 1e-12
