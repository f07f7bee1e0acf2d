"""Accuracy and contract tests for the complex Fresnel integral."""

import subprocess
import sys
from decimal import Decimal, localcontext
from pathlib import Path

import numpy as np
import pytest
from scipy.special import fresnel as scipy_fresnel

from _oracle import PI_DECIMAL, cis_decimal, fresnel_decimal, fresnel_quad
from abflux import DomainError, fresnel_ei, fresnel_ei_grid
from abflux.fresnel import (
    _F_COEFFS,
    _G_COEFFS,
    _P_COEFFS,
    _Q_COEFFS,
    SERIES_CUTOFF,
)

GENERATOR = Path(__file__).resolve().parents[1] / "tools" / "fresnel_coefficients.py"


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
    # 40,000 arguments above the cutoff make the grid's temporaries far
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


def test_matches_scipy_dense_on_hit_range():
    # the slit-edge arguments of the Jonsson windows and hits lie in here;
    # scipy itself is within 6.2e-16 of 40-digit values on [0, 14]
    zs = np.linspace(-13.0, 13.0, 200_001)
    s, c = scipy_fresnel(zs)
    assert np.max(np.abs(fresnel_ei_grid(zs) - (c + 1j * s))) <= 2e-15


def test_continuous_at_cutoff():
    above = np.nextafter(SERIES_CUTOFF, 3.0)
    assert abs(fresnel_ei(SERIES_CUTOFF) - fresnel_ei(above)) < 1e-15


def _horner_decimal(coeffs, x):
    # the committed float64 coefficients, evaluated without rounding error
    acc = Decimal(coeffs[-1])
    for c in coeffs[-2::-1]:
        acc = acc * x + Decimal(c)
    return acc


def test_series_term_count_suffices():
    # the near-origin fits z P(w) + i z^3 Q(w), as committed and evaluated
    # exactly, against 60-digit C and S at 40 points of w in (-1, 1];
    # truncation is below 2e-17, rounding the coefficients to float64
    # costs up to 3.5e-16
    with localcontext() as ctx:
        ctx.prec = 80
        cut = Decimal(SERIES_CUTOFF)
        worst = Decimal(0)
        for j in range(1, 41):
            w = Decimal(j - 20) / 20
            z = cut * ((w + 1) / 2).sqrt().sqrt()
            c, s = fresnel_decimal(z)
            dc = z * _horner_decimal(_P_COEFFS, w) - c
            ds = z**3 * _horner_decimal(_Q_COEFFS, w) - s
            worst = max(worst, (dc * dc + ds * ds).sqrt())
    assert worst <= Decimal("5e-16")


def test_continued_fraction_depth_suffices():
    # the auxiliary fits f = F(v) / (pi z) and g = G(v) / (pi^2 z^3) that
    # replace the continued fraction, as committed and evaluated exactly,
    # against 60-digit f and g at 39 points of v in [-0.9, 1], z from the
    # cutoff to 11.2; an error in (f, g) is the same error in E
    with localcontext() as ctx:
        ctx.prec = 150   # the Taylor terms reach exp(pi z^2 / 2) ~ 1e85
        cut = Decimal(SERIES_CUTOFF)
        half = Decimal("0.5")
        worst = Decimal(0)
        for j in range(39):
            v = 1 - Decimal(j) / 20
            z = cut / ((v + 1) / 2).sqrt()
            c, s = fresnel_decimal(z)
            cos, sin = cis_decimal(PI_DECIMAL * z * z / 2)
            f = (c - half) * sin - (s - half) * cos
            g = -(c - half) * cos - (s - half) * sin
            df = _horner_decimal(_F_COEFFS, v) / (PI_DECIMAL * z) - f
            dg = _horner_decimal(_G_COEFFS, v) / (PI_DECIMAL**2 * z**3) - g
            worst = max(worst, (df * df + dg * dg).sqrt())
    assert worst <= Decimal("2e-17")


def test_committed_coefficients_match_generator():
    # the generator refits the four polynomials at 40 digits, fails unless
    # each fit's first omitted Chebyshev term is below 2e-17 in E, and
    # compares every committed coefficient with its own, bit for bit
    pytest.importorskip("mpmath")
    run = subprocess.run([sys.executable, str(GENERATOR), "--check"],
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr


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
