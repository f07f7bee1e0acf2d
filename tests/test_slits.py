"""Slit-amplitude tests: oracle agreement, parity, scale constants."""

import numpy as np
import pytest

from _oracle import slit_amplitudes
from abflux import (
    ApertureGeometry,
    DomainError,
    de_broglie_wavelength,
    geometry_constants,
    slit_amplitude,
    slit_amplitude_pair,
)
from conftest import symmetric_grid

PLANCK = 6.62607015e-34


def test_amplitudes_match_oracle(jonsson):
    xs = np.linspace(-2e-5, 2e-5, 101)
    ref_plus, ref_minus = slit_amplitudes(jonsson, xs)
    plus, minus = slit_amplitude_pair(jonsson, xs)
    scale = np.abs(plus).max()
    assert np.abs(plus - ref_plus).max() / scale <= 1e-12
    assert np.abs(minus - ref_minus).max() / scale <= 1e-12


def test_slits_swap_under_reflection(jonsson):
    xs = symmetric_grid(2e-5, 300)
    plus, minus = slit_amplitude_pair(jonsson, xs)
    plus_r, minus_r = slit_amplitude_pair(jonsson, -xs)
    assert np.array_equal(plus_r, minus)
    assert np.array_equal(minus_r, plus)


def test_geometry_constants_match_defining_formulas(jonsson):
    lam = jonsson.wavelength
    l_src = jonsson.source_to_slit
    l_scr = jonsson.slit_to_screen
    gc = geometry_constants(jonsson)
    assert gc.amplitude_scale == pytest.approx(
        np.sqrt(1.0 / (2.0 * lam * (l_src + l_scr))), rel=1e-12
    )
    assert gc.fresnel_scale == pytest.approx(
        np.sqrt((2.0 / lam) * (1.0 / l_src + 1.0 / l_scr)), rel=1e-12
    )
    assert gc.normalization == pytest.approx(
        4.0 * jonsson.slit_half_width / (lam * l_src), rel=1e-12
    )


def test_jonsson_constant_values(jonsson):
    gc = geometry_constants(jonsson)
    assert gc.amplitude_scale == pytest.approx(95346.25892455924, rel=1e-10)
    assert gc.fresnel_scale == pytest.approx(663324.95807108, rel=1e-10)
    assert gc.normalization == pytest.approx(20000.0, rel=1e-12)


def test_center_intensity_frozen(jonsson):
    plus, _ = slit_amplitude_pair(jonsson, np.array([0.0]))
    assert abs(plus[0]) ** 2 == pytest.approx(48033.17966365119, rel=1e-10)


def test_single_slit_selector_matches_pair(jonsson):
    xs = np.array([-3e-6, 0.0, 4.5e-6])
    plus, minus = slit_amplitude_pair(jonsson, xs)
    assert np.array_equal(slit_amplitude(jonsson, "plus", xs), plus)
    assert np.array_equal(slit_amplitude(jonsson, "minus", xs), minus)
    with pytest.raises(DomainError):
        slit_amplitude(jonsson, "sideways", xs)


def test_scalar_position_accepted(jonsson):
    plus, minus = slit_amplitude_pair(jonsson, 1.0e-6)
    assert plus.shape == (1,)
    assert minus.shape == (1,)


def test_de_broglie_identity():
    mass = 9.1093837015e-31
    speed = 1.0e6
    assert de_broglie_wavelength(mass, speed) == pytest.approx(
        PLANCK / (mass * speed), rel=1e-15
    )
    # solving h/(m v) for v reproduces the requested wavelength
    target = 5.0e-12
    speed = PLANCK / (mass * target)
    assert de_broglie_wavelength(mass, speed) == pytest.approx(target, rel=1e-12)


def test_de_broglie_rejects_nonpositive():
    with pytest.raises(DomainError):
        de_broglie_wavelength(0.0, 1.0)
    with pytest.raises(DomainError):
        de_broglie_wavelength(1.0e-30, -2.0)


def test_geometry_validation():
    good = dict(
        source_to_slit=10.0,
        slit_to_screen=1.0,
        slit_half_width=0.25e-6,
        slit_half_separation=1.0e-6,
        wavelength=5.0e-12,
    )
    ApertureGeometry(**good)
    for key in good:
        bad = dict(good)
        bad[key] = -bad[key]
        with pytest.raises(DomainError):
            ApertureGeometry(**bad)
    overlapping = dict(good)
    overlapping["slit_half_separation"] = 0.2e-6
    with pytest.raises(DomainError):
        ApertureGeometry(**overlapping)


def test_amplitudes_of_a_position_independent_of_batch(jonsson):
    rng = np.random.default_rng(19)
    xs = rng.uniform(-2e-5, 2e-5, 300_000)
    plus, minus = slit_amplitude_pair(jonsson, xs)
    for i in rng.choice(xs.size, 64, replace=False):
        alone_plus, alone_minus = slit_amplitude_pair(jonsson, xs[i])
        assert plus[i] == alone_plus[0] and minus[i] == alone_minus[0]


def test_rejects_nonfinite_positions(jonsson):
    with pytest.raises(DomainError):
        slit_amplitude_pair(jonsson, np.array([0.0, np.nan]))
