"""Screen-density tests: mixture identity, limits, parity, invariances."""

import numpy as np
import pytest

from _oracle import density_direct
from abflux import (
    DensityGrid,
    DomainError,
    FluxState,
    PhysicalFlux,
    ScreenGrid,
    basis_density,
    center_of_mass,
    density,
    density_grid,
    flux_parameter,
    mixture_density,
    pattern_components,
    slit_amplitude_pair,
)
from abflux import pattern as pattern_module
from abflux.pattern import (_POSITION_BLOCK, HBAR_CGS, SPEED_OF_LIGHT_CGS, disk_angles,
                            disk_point)
from conftest import symmetric_grid

THETAS = np.linspace(0.0, np.pi, 7)
PHIS = np.linspace(0.0, 2.0 * np.pi, 9)


def _rel_dev(a, b):
    return np.max(np.abs(a - b)) / max(np.max(np.abs(a)), np.max(np.abs(b)))


def test_density_matches_direct_oracle(jonsson):
    xs = np.linspace(-2e-5, 2e-5, 501)
    for theta in (0.0, 1.0, np.pi / 2, np.pi):
        for phi in (0.0, np.pi / 4, np.pi / 2, 2.0, np.pi):
            mine = density(jonsson, FluxState(theta, phi), xs)
            ref = density_direct(jonsson, theta, phi, xs)
            assert _rel_dev(mine, ref) <= 1e-12


def test_mixture_identity(jonsson):
    xs = np.linspace(-2e-5, 2e-5, 1001)
    for theta in THETAS:
        for phi in PHIS:
            full = density(jonsson, FluxState(theta, phi), xs)
            up = basis_density(jonsson, phi, "up", xs)
            down = basis_density(jonsson, phi, "down", xs)
            w_up = np.cos(theta / 2.0) ** 2
            mixed = w_up * up + (1.0 - w_up) * down
            assert _rel_dev(full, mixed) <= 1e-12


def test_mixture_density_op_matches_superposition(jonsson):
    xs = np.linspace(-2e-5, 2e-5, 801)
    phi = np.pi / 2
    full = density(jonsson, FluxState(np.pi / 3, phi), xs)
    mixed = mixture_density(jonsson, phi, np.cos(np.pi / 6) ** 2, xs)
    assert _rel_dev(full, mixed) <= 1e-12


def test_phi_zero_is_theta_independent(jonsson):
    xs = np.linspace(-2e-5, 2e-5, 801)
    base = density(jonsson, FluxState(0.0, 0.0), xs)
    for theta in THETAS:
        other = density(jonsson, FluxState(theta, 0.0), xs)
        assert _rel_dev(base, other) <= 1e-12


def test_theta_endpoints_give_basis_patterns(jonsson):
    xs = np.linspace(-2e-5, 2e-5, 801)
    for phi in PHIS:
        up = basis_density(jonsson, phi, "up", xs)
        down = basis_density(jonsson, phi, "down", xs)
        assert _rel_dev(density(jonsson, FluxState(0.0, phi), xs), up) <= 1e-12
        assert _rel_dev(density(jonsson, FluxState(np.pi, phi), xs), down) <= 1e-12


def test_equal_weights_density_even_in_x(jonsson):
    xs = symmetric_grid(2e-5, 400)
    for phi in (np.pi / 4, np.pi / 2, np.pi, 5.0):
        values = density(jonsson, FluxState(np.pi / 2, phi), xs)
        assert _rel_dev(values, values[::-1]) <= 1e-12


def test_omega_never_observable(jonsson):
    xs = np.linspace(-2e-5, 2e-5, 801)
    base = density(jonsson, FluxState(1.0, 2.0, 0.0), xs)
    for omega in (1.0, np.pi, 5.0):
        other = density(jonsson, FluxState(1.0, 2.0, omega), xs)
        assert _rel_dev(base, other) <= 1e-15


def test_parameter_degeneracy(jonsson):
    xs = np.linspace(-2e-5, 2e-5, 801)
    for theta, phi in ((0.3, 1.0), (1.2, 2.5), (np.pi / 2, 3.0)):
        first = density(jonsson, FluxState(theta, phi), xs)
        second = density(jonsson, FluxState(np.pi - theta, 2.0 * np.pi - phi), xs)
        assert _rel_dev(first, second) <= 1e-12


def test_density_nonnegative(jonsson):
    xs = np.linspace(-2e-5, 2e-5, 2001)
    for theta, phi in ((0.0, 0.0), (0.0, np.pi), (np.pi / 2, np.pi / 2), (1.0, 2.0)):
        values = density(jonsson, FluxState(theta, phi), xs)
        assert values.min() >= -1e-12 * values.max()


def test_center_value_frozen(jonsson):
    value = density(jonsson, FluxState(0.0, np.pi / 2), 0.0)
    assert float(value) == pytest.approx(96066.35932730239, rel=1e-10)


def test_fringe_spacing(jonsson):
    xs = np.linspace(-1e-5, 1e-5, 200001)
    values = density(jonsson, FluxState(0.0, 0.0), xs)
    interior = (values[1:-1] > values[:-2]) & (values[1:-1] > values[2:])
    peaks = xs[np.where(interior)[0] + 1]
    central = peaks[np.abs(peaks) < 6e-6]
    spacing = float(np.mean(np.diff(central)))
    assert spacing == pytest.approx(2.43935e-6, abs=1e-9)


def test_flux_up_pattern_shifts_left(jonsson):
    xs = symmetric_grid(2e-5, 2001)
    argmaxes = []
    for phi in (0.0, np.pi / 4, np.pi / 2):
        values = basis_density(jonsson, phi, "up", xs)
        argmaxes.append(xs[np.argmax(values)])
    assert argmaxes[0] > argmaxes[1] > argmaxes[2]
    # calibrated positions of the central fringe on this grid
    assert argmaxes[1] == pytest.approx(-3.063e-7, abs=2e-8)
    assert argmaxes[2] == pytest.approx(-6.126e-7, abs=2e-8)


def test_down_pattern_mirrors_up(jonsson):
    xs = symmetric_grid(2e-5, 1001)
    for phi in (np.pi / 4, 2.0):
        up = basis_density(jonsson, phi, "up", xs)
        down = basis_density(jonsson, phi, "down", xs)
        assert np.array_equal(down, up[::-1])


def test_components_parity(jonsson):
    xs = symmetric_grid(2e-5, 600)
    comp_a, comp_b, comp_c = pattern_components(jonsson, xs)
    assert np.array_equal(comp_a, comp_a[::-1])
    assert np.array_equal(comp_b, comp_b[::-1])
    assert np.array_equal(comp_c, -comp_c[::-1])


def _same_components(left, right):
    return all(np.array_equal(a, b) for a, b in zip(left, right))


def test_components_of_a_position_independent_of_batch(jonsson):
    rng = np.random.default_rng(17)
    xs = rng.uniform(-2e-5, 2e-5, 300_000)
    batch = pattern_components(jonsson, xs)
    for i in rng.choice(xs.size, 64, replace=False):
        alone = pattern_components(jonsson, xs[i])
        assert _same_components([part[i:i + 1] for part in batch], alone)


def test_components_independent_of_block_size(jonsson, monkeypatch):
    rng = np.random.default_rng(23)
    xs = np.concatenate([np.linspace(-2e-5, 2e-5, 2001),
                         rng.uniform(-2e-5, 2e-5, 3000)])
    expected = pattern_components(jonsson, xs)
    for block in (1, 7, _POSITION_BLOCK):
        monkeypatch.setattr(pattern_module, "_POSITION_BLOCK", block)
        assert _same_components(pattern_components(jonsson, xs), expected)


def test_components_block_edges(jonsson):
    empty = pattern_components(jonsson, np.array([]))
    assert [part.shape for part in empty] == [(0,)] * 3
    # a partial last block
    xs = np.linspace(-2e-5, 2e-5, 2 * _POSITION_BLOCK + 3)
    components = pattern_components(jonsson, xs)
    assert [part.shape for part in components] == [xs.shape] * 3
    for i in (0, _POSITION_BLOCK, xs.size - 1):
        alone = pattern_components(jonsson, xs[i])
        assert _same_components([part[i:i + 1] for part in components], alone)
    for bad in (np.nan, np.inf, -np.inf):
        later = xs.copy()
        later[_POSITION_BLOCK + 5] = bad
        with pytest.raises(DomainError):
            pattern_components(jonsson, later)


def test_center_of_mass_antisymmetric_in_theta(jonsson):
    grid = ScreenGrid.uniform(-2e-5, 2e-5, 2049)
    for theta in (0.0, 0.7, 1.2):
        com_a = center_of_mass(density_grid(jonsson, FluxState(theta, np.pi / 2), grid))
        com_b = center_of_mass(density_grid(jonsson, FluxState(np.pi - theta, np.pi / 2), grid))
        assert abs(com_a + com_b) <= 1e-12 * 2e-5 + 1e-18


def test_center_of_mass_vanishes_at_half_turn_flux(jonsson):
    grid = ScreenGrid.uniform(-2e-5, 2e-5, 2049)
    com = center_of_mass(density_grid(jonsson, FluxState(0.3, np.pi), grid))
    assert abs(com) <= 1e-15


def test_center_of_mass_rejects_zero_density(jonsson):
    grid = ScreenGrid.uniform(-1e-5, 1e-5, 64)
    flat = DensityGrid(
        positions=grid.positions,
        values=np.zeros_like(grid.positions),
        geometry=jonsson,
        flux=FluxState(0.0, 0.0),
    )
    with pytest.raises(DomainError):
        center_of_mass(flat)


def test_flux_parameter_formula():
    charge = 4.80320471e-10
    flux = 3.7e-7
    expected = charge * flux / (HBAR_CGS * SPEED_OF_LIGHT_CGS)
    assert flux_parameter(PhysicalFlux(flux=flux, charge=charge)) == pytest.approx(
        expected, rel=1e-15
    )
    # one flux quantum (h c / q, in Gaussian units) advances the phase by 2 pi
    quantum = 2.0 * np.pi * HBAR_CGS * SPEED_OF_LIGHT_CGS / charge
    assert flux_parameter(PhysicalFlux(flux=quantum, charge=charge)) == pytest.approx(
        2.0 * np.pi, rel=1e-15
    )


def test_flux_state_validation():
    FluxState(0.0, 0.0)
    FluxState(np.pi, 123.0, 6.2)
    with pytest.raises(DomainError):
        FluxState(-0.1, 0.0)
    with pytest.raises(DomainError):
        FluxState(3.2, 0.0)
    with pytest.raises(DomainError):
        FluxState(1.0, -1.0)
    with pytest.raises(DomainError):
        FluxState(1.0, 1.0, omega=-0.5)
    with pytest.raises(DomainError):
        FluxState(1.0, 1.0, omega=2.0 * np.pi)


def test_screen_grid_validation():
    ScreenGrid.uniform(-1.0, 1.0, 8)
    with pytest.raises(DomainError):
        ScreenGrid(positions=np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        ScreenGrid.uniform(1.0, -1.0, 8)


def test_density_grid_validation(jonsson):
    grid = ScreenGrid.uniform(-1e-5, 1e-5, 16)
    flux = FluxState(0.0, 0.0)
    with pytest.raises(DomainError):
        DensityGrid(
            positions=grid.positions,
            values=np.ones(5),
            geometry=jonsson,
            flux=flux,
        )
    with pytest.raises(DomainError):
        DensityGrid(
            positions=grid.positions,
            values=np.full(16, -1.0),
            geometry=jonsson,
            flux=flux,
        )


def test_positions_of_more_than_one_dimension_refused(jonsson):
    x = np.zeros((2, 3))
    for call in (lambda: density(jonsson, FluxState(0.5, 1.0), x),
                 lambda: pattern_components(jonsson, x),
                 lambda: slit_amplitude_pair(jonsson, x)):
        with pytest.raises(DomainError, match=r"scalar or 1-D, got shape \(2, 3\)"):
            call()
    assert isinstance(density(jonsson, FluxState(0.5, 1.0), 1e-6), float)


def test_density_grid_refuses_non_finite_entries(jonsson):
    positions = ScreenGrid.uniform(-1e-5, 1e-5, 4).positions
    flux = FluxState(0.0, 0.0)
    with pytest.raises(DomainError, match="density values must be finite"):
        DensityGrid(positions=positions, values=np.array([1.0, np.nan, 1.0, 1.0]),
                    geometry=jonsson, flux=flux)
    for edge in (-np.inf, np.inf):
        bad = positions.copy()
        bad[0 if edge < 0 else -1] = edge
        with pytest.raises(DomainError, match="must be finite"):
            DensityGrid(positions=bad, values=np.ones(4), geometry=jonsson, flux=flux)


def test_disk_angles_invert_disk_point():
    # interior points of the disk, out to radius 0.999, and its centre
    rng = np.random.default_rng(31)
    radius = 0.999 * np.sqrt(rng.uniform(0.0, 1.0, 20000))
    alpha = rng.uniform(-np.pi, np.pi, radius.size)
    c = np.append(radius * np.cos(alpha), 0.0)
    s = np.append(radius * np.sin(alpha), 0.0)
    theta, phi = disk_angles(c, s)
    assert np.all((0.0 <= theta) & (theta <= np.pi) & (0.0 <= phi) & (phi <= np.pi))
    back_c, back_s = disk_point(theta, phi)
    assert np.max(np.abs(back_c - c)) <= 1e-12
    assert np.max(np.abs(back_s - s)) <= 1e-12
