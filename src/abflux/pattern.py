"""Screen probability densities for a two-slit experiment whose enclosed
magnetic flux is in a superposition of "up" and "down" states.

Every density here is a combination of three geometry-only components

    A(x) = |psi+|^2 + |psi-|^2
    B(x) = 2 Re(psi+* psi-)
    C(x) = -2 Im(psi+* psi-)

and the flux enters only through its point of the unit disk,

    (c, s) = (cos(phi), sin(phi) cos(theta)),   density A + B c + C s,

which disk_point gives and combine_components evaluates.  cos^2(theta/2)
is the probability of the "up" flux; the up (theta = 0) and down
(theta = pi) patterns lie on the disk's boundary circle.  The relative
phase omega between the up and down flux branches never enters any
density; the superposition density equals the classical mixture of up and
down patterns with weights cos^2(theta/2) and sin^2(theta/2).

The "up" label is tied to the observable: the up pattern's fringes shift
toward negative x (left) as phi grows from 0, matching a negatively
charged particle circling a flux pointing along +z.

phi is stored as a magnitude (>= 0): all densities depend only on |phi|,
so signed physical fluxes map onto (direction, |phi|).  Flux parameters
are converted from physical quantities in gaussian units; that conversion
is the only place physical constants enter this module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, _checked_array, _checked_count, _checked_real, _checked_window
from .slits import ApertureGeometry, _edge_differences, _validate_positions, geometry_constants
# not called here since the components skip the amplitudes' phase; the traced
# benchmark (perfbench/spans.py) still wraps this name in this module
from .slits import slit_amplitude_pair  # noqa: F401

# gaussian-unit constants used only by flux_parameter
HBAR_CGS = 1.054571817e-27       # erg s
SPEED_OF_LIGHT_CGS = 2.99792458e10   # cm / s

# negative density values above this (relative to the peak) are treated as
# rounding residue of the cancellation near fringe minima
_NEGATIVE_TOLERANCE = 1e-12

# Screen positions per block of pattern_components: 8192 Fresnel arguments,
# so each complex temporary is 128 KiB and a block's work stays in a 2 MiB
# L2 cache.
_POSITION_BLOCK = 2048


@dataclass(frozen=True)
class FluxState:
    """Superposition parameters of the enclosed flux.

    theta in [0, pi]: up-amplitude cos(theta/2), down-amplitude
    sin(theta/2).  omega in [0, 2 pi): relative phase between the two flux
    branches (never observable at the screen).  phi >= 0: flux-parameter
    magnitude.
    """

    theta: float
    phi: float
    omega: float = 0.0

    def __post_init__(self):
        for name, high in (("theta", np.pi), ("phi", np.inf), ("omega", np.inf)):
            object.__setattr__(self, name, _checked_real(name, getattr(self, name), 0.0, high))
        if self.omega >= 2.0 * np.pi:
            raise DomainError(f"omega must be below 2 pi, got {self.omega!r}")


@dataclass(frozen=True)
class PhysicalFlux:
    """A definite magnetic flux and probe charge in gaussian units
    (maxwell and statcoulomb)."""

    flux: float
    charge: float

    def __post_init__(self):
        for name in ("flux", "charge"):
            object.__setattr__(self, name, _checked_real(name, getattr(self, name)))
        if self.charge == 0.0:
            raise DomainError("charge must be nonzero")


@dataclass(frozen=True)
class ScreenGrid:
    """Strictly increasing screen positions, m."""

    positions: np.ndarray

    def __post_init__(self):
        positions = _checked_array("screen grid positions", self.positions)
        if positions.size == 0:
            raise DomainError("a screen grid needs at least one position")
        if positions.size > 1 and not np.all(np.diff(positions) > 0):
            raise DomainError("screen grid positions must be strictly increasing")
        object.__setattr__(self, "positions", positions)

    @classmethod
    def uniform(cls, x_min, x_max, n) -> "ScreenGrid":
        x_min, x_max = _checked_window((x_min, x_max))
        return cls(np.linspace(x_min, x_max, _checked_count("screen grid points", n, 1)))


@dataclass(frozen=True)
class DensityGrid:
    """A probability density (unnormalized) sampled on a screen grid."""

    positions: np.ndarray
    values: np.ndarray
    geometry: ApertureGeometry
    flux: FluxState

    def __post_init__(self):
        positions = ScreenGrid(self.positions).positions
        values = _checked_array("density values", self.values)
        if values.shape != positions.shape:
            raise DomainError("density values must be one per position")
        peak = float(np.max(values, initial=0.0))
        if np.any(values < -_NEGATIVE_TOLERANCE * max(peak, 1.0)):
            raise DomainError("density values must be non-negative")
        object.__setattr__(self, "positions", positions)
        object.__setattr__(self, "values", values)


def flux_parameter(physical: PhysicalFlux) -> float:
    """Dimensionless flux parameter q Phi / (hbar c) of a physical flux."""
    return physical.charge * physical.flux / (HBAR_CGS * SPEED_OF_LIGHT_CGS)


def pattern_components(geometry: ApertureGeometry, x):
    """The three geometry-only components (A, B, C) at screen positions x.

    A = |psi+|^2 + |psi-|^2, B = 2 Re(psi+* psi-), C = -2 Im(psi+* psi-).
    Every density in this module is A + B c + C s at the flux's disk point
    (c, s) of :func:`disk_point`.

    psi+- is a common complex prefactor times an edge difference d+-, and
    the prefactor's phase exp(i pi x^2 / (lambda (L+l))) cancels in each
    component.  So they are formed from d+- and the prefactor's squared
    modulus kappa = N^2 / M alone: A = kappa (|d+|^2 + |d-|^2) and
    d+* d- carries B and C.  No density ever computes that phase.
    Since d+- swap exactly under x -> -x, A and B are exactly even and C
    is exactly odd.

    Positions go through the edge differences and A, B, C in blocks of
    ``_POSITION_BLOCK``, each written into one preallocated (3, n) array
    whose rows are returned.  Beyond that output, memory stays at one
    block's temporaries whatever the number of positions, and each value
    depends only on its own position.
    """
    x = _validate_positions(x)
    consts = geometry_constants(geometry)
    kappa = consts.amplitude_scale * consts.amplitude_scale / consts.normalization
    out = np.empty((3, x.size))
    for start in range(0, x.size, _POSITION_BLOCK):
        block = slice(start, start + _POSITION_BLOCK)
        d_plus, d_minus = _edge_differences(geometry, consts, x[block])
        # Spelled out in real arithmetic rather than complex products: numpy's
        # complex multiply may contract to FMA, which breaks the exact mirror
        # symmetry (A, B even and C odd under x -> -x) at the last bit.
        re_p, im_p = d_plus.real, d_plus.imag
        re_m, im_m = d_minus.real, d_minus.imag
        out[0, block] = kappa * ((re_p * re_p + im_p * im_p) + (re_m * re_m + im_m * im_m))
        out[1, block] = (2.0 * kappa) * (re_p * re_m + im_p * im_m)
        out[2, block] = (-2.0 * kappa) * (re_p * im_m - im_p * re_m)
    return out[0], out[1], out[2]


def disk_point(theta, phi):
    """The flux's point (c, s) = (cos(phi), sin(phi) cos(theta)) of the unit
    disk, elementwise over arrays: all the screen sees of (theta, phi).
    theta = 0 and pi give s = +-sin(phi) exactly."""
    return np.cos(phi), np.sin(phi) * np.cos(theta)


def disk_angles(c, s):
    """The (theta, phi), phi in [0, pi], of an interior point (c, s) of the
    unit disk, elementwise over arrays: the inverse of disk_point there."""
    return np.arccos(np.clip(s / np.sqrt((1.0 - c) * (1.0 + c)), -1.0, 1.0)), np.arccos(c)


def combine_components(components, c, s):
    """The density A + B c + C s of components (A, B, C) at disk points (c, s)."""
    comp_a, comp_b, comp_c = components
    return comp_a + comp_b * c + comp_c * s


def basis_density(geometry: ApertureGeometry, phi, direction, x):
    """Screen density for a definite ("up" or "down") flux of magnitude phi.

    The up pattern (theta = 0) shifts left (toward negative x) with growing
    phi, the down pattern (theta = pi) right.  Scalar x gives a float, array
    x an array.
    """
    if direction not in ("up", "down"):
        raise DomainError(f"direction must be 'up' or 'down', got {direction!r}")
    return density(geometry, FluxState(0.0 if direction == "up" else np.pi, phi), x)


def density(geometry: ApertureGeometry, flux: FluxState, x):
    """Screen density for a superposed flux; independent of flux.omega.
    Scalar x gives a float, array x an array."""
    values = combine_components(pattern_components(geometry, x),
                                *disk_point(flux.theta, flux.phi))
    return float(values[0]) if np.ndim(x) == 0 else values


def mixture_density(geometry: ApertureGeometry, phi, p_up, x):
    """Classical mixture p_up * up-pattern + (1 - p_up) * down-pattern."""
    p_up = _checked_real("p_up", p_up, 0.0, 1.0)
    return (p_up * basis_density(geometry, phi, "up", x)
            + (1.0 - p_up) * basis_density(geometry, phi, "down", x))


def density_grid(geometry: ApertureGeometry, flux: FluxState, grid: ScreenGrid) -> DensityGrid:
    """Superposition density evaluated on a screen grid."""
    values = density(geometry, flux, grid.positions)
    return DensityGrid(positions=grid.positions, values=values, geometry=geometry, flux=flux)


def center_of_mass(grid: DensityGrid) -> float:
    """Trapezoid-weighted first moment of a density grid, m."""
    weight = np.trapezoid(grid.values, grid.positions)
    if weight <= 0.0:
        raise DomainError("center of mass of an all-zero density is undefined")
    return float(np.trapezoid(grid.positions * grid.values, grid.positions) / weight)
