"""Finite-width two-slit screen amplitudes.

Geometry: a point source a distance ``l`` behind the slit plane, two slits
of half-width ``b`` centred at ±``x0`` on the slit plane, and a screen a
distance ``L`` beyond it.  The y-motion is treated classically; the
transverse amplitude at screen position ``x`` for the slit on the right
(``plus``) or left (``minus``) is

    psi±(x) = (-i N / sqrt(M)) * exp(i pi x^2 / (lambda (L+l)))
              * [E(beta (x0 + b ∓ rx)) - E(beta (x0 - b ∓ rx))]

with r = l/(L+l), E the complex Fresnel integral, and

    N = sqrt(1 / (2 lambda (l+L)))        amplitude scale, m^-1/2
    beta = sqrt((2/lambda)(1/l + 1/L))    Fresnel argument scale, m^-1
    M = 4 b / (lambda l)                  normalization factor

All lengths are SI meters.  The common quadratic phase factor cancels in
every density but is kept, so the amplitude is the literal expression above.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, _checked_array, _checked_real
from .fresnel import _fresnel_ei_array

# Planck constant, J s (exact SI value)
PLANCK_CONSTANT = 6.62607015e-34

# Default screen window, m.  Covers roughly 14 fringes of the Jonsson
# layout (fringe spacing ~2.75e-6 m there).
DEFAULT_WINDOW = (-2.0e-5, 2.0e-5)


def _store_positive(instance):
    """Store every field of a frozen dataclass as a positive float."""
    for field in fields(instance):
        value = _checked_real(field.name, getattr(instance, field.name))
        if value <= 0.0:
            raise DomainError(f"{field.name} must be positive, got {value!r}")
        object.__setattr__(instance, field.name, value)


@dataclass(frozen=True)
class ApertureGeometry:
    """Source / slit / screen layout, SI meters.

    ``slit_half_separation`` is the distance from the optical axis to each
    slit centre, so the centre-to-centre slit separation is twice it.
    """

    source_to_slit: float
    slit_to_screen: float
    slit_half_width: float
    slit_half_separation: float
    wavelength: float

    def __post_init__(self):
        _store_positive(self)
        if self.slit_half_separation <= self.slit_half_width:
            raise DomainError(
                "slit_half_separation must exceed slit_half_width "
                "(the two slits must be distinct and clear of the axis)"
            )

    @classmethod
    def jonsson(cls) -> "ApertureGeometry":
        """The Jonsson electron-diffraction layout used for all defaults:
        l = 10 m, L = 1 m, b = 0.25 um, x0 = 1 um, wavelength = 5 pm."""
        return cls(
            source_to_slit=10.0,
            slit_to_screen=1.0,
            slit_half_width=0.25e-6,
            slit_half_separation=1.0e-6,
            wavelength=5.0e-12,
        )


@dataclass(frozen=True)
class GeometryConstants:
    """Derived constants of an aperture geometry (see module docstring)."""

    amplitude_scale: float    # N, m^-1/2
    fresnel_scale: float      # beta, m^-1
    normalization: float      # M, dimensionless

    def __post_init__(self):
        _store_positive(self)


def de_broglie_wavelength(mass, speed):
    """De Broglie wavelength h/(m v) in meters for SI mass and speed.

    Raises :class:`DomainError` for non-positive mass or speed.
    """
    mass, speed = _checked_real("mass", mass), _checked_real("speed", speed)
    if not (mass > 0.0 and speed > 0.0):
        raise DomainError(f"mass and speed must be positive, got {mass!r}, {speed!r}")
    return PLANCK_CONSTANT / (mass * speed)


def geometry_constants(geometry: ApertureGeometry) -> GeometryConstants:
    """Amplitude scale N, Fresnel argument scale beta, and normalization M."""
    l = geometry.source_to_slit
    big_l = geometry.slit_to_screen
    lam = geometry.wavelength
    return GeometryConstants(
        amplitude_scale=np.sqrt(1.0 / (2.0 * lam * (l + big_l))),
        fresnel_scale=np.sqrt((2.0 / lam) * (1.0 / l + 1.0 / big_l)),
        normalization=4.0 * geometry.slit_half_width / (lam * l),
    )


def _validate_positions(x):
    """Screen positions as a 1-D float array, a scalar as one element."""
    return np.atleast_1d(_checked_array("screen positions", x, (0, 1)))


def slit_amplitude_pair(geometry: ApertureGeometry, x):
    """Both slit amplitudes (psi_plus, psi_minus) at screen positions x.

    Parameters
    ----------
    geometry : ApertureGeometry
    x : array_like of float
        Screen positions, m.

    Returns
    -------
    (numpy.ndarray, numpy.ndarray) of complex
    """
    x = _validate_positions(x)
    consts = geometry_constants(geometry)
    l = geometry.source_to_slit
    big_l = geometry.slit_to_screen
    projected = (l / (l + big_l)) * x
    outer = geometry.slit_half_separation + geometry.slit_half_width
    inner = geometry.slit_half_separation - geometry.slit_half_width
    beta = consts.fresnel_scale
    args = np.concatenate([
        beta * (outer - projected),
        beta * (inner - projected),
        beta * (outer + projected),
        beta * (inner + projected),
    ])
    ei = _fresnel_ei_array(args).reshape(4, x.size)
    phase = np.exp(1j * np.pi * x * x / (geometry.wavelength * (big_l + l)))
    prefactor = (-1j * consts.amplitude_scale / np.sqrt(consts.normalization)) * phase
    # Named, the differences are not temporaries numpy could multiply in
    # place as `difference *= prefactor`, which swaps the operands of a
    # complex multiply that is not bitwise commutative; so each amplitude
    # is the same whatever the batch size.
    plus_edges = ei[0] - ei[1]
    minus_edges = ei[2] - ei[3]
    return prefactor * plus_edges, prefactor * minus_edges


def slit_amplitude(geometry: ApertureGeometry, slit, x):
    """Amplitude psi_plus or psi_minus at screen position(s) x.

    ``slit`` is ``"plus"`` (right slit, centred at +x0) or ``"minus"``.
    Scalar x gives a complex scalar; array x gives a complex array.
    """
    if slit not in ("plus", "minus"):
        raise DomainError(f"slit must be 'plus' or 'minus', got {slit!r}")
    plus, minus = slit_amplitude_pair(geometry, x)
    out = plus if slit == "plus" else minus
    return complex(out[0]) if np.ndim(x) == 0 else out
