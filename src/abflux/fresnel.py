"""Complex Fresnel integral E(z) = ∫₀ᶻ exp(iπη²/2) dη for real z.

The real and imaginary parts are the classical Fresnel cosine and sine
integrals C(z) and S(z).  Every element costs the same: two real
polynomials of fixed degree, evaluated by Horner's rule, per branch.

* |z| <= ``SERIES_CUTOFF``: E = z P(w) + i z³ Q(w) with w = 2z⁴/cut⁴ − 1
  in [−1, 1].  P and Q are fits of C(z)/z and S(z)/z³, which are entire
  functions of z⁴.
* above it: E = (1+i)/2 − (g + i f) exp(iπz²/2), with the auxiliary
  functions f = F(v)/(πz) and g = G(v)/(π²z³) of v = 2cut²/z² − 1 in
  [−1, 1], which covers z from the cutoff to infinity.  The phase takes
  z² mod 4, its period, from an exact z².

The four polynomials are Chebyshev interpolants computed at 40 digits by
``tools/fresnel_coefficients.py`` and committed as monomial coefficients,
none above 1 in magnitude, so no terms cancel.  Their truncation is below
2e-17 in E; rounding keeps the kernel within 7e-16 of E.  Both branches
are odd in z exactly: the first is by its form, the second takes |z| and
restores the sign.  Each value depends only on its own argument, bit for
bit, whatever the number of arguments in the call.
"""

from __future__ import annotations

import numpy as np

from .errors import _checked_array, _checked_real

# |z| at or below which the fits of C/z and S/z^3 are used; the auxiliary
# functions take over above.
SERIES_CUTOFF = 2.5

# Beyond this |z|, E(z) rounds to sign(z) (1+i)/2: the remainder is below
# 1/(pi |z|) < 4e-18, under half an ulp of 0.5.  Clamping to it also keeps
# the two-product of z^2 finite.
_SATURATION = 1e17

# Generated by tools/fresnel_coefficients.py (mpmath 1.3.0):
# Chebyshev interpolation at 64 nodes and 40 digits, truncated
# where the first omitted term is below 2e-17 in E, converted to
# monomials at the same precision and rounded once to float64.
# Lowest degree first.
_P_COEFFS = (
    0.2774878011488111,
    0.12830694914629867,
    -0.34580320787107066,
    -0.09331354989225173,
    0.4747376361815251,
    -0.3905437301391845,
    0.17394767420477444,
    -0.051177376859767094,
    0.01088385723341551,
    -0.0017658516097032952,
    0.000226776254897239,
    -2.3687539979959362e-05,
    2.0552903314139215e-06,
    -1.506610397762215e-07,
    9.46095640345381e-09,
    -5.149781397894237e-10,
    2.4714880440216637e-11,
    -1.038806719610788e-12,
)
_Q_COEFFS = (
    0.0404310668223974,
    0.00430703772735953,
    0.06520207980627148,
    -0.1637908347236842,
    0.14932202253975496,
    -0.07623133563229391,
    0.025536095485929222,
    -0.006112444041459578,
    0.00110395407476026,
    -0.0001563042632643451,
    1.785170727722397e-05,
    -1.681685913720221e-06,
    1.3302629644153692e-07,
    -8.967174556658419e-09,
    5.215020747171815e-10,
    -2.6444768534779466e-11,
    1.1873402715098124e-12,
    -4.693699378017137e-14,
)
_F_COEFFS = (
    0.9980962509151085,
    -0.00372882323578601,
    -0.0017153134032532765,
    0.00013409366559720304,
    1.7372280477326544e-05,
    -6.696192681819709e-06,
    6.139205810003667e-07,
    2.2524584125466655e-07,
    -1.1196711968154514e-07,
    2.0189196625639422e-08,
    3.030014900226538e-09,
    -3.5592215009785655e-09,
    1.3293933251553924e-09,
    -2.3664959160952937e-10,
    -7.825788794061693e-11,
    1.1954359561710961e-10,
    -4.804365033021852e-11,
    -8.874064187597494e-12,
    8.065141840730728e-12,
)
_G_COEFFS = (
    0.9906386044435382,
    -0.018047723320358793,
    -0.007772005022988184,
    0.0010776339024491826,
    8.938860582428822e-05,
    -6.629106542559815e-05,
    1.113432145585695e-05,
    1.587172803317205e-06,
    -1.5395723387826668e-06,
    4.4431889205646804e-07,
    -1.6043008526532905e-08,
    -5.0167266069287256e-08,
    2.946260392129735e-08,
    -8.3793556513846e-09,
    -1.0921157535284827e-09,
    2.0678854277381806e-09,
    -5.733502858976579e-10,
)


def _horner(coeffs, x):
    """sum_k coeffs[k] x^k by Horner's rule."""
    acc = np.full_like(x, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= x
        acc += c
    return acc


def _near_origin(z):
    """E(z) = z P(w) + i z^3 Q(w), w = 2 z^4 / cut^4 - 1, for |z| <= cut;
    odd in z exactly."""
    z2 = z * z
    w = (z2 * z2) * (2.0 / SERIES_CUTOFF**4) - 1.0
    out = np.empty(z.shape, dtype=complex)
    out.real = z * _horner(_P_COEFFS, w)
    out.imag = (z2 * z) * _horner(_Q_COEFFS, w)
    return out


def _auxiliary(z):
    """E(z) = sign(z) [(1+i)/2 - (g + i f) exp(i pi z^2 / 2)] for |z| > cut,
    with f = F(v) / (pi |z|), g = G(v) / (pi^2 |z|^3), v = 2 cut^2 / z^2 - 1."""
    sign = np.sign(z)
    z = np.minimum(np.abs(z), _SATURATION)
    inv = 1.0 / z
    v = (inv * inv) * (2.0 * SERIES_CUTOFF**2) - 1.0
    f = _horner(_F_COEFFS, v) * (inv / np.pi)
    g = _horner(_G_COEFFS, v) * ((inv * inv) * (inv / np.pi**2))
    angle = (0.5 * np.pi) * _square_mod4(z)
    cos, sin = np.cos(angle), np.sin(angle)
    out = np.empty(z.shape, dtype=complex)
    out.real = sign * (0.5 - (g * cos - f * sin))
    out.imag = sign * (0.5 - (f * cos + g * sin))
    return out


def _square_mod4(z):
    """z^2 reduced mod 4 into [-2, 2], from z^2 = hi + lo exactly
    (Veltkamp's two-product); hi - 4 rint(hi / 4) is exact."""
    hi = z * z
    z_hi = z * 134217729.0   # 2^27 + 1 splits z into halves with exact products
    z_hi -= z_hi - z
    z_lo = z - z_hi
    return (hi - 4.0 * np.rint(0.25 * hi)) + (((z_hi * z_hi - hi) + 2.0 * z_hi * z_lo) + z_lo * z_lo)


def _fresnel_ei_array(z):
    """E(z) on a 1-D float array; no validation."""
    z = np.asarray(z, dtype=float)
    small = np.abs(z) <= SERIES_CUTOFF
    # integer indices gather and scatter several times faster than masks
    near, far = np.flatnonzero(small), np.flatnonzero(~small)
    out = np.empty(z.shape, dtype=complex)
    out[near] = _near_origin(z[near])
    out[far] = _auxiliary(z[far])
    return out


def fresnel_ei(z):
    """Complex Fresnel integral E(z) = ∫₀ᶻ exp(iπη²/2) dη.

    Parameters
    ----------
    z : float
        Real upper limit of the integral.

    Returns
    -------
    complex
        C(z) + i S(z).  Each component lies in [-1, 1] for all real z, and
        E(-z) = -E(z) holds exactly.

    Raises
    ------
    DomainError
        If ``z`` is not a finite real number.
    """
    z = _checked_real("fresnel_ei argument", z)
    return complex(_fresnel_ei_array(np.asarray([z]))[0])


def fresnel_ei_grid(zs):
    """Elementwise :func:`fresnel_ei` over a sequence of real arguments.

    Parameters
    ----------
    zs : 1-D array_like of int or float
        Arguments; order is preserved in the output.

    Returns
    -------
    numpy.ndarray of complex

    Raises
    ------
    DomainError
        If ``zs`` is not 1-D, real and finite; the message names the first bad index.
    """
    return _fresnel_ei_array(_checked_array("fresnel_ei_grid arguments", zs))
