"""Complex Fresnel integral E(z) = ∫₀ᶻ exp(iπη²/2) dη for real z.

The real and imaginary parts are the classical Fresnel cosine and sine
integrals C(z) and S(z).  Every element costs the same: there is no
convergence test and no Lentz iteration.  Two branches are used:

* |z| <= ``SERIES_CUTOFF``: the Maclaurin series, split into real power
  series in t = z^4, C = z P(t) and S = z^3 Q(t), each summed by Horner's
  rule at a fixed term count;
* above it: the even-contracted continued fraction for the related
  complementary error function of complex argument (Abramowitz & Stegun
  §7.3), evaluated bottom-up at a fixed depth.

Truncation in both stays far below this module's 1e-12 absolute budget;
near the cutoff the series' rounding error, ~5e-13, dominates.  Negative
arguments are mapped to positive ones and the result negated, so E is odd
exactly, and each value depends only on its own argument.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError

# |z| at or below which the power series is used; the continued fraction
# takes over above.  Chosen so the two branches agree to ~5e-13 in a band
# around the cutoff (exercised in the test suite).
SERIES_CUTOFF = 2.5

# Terms of each of P and Q.  The first omitted term of the series,
# (pi/2)^n z^(2n+1) / (n! (2n+1)) at n = 60, is 7e-19 at z = 2.8, the top
# of the overlap band the tests evaluate the series on.
_SERIES_TERMS = 30

# Depth of the continued fraction.  From z = 2.0 on it is within 2.5e-16,
# a rounding difference, of the fraction taken to depth 200.
_CF_DEPTH = 26

# Beyond this |z|, E(z) rounds to sign(z) (1+i)/2: the remainder is below
# 1/(pi |z|) < 4e-18, under half an ulp of 0.5.  Clamping to it also keeps
# pi z^2 finite.
_SATURATION = 1e17

# Coefficient of z^(2n+1) in the series for E is (i pi/2)^n / (n! (2n+1));
# even n feed C, odd n feed S, and i^n alternates the sign in each.
_COEFFS = [
    (-1) ** (n // 2) * (math.pi / 2) ** n / (math.factorial(n) * (2 * n + 1))
    for n in range(2 * _SERIES_TERMS)
]
_P_COEFFS = _COEFFS[0::2]
_Q_COEFFS = _COEFFS[1::2]


def _horner(coeffs, t):
    """sum_k coeffs[k] t^k by Horner's rule."""
    acc = np.full_like(t, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= t
        acc += c
    return acc


def _series(z):
    """Maclaurin series sum_n (i*pi/2)^n z^(2n+1) / (n! (2n+1)), z >= 0."""
    z = np.asarray(z, dtype=float)
    z2 = z * z
    t = z2 * z2
    return z * _horner(_P_COEFFS, t) + 1j * (z2 * z * _horner(_Q_COEFFS, t))


def _continued_fraction(z):
    """Continued-fraction branch for z > 0, reliable for z above ~2.

    Uses E(z) = (1+i)/2 * [1 - e^{i pi z^2/2} (1-i) z H(z)] where H is the
    even-contracted continued fraction for the scaled complementary error
    function at argument sqrt(pi)(1-i)z/2:

        H = 1/(b0 + a1/(b1 + a2/(b2 + ...))),
        b_k = (1 - i*pi*z^2) + 4k,   a_k = -2k(2k-1),

    truncated after b_k at k = ``_CF_DEPTH`` and evaluated bottom-up.
    """
    z = np.asarray(z, dtype=float)
    pizz = np.pi * z * z
    b = 1.0 - 1j * pizz
    f = b + 4.0 * _CF_DEPTH
    for k in range(_CF_DEPTH, 0, -1):
        f = (b + 4.0 * (k - 1)) + (-2.0 * k * (2.0 * k - 1.0)) / f
    h = (1.0 - 1j) * z / f
    phase = np.exp(0.5j * pizz)
    return (0.5 + 0.5j) * (1.0 - phase * h)


def _fresnel_ei_array(z):
    """Vectorized E(z) on a float array; no validation."""
    z = np.asarray(z, dtype=float)
    az = np.minimum(np.abs(z), _SATURATION)
    out = np.empty(z.shape, dtype=complex)
    small = az <= SERIES_CUTOFF
    out[small] = _series(az[small])
    out[~small] = _continued_fraction(az[~small])
    np.negative(out, where=z < 0, out=out)
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
        If ``z`` is not finite.
    """
    z = float(z)
    if not np.isfinite(z):
        raise DomainError(f"fresnel_ei requires a finite argument, got {z!r}")
    return complex(_fresnel_ei_array(np.asarray([z]))[0])


def fresnel_ei_grid(zs):
    """Elementwise :func:`fresnel_ei` over a sequence of real arguments.

    Parameters
    ----------
    zs : array_like of float
        Arguments; order is preserved in the output.

    Returns
    -------
    numpy.ndarray of complex

    Raises
    ------
    DomainError
        If any entry is not finite; the message names the first bad index.
    """
    zs = np.asarray(zs, dtype=float)
    bad = ~np.isfinite(zs)
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise DomainError(f"fresnel_ei_grid: non-finite argument at index {idx}")
    return _fresnel_ei_array(zs)
