"""Independent reference implementations used only by the tests.

Everything here deliberately avoids the package's own code paths: the
complex Fresnel integral comes from adaptive quadrature, from scipy's
tabulated Fresnel functions or from its Taylor series in decimal
arithmetic, and densities are composed directly from
complex slit amplitudes (absolute squares of sums), never through the
package's component factorization.
"""

from decimal import Decimal

import numpy as np
from scipy.integrate import quad
from scipy.special import fresnel as scipy_fresnel


def fresnel_quad(z):
    """E(z) = integral of exp(i pi t^2 / 2) from 0 to z, by quadrature.

    The subdivision limit is generous: the integrand oscillates ~z^2/4
    times over the range, so wide arguments need many panels.
    """
    re, _ = quad(lambda t: np.cos(0.5 * np.pi * t * t), 0.0, z, limit=4000)
    im, _ = quad(lambda t: np.sin(0.5 * np.pi * t * t), 0.0, z, limit=4000)
    return complex(re, im)


def fresnel_scipy(z):
    """Same integral from scipy's real Fresnel pair (S first, C second)."""
    s, c = scipy_fresnel(z)
    return c + 1j * s


PI_DECIMAL = Decimal(
    "3.14159265358979323846264338327950288419716939937510"
    "58209749445923078164062862089986280348253421170679"
)


def fresnel_decimal(z, tol=Decimal("1e-60")):
    """(C(z), S(z)) for a Decimal z >= 0, from the Taylor series
    E(z) = sum_n (i pi z^2 / 2)^n z / (n! (2n + 1)) in the current decimal
    context.

    Terms grow to about exp(pi z^2 / 2) before they fall, so the context
    needs that many digits more than ``tol`` asks for.
    """
    x = PI_DECIMAL * z * z / 2
    parts = [Decimal(0), Decimal(0)]
    term, n = z, 0   # (i x)^n z / n!, without the power of i
    while n <= x or abs(term) >= tol:
        parts[n % 2] += (-1) ** (n // 2 % 2) * term / (2 * n + 1)
        n += 1
        term = term * x / n
    return parts[0], parts[1]


def cis_decimal(phi, tol=Decimal("1e-60")):
    """(cos phi, sin phi) for a Decimal phi, from the Taylor series of
    exp(i phi) after reduction into [0, 2 pi)."""
    phi = phi % (2 * PI_DECIMAL)
    parts = [Decimal(0), Decimal(0)]
    term, n = Decimal(1), 0
    while n <= phi or abs(term) >= tol:
        parts[n % 2] += (-1) ** (n // 2 % 2) * term
        n += 1
        term = term * phi / n
    return parts[0], parts[1]


def slit_amplitudes(geometry, x):
    """(psi_plus, psi_minus) at screen positions x, composed directly."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    lam = geometry.wavelength
    l_src = geometry.source_to_slit
    l_scr = geometry.slit_to_screen
    half_width = geometry.slit_half_width
    half_sep = geometry.slit_half_separation
    amp = np.sqrt(1.0 / (2.0 * lam * (l_src + l_scr)))
    beta = np.sqrt((2.0 / lam) * (1.0 / l_src + 1.0 / l_scr))
    norm = 4.0 * half_width / (lam * l_src)
    # screen positions project back to the slit plane scaled by the
    # source-side fraction of the total flight path
    ratio = l_src / (l_src + l_scr)
    phase = np.exp(1j * np.pi * x * x / (lam * (l_src + l_scr)))
    pre = -1j * amp / np.sqrt(norm) * phase

    def one(sign):
        upper = np.array([fresnel_scipy(beta * (half_sep + half_width - sign * ratio * xi))
                          for xi in x])
        lower = np.array([fresnel_scipy(beta * (half_sep - half_width - sign * ratio * xi))
                          for xi in x])
        return pre * (upper - lower)

    return one(+1.0), one(-1.0)


def density_direct(geometry, theta, phi, x):
    """Screen density as the explicit two-branch mixture of shifted patterns.

    With the flux pointing up the slit amplitudes interfere as
    |psi_plus + e^{i phi} psi_minus|^2; pointing down flips the sign of
    phi; a superposed flux mixes the two with weights cos^2(theta/2) and
    sin^2(theta/2).
    """
    plus, minus = slit_amplitudes(geometry, x)
    up = np.abs(plus + np.exp(1j * phi) * minus) ** 2
    down = np.abs(plus + np.exp(-1j * phi) * minus) ** 2
    w_up = np.cos(theta / 2.0) ** 2
    return w_up * up + (1.0 - w_up) * down


def normalized_density_direct(geometry, theta, phi, x_eval, window, grid_points):
    """Window-normalized density at x_eval, trapezoid normalization."""
    grid = np.linspace(window[0], window[1], grid_points)
    total = np.trapezoid(density_direct(geometry, theta, phi, grid), grid)
    return density_direct(geometry, theta, phi, x_eval) / total
