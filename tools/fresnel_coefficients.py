"""Generate the four polynomial coefficient tuples of ``abflux.fresnel``.

A development script, not part of the package: it needs mpmath, which
abflux does not depend on.

    python tools/fresnel_coefficients.py           # print the tuples
    python tools/fresnel_coefficients.py --check   # compare with abflux.fresnel

Each fitted function is sampled at 40 significant digits on ``NODES``
Chebyshev points of the first kind in its variable x in [-1, 1].  Its
Chebyshev coefficients are truncated after the degree given in
``FITS``.  The first omitted coefficient, times the largest factor
that multiplies the fit in E(z), must be below ``OMITTED_MAX``.  The
truncated series is then converted to the monomial basis through
the integer coefficients of T_k, still at 40 digits, and each monomial
coefficient is rounded once to float64.  ``--check`` exits non-zero
unless every committed coefficient equals its regenerated value bit
for bit.

The fits, with cut = ``abflux.fresnel.SERIES_CUTOFF`` = 2.5:

* P and Q in w = 2 z^4 / cut^4 - 1, for 0 <= z <= cut:
  P(w) = C(z) / z and Q(w) = S(z) / z^3.
* F and G in v = 2 cut^2 / z^2 - 1, for cut <= z < infinity:
  F(v) = pi z f(z) and G(v) = pi^2 z^3 g(z), with the auxiliary
  functions f and g of E(z) = (1+i)/2 - (g + i f) exp(i pi z^2 / 2).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import mpmath as mp

CUTOFF = 2.5
NODES = 64
DIGITS = 40
# Working digits for the samples: g is a difference of terms ~1/z that
# is ~1/z^3, and the outermost node lies near z = 200.
SAMPLE_DIGITS = 60
OMITTED_MAX = 2e-17


def _p(w):
    z = CUTOFF * mp.root((w + 1) / 2, 4)
    return mp.fresnelc(z) / z


def _q(w):
    z = CUTOFF * mp.root((w + 1) / 2, 4)
    return mp.fresnels(z) / z**3


def _auxiliary(v):
    """(f, g, z) at the z of v = 2 cut^2 / z^2 - 1."""
    z = CUTOFF / mp.sqrt((v + 1) / 2)
    a, b = mp.fresnelc(z) - 0.5, mp.fresnels(z) - 0.5
    phase = mp.pi * z**2 / 2
    cos, sin = mp.cos(phase), mp.sin(phase)
    return a * sin - b * cos, -a * cos - b * sin, z


def _f(v):
    f, _, z = _auxiliary(v)
    return mp.pi * z * f


def _g(v):
    _, g, z = _auxiliary(v)
    return mp.pi**2 * z**3 * g


# committed name -> (function of x in [-1, 1], degree, largest factor
# that multiplies the fit in E: z, z^3, 1/(pi z), 1/(pi^2 z^3) at z = cut)
FITS = {
    "_P_COEFFS": (_p, 17, CUTOFF),
    "_Q_COEFFS": (_q, 17, CUTOFF**3),
    "_F_COEFFS": (_f, 18, 1 / (mp.pi * CUTOFF)),
    "_G_COEFFS": (_g, 16, 1 / (mp.pi**2 * CUTOFF**3)),
}


def chebyshev_coefficients(func):
    """c_0 .. c_{NODES-1} of func = c_0/2 + sum_k c_k T_k on [-1, 1]."""
    angles = [mp.pi * (j + mp.mpf(1) / 2) / NODES for j in range(NODES)]
    with mp.workdps(SAMPLE_DIGITS):
        samples = [func(mp.cos(a)) for a in angles]
    return [2 * mp.fsum(y * mp.cos(k * a) for y, a in zip(samples, angles)) / NODES
            for k in range(NODES)]


def chebyshev_to_monomial(cheb):
    """Monomial coefficients, lowest degree first, of c_0/2 + sum_k c_k T_k."""
    terms = [[1], [0, 1]]   # integer coefficients of T_0, T_1, ...
    while len(terms) < len(cheb):
        prev, last = terms[-2], terms[-1]
        terms.append([2 * a - b for a, b in
                      zip([0] + last, prev + [0] * (len(last) + 1 - len(prev)))])
    out = [mp.mpf(0)] * len(cheb)
    for k, c in enumerate(cheb):
        weight = c / 2 if k == 0 else c
        for j, t in enumerate(terms[k]):
            out[j] += weight * t
    return out


def generate():
    """Committed name -> tuple of float64 coefficients, lowest degree first."""
    tuples = {}
    with mp.workdps(DIGITS):
        for name, (func, degree, scale) in FITS.items():
            cheb = chebyshev_coefficients(func)
            omitted = abs(cheb[degree + 1]) * scale
            if not omitted < OMITTED_MAX:
                raise AssertionError(f"{name}: first omitted Chebyshev term, {mp.nstr(omitted, 3)} "
                                     f"in E, is not below {OMITTED_MAX}")
            tuples[name] = tuple(float(c) for c in chebyshev_to_monomial(cheb[:degree + 1]))
    return tuples


def render(tuples):
    lines = [
        "# Generated by tools/fresnel_coefficients.py (mpmath " + mp.__version__ + "):",
        f"# Chebyshev interpolation at {NODES} nodes and {DIGITS} digits, truncated",
        f"# where the first omitted term is below {OMITTED_MAX:g} in E, converted to",
        "# monomials at the same precision and rounded once to float64.",
        "# Lowest degree first.",
    ]
    for name, coeffs in tuples.items():
        lines.append(f"{name} = (")
        lines.extend(f"    {c!r}," for c in coeffs)
        lines.append(")")
    return "\n".join(lines)


def check(tuples):
    """Names whose committed coefficients differ in any bit from ``tuples``."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from abflux import fresnel

    if fresnel.SERIES_CUTOFF != CUTOFF:
        return ["SERIES_CUTOFF"]
    return [name for name, coeffs in tuples.items()
            if [c.hex() for c in getattr(fresnel, name)] != [c.hex() for c in coeffs]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the tuples committed in abflux.fresnel")
    args = parser.parse_args(argv)
    tuples = generate()
    if not args.check:
        print(render(tuples))
        return 0
    stale = check(tuples)
    for name in stale:
        print(f"abflux.fresnel.{name} differs from the generator", file=sys.stderr)
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
