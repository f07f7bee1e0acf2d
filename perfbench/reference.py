"""An independent model of abflux's outputs, used only by the checks.

Nothing here calls abflux.  Slit amplitudes are built from
``scipy.special.fresnel`` with the formula in the README of the package
(the slits module docstring), and a density is the mixture of the two
definite-flux patterns |psi+ + e^{+-i phi} psi-|^2 with weights
cos^2(theta/2) and sin^2(theta/2).  Likelihoods normalize by the trapezoid
rule on the same 8192-point window grid the program documents.  The CSV
and PGM readers parse the documented file formats directly.
"""

import numpy as np
from scipy.special import fresnel
from scipy.stats import chi2

# The documented defaults the workloads run with (Jonsson layout).
SOURCE_TO_SLIT = 10.0
SLIT_TO_SCREEN = 1.0
WAVELENGTH = 5.0e-12
SLIT_HALF_WIDTH = 0.25e-6
SLIT_HALF_SEPARATION = 1.0e-6
WINDOW = (-2.0e-5, 2.0e-5)
GRID_POINTS = 8192

PROVENANCE = {
    "source_to_slit_m": SOURCE_TO_SLIT,
    "slit_to_screen_m": SLIT_TO_SCREEN,
    "wavelength_m": WAVELENGTH,
    "slit_half_width_m": SLIT_HALF_WIDTH,
    "slit_half_separation_m": SLIT_HALF_SEPARATION,
    "window_min_m": WINDOW[0],
    "window_max_m": WINDOW[1],
}


def fresnel_e(z):
    """E(z) = C(z) + i S(z)."""
    s, c = fresnel(z)
    return c + 1j * s


def slit_edge_args(x):
    """Fresnel arguments beta (x0 +- b -+ r x) of the outer and inner edge of
    the plus slit, then of the minus slit, at screen positions x."""
    x = np.asarray(x, dtype=float)
    beta = np.sqrt((2.0 / WAVELENGTH) * (1.0 / SOURCE_TO_SLIT + 1.0 / SLIT_TO_SCREEN))
    rx = SOURCE_TO_SLIT / (SOURCE_TO_SLIT + SLIT_TO_SCREEN) * x
    outer = SLIT_HALF_SEPARATION + SLIT_HALF_WIDTH
    inner = SLIT_HALF_SEPARATION - SLIT_HALF_WIDTH
    return (beta * (outer - rx), beta * (inner - rx),
            beta * (outer + rx), beta * (inner + rx))


def amplitudes(x):
    """(psi_plus, psi_minus) at screen positions x."""
    x = np.asarray(x, dtype=float)
    lam, path = WAVELENGTH, SOURCE_TO_SLIT + SLIT_TO_SCREEN
    scale = np.sqrt(1.0 / (2.0 * lam * path))
    norm = 4.0 * SLIT_HALF_WIDTH / (lam * SOURCE_TO_SLIT)
    pre = -1j * scale / np.sqrt(norm) * np.exp(1j * np.pi * x * x / (lam * path))
    plus_outer, plus_inner, minus_outer, minus_inner = map(fresnel_e, slit_edge_args(x))
    return pre * (plus_outer - plus_inner), pre * (minus_outer - minus_inner)


def mixture(plus, minus, theta, phi):
    """Superposed-flux density; theta and phi broadcast against x."""
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    up = np.abs(plus + np.exp(1j * phi) * minus) ** 2
    down = np.abs(plus + np.exp(-1j * phi) * minus) ** 2
    w_up = np.cos(theta / 2.0) ** 2
    return w_up * up + (1.0 - w_up) * down


def density(x, theta, phi):
    plus, minus = amplitudes(x)
    return mixture(plus, minus, theta, phi)


class Likelihood:
    """Unbinned log-likelihood of a fixed hit set, in nats."""

    def __init__(self, hits):
        self.n = len(hits)
        self.plus, self.minus = amplitudes(hits)
        self.grid = np.linspace(*WINDOW, GRID_POINTS)
        self.grid_plus, self.grid_minus = amplitudes(self.grid)

    def __call__(self, theta, phi):
        values = mixture(self.plus, self.minus, theta, phi)
        norm = np.trapezoid(mixture(self.grid_plus, self.grid_minus, theta, phi), self.grid)
        return float(np.sum(np.log(values)) - self.n * np.log(norm))


def _cdf(theta, phi, points=1 << 16):
    """Window-normalized CDF on a grid eight times finer than the sampler's."""
    grid = np.linspace(*WINDOW, points + 1)
    values = density(grid, theta, phi)
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (values[1:] + values[:-1]) * np.diff(grid))])
    return grid, cdf / cdf[-1]


def ks_statistic(hits, theta, phi):
    """Kolmogorov-Smirnov distance between the hits and the density."""
    grid, cdf = _cdf(theta, phi)
    x = np.sort(np.asarray(hits, dtype=float))
    model = np.interp(x, grid, cdf)
    n = x.size
    above = np.arange(1, n + 1) / n - model
    below = model - np.arange(0, n) / n
    return float(max(above.max(), below.max()))


def ks_critical(n, alpha):
    """Asymptotic one-sample KS critical value sqrt(-ln(alpha/2)/2)/sqrt(n)."""
    return float(np.sqrt(-np.log(alpha / 2.0) / 2.0) / np.sqrt(n))


def chi_square(hits, theta, phi, bins):
    """Pearson statistic of the hit counts in equal-width window bins."""
    grid, cdf = _cdf(theta, phi)
    edges = np.linspace(*WINDOW, bins + 1)
    expected = np.diff(np.interp(edges, grid, cdf)) * len(hits)
    counts = np.histogram(hits, edges)[0]
    return float(np.sum((counts - expected) ** 2 / expected))


def chi_square_critical(bins, alpha):
    return float(chi2.isf(alpha, bins - 1))


def read_table(path):
    """(comments dict, header list, float matrix) of an abflux CSV."""
    comments = {}
    skip = 1
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                header = line.strip().split(",")
                break
            key, _, value = line[1:].strip().partition("=")
            comments[key] = value
            skip += 1
        else:
            raise ValueError(f"{path}: no header line")
    data = np.loadtxt(path, delimiter=",", skiprows=skip, ndmin=2)
    if data.size and data.shape[1] != len(header):
        raise ValueError(f"{path}: {data.shape[1]} columns under a {len(header)}-name header")
    return comments, header, data


def read_pgm(path):
    """Pixel rows of a binary 8-bit graymap (P5, maxval 255)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    magic, size, maxval, raster = blob.split(b"\n", 3)
    width, height = (int(v) for v in size.split())
    if magic != b"P5" or int(maxval) != 255 or len(raster) != width * height:
        raise ValueError(f"{path}: not a {width}x{height} P5 graymap with maxval 255")
    return np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
