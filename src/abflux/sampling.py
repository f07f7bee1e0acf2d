"""Seeded generation of simulated electron arrival positions.

Hits are drawn from the window-normalized screen density by inverse-CDF
transform of counter-based uniform variates: variate i is a pure function
of (seed, i) via a splitmix64 mix, so any hit is reproducible in isolation
and generation order or chunking cannot change the output.

The density is tabulated on a dense uniform grid (8192 points by default);
the CDF is the cumulative trapezoid of that table, taken piecewise-linear
between nodes.  Likelihood code normalizes over the same grid so sampling
and inference share one domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateDistributionError, DomainError, _checked_array,
                     _checked_count, _checked_window)
from .pattern import FluxState, density
from .slits import DEFAULT_WINDOW, ApertureGeometry

DEFAULT_GRID_POINTS = 8192

_SPLITMIX_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SPLITMIX_MULT1 = np.uint64(0xBF58476D1CE4E5B9)
_SPLITMIX_MULT2 = np.uint64(0x94D049BB133111EB)
_TWO_POW_53 = float(1 << 53)


@dataclass(frozen=True)
class SampleConfig:
    """Window, tabulation resolution, hit count, and seed for a run."""

    window: tuple = DEFAULT_WINDOW
    grid_points: int = DEFAULT_GRID_POINTS
    n_hits: int = 0
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "window", _checked_window(self.window))
        for name, low, high in (("grid_points", 2, None), ("n_hits", 0, None),
                                ("seed", 0, 2**64)):
            value = _checked_count(name, getattr(self, name), low, high)
            object.__setattr__(self, name, value)


def _checked_hits(positions, window):
    """Hit positions as a 1-D float array inside the window, ends included."""
    return _checked_array("hit positions", positions, (1,), window)


@dataclass(frozen=True)
class HitSet:
    """Ordered simulated arrival positions plus everything that produced
    them (geometry, flux state, sampling configuration)."""

    positions: np.ndarray
    config: SampleConfig
    flux: FluxState
    geometry: ApertureGeometry

    def __post_init__(self):
        positions = _checked_hits(self.positions, self.config.window)
        if positions.size != self.config.n_hits:
            raise DomainError(
                f"hit count {positions.size} does not match config.n_hits {self.config.n_hits}"
            )
        object.__setattr__(self, "positions", positions)

    def __len__(self):
        return self.positions.size


@dataclass(frozen=True)
class GriddedDistribution:
    """Window-normalized density table: pdf at grid nodes and the
    piecewise-linear CDF through the cumulative-trapezoid node values."""

    positions: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray

    def pdf_at(self, x):
        return np.interp(x, self.positions, self.pdf)

    def cdf_at(self, x):
        return np.interp(x, self.positions, self.cdf, left=0.0, right=1.0)

    def ppf(self, u):
        """Inverse CDF (piecewise-linear interpolation between nodes)."""
        return np.interp(u, self.cdf, self.positions)


def _distribution_from_values(positions, values):
    """Build a GriddedDistribution from raw density samples on a grid."""
    values = np.asarray(values, dtype=float)
    if not np.all(np.isfinite(values)):
        raise DegenerateDistributionError("density values must be finite")
    values = np.maximum(values, 0.0)   # rounding residue at fringe minima
    total = np.trapezoid(values, positions)
    if not (np.isfinite(total) and total > 0.0):
        raise DegenerateDistributionError(
            "density integrates to zero on the window; no distribution exists"
        )
    pdf = values / total
    steps = np.diff(positions)
    node_mass = np.concatenate([[0.0], np.cumsum(0.5 * (pdf[1:] + pdf[:-1]) * steps)])
    cdf = node_mass / node_mass[-1]
    return GriddedDistribution(positions=positions, pdf=pdf, cdf=cdf)


def normalized_pdf_cdf(geometry, flux, window, grid_points=DEFAULT_GRID_POINTS):
    """Window-normalized pdf and piecewise-linear cdf of the screen density.

    Raises :class:`DegenerateDistributionError` if the density integrates
    to zero over the window.
    """
    positions = _window_grid(window, grid_points)
    return _distribution_from_values(positions, density(geometry, flux, positions))


def _window_grid(window, grid_points):
    """``grid_points`` (at least 2) evenly spaced positions spanning the
    window, both ends included exactly."""
    x_min, x_max = _checked_window(window)
    return np.linspace(x_min, x_max, _checked_count("grid_points", grid_points, 2))


def uniform_variates(seed, start, stop):
    """Counter-based uniforms in [0, 1) for hit indices [start, stop).

    Variate i depends only on (seed, i) — splitmix64 of seed + (i+1)*gamma
    — so any index range can be generated independently and identically.
    """
    seed = _checked_count("seed", seed, 0, 2**64)
    start = _checked_count("start", start, 0)
    stop = _checked_count("stop", stop, start)
    idx = np.arange(start, stop, dtype=np.uint64)
    z = np.uint64(seed) + (idx + np.uint64(1)) * _SPLITMIX_GAMMA
    z = (z ^ (z >> np.uint64(30))) * _SPLITMIX_MULT1
    z = (z ^ (z >> np.uint64(27))) * _SPLITMIX_MULT2
    z = z ^ (z >> np.uint64(31))
    return (z >> np.uint64(11)).astype(np.float64) / _TWO_POW_53


def sample_hits(geometry, flux, config: SampleConfig, workers=None) -> HitSet:
    """Draw config.n_hits arrival positions from the window-normalized
    density by inverse-CDF transform of the counter-based variates.

    ``workers`` is accepted for compatibility and has no effect.  Identical
    (geometry, flux, config) always give a bit-identical HitSet.
    """
    dist = normalized_pdf_cdf(geometry, flux, config.window, config.grid_points)
    positions = dist.ppf(uniform_variates(config.seed, 0, config.n_hits))
    return HitSet(positions=positions, config=config, flux=flux, geometry=geometry)
