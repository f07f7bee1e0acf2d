"""Every array input takes an array of finite real numbers, and nothing else.

An array input (screen and hit positions, density values, Fresnel
arguments, heatmap values) accepts integer and float arrays, as float64,
and passes a float64 array on uncopied.  It refuses text, bools, complex
numbers, lists holding None, nan and infinities, and arrays with the
wrong number of dimensions, each with a DomainError naming the input.
"""

import math
import os

import numpy as np
import pytest

from abflux import errors, fresnel, io, pattern, sampling, slits
from abflux.errors import DomainError
from abflux.fresnel import fresnel_ei, fresnel_ei_grid
from abflux.inference import discriminate, fit_mle, log_likelihood
from abflux.io import write_panel_csv, write_pgm
from abflux.pattern import (
    DensityGrid,
    FluxState,
    ScreenGrid,
    density,
    pattern_components,
)
from abflux.sampling import HitSet, SampleConfig
from abflux.slits import DEFAULT_WINDOW, ApertureGeometry, slit_amplitude, slit_amplitude_pair

_GEOMETRY = ApertureGeometry.jonsson()
_FLUX = FluxState(1.0, 1.0)
_BARE = dict(geometry=_GEOMETRY, window=DEFAULT_WINDOW)
# integral values, so an int array carries the same numbers
_LINE = np.array([0.0, 1.0, 2.0])
_CENTRE = np.zeros(3)   # hits inside the window
_MATRIX = np.array([[0.0, 1.0], [2.0, 3.0]])


def _hit_set(positions):
    return HitSet(positions=positions, config=SampleConfig(n_hits=3), flux=_FLUX,
                  geometry=_GEOMETRY)


# input -> (the name its messages use, a valid float64 value, call)
_ARRAYS = {
    "density": ("screen positions", _LINE, lambda v: density(_GEOMETRY, _FLUX, v)),
    "pattern_components": ("screen positions", _LINE,
                           lambda v: pattern_components(_GEOMETRY, v)),
    "slit_amplitude_pair": ("screen positions", _LINE,
                            lambda v: slit_amplitude_pair(_GEOMETRY, v)),
    "slit_amplitude": ("screen positions", _LINE,
                       lambda v: slit_amplitude(_GEOMETRY, "plus", v)),
    "HitSet": ("hit positions", _CENTRE, _hit_set),
    "log_likelihood": ("hit positions", _CENTRE,
                       lambda v: log_likelihood(v, theta=1.0, phi=1.0, **_BARE)),
    "fit_mle": ("hit positions", _CENTRE,
                lambda v: fit_mle(v, theta_points=3, phi_points=3, **_BARE)),
    "discriminate": ("hit positions", _CENTRE, lambda v: discriminate(v, **_BARE)),
    "ScreenGrid": ("screen grid positions", _LINE, ScreenGrid),
    "DensityGrid.positions": ("screen grid positions", _LINE,
                              lambda v: DensityGrid(v, _LINE, _GEOMETRY, _FLUX)),
    "DensityGrid.values": ("density values", _LINE,
                           lambda v: DensityGrid(_LINE, v, _GEOMETRY, _FLUX)),
    "fresnel_ei_grid": ("fresnel_ei_grid arguments", _LINE, fresnel_ei_grid),
    "write_pgm": ("heatmap values", _MATRIX, lambda v: write_pgm(os.devnull, v)),
    "write_panel_csv.x": ("panel positions", _LINE, lambda v: write_panel_csv(
        os.devnull, v, "theta", _LINE[:2], _MATRIX[:, [0, 1, 1]], [])),
    "write_panel_csv.param_values": ("panel parameter values", _LINE[:2],
                                     lambda v: write_panel_csv(
                                         os.devnull, _LINE, "theta", v,
                                         _MATRIX[:, [0, 1, 1]], [])),
    "write_panel_csv.matrix": ("panel matrix", _MATRIX, lambda v: write_panel_csv(
        os.devnull, _LINE[:2], "theta", _LINE[:2], v, [])),
}


@pytest.fixture
def checked(monkeypatch):
    """Name -> the array the first check of that name returned."""
    seen = {}

    def spy(name, values, *args):
        array = errors._checked_array(name, values, *args)
        seen.setdefault(name, array)
        return array

    for module in (fresnel, io, pattern, sampling, slits):
        monkeypatch.setattr(module, "_checked_array", spy)
    return seen


def _refused(base):
    with_none = base.astype(object)
    with_none.flat[-1] = None
    yield base.astype(str)
    yield base.astype(bool)
    yield base.astype(complex)
    yield with_none.tolist()
    for value in (math.nan, math.inf, -math.inf):
        bad = base.copy()
        bad.flat[-1] = value
        yield bad


@pytest.mark.parametrize("name", sorted(_ARRAYS))
def test_array_is_finite_reals_as_float64(name, checked):
    label, base, call = _ARRAYS[name]
    for good in (base.astype(np.int64), base.astype(np.float32)):
        checked.clear()
        call(good)
        assert checked[label].dtype == np.float64
        assert np.array_equal(checked[label], base)
    checked.clear()
    call(base)
    assert np.shares_memory(checked[label], base)
    for bad in _refused(base):
        with pytest.raises(DomainError, match=label):
            call(bad)


def test_array_messages_name_the_input():
    with pytest.raises(DomainError, match="screen positions must be real numbers, got <U4"):
        density(_GEOMETRY, _FLUX, "1e-6")
    with pytest.raises(DomainError, match="screen positions must be real numbers, got bool"):
        density(_GEOMETRY, _FLUX, True)
    with pytest.raises(DomainError, match="hit positions must be real numbers, got bool"):
        _hit_set(np.array([False, False, False]))
    with pytest.raises(DomainError, match="hit positions must be real numbers, got <U4"):
        log_likelihood(["0.0", "1e-6"], theta=1.0, phi=1.0, **_BARE)
    with pytest.raises(DomainError, match="screen grid positions must be real numbers"):
        ScreenGrid(["0", "1e-6"])
    with pytest.raises(DomainError, match="fresnel_ei_grid arguments must be 1-D, got shape"):
        fresnel_ei_grid(1.5)
    with pytest.raises(DomainError, match=r"heatmap values must be 2-D, got shape \(2,\)"):
        write_pgm(os.devnull, [1.0, 2.0])
    with pytest.raises(DomainError, match="heatmap values must be finite, got -inf at index 3"):
        write_pgm(os.devnull, [[0.0, 1.0], [2.0, -math.inf]])
    with pytest.raises(DomainError, match="panel positions must be real numbers, got <U5"):
        write_panel_csv(os.devnull, ["0", True], "phi", [math.nan], [["1e-6", math.inf]], [])
    with pytest.raises(DomainError, match="panel parameter values must be finite, got nan"):
        write_panel_csv(os.devnull, [0.0, 1.0], "phi", [math.nan], [["1e-6", math.inf]], [])
    with pytest.raises(DomainError, match="panel matrix must be real numbers, got <U32"):
        write_panel_csv(os.devnull, [0.0, 1.0], "phi", [0.5], [["1e-6", math.inf]], [])


def test_fresnel_ei_takes_a_finite_real():
    assert fresnel_ei(1) == fresnel_ei(1.0)
    assert fresnel_ei(np.float32(0.5)) == fresnel_ei(0.5)
    for bad in ("1.5", True, 1.5j, None, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="fresnel_ei argument must be"):
            fresnel_ei(bad)


def test_hit_positions_check_the_window_after_finiteness():
    window = (-1.0, 1.0)
    assert np.array_equal(sampling._checked_hits([-1, 0, 1], window), [-1.0, 0.0, 1.0])
    with pytest.raises(DomainError, match=r"hit positions must lie inside the window \(-1.0, 1.0\)"):
        sampling._checked_hits([0.0, 1.5], window)
    with pytest.raises(DomainError, match="hit positions must be finite, got inf at index 1"):
        sampling._checked_hits([0.0, math.inf], (1.0, -1.0))
    with pytest.raises(DomainError, match="window must satisfy x_min < x_max"):
        sampling._checked_hits([], (1.0, -1.0))
