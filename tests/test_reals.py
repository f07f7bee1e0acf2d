"""Every real input takes a finite real number in its range, and nothing else.

A real input (angles, lengths, a probability, window edges) accepts an
int, a float or a numpy number, as that Python float.  It refuses bools,
strings, None, nan and infinities, and values out of its range, each with
a DomainError.
"""

import math

import numpy as np
import pytest

from abflux.cli import _merge
from abflux.errors import DomainError
from abflux.inference import canonical_angles, log_likelihood
from abflux.io import read_hits_csv, write_hits_csv
from abflux.pattern import (
    FluxState,
    PhysicalFlux,
    ScreenGrid,
    basis_density,
    mixture_density,
)
from abflux.sampling import SampleConfig, sample_hits
from abflux.slits import ApertureGeometry, GeometryConstants, de_broglie_wavelength

_GEOMETRY = ApertureGeometry.jonsson()
_HITS = sample_hits(_GEOMETRY, FluxState(1.0, 1.0), SampleConfig(n_hits=20, seed=3))
_LAYOUT = dict(source_to_slit=10.0, slit_to_screen=1.0, slit_half_width=0.25,
               slit_half_separation=2.0, wavelength=5e-12)
_CONSTANTS = dict(amplitude_scale=1.0, fresnel_scale=1.0, normalization=1.0)


def _geometry_field(name):
    return lambda v: getattr(ApertureGeometry(**{**_LAYOUT, name: v}), name)


def _constants_field(name):
    return lambda v: getattr(GeometryConstants(**{**_CONSTANTS, name: v}), name)


# input -> (call returning what the real produced, values out of its range)
_REALS = {
    **{f"ApertureGeometry.{name}": (_geometry_field(name), (0.0, -1.0)) for name in _LAYOUT},
    **{f"GeometryConstants.{name}": (_constants_field(name), (0.0,)) for name in _CONSTANTS},
    "de_broglie_wavelength.mass": (lambda v: de_broglie_wavelength(v, 1.0), (0.0, -2.0)),
    "de_broglie_wavelength.speed": (lambda v: de_broglie_wavelength(1.0, v), (0.0, -2.0)),
    "SampleConfig.window.x_min": (lambda v: SampleConfig(window=(v, 2.0)).window[0], (2.0,)),
    "SampleConfig.window.x_max": (lambda v: SampleConfig(window=(-1.0, v)).window[1],
                                  (-1.0,)),
    "ScreenGrid.uniform.x_min": (
        lambda v: ScreenGrid.uniform(v, 2.0, 3).positions.tolist()[0], (3.0,)),
    "FluxState.theta": (lambda v: FluxState(v, 1.0).theta, (-0.1, 3.2)),
    "FluxState.phi": (lambda v: FluxState(1.0, v).phi, (-1.0,)),
    "FluxState.omega": (lambda v: FluxState(1.0, 1.0, v).omega, (-0.5, 2.0 * np.pi)),
    "PhysicalFlux.flux": (lambda v: PhysicalFlux(v, 1.0).flux, ()),
    "PhysicalFlux.charge": (lambda v: PhysicalFlux(1.0, v).charge, (0.0,)),
    "basis_density.phi": (lambda v: basis_density(_GEOMETRY, v, "up", 1e-6), (-1.0,)),
    "mixture_density.phi": (lambda v: mixture_density(_GEOMETRY, v, 0.3, 1e-6), (-1.0,)),
    "mixture_density.p_up": (lambda v: mixture_density(_GEOMETRY, 1.0, v, 1e-6),
                             (-0.1, 1.5)),
    "canonical_angles.theta": (lambda v: canonical_angles(v, 1.0)[0], (-1.0, 4.0)),
    "canonical_angles.phi": (lambda v: canonical_angles(1.0, v)[1], ()),
    "log_likelihood.theta": (lambda v: log_likelihood(_HITS, theta=v, phi=1.0), ()),
    "log_likelihood.phi": (lambda v: log_likelihood(_HITS, theta=1.0, phi=v), ()),
    "cli.config_real_key": (lambda v: _merge(None, {"theta": v})["theta"], (10**400,)),
}


@pytest.mark.parametrize("name", sorted(_REALS))
def test_real_is_a_finite_float_in_range(name):
    call, out_of_range = _REALS[name]
    for good in (1, np.float32(0.5)):
        got = call(good)
        assert type(got) is float
        assert got == call(float(good))
    for bad in (True, "0.5", None, math.nan, math.inf, -math.inf, *out_of_range):
        if bad is None and name.startswith("cli."):
            continue   # a config key or flag set to None is not set
        with pytest.raises(DomainError):
            call(bad)


def test_real_messages_name_the_input():
    with pytest.raises(DomainError, match="theta must be a real number, got True"):
        FluxState(True, 1.0)
    with pytest.raises(DomainError, match="wavelength must be a real number, got '5e-12'"):
        ApertureGeometry(**{**_LAYOUT, "wavelength": "5e-12"})
    with pytest.raises(DomainError, match=r"p_up must lie in \[0.0, 1.0\], got 1.5"):
        mixture_density(_GEOMETRY, 1.0, 1.5, 0.0)
    with pytest.raises(DomainError, match="window x_max must be finite, got inf"):
        SampleConfig(window=(0.0, math.inf))
    with pytest.raises(DomainError, match="charge must be nonzero"):
        PhysicalFlux(1.0, 0)
    with pytest.raises(DomainError, match="config key 'phi' must be within float range"):
        _merge(None, {"phi": -10**400})


def test_integer_angles_round_trip_as_floats(tmp_path):
    flux = FluxState(1, 2)
    assert (flux.theta, flux.phi, flux.omega) == (1.0, 2.0, 0.0)
    assert hash(flux) == hash(FluxState(np.float64(1.0), 2.0))
    path = tmp_path / "hits.csv"
    write_hits_csv(path, sample_hits(_GEOMETRY, flux, SampleConfig(n_hits=5)))
    text = path.read_text()
    assert "# theta=1.0\n" in text and "# phi=2.0\n" in text
    assert read_hits_csv(path).flux == FluxState(1.0, 2.0)
