"""Every count input takes an integral number in its range, and nothing else.

A count (hits, grid and surface sizes, checkpoints, seeds, variate
indices) accepts an int, a numpy integer or an integral float such as
1e4, as that int.  It refuses non-integral values, bools and non-numbers,
and values out of its range, each with a DomainError.
"""

import numpy as np
import pytest

from abflux.cli import RunConfig, _merge, _param_values
from abflux.errors import DomainError
from abflux.inference import (
    Checkpoint,
    SequentialTrace,
    _LikelihoodContext,
    discriminate,
    fit_mle,
    log_likelihood,
    segment_slopes,
    sequential_trace,
)
from abflux.pattern import FluxState, ScreenGrid
from abflux.sampling import SampleConfig, normalized_pdf_cdf, sample_hits, uniform_variates
from abflux.slits import DEFAULT_WINDOW, ApertureGeometry

_GEOMETRY = ApertureGeometry.jonsson()
_HITS = sample_hits(_GEOMETRY, FluxState(1.0, 1.0), SampleConfig(n_hits=20, seed=3))
_CONTEXT = _LikelihoodContext(_HITS.positions, _GEOMETRY, DEFAULT_WINDOW)
_TRACE = SequentialTrace(tuple(Checkpoint(n, 0.0, 0.0, 0.5 * n + (n > 40) * n)
                                for n in range(10, 90, 10)))

# input -> (call returning what the count produced, a value out of its range;
# None where the input has no range)
_COUNTS = {
    "SampleConfig.grid_points": (lambda v: SampleConfig(grid_points=v).grid_points, 1),
    "SampleConfig.n_hits": (lambda v: SampleConfig(n_hits=v).n_hits, -1),
    "SampleConfig.seed": (lambda v: SampleConfig(seed=v).seed, 2**64),
    "uniform_variates.seed": (lambda v: uniform_variates(v, 0, 3).tolist(), -1),
    "uniform_variates.start": (lambda v: uniform_variates(1, v, 6).tolist(), -1),
    "uniform_variates.stop": (lambda v: uniform_variates(1, 3, v).tolist(), 2),
    "normalized_pdf_cdf.grid_points": (
        lambda v: normalized_pdf_cdf(_GEOMETRY, FluxState(1.0, 1.0), DEFAULT_WINDOW,
                                     v).positions.tolist(), 1),
    "log_likelihood.grid_points": (
        lambda v: log_likelihood(_HITS, theta=1.0, phi=1.0, grid_points=v), 1),
    "discriminate.grid_points": (lambda v: discriminate(_HITS, grid_points=v), 1),
    "fit_mle.theta_points": (
        lambda v: fit_mle(_HITS, theta_points=v, phi_points=3).loglik.shape, 1),
    "fit_mle.phi_points": (
        lambda v: fit_mle(_HITS, theta_points=3, phi_points=v).loglik.shape, 1),
    "segment_slopes.split_index": (lambda v: segment_slopes(_TRACE, v), 7),
    "_LikelihoodContext.prefix": (lambda v: _CONTEXT.prefix(v).hit_a.tolist(), 21),
    "sequential_trace.checkpoint": (
        lambda v: sequential_trace(_HITS, checkpoint_schedule=(v, 20)), 0),
    "ScreenGrid.uniform": (
        lambda v: ScreenGrid.uniform(-1e-5, 1e-5, v).positions.tolist(), 0),
    "cli.param_points": (
        lambda v: _param_values(RunConfig({"param_points": v}, frozenset()), 1.0).tolist(),
        0),
    "cli.config_integer_key": (lambda v: _merge(None, {"seed": v})["seed"], None),
}


@pytest.mark.parametrize("name", sorted(_COUNTS))
def test_count_is_integral_and_in_range(name):
    call, out_of_range = _COUNTS[name]
    want = call(4)
    assert call(4.0) == want
    assert call(np.int64(4)) == want
    for bad in (2.5, True, "4", out_of_range):
        if bad is not None:
            with pytest.raises(DomainError):
                call(bad)


def test_count_messages_name_the_input():
    with pytest.raises(DomainError, match="n_hits must be an integer, got 2.5"):
        SampleConfig(n_hits=2.5)
    with pytest.raises(DomainError, match="seed must be an integer, got True"):
        SampleConfig(seed=True)
    with pytest.raises(DomainError, match="seed must be at least 0, got -1"):
        uniform_variates(-1, 0, 3)
    with pytest.raises(DomainError, match="seed must be below 18446744073709551616"):
        SampleConfig(seed=2**64)
    with pytest.raises(DomainError, match="config key 'n_hits' must be an integer"):
        _merge(None, {"n_hits": "7"})
