"""Property tests of the likelihood maximum over random truths and sizes.

Examples are derandomized, so every run draws the same cases.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from abflux.inference import _LikelihoodContext, discriminate, fit_mle, log_likelihood
from abflux.pattern import FluxState, disk_point
from abflux.sampling import SampleConfig, sample_hits
from abflux.slits import DEFAULT_WINDOW

RTOL = 1e-9


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    theta=st.floats(0.0, np.pi),
    phi=st.floats(0.0, 2.0 * np.pi),
    n=st.integers(50, 3000),
    seed=st.integers(0, 2**32 - 1),
)
def test_maximum_dominates_surface_and_truth(jonsson, theta, phi, n, seed):
    hits = sample_hits(jonsson, FluxState(theta, phi),
                       SampleConfig(n_hits=n, seed=seed, window=DEFAULT_WINDOW))
    surface = fit_mle(hits, theta_points=31, phi_points=31)
    slack = RTOL * abs(surface.loglik_max)
    assert surface.loglik_max >= np.max(surface.loglik) - slack
    assert surface.loglik_max >= log_likelihood(hits, theta=theta, phi=phi) - slack

    result = discriminate(hits)
    assert result.llr >= 0.0
    ctx = _LikelihoodContext(hits.positions, jonsson, DEFAULT_WINDOW)
    alphas = np.linspace(-np.pi, np.pi, 4096, endpoint=False)
    circle = ctx.loglik(*disk_point(np.where(alphas >= 0.0, 0.0, np.pi), np.abs(alphas)))
    assert result.loglik_definite >= np.max(circle) - slack
    assert (result.theta_hat, result.phi_hat, result.loglik_superposition) == (
        surface.theta_hat, surface.phi_hat, surface.loglik_max)
