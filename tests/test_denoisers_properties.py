"""Property tests for the AMP denoisers.

Parametrized (and hypothesis-driven) invariants of
:mod:`repro.amp.denoisers`: the Bayes posterior mean is a probability,
derivatives match central finite differences away from kinks,
``value_and_derivative`` is bit-identical to the separate calls, every
input computes in float64, and the Bayes posterior mean equals its
closed form written out by hand, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.amp.denoisers import (
    TAU_FLOOR,
    BayesBernoulliDenoiser,
    SoftThresholdDenoiser,
)

DENOISERS = [
    pytest.param(BayesBernoulliDenoiser(0.01), id="bayes-pi-0.01"),
    pytest.param(BayesBernoulliDenoiser(0.3), id="bayes-pi-0.3"),
    pytest.param(SoftThresholdDenoiser(1.5), id="soft-alpha-1.5"),
    pytest.param(SoftThresholdDenoiser(0.4), id="soft-alpha-0.4"),
]

TAUS = [0.05, 0.3, 1.0]


def _grid(dtype=np.float64):
    return np.linspace(-3.0, 4.0, 113).astype(dtype)


# -- range / shape invariants -------------------------------------------


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("pi", [0.005, 0.05, 0.5, 0.9])
def test_bayes_mean_is_probability(pi, tau):
    eta = BayesBernoulliDenoiser(pi)(_grid(), tau)
    assert np.all(eta >= 0.0) and np.all(eta <= 1.0)
    assert np.all(np.isfinite(eta))


@given(
    x=st.floats(-1e6, 1e6),
    tau=st.floats(0.0, 1e3),
    pi=st.floats(1e-6, 1.0 - 1e-6),
)
@settings(deadline=None, max_examples=200)
def test_bayes_mean_is_probability_hypothesis(x, tau, pi):
    # Any scalar observation, any noise level (the floor handles
    # tau = 0), any prior: the posterior mean stays a finite
    # probability — the exponent clip prevents overflow at extremes.
    eta = float(BayesBernoulliDenoiser(pi)(np.array([x]), tau)[0])
    assert 0.0 <= eta <= 1.0


@given(x=st.floats(-1e6, 1e6), tau=st.floats(0.0, 1e3))
@settings(deadline=None, max_examples=200)
def test_soft_threshold_shrinks_toward_zero(x, tau):
    value = float(SoftThresholdDenoiser(1.5)(np.array([x]), tau)[0])
    assert abs(value) <= abs(x)
    assert value == 0.0 or np.sign(value) == np.sign(x)


@pytest.mark.parametrize("tau", TAUS)
def test_bayes_mean_monotone_in_x(tau):
    eta = BayesBernoulliDenoiser(0.05)(_grid(), tau)
    assert np.all(np.diff(eta) >= 0.0)


# -- derivatives vs central finite differences ---------------------------


@pytest.mark.parametrize("tau", TAUS)
@pytest.mark.parametrize("denoiser", DENOISERS)
def test_derivative_matches_finite_differences(denoiser, tau):
    x = _grid()
    h = 1e-6
    if isinstance(denoiser, SoftThresholdDenoiser):
        # The soft threshold is non-differentiable at |x| = alpha tau;
        # keep every probe point clear of the kink by more than h.
        x = x[np.abs(np.abs(x) - denoiser.alpha * tau) > 10 * h]
    fd = (denoiser(x + h, tau) - denoiser(x - h, tau)) / (2 * h)
    np.testing.assert_allclose(
        denoiser.derivative(x, tau), fd, rtol=1e-4, atol=1e-6
    )


@pytest.mark.parametrize("denoiser", DENOISERS)
def test_value_and_derivative_bit_identical(denoiser):
    x = _grid()
    tau = np.full((1, 1), 0.3)
    value, deriv = denoiser.value_and_derivative(x[None, :], tau)
    np.testing.assert_array_equal(value, denoiser(x[None, :], tau))
    np.testing.assert_array_equal(deriv, denoiser.derivative(x[None, :], tau))


@pytest.mark.parametrize("denoiser", DENOISERS)
def test_tau_floor_keeps_derivative_finite(denoiser):
    value, deriv = denoiser.value_and_derivative(_grid(), 0.0)
    assert np.all(np.isfinite(value))
    assert np.all(np.isfinite(deriv))
    # tau = 0 computes exactly as tau = TAU_FLOOR.
    np.testing.assert_array_equal(value, denoiser(_grid(), TAU_FLOOR))


# -- one numeric ---------------------------------------------------------


@pytest.mark.parametrize("denoiser", DENOISERS)
def test_float64_in_float64_out(denoiser):
    value, deriv = denoiser.value_and_derivative(_grid(), 0.3)
    assert value.dtype == np.float64
    assert deriv.dtype == np.float64
    # Any other input dtype computes in float64 too: a float32 grid
    # gives exactly the float64 run on its upcast values.
    x32 = _grid(np.float32)
    value32, deriv32 = denoiser.value_and_derivative(x32, np.float32(0.3))
    ref_value, ref_deriv = denoiser.value_and_derivative(
        x32.astype(np.float64), np.float64(np.float32(0.3))
    )
    assert value32.tobytes() == ref_value.tobytes()
    assert deriv32.tobytes() == ref_deriv.tobytes()


# -- closed form ---------------------------------------------------------


def test_bayes_posterior_mean_matches_hand_formula():
    # The vectorized posterior mean equals the closed form
    # 1 / (1 + ((1-pi)/pi) exp((1-2x) / (2 tau^2))), evaluated by hand
    # with the prior log-odds folded into the clipped exponent.
    pi = 0.02
    denoiser = BayesBernoulliDenoiser(pi)
    log_odds = float(np.log((1 - pi) / pi))
    x, tau = _grid(), 0.3
    exponent = np.clip(
        log_odds + (1.0 - 2.0 * x) / (2.0 * tau * tau), -500.0, 500.0
    )
    np.testing.assert_array_equal(
        denoiser(x, tau), 1.0 / (1.0 + np.exp(exponent))
    )
