"""Denoiser families ``eta_t`` for approximate message passing.

AMP applies a scalar function coordinate-wise to the effective
observation ``r = A^T z + sigma_hat`` which, in the large-system limit,
behaves like ``sigma + tau * Z`` with ``Z ~ N(0,1)`` (the key AMP
decoupling property). A denoiser therefore maps a noisy scalar
observation to an estimate of the signal coordinate and must expose its
derivative for the Onsager correction term.

Two denoisers are provided:

* :class:`BayesBernoulliDenoiser` — the posterior mean under the pooled
  data prior ``sigma_i ~ Bernoulli(pi)`` with ``pi = k/n``. This is the
  minimum-MSE choice for the problem and the default for the Figure 6
  comparison.
* :class:`SoftThresholdDenoiser` — the classical compressed-sensing
  soft threshold of Donoho-Maleki-Montanari, used by ablation A4.

Every method computes in float64, whatever the input dtype.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.validation import check_fraction, check_positive

#: numerical floor for the effective noise level tau
TAU_FLOOR = 1e-8

#: exponent clip to keep exp() finite in float64
_EXP_CLIP = 500.0


def _floor_tau(tau) -> np.ndarray:
    """Clamp the effective noise level at :data:`TAU_FLOOR`.

    ``tau`` may be a scalar (one trial) or an array broadcastable
    against ``x`` — the stacked AMP kernel passes a per-trial ``(T, 1)``
    column so every row of a trial stack sees exactly its own noise
    level. Both forms produce bit-identical per-element arithmetic.
    """
    return np.maximum(np.asarray(tau, dtype=np.float64), TAU_FLOOR)


class Denoiser(ABC):
    """A scalar denoiser ``eta(x; tau)`` applied coordinate-wise.

    ``tau`` is the effective noise level: a scalar for a single trial,
    or any array broadcastable against ``x`` (the batched AMP kernel
    uses a per-trial ``(T, 1)`` column on ``(T, n)`` stacks).
    """

    @abstractmethod
    def __call__(self, x: np.ndarray, tau) -> np.ndarray:
        """Estimate the signal from ``x ~ sigma + tau Z``."""

    @abstractmethod
    def derivative(self, x: np.ndarray, tau) -> np.ndarray:
        """``d eta / dx`` evaluated coordinate-wise (Onsager term)."""

    def value_and_derivative(self, x: np.ndarray, tau):
        """``(eta(x), d eta / dx)`` in one evaluation.

        The AMP kernel needs both on the same ``(x, tau)`` every
        iteration; denoisers whose derivative reuses the value (the
        Bayes posterior mean) override this to share the expensive
        part. The default evaluates the two methods separately. Both
        results are bit-identical to the individual calls — overriding
        only removes redundant recomputation, never changes arithmetic.
        """
        return self(x, tau), self.derivative(x, tau)

    @abstractmethod
    def describe(self) -> str:
        """Short human-readable description."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.describe()})"


class BayesBernoulliDenoiser(Denoiser):
    """Posterior-mean denoiser for a ``Bernoulli(pi)`` prior.

    With prior ``P(sigma=1) = pi`` and Gaussian observation
    ``x = sigma + tau Z``,

        eta(x) = P(sigma=1 | x)
               = 1 / (1 + ((1-pi)/pi) * exp((1 - 2x) / (2 tau^2)))

    and, because ``sigma`` is 0/1-valued, the derivative is the scaled
    posterior variance ``eta (1 - eta) / tau^2``.
    """

    def __init__(self, pi: float):
        self.pi = check_fraction(pi, "pi")
        self._log_odds_prior = float(np.log((1.0 - self.pi) / self.pi))

    def __call__(self, x: np.ndarray, tau) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        tau = _floor_tau(tau)
        exponent = self._log_odds_prior + (1.0 - 2.0 * x) / (2.0 * tau * tau)
        exponent = np.clip(exponent, -_EXP_CLIP, _EXP_CLIP)
        return 1.0 / (1.0 + np.exp(exponent))

    def derivative(self, x: np.ndarray, tau) -> np.ndarray:
        tau = _floor_tau(tau)
        eta = self(x, tau)
        return eta * (1.0 - eta) / (tau * tau)

    def value_and_derivative(self, x: np.ndarray, tau):
        """Share the posterior mean between value and derivative.

        ``derivative`` is ``eta (1 - eta) / tau^2`` — recomputing
        ``eta`` (an exp over the whole stack) for it doubled the
        denoiser cost of every AMP iteration. One evaluation feeds
        both; the returned arrays are bit-identical to the separate
        calls (same inputs, same operations).

        The passes after the exponent run in place on its fresh
        temporary: ``np.maximum``/``np.minimum`` give ``np.clip``'s
        values (NaN included) without its wrapper, and flooring
        ``tau`` once equals flooring it twice.
        """
        x = np.asarray(x, dtype=np.float64)
        tau = _floor_tau(tau)
        exponent = self._log_odds_prior + (1.0 - 2.0 * x) / (2.0 * tau * tau)
        if not isinstance(exponent, np.ndarray):
            exponent = np.asarray(exponent)  # 0-d: give the passes an array
        np.maximum(exponent, -_EXP_CLIP, out=exponent)
        np.minimum(exponent, _EXP_CLIP, out=exponent)
        np.exp(exponent, out=exponent)
        exponent += 1.0
        eta = np.divide(1.0, exponent, out=exponent)
        deriv = 1.0 - eta
        deriv *= eta
        deriv /= tau * tau
        return eta, deriv

    def posterior_variance(self, x: np.ndarray, tau) -> np.ndarray:
        """``Var(sigma | x) = eta (1 - eta)`` for the 0/1 prior."""
        eta = self(x, tau)
        return eta * (1.0 - eta)

    def describe(self) -> str:
        return f"bayes-bernoulli(pi={self.pi:g})"


class SoftThresholdDenoiser(Denoiser):
    """Soft thresholding ``eta(x) = sign(x) max(|x| - alpha tau, 0)``.

    ``alpha`` tunes the threshold in units of the effective noise level;
    the classical sparsity-agnostic choice is around 1-3.
    """

    def __init__(self, alpha: float = 1.5):
        self.alpha = float(check_positive(alpha, "alpha"))

    def __call__(self, x: np.ndarray, tau) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        tau = _floor_tau(tau)
        threshold = self.alpha * tau
        return np.sign(x) * np.maximum(np.abs(x) - threshold, 0.0)

    def derivative(self, x: np.ndarray, tau) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        tau = _floor_tau(tau)
        return (np.abs(x) > self.alpha * tau).astype(np.float64)

    def describe(self) -> str:
        return f"soft-threshold(alpha={self.alpha:g})"


__all__ = [
    "Denoiser",
    "BayesBernoulliDenoiser",
    "SoftThresholdDenoiser",
    "TAU_FLOOR",
]
