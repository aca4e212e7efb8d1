"""Two-stage reconstruction: greedy start + local error correction.

The paper's conclusion poses the open question "whether a two-step
algorithm that locally tries to correct errors can be analyzed
rigorously and performs even better". This module implements that
algorithm as an experimental extension:

1. **Stage 1** — the greedy maximum-neighborhood decoder produces an
   initial estimate (exactly Algorithm 1).
2. **Stage 2** — iterative local correction: every agent re-scores
   itself against the *residuals* of its queries,

       r_j = y_j - (A x)_j,        g_i = x_i + eta * (A^T r)_i,

   and the k agents with the largest corrected scores form the next
   estimate (a hard-thresholded projection). ``y`` is the
   channel-corrected query vector (``(sigma_hat - q Gamma)/(1-p-q)``
   for the noisy channel, as for AMP).

Each correction round is distributed-friendly: one query-to-agent
round trip (queries broadcast residuals, agents update) plus one
top-k selection — the same communication pattern as Algorithm 1's
single round. The iteration is the classic iterative hard thresholding
(IHT) with a warm start, so each round can only exploit information
already present in the queries; empirically it closes most of the gap
to AMP at a fraction of AMP's rounds (see
``benchmarks/bench_twostage.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.core.measurement import Measurements
from repro.core.noise import Channel, GaussianQueryNoise, NoiselessChannel, NoisyChannel
from repro.core.scores import scores_from_measurements, top_k_estimate
from repro.core.types import ReconstructionResult, evaluate_estimate
from repro.utils.validation import check_positive, check_positive_int


def channel_corrected_results(
    results: np.ndarray, gamma: int, channel: Channel
) -> np.ndarray:
    """Unbias query results so that ``E[y | A, sigma] = A sigma``.

    For the noisy channel, ``E[sigma_hat_j] = q Gamma + (1-p-q) E1_j``,
    hence ``y = (sigma_hat - q Gamma) / (1 - p - q)``. Noiseless and
    Gaussian channels are already unbiased.
    """
    results = np.asarray(results, dtype=np.float64)
    if isinstance(channel, NoisyChannel):
        return (results - channel.q * gamma) / (1.0 - channel.p - channel.q)
    if isinstance(channel, (NoiselessChannel, GaussianQueryNoise)):
        return results.copy()
    raise TypeError(f"unsupported channel type: {type(channel).__name__}")


@dataclass(frozen=True)
class TwoStageConfig:
    """Stage 2 iteration parameters.

    Attributes
    ----------
    max_rounds:
        Correction rounds after the greedy start.
    step_size:
        Gradient step ``eta``; ``None`` selects ``n / (m * Gamma)``
        (the inverse of the expected squared column norm of ``A``),
        the natural normalization for this design.
    stop_when_stable:
        Stop early once the estimate's support stops changing.
    """

    max_rounds: int = 15
    step_size: Optional[float] = None
    stop_when_stable: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.max_rounds, "max_rounds")
        if self.step_size is not None:
            check_positive(self.step_size, "step_size")


def two_stage_reconstruct(
    measurements: Measurements,
    *,
    config: Optional[TwoStageConfig] = None,
    centering: str = "half_k",
) -> ReconstructionResult:
    """Run greedy + local correction; decode by top-k.

    Parameters
    ----------
    measurements:
        Output of :func:`repro.core.measurement.measure`.
    config:
        Stage 2 parameters (default: 15 rounds, auto step size).
    centering:
        Stage 1 score centering (see :mod:`repro.core.scores`).
    """
    config = config if config is not None else TwoStageConfig()
    graph = measurements.graph
    n, m, k = graph.n, graph.m, measurements.k
    if m == 0:
        raise ValueError("two-stage reconstruction requires at least one query")

    # Stage 1: Algorithm 1.
    stage1_scores = scores_from_measurements(measurements, mode=centering)
    estimate = top_k_estimate(stage1_scores, k)

    # A and A^T are applied by the compiled CSR/CSC products scipy's
    # ``@`` runs on a CSR matrix over these arrays: the same sums. One
    # index dtype, so the products convert no array on each call.
    from repro.core import sparsetools

    indptr = graph.indptr
    agents = graph.agents.astype(indptr.dtype, copy=False)
    weights = graph.counts.astype(np.float64)
    y = channel_corrected_results(
        measurements.results, graph.gamma, measurements.channel
    )
    eta = (
        config.step_size
        if config.step_size is not None
        else n / (m * graph.gamma)
    )

    x = estimate.astype(np.float64)
    scores = x.copy()
    rounds_used = 0
    support_changes: List[int] = []
    for _ in range(config.max_rounds):
        rounds_used += 1
        ax = np.zeros(m)
        sparsetools.csr_matvec(m, n, indptr, agents, weights, x, ax)
        residual = y - ax
        correction = np.zeros(n)
        sparsetools.csc_matvec(
            n, m, indptr, agents, weights, residual, correction
        )
        scores = x + eta * correction
        new_estimate = top_k_estimate(scores, k)
        changed = int(np.count_nonzero(new_estimate != estimate))
        support_changes.append(changed)
        estimate = new_estimate
        x = estimate.astype(np.float64)
        if config.stop_when_stable and changed == 0:
            break

    truth = measurements.truth.sigma
    quality = evaluate_estimate(estimate, truth, scores)
    return ReconstructionResult(
        estimate=estimate,
        scores=np.asarray(scores, dtype=np.float64),
        exact=quality["exact"],
        overlap=quality["overlap"],
        separated=quality["separated"],
        hamming_errors=quality["hamming_errors"],
        meta={
            "algorithm": "two-stage",
            "n": n,
            "m": m,
            "k": k,
            "channel": measurements.channel.describe(),
            "rounds": rounds_used,
            "support_changes": support_changes,
            "step_size": eta,
            "stage1_exact": bool(
                np.count_nonzero(top_k_estimate(stage1_scores, k) != truth) == 0
            ),
        },
    )


__all__ = [
    "TwoStageConfig",
    "two_stage_reconstruct",
    "channel_corrected_results",
]
