"""Approximate message passing baseline (paper, Section III).

AMP is the sequential algorithm the paper compares against in Figure 6;
it is conjectured optimal for dense-inference problems of this type.
This package provides:

* :func:`run_amp` — the Onsager-corrected AMP iteration on standardized
  pooled measurements;
* :func:`run_amp_batch` / :func:`run_amp_trials` — the block-diagonal
  batched runner for sweep-scale AMP (decode-identical to per-trial
  ``run_amp`` on the same spawned seeds);
* :func:`required_queries_amp` — the per-trial "smallest m on the
  check grid where AMP decodes exactly" scan: prefix replay of a
  once-sampled query stream and one ascending scan whose rounds decode
  stacked probes, returning exactly the m of a brute-force ascending
  scan;
* denoisers (:class:`BayesBernoulliDenoiser`,
  :class:`SoftThresholdDenoiser`);
* the compute kernel (:mod:`repro.amp.kernels`) — the float64 array
  passes every AMP entry point runs on;
* :func:`state_evolution` — the scalar recursion predicting AMP's MSE
  trajectory.
"""

from repro.amp.amp import (
    AMPConfig,
    channel_corrected_results,
    default_denoiser,
    iterate_amp,
    run_amp,
    standardization_constants,
    standardize_system,
)
from repro.amp.batch_amp import (
    required_queries_amp,
    run_amp_batch,
    run_amp_trials,
)
from repro.amp.distributed_amp import (
    CommunicationCost,
    amp_communication_cost,
    greedy_communication_cost,
    run_distributed_amp,
)
from repro.amp.denoisers import (
    BayesBernoulliDenoiser,
    Denoiser,
    SoftThresholdDenoiser,
)
from repro.amp.kernels import AMPKernel, StackLayout
from repro.amp.state_evolution import (
    StateEvolutionResult,
    denoiser_mse,
    predicted_success,
    state_evolution,
)

__all__ = [
    "AMPConfig",
    "run_amp",
    "run_amp_batch",
    "run_amp_trials",
    "required_queries_amp",
    "standardize_system",
    "standardization_constants",
    "channel_corrected_results",
    "default_denoiser",
    "iterate_amp",
    "Denoiser",
    "BayesBernoulliDenoiser",
    "SoftThresholdDenoiser",
    "AMPKernel",
    "StackLayout",
    "denoiser_mse",
    "state_evolution",
    "StateEvolutionResult",
    "predicted_success",
    "CommunicationCost",
    "greedy_communication_cost",
    "amp_communication_cost",
    "run_distributed_amp",
]
