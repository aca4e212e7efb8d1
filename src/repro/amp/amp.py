"""Approximate message passing for the pooled data problem (Section III).

The paper's update rules (Donoho-Maleki-Montanari form):

    sigma^{t+1} = eta_t(A^T z^t + sigma^t)
    z^t         = sigma_hat - A sigma^t
                  + (n/m) * (1/n) * sum_i eta'_{t-1}(A^T z^{t-1} + sigma^{t-1}) * z^{t-1}

where the last summand is the Onsager correction. These rules implicitly
assume a sensing matrix with zero-mean, ``O(1/sqrt(m))`` entries. The
raw pooling matrix has ``A_ij ~ Bin(Gamma, 1/n)`` entries (mean
``Gamma/n = 1/2``), so — as is standard for pooled data (cf. Alaoui et
al.) — we *standardize* the system before iterating:

1. channel correction (``p``/``q`` known, as the paper assumes):
   under the noisy channel ``E[sigma_hat_j | A, sigma] =
   q Gamma + (1-p-q) (A sigma)_j``, so
   ``y_raw = (sigma_hat - q Gamma) / (1 - p - q)``;
2. centering with the known ``k``:
   ``y_c = y_raw - Gamma k / n`` matches ``A_c = A - Gamma/n``;
3. scaling by ``s = sqrt(m * Gamma/n * (1 - 1/n))`` so the columns of
   ``A_s = A_c / s`` have (approximately) unit norm.

After standardization the effective model is ``y = A_s sigma + w`` and
the textbook AMP iteration applies, with the effective noise level
``tau_t`` estimated as ``||z^t|| / sqrt(m)``.

The final estimate is the top-``k`` of the last iterate (the number of
1-agents is known, exactly as for the greedy decoder).

Single-source kernel
--------------------
Standardization (:func:`channel_corrected_results`,
:func:`standardization_constants`) and the iteration itself
(:func:`iterate_amp`) are shared helpers: :func:`run_amp` runs the
kernel on a one-trial stack, and the batched
runner (:mod:`repro.amp.batch_amp`) runs it on a ``T``-trial
block-diagonal stack. There is one stack form: a flat concatenation
of the per-trial measurement vectors segmented by ``row_sizes``,
whether every trial shares one ``m`` (a sweep cell) or not (the
required-queries prefix probes, the decode service). Every kernel
operation is row-independent — pairwise sums over each trial's
contiguous segment or row, elementwise broadcasts against per-trial
``(T, 1)`` scalars, and sequential per-row CSR matvecs — so a trial's
iterate sequence is bit-identical no matter which stack (of any size
or composition) it runs in.

The per-iteration array passes live in :mod:`repro.amp.kernels`:
:func:`iterate_amp` is one driver (a
:class:`~repro.amp.kernels.StackLayout` describes the segments)
that alternates the kernel's two phases, ``adjoint_posterior`` and
``forward_residual``, each of which applies its own matvec through
the stack operator. The kernel performs exactly the float64
operations this module's pre-seam loops performed — bit-identical by
construction (see the kernels module docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.amp.denoisers import BayesBernoulliDenoiser, Denoiser
from repro.amp.kernels import (
    AMP_KERNEL,
    CSRArrays,
    CSRStackOperator,
    StackLayout,
)
from repro.core.measurement import Measurements
from repro.core.noise import Channel, GaussianQueryNoise, NoiselessChannel, NoisyChannel
from repro.core.scores import top_k_estimate
from repro.core.types import ReconstructionResult, evaluate_estimate
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class AMPConfig:
    """Tuning knobs for the AMP iteration.

    Attributes
    ----------
    max_iter:
        Iteration budget (the paper notes AMP needs "many rounds").
    tol:
        Early-stopping threshold on ``||sigma^{t+1} - sigma^t||_2 /
        sqrt(n)``.
    damping:
        Convex damping factor in ``[0, 1)`` applied to the state updates
        (0 disables damping; small damping stabilizes finite-size runs).
    track_history:
        Record per-iteration MSE proxies in the result metadata.
    """

    max_iter: int = 50
    tol: float = 1e-7
    damping: float = 0.0
    track_history: bool = True

    def __post_init__(self) -> None:
        check_positive_int(self.max_iter, "max_iter")
        if not 0.0 <= self.damping < 1.0:
            raise ValueError(f"damping must lie in [0, 1), got {self.damping}")
        # ``not >=`` also rejects NaN, which would never converge.
        if not self.tol >= 0:
            raise ValueError(f"tol must be >= 0, got {self.tol}")


# -- standardization (single source for standalone / batched) ----------


def standardization_constants(n: int, m: int, gamma: int) -> Tuple[float, float]:
    """Centering constant ``c = Gamma/n`` and column scale ``s``.

    The standardized system is ``A_s = (A - c) / s`` with
    ``s = sqrt(m * c * (1 - 1/n))`` (approximately unit column norms).
    """
    c = gamma / n
    scale = float(np.sqrt(m * c * (1.0 - 1.0 / n)))
    return c, scale


def channel_corrected_results(
    results: np.ndarray, gamma: int, channel: Channel
) -> np.ndarray:
    """Invert the channel's affine bias on raw query results.

    Elementwise, so it applies equally to one trial's ``(m,)`` result
    vector and to a flat stack of per-trial results.
    Returns a fresh float64 array; raises ``TypeError`` for channel
    types AMP does not support.
    """
    results = np.asarray(results, dtype=np.float64)
    if isinstance(channel, NoisyChannel):
        return (results - channel.q * gamma) / (1.0 - channel.p - channel.q)
    if isinstance(channel, (NoiselessChannel, GaussianQueryNoise)):
        return results.copy()
    raise TypeError(f"unsupported channel type: {type(channel).__name__}")


def standardize_system(
    adjacency: np.ndarray,
    results: np.ndarray,
    k: int,
    gamma: int,
    channel: Channel,
) -> "tuple[np.ndarray, np.ndarray]":
    """Channel-correct, center and scale ``(A, sigma_hat)`` for AMP.

    Returns the standardized pair ``(A_s, y)`` described in the module
    docstring. Raises ``TypeError`` for unsupported channel types.
    """
    adjacency = np.asarray(adjacency, dtype=np.float64)
    results = np.asarray(results, dtype=np.float64)
    m, n = adjacency.shape
    if results.shape != (m,):
        raise ValueError(f"results must have shape ({m},), got {results.shape}")
    y_raw = channel_corrected_results(results, gamma, channel)
    c, scale = standardization_constants(n, m, gamma)
    a_s = (adjacency - c) / scale
    y = (y_raw - c * k) / scale
    return a_s, y


def default_denoiser(n: int, k: int) -> Denoiser:
    """The Bayes-optimal denoiser under the problem prior ``pi = k/n``."""
    pi = min(max(k / n, 1e-12), 1 - 1e-12)
    return BayesBernoulliDenoiser(pi)


# -- iteration kernel ---------------------------------------------------


def iterate_amp(
    operator,
    y: np.ndarray,
    denoiser: Denoiser,
    config: AMPConfig,
    *,
    n: int,
    row_sizes: np.ndarray,
    restrict: Optional[Callable[[np.ndarray], object]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[List[List[dict]]]]:
    """Run the AMP iteration on a stack of ``T`` standardized systems.

    Parameters
    ----------
    operator:
        The standardized stack operator — normally a
        :class:`~repro.amp.kernels.CSRStackOperator` (raw block-
        diagonal CSR plus centering/scales), whose products the kernel
        phases apply. Any object with flat-vector ``matvec`` /
        ``rmatvec`` methods works.
        ``matvec`` maps a ``(T*n,)`` stack of signal vectors to a
        ``(sum(row_sizes),)`` stack of measurement vectors,
        ``rmatvec`` the reverse. For ``T = 1`` these are the ordinary
        per-trial maps.
    y:
        Standardized measurements: the flat ``(sum(row_sizes),)``
        concatenation of the per-trial measurement vectors.
    denoiser:
        Scalar denoiser; evaluated with a per-trial ``(T, 1)`` noise
        level so each row sees exactly its own ``tau``.
    n:
        Signal dimension per trial.
    row_sizes:
        Per-trial measurement counts, segmenting ``y``, the matvec
        outputs and the residuals. Trials may differ (the required-m
        prefix probes run each trial on a different query-count
        prefix of its stream) or share one ``m``.
    restrict:
        Optional stack compaction hook. When at most half the remaining
        trials are still active the kernel drops converged rows and
        calls ``restrict(live)`` — ``live`` being the original indices
        of the surviving trials — to obtain the operator for the
        smaller stack. Compaction never changes any trial's iterates
        (every operation is row-independent); it only stops paying
        matvec time for trials that already froze.

    Returns
    -------
    (sigma, iterations, converged, histories):
        ``sigma`` is the ``(T, n)`` stack of final iterates (each
        trial's value frozen at its own stopping iteration),
        ``iterations``/``converged`` the per-trial counters and flags,
        and ``histories`` one per-iteration record list per trial (or
        ``None`` when ``config.track_history`` is off).

    Per-trial convergence uses the same rule as a standalone run: a
    trial whose step norm drops below ``config.tol`` freezes — its row
    stops being written — while the remaining trials keep iterating.

    The stack performs only row-independent operations (see the
    module docstring), so a trial's iterate sequence is bit-identical
    to a standalone one-trial run on the same standardized system no
    matter which stack, of any size or mix of ``m``, it runs in.
    The loop itself is one driver: a
    :class:`~repro.amp.kernels.StackLayout` carries the per-trial
    standardization scalars and segment bounds, and the kernel's two
    matvec-inclusive phase methods (``adjoint_posterior`` /
    ``forward_residual``) do the entire iteration body.
    """
    y = np.ascontiguousarray(y, dtype=np.float64)
    layout = StackLayout(n, row_sizes)
    total = layout.rows
    if y.shape != (int(layout.m_cur.sum()),):
        raise ValueError(
            f"flat y must have shape ({int(layout.m_cur.sum())},), "
            f"got {y.shape}"
        )

    live = np.arange(total)  # original trial ids of the current rows
    active = np.ones(total, dtype=bool)  # per current row
    frozen = False  # whether some current row has stopped iterating
    sigma = np.zeros((total, n), dtype=np.float64)
    z = y.copy()
    out_sigma = np.zeros((total, n), dtype=np.float64)
    iterations = np.zeros(total, dtype=np.int64)
    converged = np.zeros(total, dtype=bool)
    histories: Optional[List[List[dict]]] = (
        [[] for _ in range(total)] if config.track_history else None
    )
    if total == 0:
        return out_sigma, iterations, converged, histories

    for t in range(config.max_iter):
        # Damping is skipped on the very first iteration (there is no
        # previous state worth mixing in) — the kernel receives the
        # effective factor so the phase methods stay stateless.
        damping = config.damping if t > 0 else 0.0

        sigma_new, onsager, tau, step = AMP_KERNEL.adjoint_posterior(
            operator, denoiser, sigma, z, layout, damping
        )
        z_new = AMP_KERNEL.forward_residual(
            operator, y, sigma_new, z, onsager, layout, damping
        )

        # Frozen rows must stay bit-frozen: their (discarded) updates
        # above were computed from stale state purely so the stacked
        # operators could run unmasked. Until a row freezes there is
        # nothing to restore.
        if frozen:
            inactive = ~active
            sigma_new[inactive] = sigma[inactive]
            layout.restore_rows(z_new, z, inactive)

        if histories is not None:
            z_norms = AMP_KERNEL.residual_norms(z_new, layout)
            for i in np.flatnonzero(active):
                histories[live[i]].append(
                    {
                        "iteration": t,
                        "tau": float(tau[i]),
                        "step": float(step[i]),
                        "residual_norm": float(z_norms[i]),
                    }
                )

        sigma = sigma_new
        z = z_new
        newly = step < config.tol
        if frozen:
            newly &= active
        if newly.any():
            # A row's count is the iteration it froze at; rows still
            # active take theirs after the loop.
            iterations[live[newly]] = t + 1
            converged[live[newly]] = True
            out_sigma[live[newly]] = sigma[newly]
            active &= ~newly
            frozen = True
            if not active.any():
                break
            if restrict is not None and 2 * int(np.count_nonzero(active)) <= live.size:
                live = live[active]
                sigma = np.ascontiguousarray(sigma[active])
                z = layout.compact_measure(z, active)
                y = layout.compact_measure(y, active)
                layout = layout.restrict(active)
                active = np.ones(live.size, dtype=bool)
                frozen = False
                operator = restrict(live)

    if active.any():  # trials still iterating when the loop ended
        iterations[live[active]] = t + 1
        out_sigma[live[active]] = sigma[active]
    return out_sigma, iterations, converged, histories


def run_amp(
    measurements: Measurements,
    *,
    denoiser: Optional[Denoiser] = None,
    config: Optional[AMPConfig] = None,
) -> ReconstructionResult:
    """Run AMP on a set of pooled measurements and decode by top-k.

    Parameters
    ----------
    measurements:
        Output of :func:`repro.core.measurement.measure`; the pooling
        graph, channel and ground truth travel along for evaluation.
    denoiser:
        Scalar denoiser; defaults to the Bayes-optimal
        :class:`BayesBernoulliDenoiser` with prior ``k/n``.
    config:
        Iteration parameters.

    Returns
    -------
    ReconstructionResult
        With ``meta`` recording iterations, convergence flag and the
        per-iteration history.

    This is the one-trial case of the stacked kernel. Batched callers
    stack many trials into one block-diagonal system and reproduce
    this function's decode (estimate, exact, overlap, iterations) bit
    for bit: :func:`repro.amp.batch_amp.run_amp_batch` and
    :func:`~repro.amp.batch_amp.run_amp_trials` for measurement sets,
    :func:`~repro.amp.batch_amp.run_amp_prepared` for sweep chunks, and
    :func:`~repro.amp.batch_amp.decode_prefix_batch` for stream
    prefixes (required-m scans, the decode service).
    """
    config = config if config is not None else AMPConfig()
    graph = measurements.graph
    n, m, k = graph.n, graph.m, measurements.k
    if m == 0:
        raise ValueError("AMP requires at least one query")
    if denoiser is None:
        denoiser = default_denoiser(n, k)

    # Standardization (see module docstring). The centered, scaled
    # matrix is A_s = (A - c) / s; both products are applied as the raw
    # sparse product plus a rank-one correction, so no dense m x n
    # matrix is ever formed — which keeps AMP viable at the paper's full
    # scale (n = 10^5, where the dense adjacency alone would be tens of
    # GiB).
    y_raw = channel_corrected_results(
        measurements.results, graph.gamma, measurements.channel
    )
    c, scale = standardization_constants(n, m, graph.gamma)
    y = (y_raw - c * k) / scale
    # The one-trial stack operator over the graph's own arrays (counts
    # as float64, one index dtype so the products convert nothing per
    # call): its transpose is the CSC reading of the same arrays, and
    # its matvec/rmatvec perform the same pairwise sums and per-element
    # centering/scaling as the pre-seam closures — bit-identical.
    row_sizes = np.array([m])
    adjacency = CSRArrays(
        graph.indptr,
        graph.agents.astype(graph.indptr.dtype, copy=False),
        graph.counts.astype(np.float64),
        (m, n),
    )
    operator = CSRStackOperator(
        adjacency, n=n, c=c, m_per=row_sizes, scales=np.array([scale]),
    )

    stacked, iterations, converged, histories = iterate_amp(
        operator, y, denoiser, config, n=n, row_sizes=row_sizes
    )
    scores = stacked[0]
    estimate = top_k_estimate(scores, k)
    truth = measurements.truth.sigma
    quality = evaluate_estimate(estimate, truth, scores)
    return ReconstructionResult(
        estimate=estimate,
        scores=scores,
        exact=quality["exact"],
        overlap=quality["overlap"],
        separated=quality["separated"],
        hamming_errors=quality["hamming_errors"],
        meta={
            "algorithm": "amp",
            "denoiser": denoiser.describe(),
            "iterations": int(iterations[0]),
            "converged": bool(converged[0]),
            "n": n,
            "m": m,
            "k": k,
            "channel": measurements.channel.describe(),
            "sparse": True,
            "history": histories[0] if histories is not None else [],
        },
    )


__all__ = [
    "AMPConfig",
    "standardization_constants",
    "channel_corrected_results",
    "standardize_system",
    "default_denoiser",
    "iterate_amp",
    "run_amp",
]
