"""Batched AMP: block-diagonal trial stacking for sweep-scale runs.

The experiment harness runs AMP as Monte-Carlo sweeps of independent
trials over one ``(n, k, channel, m)`` cell. Running :func:`run_amp`
once per trial pays, per trial, a fresh CSR build plus — per
iteration — a dozen small numpy/scipy dispatches. This module stacks
``T`` trials' pooling graphs into a **single block-diagonal CSR**
(column indices shifted by ``t * n``, one ``indptr`` of length
``T*m + 1``) so each AMP iteration is one sparse matvec on a ``(T*n,)``
state vector, with ``tau``, the Onsager coefficients, denoiser
applications, damping and step norms computed per trial.

Every stack here has one form: the trials' raw CSR blocks stacked by
:func:`_stack_blocks` and their measurements concatenated into one
flat vector segmented by per-trial ``row_sizes``. A sweep cell is the
case where every segment has one length; the required-m prefix probes
and the decode service stack different lengths. :func:`_iterate_stack`
is the one standardize-and-iterate step all three batched entry points
run, and :class:`_StackOperators` the one operator builder.

Bit-identity contract
---------------------
Every trial's iterate sequence — and therefore its decoded
``estimate``/``exact``/``overlap``/``iterations`` — is identical to a
standalone :func:`repro.amp.run_amp` call on the same spawned child
seed, for any stack size:

* the sampling prologue of :func:`run_amp_trials` consumes each
  trial's child generator exactly like the per-trial loop
  (truth, graph, channel noise, in that order);
* the shared kernel (:func:`repro.amp.amp.iterate_amp`) performs only
  row-independent operations, and a block-diagonal CSR matvec computes
  each output coordinate by the same sequential sum as the per-trial
  matrix;
* per-trial convergence freezes a trial's rows (masked update) at the
  same iteration the standalone run would stop, and the kernel
  compacts the stack — restacking per-trial views of it for the
  surviving trials — once at most half the trials remain active.

``tests/test_amp_batch.py`` pins the equivalence across channels,
mixed per-trial iteration counts and stack sizes.

The module also hosts the AMP **required-queries scan**
(:func:`required_queries_amp`): per trial, the smallest check-grid m
whose prefix-measured query stream decodes exactly, found by prefix
replay of a once-sampled stream and one ascending scan
(:func:`scan_required_m`) whose rounds decode heterogeneous-m
block-diagonal probe stacks — see the function docstrings for the
contract.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.amp.amp import (
    AMPConfig,
    channel_corrected_results,
    default_denoiser,
    iterate_amp,
    run_amp,
    standardization_constants,
)
from repro.amp.denoisers import Denoiser
from repro.amp.kernels import CSRArrays, CSRStackOperator
from repro.core.batch import (
    DEFAULT_BLOCK_ELEMENTS,
    DEFAULT_INITIAL_BLOCK,
    MeasurementStream,
    draw_instance,
)
from repro.core.ground_truth import sample_ground_truth
from repro.core.incremental import default_max_queries
from repro.core.measurement import Measurements, measure
from repro.core.noise import Channel
from repro.core.pooling import PoolingGraph, default_gamma
from repro.core.scores import decode_top_k_stacked
from repro.core.types import ReconstructionResult, RequiredQueriesResult
from repro.utils.rng import RngLike, normalize_rng
from repro.utils.validation import check_positive_int

#: soft cap on stacked CSR incidences per kernel invocation;
#: :func:`run_amp_trials` splits longer trial lists into consecutive
#: stacks of this footprint (~0.5 GiB of data+index arrays), which has
#: no effect on any trial's output — only on peak memory.
DEFAULT_STACK_ELEMENTS = 2**25

#: expected per-trial incidences above which :func:`run_amp_trials`
#: runs standalone ``run_amp`` per trial instead of stacking: past this
#: size a trial's own matvec is memory-bound (scipy dispatch and numpy
#: per-op overhead are noise), so stacking only adds the O(nnz)
#: block-diagonal assembly and the frozen-row matvec waste. Below it
#: the per-op overhead dominates and stacking wins (up to ~2.5x on the
#: bench host). Either path returns bit-identical results (shared
#: kernel), so the dispatch is invisible in every output.
STACK_NNZ_CUTOFF = 2**18


def _default_batch_config() -> AMPConfig:
    """Sweep-scale default: identical iteration, no per-iteration history.

    Direct :func:`repro.amp.run_amp` calls keep ``track_history=True``;
    the batched entry points default it off because a sweep retains
    only the decode outcome per trial and the history dicts would be
    O(iterations) dead weight in every ``ReconstructionResult.meta``.
    """
    return AMPConfig(track_history=False)


def _stack_blocks(
    blocks: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    cols: int,
    origins: Optional[Sequence[int]] = None,
) -> CSRArrays:
    """Assemble per-trial CSR triples into one block-diagonal CSR.

    ``blocks[t]`` holds trial ``t``'s ``(indptr, indices, data)`` with
    ``cols`` columns; per-block row counts may differ (required-m
    prefix probes stack heterogeneous-``m`` blocks). The stacked matrix
    has shape ``(sum(rows_t), T*cols)`` with trial ``t``'s column
    indices shifted by ``t * cols``. Row contents (order and values)
    are exactly the per-trial rows, so a matvec on the stack computes
    every output coordinate by the same sequential sum as the per-trial
    matvec.

    ``origins`` reads blocks that are views into another stack: block
    ``t``'s indices are already shifted by ``origins[t] * cols`` and its
    ``indptr`` need not start at 0.
    """
    trials = len(blocks)
    if origins is None:
        origins = [0] * trials
    nnz = np.array([indices.size for _, indices, _ in blocks], dtype=np.int64)
    offsets = np.concatenate(([0], np.cumsum(nnz)))
    rows = np.array([indptr.size - 1 for indptr, _, _ in blocks], dtype=np.int64)
    row_offsets = np.concatenate(([0], np.cumsum(rows)))
    # int32 indices halve the matvec's index traffic; they must fit
    # both the column ids and the cumulative incidence counts stored in
    # indptr.
    index_dtype = (
        np.int32
        if max(trials * cols, int(offsets[-1])) < 2**31
        else np.int64
    )
    indptr = np.empty(int(row_offsets[-1]) + 1, dtype=index_dtype)
    indptr[0] = 0
    data = np.empty(offsets[-1], dtype=np.float64)
    indices = np.empty(offsets[-1], dtype=index_dtype)
    for t, (block_indptr, block_indices, block_data) in enumerate(blocks):
        lo, hi = offsets[t], offsets[t + 1]
        data[lo:hi] = block_data
        indices[lo:hi] = block_indices
        indices[lo:hi] += (t - origins[t]) * cols
        indptr[row_offsets[t] + 1 : row_offsets[t + 1] + 1] = (
            block_indptr[1:] + (lo - block_indptr[0])
        )
    return CSRArrays(
        indptr, indices, data, (int(row_offsets[-1]), trials * cols)
    )


class _StackOperators:
    """Standardized operators over one raw block-diagonal trial stack.

    Holds the raw stacked CSR ``a`` (trial ``t``'s ``m_per[t]`` rows,
    its columns shifted by ``t * n``; see :func:`_stack_blocks`) and
    materializes, for a subset of trials, the stacked forward map
    ``x -> (A x - c s_t) / scale_t`` and its adjoint as a
    :class:`~repro.amp.kernels.CSRStackOperator` for the kernel seam.
    The whole stack serves as it stands; a compacted subset is
    restacked from per-trial views of it. The centering is applied as
    a rank-one correction per trial block, so no dense matrix is ever
    formed, and per coordinate the arithmetic is exactly the
    standalone ``run_amp`` one, so stacked iterates stay bit-identical
    to per-trial runs.
    """

    def __init__(
        self, a: CSRArrays, n: int, c: float, m_per: np.ndarray,
        scales: np.ndarray,
    ):
        self.a = a
        self.n = n
        self.c = c
        self.m_per = np.asarray(m_per, dtype=np.int64)
        self.scales = np.asarray(scales, dtype=np.float64)
        self.bounds = np.concatenate(([0], np.cumsum(self.m_per)))

    def operators(self, idx: Sequence[int]) -> CSRStackOperator:
        """The stack operator for the ascending distinct trial ids ``idx``."""
        live = np.asarray(idx, dtype=np.int64)
        a = self.a
        if live.size < self.m_per.size:
            views = []
            for t in live:
                rows = a.indptr[self.bounds[t] : self.bounds[t + 1] + 1]
                lo, hi = rows[0], rows[-1]
                views.append((rows, a.indices[lo:hi], a.data[lo:hi]))
            a = _stack_blocks(views, self.n, origins=live.tolist())
        return CSRStackOperator(
            a, n=self.n, c=self.c, m_per=self.m_per[live],
            scales=self.scales[live],
        )


def _iterate_stack(
    a: CSRArrays,
    results: np.ndarray,
    row_sizes: np.ndarray,
    n: int,
    k: int,
    gamma: int,
    channel: Channel,
    denoiser: Denoiser,
    config: AMPConfig,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[List[List[dict]]]]:
    """Standardize one raw block-diagonal stack and run AMP on it.

    ``results`` is the flat concatenation of the trials' raw channel
    outputs, segmented by ``row_sizes``. Each trial is centered and
    scaled with its own :func:`standardization_constants`, element for
    element as :func:`run_amp` does, and the kernel compacts through
    :class:`_StackOperators` once at most half the trials remain
    active. Returns :func:`iterate_amp`'s ``(sigma, iterations,
    converged, histories)``.
    """
    c = gamma / n
    scales = np.array(
        [standardization_constants(n, int(m), gamma)[1] for m in row_sizes]
    )
    y = channel_corrected_results(results, gamma, channel) - c * k
    y /= np.repeat(scales, row_sizes)
    ops = _StackOperators(a, n, c, row_sizes, scales)
    return iterate_amp(
        ops.operators(np.arange(scales.size)), y, denoiser, config, n=n,
        row_sizes=ops.m_per, restrict=ops.operators,
    )


def run_amp_batch(
    measurements: Sequence[Measurements],
    *,
    denoiser: Optional[Denoiser] = None,
    config: Optional[AMPConfig] = None,
) -> List[ReconstructionResult]:
    """Run AMP on many same-cell measurement sets as one stacked system.

    All entries must share ``(n, m, k, gamma)`` and the channel (same
    description) — the shape of one sweep cell. Returns one
    :class:`ReconstructionResult` per entry, in order, each identical
    in decode (estimate, exact, overlap, iterations) to
    ``run_amp(measurements[t], ...)`` with the same denoiser/config.

    ``config`` defaults to ``AMPConfig(track_history=False)`` (see
    :func:`_default_batch_config`); pass an explicit config with
    ``track_history=True`` to retain per-iteration records.
    """
    if not measurements:
        return []
    config = config if config is not None else _default_batch_config()
    first = measurements[0]
    n, m, k = first.n, first.m, first.k
    gamma = first.graph.gamma
    channel_key = first.channel.key()
    if m == 0:
        raise ValueError("AMP requires at least one query")
    for meas in measurements:
        if (meas.n, meas.m, meas.k, meas.graph.gamma) != (n, m, k, gamma):
            raise ValueError(
                "all measurements in a batch must share (n, m, k, gamma); got "
                f"({meas.n}, {meas.m}, {meas.k}, {meas.graph.gamma}) vs "
                f"({n}, {m}, {k}, {gamma})"
            )
        if meas.channel.key() != channel_key:
            raise ValueError(
                "all measurements in a batch must share the channel; got "
                f"{meas.channel.key()!r} vs {channel_key!r}"
            )
    if denoiser is None:
        denoiser = default_denoiser(n, k)

    trials = len(measurements)
    # the fill loop casts int64 counts to float64 on assignment
    a = _stack_blocks(
        [(meas.graph.indptr, meas.graph.agents, meas.graph.counts)
         for meas in measurements],
        n,
    )
    scores, iterations, converged, histories = _iterate_stack(
        a, np.concatenate([meas.results for meas in measurements]),
        np.full(trials, m), n, k, gamma, first.channel, denoiser, config,
    )

    sigma_truth = np.empty((trials, n), dtype=np.int8)
    for t, meas in enumerate(measurements):
        sigma_truth[t] = meas.truth.sigma
    estimate, errors, overlap, margins = decode_top_k_stacked(
        scores, sigma_truth, k
    )
    denoiser_desc = denoiser.describe()
    channel_desc = first.channel.describe()
    out: List[ReconstructionResult] = []
    for t in range(trials):
        out.append(
            ReconstructionResult(
                estimate=estimate[t],
                scores=scores[t],
                exact=bool(errors[t] == 0),
                overlap=float(overlap[t]),
                separated=bool(margins[t] > 0.0),
                hamming_errors=int(errors[t]),
                meta={
                    "algorithm": "amp",
                    "denoiser": denoiser_desc,
                    "iterations": int(iterations[t]),
                    "converged": bool(converged[t]),
                    "n": n,
                    "m": m,
                    "k": k,
                    "channel": channel_desc,
                    "sparse": True,
                    "history": histories[t] if histories is not None else [],
                },
            )
        )
    return out


def _expected_trial_nnz(n: int, m: int, gamma: int) -> float:
    """Expected distinct incidences of one trial's pooling graph.

    ``m * n * (1 - (1 - 1/n)^gamma)`` — deterministic in
    ``(n, m, gamma)``, so every dispatch decision derived from it is
    independent of the sampled graphs.
    """
    return max(1.0, m * n * (1.0 - (1.0 - 1.0 / n) ** gamma))


def _stack_size(n: int, m: int, gamma: int, stack_elements: int) -> int:
    """Trials per stack under the incidence-element budget."""
    return max(1, int(stack_elements // _expected_trial_nnz(n, m, gamma)))


def run_amp_trials(
    n: int,
    k: int,
    channel: Channel,
    m: int,
    seeds: Sequence[RngLike],
    *,
    gamma: Optional[int] = None,
    denoiser: Optional[Denoiser] = None,
    config: Optional[AMPConfig] = None,
    stack_elements: int = DEFAULT_STACK_ELEMENTS,
) -> List[ReconstructionResult]:
    """Sample and batch-decode one AMP trial per seed.

    Each seed's trial consumes its generator exactly like the
    per-trial loop of the experiment harness — ground truth, pooling
    graph, channel noise, in that order — and is then decoded through
    the stacked kernel, so ``run_amp_trials(...)[t]`` reproduces the
    decode of a standalone ``run_amp`` on trial ``t``'s seed bit for
    bit, and a contiguous chunk of a larger seed list yields the same
    per-trial results. Sweep chunks decode through
    :func:`run_amp_prepared` on a shared instance stack instead (see
    :func:`repro.experiments.parallel._fixed_m_group`); their outcomes
    are pinned equal to this function's.

    Long seed lists are processed in consecutive stacks bounded by
    ``stack_elements`` incidences (peak-memory control only). Cells
    whose expected per-trial incidence count exceeds
    :data:`STACK_NNZ_CUTOFF` run standalone ``run_amp`` per trial
    instead — there a single trial's matvec is already memory-bound
    and stacking only adds assembly cost; the dispatch never changes
    any output (shared kernel, bit-identical either way).
    """
    n = check_positive_int(n, "n")
    m = check_positive_int(m, "m")
    gamma = default_gamma(n) if gamma is None else check_positive_int(gamma, "gamma")
    out: List[ReconstructionResult] = []
    if not seeds:
        return out
    config = config if config is not None else _default_batch_config()
    if _expected_trial_nnz(n, m, gamma) > STACK_NNZ_CUTOFF:
        for seed in seeds:
            gen, truth, graph = draw_instance(n, k, m, gamma, seed)
            out.append(
                run_amp(
                    measure(graph, truth, channel, gen),
                    denoiser=denoiser,
                    config=config,
                )
            )
        return out
    stack = _stack_size(n, m, gamma, stack_elements)
    for lo in range(0, len(seeds), stack):
        batch: List[Measurements] = []
        for seed in seeds[lo : lo + stack]:
            gen, truth, graph = draw_instance(n, k, m, gamma, seed)
            batch.append(measure(graph, truth, channel, gen))
        out.extend(
            run_amp_batch(batch, denoiser=denoiser, config=config)
        )
    return out


def run_amp_prepared(
    n: int,
    k: int,
    channel: Channel,
    a: CSRArrays,
    results: np.ndarray,
    truth: np.ndarray,
    *,
    gamma: Optional[int] = None,
    denoiser: Optional[Denoiser] = None,
    config: Optional[AMPConfig] = None,
) -> List[Tuple[bool, float]]:
    """Decode an already stacked fixed-``m`` chunk; ``(exact, overlap)`` rows.

    ``a`` holds the chunk's float64 block-diagonal CSR arrays (trial
    ``t``'s ``m`` rows at ``t * m``, its columns shifted by ``t * n``;
    see :class:`repro.core.batch.InstanceStack`), ``results`` the
    ``(trials, m)`` channel outputs and ``truth`` the ``(trials, n)``
    sigma rows. Runs one stacked :func:`~repro.amp.amp.iterate_amp`
    call through the kernel seam (the stack step :func:`run_amp_batch`
    also runs), compacting from per-trial views of ``a`` once at most
    half the trials remain active, so sibling cells that measured the
    same graphs share one stack. Per-trial outcomes are identical to
    :func:`run_amp_trials` on the same seeds: the stack-composition and
    compaction contracts make every trial's decode independent of how
    its stack was assembled.
    """
    gamma = default_gamma(n) if gamma is None else gamma
    config = config if config is not None else _default_batch_config()
    if denoiser is None:
        denoiser = default_denoiser(n, k)
    trials, m = results.shape
    scores, _, _, _ = _iterate_stack(
        a, results.reshape(-1), np.full(trials, m), n, k, gamma, channel,
        denoiser, config,
    )
    _, errors, overlap, _ = decode_top_k_stacked(scores, truth, k)
    return [
        (bool(e == 0), float(o)) for e, o in zip(errors, overlap)
    ]


# -- required-queries scan: one ascending stacked scan -----------------

#: grid points a trial probes per stacked round (its lowest unprobed
#: ones); larger waves stack better, smaller ones stop closer to the
#: answer — either value returns the identical stopping m.
VERIFY_WAVE = 8


def scan_required_m(
    trials: int,
    step: int,
    grid_max: int,
    probe: Callable[[List[Tuple[int, int]]], Sequence[bool]],
    wave: int = VERIFY_WAVE,
) -> Tuple[List[Optional[int]], List[int]]:
    """Per trial, the smallest grid point whose probe succeeds.

    The grid is ``step, 2*step, ..., grid_max``. Each round, every
    unfinished trial submits its lowest ``wave`` unprobed grid points,
    and ``probe(jobs)`` decodes the round's ``(trial, m)`` jobs at once,
    returning one success flag per job. A trial stops at the first
    success of its wave, or at the end of its grid. Every grid point
    below a returned m was probed and failed, so the result is the
    brute-force ascending scan's by construction, whatever the success
    profile. A trial's probes depend only on its own outcomes, which is
    what lets trials share rounds without any cross-trial coupling.

    Returns ``(required, checks)``: the stopping m (``None`` when no
    grid point succeeded) and the number of probes spent, per trial.
    """
    required: List[Optional[int]] = [None] * trials
    checks = [0] * trials
    active = list(range(trials))
    # Every unfinished trial has probed the same grid points so far, so
    # the trials' waves move in lockstep.
    for lo in range(step, grid_max + 1, wave * step):
        if not active:
            break
        points = range(lo, min(lo + wave * step, grid_max + 1), step)
        jobs = [(i, m) for i in active for m in points]
        for (i, m), ok in zip(jobs, probe(jobs)):
            checks[i] += 1
            if ok and required[i] is None:
                required[i] = m
        active = [i for i in active if required[i] is None]
    return required, checks


def _decode_prefix_stack(
    jobs: Sequence[Tuple[int, int]],
    streams: Sequence,
    n: int,
    k: int,
    gamma: int,
    channel: Channel,
    denoiser: Denoiser,
    config: AMPConfig,
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode one stacked round of ``(trial, m)`` prefix probes.

    Builds the heterogeneous-m block-diagonal system from the first
    ``m`` queries of each job's :class:`~repro.core.batch.QueryStream`
    (free prefix views — no resampling, no re-measurement) and runs one
    batched :func:`iterate_amp` call; ``m >= 1`` for every job. Returns
    ``(exact, scores)`` with one entry/row per job; each job's decode
    is bit-identical to a standalone :func:`run_amp` on the same prefix
    data.
    """
    prefixes: List[Tuple[np.ndarray, np.ndarray, np.ndarray]] = []
    results: List[np.ndarray] = []
    sigma_truth = np.empty((len(jobs), n), dtype=np.int8)
    for j, (i, m) in enumerate(jobs):
        indptr, agents, counts, prefix_results = streams[i].prefix(m)
        prefixes.append((indptr, agents, counts))
        results.append(prefix_results)
        sigma_truth[j] = streams[i].truth.sigma
    scores, _, _, _ = _iterate_stack(
        _stack_blocks(prefixes, n), np.concatenate(results),
        np.array([m for _, m in jobs]), n, k, gamma, channel, denoiser,
        config,
    )
    _, errors, _, _ = decode_top_k_stacked(scores, sigma_truth, k)
    return errors == 0, scores


def decode_prefix_batch(
    jobs: Sequence[Tuple[int, int]],
    streams: Sequence,
    n: int,
    k: int,
    channel: Channel,
    *,
    gamma: Optional[int] = None,
    denoiser: Optional[Denoiser] = None,
    config: Optional[AMPConfig] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Decode many stream prefixes in one ragged block-diagonal AMP call.

    The public request-batching seam of the heterogeneous-m stacking
    path: ``jobs`` is a list of ``(stream_index, m)`` pairs and
    ``streams`` are :class:`~repro.core.batch.QueryStream` instances
    sharing ``(n, gamma, channel)`` — sampled trials
    (:class:`~repro.core.batch.MeasurementStream`, grown here as far
    as a job asks) or the decode service's session snapshots
    (:meth:`repro.service.session.Session.snapshot_stream`), whose
    concurrent decode requests stack here into a single
    :func:`iterate_amp` call. Returns ``(exact, scores)`` with one
    flag / score row per job; each job's decode is bit-identical to a
    standalone :func:`run_amp` on the same prefix, so batching across
    sessions is invisible in every output.
    """
    gamma = gamma if gamma is not None else default_gamma(n)
    if denoiser is None:
        denoiser = default_denoiser(n, k)
    config = config if config is not None else _default_batch_config()
    if not jobs:
        return np.zeros(0, dtype=bool), np.zeros((0, n), dtype=np.float64)
    for i, m in jobs:
        if m < 1:
            raise ValueError(f"prefix decode requires m >= 1, got {m}")
        streams[i].grow_to(m)
    return _decode_prefix_stack(
        jobs, streams, n, k, gamma, channel, denoiser, config
    )


def _probe_standalone(
    stream,
    m: int,
    n: int,
    gamma: int,
    channel: Channel,
    denoiser: Denoiser,
    config: AMPConfig,
) -> bool:
    """Standalone ``run_amp`` probe of one trial's ``m``-query prefix."""
    indptr, agents, counts, results = stream.prefix(m)
    graph = PoolingGraph._unchecked(n, gamma, indptr, agents, counts)
    meas = Measurements(
        graph=graph, truth=stream.truth, channel=channel, results=results
    )
    return bool(run_amp(meas, denoiser=denoiser, config=config).exact)


def _run_probe_round(
    jobs: Sequence[Tuple[int, int]],
    streams: Sequence,
    n: int,
    k: int,
    gamma: int,
    channel: Channel,
    denoiser: Denoiser,
    config: AMPConfig,
    stack_elements: int,
) -> List[bool]:
    """Execute one round of probes; returns exact flags aligned with jobs.

    ``streams`` are :class:`~repro.core.batch.QueryStream` instances
    (a :class:`~repro.core.batch.MeasurementStream` grows as far as a
    job asks); a job ``(i, m)`` probes the first ``m`` stored queries
    of stream ``i``. A job with ``m == 0`` (every query corrupted away)
    fails without a decode.
    Probes whose prefix incidence count exceeds
    :data:`STACK_NNZ_CUTOFF` run standalone ``run_amp`` (their matvec
    is memory-bound; stacking would only add assembly cost), the rest
    stack into consecutive block-diagonal batches bounded by
    ``stack_elements`` incidences. The dispatch never changes a probe's
    outcome (shared kernel, bit-identical either way).
    """
    flags = [False] * len(jobs)
    stacked: List[Tuple[int, int]] = []  # (job index, prefix incidences)
    for j, (i, m) in enumerate(jobs):
        if m == 0:
            continue  # every query of the prefix was corrupted away
        streams[i].grow_to(m)
        nnz = int(streams[i].prefix(m)[0][-1])
        if nnz > STACK_NNZ_CUTOFF:
            flags[j] = _probe_standalone(
                streams[i], m, n, gamma, channel, denoiser, config
            )
        else:
            stacked.append((j, nnz))
    lo = 0
    while lo < len(stacked):
        budget = 0
        hi = lo
        while hi < len(stacked):
            nnz = stacked[hi][1]
            if hi > lo and budget + nnz > stack_elements:
                break
            budget += nnz
            hi += 1
        pack = [j for j, _ in stacked[lo:hi]]
        exact, _ = _decode_prefix_stack(
            [jobs[j] for j in pack],
            streams, n, k, gamma, channel, denoiser, config,
        )
        for j, ok in zip(pack, exact):
            flags[j] = bool(ok)
        lo = hi
    return flags


def required_queries_amp(
    n: int,
    k: int,
    channel: Channel,
    seeds: Sequence[RngLike],
    *,
    gamma: Optional[int] = None,
    max_m: Optional[int] = None,
    check_every: int = 1,
    denoiser: Optional[Denoiser] = None,
    config: Optional[AMPConfig] = None,
    initial_block: int = DEFAULT_INITIAL_BLOCK,
    block_elements: int = DEFAULT_BLOCK_ELEMENTS,
    stack_elements: int = DEFAULT_STACK_ELEMENTS,
) -> List[RequiredQueriesResult]:
    """Smallest m per trial at which AMP decodes exactly (Figures 2-5).

    For every seed, samples the trial's query stream **once** in
    geometric-growth blocks (:class:`~repro.core.batch.
    MeasurementStream`) and replays row-prefixes of it: a probe at
    ``m'`` is a free ``indptr[:m'+1]`` slice plus the matching results
    slice. The stopping m is found by one ascending scan of the
    ``check_every`` grid (:func:`scan_required_m`), so it is
    **identical to a brute-force ascending scan** that runs standalone
    :func:`run_amp` at every grid point of the same trial's prefix data
    (pinned in ``tests/test_amp_required.py`` against the brute-force
    scan in ``tests/reference.py``).

    Execution is *stacked*: each round collects every unfinished
    trial's wave of probes — heterogeneous per-trial m — into one
    block-diagonal CSR and runs a single batched
    :func:`~repro.amp.amp.iterate_amp` call (consecutive stacks bounded
    by ``stack_elements`` incidences; memory-bound probes above
    :data:`STACK_NNZ_CUTOFF` run standalone). Every trial is a pure
    function of its child seed — its probes depend only on its own
    outcomes, and stacked iterates are bit-identical to standalone
    ones — so contiguous chunks of a larger seed list reproduce the
    same per-trial results, keeping sharded scans (``workers=N``)
    bit-identical to serial ones.

    Returns one :class:`~repro.core.types.RequiredQueriesResult` per
    seed, in order; ``checks`` counts the probes spent.
    """
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    check_every = check_positive_int(check_every, "check_every")
    gamma = default_gamma(n) if gamma is None else check_positive_int(gamma, "gamma")
    if max_m is None:
        max_m = default_max_queries(n, k, channel)
    if denoiser is None:
        denoiser = default_denoiser(n, k)
    config = config if config is not None else _default_batch_config()
    if not seeds:
        return []
    meta = {
        "algorithm": "amp",
        "channel": channel.describe(),
        "gamma": gamma,
        "max_m": max_m,
        "check_every": check_every,
        "denoiser": denoiser.describe(),
    }
    streams: List[MeasurementStream] = []
    for seed in seeds:
        gen = normalize_rng(seed)
        truth = sample_ground_truth(n, k, gen)
        streams.append(
            MeasurementStream(
                n,
                gamma,
                channel,
                truth,
                gen,
                max_m=max_m,
                initial_block=initial_block,
                block_elements=block_elements,
            )
        )
    required, checks = scan_required_m(
        len(seeds),
        check_every,
        (max_m // check_every) * check_every,
        lambda jobs: _run_probe_round(
            jobs, streams, n, k, gamma, channel, denoiser, config,
            stack_elements,
        ),
    )
    return [
        RequiredQueriesResult(
            required_m=m,
            n=n,
            k=k,
            succeeded=m is not None,
            checks=spent,
            meta=meta,
        )
        for m, spent in zip(required, checks)
    ]


__all__ = [
    "DEFAULT_STACK_ELEMENTS",
    "STACK_NNZ_CUTOFF",
    "VERIFY_WAVE",
    "decode_prefix_batch",
    "run_amp_batch",
    "run_amp_trials",
    "run_amp_prepared",
    "required_queries_amp",
    "scan_required_m",
]
