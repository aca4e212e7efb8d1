"""Multiprocess trial sharding for the experiment harness.

The paper's figures are Monte-Carlo sweeps of independent trials, and
every trial already owns an independent child seed spawned from the
root seed (:func:`repro.utils.rng.spawn_rngs`). That makes the
workload embarrassingly parallel *by construction*, and this module
exploits it without changing a single seeded output:

1. **Seed spawning** — the scheduler pre-spawns exactly the per-trial
   child seed sequences the serial path would spawn (same
   ``SeedSequence.spawn`` calls, in the same order);
2. **Chunking** — the seed list is partitioned into contiguous,
   order-preserving chunks (:func:`repro.core.chunking.chunk_bounds`);
3. **Ordered merge** — each chunk runs through the fixed-m group
   (:func:`_fixed_m_group` — the chunk's instances drawn once, into
   one block-diagonal stack that every sibling cell sampling them
   reads for greedy scoring and AMP decoding, instead of chunk-size
   serial runs), :class:`~repro.core.batch.BatchTrialRunner`'s chunked
   required-m simulator, the stacked AMP required-m scan
   (:func:`repro.amp.batch_amp.required_queries_amp` — a chunk's
   trials share probe rounds), the prefix-replay scan of corrupted and
   two-stage cells (on the same ascending scan driver), or the
   per-trial fixed-m loop inside a worker process, and the per-trial
   outcomes are merged back in trial order.

Because a trial's result is a pure function of its own seed, the merged
output is bit-identical to the serial run for any worker count — the
seeded-equivalence tests in ``tests/test_parallel.py`` pin this for the
greedy, AMP and distributed algorithms.

The scheduling itself lives in :mod:`repro.experiments.scheduler`:
whole sweeps flatten into one global queue of ``(cell, chunk)`` work
items executed out of order on a pluggable backend (``serial`` /
``process``). This module keeps the pieces the engine builds on — the
cached process pool and the worker-side chunk functions. Sharded runs
go through :func:`repro.experiments.runner.required_queries_trials` /
:func:`~repro.experiments.runner.success_rate_curve` with
``workers=N``, or through a multi-cell
:class:`~repro.experiments.scheduler.SweepPlan`.

Workers are plain module-level functions and every payload (channel,
seeds, kwargs) is picklable, so the pool never relies on inherited
state. On Linux it runs under the ``forkserver`` start method: one
server per driver process starts once, imports the chunk code
(:data:`_PRELOAD` — the package and scipy's compiled sparse products,
:mod:`repro.core.sparsetools`, not the whole sparse package), and
every later pool forks ready workers from it, so a new pool costs a
fork rather than an interpreter start plus an import. Elsewhere it
runs under ``spawn`` (the only method on Windows), where each worker
pays that
start-up. Neither forks the driver itself, so both are immune to
fork-in-threaded-process hazards. The executor is cached between calls
(so even a fork does not recur for every sweep cell); call
:func:`shutdown_pool` to release it explicitly — an ``atexit`` hook
releases it at interpreter exit, and the engine's process backend
retries a sweep once on a fresh pool when a worker dies mid-sweep
(``BrokenProcessPool``). A worker exits as soon as its driver dies
(:func:`_exit_with_parent`), so a killed driver leaves no pool behind.

When parallelism helps
----------------------
Sharding pays off when per-trial work dominates the per-task dispatch
overhead (pickling + IPC, ~1 ms per chunk): large ``n``, dense
``gamma``, many trials. For small instances (``n`` in the hundreds)
or very few trials the serial engine is usually faster — keep
``workers=1`` (the default) there.
"""

from __future__ import annotations

import atexit
import multiprocessing
import multiprocessing.connection
import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils import config
from repro.utils.validation import check_non_negative_int, check_positive_int

#: environment variable consulted when ``workers`` is not given
#: explicitly; lets CI (and users) shard whole test/benchmark runs
#: without touching call sites.
WORKERS_ENV = "REPRO_WORKERS"

#: pool start method, the default CPython 3.14 picks per platform:
#: ``forkserver`` on Linux (workers fork from a server that imported
#: the package once), ``spawn`` elsewhere. Never plain ``fork``, which
#: copies the driver's threads and locks.
START_METHOD = "forkserver" if sys.platform.startswith("linux") else "spawn"

#: modules the fork server imports before it forks any worker: the
#: scheduler pulls in the package, and the instance stacks and AMP
#: operators load scipy's compiled sparse products
#: (:mod:`repro.core.sparsetools`) lazily, which would otherwise recur
#: in every worker. ``multiprocessing`` skips a preload that fails to
#: import without a word, so the tests pin that each one resolves. (Python
#: 3.11's server imports with the driver's environment but not its
#: ``sys.path``, so there the package preload takes effect only when the
#: package is installed or on ``PYTHONPATH``.)
_PRELOAD = ("repro.experiments.scheduler", "repro.core.sparsetools")

#: work items per worker that a sweep cell yields at least: a
#: required-m cell splits its trials into this many chunks per worker
#: (its trials vary widely in duration); a success-curve cell spreads
#: them over its m grid first and splits a grid point's trials only as
#: far as the grid falls short (``SweepExecutor._explode``), keeping
#: trials together for the stacked engines. More items -> better
#: balance, at ~1 ms dispatch cost each.
_OVERSUBSCRIBE = 4


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve a ``workers`` request into an actual worker count.

    ``None`` falls back to the ``REPRO_WORKERS`` environment variable
    (default ``1`` — serial); ``0`` means "one worker per CPU"
    (``os.cpu_count()``). Anything else must be a non-negative integer,
    validated with the library's standard parameter errors.
    """
    if workers is None:
        workers = config.env_int(WORKERS_ENV, minimum=0)
        if workers is None:
            return 1
    workers = check_non_negative_int(workers, "workers")
    if workers == 0:
        workers = os.cpu_count() or 1
    return workers


# -- cached executor ----------------------------------------------------

_pool: Optional[ProcessPoolExecutor] = None
_pool_workers: Optional[int] = None


def _get_pool(workers: int) -> ProcessPoolExecutor:
    global _pool, _pool_workers
    # A crashed worker (OOM kill, segfault) breaks the executor for
    # good; hand out a fresh pool instead of the broken one so a
    # single lost worker doesn't disable sharding for the session.
    broken = _pool is not None and getattr(_pool, "_broken", False)
    if _pool is None or _pool_workers != workers or broken:
        shutdown_pool()
        context = multiprocessing.get_context(START_METHOD)
        if START_METHOD == "forkserver":
            # Read only when the server starts (once per driver).
            context.set_forkserver_preload(list(_PRELOAD))
        _pool = ProcessPoolExecutor(
            max_workers=workers,
            mp_context=context,
            initializer=_exit_with_parent,
        )
        _pool_workers = workers
    return _pool


def _exit_with_parent() -> None:
    """Pool initializer: end this worker as soon as its driver dies.

    A worker blocked on the call queue never notices a SIGKILLed
    driver; it would live on as an orphan, and keep the fork server
    and the resource tracker alive with it. A daemon thread waits on
    the parent's sentinel (readable once the parent is gone) instead.
    """
    sentinel = multiprocessing.parent_process().sentinel

    def watch() -> None:
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, name="exit-with-parent", daemon=True).start()


def shutdown_pool() -> None:
    """Shut down the cached worker pool (no-op when none is running)."""
    global _pool, _pool_workers
    if _pool is not None:
        _pool.shutdown()
        _pool = None
        _pool_workers = None


atexit.register(shutdown_pool)


# -- worker functions (module-level: picklable by reference) ------------


def _required_queries_chunk(
    spec: Dict[str, object], seeds: Sequence[np.random.SeedSequence]
) -> List[Tuple[bool, Optional[int]]]:
    """Run one contiguous chunk of required-queries trials.

    Returns ``(succeeded, required_m)`` per trial, in chunk order. An
    AMP chunk runs the stacked prefix-replay scan over its whole seed
    list — the trials of one chunk share probe rounds — which is free
    to do because every trial's probes and outcomes are a pure function
    of its own seed (the chunk layout never shows in the merge).
    """
    corruption = spec.get("corruption")
    if (corruption is not None and not corruption.is_null) or spec.get(
        "algorithm"
    ) == "twostage":
        # Corrupted cells (any algorithm) and the two-stage robust
        # decoder run the prefix-replay exact-decode scan.
        return _required_queries_scan_chunk(spec, seeds)
    if spec.get("algorithm", "greedy") == "amp":
        from repro.amp.batch_amp import required_queries_amp

        runs = required_queries_amp(
            spec["n"],
            spec["k"],
            spec["channel"],
            list(seeds),
            gamma=spec["gamma"],
            max_m=spec["max_m"],
            check_every=spec["check_every"],
        )
    else:
        from repro.core.batch import BatchTrialRunner

        runner = BatchTrialRunner(
            spec["n"],
            spec["k"],
            spec["channel"],
            gamma=spec["gamma"],
            centering=spec["centering"],
        )
        runs = [
            runner.required_queries(
                np.random.default_rng(seq),
                max_m=spec["max_m"],
                check_every=spec["check_every"],
            )
            for seq in seeds
        ]
    return [(result.succeeded, result.required_m) for result in runs]


def _required_queries_scan_chunk(
    spec: Dict[str, object], seeds: Sequence[np.random.SeedSequence]
) -> List[Tuple[bool, Optional[int]]]:
    """Prefix-replay required-m scan of robust and corrupted cells.

    Serves two cell families the specialized paths cannot:
    ``algorithm="twostage"`` (the robust repair decoder) and any
    algorithm under a ``corruption`` model. Stopping rule: the
    smallest checked m whose (corrupted) prefix decodes **exactly** —
    the AMP scan's rule, not the greedy separation rule, because
    corruption breaks the separation certificate's assumptions.

    The chunk's trials share one ascending scan
    (:func:`repro.amp.batch_amp.scan_required_m`). AMP cells decode
    each round as stacked block-diagonal probes, a wave of grid points
    per trial, exactly as the honest AMP scan does; every other decoder
    probes one grid point per trial and round, so it never decodes a
    prefix past its answer.

    Determinism: the trial's query stream is sampled in append-only
    blocks (:class:`~repro.core.batch.MeasurementStream`) and grown
    only as far as the scan probes. A corrupted cell grows it through
    a :class:`~repro.core.corruption.CorruptedFeed`, which corrupts
    each new slice with the trial's dedicated corruption generator and
    stores the surviving rows; a probe at m decodes the survivors of
    the first m queries. Corruption is query-major, so this is the
    realization :func:`~repro.core.corruption.apply_corruption` draws
    on the whole grid, and the outcome is a pure function of the child
    seed (probe schedule, chunk layout and backend never show).
    """
    from repro.amp.amp import default_denoiser
    from repro.amp.batch_amp import (
        DEFAULT_STACK_ELEMENTS,
        VERIFY_WAVE,
        _default_batch_config,
        _run_probe_round,
        scan_required_m,
    )
    from repro.core.batch import MeasurementStream
    from repro.core.corruption import CorruptedFeed, corruption_rng
    from repro.core.ground_truth import sample_ground_truth
    from repro.core.incremental import default_max_queries
    from repro.core.measurement import Measurements
    from repro.core.pooling import PoolingGraph
    from repro.experiments.runner import _run_algorithm

    n, k, channel = spec["n"], spec["k"], spec["channel"]
    gamma = _spec_gamma(spec)
    max_m = spec["max_m"] or default_max_queries(n, k, channel)
    step = max(1, int(spec["check_every"]))
    grid_max = (max_m // step) * step
    model = spec.get("corruption")
    if model is not None and model.is_null:
        model = None
    algorithm = spec.get("algorithm", "greedy")

    streams: list = []
    feeds: list = []
    for seq in seeds:
        gen = np.random.default_rng(seq)
        truth = sample_ground_truth(n, k, gen)
        stream = MeasurementStream(
            n, gamma, channel, truth, gen, max_m=grid_max
        )
        if model is not None:
            feeds.append(CorruptedFeed(stream, model, corruption_rng(seq)))
            stream = feeds[-1].store
        streams.append(stream)

    def grown(jobs):
        """Jobs on the probed streams: a corrupted probe at m reads the
        survivors of the first m source queries."""
        if not feeds:
            return jobs
        return [(i, feeds[i].grow_to(m)) for i, m in jobs]

    if algorithm == "amp":
        denoiser = default_denoiser(n, k)
        config = _default_batch_config()

        def probe(jobs):
            return _run_probe_round(
                grown(jobs), streams, n, k, gamma, channel, denoiser,
                config, DEFAULT_STACK_ELEMENTS,
            )

        wave = VERIFY_WAVE
    else:
        # greedy and twostage: the algorithms left in
        # REQUIRED_QUERIES_ALGORITHMS, both taking a centering
        centering = spec["centering"]

        def probe(jobs):
            flags = []
            for i, m in grown(jobs):
                if m == 0:
                    # every query of the prefix was corrupted away
                    flags.append(False)
                    continue
                streams[i].grow_to(m)
                indptr, agents, counts, results = streams[i].prefix(m)
                meas = Measurements(
                    graph=PoolingGraph._unchecked(
                        n, gamma, indptr, agents, counts
                    ),
                    truth=streams[i].truth,
                    channel=channel,
                    results=results,
                )
                flags.append(
                    bool(_run_algorithm(algorithm, meas, centering=centering).exact)
                )
            return flags

        wave = 1
    required, _ = scan_required_m(len(streams), step, grid_max, probe, wave)
    return [(m is not None, m) for m in required]


def _fixed_m_chunk(
    spec: Dict[str, object], m: int, seeds: Sequence[np.random.SeedSequence]
) -> List[Tuple[bool, float]]:
    """Run one chunk of fixed-``m`` reconstruction trials.

    Returns ``(exact, overlap)`` per trial, in chunk order. The heavy
    per-trial artifacts (score vectors, estimates) stay in the worker —
    only the curve statistics cross the process boundary. A chunk runs
    whichever path the scheduler derived for its cell (``batch_mode``):
    the stacked greedy/AMP runners as a draw-sharing group of one
    (:func:`_fixed_m_group`), or the per-trial loop. Each trial is a
    pure function of its own seed on either path, so the chunk layout
    never shows in the merged output.
    """
    if spec["batch_mode"] in ("greedy", "amp"):
        return _fixed_m_group([spec], m, seeds)[0]
    from repro.core.corruption import (
        apply_corruption,
        corruption_rng,
        network_fault_rng,
    )
    from repro.core.ground_truth import sample_ground_truth
    from repro.core.measurement import measure
    from repro.experiments.runner import _run_algorithm

    corruption = spec.get("corruption")
    if corruption is not None and corruption.is_null:
        corruption = None
    fault = spec.get("fault")
    if fault is not None and fault.is_null:
        fault = None
    algorithm = spec["algorithm"]
    distributed = algorithm in ("distributed", "distributed_amp")
    out: list = []
    for seq in seeds:
        gen = np.random.default_rng(seq)
        truth = sample_ground_truth(spec["n"], spec["k"], gen)
        graph = _sample_design_graph(spec, m, gen)
        measurements = measure(graph, truth, spec["channel"], gen)
        if corruption is not None:
            # Fault randomness comes from a dedicated stream of the
            # trial's child seed — never from the trial generator —
            # so the faulty run is a pure function of the seed too.
            measurements = apply_corruption(
                measurements, corruption, corruption_rng(seq)
            ).measurements
        kwargs = spec["algorithm_kwargs"]
        if fault is not None:
            kwargs = dict(kwargs)
            kwargs["fault_model"] = fault.build(network_fault_rng(seq))
        result = _run_algorithm(algorithm, measurements, **kwargs)
        if distributed:
            # Distributed cells carry their communication bill: the
            # fold averages these into SuccessCurve.meta["metrics"].
            meta = result.meta
            metrics = {
                key: meta[key]
                for key in ("rounds", "messages", "bits",
                            "dropped", "delayed")
                if key in meta
            }
            out.append(
                (bool(result.exact), float(result.overlap), metrics)
            )
        else:
            out.append((bool(result.exact), float(result.overlap)))
    return out


def _spec_gamma(spec: Dict[str, object]) -> int:
    """A cell's query size: its ``gamma``, else the default for ``n``."""
    from repro.core.pooling import default_gamma

    if spec["gamma"] is None:
        return default_gamma(check_positive_int(spec["n"], "n"))
    return check_positive_int(spec["gamma"], "gamma")


def _fixed_m_group(
    specs: Sequence[Dict[str, object]],
    m: int,
    seeds: Sequence[np.random.SeedSequence],
) -> List[List[Tuple[bool, float]]]:
    """Run one fixed-``m`` chunk for sibling cells that share their draws.

    ``specs`` are stacked success-curve specs (``batch_mode``
    ``"greedy"`` or ``"amp"``) of one ``(n, k, gamma)``; they may differ
    in channel and algorithm kwargs. On equal seeds every member would
    sample the same truth and graph, so the chunk's instances are drawn
    once, into one block-diagonal stack
    (:func:`repro.core.batch.draw_instance_stack`) that every member
    reads: E1 is one product with the stacked truths, and each distinct
    channel (:meth:`~repro.core.noise.Channel.key`) measures once, on
    its own copy of each trial's post-graph generator — exactly the
    generator states each of its members' own chunks would consume.
    Greedy members score with one adjoint product each
    (``Psi`` minus the centered ``Delta*``) and decode through the
    stacked top-k scan; AMP members decode on the stack itself, through
    :func:`repro.amp.batch_amp.run_amp_prepared`. Outcomes are therefore
    bit-identical to per-cell chunks, and a lone cell is a group of
    one. The chunk runs in sub-stacks of at most
    ``DEFAULT_STACK_ELEMENTS`` expected incidences (one trial each past
    ``STACK_NNZ_CUTOFF`` when a member runs AMP), which bounds peak
    memory whatever the chunk's trial count. Returns one
    ``(exact, overlap)`` list per member.
    """
    from repro.amp.batch_amp import (
        DEFAULT_STACK_ELEMENTS,
        STACK_NNZ_CUTOFF,
        _expected_trial_nnz,
        _stack_size,
        run_amp_prepared,
    )
    from repro.amp.kernels import CSRArrays
    from repro.core.batch import BatchTrialRunner, draw_instance_stack
    from repro.core.scores import decode_top_k_stacked
    from repro.utils.rng import copy_generator

    n, k = specs[0]["n"], specs[0]["k"]
    gamma = _spec_gamma(specs[0])
    seeds = list(seeds)
    trials = len(seeds)
    offsets: Dict[int, float] = {}
    amp: Dict[int, dict] = {}
    for i, spec in enumerate(specs):
        kwargs = spec["algorithm_kwargs"]
        if spec["batch_mode"] == "greedy":
            offsets[i] = BatchTrialRunner(
                n, k, spec["channel"], gamma=gamma,
                centering=kwargs.get("centering", "half_k"),
            )._offset()
        else:
            amp[i] = kwargs
    m = check_positive_int(m, "m", minimum=1 if amp else 0)
    out: List[List[Tuple[bool, float]]] = [[] for _ in specs]
    if not trials:
        return out
    stack = _stack_size(n, m, gamma, DEFAULT_STACK_ELEMENTS)
    if amp and _expected_trial_nnz(n, m, gamma) > STACK_NNZ_CUTOFF:
        stack = 1
    sigma = np.empty((trials, n), dtype=np.int8)
    scores = {i: np.empty((trials, n), dtype=np.float64) for i in offsets}
    # Members with equal channels would measure the same E1 on copies
    # of the same generators, so each distinct channel measures once
    # (keyed on its exact parameters); the last one measures on the
    # trials' own generators, after every copy was taken.
    keys = [spec["channel"].key() for spec in specs]
    channels = {key: spec["channel"] for key, spec in zip(keys, specs)}
    last = len(channels) - 1
    for lo in range(0, trials, stack):
        inst = draw_instance_stack(n, k, m, gamma, seeds[lo : lo + stack])
        hi = lo + inst.trials
        sigma[lo:hi] = inst.sigma
        e1 = inst.edges_into_ones()
        if offsets:
            delta_star = inst.distinct_degrees()
        measured = {}
        for j, (key, channel) in enumerate(channels.items()):
            measured[key] = np.empty((inst.trials, m), dtype=np.float64)
            for t, gen in enumerate(inst.gens):
                member_gen = gen if j == last else copy_generator(gen)
                measured[key][t] = channel.measure(e1[t], gamma, member_gen)
        for i, offset in offsets.items():
            scores[i][lo:hi] = (
                inst.neighborhood_sums(measured[keys[i]]) - delta_star * offset
            )
        a = None
        if amp:
            shape = (inst.trials * m, inst.trials * n)
            a = CSRArrays(inst.indptr, inst.indices, inst.data, shape)
        del inst  # drops the unit weights greedy scoring used
        for i, kwargs in amp.items():
            out[i].extend(
                run_amp_prepared(
                    n, k, specs[i]["channel"], a,
                    measured[keys[i]], sigma[lo:hi], gamma=gamma, **kwargs,
                )
            )
    for i, member_scores in scores.items():
        _, errors, overlap, _ = decode_top_k_stacked(member_scores, sigma, k)
        out[i] = [(bool(e == 0), float(o)) for e, o in zip(errors, overlap)]
    return out


def _sample_design_graph(spec: Dict[str, object], m: int, gen):
    """Sample one trial's pooling graph under the cell's design.

    ``design`` defaults to the paper's with-replacement multigraph;
    ``"distinct"`` draws each query's agents without replacement, and
    ``"regular"`` uses the constant-column-weight design of
    :func:`repro.core.pooling.sample_regular_design` with the agent
    degree tuned so the total edge budget matches the multigraph's
    ``m * gamma`` (expected query size equals the multigraph's fixed
    ``gamma``) — the figure-level design ablation's apples-to-apples
    comparison.
    """
    from repro.core.pooling import (
        default_gamma,
        sample_pooling_graph,
        sample_regular_design,
    )

    design = spec.get("design", "replacement")
    n = spec["n"]
    if design == "replacement":
        return sample_pooling_graph(n, m, spec["gamma"], gen)
    if design == "distinct":
        return sample_pooling_graph(
            n, m, spec["gamma"], gen, with_replacement=False
        )
    if design == "regular":
        gamma = spec["gamma"] or default_gamma(n)
        degree = min(max(1, round(m * gamma / n)), m)
        return sample_regular_design(n, m, degree, gen)
    raise ValueError(f"unknown design {design!r}")


__all__ = [
    "WORKERS_ENV",
    "START_METHOD",
    "resolve_workers",
    "shutdown_pool",
]
