"""Sweep-scale execution engine: cross-cell task scheduling.

The paper's figures are *sweeps*: Figures 2-5 iterate ``(algorithm,
channel, n)`` cells and Figures 6-7 iterate ``(n, m)`` grids, every
cell being a list of independent seeded trials. Before this module the
harness executed cells strictly one after another — each cell sharded
its own trials, blocked on a per-cell barrier, and only then started
the next cell — so the worker pool idled whenever a cell's last
straggler chunk ran, and small cells paid the ~1 ms per-chunk dispatch
with no other work to overlap it.

This module flattens an entire sweep into **one global queue of
``(cell, chunk)`` work items** and executes them out of order on a
pluggable backend, while preserving the seed-chunk/ordered-merge
contract of :mod:`repro.experiments.parallel` exactly:

1. **Plan** — a :class:`SweepPlan` collects cell specs (the same
   keyword arguments the runner entry points take) and pre-spawns each
   cell's per-trial child seeds exactly as the serial path would
   (same ``SeedSequence.spawn`` calls, in the same order);
2. **Explode** — every cell is partitioned into contiguous,
   order-preserving chunks (:func:`repro.core.chunking.chunk_bounds`)
   and all cells' chunks enter one shared work queue;
3. **Execute** — a :class:`SweepExecutor` runs the queue on a backend
   (see below); chunks complete out of order and heterogeneous cells
   load-balance: a big-``n`` cell's stragglers overlap the next cells'
   chunks, and no per-cell pool-dispatch barrier remains;
4. **Ordered merge** — chunk outcomes are reassembled per cell in
   trial order, and each cell's result materializes as soon as its
   last chunk finishes.

Because every trial is a pure function of its own pre-spawned child
seed, the merged output of every backend is **bit-identical** to
running each cell through the serial per-cell path — for any worker
count, chunk layout, algorithm and engine (pinned in
``tests/test_scheduler.py``).

Backends
--------
``serial``
    In-process reference: runs the queue front to back with no
    pickling. The default when no sharding is requested.
``process``
    The cached ``spawn``-start :class:`~concurrent.futures.
    ProcessPoolExecutor` of :mod:`repro.experiments.parallel`,
    submitting through the shared queue over the pool pipe, with each
    cell's spec interned per worker (see below). A ``BrokenProcessPool``
    raised mid-sweep (a worker OOM-killed or segfaulted) is retried
    once on a fresh pool before failing the sweep. The default when
    ``workers > 1``.
``socket``
    Ships pickled chunk payloads to remote worker hosts over TCP
    (cross-host trial sharding). Start workers with ``python -m repro
    worker serve --port 7920`` on each host and point the executor at
    them via ``hosts=["host:7920", ...]`` or the ``REPRO_HOSTS``
    environment variable. The wire frames are HMAC-authenticated
    (``REPRO_AUTH_TOKEN``) and size-capped, and the backend is
    elastic: initial connects and mid-sweep reconnects retry with
    bounded exponential backoff, application-level heartbeats
    (``ping``/``pong`` answered even mid-chunk) separate long chunks
    from dead workers, a straggler's chunk is speculatively
    re-dispatched onto an idle worker (first result wins — outputs
    cannot change, chunks are pure functions of their seeds), and a
    worker that dies mid-sweep has its in-flight chunk requeued onto
    the survivors.

Select a backend per call (``backend=``), via the ``REPRO_BACKEND``
environment variable, or implicitly (``workers > 1`` → ``process``).

Checkpoint/resume
-----------------
``run(checkpoint=path)`` (or ``REPRO_CHECKPOINT``, or ``--checkpoint``
on the CLI) persists every finished chunk — and each cell's merged
outcomes once its last chunk lands — through
:mod:`repro.experiments.checkpoint` (atomic write-then-rename, a
manifest keyed by a content hash of the plan's specs + child seeds).
A driver killed mid-sweep and re-run with the same plan skips
completed cells and resumes half-finished ones from their surviving
chunks; the resumed result is bit-identical to an uninterrupted run by
construction, because resume replays the same pre-spawned child seeds
and restored outcomes are the chunks' own recorded values. Works on
every backend (the filtering happens before dispatch); a plan whose
content hash changed is rejected instead of silently resumed.

Draw sharing
------------
Figure-style plans add many success-curve cells with one ``seed`` and
one m-grid, so their chunks carry identical child seeds — and a
stacked-engine trial draws truth, then graph, then channel noise from
its seed. Before dispatch the executor therefore **fuses** pending
chunks whose draws coincide — same ``n``, ``k``, resolved ``gamma``
and ``m``, same seeds by ``(entropy, spawn_key)``, both on the
``greedy``/``amp`` batch mode — into one ``CELL_FUSED`` work item:
the item's instances are drawn once, into one block-diagonal stack,
and every member measures and decodes them on its own copy of each
post-graph generator
(:func:`repro.experiments.parallel._fixed_m_group`). Members consume
exactly the generator states of their own chunks, so fusion is
bit-identical by construction; eligibility reads the cell specs only.
A fused item rides the same chunk seam on every backend, its outcomes
split back per member, and checkpoint records stay keyed per member
chunk — a resume fuses only the members still missing.

Per-worker payload interning
----------------------------
A chunk's payload splits into a per-cell **invariant** part (the
channel object, algorithm kwargs, budgets — identical for every chunk
of the cell) and a per-chunk **variant** part (the seed slice and grid
indices). Re-shipping the invariant with every chunk is pure dispatch
overhead, so both remote backends intern it once per worker, keyed by
a unique cell id: the process backend seeds the first chunks of each
cell with the pickled spec and retries on a worker-side cache miss;
the socket backend tracks per-connection which specs it has sent.
Steady-state chunk dispatch therefore ships only seeds + indices
through the pool pipe (or the socket), the one dispatch path of each
remote backend.

When the engine helps
---------------------
The flattened queue pays off whenever a sweep has more than one cell
and more than one worker: per-cell barriers disappear and stragglers
overlap. For a single small cell the engine degenerates to the PR 2
behaviour (one submission wave), and for ``workers=1`` the serial
backend runs the chunks with no dispatch overhead at all.
"""

from __future__ import annotations

import itertools
import os
import pickle
import queue as queue_module
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.chunking import chunk_bounds
from repro.experiments import parallel
from repro.utils import config
from repro.utils.rng import RngLike, spawn_rngs, spawn_seeds
from repro.utils.validation import check_positive_int

#: pluggable execution backends (see the module docstring)
BACKENDS = ("serial", "process", "socket")

#: environment variable consulted when ``backend`` is not given
BACKEND_ENV = "REPRO_BACKEND"

#: environment variable listing socket worker hosts, comma-separated
#: ``host:port`` pairs (consulted when ``hosts`` is not given)
HOSTS_ENV = "REPRO_HOSTS"

#: cell kinds understood by the chunk runner; a fused group of sibling
#: success-curve chunks travels as one ``CELL_FUSED`` work item whose
#: spec lists the member cells' specs
CELL_REQUIRED = "required_queries"
CELL_CURVE = "success_curve"
CELL_FUSED = "fused_success_curve"

#: pooling designs selectable per success-curve cell: the paper's
#: with-replacement multigraph (default), the distinct-agents simple
#: graph, and the constant-column-weight regular design (ablation)
DESIGNS = ("replacement", "distinct", "regular")

#: environment variable forcing a fixed straggler-speculation deadline
#: (seconds; ``0`` disables speculation). Unset = adaptive: once three
#: chunk durations are observed, a chunk in flight longer than
#: ``_SPECULATE_FACTOR`` x the upper-quartile duration is re-dispatched
#: onto an idle worker (first result wins).
SPECULATE_ENV = "REPRO_SPECULATE"

#: adaptive speculation: multiple of the observed upper-quartile chunk
#: duration before a chunk counts as a straggler
_SPECULATE_FACTOR = 4.0

#: adaptive speculation never fires below this in-flight age (seconds)
_SPECULATE_MIN_SECONDS = 2.0

#: consecutive transport failures after which a feeder retires its
#: worker instead of reconnecting again (a flapping worker must not
#: burn the sweep in an accept/die loop)
_MAX_WORKER_FAILURES = 3

#: worker-side interned-spec cache size (entries, not bytes). Sized
#: above the largest realistic plan (a full-scale two-algorithm
#: figure 4 sweep is 2 x 5 x 13 = 130 cells) so live cells are not
#: evicted mid-plan; specs are small dicts, so even the cap is only
#: ~1 MB. An evicted-then-needed spec is re-fetched via the
#: ``_SpecMissing`` retry, costing one extra round trip, not
#: correctness.
_SPEC_CACHE_LIMIT = 1024


def resolve_backend(backend: Optional[str] = None, workers: int = 1) -> str:
    """Resolve a ``backend`` request into one of :data:`BACKENDS`.

    ``None`` falls back to the ``REPRO_BACKEND`` environment variable;
    when that is unset too, ``workers > 1`` selects ``process`` (the
    PR 2 behaviour) and anything else runs ``serial``.
    """
    if backend is None:
        backend = config.env_str(BACKEND_ENV, choices=BACKENDS)
    if backend is None:
        return "process" if workers > 1 else "serial"
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}; valid: {BACKENDS}")
    return backend


def parse_hosts(hosts=None) -> List[Tuple[str, int]]:
    """Normalize socket worker addresses into ``(host, port)`` pairs.

    Accepts a sequence of ``"host:port"`` strings (or ready
    ``(host, port)`` tuples); ``None`` falls back to the
    ``REPRO_HOSTS`` environment variable (comma-separated).
    """
    if hosts is None:
        raw = os.environ.get(HOSTS_ENV, "")
        hosts = [part for part in raw.split(",") if part.strip()]
    parsed: List[Tuple[str, int]] = []
    for entry in hosts:
        if isinstance(entry, tuple):
            host, port = entry
        else:
            host, _, port = str(entry).strip().rpartition(":")
            if not host:
                raise ValueError(
                    f"socket host {entry!r} must be 'host:port'"
                )
        parsed.append((host, int(port)))
    if not parsed:
        raise ValueError(
            "socket backend needs worker addresses: pass hosts=[...] or "
            f"set {HOSTS_ENV}; start workers with "
            "'python -m repro worker serve'"
        )
    return parsed


# -- plan ---------------------------------------------------------------


@dataclass
class _PlanCell:
    """One sweep cell: an invariant spec plus pre-spawned trial seeds."""

    kind: str
    spec: Dict[str, object]
    trials: int
    #: required-queries cells: the per-trial child seeds, in trial order
    seeds: Optional[List[np.random.SeedSequence]] = None
    #: success-curve cells: the m-grid and one seed list per grid point
    m_values: Optional[List[int]] = None
    per_m_seeds: Optional[List[List[np.random.SeedSequence]]] = None


class SweepPlan:
    """An ordered collection of sweep cells awaiting execution.

    Cells are added with the exact keyword arguments the runner entry
    points take (:func:`repro.experiments.runner.
    required_queries_trials` / :func:`~repro.experiments.runner.
    success_rate_curve`); each ``add_*`` call pre-spawns the cell's
    per-trial child seeds exactly as the serial path would, so the
    plan — not the backend — owns every source of randomness.
    ``plan.run(...)`` executes all cells through one shared work queue
    and returns one result object per cell, in add order
    (:class:`~repro.experiments.runner.RequiredQueriesSample` /
    :class:`~repro.experiments.runner.SuccessCurve`). Plans are
    reusable: ``run`` never mutates the cells.
    """

    def __init__(self) -> None:
        self._cells: List[_PlanCell] = []

    def __len__(self) -> int:
        return len(self._cells)

    def add_required_queries(
        self,
        n: int,
        k: int,
        channel,
        *,
        trials: int = 10,
        seed: RngLike = 0,
        max_m: Optional[int] = None,
        check_every: int = 1,
        gamma: Optional[int] = None,
        centering: str = "half_k",
        algorithm: str = "greedy",
        verify: str = "full",
        engine: str = "batch",
        kernel: Optional[str] = None,
        corruption=None,
    ) -> int:
        """Add one required-m cell; returns its index in the plan.

        Seed derivation matches the serial loop: ``trials`` child seeds
        spawned from ``seed`` in trial order. ``kernel`` selects the
        AMP compute backend by name (see :mod:`repro.amp.kernels`;
        AMP cells only — the greedy scan has no kernel seam).
        ``corruption`` (a :class:`~repro.core.corruption.
        CorruptionModel`) corrupts each trial's full measurement
        stream once — from a dedicated stream of the trial's child
        seed — and the cell runs the generic prefix-replay
        exact-decode scan (any algorithm; also the ``twostage`` path).
        """
        from repro.core.corruption import CorruptionModel
        from repro.experiments.runner import (
            REQUIRED_QUERIES_ALGORITHMS,
            _check_engine,
        )

        check_positive_int(trials, "trials")
        if algorithm not in REQUIRED_QUERIES_ALGORITHMS:
            raise ValueError(
                f"unknown required-queries algorithm {algorithm!r}; "
                f"valid: {REQUIRED_QUERIES_ALGORITHMS}"
            )
        if kernel is not None and algorithm != "amp":
            raise ValueError(
                f"kernel={kernel!r} selects an AMP compute backend; "
                f"algorithm {algorithm!r} has none"
            )
        if corruption is not None and not isinstance(
            corruption, CorruptionModel
        ):
            raise TypeError(
                "corruption must be a CorruptionModel, got "
                f"{type(corruption).__name__}"
            )
        spec = {
            "n": n,
            "k": k,
            "channel": channel,
            "gamma": gamma,
            "centering": centering,
            "algorithm": algorithm,
            "verify": verify,
            "engine": _check_engine(engine),
            "max_m": max_m,
            "check_every": check_every,
            "kernel": kernel,
            "corruption": corruption,
        }
        self._cells.append(
            _PlanCell(
                kind=CELL_REQUIRED,
                spec=spec,
                trials=trials,
                seeds=spawn_seeds(seed, trials),
            )
        )
        return len(self._cells) - 1

    def add_success_curve(
        self,
        n: int,
        k: int,
        channel,
        m_values: Sequence[int],
        *,
        algorithm: str = "greedy",
        trials: int = 100,
        seed: RngLike = 0,
        gamma: Optional[int] = None,
        algorithm_kwargs: Optional[dict] = None,
        engine: str = "batch",
        design: str = "replacement",
        batch_mode: str = "auto",
        corruption=None,
        fault=None,
    ) -> int:
        """Add one fixed-m success-curve cell; returns its plan index.

        Seed derivation matches the serial curve exactly: one child
        generator per grid point, then per-trial seeds spawned from it.
        ``design`` selects the pooling design (:data:`DESIGNS`); the
        non-default designs run the seed-compatible legacy per-trial
        loop, which is the one place that knows how to sample them.
        Every grid point must be ``>= 0`` (``>= 1`` for the AMP
        algorithms); a bad point raises here, before anything runs.
        ``batch_mode="auto"`` (default) lets
        :func:`repro.experiments.runner._batch_mode` pick the stacked
        chunk implementation; pass ``None`` / ``"greedy"`` / ``"amp"``
        to force one (the PR 2 scheduler API).

        ``corruption`` (a :class:`~repro.core.corruption.
        CorruptionModel`) corrupts each trial's measurements
        post-channel and forces the legacy per-trial loop (the stacked
        engines never see corrupted cells); ``fault`` (a
        :class:`~repro.core.corruption.FaultSpec`) injects seeded
        message drop/delay into the distributed protocol and is valid
        only for ``algorithm="distributed"``. Both draw from dedicated
        streams of each trial's child seed — fault realizations are
        bit-identical on every backend, worker count and chunk layout.
        """
        from repro.core.corruption import CorruptionModel, FaultSpec
        from repro.experiments.runner import (
            ALGORITHMS,
            _batch_mode,
            _check_engine,
        )

        check_positive_int(trials, "trials")
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; valid: {ALGORITHMS}"
            )
        if design not in DESIGNS:
            raise ValueError(f"unknown design {design!r}; valid: {DESIGNS}")
        engine = _check_engine(engine)
        algorithm_kwargs = algorithm_kwargs or {}
        if corruption is not None and not isinstance(
            corruption, CorruptionModel
        ):
            raise TypeError(
                "corruption must be a CorruptionModel, got "
                f"{type(corruption).__name__}"
            )
        if fault is not None:
            if not isinstance(fault, FaultSpec):
                raise TypeError(
                    f"fault must be a FaultSpec, got {type(fault).__name__}"
                )
            if algorithm != "distributed":
                raise ValueError(
                    "fault= injects message drop/delay into the "
                    "distributed protocol; algorithm "
                    f"{algorithm!r} has no network to perturb"
                )
        corrupted = corruption is not None and not corruption.is_null
        if batch_mode == "auto":
            # The stacked chunk paths only know the paper's
            # with-replacement design and honest measurements; other
            # designs — and corrupted cells — fall back to the legacy
            # per-trial loop, which handles both.
            batch_mode = (
                _batch_mode(algorithm, engine, algorithm_kwargs)
                if design == "replacement" and not corrupted
                else None
            )
        elif batch_mode is not None and design != "replacement":
            raise ValueError(
                f"batch_mode {batch_mode!r} runs the stacked "
                "with-replacement samplers and cannot honor design "
                f"{design!r}; use batch_mode='auto' or None"
            )
        elif batch_mode is not None and corrupted:
            raise ValueError(
                f"batch_mode {batch_mode!r} runs the stacked engines, "
                "which do not apply corruption; use batch_mode='auto' "
                "or None"
            )
        spec = {
            "n": n,
            "k": k,
            "channel": channel,
            "gamma": gamma,
            "algorithm": algorithm,
            "algorithm_kwargs": algorithm_kwargs,
            "batch_mode": batch_mode,
            "design": design,
            "corruption": corruption,
            "fault": fault,
        }
        m_values = [int(m) for m in m_values]
        # Reject a bad grid point now, before any chunk of the plan
        # runs (AMP standardizes by m, so it needs at least one query).
        minimum = 1 if algorithm in ("amp", "distributed_amp") else 0
        for m in m_values:
            check_positive_int(m, "m", minimum=minimum)
        per_m_seeds = [
            spawn_seeds(m_rng, trials)
            for m_rng in spawn_rngs(seed, len(m_values))
        ]
        self._cells.append(
            _PlanCell(
                kind=CELL_CURVE,
                spec=spec,
                trials=trials,
                m_values=m_values,
                per_m_seeds=per_m_seeds,
            )
        )
        return len(self._cells) - 1

    def run(
        self,
        *,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        hosts=None,
        checkpoint=None,
        auth_token: Optional[str] = None,
        connect_retry: Optional[float] = None,
        heartbeat_interval: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        speculate: Optional[float] = None,
    ) -> List[object]:
        """Execute the plan; one result object per cell, in add order.

        ``checkpoint`` names a directory for crash-safe resume (see
        the module docstring); the remaining keyword arguments tune
        the socket backend's elasticity and are documented on
        :class:`SweepExecutor`.
        """
        return SweepExecutor(
            backend=backend,
            workers=workers,
            hosts=hosts,
            checkpoint=checkpoint,
            auth_token=auth_token,
            connect_retry=connect_retry,
            heartbeat_interval=heartbeat_interval,
            heartbeat_timeout=heartbeat_timeout,
            speculate=speculate,
        ).run(self)


# -- chunk execution (shared by every backend) --------------------------


def _run_chunk(spec: Dict[str, object], kind: str, m, seeds) -> list:
    """Run one ``(cell, chunk)`` work item; used by every backend."""
    if kind == CELL_REQUIRED:
        return parallel._required_queries_chunk(spec, list(seeds))
    if kind == CELL_CURVE:
        return parallel._fixed_m_chunk(spec, int(m), list(seeds))
    if kind == CELL_FUSED:
        return parallel._fixed_m_group(spec["members"], int(m), list(seeds))
    raise ValueError(f"unknown cell kind {kind!r}")


class _SpecMissing(Exception):
    """Worker-side cache miss: the chunk arrived before its cell spec.

    Raised inside a pool worker and caught by the process backend,
    which resubmits the chunk with the pickled spec attached. At most
    one miss per worker per cell.
    """


#: per-worker interned cell specs (populated in pool worker processes)
_worker_specs: "OrderedDict[str, Dict[str, object]]" = OrderedDict()


def _intern_spec(key: str, blob: Optional[bytes]) -> Dict[str, object]:
    """Return the cell spec for ``key``, interning ``blob`` if given."""
    if blob is not None:
        spec = pickle.loads(blob)
        _worker_specs[key] = spec
        _worker_specs.move_to_end(key)
        while len(_worker_specs) > _SPEC_CACHE_LIMIT:
            _worker_specs.popitem(last=False)
        return spec
    try:
        spec = _worker_specs[key]
    except KeyError:
        raise _SpecMissing(key) from None
    _worker_specs.move_to_end(key)
    return spec


def _process_chunk(key: str, blob: Optional[bytes], kind: str, m, seeds):
    """Pool-worker entry point: intern the spec, run the chunk."""
    return _run_chunk(_intern_spec(key, blob), kind, m, seeds)


# -- executor -----------------------------------------------------------


@dataclass(frozen=True)
class _Task:
    """One work item of the flattened queue: a contiguous trial chunk."""

    cell: int  # plan cell index
    index: int  # position within the cell's task list (merge order)
    m_index: Optional[int]  # success-curve grid position (None: required)
    m: Optional[int]
    seeds: tuple  # the chunk's child seeds, in trial order
    lo: int = 0  # trial range within the cell (checkpoint identity —
    hi: int = 0  # layout-independent, unlike ``index``)


@dataclass(frozen=True)
class _Unit:
    """One dispatched work item: one cell's chunk, or a fused group's.

    ``tasks`` are the member cells' chunks; a fused group's members
    share ``m`` and seeds, and their outcomes split back per task.
    """

    uid: int  # position in the dispatch list (speculation dedup)
    kind: str
    tasks: Tuple[_Task, ...]

    @property
    def cells(self) -> Tuple[int, ...]:
        """Member cell indices — the unit's spec identity."""
        return tuple(t.cell for t in self.tasks)

    @property
    def m(self) -> Optional[int]:
        return self.tasks[0].m

    @property
    def seeds(self) -> tuple:
        return self.tasks[0].seeds


def _draw_key(cell: _PlanCell, task: _Task) -> Optional[tuple]:
    """Key under which a task's draws coincide with its siblings'.

    A stacked-engine success-curve chunk draws each trial's truth and
    then its graph from the trial's seed before the channel draws
    (:func:`repro.core.batch.draw_instance`), so chunks with equal
    ``(n, k, gamma, m)`` and equal seeds sample identical instances,
    whatever their channels and algorithm kwargs. ``None`` for every
    other task: legacy-loop cells (corrupted, non-replacement designs,
    distributed algorithms) and required-m cells.
    """
    spec = cell.spec
    if cell.kind != CELL_CURVE or spec["batch_mode"] not in ("greedy", "amp"):
        return None
    return (
        spec["n"],
        spec["k"],
        parallel._spec_gamma(spec),
        task.m,
        tuple((s.entropy, s.spawn_key, s.pool_size) for s in task.seeds),
    )


def _fuse(tasks: Sequence[_Task], cells: Sequence[_PlanCell]) -> List[_Unit]:
    """Group tasks with equal draw keys into units, in first-member order.

    A task without siblings is a group of one and keeps its cell's own
    kind and spec; a larger group runs as one ``CELL_FUSED`` item
    (:func:`repro.experiments.parallel._fixed_m_group`).
    """
    groups: List[List[_Task]] = []
    by_key: Dict[tuple, List[_Task]] = {}
    for task in tasks:
        key = _draw_key(cells[task.cell], task)
        group = by_key.get(key) if key is not None else None
        if group is None:
            group = []
            groups.append(group)
            if key is not None:
                by_key[key] = group
        group.append(task)
    return [
        _Unit(
            uid,
            CELL_FUSED if len(group) > 1 else cells[group[0].cell].kind,
            tuple(group),
        )
        for uid, group in enumerate(groups)
    ]


def _unit_spec(unit: _Unit, cells: Sequence[_PlanCell]) -> Dict[str, object]:
    """The spec a unit ships: its cell's, or the fused members' list."""
    if unit.kind == CELL_FUSED:
        return {"members": [cells[ci].spec for ci in unit.cells]}
    return cells[unit.cells[0]].spec


#: unique spec-cache keys; the pid prefix keeps keys from different
#: driver processes (which may share a worker) from colliding
_spec_key_counter = itertools.count()


def _next_spec_key(cells: Tuple[int, ...]) -> str:
    members = "+".join(map(str, cells))
    return f"{os.getpid()}:{next(_spec_key_counter)}:{members}"


class SweepExecutor:
    """Runs a :class:`SweepPlan` through one shared cross-cell queue.

    The ``process`` and ``socket`` backends ship each cell's spec at
    most once per worker and every chunk as seeds + grid indices (see
    "Per-worker payload interning" in the module docstring); the
    ``serial`` backend runs the chunks in process with no dispatch.

    Parameters
    ----------
    backend:
        ``"serial"`` / ``"process"`` / ``"socket"``; ``None`` resolves
        via :func:`resolve_backend` (env var, then worker count).
    workers:
        Worker processes for the ``process`` backend (``None``:
        ``REPRO_WORKERS``, else 1; ``0``: one per CPU) — resolved with
        :func:`repro.experiments.parallel.resolve_workers`.
    hosts:
        Socket worker addresses (``"host:port"`` strings) for the
        ``socket`` backend; ``None`` falls back to ``REPRO_HOSTS``.
    checkpoint:
        Directory for crash-safe resume (any backend): finished chunks
        and completed cells persist as they land, and a re-run of the
        same plan skips them (see the module docstring). ``None``
        consults the ``REPRO_CHECKPOINT`` environment variable; unset
        disables checkpointing.
    auth_token:
        Shared cluster token for the socket backend's frame HMAC;
        ``None`` consults ``REPRO_AUTH_TOKEN`` (and with neither set,
        frames carry an integrity-only tag — see
        :mod:`repro.experiments.worker`).
    connect_retry:
        Total seconds of bounded exponential-backoff retry for initial
        connects and mid-sweep reconnects to socket workers (``None``:
        ``REPRO_CONNECT_RETRY``, else 30).
    heartbeat_interval / heartbeat_timeout:
        Socket-backend liveness cadence: a ``ping`` probe every
        ``heartbeat_interval`` seconds while a chunk is outstanding
        (workers answer even mid-chunk), and a worker silent —
        no pong, no result — for ``heartbeat_timeout`` seconds is
        declared dead and its chunk requeued. ``None`` consults
        ``REPRO_HEARTBEAT_INTERVAL`` / ``REPRO_HEARTBEAT_TIMEOUT``
        (defaults 5 / 30).
    speculate:
        Straggler deadline in seconds for the socket backend: a chunk
        in flight longer than this is speculatively re-dispatched onto
        an idle worker, first result wins (``0`` disables). ``None``
        consults ``REPRO_SPECULATE``, else adapts to observed chunk
        durations (see :data:`SPECULATE_ENV`). Never changes outputs —
        chunks are pure functions of their seeds.
    """

    def __init__(
        self,
        *,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        hosts=None,
        checkpoint=None,
        auth_token: Optional[str] = None,
        connect_retry: Optional[float] = None,
        heartbeat_interval: Optional[float] = None,
        heartbeat_timeout: Optional[float] = None,
        speculate: Optional[float] = None,
    ) -> None:
        from repro.experiments.checkpoint import CHECKPOINT_ENV

        self.workers = parallel.resolve_workers(workers)
        self.backend = resolve_backend(backend, self.workers)
        self._hosts = hosts
        if checkpoint is None:
            checkpoint = os.environ.get(CHECKPOINT_ENV) or None
        self.checkpoint = checkpoint
        self.auth_token = auth_token
        self.connect_retry = connect_retry
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        if speculate is None:
            speculate = config.env_float(SPECULATE_ENV, minimum=0.0)
        self.speculate = speculate
        #: elasticity counters from the last socket run (speculated /
        #: reconnects / heartbeat_timeouts / retired), for tests and
        #: the chaos smoke
        self.last_socket_stats: Optional[Dict[str, object]] = None

    # ---- plan explosion ----

    def _chunks_per_cell(self) -> int:
        if self.backend == "serial":
            return 1
        if self.backend == "socket":
            return len(parse_hosts(self._hosts)) * parallel._OVERSUBSCRIBE
        return self.workers * parallel._OVERSUBSCRIBE

    def _explode(self, plan: SweepPlan) -> List[_Task]:
        """Flatten every cell into contiguous order-preserving chunks.

        A required-m cell splits its trials into the backend's chunks
        per cell. A success-curve cell already parallelises over its m
        grid, so each grid point splits its trials into only
        ``ceil(chunks / len(m_values))`` chunks: the cell still yields
        at least ``chunks`` work items (trials permitting), and each
        item keeps as many trials as possible for the stacked engines
        to share one stack.
        """
        chunks = self._chunks_per_cell()
        tasks: List[_Task] = []
        for ci, cell in enumerate(plan._cells):
            index = 0
            if cell.kind == CELL_REQUIRED:
                for lo, hi in chunk_bounds(cell.trials, chunks):
                    tasks.append(
                        _Task(ci, index, None, None,
                              tuple(cell.seeds[lo:hi]), lo, hi)
                    )
                    index += 1
            else:
                per_point = -(-chunks // max(1, len(cell.m_values)))
                for mi, m in enumerate(cell.m_values):
                    seeds = cell.per_m_seeds[mi]
                    for lo, hi in chunk_bounds(cell.trials, per_point):
                        tasks.append(
                            _Task(ci, index, mi, m,
                                  tuple(seeds[lo:hi]), lo, hi)
                        )
                        index += 1
        return tasks

    # ---- merge / fold ----

    def run(self, plan: SweepPlan) -> List[object]:
        """Execute all cells' chunks; fold each cell as it completes."""
        raw = self.run_outcomes(plan)
        from repro.experiments.runner import (
            fold_required_queries,
            fold_success_curve,
        )

        results: List[object] = []
        for cell, outcomes in zip(plan._cells, raw):
            if cell.kind == CELL_REQUIRED:
                results.append(fold_required_queries(cell.spec, outcomes))
            else:
                results.append(
                    fold_success_curve(
                        cell.spec, cell.m_values, outcomes, cell.trials
                    )
                )
        return results

    def run_outcomes(self, plan: SweepPlan) -> List[object]:
        """Execute the plan, returning raw per-cell outcome lists.

        Required-queries cells yield ``[(succeeded, required_m), ...]``
        in trial order; success-curve cells yield one
        ``[(exact, overlap), ...]`` list per grid point. This is the
        layer the PR 2 compatibility wrappers in
        :mod:`repro.experiments.parallel` consume.
        """
        tasks = self._explode(plan)
        cells = plan._cells
        # Per-cell chunk slots, filled out of completion order and
        # merged in task order — the ordered-merge half of the
        # bit-identity contract.
        slots: List[List[Optional[list]]] = [[] for _ in cells]
        remaining: List[int] = [0 for _ in cells]
        cell_tasks: List[List[_Task]] = [[] for _ in cells]
        for task in tasks:
            # task.index counts per cell in explode order, so each
            # cell's slot list lines up with its task indices.
            slots[task.cell].append(None)
            remaining[task.cell] += 1
            cell_tasks[task.cell].append(task)

        def assemble(ci: int):
            """Merge a completed cell's chunk slots into its raw value."""
            if cells[ci].kind == CELL_REQUIRED:
                return [o for chunk in slots[ci] for o in chunk]
            per_m: List[list] = [[] for _ in cells[ci].m_values]
            for task, chunk in zip(cell_tasks[ci], slots[ci]):
                per_m[task.m_index].extend(chunk)
            return per_m

        def store(task: _Task, result: list) -> None:
            if slots[task.cell][task.index] is None:
                remaining[task.cell] -= 1
            slots[task.cell][task.index] = result

        ckpt = None
        restored: Dict[int, object] = {}
        if self.checkpoint is not None:
            from repro.experiments.checkpoint import (
                SweepCheckpoint,
                chunk_key,
            )

            ckpt = SweepCheckpoint.open(self.checkpoint, plan)
            for ci in range(len(cells)):
                outcomes = ckpt.cell_outcomes(ci)
                if outcomes is not None:
                    # The whole cell survives as one record: its raw
                    # value is final, no chunks dispatch.
                    restored[ci] = outcomes
                    remaining[ci] = 0
            for task in tasks:
                if task.cell in restored:
                    continue
                stored = ckpt.chunk_outcomes(
                    chunk_key(task.cell, task.m_index, task.lo, task.hi)
                )
                if stored is not None:
                    store(task, stored)
            for ci in range(len(cells)):
                if remaining[ci] == 0 and ci not in restored and slots[ci]:
                    # Restored chunks alone completed the cell (the
                    # previous run died between its last chunk and the
                    # cell record): compact now.
                    ckpt.record_cell(ci, assemble(ci))

        def emit_task(task: _Task, result: list) -> None:
            fresh = slots[task.cell][task.index] is None
            store(task, result)
            if ckpt is not None and fresh:
                ckpt.record_chunk(
                    chunk_key(task.cell, task.m_index, task.lo, task.hi),
                    result,
                )
                if remaining[task.cell] == 0:
                    ckpt.record_cell(task.cell, assemble(task.cell))

        def emit(unit: _Unit, result: list) -> None:
            # A fused unit returns one outcome list per member; each
            # lands (and checkpoints) under its own cell's chunk key.
            members = result if unit.kind == CELL_FUSED else [result]
            for task, outcomes in zip(unit.tasks, members):
                emit_task(task, outcomes)

        # Siblings fuse only among still-pending chunks, so a resume
        # recomputes exactly the members whose records did not survive.
        units = _fuse(
            [
                t
                for t in tasks
                if t.cell not in restored and slots[t.cell][t.index] is None
            ],
            cells,
        )
        if units:
            # (a plan can be task-free — no cells, cells with empty
            # m-grids, or everything restored from the checkpoint —
            # and must still fold one result per cell)
            if self.backend == "serial":
                self._execute_serial(units, cells, emit)
            elif self.backend == "process":
                self._execute_process(units, cells, emit)
            else:
                self._execute_socket(units, cells, emit)

        missing = [ci for ci, left in enumerate(remaining) if left]
        if missing:  # pragma: no cover - backends raise before this
            raise RuntimeError(f"cells {missing} did not complete")

        raw: List[object] = []
        for ci in range(len(cells)):
            raw.append(restored[ci] if ci in restored else assemble(ci))
        return raw

    # ---- backends ----

    def _execute_serial(self, units, cells, emit) -> None:
        for unit in units:
            emit(
                unit,
                _run_chunk(_unit_spec(unit, cells), unit.kind, unit.m,
                           unit.seeds),
            )

    def _execute_process(self, units, cells, emit) -> None:
        """Submit the queue to the cached spawn pool; retry once if it
        breaks mid-sweep, resubmitting every unfinished chunk.

        Every ``pool.submit`` and ``future.result`` runs inside the
        retry scope: a ``BrokenProcessPool`` surfacing anywhere — the
        initial wave, a miss-retry resubmission, or a result — parks
        the affected chunks back on ``unsent`` and reruns them on a
        fresh pool (results are pure functions of their seeds, so the
        retry is bit-identical). A second breakage fails the sweep.
        """
        blobs = {}
        for unit in units:
            if unit.cells not in blobs:
                blobs[unit.cells] = pickle.dumps(
                    _unit_spec(unit, cells), pickle.HIGHEST_PROTOCOL
                )
        keys = {spec_id: _next_spec_key(spec_id) for spec_id in blobs}
        # Seed each unit spec into the pool with its first chunks
        # (likely to land on distinct workers); later chunks ship only
        # seeds + indices and fall back to the miss-retry protocol.
        # FIFO order matters: the blob-carrying chunks must reach the
        # pool before their spec's blob-less ones.
        unsent: "deque[Tuple[_Unit, bool]]" = deque()
        seen: Dict[Tuple[int, ...], int] = {}
        for unit in units:
            shipped = seen.get(unit.cells, 0)
            unsent.append((unit, shipped < self.workers))
            seen[unit.cells] = shipped + 1

        retried_broken = False
        while True:
            pool = parallel._get_pool(self.workers)
            pending: Dict[object, _Unit] = {}
            try:
                while unsent or pending:
                    while unsent:
                        # peek, submit, then pop — a submit() that
                        # raises BrokenProcessPool leaves the chunk
                        # queued for the fresh-pool retry
                        unit, with_blob = unsent[0]
                        blob = blobs[unit.cells] if with_blob else None
                        future = pool.submit(
                            _process_chunk, keys[unit.cells], blob,
                            unit.kind, unit.m, unit.seeds,
                        )
                        unsent.popleft()
                        pending[future] = unit
                    done, _ = wait(
                        list(pending), return_when=FIRST_COMPLETED
                    )
                    for future in done:
                        unit = pending.pop(future)
                        try:
                            result = future.result()
                        except _SpecMissing:
                            unsent.append((unit, True))
                            continue
                        except BrokenProcessPool:
                            unsent.append((unit, True))
                            raise
                        emit(unit, result)
                return
            except BrokenProcessPool:
                # A worker died (OOM kill, segfault): the whole
                # executor is broken for good.
                if retried_broken:
                    raise
                retried_broken = True
                unsent.extend((u, True) for u in pending.values())
                parallel.shutdown_pool()

    def _execute_socket(self, units, cells, emit) -> None:
        """Drive remote socket workers elastically.

        One feeder thread per host pulls chunks off the shared queue
        over an authenticated connection established with
        exponential-backoff retry. While a chunk is outstanding the
        feeder probes the worker with ``ping`` frames (answered even
        mid-chunk), so a worker silent past the heartbeat timeout is
        declared dead and its chunk requeued; a transport error
        triggers a backoff reconnect, and only
        :data:`_MAX_WORKER_FAILURES` consecutive failures (or a
        permanent auth/protocol rejection) retire the worker. The
        driver loop speculatively re-dispatches stragglers onto idle
        workers — chunks are pure functions of their seeds, so the
        first result wins and duplicates are dropped by key.
        Elasticity counters land in ``self.last_socket_stats``.
        """
        from repro.experiments import worker as worker_mod

        addresses = parse_hosts(self._hosts)
        auth_key = worker_mod.resolve_auth_key(self.auth_token)
        hb_interval = self.heartbeat_interval
        if hb_interval is None:
            hb_interval = config.env_float(
                worker_mod.HEARTBEAT_INTERVAL_ENV, positive=True
            )
            if hb_interval is None:
                hb_interval = worker_mod.DEFAULT_HEARTBEAT_INTERVAL
        hb_timeout = self.heartbeat_timeout
        if hb_timeout is None:
            hb_timeout = config.env_float(
                worker_mod.HEARTBEAT_TIMEOUT_ENV, positive=True
            )
            if hb_timeout is None:
                hb_timeout = worker_mod.DEFAULT_HEARTBEAT_TIMEOUT
        keys = {u.cells: _next_spec_key(u.cells) for u in units}
        task_queue: "queue_module.Queue[_Unit]" = queue_module.Queue()
        for unit in units:
            task_queue.put(unit)
        results: "queue_module.Queue[tuple]" = queue_module.Queue()
        done_event = threading.Event()

        # Shared elasticity state, all under one lock: completed task
        # keys (speculation dedup), in-flight chunks with start times
        # (straggler detection), idle feeders (speculation targets),
        # observed durations (the adaptive deadline), and counters.
        lock = threading.Lock()
        done_keys: set = set()
        inflight: Dict[int, Tuple[float, _Unit]] = {}
        idle: set = set()
        durations: List[float] = []
        stats = {
            "speculated": 0,
            "reconnects": 0,
            "heartbeat_timeouts": 0,
            "retired": [],
        }

        class _Abandoned(Exception):
            """The sweep finished while this feeder awaited a reply."""

        def await_reply(conn) -> tuple:
            """Read the chunk reply, probing liveness while waiting.

            Skips stray ``pong`` frames (a probe can race the result),
            raises ``OSError`` after ``hb_timeout`` of total silence,
            and :class:`_Abandoned` when the sweep completed under us.
            """
            now = time.monotonic()
            last_heard = now
            last_ping = now
            while True:
                if done_event.is_set():
                    raise _Abandoned()
                readable = worker_mod.wait_readable(
                    conn, min(worker_mod.IO_POLL_TIMEOUT, hb_interval / 2)
                )
                now = time.monotonic()
                if readable:
                    reply = worker_mod.recv_message(conn, auth_key)
                    if reply is None:
                        raise OSError("connection closed by worker")
                    last_heard = now
                    if reply[0] == "pong":
                        continue
                    return reply
                if now - last_heard > hb_timeout:
                    with lock:
                        stats["heartbeat_timeouts"] += 1
                    raise OSError(
                        f"worker silent for {now - last_heard:.1f}s "
                        f"(heartbeat timeout {hb_timeout:.1f}s): "
                        "no pong, no result"
                    )
                if now - last_ping >= hb_interval:
                    worker_mod.send_message(conn, ("ping",), auth_key)
                    last_ping = now

        def drive(address: Tuple[str, int]) -> None:
            conn = None
            failures = 0
            sent: set = set()

            def reconnect() -> bool:
                """(Re)establish the authenticated connection.

                Returns ``False`` when the worker must be retired: the
                retry budget ran out, the handshake was rejected
                (permanent), or the sweep finished while backing off.
                """
                nonlocal conn, sent
                if conn is not None:
                    conn.close()
                conn = None
                sent = set()  # new connection: worker may have restarted
                try:
                    conn = worker_mod.connect_with_retry(
                        address,
                        key=auth_key,
                        budget=self.connect_retry,
                        cancelled=done_event.is_set,
                    )
                except Exception as exc:
                    results.put(("worker-dead", address, exc))
                    return False
                return conn is not None  # None: cancelled mid-backoff

            if not reconnect():
                return
            try:
                while not done_event.is_set():
                    try:
                        unit = task_queue.get(timeout=0.05)
                    except queue_module.Empty:
                        with lock:
                            idle.add(address)
                        continue
                    key = unit.uid
                    with lock:
                        idle.discard(address)
                        if key in done_keys:
                            continue  # speculation duplicate, resolved
                        inflight[key] = (time.monotonic(), unit)
                    try:
                        if unit.cells not in sent:
                            worker_mod.send_message(
                                conn,
                                ("spec", keys[unit.cells],
                                 _unit_spec(unit, cells)),
                                auth_key,
                            )
                            sent.add(unit.cells)
                        worker_mod.send_message(
                            conn,
                            ("chunk", keys[unit.cells],
                             unit.kind, unit.m, unit.seeds),
                            auth_key,
                        )
                        start = time.monotonic()
                        reply = await_reply(conn)
                    except _Abandoned:
                        with lock:
                            inflight.pop(key, None)
                        task_queue.put(unit)
                        return
                    except Exception as exc:
                        # Not only transport errors (OSError/EOFError):
                        # a corrupted or unverifiable reply must also
                        # requeue the chunk, never die silently and
                        # hang the sweep. Requeue before reporting, so
                        # a surviving worker can pick the chunk up.
                        with lock:
                            inflight.pop(key, None)
                        task_queue.put(unit)
                        failures += 1
                        if failures >= _MAX_WORKER_FAILURES:
                            results.put(("worker-dead", address, exc))
                            return
                        results.put(("worker-retry", address, exc))
                        if not reconnect():
                            return
                        continue
                    with lock:
                        inflight.pop(key, None)
                    failures = 0  # a completed exchange resets the strike
                    if reply[0] == "ok":
                        results.put(
                            ("ok", unit, reply[1],
                             time.monotonic() - start)
                        )
                    else:
                        results.put(("task-error", unit, reply[1]))
                try:
                    worker_mod.send_message(conn, ("close",), auth_key)
                except OSError:
                    pass
            finally:
                with lock:
                    idle.discard(address)
                if conn is not None:
                    conn.close()

        def speculation_deadline() -> Optional[float]:
            if self.speculate is not None:
                return self.speculate if self.speculate > 0 else None
            if len(durations) < 3:
                return None  # not enough evidence for a deadline yet
            ordered = sorted(durations)
            q75 = ordered[(3 * (len(ordered) - 1)) // 4]
            return max(q75 * _SPECULATE_FACTOR, _SPECULATE_MIN_SECONDS)

        speculated: set = set()

        def maybe_speculate() -> None:
            deadline = speculation_deadline()
            if deadline is None:
                return
            now = time.monotonic()
            with lock:
                if not idle:
                    return  # nobody free: re-dispatch would just queue
                for key, (start, unit) in list(inflight.items()):
                    if key in speculated or key in done_keys:
                        continue
                    if now - start > deadline:
                        speculated.add(key)
                        stats["speculated"] += 1
                        task_queue.put(unit)

        threads = [
            threading.Thread(target=drive, args=(addr,), daemon=True)
            for addr in addresses
        ]
        for thread in threads:
            thread.start()
        completed = 0
        failure_notes: List[str] = []
        try:
            while completed < len(units):
                maybe_speculate()
                try:
                    message = results.get(timeout=0.25)
                except queue_module.Empty:
                    if not any(t.is_alive() for t in threads):
                        raise RuntimeError(
                            "all socket workers exited with "
                            f"{len(units) - completed} chunks unfinished"
                            + (f" (failures: {failure_notes})"
                               if failure_notes else "")
                        )
                    continue
                if message[0] == "ok":
                    _, unit, outcome, duration = message
                    with lock:
                        if unit.uid in done_keys:
                            continue  # the speculation loser
                        done_keys.add(unit.uid)
                        durations.append(duration)
                    emit(unit, outcome)
                    completed += 1
                elif message[0] == "task-error":
                    raise RuntimeError(
                        f"socket worker failed a chunk:\n{message[2]}"
                    )
                elif message[0] == "worker-retry":
                    _, address, exc = message
                    stats["reconnects"] += 1
                    failure_notes.append(
                        f"{address[0]}:{address[1]} (retried): {exc}"
                    )
                else:  # worker-dead
                    _, address, exc = message
                    stats["retired"].append(f"{address[0]}:{address[1]}")
                    failure_notes.append(
                        f"{address[0]}:{address[1]}: {exc}"
                    )
                    if len(stats["retired"]) == len(addresses):
                        raise RuntimeError(
                            "every socket worker failed: "
                            + "; ".join(failure_notes)
                        )
        finally:
            done_event.set()
            for thread in threads:
                thread.join(timeout=5.0)
            # Fold in elasticity events that raced the sweep's finish
            # (e.g. a worker declared dead just as the survivor
            # completed its requeued chunk) so the counters reflect
            # everything that happened, not just what the loop drained.
            while True:
                try:
                    message = results.get_nowait()
                except queue_module.Empty:
                    break
                if message[0] == "worker-retry":
                    stats["reconnects"] += 1
                elif message[0] == "worker-dead":
                    _, address, _ = message
                    stats["retired"].append(f"{address[0]}:{address[1]}")
            self.last_socket_stats = stats


__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "HOSTS_ENV",
    "SPECULATE_ENV",
    "DESIGNS",
    "SweepPlan",
    "SweepExecutor",
    "resolve_backend",
    "parse_hosts",
]
