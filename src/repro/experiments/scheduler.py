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
count, chunk layout and algorithm (pinned in
``tests/test_scheduler.py``).

Backends
--------
``serial``
    In-process reference: runs the queue front to back with no
    pickling. The default when no sharding is requested.
``process``
    The cached :class:`~concurrent.futures.ProcessPoolExecutor` of
    :mod:`repro.experiments.parallel` (``forkserver`` on Linux,
    ``spawn`` elsewhere),
    submitting through the shared queue over the pool pipe; every
    chunk carries its own spec (a fused figure 6 spec pickles to about
    600 bytes). A ``BrokenProcessPool`` raised mid-sweep (a worker
    OOM-killed or segfaulted) is retried once on a fresh pool before
    failing the sweep. The default when ``workers > 1``.

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
stacked trial draws truth, then graph, then channel noise from its
seed. Before dispatch the executor therefore **fuses** pending chunks
whose draws coincide — same ``n``, ``k``, resolved ``gamma`` and
``m``, same seeds by ``(entropy, spawn_key)``, both on a stacked
(``greedy``/``amp``) path — into one ``CELL_FUSED`` work item:
the item's instances are drawn once, into one block-diagonal stack,
and every member measures and decodes them on its own copy of each
post-graph generator
(:func:`repro.experiments.parallel._fixed_m_group`). Members consume
exactly the generator states of their own chunks, so fusion is
bit-identical by construction; eligibility reads the cell specs only.
A fused item rides the same chunk seam on both backends, its outcomes
split back per member, and checkpoint records stay keyed per member
chunk — a resume fuses only the members still missing.

When the engine helps
---------------------
The flattened queue pays off whenever a sweep has more than one cell
and more than one worker: per-cell barriers disappear and stragglers
overlap. For a single small cell the engine degenerates to the PR 2
behaviour (one submission wave), and for ``workers=1`` the serial
backend runs the chunks with no dispatch overhead at all.
"""

from __future__ import annotations

import os
from collections import deque
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
BACKENDS = ("serial", "process")

#: environment variable consulted when ``backend`` is not given
BACKEND_ENV = "REPRO_BACKEND"

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
        corruption=None,
    ) -> int:
        """Add one required-m cell; returns its index in the plan.

        Seed derivation matches the serial loop: ``trials`` child seeds
        spawned from ``seed`` in trial order. ``corruption`` (a
        :class:`~repro.core.corruption.CorruptionModel`) corrupts each
        trial's full measurement stream once — from a dedicated stream
        of the trial's child seed — and the cell runs the
        prefix-replay exact-decode scan (any algorithm; also the
        ``twostage`` path).
        """
        from repro.core.corruption import CorruptionModel
        from repro.experiments.runner import REQUIRED_QUERIES_ALGORITHMS

        check_positive_int(trials, "trials")
        if algorithm not in REQUIRED_QUERIES_ALGORITHMS:
            raise ValueError(
                f"unknown required-queries algorithm {algorithm!r}; "
                f"valid: {REQUIRED_QUERIES_ALGORITHMS}"
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
            "max_m": max_m,
            "check_every": check_every,
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
        design: str = "replacement",
        corruption=None,
        fault=None,
    ) -> int:
        """Add one fixed-m success-curve cell; returns its plan index.

        Seed derivation matches the serial curve exactly: one child
        generator per grid point, then per-trial seeds spawned from it.
        ``design`` selects the pooling design (:data:`DESIGNS`); the
        non-default designs run the seed-compatible per-trial loop,
        which is the one place that knows how to sample them. Every
        grid point must be ``>= 0`` (``>= 1`` for the AMP algorithms);
        a bad point raises here, before anything runs. The chunk
        implementation — a stacked path or the per-trial loop — is
        derived from the cell by
        :func:`repro.experiments.runner._batch_mode`.

        ``corruption`` (a :class:`~repro.core.corruption.
        CorruptionModel`) corrupts each trial's measurements
        post-channel and runs the per-trial loop (the stacked paths
        never see corrupted cells); ``fault`` (a
        :class:`~repro.core.corruption.FaultSpec`) injects seeded
        message drop/delay into the distributed protocol and is valid
        only for ``algorithm="distributed"``. Both draw from dedicated
        streams of each trial's child seed — fault realizations are
        bit-identical on every backend, worker count and chunk layout.
        """
        from repro.core.corruption import CorruptionModel, FaultSpec
        from repro.experiments.runner import ALGORITHMS, _batch_mode

        check_positive_int(trials, "trials")
        if algorithm not in ALGORITHMS:
            raise ValueError(
                f"unknown algorithm {algorithm!r}; valid: {ALGORITHMS}"
            )
        if design not in DESIGNS:
            raise ValueError(f"unknown design {design!r}; valid: {DESIGNS}")
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
        # The stacked chunk paths only know the paper's with-replacement
        # design and honest measurements; other designs — and corrupted
        # cells — run the per-trial loop, which handles both.
        batch_mode = _batch_mode(algorithm, algorithm_kwargs)
        if design != "replacement" or corrupted:
            batch_mode = None
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
        # Reject a bad grid point now, before any chunk of the plan
        # runs (AMP standardizes by m, so it needs at least one query).
        minimum = 1 if algorithm in ("amp", "distributed_amp") else 0
        m_values = [
            check_positive_int(m, "m", minimum=minimum) for m in m_values
        ]
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
        checkpoint=None,
    ) -> List[object]:
        """Execute the plan; one result object per cell, in add order.

        The arguments are documented on :class:`SweepExecutor`;
        ``checkpoint`` names a directory for crash-safe resume (see
        the module docstring).
        """
        return SweepExecutor(
            backend=backend, workers=workers, checkpoint=checkpoint
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

    A stacked success-curve chunk draws each trial's truth and then its
    graph from the trial's seed before the channel draws
    (:func:`repro.core.batch.draw_instance`), so chunks with equal
    ``(n, k, gamma, m)`` and equal seeds sample identical instances,
    whatever their channels and algorithm kwargs. ``None`` for every
    other task: per-trial-loop cells (corrupted, non-replacement
    designs, distributed algorithms) and required-m cells.
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
            CELL_FUSED if len(group) > 1 else cells[group[0].cell].kind,
            tuple(group),
        )
        for group in groups
    ]


def _unit_spec(unit: _Unit, cells: Sequence[_PlanCell]) -> Dict[str, object]:
    """The spec a unit ships: its cell's, or the fused members' list."""
    if unit.kind == CELL_FUSED:
        return {"members": [cells[ci].spec for ci in unit.cells]}
    return cells[unit.cells[0]].spec


class SweepExecutor:
    """Runs a :class:`SweepPlan` through one shared cross-cell queue.

    The ``process`` backend submits every chunk to the pool as
    ``_run_chunk(spec, kind, m, seeds)``; the ``serial`` backend runs
    the chunks in process with no dispatch.

    Parameters
    ----------
    backend:
        ``"serial"`` / ``"process"``; ``None`` resolves via
        :func:`resolve_backend` (env var, then worker count).
    workers:
        Worker processes for the ``process`` backend (``None``:
        ``REPRO_WORKERS``, else 1; ``0``: one per CPU) — resolved with
        :func:`repro.experiments.parallel.resolve_workers`.
    checkpoint:
        Directory for crash-safe resume (either backend): finished
        chunks and completed cells persist as they land, and a re-run
        of the same plan skips them (see the module docstring).
        ``None`` consults the ``REPRO_CHECKPOINT`` environment
        variable; unset disables checkpointing.
    """

    def __init__(
        self,
        *,
        backend: Optional[str] = None,
        workers: Optional[int] = None,
        checkpoint=None,
    ) -> None:
        from repro.experiments.checkpoint import CHECKPOINT_ENV

        self.workers = parallel.resolve_workers(workers)
        self.backend = resolve_backend(backend, self.workers)
        if checkpoint is None:
            checkpoint = os.environ.get(CHECKPOINT_ENV) or None
        self.checkpoint = checkpoint

    # ---- plan explosion ----

    def _chunks_per_cell(self) -> int:
        if self.backend == "serial":
            return 1
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
        ``[(exact, overlap), ...]`` list per grid point.
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
            else:
                self._execute_process(units, cells, emit)

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
        """Submit the queue to the cached pool; retry once if it
        breaks mid-sweep, resubmitting every unfinished chunk.

        Every ``pool.submit`` and ``future.result`` runs inside the
        retry scope: a ``BrokenProcessPool`` surfacing anywhere — the
        initial wave or a result — parks the affected chunks back on
        ``unsent`` and reruns them on a fresh pool (results are pure
        functions of their seeds, so the retry is bit-identical). A
        second breakage fails the sweep.
        """
        unsent: "deque[_Unit]" = deque(units)
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
                        unit = unsent[0]
                        future = pool.submit(
                            _run_chunk, _unit_spec(unit, cells),
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
                        except BrokenProcessPool:
                            unsent.append(unit)
                            raise
                        emit(unit, result)
                return
            except BrokenProcessPool:
                # A worker died (OOM kill, segfault): the whole
                # executor is broken for good.
                if retried_broken:
                    raise
                retried_broken = True
                unsent.extend(pending.values())
                parallel.shutdown_pool()


__all__ = [
    "BACKENDS",
    "BACKEND_ENV",
    "DESIGNS",
    "SweepPlan",
    "SweepExecutor",
    "resolve_backend",
]
