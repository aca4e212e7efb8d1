"""Fault scenarios for the *modeled* system: corrupted measurements.

The paper assumes an honest noise channel and reliable links. This
module perturbs that model — adversarial result flips, heavy-tailed
outliers, erased query results, dead pool-agents whose queries vanish —
as a first-class, deterministic sweep dimension:

* :class:`CorruptionModel` is a frozen, picklable spec of post-channel
  measurement corruption, applied to a :class:`~repro.core.measurement.
  Measurements` object by :func:`apply_corruption`;
* :class:`FaultSpec` is the matching frozen spec for *network* faults
  (message drop/delay in the distributed protocol), built into a seeded
  :class:`~repro.distributed.network.FaultModel` per trial;
* the seeding rule below makes every fault realization a pure function
  of the trial's child seed, extending the repo's bit-identity
  invariant (any backend / worker count / chunk layout reproduces the
  identical faulty run) to faults.

Seeding rule
------------
Each trial already owns a child :class:`numpy.random.SeedSequence`
spawned by the sweep plan. Fault randomness must be independent of the
trial's instance randomness (truth, graph, channel noise) *without*
consuming draws from the trial generator — and without calling
``seq.spawn()``, which mutates the sequence's spawn counter and would
make plan reuse order-dependent. Instead a dedicated stream is derived
by extending the spawn key with a fixed tag::

    SeedSequence(entropy=seq.entropy,
                 spawn_key=seq.spawn_key + (STREAM_KEY,))

Two distinct tags keep the measurement-corruption stream and the
network-fault stream independent (a cell can carry both specs):
:func:`corruption_rng` and :func:`network_fault_rng`. Trial-spawned
children never collide with these streams — ``spawn()`` assigns
ascending small integers, the tags are large fixed constants.

Corruption semantics
--------------------
:func:`apply_corruption` applies the stages in a fixed, documented
order. The dead-agent stage draws one uniform per agent; the
per-query stages (2-4) then share one query-major ``(m, stages)``
draw, one row per query and one column per active stage (two for
outliers). Query ``j``'s corruption is thus a function of its own row
alone: realizations are independent of any chunk layout, and
corrupting a longer stream leaves the corruption of its first queries
unchanged (so the ``max_m`` budget of a required-m scan does not
change how the queries it shares with a longer scan are corrupted):

1. **dead agents** — each of the ``n`` agents dies independently with
   ``dead_agent_rate``; every query touching a dead agent is dropped
   (its result never arrives);
2. **erasures** — each query result is independently lost with
   ``erasure_rate``;
3. **adversarial flips** — each surviving result is independently
   flipped with ``flip_rate``: integer-valued channels mirror the
   count (``y -> size - y``, the worst-case sign-inverting adversary),
   Gaussian channels negate (``y -> -y``);
4. **heavy-tailed outliers** — with ``outlier_rate`` a query result
   gains ``outlier_scale`` times a standard-Cauchy value
   ``tan(π(u - 1/2))`` of the query's second outlier uniform
   (undetectable by variance-based filters).

Stages with zero rate consume no draws, so a model's realization is a
pure function of ``(model, rng)``; the null model is a bit-identical
no-op. Dropped queries (stages 1-2) are removed as CSR rows — the
corrupted graph never invents edges, it only forgets queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.core.batch import QueryStream
from repro.core.measurement import Measurements
from repro.core.pooling import PoolingGraph
from repro.utils.rng import RngLike
from repro.utils.validation import check_non_negative, check_probability

#: spawn-key tag of the measurement-corruption stream ("corr" in ASCII)
CORRUPTION_STREAM_KEY = 0x636F7272

#: spawn-key tag of the network-fault stream ("netw" in ASCII)
NETWORK_STREAM_KEY = 0x6E657477


def fault_stream(
    seed: RngLike, stream_key: int
) -> np.random.SeedSequence:
    """Derive the dedicated fault ``SeedSequence`` for one trial.

    Extends the trial seed's spawn key with ``stream_key`` instead of
    calling ``spawn()`` — no state is mutated, so deriving the stream
    any number of times (or never) cannot change any other draw.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.SeedSequence(
        entropy=seed.entropy,
        spawn_key=tuple(seed.spawn_key) + (int(stream_key),),
    )


def corruption_rng(seed: RngLike) -> np.random.Generator:
    """The trial's measurement-corruption generator (see module docs)."""
    return np.random.default_rng(fault_stream(seed, CORRUPTION_STREAM_KEY))


def network_fault_rng(seed: RngLike) -> np.random.Generator:
    """The trial's network-fault generator (see module docs)."""
    return np.random.default_rng(fault_stream(seed, NETWORK_STREAM_KEY))


@dataclass(frozen=True)
class CorruptionModel:
    """Spec of post-channel measurement corruption (picklable, frozen).

    All rates are probabilities in ``[0, 1]``; the all-zero model is a
    guaranteed no-op (:attr:`is_null`). Being frozen and hashable, the
    spec embeds directly in sweep cell specs and the checkpoint plan
    fingerprint.
    """

    #: adversarial flip probability per query result
    flip_rate: float = 0.0
    #: heavy-tailed (Cauchy) outlier probability per query result
    outlier_rate: float = 0.0
    #: scale of the Cauchy outlier additive term
    outlier_scale: float = 5.0
    #: erasure (lost result) probability per query
    erasure_rate: float = 0.0
    #: death probability per pool agent (dead agents' queries vanish)
    dead_agent_rate: float = 0.0

    def __post_init__(self) -> None:
        for name in (
            "flip_rate", "outlier_rate", "erasure_rate", "dead_agent_rate"
        ):
            check_probability(getattr(self, name), name, allow_one=True)
        check_non_negative(self.outlier_scale, "outlier_scale")

    @property
    def is_null(self) -> bool:
        """Whether applying the model is guaranteed to be a no-op."""
        return (
            self.flip_rate == 0.0
            and self.outlier_rate == 0.0
            and self.erasure_rate == 0.0
            and self.dead_agent_rate == 0.0
        )

    def describe(self) -> str:
        """Compact label naming only the active stages."""
        parts = []
        if self.dead_agent_rate:
            parts.append(f"dead={self.dead_agent_rate:g}")
        if self.erasure_rate:
            parts.append(f"erase={self.erasure_rate:g}")
        if self.flip_rate:
            parts.append(f"flip={self.flip_rate:g}")
        if self.outlier_rate:
            parts.append(
                f"outlier={self.outlier_rate:g}x{self.outlier_scale:g}"
            )
        return "corruption(" + ", ".join(parts) + ")" if parts else "none"


@dataclass(frozen=True)
class FaultSpec:
    """Spec of network faults for distributed sweep cells (frozen).

    The picklable counterpart of :class:`~repro.distributed.network.
    FaultModel`: a cell spec carries the rates, and each trial builds a
    live model seeded from its own child seed (:meth:`build` with
    :func:`network_fault_rng`). Faults are restricted to the query
    broadcasts (``QueryResultMessage``) — Algorithm 1's sorting network
    requires reliable compare-exchange links.
    """

    #: message drop probability
    drop: float = 0.0
    #: message delay probability
    delay: float = 0.0
    #: maximum extra delivery delay in rounds (required when delay > 0)
    max_delay: int = 0

    def __post_init__(self) -> None:
        check_probability(self.drop, "drop", allow_one=True)
        check_probability(self.delay, "delay", allow_one=True)
        if self.delay > 0.0 and self.max_delay < 1:
            raise ValueError("delay > 0 requires max_delay >= 1")

    @property
    def is_null(self) -> bool:
        return self.drop == 0.0 and self.delay == 0.0

    def describe(self) -> str:
        parts = []
        if self.drop:
            parts.append(f"drop={self.drop:g}")
        if self.delay:
            parts.append(f"delay={self.delay:g}<={self.max_delay}")
        return "fault(" + ", ".join(parts) + ")" if parts else "none"

    def build(self, rng: RngLike):
        """Instantiate a seeded live fault model for one trial."""
        from repro.distributed.messages import QueryResultMessage
        from repro.distributed.network import FaultModel

        return FaultModel(
            drop_probability=self.drop,
            delay_probability=self.delay,
            max_delay=self.max_delay,
            affected_types=(QueryResultMessage,),
            rng=rng,
        )


@dataclass(frozen=True)
class CorruptionReport:
    """Outcome of applying a :class:`CorruptionModel` to measurements.

    ``measurements`` is the corrupted object the decoder sees (dropped
    queries removed). The remaining fields are aligned to the
    *original* query indices, so any prefix of the stream can be
    carved out of one realization: ``kept[j]`` says whether original
    query ``j`` survived, and ``results_full[j]`` is its (possibly
    flipped / outlier-shifted) result value regardless of survival.
    """

    measurements: Measurements
    kept: np.ndarray
    results_full: np.ndarray
    flipped: int = 0
    outliers: int = 0
    erased: int = 0
    dead_agents: int = 0
    dropped_queries: int = 0


def _drop_rows(
    graph: PoolingGraph, kept: np.ndarray
) -> Tuple[PoolingGraph, np.ndarray]:
    """Remove the masked-out CSR rows; returns (graph, edge mask)."""
    row_sizes = np.diff(graph.indptr)
    edge_mask = np.repeat(kept, row_sizes)
    new_indptr = np.zeros(int(kept.sum()) + 1, dtype=np.int64)
    np.cumsum(row_sizes[kept], out=new_indptr[1:])
    return (
        PoolingGraph._unchecked(
            graph.n,
            graph.gamma,
            new_indptr,
            graph.agents[edge_mask],
            graph.counts[edge_mask],
        ),
        edge_mask,
    )


def _dead_agent_mask(
    model: CorruptionModel, rng: np.random.Generator, n: int
) -> Optional[np.ndarray]:
    """Stage 1's draw: one uniform per agent (none at zero rate)."""
    if not model.dead_agent_rate:
        return None
    return rng.random(n) < model.dead_agent_rate


def _corrupt_queries(
    graph: PoolingGraph,
    results: np.ndarray,
    integer_valued: bool,
    model: CorruptionModel,
    dead: Optional[np.ndarray],
    rng: np.random.Generator,
):
    """Stages 1-4 on a run of consecutive queries.

    ``dead`` is the run's stage-1 mask (:func:`_dead_agent_mask`,
    drawn once per trial). Returns ``(kept, corrupted, erased,
    flipped, outliers)``: the survival mask and the corrupted results
    of every query of the run. The per-query stages draw one
    ``(m, stages)`` block, so corrupting a stream run by run, in
    order, draws the same values as corrupting it whole.
    """
    m = graph.m
    corrupted = np.array(results, dtype=np.float64)
    kept = np.ones(m, dtype=bool)

    # 1. dead agents: their queries never report.
    if dead is not None and dead.any():
        flags = dead[graph.agents]
        row_sizes = np.diff(graph.indptr)
        nonempty = row_sizes > 0
        touched = np.zeros(m, dtype=bool)
        if flags.size:
            touched[nonempty] = (
                np.add.reduceat(flags, graph.indptr[:-1][nonempty]) > 0
            )
        kept &= ~touched

    # 2-4. the per-query stages share one query-major draw: row j holds
    # query j's uniforms, one column per active stage (two for
    # outliers), so its corruption never depends on how many queries
    # follow it.
    stages = (
        bool(model.erasure_rate)
        + bool(model.flip_rate)
        + 2 * bool(model.outlier_rate)
    )
    columns = iter(rng.random((m, stages)).T)

    # 2. erasures: per-query result loss.
    erased = 0
    if model.erasure_rate:
        erase_mask = next(columns) < model.erasure_rate
        erased = int(erase_mask.sum())
        kept &= ~erase_mask

    # 3. adversarial flips: mirror counting channels, negate Gaussian.
    flipped = 0
    if model.flip_rate:
        flip_mask = next(columns) < model.flip_rate
        flipped = int(flip_mask.sum())
        if integer_valued:
            sizes = graph.query_sizes()
            corrupted[flip_mask] = (
                sizes[flip_mask] - corrupted[flip_mask]
            )
        else:
            corrupted[flip_mask] = -corrupted[flip_mask]

    # 4. heavy-tailed outliers: additive scaled Cauchy, by inversion
    # of the column's own uniforms.
    outliers = 0
    if model.outlier_rate:
        out_mask = next(columns) < model.outlier_rate
        cauchy = np.tan(np.pi * (next(columns)[out_mask] - 0.5))
        outliers = int(out_mask.sum())
        corrupted[out_mask] += model.outlier_scale * cauchy
    return kept, corrupted, erased, flipped, outliers


def apply_corruption(
    measurements: Measurements,
    model: Optional[CorruptionModel],
    rng: RngLike,
) -> CorruptionReport:
    """Apply ``model`` to ``measurements``; see the module docstring.

    ``rng`` must be the trial's dedicated corruption generator
    (:func:`corruption_rng` on the trial's child seed) so the
    realization is a pure function of the child seed — the sweep
    engine's bit-identity contract. A ``None`` or null model returns
    the original object untouched (bit-identical fast path).
    """
    graph = measurements.graph
    m = graph.m
    if model is None or model.is_null:
        return CorruptionReport(
            measurements=measurements,
            kept=np.ones(m, dtype=bool),
            results_full=measurements.results,
        )
    rng = (
        rng
        if isinstance(rng, np.random.Generator)
        else np.random.default_rng(rng)
    )
    dead = _dead_agent_mask(model, rng, graph.n)
    kept, corrupted, erased, flipped, outliers = _corrupt_queries(
        graph,
        measurements.results,
        measurements.channel.integer_valued,
        model,
        dead,
        rng,
    )
    if kept.all():
        new_graph, new_results = graph, corrupted
    else:
        new_graph, _ = _drop_rows(graph, kept)
        new_results = corrupted[kept]
    return CorruptionReport(
        measurements=Measurements(
            graph=new_graph,
            truth=measurements.truth,
            channel=measurements.channel,
            results=new_results,
        ),
        kept=kept,
        results_full=corrupted,
        flipped=flipped,
        outliers=outliers,
        erased=erased,
        dead_agents=0 if dead is None else int(dead.sum()),
        dropped_queries=int(m - kept.sum()),
    )


class CorruptedFeed:
    """A trial's corrupted queries, stored as its source stream grows.

    :meth:`grow_to` pulls the source's next slices
    (:meth:`~repro.core.batch.MeasurementStream.next_block`), corrupts
    each with the stages of :func:`apply_corruption` — the dead-agent
    mask is drawn once, then each slice draws its own ``(b, stages)``
    uniforms — and appends only the surviving rows to :attr:`store`.
    Consecutive per-slice draws give the values of one whole-stream
    draw, so the store holds exactly the rows :func:`apply_corruption`
    keeps on the whole grown stream, but the source grows only as far
    as the scan probes.
    """

    def __init__(self, source, model: CorruptionModel, rng: np.random.Generator):
        self.source = source
        self.model = model
        self.rng = rng
        self.store = QueryStream(source.n, source.gamma, source.truth)
        self._dead = _dead_agent_mask(model, rng, source.n)
        #: survivors among the first j source queries, for j = 0, 1, ...
        self._survivors = np.zeros(1, dtype=np.int64)

    def grow_to(self, m: int) -> int:
        """Corrupt the source through query ``m``; return its survivors.

        The store's first ``grow_to(m)`` queries are then the
        corrupted prefix of the first ``m`` source queries.
        """
        source = self.source
        while self._survivors.size <= m:
            _, indptr, agents, counts, results = source.next_block()
            graph = PoolingGraph._unchecked(
                source.n, source.gamma, indptr, agents, counts
            )
            kept, corrupted, *_ = _corrupt_queries(
                graph,
                results,
                source.channel.integer_valued,
                self.model,
                self._dead,
                self.rng,
            )
            graph, _ = _drop_rows(graph, kept)
            self.store._push(
                graph.indptr, graph.agents, graph.counts, corrupted[kept]
            )
            self._survivors = np.concatenate(
                (self._survivors, self._survivors[-1] + np.cumsum(kept))
            )
        return int(self._survivors[m])


__all__ = [
    "CORRUPTION_STREAM_KEY",
    "NETWORK_STREAM_KEY",
    "CorruptionModel",
    "CorruptionReport",
    "CorruptedFeed",
    "FaultSpec",
    "apply_corruption",
    "corruption_rng",
    "fault_stream",
    "network_fault_rng",
]
