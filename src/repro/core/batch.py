"""Vectorized batch simulation engine for the paper's experiments.

The figure pipelines (Figs. 2-5) historically simulated one query node
at a time: :func:`~repro.core.pooling.sample_pooling_graph` runs one
``np.unique`` per query, and
:meth:`~repro.core.incremental.IncrementalDecoder.add_query` makes one
RNG call per query. Both loops dominate every benchmark. This module
replaces them with batched equivalents:

* :func:`sample_pooling_graph_batch` draws all ``m * gamma`` edges with
  a **single** ``rng.integers`` call and assembles the CSR layout with
  one construction instead of ``m`` Python iterations: rows sorted as
  the narrowest unsigned dtype holding the agent ids (a radix sort up
  to 2**8 agents), run starts counted per row, and the runs written
  into preallocated outputs, in row chunks;
* :class:`BatchTrialRunner` runs many independent trials
  (graph -> measure -> score -> decode) with per-trial child seeds,
  stacking the decode/evaluate stages into single array operations
  across trials, and provides a **chunked** incremental simulator that
  samples queries in geometric-growth blocks while still reporting the
  *exact* first-success stopping ``m`` (the paper's query-by-query
  stopping semantics) via a certificate-pruned prefix scan;
* :func:`first_success_m` replays pre-measured data and reports the
  first query count with strictly separated scores — the scan core
  shared with the chunked simulator.

Seed compatibility
------------------
NumPy's ``Generator`` draws bounded integers, binomials and normals
element by element from the underlying bit stream, so one batched call
consumes the stream exactly like the equivalent sequence of per-query
calls.  Consequently:

* ``sample_pooling_graph_batch(n, m, gamma, rng)`` returns the *same
  graph* as the legacy per-query ``sample_pooling_graph`` for the same
  seed;
* ``BatchTrialRunner.run_trials`` reproduces the legacy
  truth/graph/measure/decode trial loop bit for bit (same per-trial
  spawned seeds, same results);
* the chunked simulator reproduces the query-by-query procedure's
  stopping ``m`` exactly for channels that draw no per-query noise
  (the noiseless channel).  Channels that do draw noise consume the
  stream in block order rather than query order, so the chunked run is
  a different — equally valid and deterministic — sample of the same
  process.

``tests/test_batch.py`` pins all of these equivalences against the
per-query references in ``tests/reference.py``, and checks that the
two required-m samples agree in distribution on noisy channels.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.chunking import chunk_bounds
from repro.core.ground_truth import GroundTruth, sample_ground_truth
from repro.core.incremental import default_max_queries
from repro.core.noise import Channel, NoiselessChannel
from repro.core.pooling import PoolingGraph, default_gamma, sample_pooling_graph
from repro.core.scores import decode_top_k_stacked, expected_query_result
from repro.core.types import ReconstructionResult, RequiredQueriesResult
from repro.utils.rng import RngLike, normalize_rng, spawn_rngs
from repro.utils.validation import check_positive_int

#: soft cap on incidence-array elements a chunked block may touch. A
#: block's draws are held in the narrow sort dtype (2 bytes per draw
#: up to 2**16 agents, 4 above), so a streamed block's peak is that
#: buffer plus one :data:`_CSR_CHUNK_DRAWS` chunk's transients: about
#: 3 bytes per draw at n=10**4 (~13 MB at the cap), 5 at n=70000.
DEFAULT_BLOCK_ELEMENTS = 2**22

#: first block size of the chunked incremental simulator; blocks then
#: grow geometrically (doubling) up to the element cap.
DEFAULT_INITIAL_BLOCK = 32

#: draws per row chunk of the CSR construction, per draw call of a
#: :class:`MeasurementStream` block, and per row slice a streaming
#: stream hands out. Bounds a chunk's transients (its int32 draws,
#: their intp cast for the 1-agent lookup, the run flags and run
#: indices) to a few MiB.
_CSR_CHUNK_DRAWS = 2**18


def _sorted_runs(draws: np.ndarray, dtype: np.dtype):
    """Sort a row chunk narrowed to ``dtype``; flag where value runs start.

    A chunk of another dtype is sorted in a narrowed copy. A chunk
    already in ``dtype`` is sorted in place: the caller hands over a
    buffer it owns (:class:`MeasurementStream` stores its blocks in
    the sort dtype for this). Returns the sorted rows, the
    ``(rows, gamma)`` run-start flags and the number of distinct
    agents per row.
    """
    rows = draws.astype(dtype, copy=False)
    # Sorted integer rows are unique, so the kind never shows in the
    # output. NumPy's radix sort ("stable") pays only for 1-byte keys;
    # for wider keys the default sort measured 2-5x faster.
    rows.sort(axis=1, kind="stable" if dtype.itemsize == 1 else None)
    starts = np.empty(rows.shape, dtype=bool)
    starts[:, 0] = True
    np.not_equal(rows[:, 1:], rows[:, :-1], out=starts[:, 1:])
    return rows, starts, np.count_nonzero(starts, axis=1)


def _write_runs(rows, starts, agents: np.ndarray, counts: np.ndarray) -> None:
    """Write a chunk's run values and run lengths into output slices."""
    idx = np.flatnonzero(starts)
    agents[:] = rows.ravel()[idx]
    np.subtract(idx[1:], idx[:-1], out=counts[:-1])
    counts[-1] = rows.size - idx[-1]


def _sort_rows(draws: np.ndarray, n: int):
    """First CSR pass: sort ``draws`` in row chunks, narrowed for ``n`` agents.

    Returns the sort dtype, the chunks' row bounds and their
    :func:`_sorted_runs`.
    """
    b, gamma = draws.shape
    dtype = np.min_scalar_type(n - 1)
    bounds = chunk_bounds(b, -(-b * gamma // _CSR_CHUNK_DRAWS))
    return dtype, bounds, [_sorted_runs(draws[lo:hi], dtype) for lo, hi in bounds]


def _fill_indptr(runs, indptr: np.ndarray) -> None:
    """Write ``indptr[1:]`` from the runs' per-row sizes, after ``indptr[0]``."""
    np.cumsum(np.concatenate([sizes for _, _, sizes in runs]), out=indptr[1:])
    indptr[1:] += indptr[0]


def _write_csr(bounds, runs, indptr, agents, counts) -> None:
    """Second CSR pass: write each chunk's runs at its ``indptr`` slice."""
    for (lo, hi), (rows, starts, _) in zip(bounds, runs):
        e_lo, e_hi = indptr[lo], indptr[hi]
        _write_runs(rows, starts, agents[e_lo:e_hi], counts[e_lo:e_hi])


def _csr_from_draws(
    draws: np.ndarray,
    n: int,
    *,
    agent_dtype: Optional[np.dtype] = np.int64,
    count_dtype: np.dtype = np.int64,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Collapse raw edge draws ``(b, gamma)`` into the CSR triple.

    Each row is sorted, and runs of equal values become one distinct
    incidence with a multiplicity — the batched equivalent of the
    per-query ``np.unique(..., return_counts=True)``. Rows are sorted as
    the narrowest unsigned integers holding ``n - 1`` (a radix sort up
    to 2**8 agents, a sort over fewer bytes than int64 above). The work
    runs in row chunks — a first pass sorts and counts the distinct
    agents per row, which fixes ``indptr``; a second pass writes each
    chunk's runs straight into its slice of the preallocated outputs.

    ``agents`` and ``counts`` take the requested dtypes, which must
    hold ``n - 1`` and ``gamma``; ``agent_dtype=None`` keeps the sort
    dtype (for consumers that only index with it). ``indptr`` is always
    int64. ``draws`` of another dtype (the int32/int64 draws) are left
    unmodified; ``draws`` already in the sort dtype are sorted in place
    (see :func:`_sorted_runs`).
    """
    dtype, bounds, runs = _sort_rows(draws, n)
    indptr = np.empty(draws.shape[0] + 1, dtype=np.int64)
    indptr[0] = 0
    _fill_indptr(runs, indptr)
    edges = int(indptr[-1])
    agents = np.empty(edges, dtype=dtype if agent_dtype is None else agent_dtype)
    counts = np.empty(edges, dtype=count_dtype)
    _write_csr(bounds, runs, indptr, agents, counts)
    return indptr, agents, counts


def _narrowest_int(limit: int) -> np.dtype:
    """The narrowest signed integer dtype holding ``0 .. limit``."""
    for dtype in (np.int8, np.int16, np.int32):
        if limit <= np.iinfo(dtype).max:
            return np.dtype(dtype)
    return np.dtype(np.int64)


def _merge_parts(*parts: List[np.ndarray]) -> Tuple[np.ndarray, ...]:
    """Concatenate each list of array parts into one array.

    Each whole array then replaces its list's parts, so a stream holds
    one copy of its arrays, and the next merge copies the whole plus
    only the parts appended since.
    """
    merged = tuple(np.concatenate(p) for p in parts)
    for p, whole in zip(parts, merged):
        p[:] = [whole]
    return merged


def _draw_agents(gen: np.random.Generator, n: int, shape) -> np.ndarray:
    """Uniform agent ids in ``[0, n)``; int32 whenever they fit.

    An int32 draw yields the same values as the default int64 one and
    leaves the generator in the same state, in half the memory.
    (Narrower draws do not: 16-bit draws consume the stream
    differently.)
    """
    if n <= 2**31:
        return gen.integers(0, n, size=shape, dtype=np.int32)
    return gen.integers(0, n, size=shape)


def _rows_of(indptr: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """CSR rows owning the incidence ``positions`` (empty rows allowed)."""
    return np.searchsorted(indptr, positions, side="right") - 1


def sample_pooling_graph_batch(
    n: int,
    m: int,
    gamma: Optional[int] = None,
    rng: RngLike = None,
    *,
    with_replacement: bool = True,
) -> PoolingGraph:
    """Draw a pooling graph from the paper's model in one vectorized pass.

    Seed-compatible with :func:`~repro.core.pooling.sample_pooling_graph`:
    for the same ``rng`` state both functions return identical graphs,
    because a single ``integers`` call of shape ``(m, gamma)`` consumes
    the generator exactly like ``m`` sequential per-query calls.

    The ``with_replacement=False`` ablation design draws each query
    without replacement; that path has no batched ``Generator``
    primitive with the same stream, so it delegates to the legacy
    per-query sampler to keep seed compatibility.
    """
    n = check_positive_int(n, "n")
    m = check_positive_int(m, "m", minimum=0)
    gamma = default_gamma(n) if gamma is None else check_positive_int(gamma, "gamma")
    if not with_replacement:
        return sample_pooling_graph(n, m, gamma, rng, with_replacement=False)
    if m == 0:
        return PoolingGraph(
            n=n,
            gamma=gamma,
            indptr=np.zeros(1, dtype=np.int64),
            agents=np.zeros(0, dtype=np.int64),
            counts=np.zeros(0, dtype=np.int64),
        )
    draws = _draw_agents(normalize_rng(rng), n, (m, gamma))
    indptr, agents, counts = _csr_from_draws(draws, n)
    # The construction guarantees the CSR invariants, so skip the
    # multi-pass __post_init__ validation on this hot path.
    return PoolingGraph._unchecked(n, gamma, indptr, agents, counts)


def draw_instance(
    n: int, k: int, m: int, gamma: int, seed: RngLike
) -> Tuple[np.random.Generator, GroundTruth, PoolingGraph]:
    """Draw one fixed-``m`` trial's ground truth and pooling graph.

    The shared prologue of every stacked fixed-``m`` path: the trial's
    generator yields the truth, then the with-replacement graph, and is
    returned positioned for the channel draw. Two trials on equal seeds
    therefore sample the same instance whatever their channels, which
    is what lets sibling sweep cells share one draw
    (:func:`draw_instance_stack`, the same prologue for a whole chunk).
    """
    gen = normalize_rng(seed)
    truth = sample_ground_truth(n, k, gen)
    return gen, truth, sample_pooling_graph_batch(n, m, gamma, gen)


class InstanceStack:
    """Many fixed-``m`` instances as one block-diagonal CSR stack.

    Trial ``t`` owns rows ``t*m .. (t+1)*m`` of the stack, its column
    ids are shifted by ``t*n``, and its incidences are exactly the rows
    :func:`draw_instance` would build on the same seed: ``indices`` are
    int32 (int64 past 2**31), ``data`` holds the multiplicities as
    float64. ``gens`` are the trials' generators positioned for the
    channel draw and ``sigma`` the ``(T, n)`` truths.

    The per-instance statistics read the whole stack in one pass each,
    with the same arithmetic as the per-graph methods of
    :class:`~repro.core.pooling.PoolingGraph`: integer sums are exact in
    float64, and :meth:`neighborhood_sums` adds each agent's terms in
    incidence order, as ``np.bincount`` does.
    """

    def __init__(self, n, m, gens, sigma, indptr, indices, data):
        from repro.core import sparsetools

        self.n, self.m = n, m
        self.gens = gens
        self.sigma = sigma
        self.indptr, self.indices, self.data = indptr, indices, data
        self._unit = None
        self._csr_matvec = sparsetools.csr_matvec
        self._csc_matvec = sparsetools.csc_matvec

    @property
    def trials(self) -> int:
        return len(self.gens)

    def _pattern_adjoint(self, z: np.ndarray) -> np.ndarray:
        """``B^T z`` for the stack's 0/1 incidence pattern ``B``, ``(T, n)``.

        One ``csc_matvec`` with unit weights: each agent's terms are
        added in incidence order, as ``np.bincount`` adds them.
        """
        if self._unit is None:
            self._unit = np.ones(self.indices.size, dtype=np.float64)
        rows, cols = self.trials * self.m, self.trials * self.n
        out = np.zeros(cols, dtype=np.float64)
        self._csc_matvec(
            cols, rows, self.indptr, self.indices, self._unit, z, out
        )
        return out.reshape(self.trials, self.n)

    def edges_into_ones(self) -> np.ndarray:
        """``E1`` per query, ``(T, m)`` float64: one product with ``sigma``."""
        rows, cols = self.trials * self.m, self.trials * self.n
        out = np.zeros(rows, dtype=np.float64)
        x = self.sigma.astype(np.float64).ravel()
        self._csr_matvec(
            rows, cols, self.indptr, self.indices, self.data, x, out
        )
        return out.reshape(self.trials, self.m)

    def distinct_degrees(self) -> np.ndarray:
        """``Delta*`` per agent, ``(T, n)`` float64."""
        return self._pattern_adjoint(
            np.ones(self.trials * self.m, dtype=np.float64)
        )

    def neighborhood_sums(self, results: np.ndarray) -> np.ndarray:
        """``Psi`` per agent, ``(T, n)``, for ``(T, m)`` query ``results``."""
        return self._pattern_adjoint(
            np.asarray(results, dtype=np.float64).ravel()
        )


def draw_instance_stack(
    n: int, k: int, m: int, gamma: int, seeds: Sequence[RngLike]
) -> InstanceStack:
    """Draw one instance per seed, as :func:`draw_instance`, into one stack.

    Each seed's generator yields the truth, then one ``(m, gamma)``
    draw of agents, and is kept positioned for the channel draw — the
    generator order of :func:`draw_instance`. Draw and sort buffers are
    per trial (and per :data:`_CSR_CHUNK_DRAWS` row chunk inside it);
    the trial's rows are written straight into the stack, whose arrays
    are allocated once at their ``T * m * min(gamma, n)`` bound and
    trimmed by view.
    """
    trials = len(seeds)
    cap = trials * m * min(gamma, n)
    index_dtype = np.int32 if max(trials * n, cap) < 2**31 else np.int64
    indptr = np.zeros(trials * m + 1, dtype=index_dtype)
    indices = np.empty(cap, dtype=index_dtype)
    data = np.empty(cap, dtype=np.float64)
    sigma = np.empty((trials, n), dtype=np.int8)
    gens = []
    for t, seed in enumerate(seeds):
        gen = normalize_rng(seed)
        sigma[t] = sample_ground_truth(n, k, gen).sigma
        gens.append(gen)
        if m == 0:
            continue
        _, bounds, runs = _sort_rows(_draw_agents(gen, n, (m, gamma)), n)
        rows = indptr[t * m : (t + 1) * m + 1]
        _fill_indptr(runs, rows)
        _write_csr(bounds, runs, rows, indices, data)
        indices[rows[0] : rows[-1]] += t * n
    edges = int(indptr[-1])
    return InstanceStack(
        n, m, gens, sigma, indptr, indices[:edges], data[:edges]
    )


class QueryStream:
    """Append-only measured query stream, replayable by row-prefix.

    The one store of every replayable query stream: a sampled trial
    grown by :meth:`MeasurementStream.grow_to` (the AMP required-m
    scan), the surviving rows of a corrupted trial
    (:class:`repro.core.corruption.CorruptedFeed`), and a decode
    service session, whose queries arrive over the wire
    (:meth:`append`). The pooling graph at ``m'`` queries is a
    row-prefix of the graph at ``m >= m'``, so :meth:`prefix` is a
    free ``indptr[:m'+1]`` / ``agents[:indptr[m']]`` slice plus the
    matching results slice — no resampling, no re-measurement.

    Agent ids are stored as int32 (when ``n <= 2**31``) and
    multiplicities in the narrowest signed integer holding ``gamma``.
    Appended rows accumulate in per-array part lists and are
    concatenated lazily on the first array access after an append —
    eager concatenation would re-copy the whole stream on every
    append, going quadratic once block growth hits the element cap
    (dense gamma at paper scale). Arrays handed out earlier (prefix
    views, :meth:`snapshot`) are never written again.

    Determinism/recovery contract: ``prefix(m)`` depends only on the
    first ``m`` appended queries, so a stream rebuilt by re-appending
    its queries in the original order is indistinguishable from the
    uninterrupted one — same arrays, same float accumulation order
    downstream. A stream has no generator of its own: growing it past
    its length raises (:class:`MeasurementStream` overrides that).
    """

    def __init__(self, n: int, gamma: int, truth: GroundTruth):
        self.n = check_positive_int(n, "n")
        self.gamma = check_positive_int(gamma, "gamma")
        if truth.sigma.size != self.n:
            raise ValueError(
                f"truth has {truth.sigma.size} agents, expected n={n}"
            )
        self.truth = truth
        #: queries stored so far
        self.m_done = 0
        self._edges = 0
        self._agent_dtype = np.dtype(np.int32 if self.n <= 2**31 else np.int64)
        self._count_dtype = _narrowest_int(self.gamma)
        self._parts: Tuple[List[np.ndarray], ...] = (
            [np.zeros(1, dtype=np.int64)],
            [np.zeros(0, dtype=self._agent_dtype)],
            [np.zeros(0, dtype=self._count_dtype)],
            [np.zeros(0)],
        )
        self._consolidated = None

    def append(self, indptr, agents, counts, results) -> None:
        """Append a block of measured queries, all or nothing.

        The block is a local CSR (``indptr`` starting at 0) plus one
        raw channel result per row. Every row must hold distinct agent
        ids in ``[0, n)`` with multiplicities ``>= 1`` summing to
        ``gamma``, and every result must be finite; otherwise
        ``ValueError`` is raised and nothing is appended.
        """
        indptr = np.asarray(indptr, dtype=np.int64)
        agents = np.asarray(agents, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        results = np.asarray(results, dtype=np.float64)
        if agents.ndim != 1 or counts.ndim != 1 or agents.size != counts.size:
            raise ValueError(
                "agents and counts must be 1-D arrays of equal length"
            )
        if (
            indptr.ndim != 1
            or indptr.size == 0
            or indptr[0] != 0
            or indptr[-1] != agents.size
            or np.any(np.diff(indptr) < 0)
        ):
            raise ValueError(
                f"indptr must rise from 0 to the {agents.size} incidences"
            )
        if results.shape != (indptr.size - 1,):
            raise ValueError(
                f"expected {indptr.size - 1} results, got shape {results.shape}"
            )
        if agents.size:
            if agents.min() < 0 or agents.max() >= self.n:
                raise ValueError(f"agent ids must lie in [0, {self.n})")
            if counts.min() < 1:
                raise ValueError("incidence counts must be >= 1")
        sums = np.diff(np.concatenate(([0], np.cumsum(counts)))[indptr])
        if np.any(sums != self.gamma):
            raise ValueError(
                f"query incidences must sum to gamma={self.gamma}, "
                f"got {int(sums[sums != self.gamma][0])}"
            )
        rows = np.repeat(np.arange(indptr.size - 1), np.diff(indptr))
        order = np.lexsort((agents, rows))
        if np.any(
            (np.diff(agents[order]) == 0) & (np.diff(rows[order]) == 0)
        ):
            raise ValueError("agent ids must be distinct within a query")
        if not np.all(np.isfinite(results)):
            raise ValueError("query results must be finite")
        self._push(indptr, agents, counts, results)

    def _push(self, indptr, agents, counts, results) -> None:
        """Append a block known to be valid (see :meth:`append`)."""
        indptr_p, agents_p, counts_p, results_p = self._parts
        indptr_p.append(indptr[1:] + self._edges)
        agents_p.append(np.asarray(agents, dtype=self._agent_dtype))
        counts_p.append(np.asarray(counts, dtype=self._count_dtype))
        results_p.append(np.asarray(results, dtype=np.float64))
        self._edges += int(indptr[-1])
        self.m_done += indptr.size - 1
        self._consolidated = None

    def _consolidate(self):
        if self._consolidated is None:
            self._consolidated = _merge_parts(*self._parts)
        return self._consolidated

    @property
    def indptr(self) -> np.ndarray:
        """Consolidated CSR ``indptr`` of the stored queries."""
        return self._consolidate()[0]

    @property
    def agents(self) -> np.ndarray:
        """Consolidated distinct-agent ids of the stored queries."""
        return self._consolidate()[1]

    @property
    def counts(self) -> np.ndarray:
        """Consolidated incidence multiplicities of the stored queries."""
        return self._consolidate()[2]

    @property
    def results(self) -> np.ndarray:
        """Consolidated channel results of the stored queries."""
        return self._consolidate()[3]

    def grow_to(self, m: int) -> None:
        """No-op within the stored length; growing past it raises.

        New queries come only through :meth:`append`, so a consumer
        asking for more than was stored is a caller bug, not something
        to paper over.
        """
        if m > self.m_done:
            raise ValueError(
                f"stream holds {self.m_done} queries and cannot grow to {m}"
            )

    def prefix(self, m: int):
        """CSR triple + results views of the first ``m`` stored queries."""
        if m > self.m_done:
            raise ValueError(
                f"prefix m={m} exceeds the stored stream length {self.m_done}"
            )
        indptr, agents, counts, results = self._consolidate()
        edges = int(indptr[m])
        return indptr[: m + 1], agents[:edges], counts[:edges], results[:m]

    def snapshot(self, m: int) -> "QueryStream":
        """A stream over the first ``m`` queries that appends never reach.

        Its arrays are the consolidated prefix views themselves (no
        copy), so a reader on another thread sees immutable arrays
        while later appends land on this stream.
        """
        views = self.prefix(m)
        snap = QueryStream(self.n, self.gamma, self.truth)
        snap._parts = tuple([view] for view in views)
        snap._consolidated = views
        snap.m_done, snap._edges = m, int(views[0][-1])
        return snap


class MeasurementStream(QueryStream):
    """Block-grown measured query stream of one trial.

    Samples one trial's query stream in geometric-growth blocks — each
    block is one ``(b, gamma)`` draw of agents plus one vectorized
    channel measurement — exactly the generator-consumption order of
    the chunked incremental simulator. E1 (the draws landing on
    1-agents, per row) is counted straight from the draws, so
    measuring a block needs no CSR. :meth:`next_block` hands out the
    next **row slice** of the current block (about
    :data:`_CSR_CHUNK_DRAWS` draws), with its CSR built only then.
    Consumers take the stream one of two ways:

    * the greedy required-queries scan calls only :meth:`next_block`,
      so a scan that stops mid-block never builds or scans the rows
      past its stopping query, and nothing is stored;
    * prefix replay (the AMP required-m scan, :func:`repro.amp.
      batch_amp.required_queries_amp`) calls :meth:`grow_to`, which
      stores the slices it pulls in the :class:`QueryStream` it is, so
      :meth:`~QueryStream.prefix` serves any grown length.

    Memory contract: a block is drawn in row chunks of about
    :data:`_CSR_CHUNK_DRAWS` draws (the same values and generator
    state as one draw) and held only in the narrow CSR sort dtype,
    which the CSR construction sorts in place. A block's peak is
    therefore that buffer (2 bytes per draw up to 2**16 agents, 4
    above) plus one chunk's transients and the block's 1-agent
    incidences, whatever the block size.

    After each :meth:`next_block` call, :attr:`slice_ones` holds the
    slice's draw-level 1-agent incidences ``(rows, agents)`` (rows
    local to the slice, repeats possible) and :attr:`block_end` says
    whether the slice closes its block.

    Determinism contract: the block schedule (sizes and order) is a
    pure function of ``(initial_block, block_elements, gamma, k,
    max_m)``, and growth only ever appends blocks, so the stream's
    first ``m`` queries — and therefore every prefix probe — are
    identical no matter which consumer drives the growth, how far past
    ``m`` it grows, or how a block is sliced. A trial is thus a pure
    function of its child seed, which is what keeps sharded and
    stacked required-m scans bit-identical to serial ones.
    """

    def __init__(
        self,
        n: int,
        gamma: int,
        channel: Channel,
        truth: GroundTruth,
        gen: RngLike = None,
        *,
        max_m: int,
        initial_block: int = DEFAULT_INITIAL_BLOCK,
        block_elements: int = DEFAULT_BLOCK_ELEMENTS,
    ):
        super().__init__(n, gamma, truth)
        self.channel = channel
        self.gen = normalize_rng(gen)
        self.max_m = check_positive_int(max_m, "max_m", minimum=0)
        self._one_flag = truth.sigma.astype(bool)
        # Bound the per-block incidence arrays (b * gamma) AND the
        # greedy scanner's (b, k) ones-prefix matrix — one shared
        # schedule for both consumers.
        self._cap = max(1, block_elements // max(self.gamma, truth.k, 1))
        self._block = min(check_positive_int(initial_block, "initial_block"), self._cap)
        #: queries sampled so far (handed out or pending in a block)
        self._sampled = 0
        #: row slices of the current block not yet handed out
        self._slices: List[tuple] = []
        self.slice_ones: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self.block_end = True

    def _sample_block(self) -> List[tuple]:
        """Draw and measure the next block; split it into row slices.

        The block is drawn in row chunks of about
        :data:`_CSR_CHUNK_DRAWS` draws: consecutive int32 draws consume
        the generator exactly like one ``(b, gamma)`` draw, because the
        buffered half-word lives in the bit generator. Each chunk's
        1-agent incidences are read from the chunk alone, and the chunk
        is then stored into one block buffer of the CSR sort dtype,
        which :func:`_csr_from_draws` sorts in place. The channel
        measures the whole block in one call, after all of its draws.

        Returns ``(lo, draws, results, one_rows, one_agents)`` per
        chunk.
        """
        b = min(self._block, self.max_m - self._sampled)
        gamma = self.gamma
        bounds = chunk_bounds(b, -(-b * gamma // _CSR_CHUNK_DRAWS))
        block = np.empty((b, gamma), dtype=np.min_scalar_type(self.n - 1))
        e1 = np.empty(b, dtype=np.int64)
        ones = []
        for r0, r1 in bounds:
            draws = _draw_agents(self.gen, self.n, (r1 - r0, gamma))
            pos = np.flatnonzero(self._one_flag.take(draws))
            rows = pos // gamma
            e1[r0:r1] = np.bincount(rows, minlength=r1 - r0)
            ones.append((rows, draws.take(pos)))
            block[r0:r1] = draws
        results = self.channel.measure(e1, gamma, self.gen)
        lo = self._sampled
        self._sampled += b
        self._block = min(self._block * 2, self._cap)
        return [
            (lo + r0, block[r0:r1], results[r0:r1], rows, agents)
            for (r0, r1), (rows, agents) in zip(bounds, ones)
        ]

    def next_block(self):
        """Hand out the next slice of the stream, sampling as needed.

        Returns ``(lo, indptr, agents, counts, results)`` — the slice's
        0-based starting query index plus its *local* CSR triple and
        raw channel results — or ``None`` once ``max_m`` queries exist.
        Nothing is stored.
        """
        if not self._slices:
            if self._sampled >= self.max_m:
                return None
            self._slices = self._sample_block()
        lo, draws, results, one_rows, one_agents = self._slices.pop(0)
        self.slice_ones = (one_rows, one_agents)
        self.block_end = not self._slices
        # Scans only index with a slice's agents, so they stay in the
        # sort dtype; grow_to stores them as int32.
        indptr, agents, counts = _csr_from_draws(
            draws, self.n, agent_dtype=None, count_dtype=self._count_dtype
        )
        return lo, indptr, agents, counts, results

    def grow_to(self, m: int) -> None:
        """Store the first ``min(m, max_m)`` queries, pulling slices.

        Replay and scan do not mix: the slices :meth:`next_block`
        handed out are not stored.
        """
        while self.m_done < min(m, self.max_m):
            self._push(*self.next_block()[1:])


class _SuccessScanner:
    """Exact first-success scan with a lazy zeros-maximum certificate.

    Checking strict score separation after every query costs O(n) per
    query in the legacy loop, and a dense O(block x n) cumulative
    matrix would make blocks no cheaper. The scanner instead tracks,
    per slice of queries:

    * exact prefix scores of all ``k`` 1-agents (a ``(b, k)``
      cumulative sum — ``k`` is tiny in every regime of the paper), and
    * exact prefix scores of one *champion* 0-agent (the current
      zeros-argmax).

    The zeros maximum is always >= the champion's score, so every
    prefix whose 1-agent minimum does not beat the champion is
    certified unsuccessful without touching the other ``n - k - 1``
    agents. Only prefixes that do beat the champion get an exact
    O(n + incidences) check, and a failed check promotes that prefix's
    zeros-argmax to champion — each exact check either terminates the
    run or strictly improves the certificate, so pre-threshold blocks
    cost O(incidences) total.

    A block may arrive in several row slices (a streaming
    :class:`MeasurementStream` hands them out one at a time); scores
    still group **per block**, not per slice. Each block's deltas
    accumulate query by query into a block-local partial score vector
    that carries across its slices — the cumulative sums start from
    it and the exact checks continue it — and the partial is folded
    into the carried scores only at block end (``s + sum(block)``).
    The suspicion test and the exact check therefore use the same
    floating-point groupings, so the certificate itself has no
    rounding slack, and the scores never depend on the slicing. The
    blockwise fold is exact — and hence identical to
    :class:`~repro.core.incremental.IncrementalDecoder` — whenever the
    deltas are half-integers (integer-valued channels under ``half_k``
    centering). For float deltas (Gaussian noise, oracle centering)
    scores agree only up to ~1 ulp of associativity error, so a
    stopping decision sitting within rounding of a score tie may in
    principle differ from the sequential scan or vary with the block
    size.
    """

    def __init__(self, truth: GroundTruth):
        self.n = truth.n
        self.ones_idx = truth.ones
        self.zeros_idx = truth.zeros
        self.scores = np.zeros(self.n, dtype=np.float64)
        self._partial = np.zeros(self.n, dtype=np.float64)
        self._one_col = np.zeros(self.n, dtype=np.int64)
        self._one_col[self.ones_idx] = np.arange(self.ones_idx.size)

    def scan(
        self,
        indptr: np.ndarray,
        agents: np.ndarray,
        deltas: np.ndarray,
        checkable: np.ndarray,
        one_rows: np.ndarray,
        one_agents: np.ndarray,
        *,
        block_end: bool = True,
    ) -> Optional[int]:
        """Scan one slice; return the first successful prefix index.

        ``deltas`` are the per-query centered result increments and
        ``checkable[t]`` flags the prefixes where the stopping rule may
        fire (the ``check_every`` stride). ``(one_rows, one_agents)``
        lists the slice's 1-agent incidences (slice-local rows; a
        repeated pair is harmless). ``block_end`` marks the last slice
        of a block. On success, returns the 0-based slice index ``t``
        (scores are left untouched — the run is over); otherwise
        ingests the slice and returns ``None``.
        """
        b = indptr.size - 1
        d_inc = np.repeat(deltas, np.diff(indptr))
        partial = self._partial
        if self.ones_idx.size == 0 or self.zeros_idx.size == 0:
            # Degenerate truths separate vacuously (margin +inf).
            hits = np.flatnonzero(checkable)
            if hits.size:
                return int(hits[0])
        else:
            k = self.ones_idx.size
            # delta depends only on the row, so every draw of a 1-agent
            # writes its row's value; cumsums start from the partial.
            ones_prefix = np.zeros((b, k), dtype=np.float64)
            ones_prefix[one_rows, self._one_col[one_agents]] = deltas[one_rows]
            ones_prefix[0] += partial[self.ones_idx]
            np.cumsum(ones_prefix, axis=0, out=ones_prefix)
            ones_prefix += self.scores[self.ones_idx]
            ones_min = ones_prefix.min(axis=1)
            zeros_now = self.scores[self.zeros_idx] + partial[self.zeros_idx]
            champion = self.zeros_idx[np.argmax(zeros_now)]
            t0 = 0
            ts = np.arange(b)
            while True:
                # Only the champion's incidences need their query row:
                # look it up in indptr.
                champ_sel = np.flatnonzero(agents == int(champion))
                champ_prefix = np.zeros(b, dtype=np.float64)
                champ_prefix[_rows_of(indptr, champ_sel)] = d_inc[champ_sel]
                champ_prefix[0] += partial[champion]
                np.cumsum(champ_prefix, out=champ_prefix)
                champ_prefix += self.scores[champion]
                cand = np.flatnonzero(checkable & (ones_min > champ_prefix) & (ts >= t0))
                if cand.size == 0:
                    break
                t = int(cand[0])
                hi = int(indptr[t + 1])
                block_t = partial.copy()
                np.add.at(block_t, agents[:hi], d_inc[:hi])
                scores_t = self.scores + block_t
                if scores_t[self.ones_idx].min() > scores_t[self.zeros_idx].max():
                    return t
                champion = self.zeros_idx[np.argmax(scores_t[self.zeros_idx])]
                t0 = t + 1
        # np.add.at adds one incidence at a time, in order: the partial
        # continues the block's query-by-query grouping across slices.
        np.add.at(partial, agents, d_inc)
        if block_end:
            self.scores += partial
            partial.fill(0.0)
        return None


def first_success_m(
    graph: PoolingGraph,
    truth: GroundTruth,
    results: np.ndarray,
    *,
    centering: str = "half_k",
    channel: Optional[Channel] = None,
    check_every: int = 1,
    block_elements: int = DEFAULT_BLOCK_ELEMENTS,
) -> Optional[int]:
    """Replay pre-measured data; return the first separated query count.

    Scans the queries of ``graph`` in order, maintaining the running
    centered scores, and returns the smallest ``m`` (a multiple of
    ``check_every``) at which the scores of 1-agents and 0-agents are
    strictly separated — what feeding the data query by query into
    :class:`~repro.core.incremental.IncrementalDecoder` and checking
    ``is_successful`` after each step reports; the match is exact for
    half-integer deltas (integer-valued channels under ``half_k``
    centering) and up to floating-point associativity (~1 ulp of the
    scores) otherwise (see :class:`_SuccessScanner`). Returns ``None``
    when no checked prefix separates.
    """
    check_every = check_positive_int(check_every, "check_every")
    if graph.n != truth.n:
        raise ValueError(f"graph has n={graph.n} agents but truth has n={truth.n}")
    results = np.asarray(results, dtype=np.float64)
    if results.shape != (graph.m,):
        raise ValueError(f"results must have shape ({graph.m},), got {results.shape}")
    if centering == "half_k":
        offset = truth.k / 2.0
    elif centering == "oracle":
        if channel is None:
            raise ValueError("oracle centering requires the channel")
        offset = expected_query_result(channel, graph.n, truth.k, graph.gamma)
    else:
        raise ValueError(
            f"unknown centering {centering!r}; valid: ('half_k', 'oracle')"
        )
    deltas = results - offset
    scanner = _SuccessScanner(truth)
    block = max(1, block_elements // max(int(graph.gamma), truth.k, 1))
    one_flag = truth.sigma.astype(bool)
    for lo in range(0, graph.m, block):
        hi = min(lo + block, graph.m)
        e_lo = int(graph.indptr[lo])
        e_hi = int(graph.indptr[hi])
        indptr = graph.indptr[lo : hi + 1] - e_lo
        agents = graph.agents[e_lo:e_hi]
        ones = np.flatnonzero(one_flag[agents])
        ms = np.arange(lo + 1, hi + 1)
        t = scanner.scan(
            indptr,
            agents,
            deltas[lo:hi],
            ms % check_every == 0,
            _rows_of(indptr, ones),
            agents[ones],
        )
        if t is not None:
            return int(ms[t])
    return None


class BatchTrialRunner:
    """Vectorized many-trial simulation for one ``(n, k, channel)`` cell.

    Two entry points, both returning the same result types as the
    legacy per-query code paths:

    * :meth:`run_trials` — fixed-``m`` reconstruction trials
      (graph -> measure -> score -> decode), sampled with per-trial
      child seeds and decoded/evaluated as one stacked computation.
      Bit-for-bit identical to running the legacy
      truth/graph/measure/:func:`~repro.core.greedy.greedy_reconstruct`
      loop over ``spawn_rngs(seed, trials)``.
    * :meth:`required_queries` — the chunked incremental simulator:
      queries are sampled in geometric-growth blocks (one RNG call per
      block instead of per query) and the exact stopping ``m`` is
      located with the certificate-pruned prefix scan of
      :class:`_SuccessScanner`, preserving the paper's query-by-query
      stopping semantics.
    """

    def __init__(
        self,
        n: int,
        k: int,
        channel: Optional[Channel] = None,
        *,
        gamma: Optional[int] = None,
        centering: str = "half_k",
        initial_block: int = DEFAULT_INITIAL_BLOCK,
        block_elements: int = DEFAULT_BLOCK_ELEMENTS,
    ):
        self.n = check_positive_int(n, "n")
        self.k = check_positive_int(k, "k")
        self.channel = channel if channel is not None else NoiselessChannel()
        self.gamma = default_gamma(n) if gamma is None else check_positive_int(gamma, "gamma")
        if centering not in ("half_k", "oracle"):
            raise ValueError(
                f"unknown centering {centering!r}; valid: ('half_k', 'oracle')"
            )
        self.centering = centering
        self._initial_block = check_positive_int(initial_block, "initial_block")
        self._block_elements = check_positive_int(block_elements, "block_elements")

    def _offset(self) -> float:
        if self.centering == "oracle":
            return expected_query_result(self.channel, self.n, self.k, self.gamma)
        return self.k / 2.0

    # -- fixed-m stacked trials -----------------------------------------

    def run_trials(
        self, m: int, trials: int, seed: RngLike = 0
    ) -> List[ReconstructionResult]:
        """Run ``trials`` independent fixed-``m`` greedy reconstructions.

        Sampling stays per-trial (each trial owns a spawned child seed,
        so any single trial can be reproduced in isolation), but
        top-``k`` decoding and evaluation run stacked across all trials.
        """
        check_positive_int(trials, "trials")
        return self.run_trials_seeded(m, spawn_rngs(seed, trials))

    def run_trials_seeded(
        self, m: int, seeds: Sequence[RngLike]
    ) -> List[ReconstructionResult]:
        """Fixed-``m`` trials on explicitly supplied per-trial seeds.

        ``seeds`` holds one pre-spawned seed (or generator) per trial —
        the entry point the multiprocess scheduler
        (:mod:`repro.experiments.parallel`) uses to run a contiguous
        chunk of a larger trial list: every trial's result depends only
        on its own seed, so sharding the seed list and concatenating
        the chunk outputs reproduces :meth:`run_trials` bit for bit.
        """
        m = check_positive_int(m, "m", minimum=0)
        trials = len(seeds)
        if trials == 0:
            return []
        n, k, offset = self.n, self.k, self._offset()
        scores = np.empty((trials, n), dtype=np.float64)
        sigma = np.empty((trials, n), dtype=np.int8)
        for t, seed_t in enumerate(seeds):
            gen, truth, graph = draw_instance(n, k, m, self.gamma, seed_t)
            e1 = graph.edges_into_ones(truth.sigma)
            results = self.channel.measure(e1, graph.query_sizes(), gen)
            psi = graph.neighborhood_sums(results)
            delta_star = graph.distinct_degrees()
            scores[t] = psi - delta_star.astype(np.float64) * offset
            sigma[t] = truth.sigma
        estimate, errors, overlap, margins = decode_top_k_stacked(
            scores, sigma, k
        )
        out: List[ReconstructionResult] = []
        for t in range(trials):
            margin = float(margins[t])
            out.append(
                ReconstructionResult(
                    estimate=estimate[t],
                    scores=scores[t],
                    exact=bool(errors[t] == 0),
                    overlap=float(overlap[t]),
                    separated=bool(margin > 0.0),
                    hamming_errors=int(errors[t]),
                    meta={
                        "algorithm": "greedy",
                        "centering": self.centering,
                        "n": n,
                        "m": m,
                        "k": k,
                        "channel": self.channel.describe(),
                        "separation_margin": margin,
                    },
                )
            )
        return out

    # -- chunked incremental simulation ---------------------------------

    def required_queries(
        self,
        rng: RngLike = None,
        *,
        max_m: Optional[int] = None,
        check_every: int = 1,
        truth: Optional[GroundTruth] = None,
    ) -> RequiredQueriesResult:
        """Chunked required-number-of-queries run (Figures 2-5).

        Samples query blocks of geometrically growing size with one RNG
        call per block, measures them through the channel in one
        vectorized call, and locates the exact first query count with
        strictly separated scores — the same stopping rule (and, for
        channels that draw no per-query noise, the same stopping ``m``
        for the same seed) as the query-by-query procedure.
        """
        check_every = check_positive_int(check_every, "check_every")
        gen = normalize_rng(rng)
        if truth is None:
            truth = sample_ground_truth(self.n, self.k, gen)
        elif truth.n != self.n or truth.k != self.k:
            raise ValueError(
                f"provided truth has (n={truth.n}, k={truth.k}), expected "
                f"(n={self.n}, k={self.k})"
            )
        if max_m is None:
            max_m = default_max_queries(self.n, self.k, self.channel)
        offset = self._offset()
        scanner = _SuccessScanner(truth)
        # The shared block-grown stream (sampling + measurement); the
        # greedy scan consumes it slice by slice and stores nothing, so
        # the slices past the stopping query are never built.
        stream = MeasurementStream(
            self.n,
            self.gamma,
            self.channel,
            truth,
            gen,
            max_m=max_m,
            initial_block=self._initial_block,
            block_elements=self._block_elements,
        )
        meta = {
            "channel": self.channel.describe(),
            "gamma": self.gamma,
            "max_m": max_m,
        }
        checks = 0
        while True:
            part = stream.next_block()
            if part is None:
                break
            lo, indptr, agents, counts, results = part
            deltas = np.asarray(results, dtype=np.float64) - offset
            ms = np.arange(lo + 1, lo + indptr.size)
            checkable = ms % check_every == 0
            t = scanner.scan(
                indptr,
                agents,
                deltas,
                checkable,
                *stream.slice_ones,
                block_end=stream.block_end,
            )
            if t is not None:
                return RequiredQueriesResult(
                    required_m=int(ms[t]),
                    n=self.n,
                    k=self.k,
                    succeeded=True,
                    checks=checks + int(np.count_nonzero(checkable[: t + 1])),
                    meta=meta,
                )
            checks += int(np.count_nonzero(checkable))
        return RequiredQueriesResult(
            required_m=None,
            n=self.n,
            k=self.k,
            succeeded=False,
            checks=checks,
            meta=meta,
        )

    def required_queries_trials(
        self,
        trials: int,
        seed: RngLike = 0,
        *,
        max_m: Optional[int] = None,
        check_every: int = 1,
    ) -> List[RequiredQueriesResult]:
        """Repeated chunked runs on independent per-trial child seeds."""
        check_positive_int(trials, "trials")
        return [
            self.required_queries(gen, max_m=max_m, check_every=check_every)
            for gen in spawn_rngs(seed, trials)
        ]


__all__ = [
    "DEFAULT_BLOCK_ELEMENTS",
    "DEFAULT_INITIAL_BLOCK",
    "sample_pooling_graph_batch",
    "first_success_m",
    "QueryStream",
    "MeasurementStream",
    "BatchTrialRunner",
]
