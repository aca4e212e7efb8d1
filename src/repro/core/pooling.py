"""Random pooling designs: the bipartite query multigraph.

The paper's pooling model (Section II): each of the ``m`` query nodes
independently draws ``Gamma = n/2`` agents uniformly at random **with
replacement** from the agent set. An instance is therefore a bipartite
multigraph between agents and queries; an edge with multiplicity ``c``
means the agent appears ``c`` times in that query.

This module stores the graph in a compressed sparse row (CSR) layout
over the *distinct* incidences together with integer multiplicities:

* ``indptr``  — shape ``(m + 1,)``; query ``j`` owns the slice
  ``indptr[j]:indptr[j+1]`` of the two arrays below;
* ``agents``  — distinct agent ids per query (strictly increasing within
  a query);
* ``counts``  — multiplicity of each ``(query, agent)`` incidence.

The layout supports everything the algorithms need:

* per-query results require ``sum(counts * sigma[agents])`` (the number
  of edges into 1-agents),
* the greedy decoder needs the *distinct* incidence only
  (``Psi[agents] += result``),
* degree statistics ``Delta`` (with multiplicity) and ``Delta*``
  (distinct) fall out of column sums.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, normalize_rng
from repro.utils.validation import check_positive_int


def default_gamma(n: int) -> int:
    """The paper's query size ``Gamma = n / 2`` (at least 1)."""
    n = check_positive_int(n, "n")
    return max(1, n // 2)


def sample_query(
    n: int, gamma: int, rng: RngLike = None
) -> Tuple[np.ndarray, np.ndarray]:
    """Draw one query: ``gamma`` agents uniformly at random with replacement.

    Returns
    -------
    (agents, counts):
        ``agents`` are the distinct sampled agent ids (sorted) and
        ``counts`` their multiplicities; ``counts.sum() == gamma``.
    """
    n = check_positive_int(n, "n")
    gamma = check_positive_int(gamma, "gamma")
    gen = normalize_rng(rng)
    draws = gen.integers(0, n, size=gamma)
    agents, counts = np.unique(draws, return_counts=True)
    return agents.astype(np.int64, copy=False), counts.astype(np.int64, copy=False)


@dataclass(frozen=True)
class PoolingGraph:
    """An immutable bipartite pooling multigraph in CSR layout.

    Use :func:`sample_pooling_graph` to draw one from the paper's model,
    or :class:`PoolingGraphBuilder` to grow one query by query.
    """

    n: int
    gamma: int
    indptr: np.ndarray
    agents: np.ndarray
    counts: np.ndarray

    def __post_init__(self) -> None:
        indptr = np.asarray(self.indptr, dtype=np.int64)
        agents = np.asarray(self.agents, dtype=np.int64)
        counts = np.asarray(self.counts, dtype=np.int64)
        if indptr.ndim != 1 or indptr.size == 0 or indptr[0] != 0:
            raise ValueError("indptr must be 1-D with indptr[0] == 0")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if indptr[-1] != agents.size or agents.size != counts.size:
            raise ValueError("indptr/agents/counts sizes are inconsistent")
        if agents.size and (agents.min() < 0 or agents.max() >= self.n):
            raise ValueError("agent ids out of range")
        if counts.size and counts.min() < 1:
            raise ValueError("multiplicities must be >= 1")
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "counts", counts)

    @classmethod
    def _unchecked(
        cls,
        n: int,
        gamma: int,
        indptr: np.ndarray,
        agents: np.ndarray,
        counts: np.ndarray,
    ) -> "PoolingGraph":
        """Internal constructor skipping ``__post_init__`` validation.

        Only for callers that guarantee the CSR invariants by
        construction (the batch sampler): validation costs several full
        passes over the incidence arrays, which is significant on the
        hot sampling path.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "agents", agents)
        object.__setattr__(self, "counts", counts)
        return self

    # -- basic shape ----------------------------------------------------

    @property
    def m(self) -> int:
        """Number of queries."""
        return int(self.indptr.size - 1)

    @property
    def total_edges(self) -> int:
        """Total number of edges counted with multiplicity (= m * gamma)."""
        return int(self.counts.sum())

    def query(self, j: int) -> Tuple[np.ndarray, np.ndarray]:
        """Distinct agents and multiplicities of query ``j`` (views)."""
        if not 0 <= j < self.m:
            raise IndexError(f"query index {j} out of range [0, {self.m})")
        lo, hi = int(self.indptr[j]), int(self.indptr[j + 1])
        return self.agents[lo:hi], self.counts[lo:hi]

    def iter_queries(self) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Iterate over ``(agents, counts)`` pairs of all queries."""
        for j in range(self.m):
            yield self.query(j)

    def query_sizes(self) -> np.ndarray:
        """Number of edges (with multiplicity) per query.

        For the paper's design every query has exactly ``gamma`` edges,
        but variable-size designs (e.g. the constant-column-weight
        design of :func:`sample_regular_design`) have random per-query
        sizes whose *expectation* is the stored ``gamma`` — consumers
        that need the realized sizes (noise laws, channel estimators)
        must use this method rather than the ``gamma`` attribute.
        """
        sizes = np.zeros(self.m, dtype=np.int64)
        nonempty = np.flatnonzero(np.diff(self.indptr) > 0)
        if nonempty.size:
            sizes[nonempty] = np.add.reduceat(
                self.counts, self.indptr[nonempty], dtype=np.int64
            )
        return sizes

    def distinct_sizes(self) -> np.ndarray:
        """Number of distinct agents per query (``|∂* a_j|``)."""
        return np.diff(self.indptr)

    # -- degrees ----------------------------------------------------------

    def multi_degrees(self) -> np.ndarray:
        """``Delta_i``: how often agent ``i`` is queried, with multiplicity."""
        # float64 sums of integer counts are exact below 2**53
        deg = np.bincount(self.agents, weights=self.counts, minlength=self.n)
        return deg.astype(np.int64)

    def distinct_degrees(self) -> np.ndarray:
        """``Delta*_i``: number of distinct queries containing agent ``i``."""
        return np.bincount(self.agents, minlength=self.n).astype(np.int64, copy=False)

    # -- measurement support ----------------------------------------------

    def edges_into_ones(self, sigma: np.ndarray) -> np.ndarray:
        """Per query, the number of edges into 1-agents (``E1_j``).

        Because bits are 0/1 this equals the *noiseless* query result
        ``sum_{x in ∂a_j} sigma_x`` (with multiplicity), and it is the
        sufficient statistic for every channel in :mod:`repro.core.noise`.
        """
        sigma = np.asarray(sigma)
        if sigma.shape != (self.n,):
            raise ValueError(f"sigma must have shape ({self.n},), got {sigma.shape}")
        weighted = self.counts * sigma[self.agents].astype(np.int64)
        out = np.zeros(self.m, dtype=np.int64)
        nonempty = np.flatnonzero(np.diff(self.indptr) > 0)
        if nonempty.size:
            out[nonempty] = np.add.reduceat(weighted, self.indptr[nonempty])
        return out

    def neighborhood_sums(self, results: np.ndarray) -> np.ndarray:
        """``Psi_i = sum_j 1{a_j in ∂* x_i} results_j`` for all agents.

        This is the distributed algorithm's score accumulation: every
        query broadcasts its (noisy) result to its *distinct* neighbors.
        """
        results = np.asarray(results, dtype=np.float64)
        if results.shape != (self.m,):
            raise ValueError(f"results must have shape ({self.m},), got {results.shape}")
        per_incidence = np.repeat(results, np.diff(self.indptr))
        # bincount adds in input order, exactly as np.add.at would (and
        # returns integers for an empty graph, hence the cast)
        psi = np.bincount(self.agents, weights=per_incidence, minlength=self.n)
        return psi.astype(np.float64, copy=False)

    # -- conversions -------------------------------------------------------

    def adjacency_dense(self, dtype=np.float64) -> np.ndarray:
        """Dense ``(m, n)`` adjacency with multiplicities (for AMP)."""
        a = np.zeros((self.m, self.n), dtype=dtype)
        rows = np.repeat(np.arange(self.m), np.diff(self.indptr))
        a[rows, self.agents] = self.counts
        return a

    def head(self, m: int) -> "PoolingGraph":
        """The subgraph consisting of the first ``m`` queries."""
        if not 0 <= m <= self.m:
            raise ValueError(f"m must lie in [0, {self.m}], got {m}")
        end = int(self.indptr[m])
        return PoolingGraph(
            n=self.n,
            gamma=self.gamma,
            indptr=self.indptr[: m + 1].copy(),
            agents=self.agents[:end].copy(),
            counts=self.counts[:end].copy(),
        )

    def to_networkx(self):
        """Export as a ``networkx`` bipartite multigraph (optional dep)."""
        import networkx as nx

        g = nx.MultiGraph()
        g.add_nodes_from((f"x{i}" for i in range(self.n)), bipartite="agent")
        g.add_nodes_from((f"a{j}" for j in range(self.m)), bipartite="query")
        for j in range(self.m):
            agents, counts = self.query(j)
            for agent, count in zip(agents, counts):
                for _ in range(int(count)):
                    g.add_edge(f"a{j}", f"x{int(agent)}")
        return g


class PoolingGraphBuilder:
    """Grow a :class:`PoolingGraph` one query at a time.

    Used by the incremental required-queries simulator, which adds query
    nodes until reconstruction succeeds (paper, Section V "Implementation
    Details").
    """

    def __init__(self, n: int, gamma: Optional[int] = None):
        self.n = check_positive_int(n, "n")
        self.gamma = default_gamma(n) if gamma is None else check_positive_int(gamma, "gamma")
        self._agents: List[np.ndarray] = []
        self._counts: List[np.ndarray] = []
        self._indptr: List[int] = [0]

    @property
    def m(self) -> int:
        """Number of queries added so far."""
        return len(self._agents)

    def add_query(self, agents: np.ndarray, counts: np.ndarray) -> int:
        """Append a pre-sampled query; returns its index."""
        agents = np.asarray(agents, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if agents.shape != counts.shape or agents.ndim != 1:
            raise ValueError("agents and counts must be 1-D arrays of equal length")
        if agents.size and (agents.min() < 0 or agents.max() >= self.n):
            raise ValueError("agent ids out of range")
        self._agents.append(agents)
        self._counts.append(counts)
        self._indptr.append(self._indptr[-1] + agents.size)
        return self.m - 1

    def sample_and_add(self, rng: RngLike = None) -> Tuple[np.ndarray, np.ndarray]:
        """Sample a fresh query from the model, append it, return it."""
        agents, counts = sample_query(self.n, self.gamma, rng)
        self.add_query(agents, counts)
        return agents, counts

    def build(self) -> PoolingGraph:
        """Freeze into an immutable :class:`PoolingGraph`."""
        if self._agents:
            agents = np.concatenate(self._agents)
            counts = np.concatenate(self._counts)
        else:
            agents = np.zeros(0, dtype=np.int64)
            counts = np.zeros(0, dtype=np.int64)
        return PoolingGraph(
            n=self.n,
            gamma=self.gamma,
            indptr=np.asarray(self._indptr, dtype=np.int64),
            agents=agents,
            counts=counts,
        )


def sample_pooling_graph(
    n: int,
    m: int,
    gamma: Optional[int] = None,
    rng: RngLike = None,
    *,
    with_replacement: bool = True,
) -> PoolingGraph:
    """Draw a pooling graph from the paper's model.

    Parameters
    ----------
    n, m:
        Numbers of agents and queries.
    gamma:
        Query size; defaults to the paper's ``n // 2``.
    with_replacement:
        The paper samples with replacement (multigraph). Setting this to
        ``False`` yields the simple-graph design used by ablation A2
        (each query draws ``gamma`` *distinct* agents).
    """
    n = check_positive_int(n, "n")
    m = check_positive_int(m, "m", minimum=0)
    gamma = default_gamma(n) if gamma is None else check_positive_int(gamma, "gamma")
    if not with_replacement and gamma > n:
        raise ValueError(
            f"without replacement gamma must be <= n, got gamma={gamma}, n={n}"
        )
    gen = normalize_rng(rng)
    builder = PoolingGraphBuilder(n, gamma)
    for _ in range(m):
        if with_replacement:
            builder.sample_and_add(gen)
        else:
            agents = np.sort(gen.choice(n, size=gamma, replace=False))
            builder.add_query(agents.astype(np.int64), np.ones(gamma, dtype=np.int64))
    return builder.build()


def sample_regular_design(
    n: int,
    m: int,
    agent_degree: int,
    rng: RngLike = None,
) -> PoolingGraph:
    """Constant-column-weight design: every agent joins exactly
    ``agent_degree`` queries, chosen uniformly without replacement.

    This is the "(near-)constant tests per item" design family of
    Aldridge-Johnson-Scarlett and Johnson et al. (refs. [4, 33] of the
    paper), included for the design ablation. Query sizes are then
    random (≈ ``n * agent_degree / m`` each) instead of fixed at
    ``Gamma``; the stored ``gamma`` is the expected query size.
    """
    n = check_positive_int(n, "n")
    m = check_positive_int(m, "m")
    agent_degree = check_positive_int(agent_degree, "agent_degree")
    if agent_degree > m:
        raise ValueError(
            f"agent_degree must be <= m, got agent_degree={agent_degree}, m={m}"
        )
    gen = normalize_rng(rng)
    # One choice call per agent, in agent order (the seed contract);
    # a stable sort by query then lists each query's agents ascending.
    queries = np.empty((n, agent_degree), dtype=np.int64)
    for agent in range(n):
        queries[agent] = gen.choice(m, size=agent_degree, replace=False)
    order = np.argsort(queries.ravel(), kind="stable")
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(queries.ravel(), minlength=m), out=indptr[1:])
    return PoolingGraph(
        n=n,
        gamma=max(1, round(n * agent_degree / m)),
        indptr=indptr,
        agents=order // agent_degree,
        counts=np.ones(order.size, dtype=np.int64),
    )


__all__ = [
    "default_gamma",
    "sample_query",
    "PoolingGraph",
    "PoolingGraphBuilder",
    "sample_pooling_graph",
    "sample_regular_design",
]
