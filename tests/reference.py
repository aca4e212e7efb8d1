"""Test-only reference implementations the simulators are pinned against.

The package runs one simulator per cell kind. These are the slow,
obviously-correct forms of the same quantities, kept here so the
equivalence and agreement tests have something independent to compare
with:

* :func:`sample_query` / :func:`sample_pooling_graph_per_query` — the
  paper's pooling model one query at a time: one ``integers`` call and
  one ``np.unique`` per query. :func:`repro.core.pooling.
  sample_pooling_graph`, which draws all queries in one call, returns
  the same graph seed for seed.
* :func:`measured_query` / :func:`add_sampled_query` — one query
  sampled, measured through a channel, and (for the latter) folded
  into an :class:`~repro.core.incremental.IncrementalDecoder` through
  its ``ingest_query``.
* :func:`required_queries_per_query` — the paper's required-m
  procedure one query at a time (Section V, "Implementation
  Details"): sample a query, measure it, update the running scores,
  check separation. The chunked simulator
  (:meth:`repro.core.batch.BatchTrialRunner.required_queries`) matches
  it seed for seed on channels that draw no per-query noise, and in
  distribution on the others.
* :func:`required_queries_amp_linear` — the brute-force ascending AMP
  required-m scan: a standalone ``run_amp`` at every ``check_every``
  multiple of the trial's prefix data until the first exact decode.
  :func:`repro.amp.batch_amp.required_queries_amp`, whose ascending
  scan probes a wave of grid points per stacked round, returns the
  same m by construction.
* :func:`required_queries_decode_scan` — the same ascending scan for
  any decoder, optionally over a corrupted stream: the definition the
  ``algorithm="twostage"`` and corrupted required-m cells follow.
* :func:`fixed_m_trial_outcomes` — the fixed-m trial loop (truth,
  per-query graph, channel, decode per trial), which the stacked greedy
  and AMP runners reproduce bit for bit.
* :func:`run_amp_dense` — AMP on the dense adjacency, its products as
  plain closures, which :func:`repro.amp.run_amp`'s sparse operator
  matches up to float round-off.
* :func:`sample_regular_design_loop` — the per-incidence loop of the
  constant-column-weight design, which
  :func:`repro.core.pooling.sample_regular_design` matches array for
  array.
* :func:`adjacency_sparse` / :func:`distinct_incidence_sparse` — a
  graph as scipy CSR matrices, the operators the package's raw-array
  products are checked against.
* :func:`v1_record` — a service session in the version-1 JSON record
  layout, which :meth:`repro.service.session.Session.from_record`
  reads when the session store converts an old state directory.
"""

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.amp.amp import (
    AMPConfig,
    channel_corrected_results,
    default_denoiser,
    iterate_amp,
    standardization_constants,
)
from repro.amp.batch_amp import _probe_standalone
from repro.amp.denoisers import Denoiser
from repro.core.batch import MeasurementStream
from repro.core.corruption import _drop_rows, apply_corruption, corruption_rng
from repro.core.ground_truth import GroundTruth, sample_ground_truth
from repro.core.incremental import IncrementalDecoder, default_max_queries
from repro.core.measurement import Measurements, measure
from repro.core.noise import Channel
from repro.core.pooling import PoolingGraph, PoolingGraphBuilder, default_gamma
from repro.core.scores import top_k_estimate
from repro.core.types import RequiredQueriesResult
from repro.utils.rng import RngLike, normalize_rng, spawn_rngs
from repro.utils.validation import check_positive_int


def sample_query(
    n: int, gamma: int, rng: RngLike = None
) -> Tuple[np.ndarray, np.ndarray]:
    """One query: ``gamma`` agents uniformly at random with replacement.

    Returns the distinct agent ids (sorted) and their multiplicities,
    which sum to ``gamma``.
    """
    draws = normalize_rng(rng).integers(0, n, size=gamma)
    agents, counts = np.unique(draws, return_counts=True)
    return agents.astype(np.int64, copy=False), counts.astype(np.int64, copy=False)


def sample_pooling_graph_per_query(
    n: int, m: int, gamma: Optional[int] = None, rng: RngLike = None
) -> PoolingGraph:
    """The paper's with-replacement design, one :func:`sample_query` per row."""
    gamma = default_gamma(n) if gamma is None else gamma
    gen = normalize_rng(rng)
    builder = PoolingGraphBuilder(n, gamma)
    for _ in range(m):
        builder.add_query(*sample_query(n, gamma, gen))
    return builder.build()


def measured_query(
    n: int, gamma: int, sigma: np.ndarray, channel: Channel, rng: RngLike
) -> Tuple[np.ndarray, np.ndarray, float]:
    """Sample one query and measure it: ``(agents, counts, result)``.

    The channel sees the query's realized edge count and its count of
    edges into 1-agents, as :func:`repro.core.measurement.measure` does
    for a whole graph.
    """
    gen = normalize_rng(rng)
    agents, counts = sample_query(n, gamma, gen)
    e1 = int(np.dot(counts, np.asarray(sigma, dtype=np.int64)[agents]))
    result = float(channel.measure(np.asarray([e1]), int(counts.sum()), gen)[0])
    return agents, counts, result


def add_sampled_query(decoder: IncrementalDecoder, rng: RngLike) -> float:
    """Sample, measure and ingest one query; return its result."""
    agents, counts, result = measured_query(
        decoder.n, decoder.gamma, decoder.truth.sigma, decoder.channel, rng
    )
    decoder.ingest_query(agents, counts, result)
    return result


def required_queries_per_query(
    n: int,
    k: int,
    channel: Optional[Channel] = None,
    rng: RngLike = None,
    *,
    gamma: Optional[int] = None,
    max_m: Optional[int] = None,
    check_every: int = 1,
    truth: Optional[GroundTruth] = None,
    centering: str = "half_k",
) -> RequiredQueriesResult:
    """One required-m run, one query per step (the paper's procedure)."""
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    check_every = check_positive_int(check_every, "check_every")
    gen = normalize_rng(rng)
    if truth is None:
        truth = sample_ground_truth(n, k, gen)
    if max_m is None:
        max_m = default_max_queries(n, k, channel)
    decoder = IncrementalDecoder(truth, channel, gamma, centering=centering)
    meta = {
        "channel": decoder.channel.describe(),
        "gamma": decoder.gamma,
        "max_m": max_m,
    }
    checks = 0
    while decoder.m < max_m:
        add_sampled_query(decoder, gen)
        if decoder.m % check_every == 0:
            checks += 1
            if decoder.is_successful():
                return RequiredQueriesResult(
                    required_m=decoder.m, n=n, k=k, succeeded=True,
                    checks=checks, meta=meta,
                )
    return RequiredQueriesResult(
        required_m=None, n=n, k=k, succeeded=False, checks=checks, meta=meta
    )


def required_queries_amp_linear(
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
) -> List[RequiredQueriesResult]:
    """Brute-force ascending AMP required-m scan, one result per seed."""
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k")
    step = check_positive_int(check_every, "check_every")
    gamma = default_gamma(n) if gamma is None else check_positive_int(gamma, "gamma")
    if max_m is None:
        max_m = default_max_queries(n, k, channel)
    if denoiser is None:
        denoiser = default_denoiser(n, k)
    config = config if config is not None else AMPConfig(track_history=False)
    meta = {
        "algorithm": "amp",
        "channel": channel.describe(),
        "gamma": gamma,
        "max_m": max_m,
        "check_every": step,
        "denoiser": denoiser.describe(),
    }
    out: List[RequiredQueriesResult] = []
    for seed in seeds:
        gen = normalize_rng(seed)
        truth = sample_ground_truth(n, k, gen)
        stream = MeasurementStream(
            n, gamma, channel, truth, gen, max_m=max_m
        )
        required: Optional[int] = None
        checks = 0
        for g in range(step, (max_m // step) * step + 1, step):
            stream.grow_to(g)
            checks += 1
            if _probe_standalone(
                stream, g, n, gamma, channel, denoiser, config
            ):
                required = g
                break
        out.append(
            RequiredQueriesResult(
                required_m=required, n=n, k=k,
                succeeded=required is not None, checks=checks, meta=meta,
            )
        )
    return out


def required_queries_decode_scan(
    n: int,
    k: int,
    channel: Channel,
    seeds: Sequence[RngLike],
    decode,
    *,
    max_m: int,
    check_every: int = 1,
    corruption=None,
) -> List[Optional[int]]:
    """Smallest grid m whose prefix ``decode(measurements)`` gets exact.

    One value per seed (``None``: no grid point decoded exactly). With
    a ``corruption`` model, each trial's whole grid is measured and
    corrupted once, from the trial's dedicated corruption stream, and
    a probe decodes the first m queries with the corrupted-away ones
    dropped (skipped when none is left).
    """
    gamma = default_gamma(n)
    grid_max = (max_m // check_every) * check_every
    out: List[Optional[int]] = []
    for seed in seeds:
        gen = normalize_rng(seed)
        truth = sample_ground_truth(n, k, gen)
        stream = MeasurementStream(
            n, gamma, channel, truth, gen, max_m=grid_max
        )
        report = None
        if corruption is not None:
            stream.grow_to(grid_max)
            graph = PoolingGraph(
                n, gamma, stream.indptr, stream.agents, stream.counts
            )
            report = apply_corruption(
                Measurements(graph=graph, truth=truth, channel=channel,
                             results=stream.results),
                corruption,
                corruption_rng(seed),
            )
        required = None
        for g in range(check_every, grid_max + 1, check_every):
            stream.grow_to(g)
            indptr, agents, counts, results = stream.prefix(g)
            graph = PoolingGraph(n, gamma, indptr, agents, counts)
            if report is not None:
                kept = report.kept[:g]
                if not kept.any():
                    continue
                graph, _ = _drop_rows(graph, kept)
                results = report.results_full[:g][kept]
            meas = Measurements(
                graph=graph, truth=truth, channel=channel, results=results
            )
            if decode(meas).exact:
                required = g
                break
        out.append(required)
    return out


def fixed_m_trial_outcomes(
    n: int,
    k: int,
    channel: Channel,
    m: int,
    seeds: Sequence[RngLike],
    *,
    algorithm: str = "greedy",
    gamma: Optional[int] = None,
    **algorithm_kwargs,
) -> List[tuple]:
    """``(exact, overlap)`` per seed from the per-trial fixed-m loop."""
    from repro.experiments.runner import _run_algorithm

    out = []
    for seed in seeds:
        gen = normalize_rng(seed)
        truth = sample_ground_truth(n, k, gen)
        graph = sample_pooling_graph_per_query(n, m, gamma, gen)
        result = _run_algorithm(
            algorithm, measure(graph, truth, channel, gen), **algorithm_kwargs
        )
        out.append((bool(result.exact), float(result.overlap)))
    return out


def fixed_m_curve(
    n: int,
    k: int,
    channel: Channel,
    m_values: Sequence[int],
    *,
    trials: int,
    seed: RngLike,
    algorithm: str = "greedy",
    **algorithm_kwargs,
):
    """``(success_rates, overlaps)`` of the per-trial loop over a grid.

    Seeds are derived as :func:`repro.experiments.runner.
    success_rate_curve` derives them: one child generator per grid
    point, then one per trial.
    """
    rates, overlaps = [], []
    for m, m_rng in zip(m_values, spawn_rngs(seed, len(m_values))):
        outcomes = fixed_m_trial_outcomes(
            n, k, channel, int(m), spawn_rngs(m_rng, trials),
            algorithm=algorithm, **algorithm_kwargs,
        )
        rates.append(sum(e for e, _ in outcomes) / trials)
        overlaps.append(sum(o for _, o in outcomes) / trials)
    return rates, overlaps


class MatvecOperator:
    """Stack operator wrapping plain ``(matvec, rmatvec)`` callables."""

    def __init__(self, matvec, rmatvec) -> None:
        self.matvec = matvec
        self.rmatvec = rmatvec


def run_amp_dense(
    measurements: Measurements,
    *,
    denoiser: Optional[Denoiser] = None,
    config: Optional[AMPConfig] = None,
):
    """``(scores, estimate)`` of AMP run on the dense adjacency matrix.

    The same standardization and iteration as :func:`repro.amp.run_amp`,
    with the centered, scaled products applied as closures over the
    dense ``m x n`` matrix instead of the sparse stack operator.
    """
    config = config if config is not None else AMPConfig()
    graph = measurements.graph
    n, m, k = graph.n, graph.m, measurements.k
    if denoiser is None:
        denoiser = default_denoiser(n, k)
    c, scale = standardization_constants(n, m, graph.gamma)
    y = (
        channel_corrected_results(
            measurements.results, graph.gamma, measurements.channel
        )
        - c * k
    ) / scale
    adjacency = graph.adjacency_dense()
    adjacency_t = adjacency.T
    operator = MatvecOperator(
        lambda x: (adjacency @ x - c * x.sum()) / scale,
        lambda z: (adjacency_t @ z - c * z.sum()) / scale,
    )
    scores = iterate_amp(
        operator, y, denoiser, config, n=n, row_sizes=np.array([m])
    )[0][0]
    return scores, top_k_estimate(scores, k)


def sample_regular_design_loop(
    n: int, m: int, agent_degree: int, rng: RngLike = None
) -> PoolingGraph:
    """The constant-column-weight design, one incidence at a time."""
    gen = normalize_rng(rng)
    per_query: List[List[int]] = [[] for _ in range(m)]
    for agent in range(n):
        for q in gen.choice(m, size=agent_degree, replace=False):
            per_query[int(q)].append(agent)
    builder = PoolingGraphBuilder(n, gamma=max(1, round(n * agent_degree / m)))
    for members in per_query:
        agents = np.asarray(sorted(members), dtype=np.int64)
        builder.add_query(agents, np.ones(agents.size, dtype=np.int64))
    return builder.build()


def adjacency_sparse(graph: PoolingGraph):
    """Scipy CSR ``(m, n)`` adjacency of ``graph`` with multiplicities."""
    from scipy import sparse

    return sparse.csr_matrix(
        (graph.counts.astype(np.float64), graph.agents, graph.indptr),
        shape=(graph.m, graph.n),
    )


def distinct_incidence_sparse(graph: PoolingGraph):
    """Scipy CSR ``(m, n)`` 0/1 distinct-incidence matrix of ``graph``."""
    from scipy import sparse

    return sparse.csr_matrix(
        (np.ones(graph.agents.size), graph.agents, graph.indptr),
        shape=(graph.m, graph.n),
    )


def v1_record(session) -> dict:
    """``session`` as a version-1 JSON-able record: parameters, sigma,
    the consolidated query arrays in arrival order and the ingest
    idempotency map."""
    stream, params = session.stream, session.params
    return {
        "version": 1,
        "session_id": session.session_id,
        "n": params.n,
        "gamma": params.gamma,
        "channel": dict(params.channel_spec),
        "centering": params.centering,
        "sigma": session.truth.sigma.tolist(),
        "m": stream.m_done,
        "indptr": stream.indptr.tolist(),
        "agents": stream.agents.tolist(),
        "counts": stream.counts.tolist(),
        "results": stream.results.tolist(),
        "applied": dict(session.applied),
    }
