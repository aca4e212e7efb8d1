"""Unit tests for repro.core.pooling."""

import numpy as np
import pytest

from reference import adjacency_sparse, distinct_incidence_sparse
from repro.core.pooling import (
    PoolingGraph,
    PoolingGraphBuilder,
    default_gamma,
    sample_pooling_graph,
    sample_regular_design,
)


def sample_query(n, gamma, rng):
    """One row of the paper's design: a one-query pooling graph's query."""
    return sample_pooling_graph(n, 1, gamma, rng).query(0)


class TestDefaultGamma:
    def test_half_n(self):
        assert default_gamma(1000) == 500
        assert default_gamma(999) == 499

    def test_at_least_one(self):
        assert default_gamma(1) == 1

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            default_gamma(0)


class TestSampleQuery:
    """Each row of :func:`sample_pooling_graph` is one query of the model."""

    def test_total_multiplicity_is_gamma(self, rng):
        agents, counts = sample_query(100, 50, rng)
        assert counts.sum() == 50

    def test_agents_sorted_unique(self, rng):
        agents, counts = sample_query(100, 50, rng)
        assert np.all(np.diff(agents) > 0)

    def test_agents_in_range(self, rng):
        agents, _ = sample_query(20, 200, rng)
        assert agents.min() >= 0 and agents.max() < 20

    def test_counts_positive(self, rng):
        _, counts = sample_query(50, 25, rng)
        assert counts.min() >= 1

    def test_gamma_larger_than_n_allowed(self, rng):
        # With replacement the query size may exceed n.
        agents, counts = sample_query(5, 100, rng)
        assert counts.sum() == 100
        assert agents.size <= 5

    def test_expected_distinct_fraction(self):
        # E[distinct] = n(1 - (1-1/n)^Gamma) ~ n(1 - e^{-1/2}) for Gamma=n/2.
        gen = np.random.default_rng(3)
        n, gamma, trials = 2000, 1000, 50
        distinct = sample_pooling_graph(n, trials, gamma, gen).distinct_sizes()
        expected = n * (1 - (1 - 1 / n) ** gamma)
        assert abs(np.mean(distinct) - expected) < 0.02 * expected


class TestPoolingGraph:
    def test_shapes_and_sizes(self, rng):
        g = sample_pooling_graph(100, 20, rng=rng)
        assert g.n == 100
        assert g.m == 20
        assert g.gamma == 50
        assert g.total_edges == 20 * 50
        assert np.array_equal(g.query_sizes(), np.full(20, 50))

    def test_distinct_sizes_bounded(self, rng):
        g = sample_pooling_graph(100, 20, rng=rng)
        distinct = g.distinct_sizes()
        assert np.all(distinct >= 1)
        assert np.all(distinct <= 50)

    def test_query_accessor_matches_csr(self, rng):
        g = sample_pooling_graph(50, 10, rng=rng)
        for j in range(g.m):
            agents, counts = g.query(j)
            lo, hi = g.indptr[j], g.indptr[j + 1]
            assert np.array_equal(agents, g.agents[lo:hi])
            assert np.array_equal(counts, g.counts[lo:hi])

    def test_query_index_out_of_range(self, rng):
        g = sample_pooling_graph(50, 3, rng=rng)
        with pytest.raises(IndexError):
            g.query(3)
        with pytest.raises(IndexError):
            g.query(-1)

    def test_degree_identities(self, rng):
        g = sample_pooling_graph(80, 30, rng=rng)
        delta = g.multi_degrees()
        delta_star = g.distinct_degrees()
        assert delta.sum() == g.total_edges
        assert delta_star.sum() == g.agents.size
        assert np.all(delta_star <= delta)
        assert np.all(delta_star <= g.m)

    def test_edges_into_ones_extremes(self, rng):
        g = sample_pooling_graph(60, 12, rng=rng)
        zeros = np.zeros(60, dtype=np.int8)
        ones = np.ones(60, dtype=np.int8)
        assert np.array_equal(g.edges_into_ones(zeros), np.zeros(12, dtype=np.int64))
        assert np.array_equal(g.edges_into_ones(ones), np.full(12, g.gamma))

    def test_edges_into_ones_matches_bruteforce(self, rng):
        g = sample_pooling_graph(40, 15, rng=rng)
        sigma = (np.arange(40) % 3 == 0).astype(np.int8)
        expected = []
        for j in range(g.m):
            agents, counts = g.query(j)
            expected.append(int(np.sum(counts * sigma[agents])))
        assert np.array_equal(g.edges_into_ones(sigma), np.array(expected))

    def test_edges_into_ones_shape_check(self, rng):
        g = sample_pooling_graph(40, 5, rng=rng)
        with pytest.raises(ValueError):
            g.edges_into_ones(np.zeros(39))

    def test_neighborhood_sums_matches_bruteforce(self, rng):
        g = sample_pooling_graph(30, 25, rng=rng)
        results = rng.normal(size=g.m)
        psi = g.neighborhood_sums(results)
        expected = np.zeros(30)
        for j in range(g.m):
            agents, _ = g.query(j)
            expected[agents] += results[j]
        assert np.allclose(psi, expected)

    def test_neighborhood_sums_shape_check(self, rng):
        g = sample_pooling_graph(30, 5, rng=rng)
        with pytest.raises(ValueError):
            g.neighborhood_sums(np.zeros(4))

    def test_adjacency_dense_row_sums(self, rng):
        g = sample_pooling_graph(50, 8, rng=rng)
        a = g.adjacency_dense()
        assert a.shape == (8, 50)
        assert np.allclose(a.sum(axis=1), g.gamma)

    def test_adjacency_sparse_matches_dense(self, rng):
        g = sample_pooling_graph(50, 8, rng=rng)
        assert np.allclose(adjacency_sparse(g).toarray(), g.adjacency_dense())

    def test_distinct_incidence_is_binary(self, rng):
        g = sample_pooling_graph(50, 8, rng=rng)
        b = distinct_incidence_sparse(g).toarray()
        assert set(np.unique(b)).issubset({0.0, 1.0})
        assert b.sum() == g.agents.size

    def test_head_prefix(self, rng):
        g = sample_pooling_graph(50, 10, rng=rng)
        h = g.head(4)
        assert h.m == 4
        for j in range(4):
            ga, gc = g.query(j)
            ha, hc = h.query(j)
            assert np.array_equal(ga, ha)
            assert np.array_equal(gc, hc)

    def test_head_bounds(self, rng):
        g = sample_pooling_graph(50, 10, rng=rng)
        assert g.head(0).m == 0
        assert g.head(10).m == 10
        with pytest.raises(ValueError):
            g.head(11)

    def test_zero_queries_graph(self, rng):
        g = sample_pooling_graph(10, 0, rng=rng)
        assert g.m == 0
        assert g.total_edges == 0
        assert np.array_equal(g.multi_degrees(), np.zeros(10, dtype=np.int64))

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(ValueError):
            PoolingGraph(
                n=5,
                gamma=2,
                indptr=np.array([1, 2]),
                agents=np.array([0]),
                counts=np.array([1]),
            )

    def test_validation_rejects_out_of_range_agent(self):
        with pytest.raises(ValueError):
            PoolingGraph(
                n=5,
                gamma=2,
                indptr=np.array([0, 1]),
                agents=np.array([7]),
                counts=np.array([1]),
            )

    def test_validation_rejects_zero_count(self):
        with pytest.raises(ValueError):
            PoolingGraph(
                n=5,
                gamma=2,
                indptr=np.array([0, 1]),
                agents=np.array([1]),
                counts=np.array([0]),
            )

    def test_determinism(self):
        a = sample_pooling_graph(100, 10, rng=7)
        b = sample_pooling_graph(100, 10, rng=7)
        assert np.array_equal(a.agents, b.agents)
        assert np.array_equal(a.counts, b.counts)

    def test_without_replacement_design(self, rng):
        g = sample_pooling_graph(100, 10, rng=rng, with_replacement=False)
        assert np.all(g.counts == 1)
        assert np.array_equal(g.distinct_sizes(), np.full(10, g.gamma))

    def test_without_replacement_gamma_too_large(self, rng):
        with pytest.raises(ValueError):
            sample_pooling_graph(10, 2, gamma=11, rng=rng, with_replacement=False)

    def test_to_networkx_roundtrip(self, rng):
        nx = pytest.importorskip("networkx")
        g = sample_pooling_graph(10, 3, gamma=5, rng=rng)
        nxg = g.to_networkx()
        assert nxg.number_of_edges() == g.total_edges
        assert nxg.number_of_nodes() == 10 + 3


class TestRegularDesign:
    @pytest.mark.parametrize(
        "n,m,degree",
        [(1, 1, 1), (7, 3, 3), (60, 20, 5), (300, 41, 1), (500, 90, 37)],
    )
    def test_identical_to_per_incidence_loop(self, n, m, degree):
        from reference import sample_regular_design_loop

        gen_a = np.random.default_rng(n * m + degree)
        gen_b = np.random.default_rng(n * m + degree)
        got = sample_regular_design(n, m, degree, gen_a)
        expected = sample_regular_design_loop(n, m, degree, gen_b)
        assert got.gamma == expected.gamma
        for name in ("indptr", "agents", "counts"):
            a, b = getattr(got, name), getattr(expected, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # the generator stream is consumed identically
        assert gen_a.bit_generator.state == gen_b.bit_generator.state

    def test_every_agent_has_exact_degree(self, rng):
        g = sample_regular_design(60, 20, agent_degree=5, rng=rng)
        assert np.array_equal(g.distinct_degrees(), np.full(60, 5))
        assert np.array_equal(g.multi_degrees(), np.full(60, 5))

    def test_simple_graph_counts(self, rng):
        g = sample_regular_design(40, 10, agent_degree=3, rng=rng)
        assert np.all(g.counts == 1)

    def test_total_edges(self, rng):
        g = sample_regular_design(40, 10, agent_degree=3, rng=rng)
        assert g.total_edges == 40 * 3

    def test_expected_query_size_stored(self, rng):
        g = sample_regular_design(40, 10, agent_degree=3, rng=rng)
        assert g.gamma == round(40 * 3 / 10)
        assert g.query_sizes().sum() == 120

    def test_degree_cannot_exceed_m(self, rng):
        with pytest.raises(ValueError):
            sample_regular_design(10, 3, agent_degree=4, rng=rng)

    def test_measurable_and_decodable(self, rng):
        import repro

        truth = repro.sample_ground_truth(100, 4, rng)
        g = sample_regular_design(100, 120, agent_degree=30, rng=rng)
        meas = repro.measure(g, truth, repro.ZChannel(0.1), rng)
        result = repro.greedy_reconstruct(meas)
        assert result.estimate.sum() == 4

    def test_variable_sizes_respected_by_channel(self, rng):
        # The noisy channel must use realized per-query sizes: results
        # can never exceed a query's actual edge count.
        import repro

        truth = repro.sample_ground_truth(50, 25, rng)
        g = sample_regular_design(50, 20, agent_degree=6, rng=rng)
        meas = repro.measure(g, truth, repro.NoisyChannel(0.0, 1 - 1e-9), rng)
        sizes = g.query_sizes()
        assert np.all(meas.results <= sizes)


class TestPoolingGraphBuilder:
    def test_incremental_build_matches_batch_semantics(self, rng):
        sampled = sample_pooling_graph(50, 6, 25, rng)
        builder = PoolingGraphBuilder(50, gamma=25)
        for agents, counts in sampled.iter_queries():
            builder.add_query(agents, counts)
        g = builder.build()
        assert g.m == 6
        assert g.total_edges == 6 * 25
        for a, b in zip(
            (g.indptr, g.agents, g.counts),
            (sampled.indptr, sampled.agents, sampled.counts),
        ):
            assert np.array_equal(a, b)

    def test_add_query_validates_range(self):
        builder = PoolingGraphBuilder(5)
        with pytest.raises(ValueError):
            builder.add_query(np.array([9]), np.array([1]))

    def test_add_query_validates_shapes(self):
        builder = PoolingGraphBuilder(5)
        with pytest.raises(ValueError):
            builder.add_query(np.array([1, 2]), np.array([1]))

    def test_empty_build(self):
        g = PoolingGraphBuilder(5).build()
        assert g.m == 0

    def test_default_gamma_used(self):
        builder = PoolingGraphBuilder(100)
        assert builder.gamma == 50


class TestScatterBitIdentity:
    """The bincount scatters match the np.add.at loops bit for bit."""

    @staticmethod
    def _add_at_reference(graph, results):
        multi = np.zeros(graph.n, dtype=np.int64)
        np.add.at(multi, graph.agents, graph.counts)
        distinct = np.zeros(graph.n, dtype=np.int64)
        np.add.at(distinct, graph.agents, 1)
        psi = np.zeros(graph.n, dtype=np.float64)
        np.add.at(psi, graph.agents, np.repeat(results, np.diff(graph.indptr)))
        return multi, distinct, psi

    def _check(self, graph, results):
        multi, distinct, psi = self._add_at_reference(graph, results)
        assert graph.multi_degrees().dtype == np.int64
        assert np.array_equal(graph.multi_degrees(), multi)
        assert graph.distinct_degrees().dtype == np.int64
        assert np.array_equal(graph.distinct_degrees(), distinct)
        got = graph.neighborhood_sums(results)
        assert got.dtype == np.float64
        assert got.tobytes() == psi.tobytes()

    @pytest.mark.parametrize("seed", [0, 5])
    def test_gaussian_noise_results(self, seed):
        import repro

        gen = np.random.default_rng(seed)
        truth = repro.sample_ground_truth(600, 6, gen)
        graph = sample_pooling_graph(600, 120, rng=gen)
        meas = repro.measure(graph, truth, repro.GaussianQueryNoise(1.5), gen)
        self._check(graph, meas.results)

    def test_cauchy_corrupted_results(self):
        import repro
        from repro.core.corruption import CorruptionModel, apply_corruption

        gen = np.random.default_rng(3)
        truth = repro.sample_ground_truth(500, 5, gen)
        graph = sample_pooling_graph(500, 150, rng=gen)
        meas = repro.measure(graph, truth, repro.ZChannel(0.1), gen)
        report = apply_corruption(
            meas, CorruptionModel(outlier_rate=0.3, outlier_scale=50.0), gen
        )
        assert report.outliers > 0
        corrupted = report.measurements
        self._check(corrupted.graph, np.asarray(corrupted.results, dtype=np.float64))

    def test_empty_and_irregular_graphs(self):
        self._check(sample_pooling_graph(30, 0, rng=1), np.zeros(0))
        design = sample_regular_design(40, 25, 3, rng=2)
        self._check(design, np.random.default_rng(2).standard_normal(design.m))
