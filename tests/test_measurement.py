"""Unit tests for repro.core.measurement."""

import numpy as np
import pytest

import repro
from repro.core.measurement import Measurements, measure


class TestMeasure:
    def test_noiseless_results_are_exact_sums(self, small_instance):
        truth, graph, meas = small_instance
        assert np.array_equal(meas.results, graph.edges_into_ones(truth.sigma))

    def test_shapes_and_properties(self, small_instance):
        truth, graph, meas = small_instance
        assert meas.n == truth.n
        assert meas.m == graph.m
        assert meas.k == truth.k
        assert meas.results.shape == (graph.m,)

    def test_default_channel_is_noiseless(self, rng):
        truth = repro.sample_ground_truth(50, 5, rng)
        graph = repro.sample_pooling_graph(50, 10, rng=rng)
        meas = measure(graph, truth, rng=rng)
        assert isinstance(meas.channel, repro.NoiselessChannel)

    def test_mismatched_n_rejected(self, rng):
        truth = repro.sample_ground_truth(50, 5, rng)
        graph = repro.sample_pooling_graph(60, 10, rng=rng)
        with pytest.raises(ValueError):
            measure(graph, truth)

    def test_z_channel_only_lowers(self, rng):
        truth = repro.sample_ground_truth(100, 20, rng)
        graph = repro.sample_pooling_graph(100, 30, rng=rng)
        exact = graph.edges_into_ones(truth.sigma)
        noisy = measure(graph, truth, repro.ZChannel(0.3), rng).results
        assert np.all(noisy <= exact)
        assert np.all(noisy >= 0)

    def test_gaussian_results_are_floats(self, rng):
        truth = repro.sample_ground_truth(100, 20, rng)
        graph = repro.sample_pooling_graph(100, 30, rng=rng)
        noisy = measure(graph, truth, repro.GaussianQueryNoise(2.0), rng).results
        assert noisy.dtype == np.float64

    def test_determinism(self):
        truth = repro.sample_ground_truth(100, 20, 5)
        graph = repro.sample_pooling_graph(100, 30, rng=6)
        a = measure(graph, truth, repro.ZChannel(0.2), rng=7).results
        b = measure(graph, truth, repro.ZChannel(0.2), rng=7).results
        assert np.array_equal(a, b)

    def test_results_shape_validation(self, small_instance):
        truth, graph, _ = small_instance
        with pytest.raises(ValueError):
            Measurements(
                graph=graph,
                truth=truth,
                channel=repro.NoiselessChannel(),
                results=np.zeros(graph.m + 1),
            )


class TestMeasureQuery:
    """The noise law of a single query inside :func:`measure`.

    (The class keeps the name of the one-query measurement helper it
    once tested; :func:`measure` is now the one measurement path.)
    """

    def test_variable_size_query_uses_actual_edge_count(self, rng):
        # Regression: the noise law must be driven by the query's
        # realized edge count, not the nominal gamma. With q close to 1
        # almost every 0-edge reads as 1, so a 3-edge query measured
        # under a nominal gamma of 1000 would report ~ Bin(1000, q) ~
        # 900 instead of <= 3.
        truth = repro.GroundTruth(np.zeros(50, dtype=np.int8))
        builder = repro.PoolingGraphBuilder(50, gamma=1000)
        for _ in range(20):
            builder.add_query(np.array([0]), np.array([3]))
        results = measure(
            builder.build(), truth, repro.NoisyChannel(0.0, 0.9), rng
        ).results
        assert np.all((0 <= results) & (results <= 3))

    def test_variable_size_matches_batch_measure(self, rng):
        # measure() must apply the per-query noise law on the
        # variable-size regular design.
        truth = repro.sample_ground_truth(60, 6, rng)
        graph = repro.sample_regular_design(60, 12, agent_degree=4, rng=rng)
        sizes = graph.query_sizes()
        assert sizes.min() != sizes.max()  # genuinely variable
        channel = repro.NoisyChannel(0.0, 1 - 1e-12)
        batch = measure(graph, truth, channel, rng).results
        # with q ~ 1 every 0-edge flips: results == sizes almost surely
        assert np.array_equal(batch, sizes)
