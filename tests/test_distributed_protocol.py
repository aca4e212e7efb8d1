"""Integration tests: distributed Algorithm 1 ≡ vectorized decoder."""

import numpy as np
import pytest

import repro
from repro.distributed import run_distributed_algorithm1
from repro.distributed.sorting import odd_even_transposition


def _make_measurements(seed, n=60, k=4, m=50, channel=None):
    gen = np.random.default_rng(seed)
    truth = repro.sample_ground_truth(n, k, gen)
    graph = repro.sample_pooling_graph(n, m, rng=gen)
    channel = channel if channel is not None else repro.ZChannel(0.2)
    return repro.measure(graph, truth, channel, gen)


class TestEquivalenceWithVectorizedDecoder:
    @pytest.mark.parametrize("seed", range(8))
    def test_bit_identical_z_channel(self, seed):
        meas = _make_measurements(seed)
        vec = repro.greedy_reconstruct(meas)
        dist = run_distributed_algorithm1(meas).result
        assert np.array_equal(vec.estimate, dist.estimate)
        assert np.allclose(vec.scores, dist.scores)
        assert vec.exact == dist.exact
        assert vec.overlap == dist.overlap

    def test_bit_identical_gaussian(self):
        meas = _make_measurements(100, channel=repro.GaussianQueryNoise(1.0))
        vec = repro.greedy_reconstruct(meas)
        dist = run_distributed_algorithm1(meas).result
        assert np.array_equal(vec.estimate, dist.estimate)

    def test_bit_identical_noiseless(self):
        meas = _make_measurements(200, channel=repro.NoiselessChannel())
        vec = repro.greedy_reconstruct(meas)
        dist = run_distributed_algorithm1(meas).result
        assert np.array_equal(vec.estimate, dist.estimate)
        assert dist.exact  # easy instance must be solved

    def test_tie_breaking_matches(self):
        # Zero queries: all scores equal; tie-break must pick the same k.
        gen = np.random.default_rng(7)
        truth = repro.sample_ground_truth(10, 3, gen)
        graph = repro.sample_pooling_graph(10, 1, rng=gen)
        meas = repro.measure(graph, truth, rng=gen)
        vec = repro.greedy_reconstruct(meas)
        dist = run_distributed_algorithm1(meas).result
        assert np.array_equal(vec.estimate, dist.estimate)

    def test_alternative_network_same_answer(self):
        meas = _make_measurements(5, n=20, k=3, m=30)
        batcher = run_distributed_algorithm1(meas, sorting_network="batcher").result
        brick = run_distributed_algorithm1(
            meas, sorting_network="transposition"
        ).result
        assert np.array_equal(batcher.estimate, brick.estimate)

    def test_bitonic_power_of_two(self):
        meas = _make_measurements(6, n=32, k=3, m=40)
        bitonic = run_distributed_algorithm1(meas, sorting_network="bitonic").result
        vec = repro.greedy_reconstruct(meas)
        assert np.array_equal(bitonic.estimate, vec.estimate)


class TestProtocolMechanics:
    def test_message_accounting(self):
        meas = _make_measurements(1, n=16, k=2, m=10)
        report = run_distributed_algorithm1(meas)
        graph = meas.graph
        # Query broadcast: one message per distinct incidence.
        query_messages = int(graph.distinct_sizes().sum())
        # Sorting: two messages per comparator; announcements: k messages.
        expected = query_messages + 2 * report.sort_size + meas.k
        assert report.metrics.messages == expected

    def test_round_count(self):
        meas = _make_measurements(2, n=16, k=2, m=10)
        report = run_distributed_algorithm1(meas)
        # rounds = depth + 3 (broadcast, fold/first keys, ..., announce, set)
        assert report.metrics.rounds == report.sort_depth + 3

    def test_custom_schedule(self):
        meas = _make_measurements(3, n=12, k=2, m=15)
        schedule = odd_even_transposition(12)
        report = run_distributed_algorithm1(meas, schedule=schedule)
        vec = repro.greedy_reconstruct(meas)
        assert np.array_equal(report.result.estimate, vec.estimate)
        assert report.result.meta["sorting_network"] == "custom"

    def test_custom_schedule_size_mismatch(self):
        meas = _make_measurements(4, n=12, k=2, m=15)
        with pytest.raises(ValueError):
            run_distributed_algorithm1(meas, schedule=odd_even_transposition(13))

    def test_estimate_weight_is_k(self):
        meas = _make_measurements(8, n=40, k=6, m=30)
        report = run_distributed_algorithm1(meas)
        assert report.result.estimate.sum() == 6

    def test_single_agent_network(self):
        gen = np.random.default_rng(11)
        truth = repro.sample_ground_truth(1, 1, gen)
        graph = repro.sample_pooling_graph(1, 2, gamma=1, rng=gen)
        meas = repro.measure(graph, truth, rng=gen)
        report = run_distributed_algorithm1(meas)
        assert report.result.estimate.tolist() == [1]

    def test_metrics_scale_with_m(self):
        small = run_distributed_algorithm1(_make_measurements(12, m=10))
        large = run_distributed_algorithm1(_make_measurements(12, m=40))
        assert large.metrics.messages > small.metrics.messages


class TestScale:
    def test_one_participation_table_per_schedule(self):
        # Every node reads the schedule's one shared table; a copy per
        # node made an n=512 run allocate about 1 GB (O(n^2 log^2 n)).
        import tracemalloc

        n = 512
        meas = _make_measurements(
            3, n=n, k=repro.sublinear_k(n, 0.25), m=int(0.4 * n),
            channel=repro.ZChannel(0.1),
        )
        tracemalloc.start()
        try:
            run = run_distributed_algorithm1(meas)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2**20
        assert np.array_equal(
            run.result.estimate, repro.greedy_reconstruct(meas).estimate
        )
