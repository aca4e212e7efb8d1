"""Cross-module integration tests.

These tests wire several subsystems together end-to-end and assert the
strong equivalences the design promises:

* streaming ingestion ≡ batch decoding on identical data;
* all four algorithm frontends agree where they must;
* the full figure pipeline produces internally consistent data;
* Theorem 1 thresholds separate the success/failure phases for every
  channel family.
"""

import numpy as np
import pytest

import repro
from repro.amp import run_amp
from repro.core.incremental import IncrementalDecoder
from repro.core.twostage import two_stage_reconstruct
from repro.distributed import run_distributed_algorithm1

from reference import run_amp_dense


class TestStreamingEqualsBatch:
    """IncrementalDecoder.ingest_query replays a graph bit-exactly."""

    @pytest.mark.parametrize(
        "channel",
        [
            repro.NoiselessChannel(),
            repro.ZChannel(0.2),
            repro.NoisyChannel(0.1, 0.05),
            repro.GaussianQueryNoise(1.0),
        ],
    )
    def test_ingest_matches_batch_scores(self, channel):
        gen = np.random.default_rng(42)
        n, k, m = 120, 4, 80
        truth = repro.sample_ground_truth(n, k, gen)
        graph = repro.sample_pooling_graph(n, m, rng=gen)
        meas = repro.measure(graph, truth, channel, gen)

        decoder = IncrementalDecoder(truth, channel)
        for j in range(m):
            agents, counts = graph.query(j)
            decoder.ingest_query(agents, counts, float(meas.results[j]))

        batch_scores = repro.scores_from_measurements(meas)
        assert np.allclose(decoder.scores, batch_scores)
        assert np.array_equal(decoder.delta_star, graph.distinct_degrees())
        assert np.array_equal(decoder.delta, graph.multi_degrees())
        batch = repro.greedy_reconstruct(meas)
        streaming = decoder.reconstruction()
        assert np.array_equal(batch.estimate, streaming.estimate)

    def test_ingest_validates_input(self, rng):
        truth = repro.sample_ground_truth(10, 2, rng)
        decoder = IncrementalDecoder(truth)
        with pytest.raises(ValueError):
            decoder.ingest_query(np.array([11]), np.array([1]), 1.0)
        with pytest.raises(ValueError):
            decoder.ingest_query(np.array([1, 2]), np.array([1]), 1.0)


class TestAlgorithmFrontendsAgree:
    def test_all_algorithms_solve_easy_instance(self):
        gen = np.random.default_rng(7)
        n, k, m = 64, 3, 120
        truth = repro.sample_ground_truth(n, k, gen)
        graph = repro.sample_pooling_graph(n, m, rng=gen)
        meas = repro.measure(graph, truth, repro.ZChannel(0.1), gen)

        greedy = repro.greedy_reconstruct(meas)
        dist = run_distributed_algorithm1(meas).result
        amp = run_amp(meas)
        two = two_stage_reconstruct(meas)
        assert greedy.exact and dist.exact and amp.exact and two.exact
        assert np.array_equal(greedy.estimate, dist.estimate)

    def test_amp_sparse_and_dense_paths_identical(self):
        gen = np.random.default_rng(8)
        truth = repro.sample_ground_truth(300, 5, gen)
        graph = repro.sample_pooling_graph(300, 120, rng=gen)
        for channel in (repro.ZChannel(0.1), repro.NoisyChannel(0.1, 0.02),
                        repro.GaussianQueryNoise(0.5)):
            meas = repro.measure(graph, truth, channel, gen)
            dense_scores, dense_estimate = run_amp_dense(meas)
            sparse = run_amp(meas)
            assert np.allclose(dense_scores, sparse.scores)
            assert np.array_equal(dense_estimate, sparse.estimate)
            assert sparse.meta["sparse"]

    def test_amp_sparse_by_default(self):
        gen = np.random.default_rng(9)
        truth = repro.sample_ground_truth(100, 3, gen)
        graph = repro.sample_pooling_graph(100, 20, rng=gen)
        meas = repro.measure(graph, truth, rng=gen)
        # Sparse at every size; the dense path lives only in
        # tests/reference.py.
        assert run_amp(meas).meta["sparse"]
        with pytest.raises(TypeError, match="sparse"):
            run_amp(meas, sparse=False)


class TestPhaseConsistency:
    """Theorem 1 separates success from failure for every channel."""

    @pytest.mark.parametrize(
        "channel,bound_kwargs",
        [
            (repro.ZChannel(0.1), dict(p=0.1, q=0.0)),
            (repro.NoisyChannel(0.1, 0.02), dict(p=0.1, q=0.02)),
        ],
    )
    def test_above_bound_succeeds_below_fails(self, channel, bound_kwargs):
        n, theta = 500, 0.25
        k = repro.sublinear_k(n, theta)
        bound = repro.theorem1_bound(n, theta=theta, **bound_kwargs)
        wins_hi = wins_lo = 0
        trials = 8
        for seed in range(trials):
            gen = np.random.default_rng(seed)
            truth = repro.sample_ground_truth(n, k, gen)
            g_hi = repro.sample_pooling_graph(n, int(2.0 * bound), rng=gen)
            g_lo = repro.sample_pooling_graph(n, max(1, int(0.1 * bound)), rng=gen)
            meas_hi = repro.measure(g_hi, truth, channel, gen)
            meas_lo = repro.measure(g_lo, truth, channel, gen)
            centering = "oracle" if bound_kwargs["q"] > 0 else "half_k"
            wins_hi += repro.greedy_reconstruct(meas_hi, centering=centering).exact
            wins_lo += repro.greedy_reconstruct(meas_lo, centering=centering).exact
        assert wins_hi >= trials - 1
        assert wins_lo <= 1

    def test_counting_bound_is_a_true_floor(self):
        # No run can ever succeed below the counting lower bound with
        # strict separation... statistically: the incremental procedure's
        # reported required_m should exceed the floor.
        n, k = 300, 5
        floor = repro.counting_lower_bound(n, k)
        res = repro.required_queries(n, k, repro.NoiselessChannel(), rng=3)
        assert res.succeeded
        assert res.required_m > floor


class TestFigurePipelineConsistency:
    def test_fig6_success_rates_consistent_with_direct_runs(self):
        from repro.experiments.figures import figure6
        from repro.experiments.runner import success_rate_curve

        result = figure6(
            n=150, ps=(0.1,), m_values=(120,), trials=6, seed=5,
            algorithms=("greedy",),
        )
        row = result.series("greedy p=0.1")[0]
        curve = success_rate_curve(
            150, repro.sublinear_k(150, 0.25), repro.ZChannel(0.1), [120],
            trials=6, seed=5,
        )
        assert row["success_rate"] == curve.success_rates[0]

    def test_cli_plot_smoke(self, capsys):
        from repro.cli import main

        rc = main([
            "fig2", "--trials", "1", "--n-min", "60", "--n-max", "120",
            "--n-points", "2", "--plot",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "o=p=0.1" in out
