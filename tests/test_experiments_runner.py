"""Tests for the experiment trial runner."""

import numpy as np
import pytest

import repro
from repro.experiments.runner import (
    RequiredQueriesSample,
    required_queries_trials,
    run_many,
    success_rate_curve,
)


class TestCheckEngine:
    """One simulator per cell kind: no entry point takes ``engine=``."""

    def test_unknown_engine_rejected_by_entry_points(self):
        from repro.core.incremental import required_queries
        from repro.experiments import figures

        z = repro.ZChannel(0.1)
        builders = (
            figures.figure2, figures.figure3, figures.figure4,
            figures.figure5, figures.figure6, figures.figure7,
            figures.figure_design_ablation,
        )
        for engine in ("warp", "batch", "legacy"):
            calls = [
                lambda: required_queries_trials(
                    100, 3, z, trials=1, engine=engine
                ),
                lambda: success_rate_curve(
                    100, 3, z, [10], trials=1, engine=engine
                ),
                lambda: required_queries(100, 3, z, rng=0, engine=engine),
            ]
            calls += [
                lambda build=build: build(trials=1, engine=engine)
                for build in builders
            ]
            for call in calls:
                with pytest.raises(TypeError, match="engine"):
                    call()
        # the brute-force AMP scan lives in tests/reference.py only
        with pytest.raises(ImportError):
            from repro.amp import required_queries_amp_linear  # noqa: F401
        with pytest.raises(ImportError):
            from repro.amp.batch_amp import (  # noqa: F401
                required_queries_amp_linear,
            )


class TestWorkersValidation:
    def test_negative_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            required_queries_trials(
                100, 3, repro.ZChannel(0.1), trials=2, workers=-1
            )
        with pytest.raises(ValueError, match="workers"):
            success_rate_curve(
                100, 3, repro.ZChannel(0.1), [10], trials=2, workers=-2
            )

    def test_non_integer_workers_rejected(self):
        with pytest.raises(TypeError, match="workers"):
            required_queries_trials(
                100, 3, repro.ZChannel(0.1), trials=2, workers=1.5
            )


class TestRequiredQueriesTrials:
    def test_collects_all_trials(self):
        sample = required_queries_trials(
            150, 4, repro.NoiselessChannel(), trials=5, seed=1
        )
        assert sample.trials == 5
        assert len(sample.values) == 5
        assert sample.failures == 0
        assert sample.median > 0

    def test_reproducible(self):
        a = required_queries_trials(150, 4, repro.ZChannel(0.1), trials=4, seed=9)
        b = required_queries_trials(150, 4, repro.ZChannel(0.1), trials=4, seed=9)
        assert a.values == b.values

    def test_different_seeds_vary(self):
        a = required_queries_trials(150, 4, repro.ZChannel(0.1), trials=4, seed=1)
        b = required_queries_trials(150, 4, repro.ZChannel(0.1), trials=4, seed=2)
        assert a.values != b.values

    def test_failures_counted(self):
        sample = required_queries_trials(
            200, 5, repro.ZChannel(0.1), trials=3, seed=0, max_m=2
        )
        assert sample.failures == 3
        assert sample.values == []
        assert np.isnan(sample.median)

    def test_channel_label(self):
        sample = required_queries_trials(
            100, 3, repro.ZChannel(0.2), trials=2, seed=0
        )
        assert "z-channel" in sample.channel


class TestSuccessRateCurve:
    def test_monotone_trend_greedy(self):
        curve = success_rate_curve(
            200,
            4,
            repro.NoiselessChannel(),
            [10, 60, 200],
            trials=20,
            seed=3,
        )
        assert curve.success_rates[0] <= curve.success_rates[-1]
        assert curve.success_rates[-1] >= 0.9

    def test_overlap_at_least_success(self):
        curve = success_rate_curve(
            200, 4, repro.ZChannel(0.2), [30, 120], trials=15, seed=4
        )
        for rate, overlap in zip(curve.success_rates, curve.overlaps):
            assert overlap >= rate - 1e-9

    def test_amp_algorithm(self):
        curve = success_rate_curve(
            200, 4, repro.NoiselessChannel(), [80], algorithm="amp", trials=5, seed=5
        )
        assert curve.algorithm == "amp"
        assert curve.success_rates[0] >= 0.8

    def test_amp_harness_dispatch_drops_history(self, rng):
        # Sweeps keep only the decode outcome; the harness dispatch must
        # not build O(iterations) history dicts per trial (the default
        # stays on for direct run_amp calls, pinned in test_amp.py).
        from repro.experiments.runner import _run_algorithm

        truth = repro.sample_ground_truth(200, 4, rng)
        graph = repro.sample_pooling_graph(200, 80, rng=rng)
        meas = repro.measure(graph, truth, rng=rng)
        result = _run_algorithm("amp", meas)
        assert result.meta["history"] == []

    def test_distributed_algorithm_matches_greedy(self):
        greedy = success_rate_curve(
            40, 3, repro.ZChannel(0.1), [30], algorithm="greedy", trials=5, seed=6
        )
        dist = success_rate_curve(
            40, 3, repro.ZChannel(0.1), [30], algorithm="distributed", trials=5, seed=6
        )
        assert greedy.success_rates == dist.success_rates

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            success_rate_curve(100, 3, repro.ZChannel(0.1), [10], algorithm="magic")

    def test_crossing(self):
        curve = success_rate_curve(
            200, 4, repro.NoiselessChannel(), [5, 50, 150], trials=10, seed=7
        )
        crossing = curve.crossing(0.5)
        assert crossing in (5, 50, 150, None)
        if curve.success_rates[-1] >= 0.5:
            assert crossing is not None

    def test_rates_in_unit_interval(self):
        curve = success_rate_curve(
            100, 3, repro.ZChannel(0.3), [20, 40], trials=10, seed=8
        )
        for r in curve.success_rates + curve.overlaps:
            assert 0.0 <= r <= 1.0


class TestRunMany:
    def test_runs_trials(self):
        outputs = run_many(lambda gen: gen.integers(0, 100), trials=5, seed=0)
        assert len(outputs) == 5

    def test_reproducible(self):
        a = run_many(lambda gen: int(gen.integers(0, 10**9)), trials=3, seed=1)
        b = run_many(lambda gen: int(gen.integers(0, 10**9)), trials=3, seed=1)
        assert a == b
