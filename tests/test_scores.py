"""Unit tests for repro.core.scores."""

import numpy as np
import pytest

import repro
from repro.core.scores import (
    CENTERINGS,
    centered_scores,
    centering_offset,
    expected_query_result,
    scores_from_measurements,
    separation_margin,
    top_k_estimate,
)


class TestCenteredScores:
    def test_half_k_formula(self):
        psi = np.array([10.0, 20.0])
        ds = np.array([2, 4])
        offset = centering_offset("half_k", None, n=8, k=4, gamma=4)
        assert offset == 2.0
        out = centered_scores(psi, ds, offset)
        assert np.allclose(out, [10 - 4, 20 - 8])

    def test_oracle_mode(self):
        channel = repro.NoiselessChannel()
        offset = centering_offset("oracle", channel, n=100, k=10, gamma=40)
        assert offset == expected_query_result(channel, 100, 10, 40) == 4.0
        out = centered_scores(np.array([10.0]), np.array([2]), offset)
        assert np.allclose(out, [2.0])

    def test_oracle_requires_expected(self):
        # The oracle offset is the channel's expected query result.
        with pytest.raises(ValueError, match="requires the channel"):
            centering_offset("oracle", None, n=10, k=1, gamma=5)

    def test_unknown_mode(self):
        for name in ("bogus", "none"):
            with pytest.raises(ValueError, match="unknown centering"):
                centering_offset(name, repro.NoiselessChannel(), 10, 1, 5)
        assert CENTERINGS == ("half_k", "oracle")

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            centered_scores(np.array([1.0, 2.0]), np.array([1]), 0.5)


class TestExpectedQueryResult:
    def test_noiseless(self):
        ch = repro.NoiselessChannel()
        assert expected_query_result(ch, 100, 10, 50) == pytest.approx(5.0)

    def test_noisy_channel(self):
        ch = repro.NoisyChannel(0.2, 0.1)
        expected = 50 * (0.1 + 0.1 * 0.7)
        assert expected_query_result(ch, 100, 10, 50) == pytest.approx(expected)

    def test_empirical_agreement(self):
        # The oracle expectation should match the empirical mean result.
        gen = np.random.default_rng(21)
        n, k, m = 400, 40, 300
        truth = repro.sample_ground_truth(n, k, gen)
        graph = repro.sample_pooling_graph(n, m, rng=gen)
        channel = repro.NoisyChannel(0.2, 0.05)
        meas = repro.measure(graph, truth, channel, gen)
        predicted = expected_query_result(channel, n, k, graph.gamma)
        assert abs(meas.results.mean() - predicted) < 0.05 * predicted


class TestTopKEstimate:
    def test_selects_largest(self):
        est = top_k_estimate(np.array([5.0, 1.0, 3.0, 4.0]), 2)
        assert np.array_equal(est, [1, 0, 0, 1])

    def test_k_zero(self):
        est = top_k_estimate(np.array([1.0, 2.0]), 0)
        assert est.sum() == 0

    def test_k_equals_n(self):
        est = top_k_estimate(np.array([1.0, 2.0]), 2)
        assert est.sum() == 2

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            top_k_estimate(np.array([1.0]), 2)
        with pytest.raises(ValueError):
            top_k_estimate(np.array([1.0]), -1)

    def test_tie_break_prefers_lower_id(self):
        est = top_k_estimate(np.array([1.0, 1.0, 1.0]), 1)
        assert np.array_equal(est, [1, 0, 0])

    def test_exactly_k_ones(self, rng):
        scores = rng.normal(size=100)
        for k in (0, 1, 10, 99, 100):
            assert top_k_estimate(scores, k).sum() == k

    def test_translation_invariance(self, rng):
        # Adding a constant to all scores must not change the selection.
        scores = rng.normal(size=50)
        a = top_k_estimate(scores, 7)
        b = top_k_estimate(scores + 123.4, 7)
        assert np.array_equal(a, b)


class TestSeparationMargin:
    def test_positive_when_separated(self):
        scores = np.array([10.0, 1.0, 9.0, 2.0])
        sigma = np.array([1, 0, 1, 0])
        assert separation_margin(scores, sigma) == pytest.approx(7.0)

    def test_negative_when_overlapping(self):
        scores = np.array([1.0, 10.0])
        sigma = np.array([1, 0])
        assert separation_margin(scores, sigma) == pytest.approx(-9.0)

    def test_zero_when_touching(self):
        scores = np.array([5.0, 5.0])
        sigma = np.array([1, 0])
        assert separation_margin(scores, sigma) == pytest.approx(0.0)

    def test_degenerate_all_zero(self):
        assert separation_margin(np.array([1.0, 2.0]), np.array([0, 0])) == np.inf

    def test_degenerate_all_one(self):
        assert separation_margin(np.array([1.0, 2.0]), np.array([1, 1])) == np.inf


class TestScoresFromMeasurements:
    def test_half_k_matches_manual(self, z_instance):
        truth, graph, meas = z_instance
        scores = scores_from_measurements(meas)
        psi = graph.neighborhood_sums(meas.results)
        ds = graph.distinct_degrees()
        assert np.allclose(scores, psi - ds * truth.k / 2)

    def test_oracle_mode_runs(self, z_instance):
        _, _, meas = z_instance
        scores = scores_from_measurements(meas, mode="oracle")
        assert scores.shape == (meas.n,)

    def test_ones_score_higher_on_average(self, z_instance):
        truth, _, meas = z_instance
        scores = scores_from_measurements(meas)
        ones_mean = scores[truth.sigma == 1].mean()
        zeros_mean = scores[truth.sigma == 0].mean()
        assert ones_mean > zeros_mean
