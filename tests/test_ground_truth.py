"""Unit tests for repro.core.ground_truth."""

import numpy as np
import pytest

from repro.core.ground_truth import (
    GroundTruth,
    linear_k,
    regime_k,
    sample_ground_truth,
    sample_linear,
    sample_sublinear,
    sublinear_k,
)


class TestRegimeK:
    def test_sublinear_matches_power(self):
        assert sublinear_k(10_000, 0.25) == 10
        assert sublinear_k(100_000, 0.25) == round(100_000**0.25)

    def test_sublinear_at_least_one(self):
        assert sublinear_k(2, 0.01) == 1

    def test_sublinear_never_exceeds_n(self):
        assert sublinear_k(3, 0.99) <= 3

    def test_linear_rounding(self):
        assert linear_k(1000, 0.1) == 100
        assert linear_k(10, 0.25) == 2  # round(2.5) banker's -> 2

    def test_linear_at_least_one(self):
        assert linear_k(3, 0.01) == 1

    def test_regime_dispatch_sublinear(self):
        assert regime_k(10_000, theta=0.25) == sublinear_k(10_000, 0.25)

    def test_regime_dispatch_linear(self):
        assert regime_k(1000, zeta=0.2) == linear_k(1000, 0.2)

    def test_regime_requires_exactly_one(self):
        with pytest.raises(ValueError):
            regime_k(100)
        with pytest.raises(ValueError):
            regime_k(100, theta=0.5, zeta=0.5)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 1.5])
    def test_invalid_theta_rejected(self, bad):
        with pytest.raises(ValueError):
            sublinear_k(100, bad)

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.1, 2.0])
    def test_invalid_zeta_rejected(self, bad):
        with pytest.raises(ValueError):
            linear_k(100, bad)

    def test_invalid_n_rejected(self):
        with pytest.raises(ValueError):
            sublinear_k(0, 0.5)
        with pytest.raises(TypeError):
            sublinear_k(10.5, 0.5)


class TestGroundTruth:
    def test_sample_weight(self, rng):
        truth = sample_ground_truth(500, 42, rng)
        assert truth.n == 500
        assert truth.k == 42
        assert truth.sigma.sum() == 42

    def test_sample_zero_k(self, rng):
        truth = sample_ground_truth(10, 0, rng)
        assert truth.k == 0
        assert truth.sigma.sum() == 0

    def test_sample_full_k(self, rng):
        truth = sample_ground_truth(10, 10, rng)
        assert truth.k == 10

    def test_k_exceeding_n_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_ground_truth(10, 11, rng)

    def test_ones_zeros_partition(self, rng):
        truth = sample_ground_truth(100, 30, rng)
        ones = set(truth.ones.tolist())
        zeros = set(truth.zeros.tolist())
        assert ones.isdisjoint(zeros)
        assert ones | zeros == set(range(100))
        assert len(ones) == 30

    def test_as_set(self, rng):
        truth = sample_ground_truth(50, 5, rng)
        assert truth.as_set() == frozenset(int(i) for i in truth.ones)

    def test_dtype_is_int8(self, rng):
        truth = sample_ground_truth(100, 10, rng)
        assert truth.sigma.dtype == np.int8

    def test_constructor_rejects_non_binary(self):
        with pytest.raises(ValueError):
            GroundTruth(np.array([0, 1, 2]))

    @pytest.mark.parametrize(
        "bad",
        [[0.0, np.nan, 1.0], [0, 2, 1], [-1, 0, 1]],
        ids=["nan", "two", "minus-one"],
    )
    def test_constructor_rejects_values_off_zero_one(self, bad):
        with pytest.raises(ValueError, match="0/1"):
            GroundTruth(np.array(bad))

    @pytest.mark.parametrize(
        "good",
        [[False, True, True], [0.0, 1.0, 0.0], [1, 1, 1], []],
        ids=["bool", "float", "all-ones", "empty"],
    )
    def test_constructor_accepts_zero_one_of_any_dtype(self, good):
        truth = GroundTruth(np.array(good))
        assert truth.sigma.dtype == np.int8
        assert truth.sigma.tolist() == [int(v) for v in good]

    def test_constructor_rejects_2d(self):
        with pytest.raises(ValueError):
            GroundTruth(np.zeros((3, 3)))

    def test_constructor_accepts_float_binary(self):
        truth = GroundTruth(np.array([0.0, 1.0, 0.0]))
        assert truth.k == 1
        assert truth.sigma.dtype == np.int8

    def test_uniformity_of_support(self):
        # Each agent should be a 1-agent in roughly k/n of many samples.
        n, k, trials = 20, 5, 4000
        gen = np.random.default_rng(0)
        hits = np.zeros(n)
        for _ in range(trials):
            hits += sample_ground_truth(n, k, gen).sigma
        freq = hits / trials
        expected = k / n
        assert np.all(np.abs(freq - expected) < 0.05)

    def test_determinism_same_seed(self):
        a = sample_ground_truth(100, 10, 42)
        b = sample_ground_truth(100, 10, 42)
        assert np.array_equal(a.sigma, b.sigma)

    def test_different_seeds_differ(self):
        a = sample_ground_truth(1000, 100, 1)
        b = sample_ground_truth(1000, 100, 2)
        assert not np.array_equal(a.sigma, b.sigma)


class TestRegimeSamplers:
    def test_sample_sublinear(self, rng):
        truth = sample_sublinear(10_000, 0.25, rng)
        assert truth.k == sublinear_k(10_000, 0.25)

    def test_sample_linear(self, rng):
        truth = sample_linear(1000, 0.1, rng)
        assert truth.k == 100
