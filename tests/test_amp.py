"""Tests for the AMP baseline: denoisers, iteration, state evolution."""

import numpy as np
import pytest

import repro
from repro.amp import (
    AMPConfig,
    BayesBernoulliDenoiser,
    SoftThresholdDenoiser,
    denoiser_mse,
    predicted_success,
    run_amp,
    standardize_system,
    state_evolution,
)


class TestBayesBernoulliDenoiser:
    def test_output_is_probability(self):
        d = BayesBernoulliDenoiser(0.01)
        x = np.linspace(-5, 5, 101)
        out = d(x, 0.5)
        assert np.all(out >= 0) and np.all(out <= 1)

    def test_monotone_in_x(self):
        d = BayesBernoulliDenoiser(0.1)
        x = np.linspace(-3, 3, 51)
        out = d(x, 0.7)
        assert np.all(np.diff(out) >= 0)

    def test_small_tau_hard_decision(self):
        d = BayesBernoulliDenoiser(0.5)
        out = d(np.array([0.0, 1.0]), 1e-6)
        assert out[0] < 1e-6
        assert out[1] > 1 - 1e-6

    def test_large_tau_returns_prior(self):
        d = BayesBernoulliDenoiser(0.3)
        out = d(np.array([0.0, 1.0, -2.0]), 1e6)
        assert np.allclose(out, 0.3, atol=1e-3)

    def test_derivative_matches_finite_difference(self):
        d = BayesBernoulliDenoiser(0.05)
        x = np.linspace(-1, 2, 31)
        tau, h = 0.4, 1e-6
        numeric = (d(x + h, tau) - d(x - h, tau)) / (2 * h)
        assert np.allclose(d.derivative(x, tau), numeric, rtol=1e-4, atol=1e-6)

    def test_no_overflow_extreme_inputs(self):
        d = BayesBernoulliDenoiser(0.01)
        out = d(np.array([-1e8, 1e8]), 0.1)
        assert np.all(np.isfinite(out))

    def test_invalid_pi(self):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(ValueError):
                BayesBernoulliDenoiser(bad)

    def test_posterior_variance(self):
        d = BayesBernoulliDenoiser(0.2)
        x = np.array([0.5])
        eta = d(x, 0.5)
        assert d.posterior_variance(x, 0.5) == pytest.approx(eta * (1 - eta))


class TestSoftThresholdDenoiser:
    def test_kills_small_values(self):
        d = SoftThresholdDenoiser(alpha=2.0)
        out = d(np.array([0.1, -0.1]), 1.0)
        assert np.allclose(out, 0.0)

    def test_shrinks_large_values(self):
        d = SoftThresholdDenoiser(alpha=1.0)
        out = d(np.array([5.0, -5.0]), 1.0)
        assert np.allclose(out, [4.0, -4.0])

    def test_derivative_is_indicator(self):
        d = SoftThresholdDenoiser(alpha=1.0)
        out = d.derivative(np.array([0.5, 2.0, -3.0]), 1.0)
        assert np.array_equal(out, [0.0, 1.0, 1.0])

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            SoftThresholdDenoiser(alpha=0.0)


class TestStandardizeSystem:
    def test_columns_approximately_unit_norm(self, rng):
        graph = repro.sample_pooling_graph(500, 200, rng=rng)
        truth = repro.sample_ground_truth(500, 10, rng)
        meas = repro.measure(graph, truth, rng=rng)
        a_s, _ = standardize_system(
            graph.adjacency_dense(), meas.results, truth.k, graph.gamma, meas.channel
        )
        norms = np.linalg.norm(a_s, axis=0)
        assert abs(norms.mean() - 1.0) < 0.05

    def test_standardized_model_consistency_noiseless(self, rng):
        # y should equal A_s sigma exactly in the noiseless case.
        graph = repro.sample_pooling_graph(300, 100, rng=rng)
        truth = repro.sample_ground_truth(300, 8, rng)
        meas = repro.measure(graph, truth, rng=rng)
        a_s, y = standardize_system(
            graph.adjacency_dense(), meas.results, truth.k, graph.gamma, meas.channel
        )
        assert np.allclose(y, a_s @ truth.sigma)

    def test_channel_correction_unbiased(self):
        # After p/q correction, E[y] should match A_s sigma.
        gen = np.random.default_rng(3)
        graph = repro.sample_pooling_graph(300, 80, rng=gen)
        truth = repro.sample_ground_truth(300, 30, gen)
        channel = repro.NoisyChannel(0.2, 0.1)
        ys = []
        for _ in range(800):
            meas = repro.measure(graph, truth, channel, gen)
            _, y = standardize_system(
                graph.adjacency_dense(), meas.results, truth.k, graph.gamma, channel
            )
            ys.append(y)
        a_s, _ = standardize_system(
            graph.adjacency_dense(),
            np.zeros(graph.m),
            truth.k,
            graph.gamma,
            repro.NoiselessChannel(),
        )
        target = a_s @ truth.sigma
        # Per-trial std of y is ~0.9 here; 800 trials -> mean std ~0.03,
        # so 0.15 is a generous 5-sigma corridor per coordinate.
        assert np.allclose(np.mean(ys, axis=0), target, atol=0.15)

    def test_shape_mismatch_rejected(self, rng):
        graph = repro.sample_pooling_graph(50, 10, rng=rng)
        with pytest.raises(ValueError):
            standardize_system(
                graph.adjacency_dense(), np.zeros(11), 5, graph.gamma,
                repro.NoiselessChannel(),
            )

    def test_unsupported_channel_rejected(self, rng):
        graph = repro.sample_pooling_graph(50, 10, rng=rng)

        class Weird:
            pass

        with pytest.raises(TypeError):
            standardize_system(
                graph.adjacency_dense(), np.zeros(10), 5, graph.gamma, Weird()
            )


class TestAMPConfig:
    def test_defaults_valid(self):
        AMPConfig()

    def test_invalid_damping(self):
        with pytest.raises(ValueError):
            AMPConfig(damping=1.0)

    def test_invalid_tol(self):
        with pytest.raises(ValueError):
            AMPConfig(tol=-1.0)

    def test_nan_tol_rejected(self):
        # NaN passes a plain ``tol < 0`` check but never converges, so
        # it would silently run every iteration.
        with pytest.raises(ValueError, match="tol"):
            AMPConfig(tol=float("nan"))
        with pytest.raises(ValueError, match="tol"):
            AMPConfig(tol=np.float64("nan"))

    def test_invalid_max_iter(self):
        with pytest.raises(ValueError):
            AMPConfig(max_iter=0)


class TestRunAMP:
    def test_recovers_noiseless(self, rng):
        truth = repro.sample_ground_truth(400, 5, rng)
        graph = repro.sample_pooling_graph(400, 120, rng=rng)
        meas = repro.measure(graph, truth, rng=rng)
        result = run_amp(meas)
        assert result.exact
        assert result.meta["algorithm"] == "amp"

    def test_recovers_z_channel(self, rng):
        truth = repro.sample_ground_truth(500, 5, rng)
        graph = repro.sample_pooling_graph(500, 200, rng=rng)
        meas = repro.measure(graph, truth, repro.ZChannel(0.1), rng)
        assert run_amp(meas).exact

    def test_estimate_weight_is_k(self, rng):
        truth = repro.sample_ground_truth(200, 7, rng)
        graph = repro.sample_pooling_graph(200, 30, rng=rng)
        meas = repro.measure(graph, truth, repro.ZChannel(0.3), rng)
        assert run_amp(meas).estimate.sum() == 7

    def test_zero_queries_rejected(self, rng):
        truth = repro.sample_ground_truth(50, 3, rng)
        graph = repro.sample_pooling_graph(50, 0, rng=rng)
        meas = repro.measure(graph, truth, rng=rng)
        with pytest.raises(ValueError):
            run_amp(meas)

    def test_history_tracked(self, rng):
        truth = repro.sample_ground_truth(200, 5, rng)
        graph = repro.sample_pooling_graph(200, 80, rng=rng)
        meas = repro.measure(graph, truth, rng=rng)
        result = run_amp(meas)
        assert len(result.meta["history"]) == result.meta["iterations"]
        assert all("tau" in h for h in result.meta["history"])

    def test_history_disabled(self, rng):
        truth = repro.sample_ground_truth(200, 5, rng)
        graph = repro.sample_pooling_graph(200, 80, rng=rng)
        meas = repro.measure(graph, truth, rng=rng)
        result = run_amp(meas, config=AMPConfig(track_history=False))
        assert result.meta["history"] == []

    def test_converges_on_easy_instance(self, rng):
        truth = repro.sample_ground_truth(300, 4, rng)
        graph = repro.sample_pooling_graph(300, 150, rng=rng)
        meas = repro.measure(graph, truth, rng=rng)
        result = run_amp(meas)
        assert result.meta["converged"]
        assert result.meta["iterations"] < 50

    def test_amp_beats_greedy_at_low_m(self):
        """The paper's Fig. 6 headline: AMP succeeds with fewer queries."""
        amp_wins, greedy_wins = 0, 0
        n, k, m = 1000, 6, 120
        for seed in range(10):
            gen = np.random.default_rng(seed)
            truth = repro.sample_ground_truth(n, k, gen)
            graph = repro.sample_pooling_graph(n, m, rng=gen)
            meas = repro.measure(graph, truth, repro.ZChannel(0.1), gen)
            amp_wins += run_amp(meas).exact
            greedy_wins += repro.greedy_reconstruct(meas).exact
        assert amp_wins > greedy_wins
        assert amp_wins >= 8

    def test_soft_threshold_denoiser_also_works_noiseless(self, rng):
        truth = repro.sample_ground_truth(300, 4, rng)
        graph = repro.sample_pooling_graph(300, 150, rng=rng)
        meas = repro.measure(graph, truth, rng=rng)
        result = run_amp(meas, denoiser=SoftThresholdDenoiser(alpha=1.5))
        assert result.meta["denoiser"].startswith("soft-threshold")
        # Soft threshold is weaker but should still rank most ones high.
        assert result.overlap >= 0.5

    def test_damping_still_recovers(self, rng):
        truth = repro.sample_ground_truth(300, 4, rng)
        graph = repro.sample_pooling_graph(300, 150, rng=rng)
        meas = repro.measure(graph, truth, rng=rng)
        result = run_amp(meas, config=AMPConfig(damping=0.3))
        assert result.exact

    def test_determinism(self):
        gen1 = np.random.default_rng(77)
        truth1 = repro.sample_ground_truth(200, 5, gen1)
        graph1 = repro.sample_pooling_graph(200, 100, rng=gen1)
        meas1 = repro.measure(graph1, truth1, repro.ZChannel(0.1), gen1)
        r1 = run_amp(meas1)
        gen2 = np.random.default_rng(77)
        truth2 = repro.sample_ground_truth(200, 5, gen2)
        graph2 = repro.sample_pooling_graph(200, 100, rng=gen2)
        meas2 = repro.measure(graph2, truth2, repro.ZChannel(0.1), gen2)
        r2 = run_amp(meas2)
        assert np.allclose(r1.scores, r2.scores)

    def test_sparse_default_never_materializes_dense(self, monkeypatch):
        # The hot path must stay sparse at every size: poison the dense
        # conversion and check the default still runs (and is flagged
        # sparse in the metadata).
        gen = np.random.default_rng(91)
        truth = repro.sample_ground_truth(300, 5, gen)
        graph = repro.sample_pooling_graph(300, 120, rng=gen)
        meas = repro.measure(graph, truth, repro.ZChannel(0.1), gen)
        monkeypatch.setattr(
            repro.PoolingGraph,
            "adjacency_dense",
            lambda self, dtype=np.float64: (_ for _ in ()).throw(
                AssertionError("dense adjacency materialized on the AMP hot path")
            ),
        )
        result = run_amp(meas)
        assert result.meta["sparse"] is True
        assert result.scores.shape == (300,)
        # there is no dense path left to select
        with pytest.raises(TypeError, match="sparse"):
            run_amp(meas, sparse=None)

    def test_dense_override_matches_sparse(self):
        # the dense closures of tests/reference.py against the sparse
        # operator
        from reference import run_amp_dense

        gen = np.random.default_rng(93)
        truth = repro.sample_ground_truth(150, 4, gen)
        graph = repro.sample_pooling_graph(150, 80, rng=gen)
        meas = repro.measure(graph, truth, rng=gen)
        sparse = run_amp(meas)
        dense_scores, _ = run_amp_dense(meas)
        assert np.allclose(sparse.scores, dense_scores, atol=1e-9)


class TestStateEvolution:
    def test_mse_decreases_noiseless_easy(self):
        d = BayesBernoulliDenoiser(0.01)
        res = state_evolution(d, pi=0.01, delta=0.2)
        assert res.mse[-1] <= res.mse[0]

    def test_fixed_point_near_zero_when_easy(self):
        d = BayesBernoulliDenoiser(0.005)
        res = state_evolution(d, pi=0.005, delta=0.15)
        assert res.fixed_point_mse < 1e-8

    def test_fixed_point_large_when_hard(self):
        # Extreme undersampling: SE must not predict recovery.
        d = BayesBernoulliDenoiser(0.3)
        res = state_evolution(d, pi=0.3, delta=0.001)
        assert res.fixed_point_mse > 1e-3

    def test_noise_floor_respected(self):
        d = BayesBernoulliDenoiser(0.01)
        clean = state_evolution(d, pi=0.01, delta=0.2, sigma_w2=0.0)
        noisy = state_evolution(d, pi=0.01, delta=0.2, sigma_w2=0.5)
        assert noisy.tau2[-1] > clean.tau2[-1]

    def test_denoiser_mse_bounds(self):
        d = BayesBernoulliDenoiser(0.1)
        # MSE can never exceed the prior variance pi(1-pi) for Bayes eta.
        for tau in (0.1, 1.0, 10.0):
            assert 0 <= denoiser_mse(d, 0.1, tau) <= 0.1 * 0.9 + 1e-9

    def test_predicted_success_flags(self):
        d_easy = BayesBernoulliDenoiser(0.005)
        assert predicted_success(d_easy, 0.005, 0.15)
        d_hard = BayesBernoulliDenoiser(0.3)
        assert not predicted_success(d_hard, 0.3, 0.001)

    def test_se_matches_simulated_amp_first_iterations(self):
        """SE tau trajectory should track simulated AMP (coarsely)."""
        gen = np.random.default_rng(10)
        n, k, m = 2000, 20, 600
        truth = repro.sample_ground_truth(n, k, gen)
        graph = repro.sample_pooling_graph(n, m, rng=gen)
        meas = repro.measure(graph, truth, rng=gen)
        result = run_amp(meas)
        empirical_tau0 = result.meta["history"][0]["tau"]
        se = state_evolution(BayesBernoulliDenoiser(k / n), k / n, delta=m / n)
        assert empirical_tau0**2 == pytest.approx(se.tau2[0], rel=0.25)

    def test_invalid_inputs(self):
        d = BayesBernoulliDenoiser(0.1)
        with pytest.raises(ValueError):
            state_evolution(d, pi=0.1, delta=0.0)
        with pytest.raises(ValueError):
            state_evolution(d, pi=1.5, delta=0.1)
        with pytest.raises(ValueError):
            denoiser_mse(d, 0.1, 0.0)
