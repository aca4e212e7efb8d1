"""Unit tests for the incremental required-queries simulator."""

import numpy as np
import pytest

import repro
from repro.core.incremental import (
    IncrementalDecoder,
    default_max_queries,
    required_queries,
)


class TestIncrementalDecoder:
    def test_state_matches_batch_decoder(self, rng):
        # Streaming the same queries must produce the same scores as the
        # batch pipeline on the assembled graph.
        n, k = 150, 5
        truth = repro.sample_ground_truth(n, k, rng)
        dec = IncrementalDecoder(truth, repro.NoiselessChannel())
        results = [dec.add_query(rng) for _ in range(40)]

        # Rebuild psi/delta* from scratch using the recorded totals.
        assert dec.m == 40
        scores_expected = dec.psi - dec.delta_star * k / 2
        assert np.allclose(dec.scores, scores_expected)
        assert np.all(dec.delta_star <= dec.delta)
        assert dec.delta.sum() == 40 * dec.gamma
        assert len(results) == 40

    def test_noiseless_results_are_integers(self, rng):
        truth = repro.sample_ground_truth(100, 5, rng)
        dec = IncrementalDecoder(truth)
        r = dec.add_query(rng)
        assert r == int(r)

    def test_reconstruction_consistency(self, rng):
        truth = repro.sample_ground_truth(200, 5, rng)
        dec = IncrementalDecoder(truth, repro.ZChannel(0.1))
        for _ in range(200):
            dec.add_query(rng)
        rec = dec.reconstruction()
        assert rec.estimate.sum() == truth.k
        if dec.is_successful():
            assert rec.exact

    def test_separation_improves_with_queries(self, rng):
        truth = repro.sample_ground_truth(300, 6, rng)
        dec = IncrementalDecoder(truth, repro.NoiselessChannel())
        for _ in range(10):
            dec.add_query(rng)
        early = dec.separation()
        for _ in range(290):
            dec.add_query(rng)
        late = dec.separation()
        assert late > early

    def test_custom_gamma(self, rng):
        truth = repro.sample_ground_truth(100, 5, rng)
        dec = IncrementalDecoder(truth, gamma=10)
        dec.add_query(rng)
        assert dec.delta.sum() == 10


class TestIngestQuery:
    """The decode service's wire-fed entry point (PR 10, satellite 3)."""

    def _measured(self, n, gamma, channel, truth, rng, count):
        sigma = truth.sigma.astype(np.int64)
        queries = []
        for _ in range(count):
            agents, counts = repro.sample_query(n, gamma, rng)
            total = int(np.dot(counts, sigma[agents]))
            result = float(
                channel.measure(
                    np.asarray([total]), int(counts.sum()), rng
                )[0]
            )
            queries.append((agents, counts, result))
        return queries

    def test_matches_batch_greedy_scores(self, rng):
        # Streaming externally measured queries one at a time must land
        # on the same scores as the batch greedy pipeline on the
        # assembled graph — same accumulations, different order of
        # assembly.
        n, k, gamma = 120, 4, 60
        channel = repro.ZChannel(0.15)
        truth = repro.sample_ground_truth(n, k, rng)
        queries = self._measured(n, gamma, channel, truth, rng, 50)

        dec = IncrementalDecoder(truth, channel, gamma)
        builder = repro.PoolingGraphBuilder(n, gamma)
        results = []
        for agents, counts, result in queries:
            dec.ingest_query(agents, counts, result)
            builder.add_query(agents, counts)
            results.append(result)
        meas = repro.Measurements(
            graph=builder.build(),
            truth=truth,
            channel=channel,
            results=np.asarray(results),
        )
        batch = repro.greedy_reconstruct(meas)
        assert np.allclose(dec.scores, batch.scores)
        assert bool(dec.is_successful()) == bool(batch.separated)
        assert np.array_equal(dec.reconstruction().estimate, batch.estimate)

    def test_replay_then_append_is_pure(self, rng):
        # A decoder restored by replaying its first queries and then
        # grown further is bit-identical to one that never stopped —
        # the service's crash-recovery contract.
        n, k, gamma = 100, 3, 50
        channel = repro.GaussianQueryNoise(0.5)
        truth = repro.sample_ground_truth(n, k, rng)
        queries = self._measured(n, gamma, channel, truth, rng, 40)

        straight = IncrementalDecoder(truth, channel, gamma)
        for agents, counts, result in queries:
            straight.ingest_query(agents, counts, result)

        replayed = IncrementalDecoder(truth, channel, gamma)
        for agents, counts, result in queries[:23]:  # pre-crash prefix
            replayed.ingest_query(agents, counts, result)
        for agents, counts, result in queries[23:]:  # post-restart growth
            replayed.ingest_query(agents, counts, result)

        assert replayed.m == straight.m
        assert np.array_equal(replayed.scores, straight.scores)
        assert np.array_equal(replayed.psi, straight.psi)
        assert np.array_equal(replayed.delta_star, straight.delta_star)
        assert replayed.separation() == straight.separation()

    def test_ingest_matches_add_query(self, rng):
        # add_query == sample + measure + ingest_query on shared rng
        # state: the streaming entry point is the simulator's own path.
        n, k, gamma = 80, 3, 40
        truth = repro.sample_ground_truth(n, k, rng)
        channel = repro.ZChannel(0.1)
        seed = int(rng.integers(2**32))

        auto = IncrementalDecoder(truth, channel, gamma)
        gen = np.random.default_rng(seed)
        for _ in range(20):
            auto.add_query(gen)

        manual = IncrementalDecoder(truth, channel, gamma)
        gen = np.random.default_rng(seed)
        sigma = truth.sigma.astype(np.int64)
        for _ in range(20):
            agents, counts = repro.sample_query(n, gamma, gen)
            total = int(np.dot(counts, sigma[agents]))
            result = float(
                channel.measure(
                    np.asarray([total]), int(counts.sum()), gen
                )[0]
            )
            manual.ingest_query(agents, counts, result)

        assert np.array_equal(manual.scores, auto.scores)
        assert manual.separation() == auto.separation()


class TestRequiredQueries:
    def test_noiseless_succeeds(self):
        res = required_queries(200, 5, repro.NoiselessChannel(), rng=1)
        assert res.succeeded
        assert res.required_m is not None
        assert res.required_m >= 1

    def test_z_channel_succeeds(self):
        res = required_queries(200, 5, repro.ZChannel(0.1), rng=2)
        assert res.succeeded

    def test_noisier_needs_more_queries_on_average(self):
        # Averaged over seeds, p=0.4 requires at least as many queries as p=0.
        m_clean, m_noisy = [], []
        for seed in range(8):
            clean = required_queries(300, 5, repro.NoiselessChannel(), rng=seed)
            noisy = required_queries(300, 5, repro.ZChannel(0.4), rng=seed)
            assert clean.succeeded and noisy.succeeded
            m_clean.append(clean.required_m)
            m_noisy.append(noisy.required_m)
        assert np.mean(m_noisy) > np.mean(m_clean)

    def test_budget_exhaustion_reports_failure(self):
        res = required_queries(200, 5, repro.ZChannel(0.1), rng=3, max_m=2)
        assert not res.succeeded
        assert res.required_m is None
        assert res.meta["max_m"] == 2

    def test_huge_gaussian_noise_fails_within_budget(self):
        # lambda^2 = Omega(m): Algorithm 1 should fail (Theorem 2, part 2).
        res = required_queries(
            100, 3, repro.GaussianQueryNoise(1000.0), rng=4, max_m=150
        )
        assert not res.succeeded

    def test_check_every_validation(self):
        with pytest.raises(ValueError):
            required_queries(100, 3, rng=5, check_every=0)

    def test_check_every_coarser_never_reports_smaller_m(self):
        fine = required_queries(200, 5, repro.NoiselessChannel(), rng=6, check_every=1)
        coarse = required_queries(200, 5, repro.NoiselessChannel(), rng=6, check_every=10)
        assert coarse.required_m >= fine.required_m
        assert coarse.required_m % 10 == 0

    def test_provided_truth_is_used(self, rng):
        truth = repro.sample_ground_truth(100, 4, rng)
        res = required_queries(100, 4, rng=rng, truth=truth)
        assert res.succeeded

    @pytest.mark.parametrize(
        "kwargs, error",
        [
            (dict(truth=repro.sample_ground_truth(50, 3, rng=0)), ValueError),
            (dict(truth=repro.sample_ground_truth(100, 5, rng=0)), ValueError),
            (dict(max_m=-5), ValueError),
            (dict(max_m=2.5), TypeError),
        ],
        ids=["truth-wrong-n", "truth-wrong-k", "negative-max-m",
             "fractional-max-m"],
    )
    def test_invalid_input_rejected(self, kwargs, error):
        # A run with n=100, k=3 must not accept a truth drawn for
        # another instance, nor a budget that is not a count.
        with pytest.raises(error):
            required_queries(100, 3, repro.NoiselessChannel(), rng=1, **kwargs)

    def test_determinism(self):
        a = required_queries(150, 4, repro.ZChannel(0.2), rng=9)
        b = required_queries(150, 4, repro.ZChannel(0.2), rng=9)
        assert a.required_m == b.required_m

    def test_default_budget_generous(self):
        assert default_max_queries(1000, 5) > 1000
