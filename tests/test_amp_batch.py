"""Seeded equivalence of the batched (block-diagonal) AMP runner.

The contract under test (``repro/amp/batch_amp.py``): stacking T
trials into one block-diagonal system produces, for every trial,
results bit-identical to a standalone :func:`repro.amp.run_amp` call
on the same spawned child seed — same scores, estimate, exact flag,
overlap, iteration count and history — for every supported channel,
for mixed per-trial convergence (freezing + stack compaction), for any
stack size, and through the experiment harness with any worker count.
"""

import numpy as np
import pytest

import repro
from repro.amp import AMPConfig, SoftThresholdDenoiser, run_amp, run_amp_batch
from repro.amp.batch_amp import _stack_size, run_amp_trials
from repro.experiments import parallel
from repro.experiments.runner import success_rate_curve
from repro.utils.rng import spawn_rngs, spawn_seeds

from reference import fixed_m_curve

CHANNELS = [
    repro.NoiselessChannel(),
    repro.ZChannel(0.15),
    repro.NoisyChannel(0.1, 0.05),
    repro.GaussianQueryNoise(1.0),
]


def _per_trial_results(n, k, channel, m, seed, trials, config, denoiser=None):
    """The per-trial harness loop: one standalone run_amp per child seed."""
    out = []
    for gen in spawn_rngs(seed, trials):
        truth = repro.sample_ground_truth(n, k, gen)
        graph = repro.sample_pooling_graph(n, m, None, gen)
        meas = repro.measure(graph, truth, channel, gen)
        out.append(run_amp(meas, config=config, denoiser=denoiser))
    return out


class TestRunAmpTrialsEquivalence:
    @pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.describe())
    def test_bit_identical_to_per_trial_run_amp(self, channel):
        n, k, m, trials, seed = 400, 5, 130, 7, 11
        config = AMPConfig(track_history=True)
        singles = _per_trial_results(n, k, channel, m, seed, trials, config)
        batched = run_amp_trials(
            n, k, channel, m, spawn_seeds(seed, trials), config=config
        )
        assert len(batched) == trials
        for single, stacked in zip(singles, batched):
            assert np.array_equal(single.scores, stacked.scores)
            assert np.array_equal(single.estimate, stacked.estimate)
            assert single.exact == stacked.exact
            assert single.overlap == stacked.overlap
            assert single.separated == stacked.separated
            assert single.hamming_errors == stacked.hamming_errors
            assert single.meta["iterations"] == stacked.meta["iterations"]
            assert single.meta["converged"] == stacked.meta["converged"]
            assert single.meta["history"] == stacked.meta["history"]

    def test_mixed_iteration_counts_freeze_independently(self):
        # The noisy channel spreads per-trial convergence over many
        # iterations, exercising the freeze mask and (with >= half the
        # trials converged early) the stack compaction rebuild.
        n, k, m, trials, seed = 500, 6, 150, 12, 3
        channel = repro.NoisyChannel(0.1, 0.05)
        config = AMPConfig(track_history=False)
        singles = _per_trial_results(n, k, channel, m, seed, trials, config)
        batched = run_amp_trials(
            n, k, channel, m, spawn_seeds(seed, trials), config=config
        )
        iters = [r.meta["iterations"] for r in singles]
        assert len(set(iters)) > 1  # the scenario really is mixed
        assert iters == [r.meta["iterations"] for r in batched]
        for single, stacked in zip(singles, batched):
            assert np.array_equal(single.scores, stacked.scores)

    def test_stack_boundaries_do_not_matter(self):
        n, k, m, trials, seed = 300, 4, 100, 8, 21
        channel = repro.ZChannel(0.1)
        wide = run_amp_trials(n, k, channel, m, spawn_seeds(seed, trials))
        # Tiny element budget -> every trial lands in its own stack.
        narrow = run_amp_trials(
            n, k, channel, m, spawn_seeds(seed, trials), stack_elements=1
        )
        assert _stack_size(n, m, repro.default_gamma(n), 1) == 1
        for a, b in zip(wide, narrow):
            assert np.array_equal(a.scores, b.scores)
            assert a.meta["iterations"] == b.meta["iterations"]

    def test_large_nnz_cutoff_dispatch_is_invisible(self, monkeypatch):
        # Above STACK_NNZ_CUTOFF the trials run through standalone
        # run_amp instead of the stack; outputs must not change at all.
        from repro.amp import batch_amp

        n, k, m, trials, seed = 300, 4, 100, 6, 13
        channel = repro.ZChannel(0.1)
        stacked = run_amp_trials(n, k, channel, m, spawn_seeds(seed, trials))
        monkeypatch.setattr(batch_amp, "STACK_NNZ_CUTOFF", 1)
        looped = run_amp_trials(n, k, channel, m, spawn_seeds(seed, trials))
        for a, b in zip(stacked, looped):
            assert np.array_equal(a.scores, b.scores)
            assert np.array_equal(a.estimate, b.estimate)
            assert a.meta["iterations"] == b.meta["iterations"]
            assert b.meta["history"] == []  # history default stays off

    def test_custom_denoiser_and_damping(self):
        n, k, m, trials, seed = 300, 4, 150, 5, 9
        channel = repro.NoiselessChannel()
        config = AMPConfig(damping=0.3, track_history=False)
        denoiser = SoftThresholdDenoiser(alpha=1.5)
        singles = _per_trial_results(
            n, k, channel, m, seed, trials, config, denoiser=denoiser
        )
        batched = run_amp_trials(
            n, k, channel, m, spawn_seeds(seed, trials),
            config=config, denoiser=denoiser,
        )
        for single, stacked in zip(singles, batched):
            assert np.array_equal(single.scores, stacked.scores)
            assert stacked.meta["denoiser"].startswith("soft-threshold")

    def test_history_off_by_default_in_batch_paths(self):
        results = run_amp_trials(
            200, 3, repro.NoiselessChannel(), 80, spawn_seeds(0, 3)
        )
        assert all(r.meta["history"] == [] for r in results)
        # ... while a direct run_amp call keeps recording history.
        gen = np.random.default_rng(0)
        truth = repro.sample_ground_truth(200, 3, gen)
        graph = repro.sample_pooling_graph(200, 80, rng=gen)
        meas = repro.measure(graph, truth, rng=gen)
        direct = run_amp(meas)
        assert len(direct.meta["history"]) == direct.meta["iterations"]

    def test_empty_seed_list(self):
        assert run_amp_trials(100, 3, repro.NoiselessChannel(), 50, []) == []


class TestRunAmpBatchValidation:
    def _measurements(self, seed, n=120, k=3, m=40, channel=None):
        gen = np.random.default_rng(seed)
        truth = repro.sample_ground_truth(n, k, gen)
        graph = repro.sample_pooling_graph(n, m, rng=gen)
        return repro.measure(graph, truth, channel or repro.NoiselessChannel(), gen)

    def test_batch_of_measurements_matches_run_amp(self):
        config = AMPConfig(track_history=True)
        batch = [self._measurements(s) for s in range(4)]
        stacked = run_amp_batch(batch, config=config)
        for meas, result in zip(batch, stacked):
            single = run_amp(meas, config=config)
            assert np.array_equal(single.scores, result.scores)
            assert single.meta["iterations"] == result.meta["iterations"]
            assert single.meta["history"] == result.meta["history"]

    def test_empty_batch(self):
        assert run_amp_batch([]) == []

    def test_mismatched_cells_rejected(self):
        a = self._measurements(0, m=40)
        b = self._measurements(1, m=41)
        with pytest.raises(ValueError, match=r"\(n, m, k, gamma\)"):
            run_amp_batch([a, b])

    def test_mismatched_channels_rejected(self):
        a = self._measurements(0)
        b = self._measurements(1, channel=repro.ZChannel(0.1))
        with pytest.raises(ValueError, match="channel"):
            run_amp_batch([a, b])

    @pytest.mark.parametrize(
        "first,second",
        [
            (repro.ZChannel(0.1), repro.ZChannel(0.1000001)),
            (repro.GaussianQueryNoise(1.0), repro.GaussianQueryNoise(1.0000001)),
            (repro.ZChannel(0.1), repro.NoisyChannel(0.1, 0.0)),
        ],
        ids=["z-7th-digit", "gaussian-7th-digit", "z-vs-noisy"],
    )
    def test_channels_compared_exactly(self, first, second):
        # equal up to describe()'s 6 significant digits (or equal
        # parameters on another type), yet not the same channel
        a = self._measurements(0, channel=first)
        b = self._measurements(1, channel=second)
        with pytest.raises(ValueError, match="channel"):
            run_amp_batch([a, b])

    def test_zero_queries_rejected(self):
        gen = np.random.default_rng(0)
        truth = repro.sample_ground_truth(50, 3, gen)
        graph = repro.sample_pooling_graph(50, 0, rng=gen)
        meas = repro.measure(graph, truth, rng=gen)
        with pytest.raises(ValueError, match="at least one query"):
            run_amp_batch([meas])

    def test_sparse_contract_never_materializes_dense(self, monkeypatch):
        batch = [self._measurements(s, n=200, m=60) for s in range(3)]
        monkeypatch.setattr(
            repro.PoolingGraph,
            "adjacency_dense",
            lambda self, dtype=np.float64: (_ for _ in ()).throw(
                AssertionError("dense adjacency materialized in batched AMP")
            ),
        )
        results = run_amp_batch(batch)
        assert all(r.meta["sparse"] is True for r in results)


class TestHarnessDispatch:
    """success_rate_curve(algorithm="amp"): stacked runner + sharding."""

    @pytest.fixture(scope="class", autouse=True)
    def _shutdown_pool_after(self):
        yield
        parallel.shutdown_pool()

    def test_stacked_matches_per_trial_reference(self):
        # the stacked runner vs per-trial run_amp (tests/reference.py)
        kwargs = dict(algorithm="amp", trials=6, seed=5)
        rates, overlaps = fixed_m_curve(
            200, 4, repro.ZChannel(0.1), [60, 120], **kwargs
        )
        batch = success_rate_curve(
            200, 4, repro.ZChannel(0.1), [60, 120], **kwargs
        )
        assert batch.success_rates == rates
        assert batch.overlaps == overlaps

    def test_stacked_sharded_matches_serial(self):
        kwargs = dict(algorithm="amp", trials=6, seed=7)
        serial = success_rate_curve(
            150, 3, repro.NoiselessChannel(), [50, 90], **kwargs
        )
        sharded = success_rate_curve(
            150, 3, repro.NoiselessChannel(), [50, 90], workers=2, **kwargs
        )
        assert sharded.success_rates == serial.success_rates
        assert sharded.overlaps == serial.overlaps

    def test_unsupported_kwargs_rejected(self):
        # AMP cells always run stacked: a keyword run_amp does not take
        # (such as the retired dense-path "sparse") raises before any
        # trial runs, instead of selecting a per-trial loop.
        for bad in ({"sparse": False}, {"sparse": True}, {"kernel": "numpy"}):
            with pytest.raises(TypeError, match="algorithm_kwargs"):
                success_rate_curve(
                    150, 3, repro.ZChannel(0.1), [70], algorithm="amp",
                    trials=2, algorithm_kwargs=bad,
                )
