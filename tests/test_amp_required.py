"""Grid-exactness and bit-identity of the AMP required-queries scan.

The contract under test (``repro/amp/batch_amp.py``):

* ``required_queries_amp`` returns, per trial, exactly the m a
  brute-force ascending per-grid-point ``run_amp`` scan over the same
  trial's prefix data returns (``required_queries_amp_linear`` in
  ``tests/reference.py``) — for
  every channel, ``check_every`` stride and stack budget;
* each trial's query stream is sampled **once** and probes replay
  prefixes of it, so the trial is a pure function of its child seed —
  which makes sharded (``workers=N``) and chunk-stacked scans
  bit-identical to serial ones;
* heterogeneous-m stacked probes run the ragged ``iterate_amp`` path
  with iterates bit-identical to standalone ``run_amp`` on the same
  prefix system.
"""

import numpy as np
import pytest

import repro
from repro.amp import AMPConfig, run_amp
from repro.amp.batch_amp import (
    VERIFY_WAVE,
    _decode_prefix_stack,
    required_queries_amp,
    scan_required_m,
)
from repro.core.batch import MeasurementStream
from repro.experiments import parallel
from repro.experiments.runner import (
    REQUIRED_QUERIES_ALGORITHMS,
    required_queries_trials,
)
from repro.experiments.scheduler import SweepPlan
from repro.utils.rng import spawn_seeds

from reference import required_queries_amp_linear

CHANNELS = [
    repro.NoiselessChannel(),
    repro.ZChannel(0.15),
    repro.GaussianQueryNoise(1.0),
]


def _required(results):
    return [r.required_m for r in results]


class TestGridExactness:
    @pytest.mark.parametrize("channel", CHANNELS, ids=lambda c: c.describe())
    @pytest.mark.parametrize("check_every", [1, 4, 7])
    def test_scan_matches_linear_reference(self, channel, check_every):
        kwargs = dict(check_every=check_every, max_m=400)
        scan = required_queries_amp(
            150, 3, channel, spawn_seeds(5, 6), **kwargs
        )
        linear = required_queries_amp_linear(
            150, 3, channel, spawn_seeds(5, 6), **kwargs
        )
        assert _required(scan) == _required(linear)
        for r in scan:
            assert r.succeeded == (r.required_m is not None)
            if r.required_m is not None:
                assert r.required_m % check_every == 0
            assert "engine" not in r.meta
            assert r.meta["algorithm"] == "amp"

    def test_stack_budget_boundaries_do_not_matter(self):
        channel = repro.ZChannel(0.1)
        wide = required_queries_amp(
            120, 3, channel, spawn_seeds(9, 5), check_every=2, max_m=300
        )
        # A one-element budget forces every probe into its own stack.
        narrow = required_queries_amp(
            120, 3, channel, spawn_seeds(9, 5), check_every=2, max_m=300,
            stack_elements=1,
        )
        assert _required(wide) == _required(narrow)
        assert [r.checks for r in wide] == [r.checks for r in narrow]

    def test_nnz_cutoff_dispatch_is_invisible(self, monkeypatch):
        from repro.amp import batch_amp

        channel = repro.NoiselessChannel()
        stacked = required_queries_amp(
            100, 3, channel, spawn_seeds(3, 4), check_every=2, max_m=200
        )
        # Force every probe onto the standalone run_amp path.
        monkeypatch.setattr(batch_amp, "STACK_NNZ_CUTOFF", 0)
        standalone = required_queries_amp(
            100, 3, channel, spawn_seeds(3, 4), check_every=2, max_m=200
        )
        assert _required(stacked) == _required(standalone)

    def test_trials_are_pure_functions_of_their_seed(self):
        # A trial's stopping m must not depend on which other trials
        # share its probe rounds/stacks.
        channel = repro.ZChannel(0.1)
        seeds = spawn_seeds(17, 6)
        together = required_queries_amp(
            130, 3, channel, seeds, check_every=3, max_m=300
        )
        alone = [
            required_queries_amp(
                130, 3, channel, [seed], check_every=3, max_m=300
            )[0]
            for seed in spawn_seeds(17, 6)
        ]
        assert _required(together) == _required(alone)
        assert [r.checks for r in together] == [r.checks for r in alone]

    def test_exhausted_budget_reports_failure(self):
        # A budget far below the recovery threshold fails every trial
        # after probing the full grid (the brute-force None semantics).
        channel = repro.ZChannel(0.3)
        scan = required_queries_amp(
            200, 4, channel, spawn_seeds(0, 3), check_every=2, max_m=8
        )
        linear = required_queries_amp_linear(
            200, 4, channel, spawn_seeds(0, 3), check_every=2, max_m=8
        )
        assert _required(scan) == _required(linear)
        for r_scan, r_linear in zip(scan, linear):
            if r_scan.required_m is None:
                assert not r_scan.succeeded
                # every grid point was probed before giving up
                assert r_scan.checks == 8 // 2 == r_linear.checks

    def test_check_grid_coarser_than_budget(self):
        # check_every > max_m leaves no checkable grid point.
        results = required_queries_amp(
            100, 3, repro.NoiselessChannel(), spawn_seeds(1, 2),
            check_every=50, max_m=20,
        )
        assert _required(results) == [None, None]
        assert all(r.checks == 0 for r in results)

    def test_empty_seed_list(self):
        assert required_queries_amp(100, 3, repro.NoiselessChannel(), []) == []


class TestRaggedKernelBitIdentity:
    def test_heterogeneous_stack_matches_standalone_run_amp(self):
        # Stack prefixes of different trials at different m into one
        # ragged block-diagonal call and compare scores bit for bit
        # against standalone run_amp on each prefix system.
        from repro.amp.amp import default_denoiser
        from repro.core.measurement import Measurements
        from repro.core.pooling import PoolingGraph

        n, k, gamma = 200, 4, 100
        channel = repro.ZChannel(0.1)
        config = AMPConfig(track_history=False)
        denoiser = default_denoiser(n, k)
        streams = []
        for seed in spawn_seeds(23, 3):
            gen = np.random.default_rng(seed)
            truth = repro.sample_ground_truth(n, k, gen)
            stream = MeasurementStream(
                n, gamma, channel, truth, gen, max_m=120
            )
            stream.grow_to(120)
            streams.append(stream)
        jobs = [(0, 37), (1, 80), (2, 113)]  # heterogeneous per-trial m
        exact, scores = _decode_prefix_stack(
            jobs, streams, n, k, gamma, channel, denoiser, config
        )
        for (i, m), flag, row in zip(jobs, exact, scores):
            indptr, agents, counts, results = streams[i].prefix(m)
            meas = Measurements(
                graph=PoolingGraph._unchecked(n, gamma, indptr, agents, counts),
                truth=streams[i].truth,
                channel=channel,
                results=results,
            )
            single = run_amp(meas, denoiser=denoiser, config=config)
            assert np.array_equal(single.scores, row)
            assert bool(single.exact) == bool(flag)

    def test_ragged_history_matches_standalone(self):
        # track_history on: per-iteration tau/step/residual records of
        # a ragged one-trial stack equal the standalone ones.
        from repro.amp.amp import default_denoiser
        from repro.core.measurement import Measurements
        from repro.core.pooling import PoolingGraph

        n, k, gamma = 150, 3, 75
        channel = repro.NoiselessChannel()
        config = AMPConfig(track_history=True, max_iter=12)
        denoiser = default_denoiser(n, k)
        gen = np.random.default_rng(7)
        truth = repro.sample_ground_truth(n, k, gen)
        stream = MeasurementStream(n, gamma, channel, truth, gen, max_m=60)
        stream.grow_to(60)
        from repro.amp.batch_amp import _StackOperators, _stack_blocks
        from repro.amp.amp import (
            channel_corrected_results,
            iterate_amp,
            standardization_constants,
        )

        m = 41
        indptr, agents, counts, results = stream.prefix(m)
        c, scale = standardization_constants(n, m, gamma)
        y = (channel_corrected_results(results, gamma, channel) - c * k) / scale
        ops = _StackOperators(
            _stack_blocks([(indptr, agents, counts)], n), n, c, np.array([m]),
            np.array([scale]),
        )
        scores, iters, conv, hist = iterate_amp(
            ops.operators([0]), y, denoiser, config, n=n,
            row_sizes=np.array([m]), restrict=ops.operators,
        )
        meas = Measurements(
            graph=PoolingGraph._unchecked(n, gamma, indptr, agents, counts),
            truth=truth,
            channel=channel,
            results=results,
        )
        single = run_amp(meas, denoiser=denoiser, config=config)
        assert np.array_equal(single.scores, scores[0])
        assert single.meta["iterations"] == int(iters[0])
        assert single.meta["history"] == hist[0]


class TestSearchStateMachine:
    """The ascending scan driver against a synthetic success oracle."""

    def _drive(self, step, grid_max, successes, wave=VERIFY_WAVE):
        """Scan one trial whose probe at m succeeds iff m in successes."""
        probed = []

        def probe(jobs):
            flags = []
            for i, m in jobs:
                assert i == 0
                assert m not in probed, "probes must never repeat"
                probed.append(m)
                flags.append(m in successes)
            return flags

        required, checks = scan_required_m(1, step, grid_max, probe, wave)
        brute = next(
            (g for g in range(step, grid_max + 1, step) if g in successes),
            None,
        )
        assert required == [brute]
        assert checks == [len(probed)]
        assert probed == sorted(probed), "the scan only ascends"
        return probed

    def test_monotone_profile(self):
        successes = set(range(48, 1001))
        probed = self._drive(4, 1000, successes)
        # every grid point below the answer, then the rest of its wave
        assert probed[: 48 // 4] == list(range(4, 49, 4))
        assert len(probed) <= 48 // 4 + VERIFY_WAVE - 1

    def test_non_monotone_profiles_stay_exact(self):
        # isolated success far below the bulk of the profile
        self._drive(1, 64, {3})
        self._drive(1, 64, {3} | set(range(40, 65)))
        # success run with a dropout right after its start
        self._drive(1, 64, set(range(5, 65)) - {9})
        self._drive(4, 100, set(range(40, 101)) - {48})
        # failure everywhere
        probed = self._drive(2, 30, set())
        assert probed == list(range(2, 31, 2))

    def test_wave_of_one_never_probes_past_the_answer(self):
        # a decoder that does not stack probes one grid point per round
        for successes in ({3}, set(range(17, 65)), set()):
            probed = self._drive(1, 64, successes, wave=1)
            brute = min(successes) if successes else 64
            assert probed == list(range(1, brute + 1))

    def test_trials_share_rounds_without_coupling(self):
        # Each trial's probes depend only on its own outcomes: a shared
        # scan returns what every trial's solo scan returns.
        profiles = [set(range(20, 90)), {7}, set(), set(range(60, 90))]
        rounds = []

        def probe(jobs):
            rounds.append(jobs)
            return [m in profiles[i] for i, m in jobs]

        together = scan_required_m(len(profiles), 1, 80, probe, 4)
        alone = [
            scan_required_m(
                1, 1, 80, lambda jobs, p=p: [m in p for _, m in jobs], 4
            )
            for p in profiles
        ]
        assert together == (
            [r[0][0] for r in alone], [r[1][0] for r in alone]
        )
        assert together[0] == [20, 7, None, 60]
        assert len(rounds) == 80 // 4

    def test_degenerate_grid(self):
        def probe(jobs):
            raise AssertionError("no grid point to probe")

        assert scan_required_m(2, 10, 0, probe) == ([None, None], [0, 0])

    def test_invalid_verify_mode_rejected(self):
        # The verify dial is gone: the one scan is the exact one.
        channel = repro.NoiselessChannel()
        with pytest.raises(TypeError, match="verify"):
            required_queries_amp(50, 2, channel, [1], verify="full")
        with pytest.raises(TypeError, match="verify"):
            required_queries_trials(
                50, 2, channel, algorithm="amp", verify="window"
            )
        with pytest.raises(TypeError, match="verify"):
            SweepPlan().add_required_queries(50, 2, channel, verify="none")

    def test_failed_grid_modes(self):
        # A failed grid is probed to its end, whatever the wave size.
        for wave in (1, 4, VERIFY_WAVE, 100):
            assert len(self._drive(2, 30, set(), wave)) == 15


class TestHarnessDispatch:
    @pytest.fixture(scope="class", autouse=True)
    def _shutdown_pool_after(self):
        yield
        parallel.shutdown_pool()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("baseline", ["serial", "reference"])
    def test_workers_bit_identical(self, baseline, workers):
        # Any worker count reproduces the serial scan ("serial") and the
        # brute-force scan of tests/reference.py ("reference").
        sample = required_queries_trials(
            150,
            3,
            repro.ZChannel(0.1),
            trials=5,
            seed=7,
            algorithm="amp",
            check_every=3,
            max_m=300,
            workers=workers,
        )
        if baseline == "serial":
            serial = required_queries_trials(
                150,
                3,
                repro.ZChannel(0.1),
                trials=5,
                seed=7,
                algorithm="amp",
                check_every=3,
                max_m=300,
            )
            values, failures = serial.values, serial.failures
        else:
            runs = required_queries_amp_linear(
                150, 3, repro.ZChannel(0.1), spawn_seeds(7, 5),
                check_every=3, max_m=300,
            )
            values = [r.required_m for r in runs if r.succeeded]
            failures = sum(not r.succeeded for r in runs)
        assert sample.values == values
        assert sample.failures == failures
        assert sample.algorithm == "amp"

    def test_greedy_default_unchanged(self):
        sample = required_queries_trials(
            150, 4, repro.ZChannel(0.1), trials=4, seed=9
        )
        assert sample.algorithm == "greedy"

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError, match="required-queries algorithm"):
            required_queries_trials(
                100, 3, repro.NoiselessChannel(), algorithm="distributed"
            )
        assert "amp" in REQUIRED_QUERIES_ALGORITHMS

    def test_amp_values_differ_from_greedy_rule(self):
        # Sanity: the two stopping rules measure different quantities
        # on the same seeds (AMP stops at exact decode, greedy at
        # strict separation) — the sample must record which.
        kwargs = dict(trials=4, seed=3, check_every=1, max_m=400)
        greedy = required_queries_trials(
            150, 3, repro.NoiselessChannel(), algorithm="greedy", **kwargs
        )
        amp = required_queries_trials(
            150, 3, repro.NoiselessChannel(), algorithm="amp", **kwargs
        )
        assert greedy.algorithm != amp.algorithm


class TestMeasurementStream:
    def test_prefix_views_are_stable_under_growth(self):
        gen = np.random.default_rng(0)
        truth = repro.sample_ground_truth(100, 3, gen)
        channel = repro.ZChannel(0.1)
        stream = MeasurementStream(
            100, 50, channel, truth, gen, max_m=200, initial_block=8
        )
        stream.grow_to(40)
        snapshot = [np.array(a) for a in stream.prefix(40)]
        stream.grow_to(200)
        regrown = stream.prefix(40)
        for before, after in zip(snapshot, regrown):
            assert np.array_equal(before, after)
        assert stream.m_done == 200

    def test_prefix_requires_growth_and_retention(self):
        gen = np.random.default_rng(0)
        truth = repro.sample_ground_truth(50, 2, gen)
        stream = MeasurementStream(
            50, 25, repro.NoiselessChannel(), truth, gen, max_m=100
        )
        with pytest.raises(ValueError, match="exceeds the stored stream"):
            stream.prefix(10)
        # next_block hands slices out without storing them
        streaming = MeasurementStream(
            50, 25, repro.NoiselessChannel(), truth, gen, max_m=100
        )
        streaming.next_block()
        with pytest.raises(ValueError, match="exceeds the stored stream"):
            streaming.prefix(1)

    def test_stream_matches_batch_sampler_prefix(self):
        # The stream's CSR prefix equals a one-shot sampled graph on
        # the same seed for the noiseless channel (no interleaved noise
        # draws), for any prefix covered by the first block.

        n, gamma, m = 80, 40, 16
        truth = repro.sample_ground_truth(n, 3, np.random.default_rng(1))
        stream = MeasurementStream(
            n, gamma, repro.NoiselessChannel(), truth,
            np.random.default_rng(42), max_m=m, initial_block=m,
        )
        stream.grow_to(m)
        graph = repro.sample_pooling_graph(
            n, m, gamma, np.random.default_rng(42)
        )
        indptr, agents, counts, _ = stream.prefix(m)
        assert np.array_equal(indptr, graph.indptr)
        assert np.array_equal(agents, graph.agents)
        assert np.array_equal(counts, graph.counts)
