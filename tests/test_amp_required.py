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
    _decode_prefix_stack,
    _RequiredMSearch,
    required_queries_amp,
)
from repro.core.batch import MeasurementStream
from repro.experiments import parallel
from repro.experiments.runner import (
    REQUIRED_QUERIES_ALGORITHMS,
    required_queries_trials,
)
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

    def test_window_mode_agrees_with_exact_scan_on_sampled_streams(self):
        # The windowed sweep misses only a success hiding below a failed
        # gallop point. On real streams that is rare: a collapse in
        # agreement would mean the profile assumption (or the scan)
        # broke. The exact scan never exhausts this budget.
        n, trials = 1024, 8
        kwargs = dict(gamma=64, check_every=8, max_m=1024)
        k = repro.sublinear_k(n, 0.25)
        exact, window = (
            _required(
                required_queries_amp(
                    n, k, repro.ZChannel(0.1), spawn_seeds(2022, trials),
                    verify=verify, **kwargs,
                )
            )
            for verify in ("full", "window")
        )
        assert all(m is not None for m in exact)
        assert sum(a == b for a, b in zip(exact, window)) >= (3 * trials) // 4
        # the exact scan's answer is the smallest success on the grid
        assert all(w >= e for e, w in zip(exact, window) if w is not None)


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
        from repro.amp.batch_amp import (
            _PrefixStackOperators,
            _stack_blocks,  # noqa: F401  (re-exported for kernel tests)
        )
        from repro.amp.amp import (
            channel_corrected_results,
            iterate_amp,
            standardization_constants,
        )

        m = 41
        indptr, agents, counts, results = stream.prefix(m)
        c, scale = standardization_constants(n, m, gamma)
        y = (channel_corrected_results(results, gamma, channel) - c * k) / scale
        ops = _PrefixStackOperators(
            [(indptr, agents, counts)], n, np.array([m]), c, np.array([scale]),
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
    def _drive(self, step, grid_max, successes):
        """Run the state machine against a fixed success-profile oracle."""
        search = _RequiredMSearch(step, grid_max)
        probed = []
        while not search.done:
            wave = search.next_probes(8)
            assert wave, "active search must request probes"
            for m in wave:
                assert m not in probed, "probes must never repeat"
                probed.append(m)
                search.record(m, m in successes)
            search.advance()
        brute = next(
            (g for g in range(step, grid_max + 1, step) if g in successes),
            None,
        )
        assert search.required_m == brute
        return probed

    def test_monotone_profile(self):
        successes = set(range(48, 1001))
        probed = self._drive(4, 1000, successes)
        # galloping + bisection + verify below the answer only
        assert max(probed) <= 64  # first successful gallop point
        assert len(probed) <= 48 // 4 + 10

    def test_non_monotone_profiles_stay_exact(self):
        # isolated success below a failed gallop point
        self._drive(1, 64, {3})
        # success run starting between gallop points
        self._drive(1, 64, set(range(5, 65)) - {9})
        # failure everywhere
        probed = self._drive(2, 30, set())
        assert sorted(probed) == list(range(2, 31, 2))

    def test_degenerate_grid(self):
        search = _RequiredMSearch(10, 0)
        assert search.done and search.required_m is None

    def test_invalid_verify_mode_rejected(self):
        with pytest.raises(ValueError, match="verify mode"):
            _RequiredMSearch(1, 10, verify="paranoid")

    def _drive_mode(self, step, grid_max, successes, verify):
        search = _RequiredMSearch(step, grid_max, verify)
        while not search.done:
            wave = search.next_probes(8)
            for m in wave:
                search.record(m, m in successes)
            search.advance()
        return search

    def test_window_mode_exact_for_in_bracket_dropouts(self):
        # Monotone profile: all three modes agree with brute force.
        successes = set(range(48, 1001))
        for verify in ("full", "window", "none"):
            assert self._drive_mode(4, 1000, successes, verify).required_m == 48
        # Dropout inside the galloping bracket (32, 64]: bisection can
        # land on it, but the window sweep still finds the first
        # success at 40 — while "none" trusts the bisection boundary.
        successes = set(range(40, 101)) - {48}
        assert self._drive_mode(4, 100, successes, "full").required_m == 40
        assert self._drive_mode(4, 100, successes, "window").required_m == 40

    def test_window_mode_trusts_failed_gallop_points(self):
        # An isolated success below a failed gallop point is invisible
        # to the windowed sweep (that's the documented trade) but not
        # to the full certificate.
        successes = {3} | set(range(40, 65))
        assert self._drive_mode(1, 64, successes, "full").required_m == 3
        windowed = self._drive_mode(1, 64, successes, "window")
        assert windowed.required_m == 40
        assert windowed.checks < 64  # ...and it probes far fewer points

    def test_none_mode_probe_count_is_sublinear(self):
        successes = set(range(640, 4097))
        search = self._drive_mode(1, 4096, successes, "none")
        assert search.required_m == 640
        # gallop (log) + bisection (log) only — no certificate sweep
        assert search.checks <= 2 * 13

    def test_failed_grid_modes(self):
        assert self._drive_mode(2, 30, set(), "full").checks == 15
        trusting = self._drive_mode(2, 30, set(), "window")
        assert trusting.required_m is None
        assert trusting.checks <= 5  # gallop probes only


class TestHarnessDispatch:
    @pytest.fixture(scope="class", autouse=True)
    def _shutdown_pool_after(self):
        yield
        parallel.shutdown_pool()

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("engine", ["batch", "legacy"])
    def test_workers_and_engines_bit_identical(self, engine, workers):
        # Any worker count reproduces the serial scan ("batch") and the
        # brute-force scan of tests/reference.py ("legacy").
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
        if engine == "batch":
            baseline = required_queries_trials(
                150,
                3,
                repro.ZChannel(0.1),
                trials=5,
                seed=7,
                algorithm="amp",
                check_every=3,
                max_m=300,
            )
            values, failures = baseline.values, baseline.failures
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

    @pytest.mark.parametrize("verify", ["window", "none"])
    def test_fast_verify_modes_bit_identical_across_workers(self, verify):
        kwargs = dict(
            trials=5, seed=7, algorithm="amp", check_every=3, max_m=300,
            verify=verify,
        )
        serial = required_queries_trials(150, 3, repro.ZChannel(0.1), **kwargs)
        sharded = required_queries_trials(
            150, 3, repro.ZChannel(0.1), workers=2, **kwargs
        )
        assert sharded.values == serial.values
        assert sharded.failures == serial.failures

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
        with pytest.raises(ValueError, match="exceeds the grown stream"):
            stream.prefix(10)
        streaming = MeasurementStream(
            50, 25, repro.NoiselessChannel(), truth, gen, max_m=100,
            retain=False,
        )
        streaming.next_block()
        with pytest.raises(ValueError, match="retained stream"):
            streaming.prefix(1)

    def test_stream_matches_batch_sampler_prefix(self):
        # The stream's CSR prefix equals a one-shot batch-sampled graph
        # on the same seed for the noiseless channel (no interleaved
        # noise draws), for any prefix covered by the first block.
        from repro.core.batch import sample_pooling_graph_batch

        n, gamma, m = 80, 40, 16
        truth = repro.sample_ground_truth(n, 3, np.random.default_rng(1))
        stream = MeasurementStream(
            n, gamma, repro.NoiselessChannel(), truth,
            np.random.default_rng(42), max_m=m, initial_block=m,
        )
        stream.grow_to(m)
        graph = sample_pooling_graph_batch(
            n, m, gamma, np.random.default_rng(42)
        )
        indptr, agents, counts, _ = stream.prefix(m)
        assert np.array_equal(indptr, graph.indptr)
        assert np.array_equal(agents, graph.agents)
        assert np.array_equal(counts, graph.counts)
