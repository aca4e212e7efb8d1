"""Fault-scenario sweep cells: wiring, validation, and bit-identity.

PR 8's acceptance contract: a corrupted-measurement or message-drop
sweep cell produces bit-identical results on the serial and process
(any worker count) backends — every fault realization is a
pure function of the trial's child seed, drawn from a dedicated stream
(:mod:`repro.core.corruption`), so no backend or chunk layout can
perturb it. Also covers the scheduler's spec validation, the folded
network-metrics meta, the ``twostage`` required-m path, and the
FaultModel determinism regression (an unseeded faulty model is now an
error, not an irreproducible run).
"""

import numpy as np
import pytest

import repro
from repro.core.corruption import CorruptionModel, FaultSpec
from repro.distributed.network import FaultModel
from repro.experiments import parallel
from repro.experiments.runner import (
    REQUIRED_QUERIES_ALGORITHMS,
    required_queries_trials,
    success_rate_curve,
)
from repro.experiments.scheduler import SweepExecutor, SweepPlan


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pool_after():
    yield
    parallel.shutdown_pool()


def build_faulty_plan() -> SweepPlan:
    """One cell per fault axis (mirrors benchmarks/smoke_fault_sweep.py)."""
    plan = SweepPlan()
    plan.add_success_curve(
        50, 3, repro.ZChannel(0.1), [30, 60], trials=6, seed=123,
        corruption=CorruptionModel(flip_rate=0.1),
    )
    plan.add_success_curve(
        40, 3, repro.ZChannel(0.1), [30], algorithm="distributed",
        trials=4, seed=124, fault=FaultSpec(drop=0.2, delay=0.1, max_delay=2),
    )
    plan.add_required_queries(
        60, 3, repro.ZChannel(0.1), trials=4, seed=125, check_every=10,
        corruption=CorruptionModel(erasure_rate=0.1),
    )
    plan.add_required_queries(
        60, 3, repro.ZChannel(0.1), trials=3, seed=126, check_every=10,
        algorithm="twostage",
    )
    return plan


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def serial_results(self):
        return build_faulty_plan().run(backend="serial")

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_process_backend_matches_for_any_worker_count(
        self, serial_results, workers
    ):
        results = build_faulty_plan().run(backend="process", workers=workers)
        assert repr(results) == repr(serial_results)

    def test_plans_are_reusable(self):
        plan = build_faulty_plan()
        assert repr(plan.run(backend="serial")) == repr(
            plan.run(backend="serial")
        )

    def test_null_corruption_equals_no_corruption(self):
        # The null model is the same cell as no corruption at all: it
        # routes through the identical (batched) path and folds the
        # identical result, with no corruption label in the meta.
        null = success_rate_curve(
            50, 3, repro.ZChannel(0.1), [40], trials=5, seed=9,
            corruption=CorruptionModel(),
        )
        plain = success_rate_curve(
            50, 3, repro.ZChannel(0.1), [40], trials=5, seed=9
        )
        assert repr(null) == repr(plain)
        assert "corruption" not in null.meta


class TestSchedulerValidation:
    def test_corruption_must_be_a_corruption_model(self):
        plan = SweepPlan()
        with pytest.raises(TypeError, match="CorruptionModel"):
            plan.add_success_curve(
                50, 3, repro.ZChannel(0.1), [30], corruption=0.3
            )
        with pytest.raises(TypeError, match="CorruptionModel"):
            plan.add_required_queries(
                50, 3, repro.ZChannel(0.1), corruption={"flip_rate": 0.3}
            )

    def test_fault_must_be_a_fault_spec(self):
        plan = SweepPlan()
        with pytest.raises(TypeError, match="FaultSpec"):
            plan.add_success_curve(
                40, 3, repro.ZChannel(0.1), [30], algorithm="distributed",
                fault=0.2,
            )

    def test_fault_requires_the_distributed_algorithm(self):
        plan = SweepPlan()
        with pytest.raises(ValueError, match="no network"):
            plan.add_success_curve(
                40, 3, repro.ZChannel(0.1), [30], algorithm="greedy",
                fault=FaultSpec(drop=0.2),
            )

    def test_corruption_rejects_explicit_batch_mode(self):
        # the chunk path is derived from the cell, never forced: a
        # corrupted cell always runs the per-trial loop
        plan = SweepPlan()
        with pytest.raises(TypeError, match="batch_mode"):
            plan.add_success_curve(
                50, 3, repro.ZChannel(0.1), [30], batch_mode="greedy",
                corruption=CorruptionModel(flip_rate=0.1),
            )
        plan.add_success_curve(
            50, 3, repro.ZChannel(0.1), [30],
            corruption=CorruptionModel(flip_rate=0.1),
        )
        assert plan._cells[0].spec["batch_mode"] is None


class TestFoldedMeta:
    def test_distributed_curve_carries_network_metrics(self):
        curve = success_rate_curve(
            40, 3, repro.ZChannel(0.1), [20, 30], algorithm="distributed",
            trials=3, seed=6,
        )
        assert len(curve.meta["metrics"]) == 2
        for per_m in curve.meta["metrics"]:
            assert {"rounds", "messages", "bits", "dropped", "delayed"} <= set(
                per_m
            )
            assert per_m["dropped"] == 0.0  # no fault spec, reliable links

    def test_faulty_distributed_curve_counts_drops(self):
        curve = success_rate_curve(
            40, 3, repro.ZChannel(0.1), [30], algorithm="distributed",
            trials=3, seed=6, fault=FaultSpec(drop=0.3),
        )
        assert curve.meta["fault"] == "fault(drop=0.3)"
        assert curve.meta["metrics"][0]["dropped"] > 0

    def test_distributed_amp_curve_carries_metrics(self):
        curve = success_rate_curve(
            60, 3, repro.ZChannel(0.1), [40], algorithm="distributed_amp",
            trials=2, seed=4,
        )
        assert {"rounds", "messages", "bits"} <= set(curve.meta["metrics"][0])

    def test_corrupted_curve_is_labelled(self):
        curve = success_rate_curve(
            50, 3, repro.ZChannel(0.1), [30], trials=3, seed=2,
            corruption=CorruptionModel(erasure_rate=0.2),
        )
        assert curve.meta["corruption"] == "corruption(erase=0.2)"

    def test_plain_curves_keep_empty_meta(self):
        curve = success_rate_curve(
            50, 3, repro.ZChannel(0.1), [30], trials=3, seed=2
        )
        assert curve.meta == {}


class TestTwoStageRequiredQueries:
    def test_twostage_is_a_required_queries_algorithm(self):
        assert "twostage" in REQUIRED_QUERIES_ALGORITHMS

    def test_matches_reference_decode_scan(self):
        # the prefix-replay scan vs the ascending scan of
        # tests/reference.py, decoding each prefix with two-stage
        from repro.core.twostage import two_stage_reconstruct
        from repro.utils.rng import spawn_seeds

        from reference import required_queries_decode_scan

        kwargs = dict(trials=3, seed=5, check_every=10, max_m=200)
        sample = required_queries_trials(
            80, 3, repro.ZChannel(0.1), algorithm="twostage", **kwargs,
        )
        reference = required_queries_decode_scan(
            80, 3, repro.ZChannel(0.1), spawn_seeds(5, 3),
            two_stage_reconstruct, check_every=10, max_m=200,
        )
        assert sample.values == [m for m in reference if m is not None]
        assert sample.algorithm == "twostage"

    def test_values_sit_on_the_check_grid(self):
        sample = required_queries_trials(
            80, 3, repro.ZChannel(0.1), algorithm="twostage",
            trials=4, seed=5, check_every=10,
        )
        assert sample.values and all(v % 10 == 0 for v in sample.values)

    def test_corrupted_scan_matches_singleton_replay(self):
        # The prefix-replay contract: the corrupted scan's stopping m
        # is the smallest checked prefix of ONE full-stream corruption
        # realization that decodes exactly — so re-running with the
        # same seeds must reproduce it, and a harder corruption of the
        # same trials can only move the stopping m (never the trial
        # count or the grid).
        kwargs = dict(trials=4, seed=7, check_every=10, max_m=200)
        mild = required_queries_trials(
            80, 3, repro.ZChannel(0.1),
            corruption=CorruptionModel(erasure_rate=0.05), **kwargs,
        )
        again = required_queries_trials(
            80, 3, repro.ZChannel(0.1),
            corruption=CorruptionModel(erasure_rate=0.05), **kwargs,
        )
        assert mild.values == again.values
        assert all(v % 10 == 0 for v in mild.values)


class TestCorruptedRequiredQueries:
    """Corrupted required-m cells run the ascending scan driver."""

    CORRUPTION = CorruptionModel(erasure_rate=0.1, flip_rate=0.03)

    def _reference(self, decode, **kwargs):
        from repro.utils.rng import spawn_seeds

        from reference import required_queries_decode_scan

        return required_queries_decode_scan(
            90, 3, repro.ZChannel(0.1), spawn_seeds(13, 5), decode,
            corruption=self.CORRUPTION, **kwargs,
        )

    def test_stacked_amp_cells_match_the_linear_scan(self, monkeypatch):
        from repro.amp import AMPConfig, batch_amp, run_amp

        stacks = []
        decode_stack = batch_amp._decode_prefix_stack

        def spy(jobs, *args):
            stacks.append(len(jobs))
            return decode_stack(jobs, *args)

        monkeypatch.setattr(batch_amp, "_decode_prefix_stack", spy)
        kwargs = dict(check_every=6, max_m=240)
        # serial: the spy sees only this process's decodes
        sample = required_queries_trials(
            90, 3, repro.ZChannel(0.1), algorithm="amp", trials=5, seed=13,
            corruption=self.CORRUPTION, backend="serial", **kwargs,
        )
        reference = self._reference(
            lambda meas: run_amp(meas, config=AMPConfig(track_history=False)),
            **kwargs,
        )
        assert sample.values == [m for m in reference if m is not None]
        assert sample.failures == reference.count(None)
        assert len(sample.values) >= 3
        # corrupted AMP probes now stack: several per decode call
        assert max(stacks) > 1

    def test_greedy_cells_match_the_linear_scan(self):
        from repro.core.greedy import greedy_reconstruct

        kwargs = dict(check_every=10, max_m=800)
        sample = required_queries_trials(
            90, 3, repro.ZChannel(0.1), trials=5, seed=13,
            corruption=self.CORRUPTION, **kwargs,
        )
        reference = self._reference(greedy_reconstruct, **kwargs)
        assert sample.values == [m for m in reference if m is not None]
        assert sample.failures == reference.count(None)
        assert len(sample.values) >= 3

    def _outcomes(self, max_m, backend="serial", workers=None):
        plan = SweepPlan()
        plan.add_required_queries(
            90, 3, repro.ZChannel(0.1), trials=5, seed=13, check_every=10,
            max_m=max_m, corruption=self.CORRUPTION,
        )
        return SweepExecutor(backend=backend, workers=workers).run_outcomes(
            plan
        )[0]

    def test_required_m_does_not_depend_on_the_budget(self):
        # A trial's corrupted stream is the same realization whatever
        # the grid length, so every trial that resolves within the
        # smaller budget reads the same required m under the larger.
        short, long = self._outcomes(400), self._outcomes(800)
        resolved = [i for i, (ok, _) in enumerate(short) if ok]
        assert len(resolved) >= 3
        assert [long[i] for i in resolved] == [short[i] for i in resolved]

    def test_budget_outcomes_serial_equals_process(self):
        assert self._outcomes(800, "process", 2) == self._outcomes(800)

    def test_source_grows_only_through_the_last_probe(self, monkeypatch):
        # A corrupted trial corrupts its stream slice by slice as the
        # scan grows it, so a trial that resolves early never samples
        # the rest of a large grid: the greedy scan probes one grid
        # point per round, and the doubling block holding the stopping
        # m ends below 2 * m + DEFAULT_INITIAL_BLOCK.
        from repro.core.batch import DEFAULT_INITIAL_BLOCK, MeasurementStream

        sources = []
        init, next_block = MeasurementStream.__init__, MeasurementStream.next_block

        def spy_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self.handed = 0
            sources.append(self)

        def spy_next_block(self):
            part = next_block(self)
            if part is not None:
                self.handed = part[0] + part[1].size - 1
            return part

        monkeypatch.setattr(MeasurementStream, "__init__", spy_init)
        monkeypatch.setattr(MeasurementStream, "next_block", spy_next_block)
        outcomes = required_queries_trials(
            90, 3, repro.ZChannel(0.1), trials=5, seed=13, check_every=10,
            max_m=40_000, corruption=self.CORRUPTION, backend="serial",
        )
        assert outcomes.failures == 0 and len(sources) == 5
        for m, source in zip(outcomes.values, sources):
            assert m <= source.handed < 2 * m + DEFAULT_INITIAL_BLOCK

    @pytest.mark.parametrize("channel", [
        repro.ZChannel(0.1), repro.GaussianQueryNoise(1.0),
    ])
    def test_feed_keeps_the_rows_of_one_whole_corruption(self, channel):
        # Every stage active: the feed's store holds exactly the rows
        # apply_corruption keeps when it corrupts the whole grown
        # stream in one call, at every prefix the scan could probe.
        from repro.core.batch import MeasurementStream
        from repro.core.corruption import (
            CorruptedFeed,
            _drop_rows,
            apply_corruption,
            corruption_rng,
        )
        from repro.core.measurement import Measurements
        from repro.core.pooling import PoolingGraph

        model = CorruptionModel(
            dead_agent_rate=0.01, erasure_rate=0.1, flip_rate=0.05,
            outlier_rate=0.05,
        )
        n, gamma, m = 120, 60, 700
        seq = np.random.SeedSequence(21)

        def source():
            gen = np.random.default_rng(seq)
            truth = repro.sample_ground_truth(n, 3, gen)
            return MeasurementStream(
                n, gamma, channel, truth, gen, max_m=m, initial_block=16
            )

        whole = source()
        whole.grow_to(m)
        graph = PoolingGraph(n, gamma, whole.indptr, whole.agents, whole.counts)
        report = apply_corruption(
            Measurements(graph=graph, truth=whole.truth, channel=channel,
                         results=whole.results),
            model, corruption_rng(seq),
        )
        assert 0 < report.dropped_queries < m and report.flipped
        feed = CorruptedFeed(source(), model, corruption_rng(seq))
        for probe in (1, 37, 300, m):
            survivors = feed.grow_to(probe)
            kept = report.kept[:probe]
            assert survivors == int(kept.sum())
            expected, _ = _drop_rows(
                PoolingGraph(n, gamma, *whole.prefix(probe)[:3]), kept
            )
            indptr, agents, counts, results = feed.store.prefix(survivors)
            assert np.array_equal(indptr, expected.indptr)
            assert np.array_equal(agents, expected.agents)
            assert np.array_equal(counts, expected.counts)
            assert np.array_equal(results, report.results_full[:probe][kept])


class TestFaultModelDeterminism:
    """Satellite 1: rng=None with positive rates is now an error."""

    def test_unseeded_faulty_model_is_rejected(self):
        with pytest.raises(ValueError, match="rng"):
            FaultModel(drop_probability=0.1)
        with pytest.raises(ValueError, match="rng"):
            FaultModel(delay_probability=0.1, max_delay=2)

    def test_zero_seed_is_a_valid_rng(self):
        assert FaultModel(drop_probability=0.1, rng=0) is not None

    def test_null_model_needs_no_rng(self):
        assert FaultModel() is not None

    def test_rate_validation_still_fires_first(self):
        with pytest.raises(ValueError, match="drop_probability"):
            FaultModel(drop_probability=1.5)

    def test_identically_seeded_faulty_runs_are_repr_identical(self):
        def run():
            return success_rate_curve(
                40, 3, repro.ZChannel(0.1), [25, 35],
                algorithm="distributed", trials=4, seed=31,
                fault=FaultSpec(drop=0.3, delay=0.2, max_delay=3),
            )

        first, second = run(), run()
        assert repr(first) == repr(second)
        assert first.meta == second.meta
        assert first.meta["metrics"][0]["dropped"] > 0
