"""Bit-identity tests for the sweep execution engine.

The contract under test: a multi-cell :class:`SweepPlan` — mixed
algorithms (greedy / amp), mixed n, required-m and success-curve cells
in one queue — returns results identical to running each cell through
the pre-engine per-cell serial path on the same seeds, for both
backends (``serial`` / ``process``) and several worker counts. The
per-cell references below deliberately reimplement the old serial
loops (BatchTrialRunner / required_queries_amp / run_amp_trials on
freshly spawned child seeds, or the brute-force scan and per-trial
loop of ``tests/reference.py``) so the engine is checked against the
original code shape, not against itself.
"""

import os

import numpy as np
import pytest

import repro
from repro.amp.batch_amp import required_queries_amp, run_amp_trials
from repro.core.batch import BatchTrialRunner
from repro.experiments import parallel
from repro.experiments.scheduler import (
    BACKENDS,
    SweepExecutor,
    SweepPlan,
    resolve_backend,
)
from repro.utils.rng import spawn_rngs, spawn_seeds

from reference import fixed_m_trial_outcomes, required_queries_amp_linear


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pool_after():
    yield
    parallel.shutdown_pool()


# -- per-cell serial references (the pre-engine code shape) -------------


def reference_required(n, k, channel, *, trials, seed, algorithm="greedy",
                       reference="batch", check_every=1, max_m=None):
    """The pre-engine serial required-m loop, folded to (values, failures).

    ``reference="loop"`` checks an AMP cell against the brute-force
    scan of ``tests/reference.py`` instead of the stacked scan.
    """
    if algorithm == "amp":
        scan = (
            required_queries_amp if reference == "batch"
            else required_queries_amp_linear
        )
        runs = scan(
            n, k, channel, spawn_seeds(seed, trials),
            check_every=check_every, max_m=max_m,
        )
        outcomes = [(r.succeeded, r.required_m) for r in runs]
    else:
        runner = BatchTrialRunner(n, k, channel)
        outcomes = [
            (r.succeeded, r.required_m)
            for r in (
                runner.required_queries(
                    gen, max_m=max_m, check_every=check_every
                )
                for gen in spawn_rngs(seed, trials)
            )
        ]
    values = [int(m) for ok, m in outcomes if ok]
    failures = sum(1 for ok, _ in outcomes if not ok)
    return values, failures


def reference_curve(n, k, channel, m_values, *, trials, seed,
                    algorithm="greedy", reference="batch"):
    """The pre-engine serial success-curve loop -> (rates, overlaps).

    ``reference="loop"`` runs the per-trial loop of
    ``tests/reference.py`` instead of the stacked entry points.
    """
    rates, overlaps = [], []
    for m, m_rng in zip(m_values, spawn_rngs(seed, len(m_values))):
        m = int(m)
        outcomes = []
        if algorithm == "greedy" and reference == "batch":
            runner = BatchTrialRunner(n, k, channel)
            for r in runner.run_trials(m, trials, seed=m_rng):
                outcomes.append((bool(r.exact), float(r.overlap)))
        elif algorithm == "amp" and reference == "batch":
            for r in run_amp_trials(
                n, k, channel, m, spawn_rngs(m_rng, trials)
            ):
                outcomes.append((bool(r.exact), float(r.overlap)))
        else:
            outcomes = fixed_m_trial_outcomes(
                n, k, channel, m, spawn_rngs(m_rng, trials),
                algorithm=algorithm,
            )
        rates.append(sum(e for e, _ in outcomes) / trials)
        overlaps.append(sum(o for _, o in outcomes) / trials)
    return rates, overlaps


#: the mixed sweep every backend must reproduce bit-identically:
#: (kind, kwargs) — mixed algorithms, n, cell kinds and references
#: (``"loop"``: the brute-force scan / per-trial loop)
MIXED_CELLS = [
    ("required", dict(n=150, k=4, channel=repro.ZChannel(0.1),
                      trials=7, seed=11, algorithm="greedy")),
    ("required", dict(n=100, k=3, channel=repro.ZChannel(0.1),
                      trials=4, seed=5, algorithm="greedy")),
    ("required", dict(n=120, k=3, channel=repro.NoiselessChannel(),
                      trials=3, seed=2, algorithm="amp",
                      check_every=4, max_m=400)),
    ("required", dict(n=90, k=3, channel=repro.NoiselessChannel(),
                      trials=2, seed=9, algorithm="amp", reference="loop",
                      check_every=8, max_m=300)),
    ("curve", dict(n=150, k=4, channel=repro.ZChannel(0.2),
                   m_values=[30, 90], trials=6, seed=4,
                   algorithm="greedy")),
    ("curve", dict(n=120, k=3, channel=repro.NoiselessChannel(),
                   m_values=[60], trials=4, seed=5,
                   algorithm="amp", reference="loop")),
]


def build_mixed_plan():
    plan = SweepPlan()
    for kind, kwargs in MIXED_CELLS:
        if kind == "required":
            plan.add_required_queries(
                kwargs["n"], kwargs["k"], kwargs["channel"],
                trials=kwargs["trials"], seed=kwargs["seed"],
                algorithm=kwargs["algorithm"],
                check_every=kwargs.get("check_every", 1),
                max_m=kwargs.get("max_m"),
            )
        else:
            plan.add_success_curve(
                kwargs["n"], kwargs["k"], kwargs["channel"],
                kwargs["m_values"], trials=kwargs["trials"],
                seed=kwargs["seed"], algorithm=kwargs["algorithm"],
            )
    return plan


def assert_matches_references(results):
    assert len(results) == len(MIXED_CELLS)
    for (kind, kwargs), result in zip(MIXED_CELLS, results):
        if kind == "required":
            values, failures = reference_required(
                kwargs["n"], kwargs["k"], kwargs["channel"],
                trials=kwargs["trials"], seed=kwargs["seed"],
                algorithm=kwargs["algorithm"],
                reference=kwargs.get("reference", "batch"),
                check_every=kwargs.get("check_every", 1),
                max_m=kwargs.get("max_m"),
            )
            assert result.values == values, kwargs
            assert result.failures == failures, kwargs
            assert result.algorithm == kwargs["algorithm"]
        else:
            rates, overlaps = reference_curve(
                kwargs["n"], kwargs["k"], kwargs["channel"],
                kwargs["m_values"], trials=kwargs["trials"],
                seed=kwargs["seed"], algorithm=kwargs["algorithm"],
                reference=kwargs.get("reference", "batch"),
            )
            assert result.success_rates == rates, kwargs
            assert result.overlaps == overlaps, kwargs


class TestBitIdentity:
    def test_serial_backend_matches_per_cell_references(self):
        assert_matches_references(build_mixed_plan().run(backend="serial"))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_process_backend_matches_for_any_worker_count(self, workers):
        results = build_mixed_plan().run(backend="process", workers=workers)
        assert_matches_references(results)

    def test_plans_are_reusable(self):
        plan = build_mixed_plan()
        first = plan.run(backend="serial")
        second = plan.run(backend="serial")
        assert first == second

    def test_empty_plan(self):
        assert SweepPlan().run(backend="serial") == []

    def test_empty_m_grid_still_folds_one_result_per_cell(self):
        # A cell with an empty m-grid produces zero tasks but must
        # still fold into an (empty) curve — the pre-engine serial
        # loop returned an empty SuccessCurve for m_values=[].
        from repro.experiments.runner import success_rate_curve

        curve = success_rate_curve(
            50, 2, repro.NoiselessChannel(), [], trials=3, seed=0
        )
        assert curve.m_values == []
        assert curve.success_rates == []
        assert curve.overlaps == []
        plan = SweepPlan()
        plan.add_success_curve(50, 2, repro.NoiselessChannel(), [], trials=3)
        plan.add_required_queries(
            100, 3, repro.NoiselessChannel(), trials=2, seed=1
        )
        results = plan.run(backend="process", workers=2)
        assert results[0].m_values == []
        assert results[1].trials == 2


class TestBackendResolution:
    def test_default_by_workers(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert resolve_backend(None, 1) == "serial"
        assert resolve_backend(None, 4) == "process"

    def test_explicit_wins(self):
        assert resolve_backend("serial", 8) == "serial"

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "serial")
        assert resolve_backend(None, 4) == "serial"

    def test_unknown_rejected(self):
        # "socket" names the backend that was removed: it must fail as
        # loudly as any other unknown name, listing the valid ones.
        for name in ("quantum", "socket"):
            with pytest.raises(
                ValueError, match=r"backend.*valid: \('serial', 'process'\)"
            ):
                resolve_backend(name, 1)
        assert BACKENDS == ("serial", "process")

    @pytest.mark.parametrize(
        "raw, expected",
        [(" process ", "process"), ("bogus", None), ("socket", None)],
        ids=["whitespace-stripped", "unknown-named", "removed-socket"],
    )
    def test_env_var_validated(self, monkeypatch, raw, expected):
        # REPRO_BACKEND goes through utils.config like every other
        # knob: padding is stripped, and a bad value names the variable
        # as soon as an executor is built.
        from repro.utils.config import ConfigError

        monkeypatch.setenv("REPRO_BACKEND", raw)
        if expected is None:
            with pytest.raises(ConfigError, match="REPRO_BACKEND"):
                resolve_backend(None, 1)
            with pytest.raises(ConfigError, match="REPRO_BACKEND"):
                SweepExecutor()
        else:
            assert resolve_backend(None, 1) == expected

class TestPlanValidation:
    def test_bad_algorithm_rejected(self):
        with pytest.raises(ValueError, match="algorithm"):
            SweepPlan().add_required_queries(
                100, 3, repro.ZChannel(0.1), algorithm="distributed"
            )
        with pytest.raises(ValueError, match="algorithm"):
            SweepPlan().add_success_curve(
                100, 3, repro.ZChannel(0.1), [10], algorithm="warp"
            )

    def test_bad_engine_and_design_rejected(self):
        # one simulator per cell kind: no engine is selectable
        for engine in ("warp", "batch", "legacy"):
            with pytest.raises(TypeError, match="engine"):
                SweepPlan().add_required_queries(
                    100, 3, repro.ZChannel(0.1), engine=engine
                )
            with pytest.raises(TypeError, match="engine"):
                SweepPlan().add_success_curve(
                    100, 3, repro.ZChannel(0.1), [10], engine=engine
                )
        with pytest.raises(ValueError, match="design"):
            SweepPlan().add_success_curve(
                100, 3, repro.ZChannel(0.1), [10], design="fancy"
            )

    def test_forced_batch_mode_incompatible_with_design(self):
        # The stacked chunk paths sample the with-replacement design
        # only, and the chunk path is always derived from the cell: a
        # forced one is rejected for every value, so the ablation data
        # can never be mislabeled.
        for mode in ("greedy", "amp", None, "auto"):
            with pytest.raises(TypeError, match="batch_mode"):
                SweepPlan().add_success_curve(
                    100, 3, repro.ZChannel(0.1), [10],
                    design="regular", batch_mode=mode,
                )
        # the per-trial loop does honor every design
        plan = SweepPlan()
        plan.add_success_curve(
            100, 3, repro.ZChannel(0.1), [10], design="regular", trials=2,
        )
        assert plan._cells[0].spec["batch_mode"] is None
        assert plan.run(backend="serial")[0].trials == 2

    def test_trials_validated(self):
        with pytest.raises(ValueError, match="trials"):
            SweepPlan().add_required_queries(
                100, 3, repro.ZChannel(0.1), trials=0
            )


# -- draw sharing: fused sibling success-curve cells --------------------

#: one plan mixing fusable siblings (greedy + AMP over several
#: channels, an oracle centering) with cells that must not fuse: a same-seed cell whose
#: m-grid order differs (so its per-m seeds differ by index), a
#: different-k cell, a corrupted cell and a distributed cell
FUSED_SEED = 21
FUSED_M = [40, 80]


def build_fused_plan():
    from repro.core.corruption import CorruptionModel

    plan = SweepPlan()
    common = dict(trials=5, seed=FUSED_SEED)
    plan.add_success_curve(120, 3, repro.ZChannel(0.1), FUSED_M, **common)
    plan.add_success_curve(
        120, 3, repro.ZChannel(0.1), FUSED_M, algorithm="amp", **common
    )
    plan.add_success_curve(
        120, 3, repro.ZChannel(0.3), FUSED_M, algorithm="amp", **common
    )
    plan.add_success_curve(
        120, 3, repro.NoisyChannel(0.05, 0.1), FUSED_M,
        algorithm_kwargs={"centering": "oracle"}, **common,
    )
    plan.add_success_curve(
        120, 3, repro.ZChannel(0.2), FUSED_M, algorithm="amp", **common
    )
    plan.add_success_curve(
        120, 3, repro.ZChannel(0.2), FUSED_M[::-1], **common
    )
    plan.add_success_curve(120, 4, repro.ZChannel(0.1), FUSED_M, **common)
    plan.add_success_curve(
        120, 3, repro.ZChannel(0.1), FUSED_M,
        corruption=CorruptionModel(flip_rate=0.05), **common,
    )
    # (one grid point keeps the message-passing protocol cheap)
    plan.add_success_curve(
        120, 3, repro.ZChannel(0.1), FUSED_M[:1], algorithm="distributed",
        **common,
    )
    return plan


def reference_cell_outcomes(cell):
    """Per-cell, unfused outcomes: the stacked entry points for batch
    cells, the per-cell chunk function for the rest."""
    spec = cell.spec
    out = []
    for m, seeds in zip(cell.m_values, cell.per_m_seeds):
        if spec["batch_mode"] == "greedy":
            runner = BatchTrialRunner(
                spec["n"], spec["k"], spec["channel"],
                centering=spec["algorithm_kwargs"].get("centering", "half_k"),
            )
            runs = runner.run_trials_seeded(m, list(seeds))
        elif spec["batch_mode"] == "amp":
            runs = run_amp_trials(
                spec["n"], spec["k"], spec["channel"], m, list(seeds),
                **spec["algorithm_kwargs"],
            )
        else:
            out.append(parallel._fixed_m_chunk(spec, m, list(seeds)))
            continue
        out.append([(bool(r.exact), float(r.overlap)) for r in runs])
    return out


@pytest.fixture(scope="module")
def fused_reference():
    plan = build_fused_plan()
    cells = plan._cells
    unfused = [reference_cell_outcomes(cell) for cell in cells]
    # the per-cell chunk function agrees with the unfused entry points
    for cell, ref in zip(cells, unfused):
        assert ref == [
            parallel._fixed_m_chunk(cell.spec, m, list(seeds))
            for m, seeds in zip(cell.m_values, cell.per_m_seeds)
        ]
    return unfused


class TestDrawSharing:
    def test_eligibility_reads_specs_only(self):
        from repro.experiments.scheduler import (
            CELL_FUSED,
            _Task,
            _fuse,
        )

        plan = build_fused_plan()
        cells = plan._cells
        tasks = [
            _Task(ci, mi, mi, m, tuple(cell.per_m_seeds[mi]), 0, 5)
            for ci, cell in enumerate(cells)
            for mi, m in enumerate(cell.m_values)
        ]
        groups = sorted(sorted(u.cells) for u in _fuse(tasks, cells))
        # m=40 and m=80 each fuse the five siblings; the swapped grid,
        # the k=4, corrupted and distributed cells stay alone
        assert groups.count([0, 1, 2, 3, 4]) == 2
        assert sorted(g for g in groups if len(g) == 1) == [
            [c] for c in (5, 5, 6, 6, 7, 7, 8)
        ]
        for unit in _fuse(tasks, cells):
            assert (unit.kind == CELL_FUSED) == (len(unit.tasks) > 1)

    @pytest.mark.parametrize(
        "run_kwargs",
        [dict(backend="serial"), dict(backend="process", workers=2)],
        ids=["serial", "process"],
    )
    def test_backends_match_unfused_reference(
        self, run_kwargs, fused_reference
    ):
        executor = SweepExecutor(**run_kwargs)
        assert executor.run_outcomes(build_fused_plan()) == fused_reference

    def test_one_draw_per_distinct_instance(self, monkeypatch):
        from repro.core import batch

        # a fused chunk draws each instance's (m, gamma) agents with one
        # _draw_agents call (draw_instance_stack)
        real = batch._draw_agents
        drawn = []

        def counting(gen, n, shape):
            drawn.append(shape[0])
            return real(gen, n, shape)

        monkeypatch.setattr(batch, "_draw_agents", counting)
        plan = build_fused_plan()
        SweepExecutor(backend="serial").run_outcomes(plan)
        instances = {
            (cell.spec["k"], m, s.entropy, s.spawn_key)
            for cell in plan._cells
            if cell.spec["batch_mode"] is not None
            for m, seeds in zip(cell.m_values, cell.per_m_seeds)
            for s in seeds
        }
        assert len(drawn) == len(instances)

    def test_resume_with_some_member_records(
        self, tmp_path, monkeypatch, fused_reference
    ):
        """Only some members' chunk records survive: the resume fuses
        just the missing members and merges bit-identically."""
        import repro.experiments.scheduler as sched
        from repro.experiments.checkpoint import SweepCheckpoint, chunk_key

        plan = build_fused_plan()
        ckpt = SweepCheckpoint.open(tmp_path, plan)
        survivors = {(0, 0), (2, 0), (4, 0), (1, 1), (3, 1)}
        for ci, mi in survivors:
            ckpt.record_chunk(chunk_key(ci, mi, 0, 5), fused_reference[ci][mi])

        real = sched._run_chunk
        dispatched = []

        def recording(spec, kind, m, seeds):
            members = spec["members"] if kind == sched.CELL_FUSED else [spec]
            dispatched.append((m, len(members)))
            return real(spec, kind, m, seeds)

        monkeypatch.setattr(sched, "_run_chunk", recording)
        executor = SweepExecutor(backend="serial", checkpoint=tmp_path)
        got = executor.run_outcomes(build_fused_plan())
        # restored records come back from JSON as lists, not tuples
        assert [
            [[tuple(o) for o in per_m] for per_m in cell] for cell in got
        ] == fused_reference
        # m=40 re-ran members 1 and 3; m=80 members 0, 2 and 4
        assert (40, 2) in dispatched and (80, 3) in dispatched
        assert not any(size == 5 for _, size in dispatched)

    def test_stacking_cutoff_members_match(self):
        """Past the stacking cutoff each trial decodes alone; the fused
        AMP members still match standalone run_amp_trials."""
        from repro.amp.batch_amp import STACK_NNZ_CUTOFF, _expected_trial_nnz

        n, m = 2000, 400
        assert _expected_trial_nnz(n, m, n // 2) > STACK_NNZ_CUTOFF
        plan = SweepPlan()
        for p in (0.1, 0.2):
            plan.add_success_curve(
                n, 6, repro.ZChannel(p), [m], algorithm="amp", trials=2,
                seed=3,
            )
        got = SweepExecutor(backend="serial").run_outcomes(plan)
        for cell, outcomes in zip(plan._cells, got):
            runs = run_amp_trials(
                n, 6, cell.spec["channel"], m, list(cell.per_m_seeds[0])
            )
            assert outcomes == [[(r.exact, r.overlap) for r in runs]]


def fused_layout(plan, **run_kwargs):
    """The units a plan dispatches on a backend: ``_explode`` + ``_fuse``."""
    from repro.experiments.scheduler import _fuse

    executor = SweepExecutor(**run_kwargs)
    return _fuse(executor._explode(plan), plan._cells)


class TestUnitLayout:
    def test_fig6_dispatches_one_fused_unit_per_grid_point(self):
        from repro.experiments.scheduler import CELL_FUSED

        plan = SweepPlan()
        m_values = list(range(25, 601, 25))
        for algorithm in ("greedy", "amp"):
            for p in (0.1, 0.3, 0.5):
                plan.add_success_curve(
                    1000, 10, repro.ZChannel(p), m_values,
                    algorithm=algorithm, trials=6, seed=2022,
                )
        units = fused_layout(plan, backend="process", workers=2)
        assert len(units) == 24
        assert sorted(u.m for u in units) == m_values
        for unit in units:
            assert unit.kind == CELL_FUSED
            assert unit.cells == (0, 1, 2, 3, 4, 5)
            assert [len(t.seeds) for t in unit.tasks] == [6] * 6

    @pytest.mark.parametrize(
        "m_values,per_point",
        [([40, 80], [2, 2, 2, 2]), ([40, 80, 120], [3, 3, 2]),
         ([40] + list(range(60, 200, 20)), [8])],
        ids=["2-points", "3-points", "8-points"],
    )
    def test_short_grid_splits_to_the_worker_budget(self, m_values, per_point):
        # 2 workers x 4 items each: 8 items per cell, spread over the grid
        plan = SweepPlan()
        plan.add_success_curve(
            120, 3, repro.ZChannel(0.1), m_values, trials=8, seed=5
        )
        units = fused_layout(plan, backend="process", workers=2)
        assert len(units) >= 8
        for m in m_values:
            tasks = [u.tasks[0] for u in units if u.m == m]
            assert [len(t.seeds) for t in tasks] == per_point
            assert [t.lo for t in tasks] == [
                sum(per_point[:j]) for j in range(len(per_point))
            ]

    def test_required_m_cells_keep_the_per_cell_split(self):
        plan = SweepPlan()
        plan.add_required_queries(120, 3, repro.ZChannel(0.1), trials=16, seed=5)
        units = fused_layout(plan, backend="process", workers=2)
        assert [len(u.seeds) for u in units] == [2] * 8
        assert [len(u.seeds) for u in fused_layout(plan, backend="serial")] == [16]


#: (n, m, trials) on either side of STACK_NNZ_CUTOFF
UNIT_SIZES = {"stacked": (120, 40, 5), "past-cutoff": (2000, 400, 2)}
UNIT_CHANNELS = {
    "z": repro.ZChannel(0.1),
    "noiseless": repro.NoiselessChannel(),
    "noisy": repro.NoisyChannel(0.05, 0.1),
    "gaussian": repro.GaussianQueryNoise(0.5),
}
#: (batch mode, algorithm kwargs) of the unit's members
UNIT_MEMBERS = [
    ("greedy", {"centering": "half_k"}),
    ("greedy", {"centering": "oracle"}),
    ("amp", {}),
]


def unit_member_spec(n, k, channel, mode, kwargs):
    return {
        "n": n, "k": k, "gamma": None, "channel": channel,
        "batch_mode": mode, "algorithm_kwargs": kwargs,
    }


def per_trial_reference(n, k, channel, m, seeds, mode, kwargs):
    """A member's outcomes from the per-trial entry points."""
    if mode == "greedy":
        runs = BatchTrialRunner(
            n, k, channel, centering=kwargs["centering"]
        ).run_trials_seeded(m, seeds)
    else:
        runs = run_amp_trials(n, k, channel, m, seeds)
    return [(bool(r.exact), float(r.overlap)) for r in runs]


@pytest.fixture(scope="module", params=list(UNIT_SIZES), ids=list(UNIT_SIZES))
def unit_size(request):
    from repro.amp.batch_amp import STACK_NNZ_CUTOFF, _expected_trial_nnz

    n, m, trials = UNIT_SIZES[request.param]
    past = _expected_trial_nnz(n, m, n // 2) > STACK_NNZ_CUTOFF
    assert past == (request.param == "past-cutoff")
    return n, m, spawn_seeds(17, trials)


class TestUnitStack:
    @pytest.mark.parametrize("channel", list(UNIT_CHANNELS))
    def test_members_match_per_trial_references(self, unit_size, channel):
        n, m, seeds = unit_size
        k, chan = 4, UNIT_CHANNELS[channel]
        specs = [unit_member_spec(n, k, chan, mode, kw) for mode, kw in UNIT_MEMBERS]
        got = parallel._fixed_m_group(specs, m, seeds)
        for (mode, kwargs), outcomes in zip(UNIT_MEMBERS, got):
            assert outcomes == per_trial_reference(
                n, k, chan, m, seeds, mode, kwargs
            ), (mode, kwargs)

    def test_each_distinct_channel_measures_once_per_trial(self, monkeypatch):
        # fig6's layout: greedy and AMP members per channel, each with
        # its own (unpickled) channel object; a 7th-digit variant is a
        # channel of its own
        n, m, k, trials = 120, 40, 4, 5
        seeds = spawn_seeds(17, trials)
        ps = (0.1, 0.3, 0.5, 0.1000001)
        members = [(mode, kw, p) for p in ps for mode, kw in UNIT_MEMBERS[1:3]]
        calls = []
        real = repro.NoisyChannel.measure

        def spy(self, e1, gamma, rng=None):
            calls.append(self.p)
            return real(self, e1, gamma, rng)

        monkeypatch.setattr(repro.NoisyChannel, "measure", spy)
        specs = [
            unit_member_spec(n, k, repro.ZChannel(p), mode, kw)
            for mode, kw, p in members
        ]
        got = parallel._fixed_m_group(specs, m, seeds)
        assert sorted(calls) == sorted(ps * trials)
        for (mode, kwargs, p), outcomes in zip(members, got):
            assert outcomes == per_trial_reference(
                n, k, repro.ZChannel(p), m, seeds, mode, kwargs
            ), (mode, kwargs, p)

    def test_greedy_unit_at_zero_queries(self):
        seeds = spawn_seeds(3, 4)
        spec = unit_member_spec(90, 3, repro.ZChannel(0.1), "greedy",
                                {"centering": "half_k"})
        assert parallel._fixed_m_group([spec], 0, seeds) == [
            per_trial_reference(90, 3, spec["channel"], 0, seeds, "greedy",
                                spec["algorithm_kwargs"])
        ]

    def test_stack_rows_are_the_per_trial_graphs(self):
        from repro.core.batch import draw_instance, draw_instance_stack

        n, k, m, gamma = 300, 5, 30, 150
        seeds = spawn_seeds(8, 4)
        inst = draw_instance_stack(n, k, m, gamma, seeds)
        assert inst.indices.dtype == np.int32
        assert inst.indptr[-1] == inst.indices.size == inst.data.size
        e1 = inst.edges_into_ones()
        degrees = inst.distinct_degrees()
        results = np.random.default_rng(0).normal(size=(len(seeds), m))
        psi = inst.neighborhood_sums(results)
        for t, seed in enumerate(seeds):
            gen, truth, graph = draw_instance(n, k, m, gamma, seed)
            assert np.array_equal(inst.sigma[t], truth.sigma)
            rows = inst.indptr[t * m : (t + 1) * m + 1]
            lo, hi = rows[0], rows[-1]
            assert np.array_equal(rows - lo, graph.indptr)
            assert np.array_equal(inst.indices[lo:hi] - t * n, graph.agents)
            assert np.array_equal(inst.data[lo:hi], graph.counts)
            assert np.array_equal(e1[t], graph.edges_into_ones(truth.sigma))
            assert np.array_equal(degrees[t], graph.distinct_degrees())
            # bit-identical float sums, in the per-graph bincount order
            assert np.array_equal(psi[t], graph.neighborhood_sums(results[t]))
            assert (
                inst.gens[t].bit_generator.state == gen.bit_generator.state
            )


class TestGridValidation:
    @pytest.mark.parametrize("algorithm", ["amp", "distributed_amp"])
    def test_amp_rejects_zero_m_when_added(self, algorithm):
        plan = SweepPlan()
        plan.add_success_curve(100, 3, repro.ZChannel(0.1), [0, 20], trials=2)
        with pytest.raises(ValueError, match="m must be >= 1"):
            plan.add_success_curve(
                100, 3, repro.ZChannel(0.1), [0, 20], algorithm=algorithm,
                trials=2,
            )
        assert len(plan) == 1  # the rejected cell was not added

    @pytest.mark.parametrize("bad", [2.5, "7", True], ids=["float", "str", "bool"])
    def test_non_integer_m_rejected(self, bad):
        # A grid point is validated as given, never coerced: 2.5 would
        # silently run m=2, "7" m=7 and True m=1.
        from repro.experiments.runner import success_rate_curve

        with pytest.raises(TypeError, match="m must be an integer"):
            SweepPlan().add_success_curve(50, 2, repro.ZChannel(0.1), [bad])
        with pytest.raises(TypeError, match="m must be an integer"):
            success_rate_curve(50, 2, repro.ZChannel(0.1), [bad], trials=1)

    def test_negative_m_rejected_for_every_algorithm(self):
        with pytest.raises(ValueError, match="m must be >= 0"):
            SweepPlan().add_success_curve(
                100, 3, repro.ZChannel(0.1), [20, -1]
            )

    def test_figure6_bad_grid_fails_before_any_chunk(self, monkeypatch):
        import repro.experiments.scheduler as sched
        from repro.experiments.figures import figure6

        calls = []
        monkeypatch.setattr(
            sched, "_run_chunk", lambda *args: calls.append(args)
        )
        with pytest.raises(ValueError, match="m must be >= 1"):
            figure6(n=100, trials=2, m_values=(0, 60), backend="serial")
        assert calls == []
