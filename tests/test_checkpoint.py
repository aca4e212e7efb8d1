"""Checkpoint/resume contract: crash-safe, stale-proof, bit-identical.

The invariants under test: (1) a checkpointed run produces the exact
result an uncheckpointed serial run does; (2) a driver killed mid-sweep
and re-run with the same plan resumes from persisted chunks/cells —
skipping completed work — and still matches the uninterrupted
reference bit for bit; (3) a checkpoint written for a *different* plan
(changed specs or seeds) is rejected via the fingerprint, never
silently resumed; (4) the storage primitive is atomic (a torn write is
impossible by construction of write-then-rename).
"""

import json

import pytest

import repro
from repro.experiments import parallel
from repro.experiments.checkpoint import (
    CHECKPOINT_ENV,
    CheckpointError,
    CheckpointMismatch,
    SweepCheckpoint,
    chunk_key,
    plan_fingerprint,
)
from repro.experiments.scheduler import SweepExecutor, SweepPlan, _run_chunk
from repro.experiments.storage import load_json, save_json_atomic


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pool_after():
    yield
    parallel.shutdown_pool()


def make_plan(seed=7):
    plan = SweepPlan()
    plan.add_required_queries(
        120, 3, repro.ZChannel(0.1), trials=6, seed=seed, check_every=4
    )
    plan.add_success_curve(
        120, 3, repro.ZChannel(0.1), [60, 120], trials=4, seed=seed + 1
    )
    return plan


class TestStorageAtomic:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "nested" / "record.json"
        save_json_atomic(path, {"outcomes": [[True, 17], [False, None]]})
        assert load_json(path) == {"outcomes": [[True, 17], [False, None]]}

    def test_no_temp_residue(self, tmp_path):
        path = tmp_path / "record.json"
        save_json_atomic(path, {"a": 1})
        save_json_atomic(path, {"a": 2})
        assert [p.name for p in tmp_path.iterdir()] == ["record.json"]
        assert load_json(path) == {"a": 2}

    def test_failure_leaves_previous_file(self, tmp_path):
        path = tmp_path / "record.json"
        save_json_atomic(path, {"a": 1})
        with pytest.raises(TypeError):
            save_json_atomic(path, {"bad": object()})
        # The failed write neither replaced the file nor left a temp.
        assert load_json(path) == {"a": 1}
        assert [p.name for p in tmp_path.iterdir()] == ["record.json"]


class TestFingerprint:
    def test_stable_across_constructions(self):
        assert plan_fingerprint(make_plan()) == plan_fingerprint(make_plan())

    def test_sensitive_to_seed_and_spec(self):
        base = plan_fingerprint(make_plan(seed=7))
        assert plan_fingerprint(make_plan(seed=8)) != base
        other = SweepPlan()
        other.add_required_queries(
            121, 3, repro.ZChannel(0.1), trials=6, seed=7, check_every=4
        )
        other.add_success_curve(
            120, 3, repro.ZChannel(0.1), [60, 120], trials=4, seed=8
        )
        assert plan_fingerprint(other) != base

    def test_chunk_key_layout_independent(self):
        assert chunk_key(3, None, 0, 8) == "c3_mr_0_8"
        assert chunk_key(3, 2, 0, 8) == "c3_m2_0_8"
        # No prefix collision between cells 1 and 12: the separator is
        # part of the key, so cell-record cleanup cannot eat a sibling.
        assert not chunk_key(12, None, 0, 8).startswith("c1_")


class TestCheckpointRoundTrip:
    def test_checkpointed_run_matches_plain_serial(self, tmp_path):
        ref = make_plan().run(backend="serial")
        got = make_plan().run(backend="serial", checkpoint=tmp_path)
        assert repr(got) == repr(ref)

    def test_resume_skips_completed_cells(self, tmp_path):
        ref = make_plan().run(backend="serial")
        make_plan().run(backend="serial", checkpoint=tmp_path)
        plan = make_plan()
        ckpt = SweepCheckpoint.open(tmp_path, plan)
        assert sorted(ckpt._cells) == [0, 1]
        got = plan.run(backend="serial", checkpoint=tmp_path)
        assert repr(got) == repr(ref)

    def test_resume_after_simulated_kill(self, tmp_path, monkeypatch):
        """Die after the first chunk lands; the resume must complete
        from the surviving records and match the uninterrupted run."""
        ref = make_plan().run(backend="serial")

        calls = {"n": 0}
        real = _run_chunk

        def dying(spec, kind, m, seeds):
            calls["n"] += 1
            if calls["n"] > 1:
                raise KeyboardInterrupt  # the "kill" mid-sweep
            return real(spec, kind, m, seeds)

        import repro.experiments.scheduler as sched

        monkeypatch.setattr(sched, "_run_chunk", dying)
        with pytest.raises(KeyboardInterrupt):
            make_plan().run(backend="serial", checkpoint=tmp_path)
        monkeypatch.setattr(sched, "_run_chunk", real)

        # Something durable survived the crash...
        plan = make_plan()
        ckpt = SweepCheckpoint.open(tmp_path, plan)
        assert ckpt._cells or ckpt._chunks
        # ...and the resumed run is bit-identical and reuses it.
        got = plan.run(backend="serial", checkpoint=tmp_path)
        assert repr(got) == repr(ref)

    def test_resume_with_different_chunk_layout(self, tmp_path):
        """Chunk records key on trial ranges, so a resume exploded
        into a different layout recomputes only the unmatched ranges
        and still merges bit-identically."""
        ref = make_plan().run(backend="serial")
        # Serial explodes 1 chunk per (cell, grid point)...
        make_plan().run(backend="serial", checkpoint=tmp_path)
        # ...while workers=2 explodes many; the completed-cell records
        # still satisfy the whole plan without recomputation.
        plan = make_plan()
        got = SweepExecutor(
            backend="serial", workers=2, checkpoint=tmp_path
        ).run(plan)
        ckpt = SweepCheckpoint.open(tmp_path, make_plan())
        assert repr(got) == repr(ref)

    def test_env_var_enables_checkpointing(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CHECKPOINT_ENV, str(tmp_path))
        ref = make_plan().run(backend="serial")
        assert any(tmp_path.glob("plan-*/manifest.json"))
        got = make_plan().run(backend="serial")
        assert repr(got) == repr(ref)

    def test_process_backend_reuses_serial_checkpoint(self, tmp_path):
        ref = make_plan().run(backend="serial", checkpoint=tmp_path)
        plan = make_plan()
        ckpt = SweepCheckpoint.open(tmp_path, plan)
        got = plan.run(backend="process", workers=2, checkpoint=tmp_path)
        assert repr(got) == repr(ref)
        # Everything was restored: the pool never even started.
        reopened = SweepCheckpoint.open(tmp_path, make_plan())
        assert sorted(reopened._cells) == [0, 1]


class TestStaleRejection:
    def test_plan_dir_fingerprint_mismatch(self, tmp_path):
        make_plan(seed=7).run(backend="serial", checkpoint=tmp_path)
        plan_dir = next(tmp_path.glob("plan-*"))
        other = make_plan(seed=8)
        with pytest.raises(CheckpointMismatch, match="stale checkpoint"):
            SweepCheckpoint.open(plan_dir, other)
        with pytest.raises(CheckpointMismatch, match="stale checkpoint"):
            other.run(backend="serial", checkpoint=plan_dir)

    def test_root_dir_isolates_plans(self, tmp_path):
        """Under a shared root, different plans get different subdirs
        instead of tripping over each other's manifests."""
        make_plan(seed=7).run(backend="serial", checkpoint=tmp_path)
        make_plan(seed=8).run(backend="serial", checkpoint=tmp_path)
        assert len(list(tmp_path.glob("plan-*"))) == 2

    def test_version_mismatch_rejected(self, tmp_path):
        make_plan().run(backend="serial", checkpoint=tmp_path)
        manifest = next(tmp_path.glob("plan-*/manifest.json"))
        record = json.loads(manifest.read_text())
        record["version"] = 999
        manifest.write_text(json.dumps(record))
        with pytest.raises(CheckpointMismatch, match="version"):
            SweepCheckpoint.open(manifest.parent, make_plan())


class TestDamagedRecords:
    """A record that does not parse, or whose outcome count differs from
    its cell or chunk key, stops the resume with an error naming the
    file; it is never resumed as written nor recomputed in silence."""

    def _plan_dir(self, tmp_path):
        make_plan().run(backend="serial", checkpoint=tmp_path)
        return next(tmp_path.glob("plan-*"))

    def _expect_error(self, tmp_path, path, match):
        with pytest.raises(CheckpointError, match=match) as exc:
            make_plan().run(backend="serial", checkpoint=tmp_path)
        assert str(path) in str(exc.value)

    def test_cut_required_cell_record(self, tmp_path):
        # Cell 0 has 6 trials; a record cut to 2 used to resume as a
        # 2-trial cell under the same fingerprint.
        path = self._plan_dir(tmp_path) / "cell_0000.json"
        record = load_json(path)
        assert len(record["outcomes"]) == 6
        save_json_atomic(path, {"outcomes": record["outcomes"][:2]})
        self._expect_error(tmp_path, path, "holds 2 outcomes")

    def test_cut_grid_point_of_curve_cell_record(self, tmp_path):
        path = self._plan_dir(tmp_path) / "cell_0001.json"
        outcomes = load_json(path)["outcomes"]
        assert [len(per_m) for per_m in outcomes] == [4, 4]
        outcomes[1] = outcomes[1][:3]
        save_json_atomic(path, {"outcomes": outcomes})
        self._expect_error(tmp_path, path, "holds 3 outcomes")

    def test_chunk_record_count_differs_from_its_key(self, tmp_path):
        plan_dir = self._plan_dir(tmp_path)
        (plan_dir / "cell_0000.json").unlink()
        path = plan_dir / f"chunk_{chunk_key(0, None, 0, 6)}.json"
        save_json_atomic(path, {"outcomes": [[True, 12]] * 5})
        self._expect_error(tmp_path, path, "holds 5 outcomes")

    @pytest.mark.parametrize(
        "text", ['{"outcomes": [[true, 1', '[1, 2]', '{"other": []}'],
        ids=["cut-mid-json", "no-object", "no-outcomes"],
    )
    def test_unparseable_record(self, tmp_path, text):
        path = self._plan_dir(tmp_path) / "cell_0000.json"
        path.write_text(text)
        self._expect_error(tmp_path, path, "unreadable checkpoint record")

    @pytest.mark.parametrize(
        "name, match",
        [("cell_0099.json", "names no cell"), ("chunk_c0_0_6.json", "no chunk key")],
    )
    def test_record_name_outside_the_plan(self, tmp_path, name, match):
        path = self._plan_dir(tmp_path) / name
        save_json_atomic(path, {"outcomes": []})
        self._expect_error(tmp_path, path, match)

    def test_intact_records_still_resume(self, tmp_path):
        plan_dir = self._plan_dir(tmp_path)
        assert sorted(p.name for p in plan_dir.glob("cell_*.json")) == [
            "cell_0000.json", "cell_0001.json",
        ]
        ref = make_plan().run(backend="serial")
        got = make_plan().run(backend="serial", checkpoint=tmp_path)
        assert repr(got) == repr(ref)

    def test_mismatch_is_a_checkpoint_error(self):
        assert issubclass(CheckpointMismatch, CheckpointError)
