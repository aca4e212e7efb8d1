"""Shared-memory dispatch arena: lifecycle, protocol, sweep identity.

The contract under test (see :mod:`repro.experiments.shm`): with
``shm=True`` the process backend ships each chunk as ``(arena name,
spec ref, seeds ref, kind, m)`` and the workers read the pickled
payloads out of one driver-owned shared-memory segment — the same
objects the pipe would have delivered, so sweep results are
bit-identical to the serial backend. The arena lives exactly one
executor run (unlinked in a ``finally``), leaked arenas are disposed
by an atexit hook, and worker attaches never adopt the segment into
the resource tracker.
"""

import pickle

import pytest

import repro
from repro.experiments import shm as shm_module
from repro.experiments.scheduler import SweepExecutor, SweepPlan
from repro.experiments.shm import SHM_ENV, SweepArena, resolve_shm


# -- resolution ----------------------------------------------------------


def test_resolve_explicit_beats_env(monkeypatch):
    monkeypatch.setenv(SHM_ENV, "1")
    assert resolve_shm(False) is False
    monkeypatch.delenv(SHM_ENV)
    assert resolve_shm(True) is True


@pytest.mark.parametrize("raw", ["1", "true", "YES", " on "])
def test_resolve_env_truthy(monkeypatch, raw):
    monkeypatch.setenv(SHM_ENV, raw)
    assert resolve_shm() is True


@pytest.mark.parametrize("raw", [None, "", "0", "false", "off"])
def test_resolve_env_falsy(monkeypatch, raw):
    if raw is None:
        monkeypatch.delenv(SHM_ENV, raising=False)
    else:
        monkeypatch.setenv(SHM_ENV, raw)
    assert resolve_shm() is False


def test_resolve_env_garbage_raises(monkeypatch):
    # A typo in the switch must not silently disable the arena.
    monkeypatch.setenv(SHM_ENV, "2")
    with pytest.raises(ValueError, match="REPRO_SHM"):
        resolve_shm()


# -- arena lifecycle -----------------------------------------------------


def test_arena_refs_and_blob_roundtrip():
    blobs = [b"alpha", b"", b"gamma-blob"]
    with SweepArena(blobs) as arena:
        assert arena.refs == [(0, 5), (5, 0), (5, 10)]
        assert arena.size == 15
        for blob, ref in zip(blobs, arena.refs):
            assert shm_module.read_blob(arena.name, ref) == blob


def test_from_payloads_roundtrip_read_spec():
    spec = {"n": 128, "channel": repro.ZChannel(0.1), "kind": "demo"}
    with SweepArena.from_payloads([spec, (1, 2, 3)]) as arena:
        decoded = shm_module.read_spec(arena.name, arena.refs[0])
        assert decoded["n"] == 128
        assert repr(decoded["channel"]) == repr(spec["channel"])
        # The decoded-spec cache returns the same object per worker.
        assert shm_module.read_spec(arena.name, arena.refs[0]) is decoded
        seeds = pickle.loads(
            shm_module.read_blob(arena.name, arena.refs[1])
        )
        assert seeds == (1, 2, 3)


def test_dispose_unlinks_and_is_idempotent():
    arena = SweepArena([b"payload"])
    name = arena.name
    assert name in shm_module._live_arenas
    arena.dispose()
    assert name not in shm_module._live_arenas
    arena.dispose()  # second disposal is a no-op
    from multiprocessing import shared_memory

    with pytest.raises(FileNotFoundError):
        shared_memory.SharedMemory(name=name)


def test_empty_arena_is_valid():
    with SweepArena([]) as arena:
        assert arena.size == 0
        assert arena.refs == []


def test_leak_guard_disposes_registered_arenas():
    arena = SweepArena([b"leaked"])
    name = arena.name
    try:
        shm_module._dispose_leaked_arenas()
        assert name not in shm_module._live_arenas
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
    finally:
        arena.dispose()  # no-op if the guard worked


# -- sweep identity ------------------------------------------------------


def _mixed_plan():
    plan = SweepPlan()
    plan.add_required_queries(
        150, 4, repro.ZChannel(0.1), trials=4, seed=11, check_every=4
    )
    plan.add_success_curve(
        120, 3, repro.NoiselessChannel(), [40, 80], trials=4, seed=7
    )
    plan.add_required_queries(
        150, 3, repro.ZChannel(0.05), trials=4, seed=3, algorithm="amp",
        check_every=10, max_m=300,
    )
    return plan


def test_shm_process_sweep_identical_to_serial():
    serial = _mixed_plan().run(backend="serial")
    shm = _mixed_plan().run(backend="process", workers=2, shm=True)
    assert repr(shm) == repr(serial)
    # The executor unlinked its arena in the finally block.
    assert not shm_module._live_arenas


def test_shm_env_route_reaches_executor(monkeypatch):
    monkeypatch.setenv(SHM_ENV, "1")
    executor = SweepExecutor(backend="process", workers=2)
    assert executor.shm is True
    serial = _mixed_plan().run(backend="serial")
    assert repr(executor.run(_mixed_plan())) == repr(serial)
    assert not shm_module._live_arenas


def test_shm_flag_is_inert_on_serial_backend():
    serial = _mixed_plan().run(backend="serial")
    flagged = _mixed_plan().run(backend="serial", shm=True)
    assert repr(flagged) == repr(serial)
    assert not shm_module._live_arenas


def test_aligned_arena_ndarray_blob_read_array_roundtrip():
    import numpy as np

    arr = np.arange(13, dtype=np.float64)
    mat = np.arange(12, dtype=np.int8).reshape(3, 4)
    with SweepArena([b"head", arr, mat], align=64) as arena:
        # Every blob offset sits on the alignment boundary.
        assert all(off % 64 == 0 for off, _ in arena.refs)
        got = shm_module.read_array(
            arena.name, arena.refs[1], arr.dtype.str, arr.shape
        )
        np.testing.assert_array_equal(got, arr)
        assert not got.flags.writeable
        got2 = shm_module.read_array(
            arena.name, arena.refs[2], mat.dtype.str, mat.shape
        )
        np.testing.assert_array_equal(got2, mat)


# -- driver-prepared graph dispatch --------------------------------------


class _FakeTask:
    def __init__(self, seeds, m=None):
        self.seeds = tuple(seeds)
        self.m = m


def _poison(monkeypatch, batch_amp, *names):
    def boom(*args, **kwargs):
        raise AssertionError("worker-side graph build ran on prepared path")

    for name in names:
        monkeypatch.setattr(batch_amp, name, boom)


def test_prepared_fixed_m_chunk_skips_worker_sampling(monkeypatch):
    """An eligible AMP curve chunk decodes from published buffers alone."""
    from repro.amp import batch_amp
    from repro.experiments import parallel
    from repro.experiments.scheduler import _prepared_arrays

    plan = SweepPlan()
    plan.add_success_curve(
        120, 3, repro.ZChannel(0.1), [40], trials=5, seed=7,
        algorithm="amp",
    )
    cell = plan._cells[0]
    seeds = cell.per_m_seeds[0]
    expected = parallel._fixed_m_chunk(cell.spec, 40, list(seeds))
    prep = _prepared_arrays(cell, _FakeTask(seeds, m=40))
    assert prep is not None
    with SweepArena(
        [pickle.dumps(cell.spec)] + [prep[k] for k in sorted(prep)],
        align=64,
    ) as arena:
        refs = {
            key: (arena.refs[1 + i], prep[key].dtype.str, prep[key].shape)
            for i, key in enumerate(sorted(prep))
        }
        # The submission payload is refs only: small and seed-free.
        assert len(pickle.dumps(refs)) < 1024
        _poison(
            monkeypatch, batch_amp,
            "sample_ground_truth", "draw_instance",
            "_stack_blocks", "measure",
        )
        got = shm_module.shm_graph_chunk(
            arena.name, arena.refs[0], refs, cell.kind, 40
        )
    assert got == expected


def test_prepared_required_chunk_skips_worker_sampling(monkeypatch):
    """An eligible AMP required chunk replays driver-grown streams."""
    from repro.amp import batch_amp
    from repro.experiments import parallel
    from repro.experiments.scheduler import _prepared_arrays

    plan = SweepPlan()
    plan.add_required_queries(
        120, 3, repro.ZChannel(0.05), trials=3, seed=13, algorithm="amp",
        check_every=8, max_m=200,
    )
    cell = plan._cells[0]
    expected = parallel._required_queries_chunk(cell.spec, list(cell.seeds))
    prep = _prepared_arrays(cell, _FakeTask(cell.seeds))
    assert prep is not None
    with SweepArena(
        [pickle.dumps(cell.spec)] + [prep[k] for k in sorted(prep)],
        align=64,
    ) as arena:
        refs = {
            key: (arena.refs[1 + i], prep[key].dtype.str, prep[key].shape)
            for i, key in enumerate(sorted(prep))
        }
        assert len(pickle.dumps(refs)) < 1024
        # No stream construction or sampling in the worker: probe
        # decoding stacks prefixes of the replayed buffers only.
        _poison(
            monkeypatch, batch_amp,
            "sample_ground_truth", "MeasurementStream",
        )
        got = shm_module.shm_graph_chunk(
            arena.name, arena.refs[0], refs, cell.kind, None
        )
    assert got == expected


def test_ineligible_tasks_keep_seed_dispatch():
    """Greedy, corrupted, and oversized chunks fall back to seeds."""
    from repro.core.corruption import CorruptionModel
    from repro.experiments.scheduler import (
        _PREPARED_ELEMENTS_CAP,
        _prepared_arrays,
    )

    plan = SweepPlan()
    plan.add_success_curve(
        120, 3, repro.ZChannel(0.1), [40], trials=3, seed=1
    )  # greedy: no batch_mode "amp"
    plan.add_required_queries(
        120, 3, repro.ZChannel(0.1), trials=3, seed=2
    )  # greedy required scan
    plan.add_required_queries(
        120, 3, repro.ZChannel(0.1), trials=3, seed=4, algorithm="amp",
        corruption=CorruptionModel(flip_rate=0.05),
    )  # corrupted: generic scan owns the corruption realization
    curve, req, corrupted = plan._cells
    assert _prepared_arrays(curve, _FakeTask(curve.per_m_seeds[0], m=40)) is None
    assert _prepared_arrays(req, _FakeTask(req.seeds)) is None
    assert _prepared_arrays(corrupted, _FakeTask(corrupted.seeds)) is None

    big = SweepPlan()
    big.add_success_curve(
        120, 3, repro.ZChannel(0.1), [40], trials=3, seed=5,
        algorithm="amp",
    )
    cell = big._cells[0]
    import repro.experiments.scheduler as sched

    try:
        sched._PREPARED_ELEMENTS_CAP = 1  # force the memory gate shut
        assert (
            _prepared_arrays(cell, _FakeTask(cell.per_m_seeds[0], m=40))
            is None
        )
    finally:
        sched._PREPARED_ELEMENTS_CAP = _PREPARED_ELEMENTS_CAP


def test_shm_amp_sweep_identical_to_serial():
    """End-to-end: prepared AMP cells fold bit-identically to serial."""

    def _amp_plan():
        plan = SweepPlan()
        plan.add_success_curve(
            120, 3, repro.NoiselessChannel(), [40, 80], trials=4, seed=9,
            algorithm="amp",
        )
        plan.add_required_queries(
            120, 3, repro.ZChannel(0.05), trials=4, seed=3, algorithm="amp",
            check_every=10, max_m=300,
        )
        return plan

    serial = _amp_plan().run(backend="serial")
    shm = _amp_plan().run(backend="process", workers=2, shm=True)
    assert repr(shm) == repr(serial)
    assert not shm_module._live_arenas


def test_shm_chunk_entry_point_runs_required_queries():
    plan = SweepPlan()
    plan.add_required_queries(
        120, 3, repro.NoiselessChannel(), trials=2, seed=5, check_every=4
    )
    cell = plan._cells[0]
    with SweepArena.from_payloads(
        [cell.spec, tuple(cell.seeds)]
    ) as arena:
        outcomes = shm_module.shm_chunk(
            arena.name, arena.refs[0], arena.refs[1], cell.kind, None
        )
    # One whole-cell chunk: per-trial (succeeded, required_m) outcomes
    # matching the serial sweep's folded values in trial order.
    serial = plan.run(backend="serial")[0]
    assert [m for _, m in outcomes] == list(serial.values)
