"""Seeded-equivalence tests for the multiprocess trial-sharding subsystem.

The contract under test: sharding trials across worker processes
(``workers > 1``) returns *bit-identical* results to the serial path —
same ``RequiredQueriesSample`` values, same success-rate/overlap
arrays — for every algorithm, because the scheduler spawns
the same per-trial child seeds, chunks them order-preservingly, and
merges outcomes in trial order.
"""

import multiprocessing
import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pytest

import repro
from repro.core.chunking import chunk_bounds, chunk_sequence
from repro.experiments import parallel
from repro.experiments.runner import (
    required_queries_trials,
    success_rate_curve,
)

from reference import fixed_m_curve


class _KillOnceChannel(repro.NoiselessChannel):
    """Noiseless channel that kills its worker process exactly once.

    The first worker to measure while the flag file exists removes it
    and dies with ``os._exit`` (simulating an OOM kill / segfault mid
    sweep); every later measurement — in particular the whole fresh
    pool retry — behaves noiselessly. Module-level so pool workers
    can unpickle it.
    """

    def __init__(self, flag_path):
        self.flag_path = flag_path

    def measure(self, e1, gamma, rng=None):
        if os.path.exists(self.flag_path):
            try:
                os.remove(self.flag_path)
            except OSError:
                pass
            os._exit(1)
        return super().measure(e1, gamma, rng)


class _AlwaysKillChannel(repro.NoiselessChannel):
    """Channel whose every worker-side measurement kills the process."""

    def measure(self, e1, gamma, rng=None):
        if multiprocessing.parent_process() is not None:
            os._exit(1)
        return super().measure(e1, gamma, rng)


@pytest.fixture(scope="module", autouse=True)
def _shutdown_pool_after():
    yield
    parallel.shutdown_pool()


class TestChunking:
    def test_bounds_cover_range_in_order(self):
        assert chunk_bounds(10, 4) == [(0, 3), (3, 6), (6, 8), (8, 10)]

    def test_no_empty_chunks(self):
        assert chunk_bounds(2, 5) == [(0, 1), (1, 2)]
        assert chunk_bounds(0, 3) == []

    def test_sizes_differ_by_at_most_one(self):
        for total in range(0, 40):
            for chunks in range(1, 9):
                bounds = chunk_bounds(total, chunks)
                sizes = [hi - lo for lo, hi in bounds]
                assert sum(sizes) == total
                if sizes:
                    assert max(sizes) - min(sizes) <= 1
                    assert all(s >= 1 for s in sizes)
                # contiguous and ordered
                flat = [x for lo, hi in bounds for x in range(lo, hi)]
                assert flat == list(range(total))

    def test_sequence_concatenation_is_identity(self):
        items = list(range(17))
        for chunks in (1, 2, 5, 17, 30):
            merged = [x for part in chunk_sequence(items, chunks) for x in part]
            assert merged == items

    def test_validation(self):
        with pytest.raises(ValueError):
            chunk_bounds(-1, 2)
        with pytest.raises(ValueError):
            chunk_bounds(4, 0)
        with pytest.raises(TypeError):
            chunk_bounds(4.0, 2)


class TestResolveWorkers:
    def test_explicit_value(self):
        assert parallel.resolve_workers(3) == 3

    def test_zero_means_cpu_count(self):
        assert parallel.resolve_workers(0) == (os.cpu_count() or 1)

    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(parallel.WORKERS_ENV, raising=False)
        assert parallel.resolve_workers(None) == 1

    def test_env_var_fallback(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV, "3")
        assert parallel.resolve_workers(None) == 3
        # explicit argument wins over the environment
        assert parallel.resolve_workers(1) == 1

    def test_env_var_invalid(self, monkeypatch):
        monkeypatch.setenv(parallel.WORKERS_ENV, "many")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            parallel.resolve_workers(None)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            parallel.resolve_workers(-1)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError, match="workers"):
            parallel.resolve_workers(2.5)
        with pytest.raises(TypeError, match="workers"):
            parallel.resolve_workers(True)


def _program_env():
    """Environment for a fresh interpreter that imports the package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop(parallel.WORKERS_ENV, None)
    return env


def _program_modules(modules):
    """Names of the ``repro``/``scipy`` modules in ``modules``."""
    return {m for m in modules if m.split(".")[0] in ("repro", "scipy")}


class TestStartMethod:
    def test_forkserver_on_linux_spawn_elsewhere(self):
        # The defaults CPython 3.14 picks per platform; never plain
        # fork, which copies the driver's threads and locks.
        expected = "forkserver" if sys.platform.startswith("linux") else "spawn"
        assert parallel.START_METHOD == expected
        assert parallel.START_METHOD in multiprocessing.get_all_start_methods()

    def test_every_preload_module_resolves(self):
        # The fork server skips a preload that fails to import without
        # a word, which would silently cost every worker an import.
        # Import them as the server does: in a fresh interpreter.
        proc = subprocess.run(
            [sys.executable, "-c", "import " + ", ".join(parallel._PRELOAD)],
            capture_output=True, text=True, timeout=120, env=_program_env(),
        )
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.skipif(
        parallel.START_METHOD != "forkserver", reason="no fork server"
    )
    def test_worker_imports_nothing_beyond_the_preload(self):
        # A worker forked from the server must find every module a
        # chunk needs already imported: a lazy import left in a chunk
        # would be paid again by every worker of every pool.
        from repro.experiments.figures import figure6

        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, " + ", ".join(parallel._PRELOAD)
             + "; print(*sys.modules)"],
            capture_output=True, text=True, timeout=120, env=_program_env(),
        )
        assert proc.returncode == 0, proc.stderr
        preloaded = _program_modules(proc.stdout.split())

        parallel.shutdown_pool()
        figure6(n=200, trials=2, m_values=[40, 80], seed=1,
                backend="process", workers=1)
        required_queries_trials(
            150, 3, repro.ZChannel(0.1), algorithm="amp", trials=2, seed=1,
            check_every=5, backend="process", workers=1,
        )
        loaded = parallel._get_pool(1).submit(
            eval, "list(__import__('sys').modules)"
        ).result()
        assert _program_modules(loaded) - preloaded == set()


def _proc_stat(pid):
    """``(ppid, start time)`` of a live process, else ``None``."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            # the command name may hold spaces; the fields after it do
            # not (state is field 3, ppid 4, start time 22)
            fields = f.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    if fields[0] in "ZX":
        return None
    return int(fields[1]), fields[19]


def _descendants(pid):
    """``{pid: start time}`` of every live descendant of ``pid``."""
    live = {}
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            stat = _proc_stat(entry)
            if stat is not None:
                live[int(entry)] = stat
    found, stack = {}, [pid]
    while stack:
        parent = stack.pop()
        for child, (ppid, start) in live.items():
            if ppid == parent:
                found[child] = start
                stack.append(child)
    return found


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs /proc")
class TestKilledDriver:
    def test_sigkilled_driver_leaves_no_process_behind(self):
        # Pool workers blocked on the call queue never notice a
        # SIGKILLed driver; each watches its parent's sentinel and
        # exits, which lets the fork server and the resource tracker
        # exit too.
        code = textwrap.dedent(
            """
            from repro.experiments.figures import figure6

            while True:
                figure6(n=200, trials=2, m_values=[40, 80], seed=1,
                        backend="process", workers=2)
                print("SWEEPING", flush=True)
            """
        )
        driver = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE,
            text=True, env=_program_env(),
        )
        try:
            assert driver.stdout.readline().strip() == "SWEEPING"
            left = _descendants(driver.pid)
            assert len(left) >= 3  # two workers and the pool's helpers
        finally:
            driver.kill()
            driver.wait()
            driver.stdout.close()
        deadline = time.monotonic() + 5.0
        while left and time.monotonic() < deadline:
            time.sleep(0.05)
            left = {
                p: t for p, t in left.items()
                if (stat := _proc_stat(p)) and stat[1] == t
            }
        assert not left, f"still alive 5 s after the driver died: {left}"


class TestRequiredQueriesEquivalence:
    def test_sharded_matches_serial(self):
        serial = required_queries_trials(
            150, 4, repro.ZChannel(0.1), trials=7, seed=11
        )
        sharded = required_queries_trials(
            150, 4, repro.ZChannel(0.1), trials=7, seed=11, workers=2
        )
        assert sharded.values == serial.values
        assert sharded.failures == serial.failures

    def test_failures_counted_identically(self):
        serial = required_queries_trials(
            200, 5, repro.ZChannel(0.1), trials=4, seed=0, max_m=2
        )
        sharded = required_queries_trials(
            200, 5, repro.ZChannel(0.1), trials=4, seed=0, max_m=2, workers=2
        )
        assert serial.failures == sharded.failures == 4

    def test_worker_count_does_not_matter(self):
        samples = [
            required_queries_trials(
                120, 3, repro.NoiselessChannel(), trials=5, seed=3, workers=w
            )
            for w in (1, 2, 3)
        ]
        assert samples[0].values == samples[1].values == samples[2].values


def _serial_curve(engine, n, k, channel, m_values, **kwargs):
    """A serial curve's ``(success_rates, overlaps)``: the stacked run
    (``"batch"``) or the per-trial loop of ``tests/reference.py``."""
    if engine == "batch":
        curve = success_rate_curve(n, k, channel, m_values, **kwargs)
        return curve.success_rates, curve.overlaps
    return fixed_m_curve(n, k, channel, m_values, **kwargs)


class TestSuccessCurveEquivalence:
    @pytest.mark.parametrize("engine", ["batch", "legacy"])
    def test_greedy_sharded_matches_serial(self, engine):
        # "batch": the serial stacked run; "legacy": the per-trial loop
        # of tests/reference.py. The sharded stacked run matches both.
        kwargs = dict(trials=8, seed=4)
        sharded = success_rate_curve(
            200, 4, repro.ZChannel(0.2), [30, 120], workers=2, **kwargs
        )
        assert (sharded.success_rates, sharded.overlaps) == _serial_curve(
            engine, 200, 4, repro.ZChannel(0.2), [30, 120], **kwargs
        )

    @pytest.mark.parametrize("engine", ["batch", "legacy"])
    def test_amp_sharded_matches_serial(self, engine):
        # Chunks run the block-diagonal stacked AMP runner; they must
        # merge bit-identically to the serial stacked run ("batch") and
        # to per-trial run_amp ("legacy", tests/reference.py).
        kwargs = dict(algorithm="amp", trials=5, seed=5)
        sharded = success_rate_curve(
            120, 3, repro.NoiselessChannel(), [60], workers=2, **kwargs
        )
        assert (sharded.success_rates, sharded.overlaps) == _serial_curve(
            engine, 120, 3, repro.NoiselessChannel(), [60], **kwargs
        )

    def test_distributed_sharded_matches_serial(self):
        kwargs = dict(algorithm="distributed", trials=4, seed=6)
        serial = success_rate_curve(40, 3, repro.ZChannel(0.1), [30], **kwargs)
        sharded = success_rate_curve(
            40, 3, repro.ZChannel(0.1), [30], workers=2, **kwargs
        )
        assert sharded.success_rates == serial.success_rates
        assert sharded.overlaps == serial.overlaps

    def test_kernel_rejected_for_non_amp_algorithms(self):
        # No kernel is selectable: the keyword is unknown to every
        # algorithm, and as an algorithm kwarg it reaches the
        # decoder's signature and fails there.
        for algorithm in ("greedy", "amp", "distributed_amp"):
            with pytest.raises(TypeError, match="kernel"):
                success_rate_curve(
                    40, 3, repro.ZChannel(0.1), [30],
                    trials=2, algorithm=algorithm, kernel="numpy",
                )
        with pytest.raises(TypeError, match="kernel"):
            success_rate_curve(
                40, 3, repro.ZChannel(0.1), [40], trials=2,
                algorithm="distributed_amp",
                algorithm_kwargs={"kernel": "numpy"},
            )

    def test_env_var_drives_sharding(self, monkeypatch):
        serial = success_rate_curve(
            150, 3, repro.ZChannel(0.1), [40, 80], trials=6, seed=8
        )
        monkeypatch.setenv(parallel.WORKERS_ENV, "2")
        sharded = success_rate_curve(
            150, 3, repro.ZChannel(0.1), [40, 80], trials=6, seed=8
        )
        assert sharded.success_rates == serial.success_rates
        assert sharded.overlaps == serial.overlaps


class TestPoolLifecycle:
    def test_atexit_hook_shuts_down_cached_pool(self):
        # An interpreter that used the cached pool and never called
        # shutdown_pool() must still run it at exit (the registered
        # atexit hook) and terminate cleanly. The instance-level
        # shutdown wrapper proves it is *our* hook doing the work, not
        # concurrent.futures' own exit handler.
        code = textwrap.dedent(
            """
            import repro
            from repro.experiments import parallel
            from repro.experiments.runner import required_queries_trials

            sample = required_queries_trials(
                100, 3, repro.NoiselessChannel(), trials=2, seed=0, workers=2
            )
            assert sample.values, sample
            pool = parallel._pool
            assert pool is not None  # cached across the sweep
            original = pool.shutdown

            def marked(*args, **kwargs):
                print("SHUTDOWN_POOL_RAN", flush=True)
                return original(*args, **kwargs)

            pool.shutdown = marked
            print("SWEEP_DONE", sample.values, flush=True)
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=180,
            env=_program_env(),
        )
        assert proc.returncode == 0, proc.stderr
        assert "SWEEP_DONE" in proc.stdout
        assert "SHUTDOWN_POOL_RAN" in proc.stdout, proc.stdout

    def test_broken_pool_mid_sweep_retried_on_fresh_pool(self, tmp_path):
        # A worker dying *mid-sweep* (not at pool creation) must not
        # fail the sweep: the engine reruns every unfinished chunk on
        # a fresh pool, and the merged outcome is bit-identical to the
        # serial run (trials are pure functions of their seeds).
        flag = tmp_path / "kill-once"
        flag.touch()
        sample = required_queries_trials(
            120,
            3,
            _KillOnceChannel(str(flag)),
            trials=5,
            seed=3,
            workers=2,
        )
        reference = required_queries_trials(
            120, 3, repro.NoiselessChannel(), trials=5, seed=3
        )
        assert not flag.exists()  # the first attempt did die
        assert sample.values == reference.values
        assert sample.failures == reference.failures

    def test_broken_pool_twice_fails_the_sweep(self):
        from concurrent.futures.process import BrokenProcessPool

        with pytest.raises(BrokenProcessPool):
            required_queries_trials(
                100, 3, _AlwaysKillChannel(), trials=4, seed=1, workers=2
            )
        # the broken executor must not poison later sweeps
        after = required_queries_trials(
            100, 3, repro.NoiselessChannel(), trials=3, seed=2, workers=2
        )
        assert after.trials == 3


class TestSchedulerInternals:
    def test_sharded_outcomes_trial_order(self):
        # Outcomes arrive in trial order regardless of chunk layout.
        from repro.experiments.scheduler import SweepExecutor, SweepPlan

        serial = required_queries_trials(
            150, 4, repro.NoiselessChannel(), trials=6, seed=2
        )
        plan = SweepPlan()
        plan.add_required_queries(
            150, 4, repro.NoiselessChannel(), trials=6, seed=2
        )
        executor = SweepExecutor(backend="process", workers=2)
        outcomes = executor.run_outcomes(plan)[0]
        assert [m for ok, m in outcomes if ok] == serial.values

    def test_pool_reuse_and_shutdown(self):
        pool_a = parallel._get_pool(2)
        assert parallel._get_pool(2) is pool_a
        pool_b = parallel._get_pool(3)
        assert pool_b is not pool_a
        parallel.shutdown_pool()
        assert parallel._pool is None
