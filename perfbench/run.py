"""Repository benchmark: the paper's Section V pipelines plus the decode service.

Run from the repository root::

    python3 perfbench/run.py --workload fig2_zchannel --seed 0 --seconds 35 --trace 0

Workloads (BENCHMARK.json records why each was chosen):

* ``fig2_zchannel`` -- ``figure2`` over the default n grid at p=0.1
  and 0.3, greedy, serial backend. Bound by query sampling and the
  greedy scan; no AMP, no dispatch.
* ``fig6_greedy_vs_amp`` -- ``figure6`` at n=1000, greedy and AMP,
  process backend with one worker per CPU. The only sweep whose
  chunks cross process dispatch.
* ``decode_service`` -- ``repro serve`` in a subprocess under an
  open-loop ingest/decode schedule (see ``service_load.py``). No
  query sampling.

A sweep run repeats pipeline calls on inputs derived from the seed
(call 0 uses the seed itself) until the window is spent. With
``--trace 0`` nothing is patched and the run prints the end-to-end
metrics, the same three on every workload:

* ``setup_s`` -- median of SETUP_REPEATS set-ups: a fresh interpreter
  importing the package, then the warm-up (a small pipeline call; for
  the process backend a newly spawned pool; for the service a server
  start, its sessions opened and a first decode);
* ``p50_ms`` -- median pipeline call, or median decode latency timed
  from each request's due time;
* ``peak_rss_mb`` -- peak RSS of the benchmark process, or of the
  server process.

With ``--trace 1`` it wraps the package's layer functions from the
outside (``layers.py``), runs the same inputs again, prints a
per-layer table and the per-layer metrics, and writes the spans to
``.perfbench/``.

Every run checks its outputs: the paper's qualitative shapes on every
seed, a digest of the outputs on the default seed, and for the service
bit-identity of sampled answers with a standalone ``run_amp``. The
last line of standard output is one JSON object; the exit code is 0
only when every check held.
"""

import argparse
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

DEFAULT_SEED = 0
#: set-ups timed per run; the median is reported as setup_s
SETUP_REPEATS = 5
#: what a fresh process imports before it can run any workload
PROGRAM_IMPORTS = ("repro", "repro.amp.batch_amp", "repro.experiments.figures",
                   "repro.service.server")

END_TO_END_UNITS = {
    "setup_s": "s",
    "p50_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.batch.sample_s": "s",
    "core.batch.edges_sampled": "count",
    "core.noise.measure_s": "s",
    "core.greedy.scan_s": "s",
    "amp.kernels.adjoint_posterior_s": "s",
    "amp.kernels.forward_residual_s": "s",
    "amp.kernels.phase_calls": "count",
    "amp.kernels.nnz_processed": "count",
    "amp.amp.iterations": "count",
    "amp.amp.self_s": "s",
    "amp.batch_amp.assembly_s": "s",
    "amp.batch_amp.decode_prefix_batch_s": "s",
    "experiments.scheduler.self_s": "s",
    "experiments.parallel.chunk_self_s": "s",
    "experiments.parallel.chunks": "count",
    "experiments.parallel.payload_bytes": "bytes",
    "experiments.parallel.chunk_roundtrip_s": "s",
    "experiments.parallel.efficiency": "ratio",
    "service.wire.frame_s": "s",
    "service.session.ingest_s": "s",
    "service.store.save_s": "s",
    "service.store.record_bytes": "bytes",
    "service.batcher.queue_wait_ms": "ms",
    "service.batcher.wave_size": "count",
    "service.client.ingest_p50_ms": "ms",
    "service.client.ingest_tail_ms": "ms",
    "service.client.decode_p50_ms": "ms",
    "service.client.decode_tail_ms": "ms",
    "service.client.goodput_rps": "1/s",
    "service.client.failed_frac": "ratio",
    "service.client.degraded_frac": "ratio",
    "bench.generator_lag_p99_ms": "ms",
    "bench.trace_overhead": "ratio",
    "unattributed_s": "s",
}


# -- environment ---------------------------------------------------------


def hermetic_env(root):
    """Run on the program's defaults, with scratch files in the checkout."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    tmp = root / ".perfbench" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    src = str(root / "src")
    path = os.environ.get("PYTHONPATH")
    os.environ["PYTHONPATH"] = src if not path else src + os.pathsep + path
    import tempfile

    tempfile.tempdir = str(tmp)


def import_program(root):
    """Import the package from ``src/``."""
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package at {src / 'repro'}; "
                         "run from the repository root")
    sys.path.insert(0, str(src))
    import importlib

    for name in PROGRAM_IMPORTS:
        importlib.import_module(name)


def fresh_import_s():
    """Time for a new interpreter to import the package."""
    import subprocess

    code = "import " + ", ".join(PROGRAM_IMPORTS)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], check=True)
    return time.perf_counter() - start


def source_digest(root):
    """Hash of the package sources: the checkout need not be a git repo."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:12]


def fingerprint(root):
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "source": source_digest(root),
    }


def child_pids():
    """Pids of this process's live children (zombies included)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # the command name may hold spaces; the fields after it do not
        if int(stat.rsplit(")", 1)[1].split()[1]) == os.getpid():
            pids.append(int(entry.name))
    return pids


def stop_children():
    """Stop every process the run started and wait for each to end.

    The process backend leaves a cached worker pool and the
    multiprocessing resource tracker behind (the tracker is meant to
    outlive its parent); both are shut down here, and any other child
    is terminated.
    """
    import signal

    parallel = sys.modules.get("repro.experiments.parallel")
    if parallel is not None:
        parallel.shutdown_pool()
    from multiprocessing import resource_tracker

    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None:
        stop_tracker()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = child_pids()
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + 10
        for pid in pids:
            while time.monotonic() < deadline:
                try:
                    done, _ = os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    break
                if done:
                    break
                time.sleep(0.05)
        if not child_pids():
            return


def sub_seed(seed, i):
    """Seed of the i-th pipeline call of a run (call 0 uses the seed)."""
    if i == 0:
        return seed
    import numpy as np

    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def digest_rows(rows):
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True, default=repr).encode()
    ).hexdigest()[:16]


def recorded_digest(workload):
    with open(HERE / "digests.json") as fh:
        return json.load(fh).get(workload)


# -- sweep workloads -----------------------------------------------------


class Fig2ZChannel:
    name = "fig2_zchannel"
    backend = "serial"
    #: p=0.5 is left out: at n=10^4 a trial now and then exhausts the
    #: default query budget (3 of ~140 trials in one set of runs), so
    #: "every trial resolves" would not hold on every seed
    ps = (0.1, 0.3)

    def __init__(self, tiny=False):
        from repro.experiments.figures import DEFAULT_N_VALUES

        self.n_values = (100, 300, 1000) if tiny else DEFAULT_N_VALUES
        self.trials = 3

    def warm(self):
        from repro.experiments.figures import figure2

        figure2(n_values=(100, 1000), ps=self.ps, trials=1, seed=1,
                backend="serial")

    def call(self, seed, backend=None):
        from repro.experiments.figures import figure2

        return figure2(n_values=self.n_values, ps=self.ps, trials=self.trials,
                       seed=seed, backend=backend or self.backend).rows

    @classmethod
    def shape_errors(cls, rows):
        """Fig. 2: every trial resolves; medians rise with p at the top n."""
        measured = [r for r in rows if not str(r["series"]).startswith("theory")]
        errors = [f"{r['series']} n={r['n']}: {r['failures']} failed trials"
                  for r in measured if r["failures"]]
        top = max(r["n"] for r in measured)
        medians = [r["required_m_median"] for p in cls.ps for r in measured
                   if r["n"] == top and r["series"] == f"p={p:g}"]
        if len(medians) != len(cls.ps) or medians != sorted(medians):
            errors.append(f"medians at n={top} not ordered by p: {medians}")
        return errors


class Fig6GreedyVsAmp:
    name = "fig6_greedy_vs_amp"
    backend = "process"

    def __init__(self, tiny=False):
        self.n = 300 if tiny else 1000
        self.trials = 4 if tiny else 6
        self.m_values = list(range(20, 301, 40)) if tiny else None
        self.workers = os.cpu_count() or 1

    def warm(self):
        from repro.experiments import parallel
        from repro.experiments.figures import figure6

        parallel.shutdown_pool()
        figure6(n=200, trials=2, m_values=[40, 80], seed=1,
                backend=self.backend, workers=self.workers)

    def call(self, seed, backend=None):
        from repro.experiments.figures import figure6

        return figure6(n=self.n, trials=self.trials, m_values=self.m_values,
                       seed=seed, backend=backend or self.backend,
                       workers=self.workers).rows

    @staticmethod
    def shape_errors(rows):
        """Fig. 6: AMP reaches 50% success at no larger m than greedy (p=0.1)."""

        def crossing(series):
            for r in rows:
                if r["series"] == series and r["success_rate"] >= 0.5:
                    return r["m"]
            return float("inf")

        amp, greedy = crossing("amp p=0.1"), crossing("greedy p=0.1")
        if amp == float("inf") or amp > greedy:
            return [f"AMP 50% crossing {amp} is above greedy's {greedy}"]
        return []


SWEEPS = {w.name: w for w in (Fig2ZChannel, Fig6GreedyVsAmp)}


def check_digest(workload, seed, digest, tiny):
    """On the default seed the outputs must hash to the recorded digest."""
    if seed != DEFAULT_SEED or tiny:
        return []
    expected = recorded_digest(workload)
    if expected is None:
        return [f"no digest recorded for {workload}"]
    if digest != expected:
        return [f"output digest {digest} != recorded {expected}"]
    return []


def timed_setups(warm):
    """Median of SETUP_REPEATS set-ups: a fresh import plus a warm-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        import_s = fresh_import_s()
        start = time.perf_counter()
        warm()
        times.append(import_s + time.perf_counter() - start)
    return statistics.median(times)


def run_sweep(workload, seed, seconds, tiny):
    setup_s = timed_setups(workload.warm)
    times, errors, digest = [], [], None
    start = time.perf_counter()
    i = 0
    while True:
        t = time.perf_counter()
        rows = workload.call(sub_seed(seed, i))
        times.append(time.perf_counter() - t)
        errors.extend(f"call {i}: {e}" for e in workload.shape_errors(rows))
        if i == 0:
            digest = digest_rows(rows)
        i += 1
        # Start another call only if it should end inside the window.
        if time.perf_counter() - start + statistics.median(times) > seconds:
            break
    errors.extend(check_digest(workload.name, seed, digest, tiny))
    metrics = {
        "setup_s": setup_s,
        "p50_ms": 1e3 * statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    info = {"calls": len(times), "digest": digest,
            "call_s": [round(t, 4) for t in times]}
    return metrics, len(times), 0, errors, info


class DispatchCounter:
    """The benchmark process's view of the process backend's pool submissions."""

    def __init__(self, parallel):
        self.chunks = 0
        self.payload_bytes = 0
        self.roundtrips = []
        self._parallel = parallel
        self._get_pool = parallel._get_pool

    def __enter__(self):
        counter = self

        class Pool:
            def __init__(self, pool):
                self._pool = pool

            def submit(self, fn, *args):
                start = time.perf_counter()
                counter.chunks += 1
                counter.payload_bytes += len(
                    pickle.dumps((fn, args), pickle.HIGHEST_PROTOCOL))
                future = self._pool.submit(fn, *args)
                future.add_done_callback(
                    lambda f: counter.roundtrips.append(time.perf_counter() - start))
                return future

            def __getattr__(self, attr):
                return getattr(self._pool, attr)

        self._parallel._get_pool = lambda workers: Pool(self._get_pool(workers))
        return self

    def __exit__(self, *exc_info):
        self._parallel._get_pool = self._get_pool


def trace_sweep(workload, seed, seconds):
    """Per-layer metrics of a sweep, from pairs of untraced/traced calls.

    Process workers cannot see the wrappers, so the traced calls run
    on the serial backend; the scheduler guarantees the same outputs.
    Each pair runs one input untraced, then traced: the traced outputs
    must match, and the ratio of the two times is the tracing overhead.
    """
    import layers
    from spans import Tracer

    from repro.experiments import parallel

    workload.warm()
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    errors = []
    if workload.backend == "process":
        with DispatchCounter(parallel) as dispatch:
            t = time.perf_counter()
            process_rows = workload.call(seed)
            process_s = time.perf_counter() - t
        metrics["experiments.parallel.chunks"] = dispatch.chunks
        metrics["experiments.parallel.payload_bytes"] = dispatch.payload_bytes
        metrics["experiments.parallel.chunk_roundtrip_s"] = (
            statistics.median(dispatch.roundtrips))

    tracer = Tracer()
    plain, traced = [], []
    start = time.perf_counter()
    i = 0
    while True:
        t = time.perf_counter()
        rows = workload.call(sub_seed(seed, i), backend="serial")
        plain.append(time.perf_counter() - t)
        if i == 0 and workload.backend == "process":
            if digest_rows(rows) != digest_rows(process_rows):
                errors.append("serial and process backends disagree")
        layers.install(tracer)
        try:
            with tracer.span(layers.PIPELINE):
                t = time.perf_counter()
                traced_rows = workload.call(sub_seed(seed, i), backend="serial")
                traced.append(time.perf_counter() - t)
        finally:
            tracer.restore()
        if digest_rows(traced_rows) != digest_rows(rows):
            errors.append(f"call {i}: traced outputs differ from untraced ones")
        errors.extend(f"call {i}: {e}" for e in workload.shape_errors(traced_rows))
        i += 1
        pair_s = statistics.median(p + q for p, q in zip(plain, traced))
        if time.perf_counter() - start + pair_s > seconds:
            break
    layer, table = layers.layer_metrics(tracer, len(traced), sum(traced))
    metrics.update(layer)
    metrics["bench.trace_overhead"] = statistics.median(
        q / p for p, q in zip(plain, traced)) - 1.0
    if workload.backend == "process":
        metrics["experiments.parallel.efficiency"] = (
            statistics.median(plain) / (workload.workers * process_s))
    return metrics, len(traced), 0, errors, table, tracer


# -- service workload ----------------------------------------------------


def server_peak_rss_mb(pid):
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc status")


def run_service(root, seed, seconds, tiny):
    import service_load as sl

    from repro.service import ServiceClient
    from repro.service.testing import start_server

    inputs, schedule = sl.make_inputs(seed, seconds)
    state = root / ".perfbench" / "service-state"
    setups = []
    server = None
    try:
        for i in range(SETUP_REPEATS):
            shutil.rmtree(state, ignore_errors=True)
            start = time.perf_counter()
            server = start_server(state)
            with ServiceClient(server.host, server.port) as client:
                sl.warm_up(client, inputs)
            setups.append(time.perf_counter() - start)
            if i < SETUP_REPEATS - 1:
                server.stop()
                server = None
        with ServiceClient(server.host, server.port) as admin:
            before = admin.stats()
            start = time.perf_counter()
            records = sl.run_schedule(server.host, server.port, inputs, schedule)
            window = time.perf_counter() - start
            after = admin.stats()
            errors = sl.verify_against_run_amp(admin, inputs)
            scores = sl.probe_scores(admin, inputs)
        rss = server_peak_rss_mb(server.proc.pid)
    finally:
        if server is not None:
            server.stop()
    summary = sl.summarize(records, before, after, window)
    digest = sl.digest(records, scores)
    errors.extend(check_digest("decode_service", seed, digest, tiny))
    metrics = {
        "setup_s": statistics.median(setups),
        "p50_ms": summary["decode_p50_ms"],
        "peak_rss_mb": rss,
    }
    info = dict(summary, digest=digest, window_s=round(window, 3))
    return metrics, summary["attempted"], summary["failed"], errors, info


def trace_service(root, seed, seconds):
    import layers
    import service_load as sl
    from spans import Tracer

    from repro.service import ServiceClient

    inputs, schedule = sl.make_inputs(seed, seconds / 2)

    def serve_once(tracer):
        state = root / ".perfbench" / "service-state"
        shutil.rmtree(state, ignore_errors=True)
        port, stop = sl.host_in_process(state)
        try:
            with ServiceClient("127.0.0.1", port) as admin:
                sl.warm_up(admin, inputs)
                before = admin.stats()
                start = time.perf_counter()
                if tracer is None:
                    records = sl.run_schedule("127.0.0.1", port, inputs, schedule)
                else:
                    with tracer.span(layers.PIPELINE):
                        records = sl.run_schedule("127.0.0.1", port, inputs,
                                                  schedule)
                window = time.perf_counter() - start
                after = admin.stats()
                errors = sl.verify_against_run_amp(admin, inputs)
                digest = sl.digest(records, sl.probe_scores(admin, inputs))
        finally:
            stop()
        summary = sl.summarize(records, before, after, window)
        return records, summary, window, errors, digest

    ref_records, _, _, errors, ref_digest = serve_once(None)
    tracer = Tracer()
    layers.install(tracer)
    try:
        records, summary, window, more, digest = serve_once(tracer)
    finally:
        tracer.restore()
    errors.extend(more)
    if digest != ref_digest:
        errors.append("traced decode answers differ from untraced ones")
    metrics = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    layer, table = layers.layer_metrics(tracer, 1, window)
    metrics.update(layer)
    for key in ("ingest_p50_ms", "ingest_tail_ms", "decode_p50_ms",
                "decode_tail_ms", "goodput_rps", "failed_frac", "degraded_frac"):
        metrics[f"service.client.{key}"] = summary[key]
    metrics["bench.generator_lag_p99_ms"] = summary["generator_lag_p99_ms"]
    mean = statistics.mean
    metrics["bench.trace_overhead"] = (
        mean(r["latency"] for r in records)
        / mean(r["latency"] for r in ref_records) - 1.0)
    return metrics, summary["attempted"], summary["failed"], errors, table, tracer


# -- entry point ---------------------------------------------------------


WORKLOADS = tuple(SWEEPS) + ("decode_service",)


def run(workload, seed, seconds, trace, root, tiny=False):
    """One benchmark run; returns ``(result, report_lines)``."""
    hermetic_env(root)
    import_program(root)
    report = [f"# fingerprint {json.dumps(fingerprint(root), sort_keys=True)}"]
    if not trace:
        if workload == "decode_service":
            metrics, attempted, failed, errors, info = run_service(
                root, seed, seconds, tiny)
        else:
            metrics, attempted, failed, errors, info = run_sweep(
                SWEEPS[workload](tiny), seed, seconds, tiny)
        units = END_TO_END_UNITS
        report.append(f"# {workload} details {json.dumps(info, default=str)}")
    else:
        if workload == "decode_service":
            metrics, attempted, failed, errors, table, tracer = trace_service(
                root, seed, seconds)
        else:
            metrics, attempted, failed, errors, table, tracer = trace_sweep(
                SWEEPS[workload](tiny), seed, seconds)
        units = PER_LAYER_UNITS
        path = root / ".perfbench" / f"trace-{workload}-{seed}.jsonl"
        tracer.write_jsonl(path)
        report.append(f"# spans written to {path.relative_to(root)}")
        report.append(f"# {'layer':<14}{'calls':>10}{'self_s':>12}{'share':>8}")
        for layer, row in sorted(table.items()):
            report.append(f"# {layer:<14}{row['calls']:>10}"
                          f"{row['self_s']:>12.4f}{row['share']:>8.1%}")
    for name, unit in units.items():
        report.append(f"# {name} = {metrics[name]:.6g} {unit}")
    for error in errors:
        report.append(f"# CHECK FAILED: {error}")
    result = {
        "correct": not errors,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    return result, report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    try:
        result, report = run(args.workload, args.seed, args.seconds,
                             bool(args.trace), root)
    finally:
        stop_children()
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
