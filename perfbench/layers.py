"""Which program functions the traced run wraps, and what it counts.

Every wrapped name is a layer boundary of the package: ``core`` (query
sampling, channel noise, the greedy scan), ``amp`` (the kernel phases,
the iteration loop, the batched assembly), ``experiments`` (the
sweep scheduler and its chunks) and ``service`` (wire, session, store,
batcher). :func:`layer_metrics` folds the spans into the per-layer
metrics that BENCHMARK.json lists.
"""

import os
import statistics
import time

import numpy as np

#: metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "core.batch.sample_s": ("core.batch.next_block",
                            "core.batch.sample_pooling_graph_batch"),
    "core.noise.measure_s": ("core.noise.measure",),
    "core.greedy.scan_s": ("core.greedy.required_queries",
                           "core.greedy.run_trials_seeded"),
    "amp.kernels.adjoint_posterior_s": ("amp.kernels.adjoint_posterior",),
    "amp.kernels.forward_residual_s": ("amp.kernels.forward_residual",),
    "amp.amp.self_s": ("amp.amp.iterate_amp",),
    "amp.batch_amp.assembly_s": ("amp.batch_amp.run_amp_batch",
                                 "amp.batch_amp.run_amp_trials",
                                 "amp.batch_amp.decode_prefix_batch"),
    "experiments.scheduler.self_s": ("experiments.scheduler.run",),
    "experiments.parallel.chunk_self_s": ("experiments.parallel.chunk",),
    "service.wire.frame_s": ("service.wire.write_frame",),
    "service.session.ingest_s": ("service.session.ingest",),
    "service.store.save_s": ("service.store.save",),
}

#: the benchmark's own root span around each timed pipeline call
PIPELINE = "pipeline"


def _layer(span_name):
    return span_name.split(".", 1)[0]


def install(tracer):
    """Wrap every layer boundary; undone by ``tracer.restore()``."""
    from repro.amp import amp as amp_mod
    from repro.amp import batch_amp
    from repro.amp.kernels import AMPKernel
    from repro.core import batch, measurement
    from repro.core.noise import GaussianQueryNoise, NoiselessChannel, NoisyChannel
    from repro.experiments import scheduler
    from repro.service import wire
    from repro.service.batcher import DecodeBatcher
    from repro.service.session import Session
    from repro.service.store import SessionStore

    def edges_of_block(tr, args, kwargs, result):
        if result is not None:
            tr.count("core.batch.edges_sampled", (len(result[1]) - 1) * args[0].gamma)

    def edges_of_graph(tr, args, kwargs, result):
        tr.count("core.batch.edges_sampled", result.m * result.gamma)

    def kernel_phase(tr, args, kwargs, result):
        op = args[1]
        tr.count("amp.kernels.phase_calls")
        tr.count("amp.kernels.nnz_processed", op.a.nnz if hasattr(op, "a") else 0)

    def iterations(tr, args, kwargs, result):
        tr.count("amp.amp.iterations", int(np.sum(result[1])))

    def record_bytes(tr, args, kwargs, result):
        store, session = args[0], args[1]
        tr.count("service.store.record_bytes",
                 os.path.getsize(store._path(session.session_id)))

    tracer.wrap_method(batch.MeasurementStream, "next_block",
                       "core.batch.next_block", edges_of_block)
    tracer.wrap_function(batch, "sample_pooling_graph_batch",
                         "core.batch.sample_pooling_graph_batch", edges_of_graph)
    for cls in (NoisyChannel, NoiselessChannel, GaussianQueryNoise):
        tracer.wrap_method(cls, "measure", "core.noise.measure")
    tracer.wrap_function(measurement, "measure", "core.noise.measure")
    tracer.wrap_method(batch.BatchTrialRunner, "required_queries",
                       "core.greedy.required_queries")
    tracer.wrap_method(batch.BatchTrialRunner, "run_trials_seeded",
                       "core.greedy.run_trials_seeded")

    tracer.wrap_method(AMPKernel, "adjoint_posterior",
                       "amp.kernels.adjoint_posterior", kernel_phase)
    tracer.wrap_method(AMPKernel, "forward_residual",
                       "amp.kernels.forward_residual", kernel_phase)
    tracer.wrap_function(amp_mod, "iterate_amp", "amp.amp.iterate_amp", iterations)
    for name in ("run_amp_batch", "run_amp_trials", "decode_prefix_batch"):
        tracer.wrap_function(batch_amp, name, f"amp.batch_amp.{name}")

    tracer.wrap_method(scheduler.SweepExecutor, "run", "experiments.scheduler.run")
    tracer.wrap_function(scheduler, "_run_chunk", "experiments.parallel.chunk")

    tracer.wrap_function(wire, "write_frame", "service.wire.write_frame")
    tracer.wrap_method(Session, "ingest", "service.session.ingest")
    tracer.wrap_method(SessionStore, "save", "service.store.save", record_bytes)

    # Queue wait: from admission to the start of the wave that takes
    # the request. Requests are keyed by (session, m); the load sends
    # one request at a time, so a key leaves its wave before the same
    # session is polled again at the same m.
    admitted = {}
    waits = tracer.queue_waits = []
    submit = DecodeBatcher.submit
    decode_wave = DecodeBatcher._decode_wave

    async def timed_submit(self, session, m, **kwargs):
        admitted[(session.session_id, m)] = time.perf_counter()
        return await submit(self, session, m, **kwargs)

    async def timed_wave(self, loop, wave):
        now = time.perf_counter()
        for request in wave:
            start = admitted.pop((request.session.session_id, request.m), None)
            if start is not None:
                waits.append(now - start)
        tracer.count("service.batcher.waves")
        tracer.count("service.batcher.wave_requests", len(wave))
        return await decode_wave(self, loop, wave)

    tracer.patch(DecodeBatcher, "submit", timed_submit)
    tracer.patch(DecodeBatcher, "_decode_wave", timed_wave)


def layer_metrics(tracer, runs, wall_s):
    """Per-layer metrics averaged over ``runs`` traced pipeline calls.

    ``wall_s`` is the total wall time those calls took. Returns
    ``(metrics, table)``: the metric values and, per layer, its calls,
    self time and share of wall time.
    """
    totals, calls = tracer.self_times()
    metrics = {}
    for metric, names in SELF_TIME_METRICS.items():
        metrics[metric] = sum(totals.get(n, 0.0) for n in names) / runs
    counts = tracer.counts
    for key in ("core.batch.edges_sampled", "amp.kernels.phase_calls",
                "amp.kernels.nnz_processed", "amp.amp.iterations",
                "service.store.record_bytes"):
        metrics[key] = counts.get(key, 0.0) / runs
    metrics["amp.batch_amp.decode_prefix_batch_s"] = (
        sum(tracer.durations("amp.batch_amp.decode_prefix_batch")) / runs
    )
    waits = getattr(tracer, "queue_waits", [])
    metrics["service.batcher.queue_wait_ms"] = (
        1e3 * statistics.median(waits) if waits else 0.0
    )
    waves = counts.get("service.batcher.waves", 0.0)
    metrics["service.batcher.wave_size"] = (
        counts.get("service.batcher.wave_requests", 0.0) / waves if waves else 0.0
    )
    # Time inside the timed calls that no wrapped layer function covers
    # (for the service this includes idle time between arrivals).
    attributed = sum(t for n, t in totals.items() if n != PIPELINE)
    unattributed = max(0.0, wall_s - attributed)
    metrics["unattributed_s"] = unattributed / runs

    table = {}
    for name, self_s in totals.items():
        if name == PIPELINE:
            continue
        row = table.setdefault(_layer(name), {"calls": 0, "self_s": 0.0})
        row["self_s"] += self_s
        row["calls"] += calls[name]
    table["unattributed"] = {"calls": 0, "self_s": unattributed}
    for row in table.values():
        row["share"] = row["self_s"] / wall_s if wall_s else 0.0
    return metrics, table
