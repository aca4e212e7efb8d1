"""Micro-benchmarks of the library's hot paths.

Two entry modes:

* **pytest-benchmark** (``pytest benchmarks/bench_perf_core.py``):
  classical throughput benchmarks (many rounds, statistics in the
  benchmark table): pooling-graph sampling, measurement, decoding,
  the incremental step, AMP, and sorting-network generation. The
  ``*_batch`` entries benchmark the vectorized engine of
  :mod:`repro.core.batch` against their legacy per-query counterparts.

* **perf-trajectory script** (``python benchmarks/bench_perf_core.py``):
  runs the end-to-end performance suite — sparse large-``n`` CSR
  construction (uint32 vs int64 sort), a fig2-style required-queries
  sweep (legacy engine vs
  batch, serial vs sharded across ``--workers`` processes), a
  full-scale sparse AMP run with the dense path poisoned, batched
  (block-diagonal) AMP sweep cells against the pre-batching per-trial
  loop, a full-scale stacked-AMP poison case, the AMP required-m
  scan (prefix replay + galloping/stacked bisection) against the
  naive per-m probe loop, the sweep engine's flattened cross-cell
  queue against per-cell-barrier execution (with the per-worker
  spec-interning dispatch payloads), and the shared-memory arena
  dispatch payload against the pipe-pickled protocols — and appends
  one machine-readable entry (per-case wall time, speedup vs baseline,
  workers used, host info) to ``BENCH_perf_core.json`` at the repo
  root, so regressions across PRs stay visible. ``--smoke`` shrinks
  every case for CI time budgets and ``--case NAME`` restricts the run
  to named cases.
"""

import numpy as np

import repro
from repro.amp import run_amp
from repro.core.batch import BatchTrialRunner, sample_pooling_graph_batch
from repro.core.incremental import IncrementalDecoder, required_queries
from repro.distributed.sorting import odd_even_mergesort


N, K, M = 10_000, 10, 500


def _instance(seed=0, n=N, k=K, m=M, channel=None):
    gen = np.random.default_rng(seed)
    truth = repro.sample_ground_truth(n, k, gen)
    graph = repro.sample_pooling_graph(n, m, rng=gen)
    meas = repro.measure(graph, truth, channel or repro.ZChannel(0.1), gen)
    return truth, graph, meas


def test_perf_sample_pooling_graph(benchmark):
    gen = np.random.default_rng(1)
    benchmark(lambda: repro.sample_pooling_graph(N, 100, rng=gen))


def test_perf_sample_pooling_graph_batch(benchmark):
    gen = np.random.default_rng(1)
    benchmark(lambda: sample_pooling_graph_batch(N, 100, rng=gen))


# Sparse-query regime (gamma << n, the regular-design ablations): here
# the legacy per-query loop is overhead-bound and batching shines
# (>10x); in the dense gamma = n/2 regime the speedup is ~2x because
# the element-wise sort dominates either way.


def test_perf_sample_pooling_graph_sparse(benchmark):
    gen = np.random.default_rng(1)
    benchmark(lambda: repro.sample_pooling_graph(N, 2000, 128, rng=gen))


def test_perf_sample_pooling_graph_sparse_batch(benchmark):
    gen = np.random.default_rng(1)
    benchmark(lambda: sample_pooling_graph_batch(N, 2000, 128, rng=gen))


def test_perf_measure_z_channel(benchmark):
    truth, graph, _ = _instance()
    gen = np.random.default_rng(2)
    channel = repro.ZChannel(0.1)
    benchmark(lambda: repro.measure(graph, truth, channel, gen))


def test_perf_greedy_decode(benchmark):
    _, _, meas = _instance()
    benchmark(lambda: repro.greedy_reconstruct(meas))


def test_perf_neighborhood_sums(benchmark):
    _, graph, meas = _instance()
    results = np.asarray(meas.results, dtype=float)
    benchmark(lambda: graph.neighborhood_sums(results))


def test_perf_incremental_step(benchmark):
    gen = np.random.default_rng(3)
    truth = repro.sample_ground_truth(N, K, gen)
    decoder = IncrementalDecoder(truth, repro.ZChannel(0.1))

    def step():
        decoder.add_query(gen)
        return decoder.is_successful()

    benchmark(step)


def test_perf_required_queries_legacy(benchmark):
    gen = np.random.default_rng(4)
    benchmark(lambda: required_queries(2_000, 6, repro.ZChannel(0.1), gen))


def test_perf_required_queries_chunked(benchmark):
    gen = np.random.default_rng(4)
    runner = BatchTrialRunner(2_000, 6, repro.ZChannel(0.1))
    benchmark(lambda: runner.required_queries(gen))


def test_perf_batch_trial_runner(benchmark):
    runner = BatchTrialRunner(N, K, repro.ZChannel(0.1))
    benchmark(lambda: runner.run_trials(M, trials=4, seed=0))


def test_perf_amp_full_run(benchmark):
    _, _, meas = _instance(n=1000, k=6, m=300)
    benchmark(lambda: run_amp(meas))


# Batched AMP (block-diagonal trial stacking) vs the per-trial loop on
# the same seeds — the bit-identity of the two paths is pinned in
# tests/test_amp_batch.py; these entries track the speed ratio.


def test_perf_amp_trials_per_trial_loop(benchmark):
    from repro.amp import AMPConfig
    from repro.utils.rng import spawn_rngs

    config = AMPConfig(track_history=False)
    channel = repro.ZChannel(0.1)

    def loop():
        out = []
        for gen in spawn_rngs(0, 16):
            truth = repro.sample_ground_truth(1000, 6, gen)
            graph = repro.sample_pooling_graph_batch(1000, 120, rng=gen)
            meas = repro.measure(graph, truth, channel, gen)
            out.append(run_amp(meas, config=config))
        return out

    benchmark(loop)


def test_perf_amp_trials_batched(benchmark):
    from repro.amp.batch_amp import run_amp_trials
    from repro.utils.rng import spawn_seeds

    channel = repro.ZChannel(0.1)
    benchmark(
        lambda: run_amp_trials(
            1000, 6, channel, 120, spawn_seeds(0, 16)
        )
    )


def test_perf_batcher_schedule_generation(benchmark):
    benchmark(lambda: odd_even_mergesort(1024))


# Sweep engine: flattened cross-cell queue vs per-cell-barrier
# execution on the serial backend (pytest-benchmark twins of the
# script-mode `sweep_pipeline` case; the process-backend comparison
# with its pool lifetime lives in script mode only).


def _tiny_sweep_cells():
    channel = repro.ZChannel(0.1)
    return [(n, repro.sublinear_k(n, 0.25), channel) for n in (256, 512)]


def test_perf_sweep_flattened_queue(benchmark):
    from repro.experiments.scheduler import SweepPlan

    def flattened():
        plan = SweepPlan()
        for n, k, channel in _tiny_sweep_cells():
            plan.add_required_queries(
                n, k, channel, trials=3, seed=2022, check_every=4
            )
        return plan.run(backend="serial")

    benchmark.pedantic(flattened, rounds=3, iterations=1)


def test_perf_sweep_per_cell_barrier(benchmark):
    from repro.experiments.scheduler import SweepPlan

    def barrier():
        out = []
        for n, k, channel in _tiny_sweep_cells():
            plan = SweepPlan()
            plan.add_required_queries(
                n, k, channel, trials=3, seed=2022, check_every=4
            )
            out.extend(plan.run(backend="serial"))
        return out

    benchmark.pedantic(barrier, rounds=3, iterations=1)


# AMP required-m scan (prefix replay + galloping/stacked bisection) vs
# probing each grid point with a fresh standalone run — small-scale
# pytest-benchmark twins of the script-mode `amp_required_m` case.


def test_perf_required_queries_amp_scan(benchmark):
    from repro.amp.batch_amp import required_queries_amp
    from repro.utils.rng import spawn_seeds

    channel = repro.ZChannel(0.1)
    benchmark(
        lambda: required_queries_amp(
            512, 4, channel, spawn_seeds(0, 8), gamma=64,
            check_every=8, max_m=512,
        )
    )


def test_perf_required_queries_amp_linear(benchmark):
    from repro.amp.batch_amp import required_queries_amp_linear
    from repro.utils.rng import spawn_seeds

    channel = repro.ZChannel(0.1)
    benchmark(
        lambda: required_queries_amp_linear(
            512, 4, channel, spawn_seeds(0, 8), gamma=64,
            check_every=8, max_m=512,
        )
    )


# Dense-regime CSR construction beyond the uint16 radix fast path: the
# uint32 row-chunked construction against the int64 sort it replaced.


def test_perf_csr_dense(benchmark):
    from repro.core.batch import _csr_from_draws

    draws = np.random.default_rng(6).integers(0, 100_000, size=(64, 50_000))
    benchmark(lambda: _csr_from_draws(draws, 100_000))


def test_perf_csr_dense_sort(benchmark):
    draws = np.random.default_rng(6).integers(0, 100_000, size=(64, 50_000))
    benchmark(lambda: _legacy_sort_csr(draws, 50_000))


# ---------------------------------------------------------------------
# Perf-trajectory script mode: python benchmarks/bench_perf_core.py
# ---------------------------------------------------------------------

BENCH_JSON_SCHEMA = 1


def _timed(fn, repeats=1):
    """Best-of-``repeats`` wall time of ``fn()`` (returns seconds, result)."""
    import time

    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def _legacy_sort_csr(draws, gamma):
    """The pre-narrowing construction at n > 2**16: int64 comparison sort."""
    flat = np.sort(draws, axis=1).ravel()
    starts = np.empty(flat.size, dtype=bool)
    starts[0] = True
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::gamma] = True
    idx = np.flatnonzero(starts)
    return flat[idx].astype(np.int64), np.diff(idx, append=flat.size)


def _case_csr_sparse_u32(smoke):
    """uint32-narrowed sort vs old int64 sort in the sparse n > 2**16 regime."""
    from repro.core.batch import _csr_from_draws

    n = 70_000 if smoke else 100_000
    m = 500 if smoke else 2000
    gamma = 1000
    draws = np.random.default_rng(7).integers(0, n, size=(m, gamma))
    repeats = 2 if smoke else 3
    baseline_s, (sort_agents, sort_counts) = _timed(
        lambda: _legacy_sort_csr(draws, gamma), repeats
    )
    wall_s, (_, agents, counts) = _timed(
        lambda: _csr_from_draws(draws, n), repeats
    )
    assert np.array_equal(agents, sort_agents)
    assert np.array_equal(counts, sort_counts)
    return {
        "case": "csr_sparse_uint32_sort",
        "n": n,
        "m": m,
        "gamma": gamma,
        "wall_s": round(wall_s, 4),
        "baseline": "int64 comparison-sort CSR (pre-PR construction)",
        "baseline_s": round(baseline_s, 4),
        "speedup": round(baseline_s / wall_s, 3) if wall_s else None,
    }


def _case_fig2_sweep(smoke, workers):
    """Fig2-style required-queries sweep: legacy vs batch vs sharded."""
    from repro.experiments import shutdown_pool
    from repro.experiments.runner import required_queries_trials

    n_values = (400, 1000) if smoke else (1000, 3000, 10_000)
    trials = 3 if smoke else 10
    channel = repro.ZChannel(0.1)

    def sweep(engine, w):
        out = []
        for n in n_values:
            k = repro.sublinear_k(n, 0.25)
            out.append(
                required_queries_trials(
                    n, k, channel, trials=trials, seed=2022,
                    engine=engine, workers=w,
                ).values
            )
        return out

    legacy_s, legacy_vals = _timed(lambda: sweep("legacy", 1))
    serial_s, serial_vals = _timed(lambda: sweep("batch", 1))
    # Warm the pool outside the timed region: interpreter start-up is a
    # one-time cost per session, not a per-sweep cost.
    required_queries_trials(
        100, 3, channel, trials=workers, seed=0, workers=workers
    )
    sharded_s, sharded_vals = _timed(lambda: sweep("batch", workers))
    shutdown_pool()
    assert sharded_vals == serial_vals  # bit-identical sharding
    return {
        "case": "fig2_sweep",
        "n_values": list(n_values),
        "trials": trials,
        "workers": workers,
        "wall_s": round(sharded_s, 4),
        "serial_batch_s": round(serial_s, 4),
        "baseline": "legacy engine, serial",
        "baseline_s": round(legacy_s, 4),
        "speedup": round(legacy_s / sharded_s, 3) if sharded_s else None,
        "speedup_vs_serial_batch": (
            round(serial_s / sharded_s, 3) if sharded_s else None
        ),
    }


def _case_amp_sparse(smoke):
    """Full-scale sparse AMP with the dense path poisoned."""
    from repro.amp import AMPConfig

    n = 20_000 if smoke else 100_000
    m = 100 if smoke else 300
    gen = np.random.default_rng(8)
    truth = repro.sample_ground_truth(n, repro.sublinear_k(n, 0.25), gen)
    graph = repro.sample_pooling_graph_batch(n, m, rng=gen)
    meas = repro.measure(graph, truth, repro.ZChannel(0.1), gen)

    def poisoned(self, dtype=np.float64):
        raise AssertionError("dense adjacency materialized on the AMP hot path")

    original = repro.PoolingGraph.adjacency_dense
    repro.PoolingGraph.adjacency_dense = poisoned
    try:
        wall_s, result = _timed(
            lambda: run_amp(meas, config=AMPConfig(max_iter=5))
        )
    finally:
        repro.PoolingGraph.adjacency_dense = original
    return {
        "case": "amp_sparse_full_scale",
        "n": n,
        "m": m,
        "iterations": result.meta["iterations"],
        "dense_materialized": False,
        "wall_s": round(wall_s, 4),
    }


def _pre_batch_amp_sweep(
    n, k, channel, m, seed, trials, gamma=None, max_iter=50, tol=1e-7
):
    """The pre-batching AMP sweep path, reproduced faithfully.

    One trial per spawned child seed through the legacy per-query
    sampler, then the pre-PR ``run_amp``: fresh CSR build plus a
    ``.T.tocsr()`` transpose conversion per trial and the scalar
    (``np.linalg.norm``-based) iteration loop. This is what
    ``success_rate_curve(algorithm="amp")`` executed per trial before
    the block-diagonal batched runner existed.
    """
    from repro.amp.amp import (
        channel_corrected_results,
        default_denoiser,
        standardization_constants,
    )
    from repro.amp.denoisers import TAU_FLOOR
    from repro.core.scores import top_k_estimate
    from repro.utils.rng import spawn_rngs

    out = []
    for gen in spawn_rngs(seed, trials):
        truth = repro.sample_ground_truth(n, k, gen)
        graph = repro.sample_pooling_graph(n, m, gamma, gen)
        meas = repro.measure(graph, truth, channel, gen)
        denoiser = default_denoiser(n, k)
        y_raw = channel_corrected_results(meas.results, graph.gamma, channel)
        c, scale = standardization_constants(n, m, graph.gamma)
        y = (y_raw - c * k) / scale
        adjacency = graph.adjacency_sparse()
        adjacency_t = adjacency.T.tocsr()
        sigma = np.zeros(n)
        z = y.copy()
        for _ in range(max_iter):
            tau = max(float(np.linalg.norm(z) / np.sqrt(m)), TAU_FLOOR)
            r = (adjacency_t @ z - c * z.sum()) / scale + sigma
            sigma_new = denoiser(r, tau)
            onsager = (n / m) * float(np.mean(denoiser.derivative(r, tau)))
            z = y - (adjacency @ sigma_new - c * sigma_new.sum()) / scale + onsager * z
            step = float(np.linalg.norm(sigma_new - sigma) / np.sqrt(n))
            sigma = sigma_new
            if step < tol:
                break
        out.append(top_k_estimate(sigma, k))
    return out


def _case_amp_batch_sweep(smoke):
    """Batched AMP sweep cells vs the pre-batching per-trial loop.

    Two sub-measurements of one `success_rate_curve(algorithm="amp")`
    cell at n=4096, trials=32 (the acceptance scale): the paper's dense
    Gamma = n/2 design (above STACK_NNZ_CUTOFF, so the engine runs
    per-trial run_amp on batch-sampled graphs) and a sparse Gamma = 64
    ablation design (stacked block-diagonally). Decodes are asserted
    identical to the pre-PR loop before timing.
    """
    from repro.amp import AMPConfig
    from repro.amp.batch_amp import run_amp_trials
    from repro.utils.rng import spawn_seeds

    n = 1024 if smoke else 4096
    trials = 8 if smoke else 32
    channel = repro.ZChannel(0.1)
    k = repro.sublinear_k(n, 0.25)
    config = AMPConfig(track_history=False)
    repeats = 1 if smoke else 3
    sub = []
    for label, m, gamma in (
        ("dense_gamma_half", 150 if smoke else 400, None),
        ("sparse_gamma_64", 200 if smoke else 600, 64),
    ):
        def batched():
            return run_amp_trials(
                n, k, channel, m, spawn_seeds(2022, trials),
                gamma=gamma, config=config,
            )

        def pre_pr():
            return _pre_batch_amp_sweep(n, k, channel, m, 2022, trials, gamma)

        baseline_s, estimates = _timed(pre_pr, repeats)
        wall_s, results = _timed(batched, repeats)
        assert all(
            np.array_equal(est, r.estimate)
            for est, r in zip(estimates, results)
        )
        sub.append(
            {
                "design": label,
                "m": m,
                "gamma": gamma,
                "wall_s": round(wall_s, 4),
                "baseline_s": round(baseline_s, 4),
                "speedup": round(baseline_s / wall_s, 3) if wall_s else None,
            }
        )
    return {
        "case": "amp_batch_sweep_cell",
        "n": n,
        "trials": trials,
        "baseline": "pre-batching AMP sweep (legacy per-query sampler + "
        "per-trial run_amp with per-trial transpose)",
        "designs": sub,
    }


def _case_amp_batch_sparse_poison(smoke):
    """Full-scale stacked AMP with the dense path poisoned.

    Forces the block-diagonal stack at the paper's n = 10^5 (the
    harness's nnz cutoff would normally run this cell per trial) and
    asserts no dense m x n matrix materializes anywhere in it.
    """
    from repro.amp import AMPConfig
    from repro.amp.batch_amp import run_amp_batch
    from repro.utils.rng import spawn_rngs

    n = 20_000 if smoke else 100_000
    m = 100 if smoke else 300
    trials = 2 if smoke else 4
    k = repro.sublinear_k(n, 0.25)
    channel = repro.ZChannel(0.1)
    batch = []
    for gen in spawn_rngs(8, trials):
        truth = repro.sample_ground_truth(n, k, gen)
        graph = repro.sample_pooling_graph_batch(n, m, rng=gen)
        batch.append(repro.measure(graph, truth, channel, gen))

    def poisoned(self, dtype=np.float64):
        raise AssertionError("dense adjacency materialized in batched AMP")

    original = repro.PoolingGraph.adjacency_dense
    repro.PoolingGraph.adjacency_dense = poisoned
    try:
        wall_s, results = _timed(
            lambda: run_amp_batch(batch, config=AMPConfig(max_iter=5))
        )
    finally:
        repro.PoolingGraph.adjacency_dense = original
    return {
        "case": "amp_batch_sparse_full_scale",
        "n": n,
        "m": m,
        "trials": trials,
        "iterations": [r.meta["iterations"] for r in results],
        "dense_materialized": False,
        "wall_s": round(wall_s, 4),
    }


def _case_amp_required_m(smoke):
    """AMP required-m scan vs the naive per-m probe loop.

    The naive loop is what the harness offered before the scan existed:
    for every trial, walk the check grid upward and at each grid point
    draw a **fresh** instance (ground truth, pooling graph, channel
    noise — the per-trial path of a ``success_rate_curve`` probe) and
    run standalone AMP until the trial's first exact decode. The scan
    samples each trial's stream once, replays prefixes, and runs
    galloping bracket + stacked bisection; its certificate dial is
    timed in two modes: ``verify="full"`` (brute-force-identical by
    construction — probe count matches the naive loop's, so the gain
    is prefix replay + stacking) and ``verify="window"`` (sweeps only
    the galloping bracket — the sweep-scale mode, and the recorded
    headline speedup). Per-mode agreement with the exact scan on the
    same seeds is recorded and sanity-asserted.
    """
    from repro.amp import AMPConfig, run_amp
    from repro.amp.batch_amp import required_queries_amp
    from repro.utils.rng import spawn_rngs, spawn_seeds

    n = 1024 if smoke else 4096
    trials = 8 if smoke else 32
    gamma = 64
    check_every = 8 if smoke else 16
    max_m = 1024 if smoke else 2048
    k = repro.sublinear_k(n, 0.25)
    channel = repro.ZChannel(0.1)
    config = AMPConfig(track_history=False)

    def naive():
        out = []
        for gen in spawn_rngs(2022, trials):
            required = None
            for g in range(check_every, max_m + 1, check_every):
                truth = repro.sample_ground_truth(n, k, gen)
                graph = repro.sample_pooling_graph(n, g, gamma, gen)
                meas = repro.measure(graph, truth, channel, gen)
                if run_amp(meas, config=config).exact:
                    required = g
                    break
            out.append(required)
        return out

    def scan(verify):
        return [
            r.required_m
            for r in required_queries_amp(
                n, k, channel, spawn_seeds(2022, trials),
                gamma=gamma, check_every=check_every, max_m=max_m,
                verify=verify,
            )
        ]

    baseline_s, naive_values = _timed(naive)
    exact_s, exact_values = _timed(lambda: scan("full"))
    wall_s, window_values = _timed(lambda: scan("window"))
    assert all(v is not None for v in exact_values)
    agreement = sum(a == b for a, b in zip(exact_values, window_values))
    # The windowed sweep misses only successes hiding below a *failed
    # gallop point* — rare even at smoke scale; a collapse would mean
    # the profile assumption (or the scan) broke.
    assert agreement >= (3 * trials) // 4
    return {
        "case": "amp_required_m",
        "n": n,
        "trials": trials,
        "gamma": gamma,
        "check_every": check_every,
        "max_m": max_m,
        "wall_s": round(wall_s, 4),
        "verify_mode": "window",
        "baseline": "naive per-m probe loop (fresh instance + standalone "
        "run_amp per grid point per trial)",
        "baseline_s": round(baseline_s, 4),
        "speedup": round(baseline_s / wall_s, 3) if wall_s else None,
        "exact_scan_s": round(exact_s, 4),
        "speedup_exact_scan": (
            round(baseline_s / exact_s, 3) if exact_s else None
        ),
        "window_vs_exact_agreement": f"{agreement}/{trials}",
    }


def _case_sweep_pipeline(smoke, workers):
    """Flattened cross-cell queue vs per-cell-barrier sweep execution.

    A fig-3-shaped multi-cell sweep — required-queries cells over
    (noiseless, gaussian lambda=1) channels and an n grid up to 4096 —
    run two ways on the same ``workers``-process pool: the PR 2 shape
    (each cell its own one-cell plan: submission wave, then a per-cell
    barrier before the next cell starts) vs one ``SweepPlan`` holding
    every cell (all chunks share the engine's global queue; stragglers
    of one cell overlap the other cells' chunks). Values are asserted
    bit-identical before timing. **1-core-container caveat** (as in
    PRs 2-3): with a single hardware core the worker processes
    serialize, so the barrier-removal win shows on multi-core hosts
    only — recorded here for trajectory, not as a headline.

    Also measures the per-chunk dispatch payload satellite: the
    interned-spec protocol ships each cell's invariant payload (the
    pickled channel/config spec) at most once per worker, so
    steady-state chunk dispatch carries only seeds + indices; the
    ``intern_specs=False`` baseline re-ships the spec with every
    chunk. Payload sizes are recorded per chunk for both modes.
    """
    import pickle

    from repro.experiments import shutdown_pool
    from repro.experiments.scheduler import SweepExecutor, SweepPlan

    n_values = (256, 512) if smoke else (1024, 2048, 4096)
    trials = 4 if smoke else 8
    check_every = 4 if smoke else 8
    channels = [
        ("noiseless", repro.NoiselessChannel()),
        ("gaussian_lam_1", repro.GaussianQueryNoise(1.0)),
    ]

    def cell_params():
        for _, channel in channels:
            for n in n_values:
                yield n, repro.sublinear_k(n, 0.25), channel

    def per_cell_barrier():
        out = []
        for n, k, channel in cell_params():
            plan = SweepPlan()
            plan.add_required_queries(
                n, k, channel, trials=trials, seed=2022,
                check_every=check_every,
            )
            out.append(plan.run(backend="process", workers=workers)[0].values)
        return out

    def flattened(intern):
        plan = SweepPlan()
        for n, k, channel in cell_params():
            plan.add_required_queries(
                n, k, channel, trials=trials, seed=2022,
                check_every=check_every,
            )
        executor = SweepExecutor(
            backend="process", workers=workers, intern_specs=intern
        )
        return [sample.values for sample in executor.run(plan)]

    # Warm the pool outside the timed region (spawn start-up is a
    # one-time session cost), then time both execution shapes.
    from repro.experiments.runner import required_queries_trials

    required_queries_trials(
        100, 3, repro.NoiselessChannel(), trials=workers, seed=0,
        workers=workers,
    )
    baseline_s, barrier_vals = _timed(per_cell_barrier)
    wall_s, flat_vals = _timed(lambda: flattened(True))
    no_intern_s, no_intern_vals = _timed(lambda: flattened(False))
    shutdown_pool()
    assert flat_vals == barrier_vals == no_intern_vals  # bit-identical
    # Dispatch payload sizes: the interned protocol's steady-state
    # chunk (seeds + indices only) vs a chunk that re-ships the spec.
    # The seed slice is the engine's actual first chunk (chunk_bounds
    # at workers * oversubscribe chunks per cell), not an estimate.
    from repro.core.chunking import chunk_bounds
    from repro.experiments.parallel import _OVERSUBSCRIBE

    probe = SweepPlan()
    n, k, channel = next(cell_params())
    probe.add_required_queries(
        n, k, channel, trials=trials, seed=2022, check_every=check_every
    )
    cell = probe._cells[0]
    spec_blob = pickle.dumps(cell.spec, pickle.HIGHEST_PROTOCOL)
    lo, hi = chunk_bounds(trials, workers * _OVERSUBSCRIBE)[0]
    chunk_seeds = pickle.dumps(
        tuple(cell.seeds[lo:hi]), pickle.HIGHEST_PROTOCOL
    )
    return {
        "case": "sweep_pipeline",
        "n_values": list(n_values),
        "channels": [label for label, _ in channels],
        "cells": len(n_values) * len(channels),
        "trials": trials,
        "workers": workers,
        "wall_s": round(wall_s, 4),
        "baseline": "per-cell-barrier execution (one-cell plans run "
        "sequentially on the same pool)",
        "baseline_s": round(baseline_s, 4),
        "speedup": round(baseline_s / wall_s, 3) if wall_s else None,
        "no_intern_wall_s": round(no_intern_s, 4),
        "dispatch_spec_blob_bytes": len(spec_blob),
        "dispatch_chunk_payload_bytes": len(chunk_seeds),
        "note": "1-core container: worker processes serialize, so the "
        "barrier-removal and intern wins show on multi-core hosts "
        "only; payload bytes are hardware-independent",
    }


def _case_shm_dispatch_bytes(smoke, workers):
    """Shared-memory arena dispatch vs the pipe-pickled protocols.

    Reruns the fig-3-shaped multi-cell sweep of ``sweep_pipeline`` on
    the process backend with ``shm=True`` (values asserted identical
    to the serial run) and records the per-chunk submission payload
    under the three dispatch protocols: spec-per-chunk (pre-
    interning), interned steady state (seeds + indices through the
    pipe), and the shm arena (arena name plus two ``(offset, length)``
    refs — near-constant bytes regardless of spec size or chunk
    width). **1-core-container caveat** as in ``sweep_pipeline``: the
    worker processes serialize, so the shm wall time is trajectory
    only; the payload bytes are hardware-independent.
    """
    import pickle

    from repro.core.chunking import chunk_bounds
    from repro.experiments import shutdown_pool
    from repro.experiments.parallel import _OVERSUBSCRIBE
    from repro.experiments.scheduler import SweepPlan
    from repro.experiments.shm import SweepArena

    n_values = (256, 512) if smoke else (1024, 2048, 4096)
    trials = 4 if smoke else 8
    check_every = 4 if smoke else 8
    channels = [repro.NoiselessChannel(), repro.GaussianQueryNoise(1.0)]

    def build_plan():
        plan = SweepPlan()
        for channel in channels:
            for n in n_values:
                plan.add_required_queries(
                    n, repro.sublinear_k(n, 0.25), channel,
                    trials=trials, seed=2022, check_every=check_every,
                )
        return plan

    serial_vals = [s.values for s in build_plan().run(backend="serial")]
    # Warm the pool outside the timed region (spawn start-up is a
    # one-time session cost).
    from repro.experiments.runner import required_queries_trials

    required_queries_trials(
        100, 3, repro.NoiselessChannel(), trials=workers, seed=0,
        workers=workers,
    )
    pipe_s, pipe_vals = _timed(
        lambda: [
            s.values
            for s in build_plan().run(
                backend="process", workers=workers, shm=False
            )
        ]
    )
    shm_s, shm_vals = _timed(
        lambda: [
            s.values
            for s in build_plan().run(
                backend="process", workers=workers, shm=True
            )
        ]
    )
    shutdown_pool()
    assert shm_vals == pipe_vals == serial_vals  # bit-identical
    # Per-chunk submission payloads: the first cell's first chunk
    # (chunk_bounds at workers * oversubscribe chunks per cell, the
    # engine's actual split) pickled under each protocol.
    cell = build_plan()._cells[0]
    spec_blob = pickle.dumps(cell.spec, pickle.HIGHEST_PROTOCOL)
    lo, hi = chunk_bounds(trials, workers * _OVERSUBSCRIBE)[0]
    seeds_blob = pickle.dumps(
        tuple(cell.seeds[lo:hi]), pickle.HIGHEST_PROTOCOL
    )
    with SweepArena([spec_blob, seeds_blob]) as arena:
        shm_submission = pickle.dumps(
            (arena.name, arena.refs[0], arena.refs[1], cell.kind, None),
            pickle.HIGHEST_PROTOCOL,
        )
        arena_bytes = arena.size
    return {
        "case": "shm_dispatch_bytes",
        "n_values": list(n_values),
        "cells": len(n_values) * len(channels),
        "trials": trials,
        "workers": workers,
        "wall_s": round(shm_s, 4),
        "baseline": "interned pipe dispatch (process backend, shm off)",
        "baseline_s": round(pipe_s, 4),
        "speedup": round(pipe_s / shm_s, 3) if shm_s else None,
        "chunk_bytes_spec_per_chunk": len(spec_blob) + len(seeds_blob),
        "chunk_bytes_interned": len(seeds_blob),
        "chunk_bytes_shm": len(shm_submission),
        "arena_total_bytes": arena_bytes,
        "note": "1-core container: worker processes serialize, so the "
        "shm wall-time delta is trajectory only; payload bytes are "
        "hardware-independent and chunk_bytes_shm stays near-constant "
        "as specs or chunks grow",
    }


def _case_sweep_resume_overhead(smoke):
    """Checkpoint write-through cost and the warm-resume payoff.

    The same multi-cell sweep timed three ways on the serial backend
    with a fine chunk explosion (``workers=8`` splits each cell into
    many durable chunk records — the worst case for write-through
    cost): plain, checkpointed into a fresh directory each repeat
    (every finished chunk persisted write-then-rename), and resumed
    against an already-complete checkpoint (every cell restored from
    disk, zero compute). The checkpointed run is asserted
    bit-identical to plain; the acceptance bar is overhead under 5%.
    The resume time is the crash-recovery payoff — the cost of
    re-running a finished sweep after a driver kill.
    """
    import shutil
    import tempfile
    from pathlib import Path

    from repro.experiments.scheduler import SweepExecutor, SweepPlan

    n_values = (256, 512) if smoke else (1024, 2048, 4096)
    trials = 4 if smoke else 8
    check_every = 4 if smoke else 8
    chunk_workers = 8  # serial compute, many chunk records per cell
    repeats = 3

    def build_plan():
        plan = SweepPlan()
        for n in n_values:
            k = repro.sublinear_k(n, 0.25)
            plan.add_required_queries(
                n, k, repro.ZChannel(0.1), trials=trials, seed=2022,
                check_every=check_every,
            )
            plan.add_success_curve(
                n, k, repro.NoiselessChannel(), [n // 4, n // 2],
                trials=trials, seed=2023,
            )
        return plan

    def run(checkpoint=None):
        return SweepExecutor(
            backend="serial", workers=chunk_workers, checkpoint=checkpoint
        ).run(build_plan())

    baseline_s, ref = _timed(run, repeats)

    dirs = []

    def checkpointed():
        tmp = tempfile.mkdtemp(prefix="bench-resume-")
        dirs.append(tmp)
        return run(checkpoint=tmp)

    wall_s, got = _timed(checkpointed, repeats)
    assert repr(got) == repr(ref)  # bit-identical through the write path

    populated = dirs[-1]
    cell_records = len(list(Path(populated).glob("plan-*/cell_*.json")))
    resume_s, resumed = _timed(lambda: run(checkpoint=populated), repeats)
    assert repr(resumed) == repr(ref)  # restored, not recomputed
    for tmp in dirs:
        shutil.rmtree(tmp, ignore_errors=True)

    return {
        "case": "sweep_resume_overhead",
        "n_values": list(n_values),
        "cells": len(n_values) * 2,
        "cell_records": cell_records,
        "trials": trials,
        "chunk_workers": chunk_workers,
        "wall_s": round(wall_s, 4),
        "baseline": "same sweep, checkpointing off",
        "baseline_s": round(baseline_s, 4),
        "overhead_pct": (
            round((wall_s / baseline_s - 1) * 100, 2) if baseline_s else None
        ),
        "resume_s": round(resume_s, 4),
        "resume_speedup": (
            round(baseline_s / resume_s, 1) if resume_s else None
        ),
    }


def _case_decode_service(smoke):
    """Decode-service micro-batching: one ragged stack vs serial run_amp.

    Simulates the PR 10 serving hot path: J concurrent sessions (same
    batching cell, different streams and prefix lengths) decoded by
    one ``decode_prefix_batch`` call — exactly what the service's
    ``DecodeBatcher`` issues per wave — against the serial baseline of
    J standalone ``run_amp`` calls on the same prefixes. Outputs are
    asserted bit-identical before timing (batching across users must
    be invisible); the win is the block-diagonal stacking amortizing
    per-call setup and matvec dispatch across requests.
    """
    from repro.amp import AMPConfig, run_amp
    from repro.amp.batch_amp import decode_prefix_batch
    from repro.core.batch import MeasurementStream
    from repro.core.measurement import Measurements
    from repro.core.pooling import PoolingGraph

    n = 256 if smoke else 1024
    sessions = 8 if smoke else 16
    base_m = 150 if smoke else 500
    k = repro.sublinear_k(n, 0.25)
    gamma = 64  # sparse regime — the stacking-friendly cell
    channel = repro.ZChannel(0.1)
    config = AMPConfig(track_history=False)
    repeats = 1 if smoke else 3

    streams = []
    jobs = []
    for i in range(sessions):
        gen = np.random.default_rng(3000 + i)
        truth = repro.sample_ground_truth(n, k, gen)
        m = base_m + 7 * i  # heterogeneous prefixes, like live traffic
        stream = MeasurementStream(
            n, gamma, channel, truth, gen, max_m=m, initial_block=m
        )
        stream.grow_to(m)
        streams.append(stream)
        jobs.append((i, m))

    def batched():
        return decode_prefix_batch(
            jobs, streams, n, k, channel, gamma=gamma, config=config
        )

    def serial():
        out = []
        for i, m in jobs:
            indptr, agents, counts, results = streams[i].prefix(m)
            graph = PoolingGraph._unchecked(n, gamma, indptr, agents, counts)
            meas = Measurements(
                graph=graph, truth=streams[i].truth,
                channel=channel, results=results,
            )
            out.append(run_amp(meas, config=config))
        return out

    exact, scores = batched()
    reference = serial()
    for j, result in enumerate(reference):
        assert bool(exact[j]) == bool(result.exact)
        assert np.array_equal(scores[j], result.scores)

    wall_s, _ = _timed(batched, repeats)
    baseline_s, _ = _timed(serial, repeats)
    return {
        "case": "decode_service",
        "n": n,
        "k": k,
        "gamma": gamma,
        "sessions": sessions,
        "m_range": [jobs[0][1], jobs[-1][1]],
        "wall_s": round(wall_s, 4),
        "baseline": "standalone run_amp per session prefix",
        "baseline_s": round(baseline_s, 4),
        "speedup": round(baseline_s / wall_s, 2) if wall_s else None,
        "requests_per_s": round(sessions / wall_s, 1) if wall_s else None,
        "bit_identical": True,
    }


def run_perf_suite(smoke=False, workers=4, only=None):
    """Run the perf-trajectory cases; returns one JSON-ready entry.

    ``only`` (a case-name set) restricts the run — used to append a
    single new case's entry without re-timing the whole suite.
    """
    import os
    import platform
    import subprocess
    import time

    available = {
        "csr_sparse_uint32_sort": lambda: _case_csr_sparse_u32(smoke),
        "fig2_sweep": lambda: _case_fig2_sweep(smoke, workers),
        "amp_sparse_full_scale": lambda: _case_amp_sparse(smoke),
        "amp_batch_sweep_cell": lambda: _case_amp_batch_sweep(smoke),
        "amp_batch_sparse_full_scale": lambda: (
            _case_amp_batch_sparse_poison(smoke)
        ),
        "amp_required_m": lambda: _case_amp_required_m(smoke),
        "sweep_pipeline": lambda: _case_sweep_pipeline(smoke, workers),
        "shm_dispatch_bytes": lambda: _case_shm_dispatch_bytes(smoke, workers),
        "sweep_resume_overhead": lambda: _case_sweep_resume_overhead(smoke),
        "decode_service": lambda: _case_decode_service(smoke),
    }
    if only:
        unknown = set(only) - set(available)
        if unknown:
            raise SystemExit(f"unknown cases {sorted(unknown)}; "
                             f"valid: {sorted(available)}")
        selected = [available[name] for name in available if name in only]
    else:
        selected = list(available.values())
    cases = [build() for build in selected]
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, cwd=os.path.dirname(__file__),
        ).stdout.strip() or None
    except OSError:
        commit = None
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "commit": commit,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "smoke": bool(smoke),
        "workers": workers,
        "cases": cases,
    }


def main(argv=None):
    import argparse
    import json
    import os

    default_out = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "BENCH_perf_core.json",
    )
    parser = argparse.ArgumentParser(
        description="Append a perf-trajectory entry to BENCH_perf_core.json"
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="shrunken cases for CI time budgets (~1 min)",
    )
    parser.add_argument(
        "--workers", type=int, default=4,
        help="worker processes for the sharded sweep case (default 4)",
    )
    parser.add_argument(
        "--case", action="append", default=None, dest="cases",
        help="run only this case (repeatable; default: all cases)",
    )
    parser.add_argument("--out", default=default_out, help="trajectory file")
    args = parser.parse_args(argv)

    entry = run_perf_suite(
        smoke=args.smoke, workers=args.workers, only=args.cases
    )
    if os.path.exists(args.out):
        with open(args.out) as fh:
            payload = json.load(fh)
    else:
        payload = {"schema": BENCH_JSON_SCHEMA, "entries": []}
    payload["entries"].append(entry)
    with open(args.out, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(json.dumps(entry, indent=2))
    print(f"appended entry #{len(payload['entries'])} to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
