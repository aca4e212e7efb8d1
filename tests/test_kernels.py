"""AMP kernel seam: golden bit-identity and the lean reference path.

The contract under test (see :mod:`repro.amp.kernels`): the float64
NumPy kernel performs exactly the array operations the pre-seam AMP
loops performed, in the same order — so every AMP entry point's output
is **bit-identical** to the pre-refactor implementation. The golden
hashes below were captured by running the pre-seam code on the pinned
instances; the seam must keep reproducing them exactly, for the
standalone runner, the block-diagonal batched runner, and the ragged
required-m scan. There is one numeric: no kernel
can be selected, and a float32 stack fails loudly.
"""

import hashlib

import numpy as np
import pytest

import repro
from repro.amp import AMPConfig, run_amp
from repro.amp.batch_amp import required_queries_amp, run_amp_trials
from repro.amp.kernels import (
    AMP_KERNEL,
    CSRArrays,
    CSRStackOperator,
    StackLayout,
)
from repro.utils.rng import spawn_seeds

from reference import adjacency_sparse


def _hash(arr):
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _standalone_instance(seed=42, n=600, k=5, m=80, channel=None):
    gen = np.random.default_rng(seed)
    truth = repro.sample_ground_truth(n, k, gen)
    graph = repro.sample_pooling_graph(n, m, rng=gen)
    meas = repro.measure(graph, truth, channel or repro.ZChannel(0.1), gen)
    return meas


# -- one numeric: no kernel selection -----------------------------------


def _removed_kernel_calls():
    """Every former way to select a kernel, as ``(id, call, error)``."""
    from repro.amp import run_distributed_amp
    from repro.amp.amp import iterate_amp
    from repro.amp.batch_amp import (
        decode_prefix_batch,
        run_amp_batch,
        run_amp_prepared,
    )
    from repro.experiments.runner import (
        required_queries_trials,
        success_rate_curve,
    )
    from repro.experiments.scheduler import SweepPlan
    from repro.service.batcher import DecodeBatcher
    from repro.service.server import DecodeService

    z = repro.ZChannel(0.1)
    kw = {"kernel": "numpy"}

    def import_removed(name):
        exec(f"from repro.amp import {name}")

    calls = {
        "iterate_amp": lambda: iterate_amp(
            None, np.zeros((1, 1)), None, AMPConfig(), n=1, **kw
        ),
        "run_amp": lambda: run_amp(_standalone_instance(), **kw),
        "run_amp_batch": lambda: run_amp_batch([], **kw),
        "run_amp_trials": lambda: run_amp_trials(100, 3, z, 10, [], **kw),
        "run_amp_prepared": lambda: run_amp_prepared(
            100, 3, z, None, np.zeros((0, 10)), np.zeros((0, 100)), **kw
        ),
        "decode_prefix_batch": lambda: decode_prefix_batch(
            [], [], 100, 3, z, **kw
        ),
        "required_queries_amp": lambda: required_queries_amp(
            100, 3, z, [], **kw
        ),
        "run_distributed_amp": lambda: run_distributed_amp(
            _standalone_instance(), **kw
        ),
        "required_queries_trials": lambda: required_queries_trials(
            100, 3, z, trials=1, algorithm="amp", **kw
        ),
        "success_rate_curve": lambda: success_rate_curve(
            100, 3, z, [10], algorithm="amp", trials=1, **kw
        ),
        "add_required_queries": lambda: SweepPlan().add_required_queries(
            100, 3, z, algorithm="amp", **kw
        ),
        "DecodeBatcher": lambda: DecodeBatcher(**kw),
        "DecodeService": lambda: DecodeService(**kw),
        "algorithm_kwargs": lambda: success_rate_curve(
            100, 3, z, [10], algorithm="amp", trials=1, algorithm_kwargs=kw,
            backend="serial",
        ),
    }
    out = [(name, call, TypeError) for name, call in calls.items()]
    out += [
        (f"import-{name}", lambda name=name: import_removed(name), ImportError)
        for name in ("resolve_kernel", "KERNELS", "KERNEL_ENV")
    ]
    return out


@pytest.mark.parametrize(
    "call, error",
    [pytest.param(call, error, id=name)
     for name, call, error in _removed_kernel_calls()],
)
def test_removed_kernel_names_rejected(call, error):
    # The kernel= keyword and the registry names are gone: every former
    # selection route fails loudly instead of being ignored.
    with pytest.raises(error, match="kernel|KERNEL"):
        call()


# -- stack layout --------------------------------------------------------


def test_layout_uniform_bounds_and_scalars():
    # Equal segments are an ordinary layout whose rows share one length:
    # the per-trial scalars are the standalone ones for every row.
    layout = StackLayout(10, np.array([4, 4, 4]))
    assert layout.seg_len == 4
    np.testing.assert_array_equal(layout.bounds, [0, 4, 8, 12])
    assert (layout.sqrt_m == np.sqrt(4)).all()
    assert (layout.nm_ratio == 10 / 4).all()


def test_layout_ragged_restrict_slices_scalars():
    layout = StackLayout(6, np.array([2, 3, 4]))
    assert layout.seg_len is None
    np.testing.assert_array_equal(layout.bounds, [0, 2, 5, 9])
    active = np.array([True, False, True])
    sub = layout.restrict(active)
    assert sub.rows == 2
    np.testing.assert_array_equal(sub.m_cur, [2, 4])
    # Restriction slices the stored standardization vectors rather
    # than recomputing them (the pre-seam compaction behavior).
    np.testing.assert_array_equal(sub.sqrt_m, layout.sqrt_m[active])
    np.testing.assert_array_equal(sub.nm_ratio, layout.nm_ratio[active])


def test_layout_compact_and_restore_roundtrip():
    layout = StackLayout(4, np.array([2, 3, 1]))
    z = np.arange(6, dtype=float)
    active = np.array([True, False, True])
    np.testing.assert_array_equal(
        layout.compact_measure(z, active), [0, 1, 5]
    )
    dst = np.zeros(6)
    layout.restore_rows(dst, z, ~active)
    np.testing.assert_array_equal(dst, [0, 0, 2, 3, 4, 0])
    # Equal segments go through (rows, seg_len) views: same results.
    eq = StackLayout(4, np.array([2, 2, 2]))
    compact = eq.compact_measure(z, active)
    np.testing.assert_array_equal(compact, [0, 1, 4, 5])
    assert compact.flags.c_contiguous
    dst = np.zeros(6)
    eq.restore_rows(dst, z, ~active)
    np.testing.assert_array_equal(dst, [0, 0, 2, 3, 0, 0])


def test_segment_square_sums_matches_reference():
    rng = np.random.default_rng(0)
    flat = rng.normal(size=9)
    layout = StackLayout(5, np.array([2, 3, 4]))
    out = AMP_KERNEL.segment_square_sums(flat, layout)
    expected = [np.sum(flat[a:b] ** 2) for a, b in ((0, 2), (2, 5), (5, 9))]
    np.testing.assert_allclose(out, expected)
    # Equal-length ragged segments take the reshape fast path; it must
    # agree with the generic per-segment reduction bit for bit.
    flat6 = rng.normal(size=6)
    eq = StackLayout(5, np.array([3, 3]))
    np.testing.assert_array_equal(
        AMP_KERNEL.segment_square_sums(flat6, eq),
        np.sum(flat6.reshape(2, 3) ** 2, axis=1),
    )


# -- golden bit-identity (pre-seam captures) -----------------------------

GOLDEN_STANDALONE = "1c6c1ee04112bce1"
GOLDEN_TRIALS = "581d0600ec6cbfc1"
GOLDEN_TRIALS_HAMMING = [2, 2, 0, 6, 4, 4]
GOLDEN_REQUIRED_M = [88, 40, 40, 32, 40]
#: probes per trial of the ascending scan: every grid point below the
#: answer plus the rest of its wave of VERIFY_WAVE=8 (with a step of 8,
#: 88 takes two waves and the rest one)
GOLDEN_CHECKS = [16, 8, 8, 8, 8]
GOLDEN_GAUSS_DAMPED = "8a6dea18c59061fe"


@pytest.mark.parametrize("kernel", [None, "numpy", "numpy32"])
def test_golden_standalone_run_amp(kernel, monkeypatch):
    # REPRO_KERNEL is no longer read: the float64 goldens hold whether it
    # is unset or names a kernel that used to exist.
    if kernel is None:
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
    else:
        monkeypatch.setenv("REPRO_KERNEL", kernel)
    result = run_amp(_standalone_instance())
    assert _hash(result.scores) == GOLDEN_STANDALONE
    assert result.scores.dtype == np.float64
    assert result.meta["iterations"] == 4
    assert "kernel" not in result.meta


def test_golden_batched_trials():
    results = run_amp_trials(
        512, 4, repro.ZChannel(0.1), 90, spawn_seeds(7, 6), gamma=32
    )
    stacked = np.vstack([r.scores for r in results])
    assert _hash(stacked) == GOLDEN_TRIALS
    assert [int(r.hamming_errors) for r in results] == GOLDEN_TRIALS_HAMMING


def test_golden_required_m_scan():
    results = required_queries_amp(
        256, 3, repro.ZChannel(0.1), spawn_seeds(11, 5),
        gamma=32, check_every=8, max_m=400,
    )
    assert [r.required_m for r in results] == GOLDEN_REQUIRED_M
    assert [r.checks for r in results] == GOLDEN_CHECKS
    assert all("kernel" not in r.meta for r in results)


def test_golden_gaussian_damped():
    meas = _standalone_instance(
        seed=5, n=400, k=4, m=70, channel=repro.GaussianQueryNoise(1.0)
    )
    result = run_amp(meas, config=AMPConfig(damping=0.2))
    assert _hash(result.scores) == GOLDEN_GAUSS_DAMPED
    assert result.meta["iterations"] == 10


def test_matvec_runs_inside_the_seam(monkeypatch):
    # The kernel phases own the matvec: spy on CSRStackOperator and
    # count operator applications during a run. One adjoint per
    # iteration, one forward per iteration (plus the initial
    # residual), and spying must not perturb the golden decode.
    calls = {"matvec": 0, "rmatvec": 0}
    orig_matvec = CSRStackOperator.matvec
    orig_rmatvec = CSRStackOperator.rmatvec

    def spy_matvec(self, x):
        calls["matvec"] += 1
        return orig_matvec(self, x)

    def spy_rmatvec(self, z):
        calls["rmatvec"] += 1
        return orig_rmatvec(self, z)

    monkeypatch.setattr(CSRStackOperator, "matvec", spy_matvec)
    monkeypatch.setattr(CSRStackOperator, "rmatvec", spy_rmatvec)
    result = run_amp(_standalone_instance())
    iterations = result.meta["iterations"]
    assert _hash(result.scores) == GOLDEN_STANDALONE
    assert calls["rmatvec"] >= iterations > 0
    assert calls["matvec"] >= iterations > 0


def test_stack_dtype_must_match_kernel():
    # One numeric: a float32 stack cannot take the run's float64
    # vectors into its float32 product output, so it fails loudly
    # instead of computing in another precision.
    from repro.amp.amp import default_denoiser, iterate_amp

    meas = _standalone_instance()
    n, m = meas.graph.n, meas.graph.m
    a = adjacency_sparse(meas.graph).astype(np.float32)
    op = CSRStackOperator(
        CSRArrays(a.indptr, a.indices, a.data, a.shape),
        n=n, c=0.5, m_per=np.array([m]), scales=np.ones(1),
    )
    with pytest.raises(ValueError, match="dtype"):
        iterate_amp(
            op, np.zeros(m), default_denoiser(n, meas.k), AMPConfig(),
            n=n, row_sizes=np.array([m]),
        )


def test_operator_rejects_arrays_that_do_not_fit_the_shape():
    # The compiled products read the arrays unchecked, so a shape the
    # arrays do not fit fails before any product runs.
    indptr, indices = np.array([0, 1, 2]), np.array([0, 1])
    with pytest.raises(ValueError, match="do not fit"):
        CSRStackOperator(
            CSRArrays(indptr, indices, np.ones(2), (3, 2)),
            n=2, c=0.0, m_per=np.array([3]), scales=np.ones(1),
        )
    with pytest.raises(ValueError, match="do not fit"):
        CSRStackOperator(
            CSRArrays(indptr, indices, np.ones(3), (2, 2)),
            n=2, c=0.0, m_per=np.array([2]), scales=np.ones(1),
        )


# -- the lean reference path: same products, no scipy dispatch -----------


def _random_stack(rng, n, m_per, index_dtype):
    """A column-shifted block-diagonal CSR stack with the given index dtype."""
    from scipy import sparse

    from repro.amp.batch_amp import _stack_blocks

    blocks = []
    for m in m_per:
        rows = np.repeat(np.arange(m), 7)
        cols = rng.integers(0, n, size=rows.size)
        block = sparse.csr_matrix(
            (rng.integers(1, 4, size=rows.size).astype(np.float64), (rows, cols)),
            shape=(m, n),
        )
        block.sum_duplicates()
        blocks.append((block.indptr, block.indices, block.data))
    a = _stack_blocks(blocks, n)
    return a._replace(
        indices=a.indices.astype(index_dtype),
        indptr=a.indptr.astype(index_dtype),
    )


@pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
@pytest.mark.parametrize(
    "m_per",
    [[9], [9, 9, 9], [5, 12, 1, 8]],
    ids=["T1-ragged", "equal-ragged", "ragged"],
)
def test_stack_products_equal_scipy_bytes(index_dtype, m_per):
    # The operator's products run the sparsetools routines behind
    # scipy's ``@`` directly: raw products (c=0, unit scale) equal
    # ``a @ x`` / ``a.T @ z`` byte for byte, and the standardized ones
    # equal the pre-seam closure arithmetic on those products.
    from scipy import sparse

    rng = np.random.default_rng(len(m_per) * 10 + 1)
    n, trials = 13, len(m_per)
    stack = _random_stack(rng, n, m_per, index_dtype)
    assert stack.indices.dtype == index_dtype
    assert stack.data.dtype == np.float64
    # The scipy matrix over the same arrays, kept at their index dtype.
    a = sparse.csr_matrix(
        (stack.data, stack.indices, stack.indptr), shape=stack.shape
    )
    a.indices, a.indptr = stack.indices, stack.indptr
    x = rng.normal(size=trials * n)
    z = rng.normal(size=a.shape[0])
    m_arr = np.asarray(m_per)
    scales = rng.uniform(0.5, 3.0, size=trials)

    def make(c, unit):
        s = np.ones(trials) if unit else scales
        return CSRStackOperator(stack, n=n, c=c, m_per=m_arr, scales=s)

    raw = make(0.0, True)
    mv, rmv = raw.matvec(x), raw.rmatvec(z)
    assert mv.dtype == rmv.dtype == np.float64
    assert mv.tobytes() == (a @ x).tobytes()
    assert rmv.tobytes() == (a.T @ z).tobytes()

    op = make(0.3, False)
    c = 0.3
    sx = x.reshape(trials, n).sum(axis=1)
    bounds = np.concatenate(([0], np.cumsum(m_arr)))
    sz = np.array([z[bounds[i] : bounds[i + 1]].sum() for i in range(trials)])
    row_scale = np.repeat(scales, m_arr)
    ref_mv = (a @ x - c * np.repeat(sx, m_arr)) / row_scale
    ref_rmv = (
        ((a.T @ z).reshape(trials, n) - (c * sz)[:, None])
        / scales[:, None]
    ).reshape(-1)
    assert op.matvec(x).tobytes() == ref_mv.tobytes()
    assert op.rmatvec(z).tobytes() == ref_rmv.tobytes()


def test_iteration_never_dispatches_through_scipy_matmul(monkeypatch):
    # Every product of an AMP run on a CSRStackOperator goes straight to
    # sparsetools; scipy's ``@`` dispatch (``__matmul__`` and the
    # ``_matmul_dispatch`` it shares with ``*``/``dot``) is never
    # entered. The spy is live: a direct product still counts.
    from scipy.sparse import _base

    from repro.amp.batch_amp import decode_prefix_batch

    calls = {"n": 0}
    for name in ("__matmul__", "_matmul_dispatch"):
        orig = getattr(_base._spbase, name)

        def spy(self, other, _orig=orig):
            calls["n"] += 1
            return _orig(self, other)

        monkeypatch.setattr(_base._spbase, name, spy)

    result = run_amp(_standalone_instance())
    assert _hash(result.scores) == GOLDEN_STANDALONE
    results = run_amp_trials(
        512, 4, repro.ZChannel(0.1), 90, spawn_seeds(7, 6), gamma=32
    )
    assert _hash(np.vstack([r.scores for r in results])) == GOLDEN_TRIALS
    results = required_queries_amp(
        256, 3, repro.ZChannel(0.1), spawn_seeds(11, 5),
        gamma=32, check_every=8, max_m=400,
    )
    assert [r.required_m for r in results] == GOLDEN_REQUIRED_M
    stream = _ragged_streams(1)[0]
    decode_prefix_batch([(0, 40)], [stream], 200, 3, repro.NoiselessChannel(), gamma=50)
    assert calls["n"] == 0

    graph = adjacency_sparse(_standalone_instance().graph)
    graph @ np.ones(graph.shape[1])
    assert calls["n"] > 0


def _ragged_streams(count, n=200, k=3, gamma=50, max_m=260):
    from repro.core.batch import MeasurementStream

    streams = []
    for seed in spawn_seeds(31, count):
        gen = np.random.default_rng(seed)
        truth = repro.sample_ground_truth(n, k, gen)
        stream = MeasurementStream(
            n, gamma, repro.NoiselessChannel(), truth, gen, max_m=max_m
        )
        stream.grow_to(max_m)
        streams.append(stream)
    return streams


@pytest.mark.parametrize(
    "m_per",
    [[250, 30, 240, 45, 260], [100] * 5],
    ids=["unequal-m", "equal-m"],
)
def test_ragged_damped_compacting_stack_matches_standalone(m_per):
    # A stack of prefixes, damping on, and trials freezing at different
    # iterations so the stack compacts mid-run: every trial's scores,
    # iteration count, convergence flag and history still equal a
    # standalone run_amp on its own prefix. The equal-m stack is a
    # fixed-m sweep cell's shape, run on (rows, m) views.
    from repro.amp.amp import (
        channel_corrected_results,
        default_denoiser,
        iterate_amp,
        standardization_constants,
    )
    from repro.amp.batch_amp import _StackOperators, _stack_blocks
    from repro.core.measurement import Measurements
    from repro.core.pooling import PoolingGraph

    n, k, gamma = 200, 3, 50
    channel = repro.NoiselessChannel()
    config = AMPConfig(damping=0.2, max_iter=40, tol=1e-6, track_history=True)
    denoiser = default_denoiser(n, k)
    streams = _ragged_streams(5)
    m_per = np.array(m_per)
    prefixes, y_parts, scales = [], [], []
    for stream, m in zip(streams, m_per):
        indptr, agents, counts, results = stream.prefix(int(m))
        c, scale = standardization_constants(n, int(m), gamma)
        prefixes.append((indptr, agents, counts))
        scales.append(scale)
        y_parts.append(
            (channel_corrected_results(results, gamma, channel) - c * k) / scale
        )
    ops = _StackOperators(
        _stack_blocks(prefixes, n), n, gamma / n, m_per, np.array(scales)
    )
    restricted = []

    def restrict(live):
        restricted.append(live.size)
        return ops.operators(live)

    scores, iterations, converged, histories = iterate_amp(
        ops.operators(np.arange(m_per.size)), np.concatenate(y_parts),
        denoiser, config, n=n, restrict=restrict, row_sizes=m_per,
    )
    # The combination under test really happened: a mid-run compaction
    # with trials still iterating, and mixed stopping iterations.
    assert restricted and restricted[0] < m_per.size
    assert len(set(iterations.tolist())) > 1

    for i, (stream, m) in enumerate(zip(streams, m_per)):
        indptr, agents, counts, results = stream.prefix(int(m))
        meas = Measurements(
            graph=PoolingGraph._unchecked(n, gamma, indptr, agents, counts),
            truth=stream.truth,
            channel=channel,
            results=results,
        )
        single = run_amp(meas, denoiser=denoiser, config=config)
        assert single.scores.tobytes() == scores[i].tobytes()
        assert single.meta["iterations"] == int(iterations[i])
        assert single.meta["converged"] == bool(converged[i])
        assert single.meta["history"] == histories[i]
