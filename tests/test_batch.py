"""Seeded equivalence tests: batch simulators vs the per-query references.

The batch simulators (repro.core.batch) claim seed compatibility with
the per-query sampler, the per-trial loop and the query-by-query
required-m procedure (``tests/reference.py``). These tests pin that
claim:

* identical *graphs* for the same SeedSequence;
* identical *results* (scores, estimates, evaluation) for the stacked
  trial runner vs the per-trial loop;
* identical *stopping m* for the chunked incremental simulator — exact
  stream equivalence for channels without per-query noise draws, and
  exact data-level equivalence (replaying the same measurements) for
  every channel, plus agreement in distribution for channels that
  draw per-query noise.
"""

import numpy as np
import pytest

import repro
from repro.core.batch import BatchTrialRunner, first_success_m
from repro.core.incremental import IncrementalDecoder, required_queries
from repro.core.measurement import measure
from repro.core.pooling import sample_pooling_graph
from repro.experiments.runner import required_queries_trials, success_rate_curve
from repro.utils.rng import spawn_rngs

from reference import (
    fixed_m_curve,
    measured_query,
    required_queries_per_query,
    sample_pooling_graph_per_query,
)


class TestGraphEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 2022])
    @pytest.mark.parametrize(
        "n,m,gamma",
        [(100, 40, None), (57, 13, 9), (8, 5, 1), (200, 1, 300)],
    )
    def test_batch_sampler_matches_per_query_sampler(self, seed, n, m, gamma):
        g1 = sample_pooling_graph_per_query(n, m, gamma, np.random.default_rng(seed))
        g2 = sample_pooling_graph(n, m, gamma, np.random.default_rng(seed))
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.agents, g2.agents)
        assert np.array_equal(g1.counts, g2.counts)
        assert (g1.n, g1.gamma) == (g2.n, g2.gamma)

    def test_same_graph_beyond_uint16_agent_ids(self):
        # n > 2**16 exercises the comparison-sort path.
        g1 = sample_pooling_graph_per_query(70_000, 4, 50, np.random.default_rng(7))
        g2 = sample_pooling_graph(70_000, 4, 50, np.random.default_rng(7))
        assert np.array_equal(g1.agents, g2.agents)
        assert np.array_equal(g1.counts, g2.counts)

    def test_empty_graph(self):
        g = sample_pooling_graph(50, 0, rng=0)
        assert g.m == 0
        assert g.total_edges == 0

    def test_csr_invariants(self):
        g = sample_pooling_graph(37, 25, 50, rng=5)
        assert g.indptr[0] == 0
        assert g.indptr[-1] == g.agents.size == g.counts.size
        assert np.all(np.diff(g.indptr) >= 1)
        assert np.all(g.counts >= 1)
        for agents, _ in g.iter_queries():
            assert np.all(np.diff(agents) > 0)  # sorted, distinct
        assert g.total_edges == 25 * 50


def _reference_csr(draws):
    """The plain int64 sort-and-scan construction the sampler must match."""
    m, gamma = draws.shape
    flat = np.sort(draws, axis=1).ravel()
    starts = np.empty(flat.size, dtype=bool)
    starts[0] = True
    np.not_equal(flat[1:], flat[:-1], out=starts[1:])
    starts[::gamma] = True
    idx = np.flatnonzero(starts)
    indptr = np.concatenate(
        ([0], np.searchsorted(idx, np.arange(gamma, m * gamma + 1, gamma)))
    )
    return indptr, flat[idx], np.diff(idx, append=flat.size)


def _same_state(a, b) -> bool:
    """Bit-generator states equal, key by key (MT19937's holds an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


class TestCountingCsr:
    """Dense and large-n regimes of the CSR construction.

    (The class keeps the name of the counting-sort construction that
    once served the dense n > 2**16 regime.)
    """

    def test_dispatch_rule(self):
        from repro.core.pooling import _csr_from_draws

        # rows sort as the narrowest unsigned dtype holding n - 1
        cases = [(256, np.uint8), (257, np.uint16), (65_536, np.uint16),
                 (65_537, np.uint32)]
        for n, dtype in cases:
            draws = np.random.default_rng(n).integers(0, n, size=(3, 40))
            draws[0, 0] = n - 1
            _, agents, _ = _csr_from_draws(draws, n, agent_dtype=None)
            assert agents.dtype == dtype
            assert agents.max() == n - 1
            indptr, agents, counts = _csr_from_draws(draws, n)
            assert (indptr.dtype, agents.dtype, counts.dtype) == (np.int64,) * 3

    @pytest.mark.parametrize(
        "n,m,gamma",
        [
            (200, 40, 100),  # uint8 keys: radix sort
            (1000, 30, 500),  # uint16 keys: default sort
            (60_000, 5, 30_000),
            (70_000, 6, 35_000),  # uint32 keys
            (66_000, 9, 9_000),
        ],
    )
    def test_identical_to_sort_construction(self, n, m, gamma):
        from repro.core.batch import _narrowest_int
        from repro.core.pooling import _csr_from_draws

        draws = np.random.default_rng(13).integers(0, n, size=(m, gamma))
        expected = _reference_csr(draws)
        # wide, sort-dtype agents (scanned slices) and stored narrow forms
        for agent_dtype, count_dtype in (
            (np.int64, np.int64),
            (None, np.int64),
            (np.int32, _narrowest_int(gamma)),
        ):
            got = _csr_from_draws(
                draws.astype(np.int32), n,
                agent_dtype=agent_dtype, count_dtype=count_dtype,
            )
            for a, b in zip(got, expected):
                assert np.array_equal(a, b)
        assert got[2].sum() == m * gamma

    def test_seed_identical_to_legacy_sampler_dense_regime(self):
        # The sampler must return the same *graph* (not just the
        # same edge multiset) as the per-query reference sampler.
        n, m = 70_000, 5
        g1 = sample_pooling_graph_per_query(n, m, None, np.random.default_rng(41))
        g2 = sample_pooling_graph(n, m, None, np.random.default_rng(41))
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.agents, g2.agents)
        assert np.array_equal(g1.counts, g2.counts)

    def test_many_rows_match_legacy(self):
        n, m = 66_000, 40
        g1 = sample_pooling_graph(n, m, n // 8, np.random.default_rng(5))
        g2 = sample_pooling_graph_per_query(n, m, n // 8, np.random.default_rng(5))
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.agents, g2.agents)
        assert np.array_equal(g1.counts, g2.counts)

    def test_sparse_uint32_sort_path_matches_legacy(self):
        # n > 2**16 and sparse: the uint32-narrowed sort must still
        # return the per-query reference graph.
        n, m, gamma = 70_000, 30, 500
        g1 = sample_pooling_graph_per_query(n, m, gamma, np.random.default_rng(19))
        g2 = sample_pooling_graph(n, m, gamma, np.random.default_rng(19))
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.agents, g2.agents)
        assert np.array_equal(g1.counts, g2.counts)
        assert g2.agents.dtype == np.int64


class TestAgentDraws:
    """int32 agent draws stand in for the default int64 ones."""

    @pytest.mark.parametrize("seed", [0, 1, 2022])
    @pytest.mark.parametrize(
        "n", [2, 3, 1000, 2**16, 2**16 + 1, 2**31 - 1, 2**31]
    )
    @pytest.mark.parametrize("shape", [(1,), (7,), (3, 5), (4, 1000)])
    def test_same_values_and_generator_state(self, seed, n, shape):
        from repro.core.pooling import _draw_agents

        wide_gen = np.random.default_rng(seed)
        narrow_gen = np.random.default_rng(seed)
        wide = wide_gen.integers(0, n, size=shape)
        narrow = _draw_agents(narrow_gen, n, shape)
        assert narrow.dtype == np.int32
        assert np.array_equal(wide, narrow)
        assert wide_gen.bit_generator.state == narrow_gen.bit_generator.state
        assert wide_gen.random() == narrow_gen.random()
        assert np.array_equal(
            wide_gen.binomial(20, 0.3, size=5), narrow_gen.binomial(20, 0.3, size=5)
        )

    @pytest.mark.parametrize(
        "bit_generator",
        [np.random.PCG64, np.random.PCG64DXSM, np.random.MT19937,
         np.random.Philox, np.random.SFC64],
    )
    @pytest.mark.parametrize("n", [3, 1000, 2**16 + 1, 2**31 - 1])
    def test_row_chunks_match_one_draw(self, bit_generator, n):
        # A block drawn in consecutive row chunks (MeasurementStream)
        # is the one-shot draw: 7-column rows give odd-sized chunks,
        # which end on a half-word buffered in the bit generator.
        from repro.core.pooling import _draw_agents

        rows, gamma = 23, 7
        one_gen = np.random.Generator(bit_generator(5))
        chunk_gen = np.random.Generator(bit_generator(5))
        one = _draw_agents(one_gen, n, (rows, gamma))
        cuts = [0, 1, 4, 9, 16, 23]
        chunks, buffered = [], []
        for lo, hi in zip(cuts, cuts[1:]):
            chunks.append(_draw_agents(chunk_gen, n, (hi - lo, gamma)))
            buffered.append(chunk_gen.bit_generator.state.get("has_uint32"))
        assert np.array_equal(np.concatenate(chunks), one)
        assert _same_state(
            chunk_gen.bit_generator.state, one_gen.bit_generator.state
        )
        if buffered[0] is not None:  # MT19937 buffers no half-word
            assert any(buffered)
        assert np.array_equal(
            chunk_gen.integers(0, n, size=9, dtype=np.int32),
            one_gen.integers(0, n, size=9, dtype=np.int32),
        )

    def test_wide_agent_sets_draw_int64(self):
        from repro.core.pooling import _draw_agents

        draws = _draw_agents(np.random.default_rng(0), 2**31 + 1, (4,))
        assert draws.dtype == np.int64


class TestStreamBlockMemory:
    """A block is held narrow, and its transients are chunk-bounded."""

    @pytest.mark.parametrize("n", [10_000, 70_000])
    def test_capped_block_peak_per_draw(self, n):
        import tracemalloc

        from repro.core.batch import DEFAULT_BLOCK_ELEMENTS, MeasurementStream

        gamma = n // 2
        gen = np.random.default_rng(3)
        truth = repro.sample_ground_truth(n, round(n**0.25), gen)
        rows = DEFAULT_BLOCK_ELEMENTS // gamma
        stream = MeasurementStream(
            n, gamma, repro.ZChannel(0.1), truth, gen,
            max_m=rows, initial_block=rows,
        )
        handed = 0
        tracemalloc.start()
        try:
            while (part := stream.next_block()) is not None:
                handed = part[0] + part[1].size - 1
                del part
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert handed == rows
        assert stream.m_done == 0  # a scan stores nothing
        # a whole-block int32 draw plus its intp cast alone would take
        # 12 bytes per draw
        assert peak / (rows * gamma) < 6.0

    def test_retained_block_bytes_per_draw(self):
        # The AMP required-m scan replays stored streams: int32 agent
        # ids and int16 multiplicities (gamma = 5000), one copy each.
        # int64 arrays plus their unconsolidated parts took 25 bytes.
        import tracemalloc

        from repro.core.batch import DEFAULT_BLOCK_ELEMENTS, MeasurementStream

        n = 10_000
        gamma = n // 2
        gen = np.random.default_rng(3)
        truth = repro.sample_ground_truth(n, round(n**0.25), gen)
        rows = DEFAULT_BLOCK_ELEMENTS // gamma
        stream = MeasurementStream(
            n, gamma, repro.ZChannel(0.1), truth, gen,
            max_m=rows, initial_block=rows,
        )
        tracemalloc.start()
        try:
            stream.grow_to(rows)
            indptr, agents, counts, _ = stream.prefix(rows)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (agents.dtype, counts.dtype) == (np.int32, np.int16)
        assert int(counts.sum()) == rows * gamma
        # about 0.79 distinct incidences per draw at gamma = n/2
        assert held / (rows * gamma) < 6.0
        assert peak / (rows * gamma) < 12.0

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_csr_leaves_wide_caller_draws_unmodified(self, dtype):
        from repro.core.pooling import _csr_from_draws

        draws = np.random.default_rng(4).integers(0, 1000, size=(30, 500))
        draws = draws.astype(dtype)
        before = draws.copy()
        for agent_dtype in (np.int64, None):
            _csr_from_draws(draws, 1000, agent_dtype=agent_dtype)
            assert np.array_equal(draws, before)


class TestCsrRowChunks:
    """Calls spanning many row chunks build the same CSR triple.

    Each test shrinks ``_CSR_CHUNK_DRAWS`` so a small call runs the
    chunked two-pass construction over many row chunks (and a stream's
    blocks over many row slices).
    """

    @staticmethod
    def _small_chunks(monkeypatch):
        from repro.core import batch as batch_mod
        from repro.core import pooling as pooling_mod

        for module in (pooling_mod, batch_mod):
            monkeypatch.setattr(module, "_CSR_CHUNK_DRAWS", 2**10)

    def test_multi_chunk_triple_identical_to_reference(self, monkeypatch):
        from repro.core.pooling import _csr_from_draws

        self._small_chunks(monkeypatch)
        for n, m, gamma in [(70_000, 16, 35_000), (1000, 37, 500), (200, 9, 3)]:
            draws = np.random.default_rng(23).integers(0, n, size=(m, gamma))
            got = _csr_from_draws(draws, n)
            for a, b in zip(got, _reference_csr(draws)):
                assert a.dtype == np.int64
                assert np.array_equal(a, b)

    def test_multi_chunk_sampler_seed_identical(self, monkeypatch):
        self._small_chunks(monkeypatch)
        n, m = 70_000, 8
        g1 = sample_pooling_graph(n, m, None, np.random.default_rng(41))
        g2 = sample_pooling_graph_per_query(n, m, None, np.random.default_rng(41))
        assert np.array_equal(g1.indptr, g2.indptr)
        assert np.array_equal(g1.agents, g2.agents)
        assert np.array_equal(g1.counts, g2.counts)

    def test_greedy_required_queries_unchanged_across_chunk_sizes(
        self, monkeypatch
    ):
        runner = BatchTrialRunner(600, 4, repro.ZChannel(0.2))
        default = runner.required_queries_trials(4, seed=11)
        self._small_chunks(monkeypatch)
        chunked = runner.required_queries_trials(4, seed=11)
        assert [r.required_m for r in default] == [r.required_m for r in chunked]
        assert [r.checks for r in default] == [r.checks for r in chunked]
        assert all(r.succeeded for r in default)


class TestRunTrialsSeeded:
    def test_chunked_seeds_match_run_trials(self):
        from repro.core.chunking import chunk_sequence
        from repro.utils.rng import spawn_seeds

        runner = BatchTrialRunner(120, 4, repro.ZChannel(0.2))
        whole = runner.run_trials(60, trials=7, seed=3)
        seeds = spawn_seeds(3, 7)
        chunked = [
            r
            for part in chunk_sequence(seeds, 3)
            for r in runner.run_trials_seeded(60, part)
        ]
        assert len(chunked) == len(whole)
        for a, b in zip(whole, chunked):
            assert a.exact == b.exact
            assert a.overlap == b.overlap
            assert np.array_equal(a.scores, b.scores)
            assert np.array_equal(a.estimate, b.estimate)

    def test_empty_seed_list(self):
        runner = BatchTrialRunner(50, 3)
        assert runner.run_trials_seeded(10, []) == []


class TestRunTrialsEquivalence:
    @pytest.mark.parametrize(
        "channel",
        [
            repro.NoiselessChannel(),
            repro.ZChannel(0.2),
            repro.NoisyChannel(0.1, 0.05),
            repro.GaussianQueryNoise(1.5),
        ],
        ids=["noiseless", "z", "noisy", "gaussian"],
    )
    def test_matches_per_trial_greedy_loop(self, channel):
        n, k, m, trials, seed = 120, 4, 60, 6, 99
        batch = BatchTrialRunner(n, k, channel).run_trials(m, trials, seed=seed)
        for res, gen in zip(batch, spawn_rngs(seed, trials)):
            truth = repro.sample_ground_truth(n, k, gen)
            graph = sample_pooling_graph_per_query(n, m, rng=gen)
            meas = measure(graph, truth, channel, gen)
            legacy = repro.greedy_reconstruct(meas)
            assert np.array_equal(res.estimate, legacy.estimate)
            assert np.array_equal(res.scores, legacy.scores)
            assert res.exact == legacy.exact
            assert res.overlap == legacy.overlap
            assert res.separated == legacy.separated
            assert res.hamming_errors == legacy.hamming_errors

    def test_oracle_centering_matches_legacy(self):
        n, k, m, trials, seed = 150, 5, 100, 4, 3
        channel = repro.NoisyChannel(0.05, 0.05)
        runner = BatchTrialRunner(n, k, channel, centering="oracle")
        batch = runner.run_trials(m, trials, seed=seed)
        for res, gen in zip(batch, spawn_rngs(seed, trials)):
            truth = repro.sample_ground_truth(n, k, gen)
            graph = sample_pooling_graph_per_query(n, m, rng=gen)
            meas = measure(graph, truth, channel, gen)
            legacy = repro.greedy_reconstruct(meas, centering="oracle")
            assert np.array_equal(res.scores, legacy.scores)

    def test_unknown_centering_raises_at_plan_time(self):
        # Every greedy centering stacks, so an unknown centering or
        # greedy keyword is refused when the cell is planned, before
        # any chunk runs.
        from repro.experiments.scheduler import SweepPlan

        channel = repro.ZChannel(0.1)
        with pytest.raises(ValueError, match="unknown centering 'none'"):
            SweepPlan().add_success_curve(
                60, 3, channel, [20], trials=5,
                algorithm_kwargs={"centering": "none"},
            )
        with pytest.raises(TypeError, match="unknown greedy algorithm_kwargs"):
            SweepPlan().add_success_curve(
                60, 3, channel, [20], trials=5,
                algorithm_kwargs={"centring": "oracle"},
            )
        for algorithm in ("greedy", "amp"):
            with pytest.raises(ValueError, match="unknown centering 'none'"):
                SweepPlan().add_required_queries(
                    60, 3, channel, algorithm=algorithm, centering="none"
                )

    def test_success_rate_curve_matches_reference(self):
        kwargs = dict(trials=10, seed=6)
        batch = success_rate_curve(
            100, 3, repro.ZChannel(0.1), [20, 60], **kwargs
        )
        rates, overlaps = fixed_m_curve(
            100, 3, repro.ZChannel(0.1), [20, 60], **kwargs
        )
        assert batch.success_rates == rates
        assert batch.overlaps == overlaps


class TestChunkedRequiredQueries:
    @pytest.mark.parametrize("seed", range(8))
    def test_noiseless_matches_per_query_exactly(self, seed):
        # No per-query noise draws -> the chunked engine consumes the
        # identical RNG stream and must report the identical stopping m.
        seq = lambda: np.random.SeedSequence(seed)  # noqa: E731
        a = required_queries_per_query(
            200, 5, repro.NoiselessChannel(), rng=seq()
        )
        b = required_queries(200, 5, repro.NoiselessChannel(), rng=seq())
        assert a.succeeded and b.succeeded
        assert a.required_m == b.required_m
        assert a.checks == b.checks

    def test_noiseless_check_every_matches_per_query(self):
        for ce in (2, 7, 10):
            a = required_queries_per_query(
                200, 5, repro.NoiselessChannel(),
                rng=np.random.SeedSequence(3), check_every=ce,
            )
            b = required_queries(
                200, 5, repro.NoiselessChannel(),
                rng=np.random.SeedSequence(3), check_every=ce,
            )
            assert a.required_m == b.required_m
            assert a.required_m % ce == 0
            assert a.checks == b.checks

    @pytest.mark.parametrize("seed", range(6))
    def test_block_size_invariance(self, seed):
        # The stopping m is a property of the sampled data, not of how
        # the engine chunks it.
        tiny = BatchTrialRunner(120, 4, initial_block=2, block_elements=60 * 4)
        big = BatchTrialRunner(120, 4, initial_block=64)
        a = tiny.required_queries(np.random.SeedSequence(seed))
        b = big.required_queries(np.random.SeedSequence(seed))
        assert a.required_m == b.required_m
        assert a.checks == b.checks

    def test_noisy_channel_deterministic(self):
        runner = BatchTrialRunner(150, 4, repro.ZChannel(0.2))
        a = runner.required_queries(np.random.SeedSequence(9))
        b = runner.required_queries(np.random.SeedSequence(9))
        assert a.required_m == b.required_m

    def test_budget_exhaustion_reports_failure(self):
        runner = BatchTrialRunner(200, 5, repro.ZChannel(0.1))
        res = runner.required_queries(np.random.SeedSequence(3), max_m=2)
        assert not res.succeeded
        assert res.required_m is None
        assert res.meta["max_m"] == 2

    def test_provided_truth_is_used(self, rng):
        truth = repro.sample_ground_truth(100, 4, rng)
        runner = BatchTrialRunner(100, 4)
        res = runner.required_queries(rng, truth=truth)
        assert res.succeeded

    def test_unknown_engine_rejected(self):
        # one simulator per cell kind: no engine is selectable
        for engine in ("warp", "batch", "legacy"):
            with pytest.raises(TypeError, match="engine"):
                required_queries(100, 3, rng=0, engine=engine)

    def test_trials_helper_runs_all(self):
        runner = BatchTrialRunner(100, 3, repro.ZChannel(0.1))
        out = runner.required_queries_trials(4, seed=0)
        assert len(out) == 4
        assert all(r.succeeded for r in out)

    def test_runner_trials_match_per_query_noiseless(self):
        a = required_queries_trials(
            150, 4, repro.NoiselessChannel(), trials=5, seed=1
        )
        b = [
            required_queries_per_query(150, 4, repro.NoiselessChannel(), gen)
            for gen in spawn_rngs(1, 5)
        ]
        assert a.values == [r.required_m for r in b if r.succeeded]


#: (n, k, channel, trials) per cell of the estimator-agreement test; the
#: NoisyChannel cell is smaller because its required m, and so the
#: per-query loop's cost per trial, is several times the others'
AGREEMENT_CELLS = {
    "z": (120, 3, repro.ZChannel(0.1), 150),
    "gaussian": (120, 3, repro.GaussianQueryNoise(1.0), 150),
    "noisy": (100, 3, repro.NoisyChannel(0.1, 0.02), 120),
}


@pytest.fixture(scope="module", params=list(AGREEMENT_CELLS))
def required_m_samples(request):
    """Both greedy required-m estimators on one cell, disjoint seeds.

    Channels that draw per-query noise consume the generator in block
    order under the chunked simulator, so the two are not seed-for-seed
    equal there: each sample is run once and compared in distribution.
    """
    n, k, channel, trials = AGREEMENT_CELLS[request.param]
    chunked = required_queries_trials(n, k, channel, trials=trials, seed=0)
    per_query = [
        required_queries_per_query(n, k, channel, gen)
        for gen in spawn_rngs(1, trials)
    ]
    return chunked, per_query


class TestEstimatorAgreement:
    def test_required_m_distributions_agree(self, required_m_samples):
        from scipy.stats import ks_2samp

        chunked, per_query = required_m_samples
        values = [r.required_m for r in per_query if r.succeeded]
        assert ks_2samp(chunked.values, values).pvalue > 1e-3

    def test_failure_counts_agree(self, required_m_samples):
        chunked, per_query = required_m_samples
        failures = sum(not r.succeeded for r in per_query)
        assert abs(chunked.failures - failures) <= 3


class TestFirstSuccessM:
    @pytest.mark.parametrize(
        "channel",
        [repro.NoiselessChannel(), repro.ZChannel(0.2), repro.NoisyChannel(0.1, 0.05)],
        ids=["noiseless", "z", "noisy"],
    )
    def test_matches_per_query_decoder(self, channel):
        # Replay the same measured data through both engines: the
        # decode path draws no randomness, so every channel must agree
        # exactly on graphs, scores and stopping m.
        gen = np.random.default_rng(17)
        truth = repro.sample_ground_truth(150, 5, gen)
        graph = sample_pooling_graph(150, 600, rng=gen)
        meas = measure(graph, truth, channel, gen)
        dec = IncrementalDecoder(truth, channel)
        ref = None
        for j in range(graph.m):
            agents, counts = graph.query(j)
            dec.ingest_query(agents, counts, float(meas.results[j]))
            if ref is None and dec.is_successful():
                ref = dec.m
        assert ref is not None
        assert first_success_m(graph, truth, meas.results) == ref

    def test_respects_check_every(self):
        gen = np.random.default_rng(23)
        truth = repro.sample_ground_truth(100, 4, gen)
        graph = sample_pooling_graph(100, 300, rng=gen)
        meas = measure(graph, truth, repro.ZChannel(0.3), gen)
        fine = first_success_m(graph, truth, meas.results, check_every=1)
        coarse = first_success_m(graph, truth, meas.results, check_every=10)
        assert coarse >= fine
        assert coarse % 10 == 0

    def test_never_separating_returns_none(self):
        gen = np.random.default_rng(29)
        truth = repro.sample_ground_truth(100, 4, gen)
        graph = sample_pooling_graph(100, 10, rng=gen)
        # Constant results carry no information: all scores collapse.
        results = np.zeros(graph.m)
        assert first_success_m(graph, truth, results) is None

    def test_oracle_centering_requires_channel(self):
        gen = np.random.default_rng(31)
        truth = repro.sample_ground_truth(50, 3, gen)
        graph = sample_pooling_graph(50, 20, rng=gen)
        with pytest.raises(ValueError):
            first_success_m(graph, truth, np.zeros(20), centering="oracle")


def _whole_block_required_queries(runner, seed, max_m, check_every):
    """Reference greedy run: each block drawn, measured and scanned whole.

    Every checkable prefix gets the exact separation test; scores group
    per block (query-by-query inside a block, ``s + sum(block)`` across
    blocks), the grouping the scanner promises. The certificate only
    skips prefixes that cannot separate, so its stop is this one.
    """
    from repro.core.batch import DEFAULT_BLOCK_ELEMENTS, DEFAULT_INITIAL_BLOCK

    n, k, gamma = runner.n, runner.k, runner.gamma
    gen = np.random.default_rng(seed)
    truth = repro.sample_ground_truth(n, k, gen)
    offset = runner.offset
    cap = max(1, DEFAULT_BLOCK_ELEMENTS // max(gamma, k, 1))
    size = min(DEFAULT_INITIAL_BLOCK, cap)
    scores = np.zeros(n)
    m = checks = 0
    while m < max_m:
        b = min(size, max_m - m)
        draws = gen.integers(0, n, size=(b, gamma))
        results = runner.channel.measure(
            truth.sigma[draws].sum(axis=1), gamma, gen
        )
        partial = np.zeros(n)
        for row, result in zip(draws, results):
            m += 1
            partial[np.unique(row)] += result - offset
            if m % check_every == 0:
                checks += 1
                s = scores + partial
                if s[truth.ones].min() > s[truth.zeros].max():
                    return m, checks
        scores += partial
        size = min(size * 2, cap)
    return None, checks


def _stop_position(runner, required_m, max_m):
    """Where a stop falls among its block's row slices."""
    from repro.core import batch as batch_mod
    from repro.core.chunking import chunk_bounds

    cap = max(1, batch_mod.DEFAULT_BLOCK_ELEMENTS // max(runner.gamma, runner.k))
    lo, size = 0, min(batch_mod.DEFAULT_INITIAL_BLOCK, cap)
    while lo + size < required_m:
        lo, size = lo + size, min(size * 2, cap)
    size = min(size, max_m - lo)
    slices = chunk_bounds(
        size, -(-size * runner.gamma // batch_mod._CSR_CHUNK_DRAWS)
    )
    if len(slices) < 3:
        return None
    row = required_m - 1 - lo
    i = next(i for i, (r0, r1) in enumerate(slices) if r0 <= row < r1)
    return "first" if i == 0 else "last" if i == len(slices) - 1 else "middle"


class TestSlicedStreamScan:
    """The streaming scan hands blocks out in row slices and stops early.

    Draws and measurements stay whole-block and scores group per block,
    so outputs equal a whole-block scan for every channel and centering.
    """

    N, K, MAX_M = 240, 4, 2500

    @pytest.mark.parametrize(
        "channel",
        [
            repro.ZChannel(0.1),
            repro.NoisyChannel(0.1, 0.01),
            repro.GaussianQueryNoise(1.5),
            repro.NoiselessChannel(),
        ],
        ids=["z", "noisy", "gaussian", "noiseless"],
    )
    def test_matches_whole_block_scan(self, channel, monkeypatch):
        from repro.core import batch as batch_mod

        positions = set()
        for centering in ("half_k", "oracle"):
            for gamma in (self.N // 2, 12):
                runner = BatchTrialRunner(
                    self.N, self.K, channel, gamma=gamma, centering=centering
                )
                for check_every in (1, 3):
                    for seed in range(3):
                        ref = _whole_block_required_queries(
                            runner, seed, self.MAX_M, check_every
                        )
                        # Several slicings of the same blocks move the
                        # stop between first, middle and last slices.
                        for rows in (2, 21, 40):
                            monkeypatch.setattr(
                                batch_mod, "_CSR_CHUNK_DRAWS", rows * gamma
                            )
                            got = runner.required_queries(
                                seed, max_m=self.MAX_M, check_every=check_every
                            )
                            assert (got.required_m, got.checks) == ref
                            if got.succeeded:
                                positions.add(
                                    _stop_position(
                                        runner, got.required_m, self.MAX_M
                                    )
                                )
        assert {"first", "middle", "last"} <= positions

    def test_scores_group_per_block_not_per_slice(self):
        # Float deltas expose any regrouping: a block fed in slices must
        # leave the scanner's scores bit-identical to one whole feed.
        from repro.core.batch import _SuccessScanner, _rows_of

        gen = np.random.default_rng(11)
        truth = repro.sample_ground_truth(self.N, self.K, gen)
        graph = sample_pooling_graph(self.N, 90, 60, gen)
        deltas = gen.normal(size=graph.m) / 3.0
        never = np.zeros(graph.m, dtype=bool)

        def feed(scanner, lo, hi, block_end):
            e_lo, e_hi = graph.indptr[lo], graph.indptr[hi]
            indptr = graph.indptr[lo : hi + 1] - e_lo
            agents = graph.agents[e_lo:e_hi]
            ones = np.flatnonzero(truth.sigma[agents])
            assert scanner.scan(
                indptr, agents, deltas[lo:hi], never[lo:hi],
                _rows_of(indptr, ones), agents[ones], block_end=block_end,
            ) is None

        whole, sliced = _SuccessScanner(truth), _SuccessScanner(truth)
        for lo, hi in ((0, 30), (30, 90)):
            feed(whole, lo, hi, True)
        for lo, hi, end in ((0, 7, False), (7, 30, True), (30, 31, False),
                            (31, 64, False), (64, 90, True)):
            feed(sliced, lo, hi, end)
        assert np.array_equal(whole.scores, sliced.scores)

    def test_builds_csr_only_up_to_the_stopping_slice(self, monkeypatch):
        from repro.core import batch as batch_mod

        n, k, gamma = 400, 4, 200
        chunk_rows = 16
        monkeypatch.setattr(batch_mod, "_CSR_CHUNK_DRAWS", chunk_rows * gamma)
        csr_rows, draw_shapes = [], []
        csr_from_draws = batch_mod._csr_from_draws
        draw_agents = batch_mod._draw_agents

        def spy_csr(draws, *args, **kwargs):
            csr_rows.append(draws.shape[0])
            return csr_from_draws(draws, *args, **kwargs)

        def spy_draw(gen, n_, shape):
            draw_shapes.append(tuple(shape))
            return draw_agents(gen, n_, shape)

        monkeypatch.setattr(batch_mod, "_csr_from_draws", spy_csr)
        monkeypatch.setattr(batch_mod, "_draw_agents", spy_draw)
        runner = BatchTrialRunner(n, k, repro.ZChannel(0.1), gamma=gamma)
        res = runner.required_queries(np.random.SeedSequence(5))
        assert res.succeeded
        assert max(csr_rows) <= chunk_rows
        assert sum(csr_rows) <= res.required_m + chunk_rows
        # The block schedule: doubling from the initial block, up to
        # the block holding the stop. Each block is drawn whole, in row
        # chunks of at most _CSR_CHUNK_DRAWS draws that sum to its size.
        assert all(g == gamma and rows <= chunk_rows for rows, g in draw_shapes)
        cap = batch_mod.DEFAULT_BLOCK_ELEMENTS // gamma
        expected, lo, size = [], 0, batch_mod.DEFAULT_INITIAL_BLOCK
        while lo < res.required_m:
            expected.append(size)
            lo, size = lo + size, min(size * 2, cap)
        drawn = iter(rows for rows, _ in draw_shapes)
        for size in expected:
            total = 0
            while total < size:
                total += next(drawn)
            assert total == size
        assert next(drawn, None) is None
        # The stop is past the first slice of a multi-slice block, so
        # the early exit is what the row bound above checks.
        assert expected[-1] > chunk_rows
        assert sum(csr_rows) < sum(expected)


class TestSessionStream:
    """A decode session's stream: a QueryStream fed by validated appends."""

    def _stream(self, n=60, gamma=30, seed=0):
        from repro.core.batch import QueryStream

        gen = np.random.default_rng(seed)
        truth = repro.sample_ground_truth(n, 3, gen)
        return QueryStream(n, gamma, truth), gen

    def _queries(self, stream, gen, count):
        channel = repro.ZChannel(0.1)
        return [
            measured_query(stream.n, stream.gamma, stream.truth.sigma, channel, gen)
            for _ in range(count)
        ]

    @staticmethod
    def _append(stream, agents, counts, result):
        stream.append([0, len(agents)], agents, counts, [result])

    def test_append_validation(self):
        stream, _ = self._stream()
        with pytest.raises(ValueError, match="equal length"):
            self._append(stream, [0, 1], [30], 1.0)
        with pytest.raises(ValueError, match="sum to gamma"):
            self._append(stream, [0], [7], 1.0)
        with pytest.raises(ValueError, match=r"lie in \[0"):
            self._append(stream, [60], [30], 1.0)
        with pytest.raises(ValueError, match=">= 1"):
            self._append(stream, [0, 1], [31, -1], 1.0)
        assert stream.m_done == 0

    def test_append_rejects_repeated_agents_and_non_finite_results(self):
        stream, _ = self._stream()
        with pytest.raises(ValueError, match="distinct"):
            self._append(stream, [0, 0, 5], [10, 10, 10], 2.0)
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                self._append(stream, [0, 5], [20, 10], bad)
        # the same agent in two different queries is fine
        stream.append([0, 2, 4], [0, 5, 0, 5], [20, 10, 20, 10], [1.0, 2.0])
        assert stream.m_done == 2

    def test_block_append_is_all_or_nothing(self):
        stream, _ = self._stream()
        with pytest.raises(ValueError, match=r"lie in \[0"):
            stream.append([0, 2, 4], [0, 5, 0, 99], [20, 10, 20, 10], [2.0, 1.0])
        assert stream.m_done == 0
        assert stream.indptr.tolist() == [0]
        assert stream.results.size == 0

    def test_prefix_matches_per_query_appends(self):
        # Feeding a generator stream's rows through append reproduces
        # its consolidated CSR arrays bit for bit: a session's stream is
        # a faithful wire-fed twin of a grown MeasurementStream.
        from repro.core.batch import MeasurementStream, QueryStream

        n, gamma, m = 50, 25, 30
        gen = np.random.default_rng(5)
        truth = repro.sample_ground_truth(n, 2, gen)
        source = MeasurementStream(
            n, gamma, repro.ZChannel(0.2), truth, gen, max_m=m
        )
        source.grow_to(m)
        twin = QueryStream(n, gamma, truth)
        for i in range(m):
            lo, hi = int(source.indptr[i]), int(source.indptr[i + 1])
            self._append(
                twin,
                source.agents[lo:hi],
                source.counts[lo:hi],
                float(source.results[i]),
            )
        assert np.array_equal(twin.indptr, source.indptr[: m + 1])
        assert np.array_equal(twin.agents, source.agents[: int(source.indptr[m])])
        assert np.array_equal(twin.counts, source.counts[: int(source.indptr[m])])
        assert np.array_equal(twin.results, source.results[:m])
        for a, b in zip(twin.prefix(17), source.prefix(17)):
            assert np.array_equal(a, b)

    def test_append_after_replay_is_pure(self):
        # Grown straight through vs checkpointed/replayed/grown-further:
        # identical arrays, identical stacked-AMP decode. This is the
        # service's crash-recovery foundation.
        from repro.amp.batch_amp import decode_prefix_batch
        from repro.core.batch import QueryStream

        straight, gen = self._stream(seed=7)
        queries = self._queries(straight, gen, 40)
        for agents, counts, result in queries:
            self._append(straight, agents, counts, result)

        # "checkpoint" after 25: replay the recorded arrays into a fresh
        # stream in one block, then keep appending the live tail.
        resumed = QueryStream(straight.n, straight.gamma, straight.truth)
        for agents, counts, result in queries[:25]:
            self._append(resumed, agents, counts, result)
        indptr, agents_arr, counts_arr, results_arr = (
            np.array(a) for a in resumed.prefix(25)
        )
        replayed = QueryStream(straight.n, straight.gamma, straight.truth)
        replayed.append(indptr, agents_arr, counts_arr, results_arr)
        for agents, counts, result in queries[25:]:
            self._append(replayed, agents, counts, result)

        assert np.array_equal(replayed.indptr, straight.indptr)
        assert np.array_equal(replayed.agents, straight.agents)
        assert np.array_equal(replayed.counts, straight.counts)
        assert np.array_equal(replayed.results, straight.results)

        exact_a, scores_a = decode_prefix_batch(
            [(0, 40)], [straight], straight.n, straight.truth.k,
            repro.ZChannel(0.1), gamma=straight.gamma,
        )
        exact_b, scores_b = decode_prefix_batch(
            [(0, 40)], [replayed], straight.n, straight.truth.k,
            repro.ZChannel(0.1), gamma=straight.gamma,
        )
        assert np.array_equal(exact_a, exact_b)
        assert np.array_equal(scores_a, scores_b)

    def test_grow_to_is_bounded_by_appends(self):
        stream, gen = self._stream()
        for agents, counts, result in self._queries(stream, gen, 6):
            self._append(stream, agents, counts, result)
        stream.grow_to(6)  # no-op within the appended length
        stream.grow_to(0)
        with pytest.raises(ValueError, match=r"cannot[\s\S]*grow"):
            stream.grow_to(7)
        with pytest.raises(ValueError, match="exceeds the stored"):
            stream.prefix(7)

    def test_consolidation_invalidated_by_append(self):
        stream, gen = self._stream()
        queries = self._queries(stream, gen, 4)
        for agents, counts, result in queries[:2]:
            self._append(stream, agents, counts, result)
        first = stream.indptr
        assert first.size == 3
        for agents, counts, result in queries[2:]:
            self._append(stream, agents, counts, result)
        assert stream.indptr.size == 5
        # The earlier consolidated array is untouched (snapshots taken
        # by in-flight decodes stay valid).
        assert first.size == 3

    def test_snapshot_aliases_the_prefix_and_ignores_later_appends(self):
        stream, gen = self._stream()
        queries = self._queries(stream, gen, 5)
        for agents, counts, result in queries[:4]:
            self._append(stream, agents, counts, result)
        views = stream.prefix(3)
        snap = stream.snapshot(3)
        assert snap.m_done == 3
        for view, got in zip(views, snap.prefix(3)):
            assert np.shares_memory(view, got)  # no copy
            assert np.array_equal(view, got)
        self._append(stream, *queries[4])
        assert snap.m_done == 3 and snap.indptr.size == 4
        with pytest.raises(ValueError, match="exceeds the stored"):
            snap.prefix(4)
