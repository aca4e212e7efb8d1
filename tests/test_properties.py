"""Property-based tests (hypothesis) on core invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.scores import separation_margin, top_k_estimate
from repro.core.types import evaluate_estimate
from repro.distributed.sorting import apply_schedule, odd_even_mergesort
from repro.experiments.stats import boxplot_stats
from repro.theory.concentration import (
    chernoff_lower_tail,
    chernoff_upper_tail,
    gaussian_tail_exact,
    gaussian_tail_lower,
    gaussian_tail_upper,
)

from reference import rows_repeat_an_agent, sample_pooling_graph_per_query

# Keep the per-test example budget modest: every example builds real
# numpy structures, and the suite runs hundreds of tests.
COMMON_SETTINGS = settings(max_examples=40, deadline=None)


@COMMON_SETTINGS
@given(
    n=st.integers(2, 80),
    gamma=st.integers(1, 120),
    seed=st.integers(0, 2**31 - 1),
)
def test_sampled_query_mass_conservation(n, gamma, seed):
    agents, counts = repro.sample_pooling_graph(n, 1, gamma, rng=seed).query(0)
    assert counts.sum() == gamma
    assert agents.size == np.unique(agents).size
    assert np.all(np.diff(agents) > 0)
    assert np.all((0 <= agents) & (agents < n))
    assert np.all(counts >= 1)


@COMMON_SETTINGS
@given(
    n=st.integers(2, 50),
    m=st.integers(0, 25),
    seed=st.integers(0, 2**31 - 1),
)
def test_pooling_graph_degree_identities(n, m, seed):
    g = repro.sample_pooling_graph(n, m, rng=seed)
    delta = g.multi_degrees()
    delta_star = g.distinct_degrees()
    assert delta.sum() == m * g.gamma
    assert np.all(delta_star <= delta)
    assert np.all(delta_star <= m)
    assert np.array_equal(g.query_sizes(), np.full(m, g.gamma))


@COMMON_SETTINGS
@given(
    n=st.integers(2, 50),
    m=st.integers(1, 20),
    seed=st.integers(0, 2**31 - 1),
    data=st.data(),
)
def test_query_sizes_sum_to_total_edges_across_designs(n, m, seed, data):
    """query_sizes().sum() == total_edges for every pooling design."""
    gamma = data.draw(st.integers(1, 40))
    agent_degree = data.draw(st.integers(1, m))
    graphs = [
        repro.sample_pooling_graph(n, m, gamma, rng=seed),
        sample_pooling_graph_per_query(n, m, gamma, rng=seed),
        repro.sample_pooling_graph(
            n, m, min(gamma, n), rng=seed, with_replacement=False
        ),
        repro.sample_regular_design(n, m, agent_degree, rng=seed),
    ]
    for g in graphs:
        sizes = g.query_sizes()
        assert sizes.sum() == g.total_edges
        assert sizes.shape == (g.m,)
        assert np.all(sizes >= 0)
    # the fixed-size designs additionally have all sizes equal gamma
    assert np.all(graphs[0].query_sizes() == gamma)
    assert np.all(graphs[1].query_sizes() == gamma)
    # the regular design conserves total mass n * agent_degree
    assert graphs[3].total_edges == n * agent_degree


@COMMON_SETTINGS
@given(
    n=st.integers(1, 60),
    k_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**31 - 1),
)
def test_ground_truth_weight_invariant(n, k_frac, seed):
    k = int(round(k_frac * n))
    truth = repro.sample_ground_truth(n, k, seed)
    assert truth.sigma.sum() == k
    assert truth.ones.size == k
    assert truth.zeros.size == n - k


@COMMON_SETTINGS
@given(
    # Integer-valued scores and bounded shifts: distinct scores differ by
    # >= 1, so float rounding of the shift cannot reorder or merge them
    # (absorption like 1e-61 + 1.0 == 1.0 is out of scope for the
    # decoder, whose scores are query-result sums of moderate size).
    scores=st.lists(
        st.integers(-10**6, 10**6).map(float), min_size=1, max_size=60
    ),
    shift=st.floats(-1e5, 1e5),
    data=st.data(),
)
def test_top_k_translation_invariance(scores, shift, data):
    scores = np.asarray(scores)
    k = data.draw(st.integers(0, scores.size))
    base = top_k_estimate(scores, k)
    shifted = top_k_estimate(scores + shift, k)
    assert base.sum() == k
    assert np.array_equal(base, shifted)


@COMMON_SETTINGS
@given(
    scores=st.lists(st.floats(-100, 100), min_size=2, max_size=60),
    data=st.data(),
)
def test_strict_separation_implies_topk_exact(scores, data):
    scores = np.asarray(scores)
    n = scores.size
    k = data.draw(st.integers(1, n - 1))
    sigma = top_k_estimate(scores, k)  # treat the top-k as ground truth
    if separation_margin(scores, sigma) > 0:
        out = evaluate_estimate(top_k_estimate(scores, k), sigma, scores)
        assert out["exact"]


@COMMON_SETTINGS
@given(
    est=st.lists(st.integers(0, 1), min_size=1, max_size=60),
    truth=st.lists(st.integers(0, 1), min_size=1, max_size=60),
)
def test_evaluate_estimate_ranges(est, truth):
    size = min(len(est), len(truth))
    est_arr = np.asarray(est[:size])
    truth_arr = np.asarray(truth[:size])
    out = evaluate_estimate(est_arr, truth_arr)
    assert 0.0 <= out["overlap"] <= 1.0
    assert 0 <= out["hamming_errors"] <= size
    assert out["exact"] == (out["hamming_errors"] == 0)


@COMMON_SETTINGS
@given(
    keys=st.lists(st.integers(-1000, 1000), min_size=1, max_size=40),
)
def test_odd_even_mergesort_sorts_anything(keys):
    schedule = odd_even_mergesort(len(keys))
    assert apply_schedule(keys, schedule) == sorted(keys)


@COMMON_SETTINGS
@given(
    e1=st.integers(0, 200),
    gamma=st.integers(200, 400),
    p=st.floats(0.0, 0.8),
    q=st.floats(0.0, 0.19),
    seed=st.integers(0, 2**31 - 1),
)
def test_noisy_channel_result_range(e1, gamma, p, q, seed):
    if p + q >= 1.0:
        return
    channel = repro.NoisyChannel(p, q)
    result = channel.measure(np.asarray([e1]), gamma, seed)[0]
    assert 0 <= result <= gamma
    if q == 0.0:
        assert result <= e1  # Z-channel can only lose ones


@COMMON_SETTINGS
@given(
    p1=st.floats(0.0, 0.45),
    p2=st.floats(0.46, 0.9),
    n=st.integers(10, 10_000),
    theta=st.floats(0.05, 0.95),
)
def test_theorem1_z_monotone_in_p(p1, p2, n, theta):
    lo = repro.theorem1_sublinear_z(n, theta, p1)
    hi = repro.theorem1_sublinear_z(n, theta, p2)
    assert hi > lo


@COMMON_SETTINGS
@given(
    eps=st.floats(0.01, 5.0),
    mean1=st.floats(0.1, 100.0),
    mean2=st.floats(100.1, 10_000.0),
)
def test_chernoff_monotone_in_mean(eps, mean1, mean2):
    assert chernoff_upper_tail(eps, mean2) <= chernoff_upper_tail(eps, mean1)
    assert chernoff_lower_tail(eps, mean2) <= chernoff_lower_tail(eps, mean1)
    for mean in (mean1, mean2):
        assert 0.0 <= chernoff_upper_tail(eps, mean) <= 1.0


@COMMON_SETTINGS
@given(y=st.floats(0.1, 50.0), lam=st.floats(0.1, 10.0))
def test_gaussian_tail_sandwich(y, lam):
    exact = gaussian_tail_exact(y, lam)
    assert gaussian_tail_lower(y, lam) <= exact + 1e-12
    assert exact <= gaussian_tail_upper(y, lam) + 1e-12


@COMMON_SETTINGS
@given(
    values=st.lists(st.floats(-1e5, 1e5), min_size=1, max_size=80),
)
def test_boxplot_stats_ordering(values):
    stats = boxplot_stats(values)
    assert stats.whisker_low <= stats.q1 <= stats.median <= stats.q3
    assert stats.q3 <= stats.whisker_high
    assert stats.count == len(values)
    arr = np.asarray(values)
    assert arr.min() <= stats.whisker_low
    assert stats.whisker_high <= arr.max()


@COMMON_SETTINGS
@given(
    n=st.integers(2, 40),
    m=st.integers(1, 15),
    seed=st.integers(0, 2**31 - 1),
)
def test_neighborhood_sums_linear_in_results(n, m, seed):
    g = repro.sample_pooling_graph(n, m, rng=seed)
    gen = np.random.default_rng(seed)
    r1 = gen.normal(size=m)
    r2 = gen.normal(size=m)
    psi1 = g.neighborhood_sums(r1)
    psi2 = g.neighborhood_sums(r2)
    combined = g.neighborhood_sums(2.0 * r1 + 3.0 * r2)
    assert np.allclose(combined, 2.0 * psi1 + 3.0 * psi2)


@COMMON_SETTINGS
@given(
    n=st.integers(4, 40),
    seed=st.integers(0, 2**31 - 1),
)
def test_greedy_estimate_weight_always_k(n, seed):
    gen = np.random.default_rng(seed)
    k = int(gen.integers(1, n))
    truth = repro.sample_ground_truth(n, k, gen)
    graph = repro.sample_pooling_graph(n, 5, rng=gen)
    meas = repro.measure(graph, truth, repro.ZChannel(0.3), gen)
    result = repro.greedy_reconstruct(meas)
    assert int(result.estimate.sum()) == k


@COMMON_SETTINGS
@given(
    n=st.integers(2, 6),
    rows=st.lists(
        st.lists(st.integers(0, 5), min_size=1, max_size=5), max_size=6
    ),
    sort_rows=st.booleans(),
)
def test_stream_repeat_check_matches_lexsort(n, rows, sort_rows):
    # QueryStream.append rejects a block whose row repeats an agent
    # exactly when the lexsort reference says so, whether its rows
    # ascend (the one-pass check) or not (the sorted-key fallback).
    from repro.core.batch import QueryStream

    gamma = 5
    rows = [[a % n for a in row] for row in rows]
    if sort_rows:
        rows = [sorted(row) for row in rows]
    indptr = np.cumsum([0] + [len(row) for row in rows])
    agents = np.array([a for row in rows for a in row], dtype=np.int64)
    # each row's counts: ones, then what is left of gamma
    counts = np.concatenate([[0]] + [
        [1] * (len(row) - 1) + [gamma + 1 - len(row)] for row in rows
    ])[1:]
    truth = repro.sample_ground_truth(n, 1, rng=0)
    stream = QueryStream(n, gamma, truth)
    try:
        stream.append(indptr, agents, counts, np.zeros(len(rows)))
        accepted = True
    except ValueError as exc:
        assert "distinct" in str(exc)
        accepted = False
    assert accepted is not rows_repeat_an_agent(indptr, agents)
    assert stream.m_done == (len(rows) if accepted else 0)

