"""Property tests for the measurement-corruption model (PR 8).

Invariants of :mod:`repro.core.corruption`: the null model is a
bit-identical no-op, dropped queries never invent edges (the corrupted
graph is a row-subset of the original), flip counts concentrate at the
nominal rate, realizations are pure functions of ``(model, seed)``
(the backend/chunk-layout half of this contract lives in
``tests/test_fault_sweeps.py``), and the dedicated fault streams are
derived without mutating the trial seed.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.corruption import (
    CORRUPTION_STREAM_KEY,
    NETWORK_STREAM_KEY,
    CorruptionModel,
    FaultSpec,
    apply_corruption,
    corruption_rng,
    fault_stream,
    network_fault_rng,
)


def _measurements(n=80, k=4, m=120, seed=0, channel=None):
    gen = np.random.default_rng(seed)
    truth = repro.sample_ground_truth(n, k, gen)
    graph = repro.sample_pooling_graph(n, m, rng=gen)
    return repro.measure(graph, truth, channel or repro.ZChannel(0.1), gen)


# -- null model / no-op guarantee ---------------------------------------


def test_null_model_returns_the_same_object():
    meas = _measurements()
    report = apply_corruption(meas, CorruptionModel(), corruption_rng(1))
    assert report.measurements is meas
    assert report.kept.all()
    assert report.results_full is meas.results
    assert report.dropped_queries == 0


def test_none_model_is_also_a_noop():
    meas = _measurements()
    assert apply_corruption(meas, None, corruption_rng(1)).measurements is meas


def test_null_model_consumes_no_draws():
    # A null model must not advance the generator — a sweep cell with
    # corruption=None and one with the null model are the same cell.
    rng = corruption_rng(7)
    apply_corruption(_measurements(), CorruptionModel(), rng)
    fresh = corruption_rng(7)
    assert rng.random() == fresh.random()


def test_zero_rate_stages_consume_no_draws():
    # Only active stages draw: a flip-only model's realization must not
    # depend on whether the erasure/outlier/dead stages exist at all.
    meas = _measurements()
    a = apply_corruption(meas, CorruptionModel(flip_rate=0.3), corruption_rng(5))
    rng = corruption_rng(5)
    flip_mask = rng.random(meas.graph.m) < 0.3
    assert a.flipped == int(flip_mask.sum())


# -- determinism --------------------------------------------------------


@pytest.mark.parametrize(
    "model",
    [
        CorruptionModel(flip_rate=0.2),
        CorruptionModel(erasure_rate=0.3),
        CorruptionModel(outlier_rate=0.2, outlier_scale=3.0),
        CorruptionModel(dead_agent_rate=0.1),
        CorruptionModel(
            flip_rate=0.1, erasure_rate=0.1, outlier_rate=0.1,
            dead_agent_rate=0.05,
        ),
    ],
    ids=["flip", "erasure", "outlier", "dead", "all"],
)
def test_realization_is_a_pure_function_of_the_seed(model):
    meas = _measurements()
    seq = np.random.SeedSequence(99, spawn_key=(3,))
    a = apply_corruption(meas, model, corruption_rng(seq))
    b = apply_corruption(meas, model, corruption_rng(seq))
    assert np.array_equal(a.kept, b.kept)
    assert np.array_equal(a.results_full, b.results_full)
    assert np.array_equal(a.measurements.results, b.measurements.results)
    assert np.array_equal(
        a.measurements.graph.indptr, b.measurements.graph.indptr
    )
    assert np.array_equal(
        a.measurements.graph.agents, b.measurements.graph.agents
    )


@pytest.mark.parametrize(
    "model",
    [
        CorruptionModel(flip_rate=0.2),
        CorruptionModel(erasure_rate=0.3),
        CorruptionModel(outlier_rate=0.2, outlier_scale=3.0),
        CorruptionModel(dead_agent_rate=0.1),
        CorruptionModel(
            flip_rate=0.1, erasure_rate=0.1, outlier_rate=0.1,
            dead_agent_rate=0.05,
        ),
    ],
    ids=["flip", "erasure", "outlier", "dead", "all"],
)
def test_prefix_corruption_does_not_depend_on_stream_length(model):
    # Query j's corruption is drawn from its own row of uniforms, so
    # corrupting the first q queries of a stream gives the same
    # realization whether the stream holds q, m or m' > m queries —
    # a required-m value does not depend on its max_m budget.
    q = 70
    full = _measurements(m=300, seed=6)
    seq = np.random.SeedSequence(31, spawn_key=(4,))
    reports = []
    for m in (q, 150, 300):
        head = repro.Measurements(
            graph=full.graph.head(m), truth=full.truth,
            channel=full.channel, results=full.results[:m],
        )
        reports.append(apply_corruption(head, model, corruption_rng(seq)))
    first = reports[0]
    for report in reports[1:]:
        assert np.array_equal(report.kept[:q], first.kept)
        assert np.array_equal(report.results_full[:q], first.results_full)


def test_fault_stream_does_not_mutate_the_trial_seed():
    seq = np.random.SeedSequence(42)
    before = seq.spawn_key
    n_children = seq.n_children_spawned
    fault_stream(seq, CORRUPTION_STREAM_KEY)
    corruption_rng(seq)
    network_fault_rng(seq)
    assert seq.spawn_key == before
    assert seq.n_children_spawned == n_children
    # Deriving the stream leaves the trial generator's draws unchanged.
    assert (
        np.random.default_rng(seq).random()
        == np.random.default_rng(np.random.SeedSequence(42)).random()
    )


def test_corruption_and_network_streams_are_distinct():
    seq = np.random.SeedSequence(11, spawn_key=(2,))
    assert corruption_rng(seq).random() != network_fault_rng(seq).random()
    assert CORRUPTION_STREAM_KEY != NETWORK_STREAM_KEY


def test_fault_stream_never_collides_with_spawned_children():
    # spawn() hands out ascending small integers as spawn-key suffixes;
    # the stream tags are large constants, so a trial's corruption
    # stream can never equal one of its spawned children.
    seq = np.random.SeedSequence(5)
    children = seq.spawn(10)
    stream = fault_stream(seq, CORRUPTION_STREAM_KEY)
    assert all(child.spawn_key != stream.spawn_key for child in children)


# -- structural invariants ----------------------------------------------


def _row(graph, j):
    return graph.agents[graph.indptr[j]:graph.indptr[j + 1]]


@pytest.mark.parametrize(
    "model",
    [
        CorruptionModel(erasure_rate=0.4),
        CorruptionModel(dead_agent_rate=0.15),
        CorruptionModel(erasure_rate=0.2, dead_agent_rate=0.1),
    ],
    ids=["erasure", "dead", "both"],
)
def test_dropped_queries_never_invent_edges(model):
    # The corrupted graph is exactly the kept rows of the original, in
    # order — no new agents, counts, or reordering.
    meas = _measurements(m=90, seed=3)
    report = apply_corruption(meas, model, corruption_rng(8))
    graph, corrupted = meas.graph, report.measurements.graph
    kept_indices = np.flatnonzero(report.kept)
    assert corrupted.m == len(kept_indices)
    assert corrupted.n == graph.n and corrupted.gamma == graph.gamma
    for new_j, old_j in enumerate(kept_indices):
        assert np.array_equal(_row(corrupted, new_j), _row(graph, old_j))
    assert report.dropped_queries == meas.graph.m - len(kept_indices)
    assert len(report.measurements.results) == corrupted.m


def test_dead_agents_drop_every_touching_query():
    meas = _measurements(n=40, m=60, seed=4)
    model = CorruptionModel(dead_agent_rate=0.2)
    report = apply_corruption(meas, model, corruption_rng(21))
    dead = corruption_rng(21).random(meas.graph.n) < 0.2
    for j in range(meas.graph.m):
        touches_dead = bool(dead[_row(meas.graph, j)].any())
        assert report.kept[j] == (not touches_dead)


def test_flips_mirror_integer_channels():
    meas = _measurements(channel=repro.NoiselessChannel())
    report = apply_corruption(
        meas, CorruptionModel(flip_rate=0.5), corruption_rng(13)
    )
    flip_mask = corruption_rng(13).random(meas.graph.m) < 0.5
    sizes = meas.graph.query_sizes()
    expected = np.where(
        flip_mask, sizes - meas.results, meas.results
    ).astype(np.float64)
    assert np.array_equal(report.results_full, expected)


def test_flips_negate_gaussian_channels():
    meas = _measurements(channel=repro.GaussianQueryNoise(1.0))
    report = apply_corruption(
        meas, CorruptionModel(flip_rate=0.5), corruption_rng(13)
    )
    flip_mask = corruption_rng(13).random(meas.graph.m) < 0.5
    expected = np.where(flip_mask, -meas.results, meas.results)
    assert np.array_equal(report.results_full, expected)


def test_outliers_touch_values_but_not_structure():
    meas = _measurements()
    report = apply_corruption(
        meas, CorruptionModel(outlier_rate=0.3, outlier_scale=2.0),
        corruption_rng(17),
    )
    assert report.measurements.graph is meas.graph
    assert report.kept.all()
    changed = report.results_full != meas.results
    assert changed.sum() == report.outliers > 0


# -- statistical concentration ------------------------------------------


@given(rate=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_flip_counts_concentrate_at_the_nominal_rate(rate, seed):
    # Binomial(m, rate) with m = 2000: a 5-sigma band never trips.
    meas = _measurements(n=60, k=3, m=2000, seed=1)
    report = apply_corruption(
        meas, CorruptionModel(flip_rate=rate), corruption_rng(seed)
    )
    m = meas.graph.m
    sigma = np.sqrt(m * rate * (1.0 - rate))
    assert abs(report.flipped - m * rate) <= 5.0 * sigma + 1.0


@given(rate=st.floats(0.05, 0.95), seed=st.integers(0, 2**32 - 1))
@settings(deadline=None, max_examples=40)
def test_erasure_counts_concentrate_at_the_nominal_rate(rate, seed):
    meas = _measurements(n=60, k=3, m=2000, seed=1)
    report = apply_corruption(
        meas, CorruptionModel(erasure_rate=rate), corruption_rng(seed)
    )
    m = meas.graph.m
    sigma = np.sqrt(m * rate * (1.0 - rate))
    assert abs(report.erased - m * rate) <= 5.0 * sigma + 1.0


# -- spec validation ----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"flip_rate": -0.1},
        {"flip_rate": 1.5},
        {"erasure_rate": 2.0},
        {"outlier_rate": -1.0},
        {"dead_agent_rate": float("nan")},
        {"outlier_scale": -1.0},
    ],
)
def test_corruption_model_rejects_bad_rates(kwargs):
    with pytest.raises((ValueError, TypeError)):
        CorruptionModel(**kwargs)


def test_fault_spec_validation_and_describe():
    with pytest.raises(ValueError):
        FaultSpec(drop=1.5)
    with pytest.raises(ValueError, match="max_delay"):
        FaultSpec(delay=0.2)
    assert FaultSpec().is_null
    assert FaultSpec().describe() == "none"
    assert FaultSpec(drop=0.25).describe() == "fault(drop=0.25)"
    assert (
        FaultSpec(delay=0.1, max_delay=3).describe() == "fault(delay=0.1<=3)"
    )
    assert CorruptionModel().describe() == "none"
    assert (
        CorruptionModel(flip_rate=0.1, erasure_rate=0.2).describe()
        == "corruption(erase=0.2, flip=0.1)"
    )


def test_fault_spec_builds_a_seeded_model():
    from repro.distributed.messages import QueryResultMessage

    model = FaultSpec(drop=0.5).build(network_fault_rng(3))
    assert model.drop_probability == 0.5
    assert model.affected_types == (QueryResultMessage,)
    # Same seed, same fate sequence.
    again = FaultSpec(drop=0.5).build(network_fault_rng(3))
    env = type("E", (), {"payload": QueryResultMessage(0, 0.0)})()
    fates = [model.route(env) for _ in range(50)]
    assert fates == [again.route(env) for _ in range(50)]
    assert None in fates  # some drops at p = 0.5
