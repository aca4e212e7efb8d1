"""Tests for the distributed-AMP cost model."""

import numpy as np
import pytest

import repro
from repro.amp import (
    CommunicationCost,
    amp_communication_cost,
    greedy_communication_cost,
    run_distributed_amp,
)
from repro.distributed import run_distributed_algorithm1


def _measurements(seed=0, n=64, k=4, m=60):
    gen = np.random.default_rng(seed)
    truth = repro.sample_ground_truth(n, k, gen)
    graph = repro.sample_pooling_graph(n, m, rng=gen)
    return repro.measure(graph, truth, repro.ZChannel(0.1), gen)


class TestGreedyCommunicationCost:
    def test_matches_actual_protocol_run(self):
        """The closed-form bill must equal the simulated network's."""
        meas = _measurements()
        cost = greedy_communication_cost(meas)
        report = run_distributed_algorithm1(meas, sorting_network="batcher")
        assert cost.messages == report.metrics.messages
        assert cost.bits == report.metrics.bits
        assert cost.rounds == report.metrics.rounds

    def test_scales_with_m(self):
        small = greedy_communication_cost(_measurements(m=20))
        large = greedy_communication_cost(_measurements(m=80))
        assert large.messages > small.messages

    def test_per_agent_messages(self):
        meas = _measurements()
        cost = greedy_communication_cost(meas)
        assert cost.per_agent_messages(meas.n) == pytest.approx(
            cost.messages / meas.n
        )


class TestAMPCommunicationCost:
    def test_linear_in_iterations(self):
        meas = _measurements()
        one = amp_communication_cost(meas, 1)
        ten = amp_communication_cost(meas, 10)
        incidences = int(meas.graph.distinct_sizes().sum())
        per_iter = 2 * incidences + meas.n
        assert ten.messages - one.messages == 9 * per_iter

    def test_rounds_grow_with_iterations(self):
        meas = _measurements()
        assert amp_communication_cost(meas, 10).rounds > amp_communication_cost(
            meas, 2
        ).rounds


class TestRunDistributedAMP:
    def test_result_matches_vectorized_amp(self):
        from repro.amp import run_amp

        meas = _measurements(m=100)
        report = run_distributed_amp(meas)
        plain = run_amp(meas)
        assert np.array_equal(report.result.estimate, plain.estimate)
        assert report.result.meta["algorithm"] == "amp-distributed"

    def test_cost_uses_actual_iterations(self):
        meas = _measurements(m=100)
        report = run_distributed_amp(meas)
        expected = amp_communication_cost(meas, report.result.meta["iterations"])
        assert report.cost == expected

    def test_amp_messages_exceed_greedy(self):
        """The paper's efficiency claim, as an invariant."""
        meas = _measurements(m=100)
        amp_cost = run_distributed_amp(meas).cost
        greedy_cost = greedy_communication_cost(meas)
        assert amp_cost.messages > greedy_cost.messages
        assert amp_cost.bits > greedy_cost.bits
