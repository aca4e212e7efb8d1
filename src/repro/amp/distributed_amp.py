"""Distributed AMP: the message-passing reading of the AMP iteration.

The paper remarks that AMP "has an intuitive description in a
distributed message passing environment. However, the communication
overhead becomes substantial rendering (unmodified) AMP inefficient in
this setting [32]". This module makes that claim quantitative.

Execution model: one AMP iteration consists of

1. every query node sends its current residual ``z_j`` to all of its
   *distinct* neighbor agents (``|∂*a_j|`` messages per query);
2. every agent folds the residuals into its local estimate
   (the ``A^T z + sigma`` step plus the denoiser) and sends the updated
   estimate back to each of its distinct queries;
3. every query recomputes its residual, including the Onsager term,
   for which the network aggregates the mean denoiser derivative (we
   charge one broadcast per iteration for this global constant — a
   convergecast/broadcast tree costs ``O(n)`` messages).

So every AMP iteration moves ``2 |E*| + n`` messages, where ``|E*|`` is
the number of distinct (query, agent) incidences — the same traffic as
Algorithm 1's *entire* broadcast phase, repeated once per iteration.
:func:`communication_cost` tabulates both algorithms' bills; the
comparison bench (``benchmarks/bench_communication.py``) reports the
ratio next to the success rates, grounding the paper's efficiency
argument in numbers.

For the iterate values this module reuses the exact vectorized AMP
(:func:`repro.amp.run_amp`) — the distributed schedule exchanges the
same quantities in the same order, so simulating it message-by-message
would reproduce identical numbers while being dramatically slower; we
simulate the *cost model* exactly and the *values* vectorized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.amp.amp import AMPConfig, run_amp
from repro.core.measurement import Measurements
from repro.core.types import ReconstructionResult

#: bits per scalar on the wire (matching repro.distributed.messages)
_SCALAR_BITS = 64


@dataclass(frozen=True)
class CommunicationCost:
    """Message/bit/round bill of one algorithm on one instance."""

    algorithm: str
    rounds: int
    messages: int
    bits: int

    def per_agent_messages(self, n: int) -> float:
        return self.messages / n


def _batcher_schedule(n: int):
    """Batcher's sorting network on ``n`` agents.

    Imported here, so that importing :mod:`repro.amp` (the decode
    service's AMP) does not load the distributed runtime.
    """
    from repro.distributed.sorting.batcher import make_sorting_network

    return make_sorting_network("batcher", n)


def greedy_communication_cost(measurements: Measurements) -> CommunicationCost:
    """Exact communication bill of distributed Algorithm 1.

    Query broadcast (one message per distinct incidence) + sorting
    network (two messages per comparator) + k rank announcements;
    rounds = sorting depth + 3 (see :mod:`repro.distributed.protocol`).
    """
    graph = measurements.graph
    schedule = _batcher_schedule(graph.n)
    broadcast = int(graph.distinct_sizes().sum())
    sort_msgs = 2 * schedule.size
    announcements = measurements.k
    messages = broadcast + sort_msgs + announcements
    bits = (
        broadcast * 2 * _SCALAR_BITS
        + sort_msgs * 3 * _SCALAR_BITS
        + announcements * _SCALAR_BITS
    )
    return CommunicationCost(
        algorithm="greedy",
        rounds=schedule.depth + 3,
        messages=messages,
        bits=bits,
    )


def amp_communication_cost(
    measurements: Measurements, iterations: int
) -> CommunicationCost:
    """Communication bill of message-passing AMP for ``iterations`` rounds.

    Per iteration: residual broadcast (|E*| messages), estimate
    return (|E*| messages), and an O(n) convergecast/broadcast for the
    Onsager mean. A final top-k selection reuses the greedy sorting
    phase (Batcher network + announcements).
    """
    graph = measurements.graph
    incidences = int(graph.distinct_sizes().sum())
    per_iteration = 2 * incidences + graph.n
    schedule = _batcher_schedule(graph.n)
    sort_msgs = 2 * schedule.size + measurements.k
    messages = iterations * per_iteration + sort_msgs
    bits = messages * 2 * _SCALAR_BITS
    # Each iteration costs 3 network rounds (residuals out, estimates
    # back, Onsager aggregate); sorting adds depth + 2.
    rounds = 3 * iterations + schedule.depth + 2
    return CommunicationCost(
        algorithm="amp", rounds=rounds, messages=messages, bits=bits
    )


@dataclass(frozen=True)
class DistributedAMPReport:
    """Reconstruction + communication bill of distributed AMP."""

    result: ReconstructionResult
    cost: CommunicationCost


def run_distributed_amp(
    measurements: Measurements,
    *,
    config: Optional[AMPConfig] = None,
) -> DistributedAMPReport:
    """Run AMP and attach its distributed communication bill.

    The iterate values come from the exact vectorized implementation;
    the cost model charges the message-passing schedule described in
    the module docstring for the number of iterations actually used.
    """
    result = run_amp(measurements, config=config)
    cost = amp_communication_cost(measurements, result.meta["iterations"])
    meta = dict(result.meta)
    meta.update(
        {
            "algorithm": "amp-distributed",
            "rounds": cost.rounds,
            "messages": cost.messages,
            "bits": cost.bits,
        }
    )
    annotated = ReconstructionResult(
        estimate=result.estimate,
        scores=result.scores,
        exact=result.exact,
        overlap=result.overlap,
        separated=result.separated,
        hamming_errors=result.hamming_errors,
        meta=meta,
    )
    return DistributedAMPReport(result=annotated, cost=cost)


__all__ = [
    "CommunicationCost",
    "greedy_communication_cost",
    "amp_communication_cost",
    "DistributedAMPReport",
    "run_distributed_amp",
]
