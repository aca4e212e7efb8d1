"""Distributed execution of a comparator schedule via message passing.

Each wire of the sorting network is owned by one network node. In every
comparator round the two partners exchange their keys
(:class:`SortKeyMessage`); both then apply the same deterministic
resolution rule (the designated wire keeps the minimum), so no further
coordination is needed. One comparator round therefore costs exactly
one message per participating wire and one network round of latency
(plus one final round for the last resolution).

This generic executor is used standalone (see :func:`distributed_sort`)
and embedded in the Algorithm 1 protocol (:mod:`repro.distributed.protocol`).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.distributed.messages import Envelope, SortKeyMessage
from repro.distributed.network import Network, Node
from repro.distributed.sorting.schedule import ComparatorSchedule


def wire_name(index: int) -> str:
    """Canonical node name of the sorter on wire ``index``."""
    return f"w{index}"


class SorterNode(Node):
    """Owns one wire: exchanges keys per schedule, resolves locally.

    Timeline (network rounds): in round ``r`` the node first resolves
    comparator ``r - 1`` using the partner key from its inbox, then
    sends its (possibly updated) key for comparator ``r``. The network
    quiesces after ``depth + 1`` rounds.
    """

    def __init__(self, wire: int, key: Tuple, schedule: ComparatorSchedule):
        super().__init__(wire_name(wire))
        self.wire = wire
        self.key = tuple(key)
        self._participation = schedule.participation
        self._depth = schedule.depth
        self._done = schedule.depth == 0

    def _resolve(self, comparator_round: int, partner_key: Tuple) -> None:
        partner, takes_min = self._participation[comparator_round][self.wire]
        pair = sorted([self.key, tuple(partner_key)])
        self.key = pair[0] if takes_min else pair[1]

    def on_round(self, round_no: int, inbox: List[Envelope], net: Network) -> None:
        # 1. resolve the previous comparator round, if we took part
        if inbox:
            for env in inbox:
                payload = env.payload
                if not isinstance(payload, SortKeyMessage):
                    raise TypeError(f"unexpected payload: {type(payload).__name__}")
                if payload.comparator_round != round_no - 1:
                    raise RuntimeError(
                        f"wire {self.wire}: key for comparator round "
                        f"{payload.comparator_round} arrived in network round {round_no}"
                    )
                self._resolve(payload.comparator_round, payload.key)
        if round_no == self._depth:
            self._done = True
        # 2. send our key for the current comparator round
        if round_no < self._depth:
            entry = self._participation[round_no].get(self.wire)
            if entry is not None:
                partner, _ = entry
                net.send(
                    self.name,
                    wire_name(partner),
                    SortKeyMessage(comparator_round=round_no, key=self.key),
                )

    def is_idle(self) -> bool:
        return self._done


def distributed_sort(
    keys: Sequence[Tuple],
    schedule: ComparatorSchedule,
    *,
    network: Optional[Network] = None,
) -> "tuple[List[Tuple], Network]":
    """Sort ``keys`` by running the schedule on a message-passing network.

    Returns the sorted key list (ascending, wire order) and the network
    (whose :class:`~repro.distributed.network.NetworkMetrics` expose the
    communication cost).
    """
    if len(keys) != schedule.n:
        raise ValueError(f"expected {schedule.n} keys, got {len(keys)}")
    net = network if network is not None else Network()
    sorters = [SorterNode(i, key, schedule) for i, key in enumerate(keys)]
    for s in sorters:
        net.add_node(s)
    net.run(max_rounds=schedule.depth + 2)
    return [s.key for s in sorters], net


__all__ = ["SorterNode", "distributed_sort", "wire_name"]
