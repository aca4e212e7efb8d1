"""The distributed Algorithm 1 protocol: query nodes and agent nodes.

Phase timeline of the faithful message-passing execution (one global
synchronous network, see :mod:`repro.distributed.network`):

=========  ====================================================================
round      action
=========  ====================================================================
0          every query node broadcasts its measured result to its
           *distinct* neighbor agents (Algorithm 1, lines 3-7)
1          agents fold all received results into ``Psi_i``/``Delta*_i``,
           compute the score ``Psi_i - Delta*_i k/2``, and send their sort
           key for comparator round 0 (lines 8-13)
2..D       agents resolve comparator round ``r-2`` and send keys for
           comparator round ``r-1`` (sorting network execution, line 13-14)
D+1        last comparator resolves; agents holding the ``k`` smallest
           wire positions (keys are ``(-score, id)``) announce bit 1 to
           the key owners (line 15)
D+2        announced agents set output 1, all others 0
=========  ====================================================================

``D`` is the sorting network depth. Keys are ``(-score, agent_id)`` so
ascending network order = descending score order with ties broken
toward lower agent ids — exactly the tie-break of the vectorized
decoder, which makes the two implementations bit-identical.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.messages import (
    Envelope,
    QueryResultMessage,
    RankAnnouncementMessage,
    SortKeyMessage,
)
from repro.distributed.network import Network, Node
from repro.distributed.sorting.schedule import ComparatorSchedule


def agent_name(i: int) -> str:
    """Canonical node name of agent ``x_i``."""
    return f"x{i}"


def query_name(j: int) -> str:
    """Canonical node name of query node ``a_j``."""
    return f"a{j}"


class QueryNode(Node):
    """A query node: measures once, broadcasts to distinct neighbors.

    The measurement itself (sampling the multiset of agents and passing
    the sum through the noise channel) is performed by the runner via
    the core measurement engine — this mirrors the paper's simulation
    methodology and guarantees that the distributed and vectorized
    pipelines consume identical randomness.
    """

    def __init__(self, query_id: int, distinct_neighbors: Sequence[int], result: float):
        super().__init__(query_name(query_id))
        self.query_id = query_id
        self.distinct_neighbors = [int(i) for i in distinct_neighbors]
        self.result = float(result)
        self._sent = False

    def on_round(self, round_no: int, inbox: List[Envelope], net: Network) -> None:
        if round_no == 0 and not self._sent:
            payload = QueryResultMessage(query_id=self.query_id, result=self.result)
            for neighbor in self.distinct_neighbors:
                net.send(self.name, agent_name(neighbor), payload)
            self._sent = True

    def is_idle(self) -> bool:
        return self._sent


class AgentNode(Node):
    """An agent: accumulates its score, sorts itself, outputs a bit."""

    def __init__(self, agent_id: int, k: int, schedule: ComparatorSchedule):
        super().__init__(agent_name(agent_id))
        self.agent_id = agent_id
        self.k = k
        self.psi = 0.0
        self.delta_star = 0
        self.score: Optional[float] = None
        self.output: Optional[int] = None
        self.key: Optional[Tuple[float, int]] = None
        self._schedule = schedule
        self._participation = schedule.participation
        self._depth = schedule.depth
        self._announced = False
        #: query results that arrived after the fold round (e.g. delayed
        #: by a fault model) and were discarded as stragglers
        self.late_results_ignored = 0

    # -- helpers ----------------------------------------------------------

    def _fold_query_results(self, inbox: List[Envelope]) -> None:
        for env in inbox:
            payload = env.payload
            if not isinstance(payload, QueryResultMessage):
                raise TypeError(
                    f"agent {self.agent_id} expected query results in round 1, "
                    f"got {type(payload).__name__}"
                )
            self.psi += payload.result
            self.delta_star += 1
        self.score = self.psi - self.delta_star * self.k / 2.0
        # Ascending sort of (-score, id) == descending score, low-id ties.
        self.key = (-self.score, self.agent_id)

    def _resolve(self, comparator_round: int, partner_key: Tuple[float, int]) -> None:
        partner, takes_min = self._participation[comparator_round][self.agent_id]
        pair = sorted([self.key, tuple(partner_key)])
        self.key = pair[0] if takes_min else pair[1]

    def _send_sort_key(self, comparator_round: int, net: Network) -> None:
        entry = self._participation[comparator_round].get(self.agent_id)
        if entry is not None:
            partner, _ = entry
            net.send(
                self.name,
                agent_name(partner),
                SortKeyMessage(comparator_round=comparator_round, key=self.key),
            )

    def _maybe_announce(self, net: Network) -> None:
        """If this wire ranks in the top k, notify the key's owner."""
        if self._announced:
            return
        self._announced = True
        if self.agent_id < self.k:
            _, owner = self.key
            net.send(self.name, agent_name(int(owner)), RankAnnouncementMessage(owner))

    # -- protocol ----------------------------------------------------------

    def on_round(self, round_no: int, inbox: List[Envelope], net: Network) -> None:
        if round_no == 0:
            return  # query results are still in flight
        if round_no == 1:
            self._fold_query_results(inbox)
            if self._depth == 0:
                self._maybe_announce(net)
            else:
                self._send_sort_key(0, net)
            return

        announcements = [
            env for env in inbox if isinstance(env.payload, RankAnnouncementMessage)
        ]
        sort_keys = [env for env in inbox if isinstance(env.payload, SortKeyMessage)]
        # Query results straggling in after the fold round (a lossy or
        # delaying network) are discarded: the score is already frozen.
        self.late_results_ignored += sum(
            isinstance(env.payload, QueryResultMessage) for env in inbox
        )

        for env in sort_keys:
            payload = env.payload
            if payload.comparator_round != round_no - 2:
                raise RuntimeError(
                    f"agent {self.agent_id}: comparator round "
                    f"{payload.comparator_round} key arrived in network round {round_no}"
                )
            self._resolve(payload.comparator_round, payload.key)

        if round_no - 1 < self._depth:
            self._send_sort_key(round_no - 1, net)
        elif not self._announced:
            # Last comparator just resolved; announce winners.
            self._maybe_announce(net)

        if announcements:
            self.output = 1

    def finalize(self) -> int:
        """Final output bit (0 unless announced)."""
        if self.output is None:
            self.output = 0
        return self.output

    def is_idle(self) -> bool:
        return self._announced


__all__ = ["QueryNode", "AgentNode", "agent_name", "query_name"]
