"""Comparator schedules: the wiring diagrams of sorting networks.

A sorting network is represented as a :class:`ComparatorSchedule` — a
list of *rounds*, each round a list of ordered wire pairs ``(a, b)``
that operate in parallel. The semantics of a comparator ``(a, b)``:
after the compare-exchange, wire ``a`` holds the smaller key and wire
``b`` the larger (``a`` and ``b`` need not satisfy ``a < b``; bitonic
networks use "descending" comparators).

Keys are arbitrary totally ordered Python values; the library sorts
``(-score, agent_id)`` tuples so that ascending network order equals
descending score order with deterministic tie-breaks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Sequence, Tuple

Comparator = Tuple[int, int]
Round = List[Comparator]


@dataclass(frozen=True)
class ComparatorSchedule:
    """An immutable, validated comparator schedule.

    Attributes
    ----------
    n:
        Number of wires.
    rounds:
        Rounds of parallel comparators.
    """

    n: int
    rounds: Tuple[Tuple[Comparator, ...], ...]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        for r, rnd in enumerate(self.rounds):
            seen: set = set()
            for a, b in rnd:
                if a == b:
                    raise ValueError(f"round {r}: degenerate comparator ({a}, {b})")
                for w in (a, b):
                    if not 0 <= w < self.n:
                        raise ValueError(f"round {r}: wire {w} out of range")
                    if w in seen:
                        raise ValueError(
                            f"round {r}: wire {w} used by two comparators"
                        )
                    seen.add(w)

    @property
    def depth(self) -> int:
        """Number of parallel rounds."""
        return len(self.rounds)

    @property
    def size(self) -> int:
        """Total number of comparators."""
        return sum(len(r) for r in self.rounds)

    @cached_property
    def participation(self) -> List[Dict[int, Tuple[int, bool]]]:
        """Per round, map ``wire -> (partner, takes_min)``.

        Used by the distributed executor: an agent on wire ``w`` looks
        up its partner and whether it keeps the smaller key. Built once
        per schedule and shared, read-only, by every node: a per-node
        copy would cost O(n * depth) for each of the n nodes.
        """
        table: List[Dict[int, Tuple[int, bool]]] = []
        for rnd in self.rounds:
            entry: Dict[int, Tuple[int, bool]] = {}
            for a, b in rnd:
                entry[a] = (b, True)
                entry[b] = (a, False)
            table.append(entry)
        return table


def from_rounds(n: int, rounds: Sequence[Sequence[Comparator]]) -> ComparatorSchedule:
    """Build a validated schedule from nested lists."""
    return ComparatorSchedule(
        n=n, rounds=tuple(tuple((int(a), int(b)) for a, b in rnd) for rnd in rounds)
    )


def apply_schedule(keys: Sequence, schedule: ComparatorSchedule) -> List:
    """Run the network centrally on a list of keys (reference executor).

    This is the specification the distributed executor is tested
    against, and the workhorse of the 0-1-principle tests.
    """
    if len(keys) != schedule.n:
        raise ValueError(f"expected {schedule.n} keys, got {len(keys)}")
    wires = list(keys)
    for rnd in schedule.rounds:
        for a, b in rnd:
            if wires[b] < wires[a]:
                wires[a], wires[b] = wires[b], wires[a]
    return wires


def is_sorting_network(schedule: ComparatorSchedule, *, exhaustive_limit: int = 16) -> bool:
    """Verify the 0-1 principle exhaustively.

    A comparator network sorts *all* inputs iff it sorts all ``2^n``
    0/1 inputs (Knuth, TAOCP vol. 3). Exhaustive up to
    ``exhaustive_limit`` wires; larger networks raise ``ValueError``
    (use randomized testing instead).
    """
    n = schedule.n
    if n > exhaustive_limit:
        raise ValueError(
            f"exhaustive 0-1 check infeasible for n={n} > {exhaustive_limit}"
        )
    for pattern in range(2**n):
        bits = [(pattern >> i) & 1 for i in range(n)]
        out = apply_schedule(bits, schedule)
        if any(out[i] > out[i + 1] for i in range(n - 1)):
            return False
    return True


__all__ = [
    "Comparator",
    "ComparatorSchedule",
    "from_rounds",
    "apply_schedule",
    "is_sorting_network",
]
