"""Measurement engine: apply a channel to a pooling graph + ground truth.

This is the glue between the pooling design (:mod:`repro.core.pooling`),
the noise substrate (:mod:`repro.core.noise`) and the decoders. It
produces the vector of per-*query* results, written ``\\hat\\sigma`` in
the paper — one (noisy) measured sum per query node. Despite the
similar notation this is *not* the reconstructed bit estimate of the
hidden vector ``sigma``; decoders consume :class:`Measurements` and
produce that estimate separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.ground_truth import GroundTruth
from repro.core.noise import Channel, NoiselessChannel
from repro.core.pooling import PoolingGraph
from repro.utils.rng import RngLike, normalize_rng


@dataclass(frozen=True)
class Measurements:
    """Query results together with the objects that produced them."""

    graph: PoolingGraph
    truth: GroundTruth
    channel: Channel
    results: np.ndarray

    def __post_init__(self) -> None:
        results = np.asarray(self.results)
        if results.shape != (self.graph.m,):
            raise ValueError(
                f"results must have shape ({self.graph.m},), got {results.shape}"
            )
        object.__setattr__(self, "results", results)

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def k(self) -> int:
        return self.truth.k


def measure(
    graph: PoolingGraph,
    truth: GroundTruth,
    channel: Optional[Channel] = None,
    rng: RngLike = None,
) -> Measurements:
    """Run all queries of ``graph`` against ``truth`` through ``channel``.

    The measurement is vectorized over queries via the sufficient
    statistic ``E1`` (edges into 1-agents); see :mod:`repro.core.noise`
    for why this reproduces the per-edge law exactly.
    """
    if channel is None:
        channel = NoiselessChannel()
    if graph.n != truth.n:
        raise ValueError(f"graph has n={graph.n} agents but truth has n={truth.n}")
    gen = normalize_rng(rng)
    e1 = graph.edges_into_ones(truth.sigma)
    # Pass the realized per-query sizes: for the paper's design they all
    # equal gamma, but alternative designs (e.g. the constant-column-
    # weight design of the ablations) have variable-size queries, and
    # the per-edge channel semantics must count the actual edges.
    sizes = graph.query_sizes()
    results = channel.measure(e1, sizes, gen)
    return Measurements(graph=graph, truth=truth, channel=channel, results=results)


__all__ = ["Measurements", "measure"]
