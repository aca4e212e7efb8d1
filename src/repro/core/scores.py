"""Neighborhood-sum scores and centering variants (Algorithm 1, line 14).

Algorithm 1 ranks agents by ``Psi_i - Delta*_i * k / 2`` where ``Psi_i``
is the sum of the (noisy) results of all *distinct* queries containing
agent ``i`` and ``Delta*_i`` is the number of such queries. The
``k/2``-centering removes the score advantage of agents that happen to
appear in more queries: a uniformly random query has expected result
``Gamma * k / n = k / 2`` in the noiseless case.

Under noise the expected query result shifts (Eq. 4 of the paper), so we
also provide an *oracle* centering that uses the channel's edge mean.
Because the degrees ``Delta*_i`` concentrate (Corollary 5), the choice
barely matters — ablation A2 quantifies this.

:func:`centering_offset` is the one place a centering name becomes an
offset; every decoder, simulator and the decode service go through it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.measurement import Measurements
from repro.core.noise import Channel

#: valid centering names
CENTERINGS = ("half_k", "oracle")


def expected_query_result(channel: Channel, n: int, k: int, gamma: int) -> float:
    """Expected noisy result of one uniformly random query.

    Each of the ``gamma`` edges lands on a 1-agent with probability
    ``k/n``; the channel maps that into an expected per-edge reading of
    ``channel.edge_mean(k/n)`` (plus mean-zero query-level noise).
    """
    return gamma * channel.edge_mean(k / n)


def centering_offset(
    centering: str, channel: Optional[Channel], n: int, k: int, gamma: int
) -> float:
    """The score offset a centering subtracts per distinct query.

    ``"half_k"`` is the paper's ``k / 2`` (Algorithm 1, line 14);
    ``"oracle"`` is the channel-aware :func:`expected_query_result`,
    which needs the ``channel``. Any other name raises ``ValueError``.
    """
    if centering == "half_k":
        return k / 2.0
    if centering == "oracle":
        if channel is None:
            raise ValueError("oracle centering requires the channel")
        return expected_query_result(channel, n, k, gamma)
    raise ValueError(f"unknown centering {centering!r}; valid: {CENTERINGS}")


def centered_scores(
    psi: np.ndarray, delta_star: np.ndarray, offset: float
) -> np.ndarray:
    """``Psi_i - Delta*_i * offset`` for raw neighborhood sums.

    ``offset`` is a centering's per-query offset
    (:func:`centering_offset`).
    """
    psi = np.asarray(psi, dtype=np.float64)
    delta_star = np.asarray(delta_star, dtype=np.float64)
    if psi.shape != delta_star.shape:
        raise ValueError("psi and delta_star must have the same shape")
    return psi - delta_star * float(offset)


def scores_from_measurements(
    measurements: Measurements, *, mode: str = "half_k"
) -> np.ndarray:
    """Centered scores of a :class:`Measurements` under centering ``mode``."""
    graph = measurements.graph
    offset = centering_offset(
        mode, measurements.channel, graph.n, measurements.k, graph.gamma
    )
    return centered_scores(
        graph.neighborhood_sums(measurements.results),
        graph.distinct_degrees(),
        offset,
    )


def top_k_estimate(scores: np.ndarray, k: int) -> np.ndarray:
    """Declare the ``k`` highest-scoring agents as bit 1.

    Ties are broken deterministically in favour of lower agent ids so
    that repeated runs over identical data give identical answers.
    """
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    estimate = np.zeros(n, dtype=np.int8)
    if k == 0:
        return estimate
    # Stable sort on (-score, id): lower ids win ties.
    order = np.argsort(-scores, kind="stable")
    estimate[order[:k]] = 1
    return estimate


def decode_top_k_stacked(
    scores: np.ndarray, sigma: np.ndarray, k: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Row-wise top-k decode and evaluation for a stack of trials.

    The stacked equivalent of :func:`top_k_estimate` plus
    :func:`repro.core.types.evaluate_estimate`/:func:`separation_margin`
    for ``(T, n)`` score and ground-truth matrices — the single source
    both batched engines (greedy trials, block-diagonal AMP) decode
    through, so the tie-breaking and evaluation semantics cannot drift
    between the stacked and per-trial paths.

    Returns ``(estimate, hamming_errors, overlap, margins)``, one
    row/entry per trial: the stable sort on ``(-score, id)`` breaks
    ties exactly like ``top_k_estimate``; ``margins`` is the
    1-agents-min minus 0-agents-max score separation (``+inf`` for the
    degenerate ``k == 0`` / ``k == n`` truths, like
    ``separation_margin``).
    """
    scores = np.asarray(scores, dtype=np.float64)
    sigma = np.asarray(sigma)
    trials, n = scores.shape
    if sigma.shape != scores.shape:
        raise ValueError(
            f"sigma shape {sigma.shape} != scores shape {scores.shape}"
        )
    if not 0 <= k <= n:
        raise ValueError(f"k must lie in [0, {n}], got {k}")
    estimate = np.zeros((trials, n), dtype=np.int8)
    if k > 0:
        order = np.argsort(-scores, axis=1, kind="stable")
        np.put_along_axis(estimate, order[:, :k], np.int8(1), axis=1)
    ones = sigma == 1
    errors = np.count_nonzero(estimate != sigma, axis=1)
    if k > 0:
        overlap = np.count_nonzero((estimate == 1) & ones, axis=1) / k
    else:
        overlap = np.ones(trials, dtype=np.float64)
    if 0 < k < n:
        one_scores = np.where(ones, scores, np.inf)
        zero_scores = np.where(ones, -np.inf, scores)
        margins = one_scores.min(axis=1) - zero_scores.max(axis=1)
    else:
        margins = np.full(trials, np.inf)
    return estimate, errors, overlap, margins


def separation_margin(scores: np.ndarray, sigma: np.ndarray) -> float:
    """``min(scores of 1-agents) - max(scores of 0-agents)``.

    Positive iff the score ranges are strictly separated — the paper's
    "clear separation" success criterion. Degenerate ground truths
    (``k == 0`` or ``k == n``) count as separated with margin ``+inf``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    sigma = np.asarray(sigma)
    ones = sigma == 1
    if not ones.any() or ones.all():
        return float("inf")
    return float(scores[ones].min() - scores[~ones].max())


__all__ = [
    "CENTERINGS",
    "expected_query_result",
    "centering_offset",
    "centered_scores",
    "scores_from_measurements",
    "top_k_estimate",
    "decode_top_k_stacked",
    "separation_margin",
]
