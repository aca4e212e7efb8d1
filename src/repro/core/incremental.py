"""Incremental query-by-query simulation (required number of queries).

The paper measures "the required number of queries" (Figures 2-5) with
the following procedure (Section V, "Implementation Details"):

1. initialize the ground truth according to ``n`` and ``theta``;
2. simulate one query node after the other; each samples ``Gamma``
   agents with replacement, measures through the channel, and the
   affected agents update ``Delta*`` and ``Psi``;
3. terminate once the ground truth can be reconstructed exactly **and**
   there is a clear separation between the scores of 0-agents and
   1-agents.

Under top-``k`` decoding, strict score separation implies exact
reconstruction, so the stopping criterion is
``min(score of 1-agents) > max(score of 0-agents)``.

:class:`IncrementalDecoder` maintains the running scores in O(distinct
agents per query) per step; the success check is a vectorized O(n) scan.
It is the streaming state the decode service keeps per session.
:func:`required_queries` runs the procedure through the chunked
simulator of :mod:`repro.core.batch`, which samples queries in blocks
but reports the same query-by-query stopping rule.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.core.ground_truth import GroundTruth
from repro.core.noise import Channel, NoiselessChannel
from repro.core.pooling import default_gamma, sample_query
from repro.core.scores import separation_margin, top_k_estimate
from repro.core.types import ReconstructionResult, RequiredQueriesResult, evaluate_estimate
from repro.utils.rng import RngLike, normalize_rng
from repro.utils.validation import check_positive_int


class IncrementalDecoder:
    """Maintains Algorithm 1's per-agent state while queries stream in.

    The running score is the paper's ``Psi_i - Delta*_i * k / 2``; every
    accepted query updates only its distinct neighbors.
    """

    def __init__(self, truth: GroundTruth, channel: Optional[Channel] = None,
                 gamma: Optional[int] = None, centering: str = "half_k"):
        self.truth = truth
        self.channel = channel if channel is not None else NoiselessChannel()
        self.n = truth.n
        self.k = truth.k
        self.gamma = default_gamma(self.n) if gamma is None else check_positive_int(gamma, "gamma")
        if centering == "half_k":
            # Algorithm 1, line 14: subtract k/2 per distinct query.
            self._offset = self.k / 2.0
        elif centering == "oracle":
            # The analysis-side centering (Eq. 3-4): subtract the
            # channel-aware expected query result. Identical to half_k
            # for the noiseless channel; essential for q > 0, where the
            # false-positive bias otherwise couples with Delta*
            # fluctuations and inflates the score variance.
            from repro.core.scores import expected_query_result

            self._offset = expected_query_result(
                self.channel, self.n, self.k, self.gamma
            )
        else:
            raise ValueError(
                f"unknown centering {centering!r}; valid: ('half_k', 'oracle')"
            )
        self.centering = centering
        self.m = 0
        self.psi = np.zeros(self.n, dtype=np.float64)
        self.delta_star = np.zeros(self.n, dtype=np.int64)
        self.delta = np.zeros(self.n, dtype=np.int64)
        self.scores = np.zeros(self.n, dtype=np.float64)
        self._sigma64 = truth.sigma.astype(np.int64)
        self._ones_mask = truth.sigma == 1

    def add_query(self, rng: RngLike = None) -> float:
        """Sample one query, measure it through the channel, update state.

        Returns the (noisy) query result.
        """
        gen = normalize_rng(rng)
        agents, counts = sample_query(self.n, self.gamma, gen)
        e1 = int(np.dot(counts, self._sigma64[agents]))
        # The channel must see the *actual* number of edges, not the
        # nominal gamma: for the paper's with-replacement design they
        # coincide (counts.sum() == gamma), but variable-size designs
        # (e.g. sample_regular_design) would otherwise get the wrong
        # Bin(gamma - e1, q) noise law.
        size = int(counts.sum())
        result = float(self.channel.measure(np.asarray([e1]), size, gen)[0])
        self.ingest_query(agents, counts, result)
        return result

    def ingest_query(
        self, agents: np.ndarray, counts: np.ndarray, result: float
    ) -> None:
        """Fold an externally supplied query into the running state.

        ``agents`` are the query's distinct members, ``counts`` their
        multiplicities and ``result`` the (noisy) measured sum. This is
        the entry point for replaying recorded pooling data or feeding
        a pre-sampled :class:`~repro.core.pooling.PoolingGraph` — the
        scores then match the batch decoder on the same data exactly.
        """
        agents = np.asarray(agents, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        if agents.shape != counts.shape or agents.ndim != 1:
            raise ValueError("agents and counts must be 1-D arrays of equal length")
        if agents.size and (agents.min() < 0 or agents.max() >= self.n):
            raise ValueError("agent ids out of range")
        self.psi[agents] += result
        self.delta_star[agents] += 1
        self.delta[agents] += counts
        self.scores[agents] += result - self._offset
        self.m += 1

    def separation(self) -> float:
        """Current separation margin between 1-agent and 0-agent scores."""
        return separation_margin(self.scores, self.truth.sigma)

    def is_successful(self) -> bool:
        """Paper's stopping criterion: strictly separated score ranges."""
        return self.separation() > 0.0

    def reconstruction(self) -> ReconstructionResult:
        """Decode the current state with top-k selection."""
        estimate = top_k_estimate(self.scores, self.k)
        quality = evaluate_estimate(estimate, self.truth.sigma, self.scores)
        return ReconstructionResult(
            estimate=estimate,
            scores=self.scores.copy(),
            exact=quality["exact"],
            overlap=quality["overlap"],
            separated=quality["separated"],
            hamming_errors=quality["hamming_errors"],
            meta={
                "algorithm": "greedy-incremental",
                "n": self.n,
                "m": self.m,
                "k": self.k,
                "channel": self.channel.describe(),
            },
        )


def default_max_queries(n: int, k: int, channel: Optional[Channel] = None) -> int:
    """A generous budget: well above every Theorem-1/2 threshold.

    The base ``40 k ln(n) + 200`` covers the sublinear Z-channel and
    noisy-query bounds (which scale with ``k ln n``). When the channel
    has a positive false-positive rate ``q``, Theorem 1's thresholds
    scale with ``n ln n`` instead, so the budget is raised to five times
    the applicable bound. Gaussian channels add a ``lambda^2 ln n`` term
    (Theorem 2 requires ``lambda^2 = o(m / ln n)`` for recovery).
    """
    from repro.core.bounds import theorem1_linear, theorem1_sublinear_gnc
    from repro.core.noise import GaussianQueryNoise, NoisyChannel

    log_n = math.log(max(n, 2))
    budget = 40.0 * k * log_n + 200.0
    if isinstance(channel, NoisyChannel) and channel.q > 0.0 and n >= 2:
        theta = min(max(math.log(max(k, 2)) / log_n, 1e-3), 1 - 1e-3)
        zeta = min(max(k / n, 1e-6), 1 - 1e-6)
        gnc = theorem1_sublinear_gnc(n, theta, channel.p, channel.q, eps=0.0)
        lin = theorem1_linear(n, zeta, channel.p, channel.q, eps=0.0)
        budget = max(budget, 5.0 * max(gnc, lin))
    if isinstance(channel, GaussianQueryNoise):
        budget += 40.0 * channel.lam**2 * log_n
    return int(budget)


def required_queries(
    n: int,
    k: int,
    channel: Optional[Channel] = None,
    rng: RngLike = None,
    *,
    gamma: Optional[int] = None,
    max_m: Optional[int] = None,
    check_every: int = 1,
    truth: Optional[GroundTruth] = None,
    centering: str = "half_k",
) -> RequiredQueriesResult:
    """Run the paper's required-number-of-queries procedure once.

    Runs the chunked simulator of
    :meth:`repro.core.batch.BatchTrialRunner.required_queries`: queries
    are sampled and measured in geometric-growth blocks, and the
    reported stopping ``m`` is the exact first query count with
    strictly separated scores, as in the query-by-query procedure.

    Parameters
    ----------
    n, k:
        Instance size and number of 1-agents.
    channel:
        Noise model (default noiseless).
    max_m:
        Query budget; defaults to :func:`default_max_queries`. A run
        that exhausts the budget returns ``succeeded=False``.
    check_every:
        Perform the success check only every this many queries
        (default 1, matching the paper; larger values trade exactness
        of the reported ``required_m`` for speed).
    truth:
        Optional pre-sampled ground truth of the same ``(n, k)`` (else
        drawn from the model).

    Returns
    -------
    RequiredQueriesResult
    """
    from repro.core.batch import BatchTrialRunner

    runner = BatchTrialRunner(n, k, channel, gamma=gamma, centering=centering)
    return runner.required_queries(
        rng, max_m=max_m, check_every=check_every, truth=truth
    )


__all__ = [
    "IncrementalDecoder",
    "default_max_queries",
    "required_queries",
]
