"""Noise models for the pooled data problem (paper, Section II).

Two families of channels are defined on top of the pooling graph:

* :class:`NoisyChannel` — the *noisy channel model*: every **edge**
  (occurrence of an agent in a query, counted with multiplicity) is read
  independently; a 1-bit is read as 0 with probability ``p`` (false
  negative) and a 0-bit is read as 1 with probability ``q`` (false
  positive). The special case ``q = 0`` is the Z-channel
  (:class:`ZChannel`). The query result is the sum of the noisy edge
  readings.

* :class:`GaussianQueryNoise` — the *noisy query model*: the bits are
  read correctly but the **query result** picks up additive Gaussian
  noise ``W ~ N(0, lambda**2)``, independently per query.

Sufficient statistic.  Because bits are 0/1, the exact query sum equals
``E1``, the number of edges into 1-agents. Under the noisy channel the
result is distributed as ``Bin(E1, 1-p) + Bin(Gamma - E1, q)`` — exactly
the law induced by independent per-edge flips — so every channel can be
vectorized over queries given only ``E1`` and ``Gamma``. The per-edge
interface :meth:`Channel.measure_contributions` is retained for the
faithful distributed runtime and for the statistical tests of Lemmas
6-8.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import RngLike, normalize_rng
from repro.utils.validation import check_non_negative, check_probability


def _check_e1_range(e1: np.ndarray, gamma) -> None:
    """Reject edges-into-ones counts outside ``[0, gamma]``.

    Every channel performs this check so that corrupted replay data
    (or a caller passing the wrong per-query sizes) fails loudly
    instead of silently producing impossible measurements.
    """
    if np.any(e1 < 0) or np.any(e1 > gamma):
        raise ValueError("e1 entries must lie in [0, gamma]")


class Channel(ABC):
    """Abstract noise channel applied to pooled-query measurements."""

    #: whether query results are integer-valued under this channel
    integer_valued: bool = True

    @abstractmethod
    def measure(
        self, e1: np.ndarray, gamma: int, rng: RngLike = None
    ) -> np.ndarray:
        """Noisy query results given per-query edges-into-ones counts.

        Parameters
        ----------
        e1:
            Array of shape ``(m,)``: per query, the number of edges into
            1-agents (equals the exact query sum).
        gamma:
            Query size (edges per query, with multiplicity) — a scalar
            for the paper's fixed-size design, or an array of per-query
            sizes for variable-size designs.
        """

    @abstractmethod
    def measure_contributions(
        self, counts: np.ndarray, bits: np.ndarray, rng: RngLike = None
    ) -> np.ndarray:
        """Per-agent noisy contributions inside a single query.

        ``counts[i]`` is the multiplicity of agent ``i`` in the query and
        ``bits[i]`` its true bit. Returns one value per agent such that
        the values sum (plus any per-query noise term, see
        :meth:`query_level_noise`) to a sample of the query result.
        """

    def query_level_noise(self, rng: RngLike = None) -> float:
        """Additive per-query noise (non-zero only for query-level models)."""
        return 0.0

    def result_range(self, gamma: int) -> Tuple[float, float]:
        """The closed interval holding every result of a size-``gamma``
        query: ``[0, gamma]`` unless the channel adds query noise. Under
        an :attr:`integer_valued` channel the results are also integers.
        """
        return 0.0, float(gamma)

    @abstractmethod
    def describe(self) -> str:
        """Short human-readable channel description."""

    def key(self) -> tuple:
        """The channel's exact identity: its type and parameter values.

        Channels with equal keys measure identically from equal
        generator states. Compare channels by this, not by
        :meth:`describe`, which rounds parameters to 6 significant
        digits.
        """
        return (type(self), tuple(sorted(vars(self).items())))

    # -- moments used by oracle centering and the analysis -------------

    @abstractmethod
    def edge_mean(self, prior_one: float) -> float:
        """Expected observed value of a single random edge reading,
        where the queried agent has bit 1 with probability ``prior_one``."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.describe()})"


class NoiselessChannel(Channel):
    """The idealized channel: query results are exact sums."""

    integer_valued = True

    def measure(self, e1, gamma, rng=None):
        e1 = np.asarray(e1, dtype=np.int64)
        _check_e1_range(e1, np.asarray(gamma, dtype=np.int64))
        return e1.copy()

    def measure_contributions(self, counts, bits, rng=None):
        counts = np.asarray(counts, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int64)
        return counts * bits

    def describe(self) -> str:
        return "noiseless"

    def edge_mean(self, prior_one: float) -> float:
        return float(prior_one)


class NoisyChannel(Channel):
    """General noisy channel with false-negative ``p`` and false-positive ``q``.

    The paper assumes ``p, q in [0, 1)`` with ``p + q < 1`` (known
    constants); violating either raises ``ValueError``.
    """

    integer_valued = True

    def __init__(self, p: float, q: float):
        self.p = check_probability(p, "p")
        self.q = check_probability(q, "q")
        if self.p + self.q >= 1.0:
            raise ValueError(f"the paper requires p + q < 1, got p={p}, q={q}")

    def measure(self, e1, gamma, rng=None):
        e1 = np.asarray(e1, dtype=np.int64)
        gamma = np.asarray(gamma, dtype=np.int64)
        _check_e1_range(e1, gamma)
        gen = normalize_rng(rng)
        from_ones = gen.binomial(e1, 1.0 - self.p)
        from_zeros = gen.binomial(gamma - e1, self.q)
        return (from_ones + from_zeros).astype(np.int64)

    def measure_contributions(self, counts, bits, rng=None):
        counts = np.asarray(counts, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int64)
        gen = normalize_rng(rng)
        success = np.where(bits == 1, 1.0 - self.p, self.q)
        return gen.binomial(counts, success).astype(np.int64)

    def describe(self) -> str:
        return f"noisy-channel(p={self.p:g}, q={self.q:g})"

    def edge_mean(self, prior_one: float) -> float:
        return float(self.q + prior_one * (1.0 - self.p - self.q))

    @property
    def is_z_channel(self) -> bool:
        """True iff only 1 -> 0 errors occur (``q == 0``)."""
        return self.q == 0.0


class ZChannel(NoisyChannel):
    """The binary asymmetric channel with only 1 -> 0 flips (``q = 0``)."""

    def __init__(self, p: float):
        super().__init__(p, 0.0)

    def describe(self) -> str:
        return f"z-channel(p={self.p:g})"


#: how many standard deviations of query noise a Gaussian result may
#: stray outside ``[0, gamma]`` (:meth:`GaussianQueryNoise.result_range`)
_GAUSSIAN_REACH = 50.0


class GaussianQueryNoise(Channel):
    """The noisy query model: exact sums plus ``N(0, lambda**2)`` per query."""

    integer_valued = False

    def __init__(self, lam: float):
        self.lam = check_non_negative(lam, "lam")

    def measure(self, e1, gamma, rng=None):
        e1 = np.asarray(e1, dtype=np.float64)
        # Same sanity check as the noisy channel: the exact sum can
        # never exceed the number of edges, so out-of-range e1 means
        # corrupted inputs and must not be silently smeared by noise.
        _check_e1_range(e1, np.asarray(gamma, dtype=np.float64))
        gen = normalize_rng(rng)
        if self.lam == 0.0:
            return e1.copy()
        return e1 + gen.normal(0.0, self.lam, size=e1.shape)

    def measure_contributions(self, counts, bits, rng=None):
        counts = np.asarray(counts, dtype=np.int64)
        bits = np.asarray(bits, dtype=np.int64)
        return (counts * bits).astype(np.float64)

    def query_level_noise(self, rng: RngLike = None) -> float:
        if self.lam == 0.0:
            return 0.0
        return float(normalize_rng(rng).normal(0.0, self.lam))

    def result_range(self, gamma: int) -> Tuple[float, float]:
        """``[-50 lambda, gamma + 50 lambda]``: the exact sum lies in
        ``[0, gamma]``, and ``P(|W| > 50 lambda) = erfc(50 / sqrt(2))``
        is about 1e-545, far below the smallest float64, so no draw of
        the channel ever falls outside."""
        return -_GAUSSIAN_REACH * self.lam, gamma + _GAUSSIAN_REACH * self.lam

    def describe(self) -> str:
        return f"gaussian-query(lambda={self.lam:g})"

    def edge_mean(self, prior_one: float) -> float:
        return float(prior_one)


def make_channel(
    kind: str,
    *,
    p: float = 0.0,
    q: float = 0.0,
    lam: float = 0.0,
) -> Channel:
    """Factory used by configs and the CLI.

    ``kind`` is one of ``"noiseless"``, ``"z"``, ``"channel"`` (general
    noisy channel) or ``"gaussian"``.
    """
    if not isinstance(kind, str):
        raise TypeError(f"channel kind must be a string, got {kind!r}")
    kind = kind.lower()
    if kind == "noiseless":
        return NoiselessChannel()
    if kind == "z":
        return ZChannel(p)
    if kind in ("channel", "gnc", "noisy-channel"):
        return NoisyChannel(p, q)
    if kind in ("gaussian", "query", "noisy-query"):
        return GaussianQueryNoise(lam)
    raise ValueError(f"unknown channel kind: {kind!r}")


def effective_channel_regime(q: float, k: int, n: int) -> str:
    """Classify whether ``q`` behaves like zero (remark after Theorem 1).

    The paper observes that asymptotically ``q = o(k/n)`` behaves exactly
    as ``q = 0`` while ``q = omega(k/n)`` behaves as ``q > 0``. For
    finite instances we compare ``q`` against ``k/n``.
    """
    q = check_probability(q, "q")
    ratio = k / n
    if q == 0.0 or q < 0.1 * ratio:
        return "like-z"
    if q > 10.0 * ratio:
        return "like-positive-q"
    return "intermediate"


__all__ = [
    "Channel",
    "NoiselessChannel",
    "NoisyChannel",
    "ZChannel",
    "GaussianQueryNoise",
    "make_channel",
    "effective_channel_regime",
]
