"""Ground-truth generation for the pooled data problem.

The model (paper, Section II): out of ``n`` agents exactly ``k`` hold the
hidden bit 1; the ground truth ``sigma`` is drawn uniformly at random
among all binary vectors of Hamming weight ``k`` and length ``n``.

Two regimes parameterize ``k``:

* **sublinear**: ``k = n**theta`` for ``theta in (0, 1)`` — e.g. early
  epidemic spread (the paper uses ``theta = 0.25`` throughout Section V);
* **linear**: ``k = zeta * n`` for ``zeta in (0, 1)`` — e.g. traffic
  monitoring or confidential data transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.utils.rng import RngLike, normalize_rng
from repro.utils.validation import check_fraction, check_positive_int


def sublinear_k(n: int, theta: float) -> int:
    """Number of 1-agents in the sublinear regime, ``k = round(n**theta)``.

    The result is clamped to ``[1, n]`` so that tiny instances remain
    well defined.
    """
    n = check_positive_int(n, "n")
    theta = check_fraction(theta, "theta")
    return int(min(n, max(1, round(n**theta))))


def linear_k(n: int, zeta: float) -> int:
    """Number of 1-agents in the linear regime, ``k = round(zeta * n)``."""
    n = check_positive_int(n, "n")
    zeta = check_fraction(zeta, "zeta")
    return int(min(n, max(1, round(zeta * n))))


def regime_k(n: int, *, theta: Optional[float] = None, zeta: Optional[float] = None) -> int:
    """Dispatch to :func:`sublinear_k` or :func:`linear_k`.

    Exactly one of ``theta`` / ``zeta`` must be given.
    """
    if (theta is None) == (zeta is None):
        raise ValueError("specify exactly one of theta (sublinear) or zeta (linear)")
    if theta is not None:
        return sublinear_k(n, theta)
    return linear_k(n, zeta)


@dataclass(frozen=True)
class GroundTruth:
    """A sampled ground truth ``sigma`` with convenience accessors.

    Attributes
    ----------
    sigma:
        Bit vector of shape ``(n,)``, dtype int8, Hamming weight ``k``.
    """

    sigma: np.ndarray

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma)
        if sigma.ndim != 1:
            raise ValueError(f"sigma must be one-dimensional, got shape {sigma.shape}")
        # Two comparisons, not np.unique: in NumPy 2.4 unique imports
        # numpy.ma, which nothing else on a decode or a sweep worker needs.
        if not np.all((sigma == 0) | (sigma == 1)):
            raise ValueError("sigma must be a 0/1 vector")
        object.__setattr__(self, "sigma", sigma.astype(np.int8, copy=False))

    @property
    def n(self) -> int:
        """Number of agents."""
        return int(self.sigma.size)

    @property
    def k(self) -> int:
        """Number of agents with hidden bit 1."""
        return int(self.sigma.sum())

    @property
    def ones(self) -> np.ndarray:
        """Sorted indices of the 1-agents."""
        return np.flatnonzero(self.sigma == 1)

    @property
    def zeros(self) -> np.ndarray:
        """Sorted indices of the 0-agents."""
        return np.flatnonzero(self.sigma == 0)

    def as_set(self) -> frozenset:
        """The set of 1-agents (useful for exact-recovery checks)."""
        return frozenset(int(i) for i in self.ones)


def sample_ground_truth(n: int, k: int, rng: RngLike = None) -> GroundTruth:
    """Draw ``sigma`` uniformly among weight-``k`` binary vectors of length ``n``."""
    n = check_positive_int(n, "n")
    k = check_positive_int(k, "k", minimum=0)
    if k > n:
        raise ValueError(f"k must be <= n, got k={k}, n={n}")
    gen = normalize_rng(rng)
    sigma = np.zeros(n, dtype=np.int8)
    if k:
        ones = gen.choice(n, size=k, replace=False)
        sigma[ones] = 1
    return GroundTruth(sigma)


def sample_sublinear(n: int, theta: float, rng: RngLike = None) -> GroundTruth:
    """Sample a ground truth in the sublinear regime ``k = n**theta``."""
    return sample_ground_truth(n, sublinear_k(n, theta), rng)


def sample_linear(n: int, zeta: float, rng: RngLike = None) -> GroundTruth:
    """Sample a ground truth in the linear regime ``k = zeta n``."""
    return sample_ground_truth(n, linear_k(n, zeta), rng)


__all__ = [
    "GroundTruth",
    "sublinear_k",
    "linear_k",
    "regime_k",
    "sample_ground_truth",
    "sample_sublinear",
    "sample_linear",
]
