"""Deterministic random-number-generator plumbing.

Every stochastic entry point in this library accepts either an integer
seed, a :class:`numpy.random.Generator`, or ``None`` (fresh OS entropy).
Experiments that run many independent trials spawn one child generator
per trial through :func:`spawn_rngs` so that

* results are exactly reproducible from a single root seed, and
* trials are statistically independent regardless of execution order.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def normalize_rng(rng: RngLike = None) -> np.random.Generator:
    """Coerce ``rng`` into a :class:`numpy.random.Generator`.

    Parameters
    ----------
    rng:
        ``None`` (fresh entropy), an integer seed, a ``SeedSequence``, or
        an existing ``Generator`` (returned unchanged).
    """
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, np.random.SeedSequence):
        return np.random.default_rng(rng)
    if rng is None or isinstance(rng, (int, np.integer)):
        return np.random.default_rng(rng)
    raise TypeError(f"cannot interpret {rng!r} as a random generator")


def spawn_seeds(root: RngLike, count: int) -> List[np.random.SeedSequence]:
    """Derive ``count`` independent seed sequences from a root seed.

    The derivation uses ``numpy.random.SeedSequence.spawn`` which
    guarantees statistically independent streams.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    if isinstance(root, np.random.SeedSequence):
        seq = root
    elif isinstance(root, np.random.Generator):
        # Use the generator to draw a fresh entropy value; keeps the
        # caller's generator as the single source of determinism.
        seq = np.random.SeedSequence(int(root.integers(0, 2**63 - 1)))
    else:
        seq = np.random.SeedSequence(root)
    return seq.spawn(count)


def spawn_rngs(root: RngLike, count: int) -> List[np.random.Generator]:
    """Spawn ``count`` independent generators from a root seed."""
    return [np.random.default_rng(s) for s in spawn_seeds(root, count)]


def copy_generator(rng: np.random.Generator) -> np.random.Generator:
    """An independent generator positioned exactly where ``rng`` is.

    Draws the same stream as ``copy.deepcopy(rng)``: the bit
    generator's whole state, buffered 32-bit half-words included, is
    copied into a fresh bit generator of the same type (seeded with 0
    only to skip gathering OS entropy; the state replaces it). About
    3x cheaper than ``deepcopy``.
    """
    bit_generator = type(rng.bit_generator)(0)
    bit_generator.state = rng.bit_generator.state
    return np.random.Generator(bit_generator)


def interleave_seeds(
    root: RngLike, labels: Sequence[str]
) -> "dict[str, np.random.SeedSequence]":
    """Derive one named seed sequence per label.

    Useful when an experiment has several independent sources of
    randomness (e.g. ground truth vs. pooling design vs. channel noise)
    that must stay decoupled when one of them is re-drawn.
    """
    seqs = spawn_seeds(root, len(labels))
    return dict(zip(labels, seqs))


def generator_state_fingerprint(rng: np.random.Generator) -> int:
    """Cheap fingerprint of generator state (for tests and debugging)."""
    state = rng.bit_generator.state
    return hash(str(sorted(state.items()))) & 0x7FFFFFFFFFFFFFFF


__all__ = [
    "RngLike",
    "normalize_rng",
    "spawn_seeds",
    "spawn_rngs",
    "copy_generator",
    "interleave_seeds",
    "generator_state_fingerprint",
]
