"""Unit tests for repro.utils (rng plumbing and validation)."""

import numpy as np
import pytest

from repro.utils.rng import (
    copy_generator,
    generator_state_fingerprint,
    interleave_seeds,
    normalize_rng,
    spawn_rngs,
    spawn_seeds,
)
from repro.utils.validation import (
    check_fraction,
    check_in_range,
    check_non_negative,
    check_non_negative_int,
    check_positive,
    check_positive_int,
    check_probability,
)


class TestNormalizeRng:
    def test_from_none(self):
        assert isinstance(normalize_rng(None), np.random.Generator)

    def test_from_int_deterministic(self):
        a = normalize_rng(42).integers(0, 1000, 5)
        b = normalize_rng(42).integers(0, 1000, 5)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        gen = np.random.default_rng(1)
        assert normalize_rng(gen) is gen

    def test_from_seed_sequence(self):
        seq = np.random.SeedSequence(7)
        assert isinstance(normalize_rng(seq), np.random.Generator)

    def test_rejects_junk(self):
        with pytest.raises(TypeError):
            normalize_rng("seed")


class TestSpawning:
    def test_spawn_count(self):
        assert len(spawn_seeds(0, 5)) == 5
        assert len(spawn_rngs(0, 3)) == 3

    def test_spawn_zero(self):
        assert spawn_seeds(0, 0) == []

    def test_spawn_negative_rejected(self):
        with pytest.raises(ValueError):
            spawn_seeds(0, -1)

    def test_children_are_independent_streams(self):
        a, b = spawn_rngs(123, 2)
        xa = a.integers(0, 10**9, 10)
        xb = b.integers(0, 10**9, 10)
        assert not np.array_equal(xa, xb)

    def test_deterministic_from_root(self):
        a1, a2 = spawn_rngs(55, 2)
        b1, b2 = spawn_rngs(55, 2)
        assert np.array_equal(a1.integers(0, 100, 5), b1.integers(0, 100, 5))
        assert np.array_equal(a2.integers(0, 100, 5), b2.integers(0, 100, 5))

    def test_spawn_from_generator(self):
        gen = np.random.default_rng(9)
        children = spawn_rngs(gen, 2)
        assert len(children) == 2

    def test_interleave_labels(self):
        seeds = interleave_seeds(3, ["truth", "graph", "noise"])
        assert set(seeds) == {"truth", "graph", "noise"}

    def test_fingerprint_changes_after_draw(self):
        gen = np.random.default_rng(1)
        before = generator_state_fingerprint(gen)
        gen.integers(0, 10)
        assert generator_state_fingerprint(gen) != before


class TestCopyGenerator:
    @staticmethod
    def _draws(gen):
        # a mix that reads 32-bit halves, full words, and float paths
        return (
            gen.integers(0, 1000, size=7, dtype=np.int32).tolist(),
            gen.binomial(40, 0.3, size=5).tolist(),
            gen.normal(size=3).tolist(),
            gen.integers(0, 2**40, size=4).tolist(),
        )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: np.random.default_rng(np.random.SeedSequence(5)),
            lambda: np.random.Generator(np.random.PCG64DXSM(3)),
            lambda: np.random.Generator(np.random.MT19937(4)),
            lambda: np.random.Generator(np.random.Philox(6)),
        ],
        ids=["pcg64", "pcg64dxsm", "mt19937", "philox"],
    )
    @pytest.mark.parametrize("buffered", [False, True])
    def test_same_stream_as_deepcopy(self, make, buffered):
        import copy

        gen = make()
        if buffered:
            # an odd count of 32-bit draws leaves a buffered half-word
            gen.integers(0, 10, size=3, dtype=np.int32)
        if isinstance(gen.bit_generator, np.random.PCG64):
            assert gen.bit_generator.state["has_uint32"] == int(buffered)
        expected = self._draws(copy.deepcopy(gen))
        copied = copy_generator(gen)
        assert copied.bit_generator is not gen.bit_generator
        assert self._draws(copied) == expected
        # the copy's draws leave the source where it was
        assert self._draws(gen) == expected


class TestValidation:
    def test_positive_int(self):
        assert check_positive_int(5, "x") == 5
        with pytest.raises(ValueError):
            check_positive_int(0, "x")
        with pytest.raises(TypeError):
            check_positive_int(1.5, "x")
        with pytest.raises(TypeError):
            check_positive_int(True, "x")

    def test_positive_int_numpy(self):
        assert check_positive_int(np.int64(3), "x") == 3

    def test_non_negative_int(self):
        assert check_non_negative_int(0, "x") == 0

    def test_probability(self):
        assert check_probability(0.0, "p") == 0.0
        assert check_probability(0.999, "p") == 0.999
        with pytest.raises(ValueError):
            check_probability(1.0, "p")
        assert check_probability(1.0, "p", allow_one=True) == 1.0
        with pytest.raises(ValueError):
            check_probability(-0.1, "p")

    def test_fraction(self):
        assert check_fraction(0.5, "z") == 0.5
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                check_fraction(bad, "z")

    def test_positive(self):
        assert check_positive(0.1, "x") == 0.1
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_non_negative(self):
        assert check_non_negative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_non_negative(-1e-9, "x")

    def test_in_range(self):
        assert check_in_range(5, "x", low=0, high=10) == 5
        with pytest.raises(ValueError):
            check_in_range(11, "x", low=0, high=10)
        with pytest.raises(ValueError):
            check_in_range(-1, "x", low=0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            check_non_negative(float("nan"), "x")

    def test_error_message_names_parameter(self):
        with pytest.raises(ValueError, match="my_param"):
            check_positive(-1, "my_param")
