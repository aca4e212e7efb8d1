"""Tests for comparator schedules and Batcher's sorting networks."""

import numpy as np
import pytest

from repro.distributed.sorting import (
    ComparatorSchedule,
    apply_schedule,
    bitonic_sort,
    distributed_sort,
    from_rounds,
    is_sorting_network,
    make_sorting_network,
    odd_even_mergesort,
    odd_even_transposition,
)


class TestScheduleValidation:
    def test_valid_schedule(self):
        s = from_rounds(4, [[(0, 1), (2, 3)], [(1, 2)]])
        assert s.depth == 2
        assert s.size == 3

    def test_wire_reuse_in_round_rejected(self):
        with pytest.raises(ValueError):
            from_rounds(3, [[(0, 1), (1, 2)]])

    def test_degenerate_comparator_rejected(self):
        with pytest.raises(ValueError):
            from_rounds(2, [[(1, 1)]])

    def test_out_of_range_wire_rejected(self):
        with pytest.raises(ValueError):
            from_rounds(2, [[(0, 2)]])

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            ComparatorSchedule(n=0, rounds=())

    def test_participation_table(self):
        s = from_rounds(3, [[(2, 0)]])
        table = s.participation
        assert table[0][2] == (0, True)  # wire 2 takes the min
        assert table[0][0] == (2, False)
        assert 1 not in table[0]


class TestApplySchedule:
    def test_single_comparator(self):
        s = from_rounds(2, [[(0, 1)]])
        assert apply_schedule([5, 3], s) == [3, 5]
        assert apply_schedule([3, 5], s) == [3, 5]

    def test_descending_comparator(self):
        s = from_rounds(2, [[(1, 0)]])  # wire 1 gets min
        assert apply_schedule([3, 5], s) == [5, 3]

    def test_wrong_length_rejected(self):
        s = from_rounds(2, [[(0, 1)]])
        with pytest.raises(ValueError):
            apply_schedule([1, 2, 3], s)


class TestOddEvenMergesort:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 13])
    def test_zero_one_principle(self, n):
        assert is_sorting_network(odd_even_mergesort(n))

    @pytest.mark.parametrize("n", [2, 5, 17, 64, 100])
    def test_sorts_random_permutations(self, n):
        gen = np.random.default_rng(n)
        s = odd_even_mergesort(n)
        for _ in range(10):
            keys = list(gen.permutation(n))
            assert apply_schedule(keys, s) == sorted(keys)

    def test_depth_is_polylog(self):
        # Batcher depth = O(log^2 n): for n = 1024 it is 55.
        s = odd_even_mergesort(1024)
        assert s.depth == 55

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            odd_even_mergesort(0)

    def test_n_one_empty(self):
        assert odd_even_mergesort(1).depth == 0

    def test_sorts_duplicates(self):
        s = odd_even_mergesort(6)
        assert apply_schedule([2, 1, 2, 0, 1, 0], s) == [0, 0, 1, 1, 2, 2]


class TestBitonicSort:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_zero_one_principle(self, n):
        assert is_sorting_network(bitonic_sort(n))

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            bitonic_sort(6)

    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_sorts_random_permutations(self, n):
        gen = np.random.default_rng(n)
        s = bitonic_sort(n)
        for _ in range(10):
            keys = list(gen.permutation(n))
            assert apply_schedule(keys, s) == sorted(keys)

    def test_known_depth(self):
        # Bitonic depth = log(n) (log(n) + 1) / 2.
        assert bitonic_sort(16).depth == 4 * 5 // 2


class TestOddEvenTransposition:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 10])
    def test_zero_one_principle(self, n):
        assert is_sorting_network(odd_even_transposition(n))

    def test_depth_is_n(self):
        assert odd_even_transposition(10).depth == 10


class TestMakeSortingNetwork:
    def test_by_name(self):
        assert make_sorting_network("batcher", 10).n == 10
        assert make_sorting_network("bitonic", 8).n == 8
        assert make_sorting_network("transposition", 5).n == 5

    def test_case_insensitive(self):
        assert make_sorting_network("BATCHER", 4).n == 4

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_sorting_network("quicksort", 4)


class TestIsSortingNetwork:
    def test_detects_non_sorting_network(self):
        incomplete = from_rounds(3, [[(0, 1)]])
        assert not is_sorting_network(incomplete)

    def test_exhaustive_limit(self):
        with pytest.raises(ValueError):
            is_sorting_network(odd_even_mergesort(20))


class TestDistributedSort:
    @pytest.mark.parametrize("n", [1, 2, 5, 17, 33])
    def test_matches_reference_executor(self, n):
        gen = np.random.default_rng(n)
        keys = [(float(v), i) for i, v in enumerate(gen.normal(size=n))]
        schedule = odd_even_mergesort(n)
        out, _ = distributed_sort(keys, schedule)
        assert out == sorted(keys)

    def test_metrics_accounting(self):
        schedule = odd_even_mergesort(8)
        keys = [(float(8 - i), i) for i in range(8)]
        _, net = distributed_sort(keys, schedule)
        # 2 messages per comparator (one per participant).
        assert net.metrics.messages == 2 * schedule.size
        assert net.metrics.bits > 0
        assert net.metrics.rounds <= schedule.depth + 2

    def test_wrong_key_count_rejected(self):
        with pytest.raises(ValueError):
            distributed_sort([(1, 0)], odd_even_mergesort(2))

    def test_ties_preserved_consistently(self):
        keys = [(1.0, i) for i in range(6)]
        out, _ = distributed_sort(keys, odd_even_mergesort(6))
        assert out == sorted(keys)
