from math import isqrt

import pytest

from spantree import (
    PartClass,
    Partition,
    allowed_parts,
    count_partitions,
    count_partitions_up_to,
    enumerate_partitions,
    p_set_enumerate,
    p_set_size,
    primes_up_to,
)
from spantree.partitions import _primes_in

from oracles import (
    ODD_PRIME_COUNTS,
    P10_MEMBERS,
    P_50,
    P_100,
    P_200,
    P_1000,
    PARTITION_COUNTS,
    PRIMES_BELOW_100,
    part_dp_counts,
    partitions_recursive,
)


class TestPartitionType:
    def test_total_and_len(self):
        p = Partition((3, 3, 5))
        assert p.total == 11
        assert len(p) == 3
        assert str(p) == "3+3+5"

    def test_empty(self):
        p = Partition(())
        assert p.total == 0
        assert str(p) == ""

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            Partition((5, 3))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((0, 3))


class TestPrimes:
    def test_sieve_matches_table(self):
        assert primes_up_to(100) == PRIMES_BELOW_100
        assert primes_up_to(97) == PRIMES_BELOW_100

    def test_small_edges(self):
        assert primes_up_to(0) == []
        assert primes_up_to(1) == []
        assert primes_up_to(2) == [2]

    def test_negative(self):
        with pytest.raises(ValueError):
            primes_up_to(-1)

    def test_window_matches_sieve(self):
        below = primes_up_to(3000)
        for lo, hi in ((0, 0), (0, 3), (2, 3), (5, 5), (10, 9), (1, 100), (90, 1000),
                       (2025, 3001)):
            assert _primes_in(lo, hi) == [p for p in below if lo <= p < hi]

    def test_window_far_from_zero(self):
        lo = 10**6
        trial = [x for x in range(lo, lo + 1000) if all(x % d for d in range(2, isqrt(x) + 1))]
        assert _primes_in(lo, lo + 1000) == trial

    def test_allowed_parts(self):
        assert allowed_parts(6, PartClass.ALL) == [1, 2, 3, 4, 5, 6]
        assert allowed_parts(10, PartClass.PRIME) == [2, 3, 5, 7]
        assert allowed_parts(10, PartClass.ODD_PRIME) == [3, 5, 7]


class TestCounts:
    def test_unrestricted_table(self):
        table = count_partitions_up_to(10, PartClass.ALL)
        assert table == PARTITION_COUNTS

    def test_classic_values(self):
        assert count_partitions(50, PartClass.ALL) == P_50
        assert count_partitions(100, PartClass.ALL) == P_100
        assert count_partitions(200, PartClass.ALL) == P_200
        assert count_partitions(1000, PartClass.ALL) == P_1000

    def test_pentagonal_matches_part_dp(self):
        for n in (0, 1, 2, 2000):
            assert count_partitions_up_to(n, PartClass.ALL) == part_dp_counts(
                n, list(range(1, n + 1))
            )

    def test_odd_prime_small(self):
        table = count_partitions_up_to(12, PartClass.ODD_PRIME)
        assert table == ODD_PRIME_COUNTS

    def test_table_consistent_with_single(self):
        table = count_partitions_up_to(30, PartClass.PRIME)
        for m in range(31):
            assert table[m] == count_partitions(m, PartClass.PRIME)

    def test_count_equals_enumeration_length(self):
        for part_class in PartClass:
            for n in range(26):
                count = count_partitions(n, part_class)
                assert count == sum(1 for _ in enumerate_partitions(n, part_class))

    def test_negative(self):
        with pytest.raises(ValueError):
            count_partitions_up_to(-1, PartClass.ALL)

    def test_negative_family_size(self):
        with pytest.raises(ValueError, match="n must be nonnegative"):
            p_set_size(-1)

    @pytest.mark.parametrize(
        "stream",
        [lambda: enumerate_partitions(-1, PartClass.ALL), lambda: p_set_enumerate(-1)],
        ids=["enumerate_partitions", "p_set_enumerate"],
    )
    def test_negative_streams_raise_on_first_next(self, stream):
        it = stream()  # a generator checks n only once it runs
        with pytest.raises(ValueError, match="n must be nonnegative"):
            next(it)


class TestEnumeration:
    def test_lexicographic_weakly_increasing(self):
        for p in enumerate_partitions(12, PartClass.ALL):
            assert all(a <= b for a, b in zip(p.parts, p.parts[1:]))
            assert p.total == 12

    def test_order_is_stable(self):
        first = [str(p) for p in enumerate_partitions(9, PartClass.ODD_PRIME)]
        second = [str(p) for p in enumerate_partitions(9, PartClass.ODD_PRIME)]
        assert first == second
        assert first == ["3+3+3"]  # 9 itself is not prime

    def test_zero_yields_empty_partition(self):
        assert list(enumerate_partitions(0, PartClass.ALL)) == [Partition(())]

    def test_no_duplicates(self):
        seen = list(enumerate_partitions(20, PartClass.PRIME))
        assert len(seen) == len(set(seen))

    @pytest.mark.parametrize(
        "part_class, max_n",
        # the unrestricted class has ~6.6M partitions over n <= 60, ~100 s of
        # recursion; n <= 30 is ~28k of them and still reaches depth 30
        [(PartClass.ALL, 30), (PartClass.PRIME, 60), (PartClass.ODD_PRIME, 60)],
    )
    def test_same_stream_as_recursion(self, part_class, max_n):
        for n in range(max_n + 1):
            assert list(enumerate_partitions(n, part_class)) == list(
                partitions_recursive(n, part_class)
            ), n


class TestCumulativeFamily:
    def test_size_ten(self):
        assert p_set_size(10) == 8

    def test_members_ten(self):
        assert [str(p) for p in p_set_enumerate(10)] == P10_MEMBERS

    def test_empty_below_three(self):
        assert p_set_size(0) == 0
        assert p_set_size(2) == 0
        assert list(p_set_enumerate(2)) == []

    def test_excludes_empty_partition(self):
        assert all(len(p) >= 1 for p in p_set_enumerate(20))

    def test_same_stream_as_recursion(self):
        # one pool sieved for 60 serves every sum; the recursion gets its own
        expected = [p for s in range(3, 61) for p in partitions_recursive(s, PartClass.ODD_PRIME)]
        assert list(p_set_enumerate(60)) == expected

    def test_size_equals_stream_length(self):
        for n in range(0, 31):
            assert p_set_size(n) == sum(1 for _ in p_set_enumerate(n))

    def test_cumulative_sum_identity(self):
        table = count_partitions_up_to(30, PartClass.ODD_PRIME)
        assert p_set_size(30) == sum(table[3:])
