"""Integer partitions with restricted parts, counted and enumerated exactly.

Three part classes matter here: unrestricted parts, prime parts, and odd
prime parts (2 excluded).  Unrestricted counts p(0..n) come from Euler's
pentagonal-number recurrence, O(n^1.5) additions; the prime classes use
the one-part-at-a-time dynamic program, O(n * #parts).  Counts live in
Python ints, so nothing overflows.  On top of the per-sum functions sits
the cumulative family: all odd-prime partitions with sum at most n, which
is what the witness construction consumes.

A single prime-class count of n runs the dynamic program only over the
parts a <= n/3.  Three parts above n/3 sum past n, so a partition of
n holds at most two of them, and the count is the sum of the small-part
table D at n - (sum of S) over the multisets S of at most two large parts
whose sum is at most n.  In the table the large parts cost n - a + 1
additions each, 36-41% of all its additions for n = 300..10^5 (odd
primes).  Here a pair p <= q costs one addition; both lie in (n/3, 2n/3],
so there are about (n / (3 ln n))^2 / 4 pairs: 739 at n = 1,000, 2.4
million at 10^5, against 2.0 * 10^8 additions saved there.  The
cumulative count takes the same sum over the prefix sums of D.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from math import isqrt
from typing import Iterator

import numpy as np

__all__ = [
    "PartClass",
    "Partition",
    "primes_up_to",
    "allowed_parts",
    "count_partitions_up_to",
    "count_partitions",
    "enumerate_partitions",
    "p_set_size",
    "p_set_enumerate",
]


class PartClass(Enum):
    """Which integers are allowed as parts."""

    ALL = "all"
    PRIME = "prime"
    ODD_PRIME = "oddprime"


@dataclass(frozen=True)
class Partition:
    """Weakly increasing parts; the empty tuple is the partition of 0."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.parts and min(self.parts) < 1:
            raise ValueError("parts must be >= 1")
        if list(self.parts) != sorted(self.parts):
            raise ValueError("parts must be weakly increasing")

    @property
    def total(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __str__(self) -> str:
        return "+".join(str(p) for p in self.parts)


def primes_up_to(n: int) -> list[int]:
    """All primes <= n, ascending (sieve of Eratosthenes)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _primes_in(0, n + 1)


def _primes_in(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p < hi, ascending (segmented sieve of Eratosthenes).

    Only [lo, hi) is sieved, by the primes up to its square root, which come
    from the same sieve; so memory is hi - lo flags however large hi is.
    `spanning` sieves its windows of CRT primes below 2^27 with it.
    """
    lo = max(lo, 2)
    if hi <= lo:
        return []
    flags = np.ones(hi - lo, dtype=bool)
    for q in _primes_in(2, isqrt(hi - 1) + 1):
        flags[max(q * q, -(-lo // q) * q) - lo :: q] = False
    return (lo + np.flatnonzero(flags)).tolist()


def allowed_parts(n: int, part_class: PartClass) -> list[int]:
    """The ascending list of parts <= n permitted by ``part_class``."""
    if part_class is PartClass.ALL:
        return list(range(1, n + 1))
    primes = primes_up_to(n)
    if part_class is PartClass.ODD_PRIME:
        return [p for p in primes if p != 2]
    return primes


def count_partitions_up_to(n: int, part_class: PartClass) -> list[int]:
    """Exact partition counts for every sum ``0..n`` at once.

    ``result[m]`` is the number of partitions of ``m`` with parts in the
    class.  Unrestricted parts use Euler's pentagonal-number recurrence;
    the prime classes take one dynamic-programming pass per allowed part.
    The table is the cheap way to get a whole range of counts.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if part_class is PartClass.ALL:
        return _pentagonal_table(n)
    return _part_table(n, allowed_parts(n, part_class))


def _part_table(n: int, parts: list[int]) -> list[int]:
    """Partitions of 0..n into the given distinct parts, one pass per part."""
    dp = [1] + [0] * n
    for a in parts:
        # ascending m, reading entries already updated in this pass: that is
        # the unbounded recurrence, i.e. a part may repeat
        for m, below in zip(range(a, n + 1), dp):
            dp[m] += below
    return dp


def _count_split(n: int, part_class: PartClass, cumulative: bool) -> int:
    """Partitions of exactly ``n`` (of at most ``n`` if ``cumulative``) in a
    prime class, with the table built over the parts <= n/3 only.

    ``table[k]`` counts the partitions of k (of at most k) into small parts,
    so each multiset S of at most two large parts with sum <= n adds
    ``table[n - sum(S)]``; the pairs are p <= q.
    """
    parts = allowed_parts(n, part_class)
    small = [a for a in parts if 3 * a <= n]
    large = parts[len(small) :]
    table = _part_table(n, small)
    if cumulative:
        table = list(accumulate(table))
    total = table[n]
    for i, p in enumerate(large):
        rest = n - p
        total += table[rest] + sum([table[rest - q] for q in large[i : bisect_right(large, rest)]])
    return total


def _pentagonal_table(n: int) -> list[int]:
    """p(0..n) by Euler's recurrence over the generalized pentagonal numbers.

    p(m) = sum over k >= 1 of (-1)^(k+1) [p(m - k(3k-1)/2) + p(m - k(3k+1)/2)],
    terms with a negative argument being 0.  The offsets ascend with k, so
    those at most m form a prefix that grows with m; each p(m) is about
    2 * sqrt(2m/3) additions or subtractions.
    """
    offsets: list[tuple[int, bool]] = []  # (offset, added?) in ascending order
    k = 1
    while (g := k * (3 * k - 1) // 2) <= n:
        offsets += [(g, k % 2 == 1), (g + k, k % 2 == 1)]
        k += 1
    p = [1] + [0] * n
    plus: list[int] = []
    minus: list[int] = []
    live = 0
    for m in range(1, n + 1):
        while live < len(offsets) and offsets[live][0] <= m:
            g, added = offsets[live]
            (plus if added else minus).append(g)
            live += 1
        p[m] = sum([p[m - g] for g in plus]) - sum([p[m - g] for g in minus])
    return p


def count_partitions(n: int, part_class: PartClass) -> int:
    """Number of partitions of exactly ``n`` with parts in the class.

    The prime classes never build the table of every sum: their dynamic
    program runs over the parts <= n/3 only, and the at most two larger
    parts a partition of n can hold are added in closed form (see the
    module docstring).  Unrestricted counts read Euler's table.
    """
    if part_class is PartClass.ALL:
        return count_partitions_up_to(n, part_class)[n]
    return _count_split(n, part_class, cumulative=False)


def enumerate_partitions(n: int, part_class: PartClass) -> Iterator[Partition]:
    """Yield each partition of exactly ``n`` once, in lexicographic order.

    Parts come out weakly increasing; the stream length equals
    `count_partitions(n, part_class)`.  For ``n = 0`` the single empty
    partition is yielded.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    yield from _enumerate(n, allowed_parts(n, part_class))


def _enumerate(n: int, pool: list[int]) -> Iterator[Partition]:
    """Partitions of ``n`` into parts from the ascending ``pool``, lexicographic.

    A depth-first search kept on an explicit stack: ``taken`` holds the pool
    index of each part of the current prefix.  A part larger than what is
    left ends the candidates at that depth, so pool entries above ``n`` are
    never used and one pool serves every sum up to its bound.
    """
    parts: list[int] = []
    taken: list[int] = []
    remaining, idx = n, 0
    while True:
        if remaining == 0:
            yield Partition(tuple(parts))
        elif idx < len(pool) and pool[idx] <= remaining:
            parts.append(pool[idx])
            taken.append(idx)
            remaining -= pool[idx]
            continue  # the next part may repeat this one
        if not taken:
            return
        remaining += parts.pop()
        idx = taken.pop() + 1


def p_set_size(n: int) -> int:
    """Number of nonempty odd-prime partitions with sum <= n.

    The empty partition is excluded: every member must be mappable to a
    graph, which needs at least one part.  Equals the sum of the odd-prime
    counts for sums 3..n, taken as `count_partitions` takes one count: the
    prefix sums of the table over the odd primes <= n/3, read at n less
    each multiset of at most two larger odd primes, less the empty
    partition.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _count_split(n, PartClass.ODD_PRIME, cumulative=True) - 1


def p_set_enumerate(n: int) -> Iterator[Partition]:
    """Yield the nonempty odd-prime partitions with sum <= n.

    Grouped by ascending sum, lexicographic within a sum; the stream length
    equals `p_set_size(n)`.  Two runs produce identical sequences.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    pool = allowed_parts(n, PartClass.ODD_PRIME)
    for s in range(3, n + 1):
        yield from _enumerate(s, pool)
