"""Graphs realizing prescribed spanning-tree counts on a chosen vertex count.

A flower is the one-point union of cycles.  Its spanning-tree count is the
product of the cycle lengths: every block contributes independently, and a
cycle of length x has exactly x spanning trees.  Starting from a partition
of some s <= n into odd primes, gluing a path onto the flower pads the
vertex count up to exactly n without changing the count (a tree block
contributes a factor of 1).  Distinct partitions give distinct products,
by unique factorization, so each partition yields its own realizable count.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isqrt, prod
from typing import Iterable, Iterator, Sequence

from .graphs import Graph
from .partitions import Partition, p_set_enumerate
from .partitions import primes_up_to  # noqa: F401  perfbench's tracer test wraps this import site

__all__ = [
    "Witness",
    "DistinctnessReport",
    "flower",
    "build_witness",
    "witness_family",
    "certify_distinct",
    "sidecar_json",
]


@dataclass(frozen=True)
class Witness:
    """An n-vertex connected graph with spanning-tree count Π parts.

    ``tau_value`` is the partition product and ``n`` the graph's vertex
    count; recomputing the count from the graph via the Laplacian is a
    verification step that belongs to the test suite, not to construction.
    """

    partition: Partition
    graph: Graph

    @property
    def tau_value(self) -> int:
        return prod(self.partition.parts)

    @property
    def n(self) -> int:
        return self.graph.n_vertices


@dataclass(frozen=True)
class DistinctnessReport:
    """Outcome of a pairwise-distinctness check over spanning-tree counts.

    ``collisions`` holds one ``(count, first_index, second_index)`` triple
    per repeated value, indices referring to input order.
    """

    collisions: tuple[tuple[int, int, int], ...]

    @property
    def ok(self) -> bool:
        return not self.collisions

    def __bool__(self) -> bool:
        return self.ok


def flower(parts: Partition | Sequence[int]) -> Graph:
    """One-point union of cycles with the given lengths, glued at vertex 0.

    Parameters
    ----------
    parts : Partition or sequence of int
        Cycle lengths, each >= 3.

    Returns
    -------
    Graph
        Vertex 0 is the shared hub; the graph has ``sum(parts) - k + 1``
        vertices and ``sum(parts)`` edges for k cycles.
    """
    lengths = tuple(parts.parts if isinstance(parts, Partition) else parts)
    if not lengths:
        raise ValueError("flower needs at least one cycle")
    if any(x < 3 for x in lengths):
        raise ValueError("cycle lengths must be >= 3")
    n = sum(lengths) - len(lengths) + 1
    return Graph._from_canonical(n, _flower_edges(lengths, n))


def _flower_edges(lengths: Sequence[int], n: int) -> tuple[tuple[int, int, int], ...]:
    """Canonical edges of `flower(lengths)` plus a path from the hub to vertex n - 1.

    Each ring is the hub 0 and a run of consecutive vertices start..end, and
    the path is the run after the last ring: spokes (0, v) join the hub to
    each run's start and each ring's end, rungs (i, i + 1) join neighbours
    within a run.  Spokes sort before rungs and both come in ascending order,
    so the triples are sorted, and distinct since each ring has x >= 3
    vertices.
    """
    spokes: list[tuple[int, int, int]] = []
    rungs: list[tuple[int, int, int]] = []
    start = 1
    for x in lengths:
        end = start + x - 2
        spokes += ((0, start, 1), (0, end, 1))
        rungs += [(i, i + 1, 1) for i in range(start, end)]
        start = end + 1
    if start < n:
        spokes.append((0, start, 1))
        rungs += [(i, i + 1, 1) for i in range(start, n - 1)]
    return (*spokes, *rungs)


def build_witness(p: Partition, n: int) -> Witness:
    """Attach a path to ``flower(p)`` so the result has exactly n vertices.

    Requires every part to be an odd prime and ``sum(parts) <= n``.  The
    flower has ``s - k + 1`` vertices, so a path on ``n - s + k`` vertices,
    merged endpoint-to-hub, lands on n exactly; a one-vertex path is the
    degenerate no-op case.  Flower and path are emitted as one edge list:
    the flower keeps its labels, the path starts at the hub and runs on
    through vertices s - k + 1, ..., n - 1.
    """
    if not p.parts:
        raise ValueError("partition must be nonempty")
    s = p.total
    if s > n:
        raise ValueError(f"partition sum {s} exceeds target vertex count {n}")
    if not all(_is_odd_prime(x) for x in set(p.parts)):
        raise ValueError("every part must be an odd prime")
    g = Graph._from_canonical(n, _flower_edges(p.parts, n))
    return Witness(partition=p, graph=g)


def _is_odd_prime(x: int) -> bool:
    return x > 2 and x % 2 == 1 and all(x % d for d in range(3, isqrt(x) + 1, 2))


def witness_family(n: int) -> Iterator[Witness]:
    """One witness per nonempty odd-prime partition with sum <= n.

    Stream order follows the partition enumeration (ascending sum, then
    lexicographic), so two runs are identical.  Empty for n < 3.
    """
    for p in p_set_enumerate(n):
        yield build_witness(p, n)


def certify_distinct(witnesses: Iterable[Witness]) -> DistinctnessReport:
    """Check that all spanning-tree counts in the collection differ.

    For family output this must always pass: the counts are products of
    odd primes, and equal products force equal multisets of parts.
    """
    seen: dict[int, int] = {}
    collisions: list[tuple[int, int, int]] = []
    for idx, w in enumerate(witnesses):
        if w.tau_value in seen:
            collisions.append((w.tau_value, seen[w.tau_value], idx))
        else:
            seen[w.tau_value] = idx
    return DistinctnessReport(collisions=tuple(collisions))


def sidecar_json(w: Witness) -> str:
    """JSON descriptor accompanying a serialized witness graph.

    The count is a decimal string: products of many primes outgrow 64-bit
    integers, which not every JSON consumer can hold.
    """
    payload = {"n": w.n, "parts": list(w.partition.parts), "tau": str(w.tau_value)}
    return json.dumps(payload) + "\n"
