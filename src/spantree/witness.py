"""Graphs realizing prescribed spanning-tree counts on a chosen vertex count.

A flower is the one-point union of cycles.  Its spanning-tree count is the
product of the cycle lengths: every block contributes independently, and a
cycle of length x has exactly x spanning trees.  Starting from a partition
of some s <= n into odd primes, gluing a path onto the flower pads the
vertex count up to exactly n without changing the count (a tree block
contributes a factor of 1).  Distinct partitions give distinct products,
by unique factorization, so each partition yields its own realizable count.
This module maps partitions onto ``graphs._cactus``, whose rings and tail
are a flower and its path, and which lays out `cycle` and `path` too.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from math import isqrt, prod
from typing import Iterator, Sequence

from .graphs import Graph, _cactus
from .partitions import Partition, p_set_enumerate
from .partitions import primes_up_to  # noqa: F401  perfbench's tracer test wraps this import site

__all__ = [
    "Witness",
    "flower",
    "build_witness",
    "witness_family",
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
    return _cactus(lengths, sum(lengths) - len(lengths) + 1)


def build_witness(p: Partition, n: int) -> Witness:
    """Attach a path to ``flower(p)`` so the result has exactly n vertices.

    Requires every part to be an odd prime and ``sum(parts) <= n``.  The
    flower has ``s - k + 1`` vertices, so a path on ``n - s + k`` vertices,
    merged endpoint-to-hub, lands on n exactly; a one-vertex path is the
    degenerate no-op case.  `_cactus` lays flower and path out as one
    graph: the flower keeps its labels, the path starts at the hub and runs
    on through vertices s - k + 1, ..., n - 1.
    """
    if not p.parts:
        raise ValueError("partition must be nonempty")
    s = p.total
    if s > n:
        raise ValueError(f"partition sum {s} exceeds target vertex count {n}")
    if not all(map(_is_odd_prime, set(p.parts))):
        raise ValueError("every part must be an odd prime")
    return Witness(partition=p, graph=_cactus(p.parts, n))


@cache  # a family asks about the same few parts thousands of times
def _is_odd_prime(x: int) -> bool:
    return x > 2 and x % 2 == 1 and all(x % d for d in range(3, isqrt(x) + 1, 2))


def witness_family(n: int) -> Iterator[Witness]:
    """One witness per nonempty odd-prime partition with sum <= n.

    Stream order follows the partition enumeration (ascending sum, then
    lexicographic), so two runs are identical.  Empty for n < 3.
    """
    for p in p_set_enumerate(n):
        yield build_witness(p, n)


def sidecar_json(w: Witness) -> str:
    """JSON descriptor accompanying a serialized witness graph.

    The count is a decimal string: products of many primes outgrow 64-bit
    integers, which not every JSON consumer can hold.
    """
    payload = {"n": w.n, "parts": list(w.partition.parts), "tau": str(w.tau_value)}
    return json.dumps(payload) + "\n"
