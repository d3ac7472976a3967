"""Independent reference implementations the tests compare against.

Nothing in here shares code paths with what it checks: spanning trees
are counted by brute force over every (n-1)-edge subset and by the
deletion-contraction recurrence instead of by elimination, the Laplacian
is a list of lists filled edge by edge instead of one numpy array, the
determinant is cofactor expansion, or for larger matrices elimination
with row swaps of any square matrix, instead of τ's elimination without
row swaps of positive semidefinite blocks, the atlas is a scan of every
labelled edge subset instead of an extension of isomorphism classes, the
extensions' counts are one ``tau`` of one ``Graph`` each instead of a
subset tree over L_G, an atlas file's values are checked one value at a
time in Python instead of by whole-list passes in C, a graph's exact
canonical code is its least code over all k! relabellings instead of one
colour-refinement relabelling, connectivity is a breadth-first search
(the check on the brute force's union-find), a graph's canonical edges
are merged on sorted pairs instead of on integer keys into numpy
columns, unrestricted partition counts are the one-part-at-a-time
dynamic program instead of Euler's pentagonal recurrence, partitions are
listed by nested generators over a trial-division pool instead of an
explicit stack over a sieved one, and the float formulas are evaluated
in linear space instead of log-space.
Slow and simple on purpose.
"""
from __future__ import annotations

import math
import random
from collections import deque
from itertools import combinations, permutations
from typing import Iterable, Iterator

import numpy as np

from spantree import HARD_CAP, AtlasRecord, Graph, PartClass, Partition, tau

# p(0)..p(10), then two classics, all long-published table values
PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]
P_50 = 204226
P_100 = 190569292
P_200 = 3_972_999_029_388
P_1000 = 24_061_467_864_032_622_473_692_149_727_991

PRIMES_BELOW_100 = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
    53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
]

# odd-prime partition counts for sums 0..12, checked by hand (sum 0 has
# the empty partition): 3; 5; 3+3; 7; 3+5; 3+3+3; 3+7, 5+5; 11, 3+3+5;
# 5+7, 3+3+3+3
ODD_PRIME_COUNTS = [1, 0, 0, 1, 0, 1, 1, 1, 1, 1, 2, 2, 2]

# the eight odd-prime partitions with sum <= 10, in stream order
P10_MEMBERS = ["3", "5", "3+3", "7", "3+5", "3+3+3", "3+7", "5+5"]
P10_TAUS = [3, 5, 9, 7, 15, 27, 21, 25]

# hand-checkable: on 3 vertices only trees and the triangle; on 4, the five
# shapes tree / triangle+pendant / 4-cycle / diamond / complete
ATLAS_3 = {1, 3}
ATLAS_4 = {1, 3, 4, 8, 16}

# `tau_bruteforce` refuses graphs with more (n-1)-edge subsets than this
BRUTE_FORCE_LIMIT = 5_000_000


def part_dp_counts(n: int, parts: list[int]) -> list[int]:
    """Partitions of 0..n with parts from ``parts`` (each value listed once).

    The classic O(n * #parts) table: after the pass for part a, entry m
    counts the partitions of m into the parts seen so far.
    """
    dp = [1] + [0] * n
    for a in parts:
        for m in range(a, n + 1):
            dp[m] += dp[m - a]
    return dp


def partitions_recursive(n: int, part_class: PartClass) -> Iterator[Partition]:
    """Partitions of n with parts in the class, lexicographic: one generator
    per part, each adding parts no smaller than its caller's."""
    pool = [
        a for a in range(1, n + 1)
        if part_class is PartClass.ALL
        or a > 1 and all(a % d for d in range(2, math.isqrt(a) + 1))
        and (part_class is PartClass.PRIME or a != 2)
    ]

    def rec(remaining: int, start: int, prefix: list[int]) -> Iterator[Partition]:
        if remaining == 0:
            yield Partition(tuple(prefix))
            return
        for idx in range(start, len(pool)):
            a = pool[idx]
            if a > remaining:
                break
            prefix.append(a)
            yield from rec(remaining - a, idx, prefix)
            prefix.pop()

    yield from rec(n, 0, [])


def det_cofactor(mat: list[list[int]]) -> int:
    """Determinant by first-row cofactor expansion; fine up to ~8x8."""
    k = len(mat)
    if k == 0:
        return 1
    if k == 1:
        return mat[0][0]
    total = 0
    for j, x in enumerate(mat[0]):
        if x == 0:
            continue
        minor = [[row[c] for c in range(k) if c != j] for row in mat[1:]]
        total += (-1) ** j * x * det_cofactor(minor)
    return total


def det_bareiss(mat: list[list[int]]) -> int:
    """Determinant of any square integer matrix by fraction-free (Bareiss)
    elimination.

    A zero pivot is swapped for the first nonzero entry below it in its
    column, flipping the sign; a column with none means the determinant is
    0.  Each step divides exactly by the previous pivot.  The 0 x 0 matrix
    has determinant 1; ``mat`` is not changed.
    """
    k = len(mat)
    if k == 0:
        return 1
    a = [list(row) for row in mat]
    sign, prev = 1, 1
    for c in range(k):
        swap = next((r for r in range(c, k) if a[r][c]), None)
        if swap is None:
            return 0
        if swap != c:
            a[c], a[swap] = a[swap], a[c]
            sign = -sign
        top = a[c]
        p = top[c]
        for r in range(c + 1, k):
            row, x = a[r], a[r][c]
            a[r] = [0] * (c + 1) + [(p * row[j] - x * top[j]) // prev for j in range(c + 1, k)]
        prev = p
    return sign * a[k - 1][k - 1]


def principal_minor(mat: list[list[int]], strike: int) -> list[list[int]]:
    """Copy of ``mat`` with row and column ``strike`` removed."""
    return [
        [x for j, x in enumerate(row) if j != strike]
        for i, row in enumerate(mat)
        if i != strike
    ]


def laplacian(g: Graph) -> list[list[int]]:
    """Combinatorial Laplacian ``D - A`` with multiplicities counted.

    Diagonal entries are vertex degrees (sums of multiplicities); the
    off-diagonal entry for a pair is minus its multiplicity.  Rows sum to 0.
    """
    n = g.n_vertices
    mat = [[0] * n for _ in range(n)]
    for u, v, m in g.edges:
        mat[u][u] += m
        mat[v][v] += m
        mat[u][v] -= m
        mat[v][u] -= m
    return mat


def canonical(edges: Iterable[tuple[int, ...]]) -> tuple[tuple[int, int, int], ...]:
    """The canonical ``(u, v, m)`` triples of edge entries, pairs ``(u, v)``
    (multiplicity 1) or triples ``(u, v, m)`` in either endpoint order: one
    per vertex pair with ``u < v`` and the multiplicities summed, sorted."""
    merged: dict[tuple[int, int], int] = {}
    for u, v, *m in edges:
        pair = (min(u, v), max(u, v))
        merged[pair] = merged.get(pair, 0) + (m[0] if m else 1)
    return tuple((u, v, m) for (u, v), m in sorted(merged.items()))


def connects(n: int, pairs: Iterable[tuple[int, int]]) -> bool:
    """Whether the vertex pairs join all of 0..n-1 into at most one component.

    Union-find with path halving, stopping as soon as one component is left.
    """
    parent = list(range(n))
    components = n
    for u, v in pairs:
        if components == 1:
            break
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            components -= 1
    return components <= 1


def tau_bruteforce(g: Graph) -> int:
    """Count spanning trees by scanning all (n-1)-edge subsets.

    A subset counts when its edges (parallel copies are distinct edges)
    join all n vertices, as n - 1 edges do exactly when they form a tree.
    Refuses when C(|E|, n-1) exceeds BRUTE_FORCE_LIMIT.
    """
    n = g.n_vertices
    if n == 0:
        return 0
    n_subsets = math.comb(g.n_edges, n - 1)
    if n_subsets > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"{n_subsets} subsets exceed the enumeration budget of {BRUTE_FORCE_LIMIT}"
        )
    instances = [(u, v) for u, v, m in g.edges for _ in range(m)]  # parallel copies apart
    return sum(connects(n, subset) for subset in combinations(instances, n - 1))


def multiplicity(g: Graph, u: int, v: int) -> int:
    """Multiplicity of the edge ``uv`` (0 when absent)."""
    key = (u, v) if u < v else (v, u)
    return next((m for a, b, m in g.edges if (a, b) == key), 0)


def delete_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Remove one copy of the edge ``e``; the multiplicity drops by 1."""
    u, v = e
    key = (u, v) if u < v else (v, u)
    if multiplicity(g, *key) < 1:
        raise ValueError(f"edge {key} not present")
    edges = []
    for a, b, m in g.edges:
        if (a, b) == key:
            if m > 1:
                edges.append((a, b, m - 1))
        else:
            edges.append((a, b, m))
    return Graph(g.n_vertices, tuple(edges))


def contract_edge(g: Graph, e: tuple[int, int]) -> Graph:
    """Merge the endpoints of ``e`` into one vertex.

    Parallel edges produced by the merge keep their summed multiplicities;
    copies of ``e`` itself become loops and are discarded.  The surviving
    endpoint is ``min(e)`` and vertices above ``max(e)`` shift down by one.
    """
    u, v = e
    if u > v:
        u, v = v, u
    if multiplicity(g, u, v) < 1:
        raise ValueError(f"edge {(u, v)} not present")

    def relabel(w: int) -> int:
        if w == v:
            return u
        return w - 1 if w > v else w

    edges = []
    for a, b, m in g.edges:
        ra, rb = relabel(a), relabel(b)
        if ra != rb:
            edges.append((ra, rb, m))
    return Graph(g.n_vertices - 1, tuple(edges))


def random_multigraph(
    rng: random.Random, *, max_vertices: int = 6, max_edges: int = 8, max_mult: int = 3
) -> Graph:
    """A small random multigraph; may be disconnected, never has loops."""
    n = rng.randint(1, max_vertices)
    edges: list[tuple[int, int, int]] = []
    budget = rng.randint(0, max_edges)
    used = 0
    while used < budget and n >= 2:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        m = min(rng.randint(1, max_mult), budget - used)
        edges.append((u, v, m))
        used += m
    return Graph(n, tuple(edges))


def random_odd_prime_partition(rng: random.Random, max_sum: int) -> tuple[int, ...]:
    """Weakly increasing odd-prime parts with 3 <= sum <= max_sum."""
    odd_primes = [p for p in PRIMES_BELOW_100 if p != 2 and p <= max_sum]
    while True:
        target = rng.randint(3, max_sum)
        parts: list[int] = []
        remaining = target
        while remaining:
            choices = [
                p
                for p in odd_primes
                if p <= remaining and (remaining - p == 0 or remaining - p >= 3)
                and remaining - p != 4
            ]
            if not choices:
                break
            pick = rng.choice(choices)
            parts.append(pick)
            remaining -= pick
        if not remaining and parts:
            return tuple(sorted(parts))


def hr_linear(n: int) -> float:
    """Partition asymptotic evaluated directly in linear space."""
    return math.exp(math.pi * math.sqrt(2.0 * n / 3.0)) / (4.0 * n * math.sqrt(3.0))


def f_linear(n: int) -> float:
    return math.exp(2.0 * math.pi / math.sqrt(3.0) * math.sqrt(n / math.log(n)))


def cumulative_linear(n: int) -> float:
    return 0.25 * math.sqrt(n * math.log(n)) * f_linear(n)


def target_linear(n: int) -> float:
    return math.sqrt(3.0) / math.pi * math.sqrt(n * math.log(n)) * f_linear(n)


def _scan_batch(n: int, lo: int, hi: int) -> set[int]:
    """Distinct counts over connected graphs among masks [lo, hi)."""
    if n == 1:
        return {1} if lo <= 0 < hi else set()
    us, vs = np.triu_indices(n, 1)  # the pairs in lexicographic order
    masks = np.arange(lo, hi, dtype=np.int64)
    bits = (masks >> np.arange(len(us), dtype=np.int64)[:, None]) & 1
    # the batch is the last axis, so every elementwise step runs over
    # contiguous runs of masks
    lap = np.zeros((n, n, hi - lo), dtype=np.int64)
    lap[us, vs] = lap[vs, us] = -bits
    lap[range(n), range(n)] = -lap.sum(axis=1)
    m = lap[1:, 1:]  # strike vertex 0

    prev = 1
    for col in range(n - 2):
        pivot = m[col, col]
        rest = slice(col + 1, None)
        m[rest, rest] = (m[rest, rest] * pivot - m[rest, col, None] * m[None, col, rest]) // prev
        prev = np.maximum(pivot, 1)  # a zero pivot left only zeros below it
    det = m[-1, -1]
    return set(np.unique(det[det > 0]).tolist())


def mask_scan_atlas(n: int, batch: int = 1 << 16) -> tuple[int, ...]:
    """Sorted distinct spanning-tree counts over all 2^C(n,2) edge subsets.

    Each batch of masks becomes struck Laplacians (vertex 0 deleted) that
    are eliminated together, fraction-free and without pivot search; the
    result is 0 exactly for the disconnected subsets, which are dropped.
    A zero pivot needs no special case.  The struck Laplacian is positive
    semidefinite.  While earlier pivots are positive, the trailing block is
    the last of them (a leading minor) times a positive semidefinite Schur
    complement, whose zero diagonal entries have zero rows and columns; so
    a zero pivot leaves an all-zero trailing block and a final value of 0.
    The next step divides by max(pivot, 1): for a connected graph every
    pivot is a leading minor of a positive definite matrix, hence positive,
    so nothing changes.  int64 never overflows through n = 10: intermediate
    entries are determinants of submatrices, Hadamard-bounded well below
    2^63 (n = 8: about 1.3e6, squared in the update step still ~1.7e12).
    """
    assert n <= 10  # the int64 margin above
    total = 1 << (n * (n - 1) // 2)
    values: set[int] = set()
    for lo in range(0, total, batch):
        values |= _scan_batch(n, lo, min(lo + batch, total))
    return tuple(sorted(values))


def check_atlas_payload(path, payload) -> AtlasRecord:
    """``load_atlas``'s checks on the parsed JSON ``payload`` of the file
    at ``path``, each value checked and compared in a Python loop: the
    record, or a ValueError with ``load_atlas``'s message."""
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    for key, kind in {"n": int, "size": int, "values": list,
                      "graphs_scanned": int, "elapsed_ms": int}.items():
        if type(payload.get(key)) is not kind:
            raise ValueError(f"{path}: field {key!r} missing or not {kind.__name__}")
    raw = payload["values"]
    if not all(type(s) is str and s.isascii() and s.isdigit() for s in raw):
        raise ValueError(f"{path}: values must be decimal strings")
    n = payload["n"]
    if not 1 <= n <= HARD_CAP:
        raise ValueError(f"{path}: n must be >= 1 and <= {HARD_CAP}")
    cayley = n ** (n - 2) if n > 2 else 1
    digits = len(str(cayley))
    if any(len(s) > digits for s in raw):
        raise ValueError(f"{path}: values must have at most {digits} digits")
    values = tuple(int(s) for s in raw)
    if payload["size"] != len(values):
        raise ValueError(f"{path}: size is {payload['size']} but there are {len(values)} values")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(f"{path}: values must be strictly ascending")
    if values[:1] != (1,) or values[-1:] != (cayley,):
        raise ValueError(f"{path}: values must be positive, from 1 (a tree) to {cayley} "
                         f"(the complete graph)")
    scanned = 1 << (n * (n - 1) // 2)
    if payload["graphs_scanned"] != scanned:
        raise ValueError(f"{path}: graphs_scanned must be {scanned} (2^C(n,2))")
    if payload["elapsed_ms"] < 0:
        raise ValueError(f"{path}: elapsed_ms must be >= 0")
    return AtlasRecord(n=n, values=values, elapsed=payload["elapsed_ms"] / 1000.0)


def extension_taus_per_graph(n: int, codes) -> set[int]:
    """Distinct counts of the one-vertex extensions to n vertices of the
    classes with these colex codes (pair u < v is bit v(v-1)/2 + u), one
    ``Graph`` and one ``tau`` per extension."""
    k = n - 1
    pairs = [(u, v) for v in range(k) for u in range(v)]
    values: set[int] = set()
    for code in map(int, codes):
        edges = tuple(p for i, p in enumerate(pairs) if code >> i & 1)
        for s in range(1, 1 << k):
            join = tuple((v, k) for v in range(k) if s >> v & 1)
            values.add(tau(Graph(n, edges + join)))
    return values


def graph_of_code(k: int, code: int) -> Graph:
    """The graph on k vertices with this colex code (pair u < v is bit
    v(v-1)/2 + u)."""
    pairs = [(u, v) for v in range(k) for u in range(v)]
    return Graph(k, tuple(p for i, p in enumerate(pairs) if code >> i & 1))


def least_codes(k: int, codes) -> list[int]:
    """Exact canonical codes: each graph's least colex code over all k!
    relabellings, as its bit row times a table of each pair's bit under
    each permutation."""
    perms = np.array(list(permutations(range(k))), dtype=np.int64)
    pairs = [(u, v) for v in range(k) for u in range(v)]
    us, vs = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    a, b = perms[:, us], perms[:, vs]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    table = (1 << (hi * (hi - 1) // 2 + lo)).T  # pairs x permutations
    out: list[int] = []
    for code in map(int, codes):
        row = np.array([code >> i & 1 for i in range(len(us))], dtype=np.int64)
        out.append(int((row @ table).min()))
    return out


def degree(g: Graph, u: int) -> int:
    """Degree of ``u`` counted with multiplicity."""
    return sum(m for a, b, m in g.edges if u in (a, b))


def identify(g: Graph, u: int, h: Graph, v: int) -> Graph:
    """One-point union: disjoint copies of ``g`` and ``h`` with ``u = v``.

    Vertices of ``g`` keep their labels, so the merged vertex is ``u``; the
    other vertices of ``h`` follow in their order from ``g.n_vertices`` on.
    """
    if not (0 <= u < g.n_vertices and 0 <= v < h.n_vertices):
        raise ValueError(f"vertex {u} or {v} out of range")
    others = [w for w in range(h.n_vertices) if w != v]
    relabel = {w: g.n_vertices + i for i, w in enumerate(others)}
    relabel[v] = u
    edges = g.edges + tuple((relabel[a], relabel[b], m) for a, b, m in h.edges)
    return Graph(g.n_vertices + h.n_vertices - 1, edges)


def is_connected(g: Graph) -> bool:
    """Connectivity by breadth-first search from vertex 0; 0 vertices count
    as connected."""
    if g.n_vertices == 0:
        return True
    adj: list[list[int]] = [[] for _ in range(g.n_vertices)]
    for u, v, _ in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        for x in adj[queue.popleft()]:
            if x not in seen:
                seen.add(x)
                queue.append(x)
    return len(seen) == g.n_vertices
