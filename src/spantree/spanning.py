"""Exact spanning-tree counts via the matrix-tree identity.

Everything here is integer arithmetic on Python ints; no floating point is
involved at any step, so counts stay exact at any magnitude.  All functions
are pure and keep no shared state, which makes them safe to call from
concurrent workers.

`tau` eliminates the struck Laplacian fraction-free (Bareiss) with pivots
taken in greedy minimum-degree order.  While the active rows are sparse they
are dicts, and a step rewrites only the pivot's neighbour rows.  Every other
row keeps the step of its last update and is rescaled when next touched;
the rescale divides exactly because every entry of the active block is a
minor of the integer matrix.  Once the next pivot row is dense, the active
block is finished by the same list-of-lists loop as `det_fraction_free`.
"""

from __future__ import annotations

import heapq
from itertools import combinations
from math import comb

from .graphs import Graph

# Square matrix of exact integers, row-major.
IntMatrix = list[list[int]]

# `tau` eliminates dense lists, not dicts, once the next pivot row has a
# nonzero in at least 1/_DENSE_SHARE of the active columns
_DENSE_SHARE = 4


def laplacian(g: Graph) -> IntMatrix:
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


def det_fraction_free(mat: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Each elimination step divides by the previous pivot and that division is
    exact, so intermediate values stay integers.  Pivoting swaps in the
    first nonzero candidate below the diagonal; magnitude is irrelevant for
    exactness.  A zero pivot column with no candidate means the determinant
    is 0.  The empty (0 x 0) matrix has determinant 1 by convention.
    """
    if not mat:
        return 1
    return _bareiss([list(row) for row in mat], 1)


def _bareiss(m: IntMatrix, prev: int) -> int:
    """Determinant from a nonempty Bareiss block, eliminated in place.

    ``prev`` divides the first step: 1 for a whole matrix, or the last pivot
    taken when ``m`` is the active block left after earlier Bareiss steps
    (the result is then the determinant of the whole matrix).
    """
    k = len(m)
    sign = 1
    for col in range(k - 1):
        if m[col][col] == 0:
            for r in range(col + 1, k):
                if m[r][col] != 0:
                    m[col], m[r] = m[r], m[col]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[col][col]
        pivot_row = m[col]
        for i in range(col + 1, k):
            row = m[i]
            factor = row[col]
            for j in range(col + 1, k):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // prev
            row[col] = 0
        prev = pivot
    return sign * m[k - 1][k - 1]


def tau(g: Graph) -> int:
    """Number of spanning trees of ``g``, exactly.

    The determinant of the Laplacian with vertex 0's row and column struck;
    by the matrix-tree identity every choice of struck index gives the same
    value.  Conventions: the 0-vertex graph has 0 spanning trees, the
    1-vertex graph has 1, and any disconnected graph has 0.  A graph with
    fewer than n - 1 vertex pairs joined cannot be connected, so it returns
    0 before anything of size n is allocated.

    Elimination is fraction-free with symmetric pivoting, the next pivot
    being an active row with the fewest nonzeros (a heap keyed on row size).
    After t steps with pivots p_1..p_t (p_0 = 1) the active entry (i, j) is
    the minor on the pivot rows plus i and the pivot columns plus j, and
    step t + 1 with pivot p on vertex v sets it to
    ``(p * a_ij - a_iv * a_vj) // p_t``.  Where a_iv = 0 that is
    ``a_ij * p // p_t``, so a row no pivot touches since step s is stored
    as of step s and its entries are ``stored * p_t // p_s``: exact, since
    the result is a minor and so an integer.  Only the pivot's neighbours
    are rewritten.  Minimum-degree order eliminates a pendant tree with no
    fill and each vertex of a cycle with at most one fill entry, so the
    blocks of the graph are used without decomposing it into them.

    A zero pivot returns 0.  The struck Laplacian is positive semidefinite
    and the pivots before it are positive, so the block left after them (the
    active entries divided by the last pivot) is a positive semidefinite
    matrix with a zero on its diagonal; its row there is all zero and the
    determinant vanishes.

    Once the next pivot row has a nonzero in at least 1/_DENSE_SHARE of
    the active columns, the active rows are brought up to date and finished
    by the dense loop of `det_fraction_free`, started with the last pivot as
    divisor.  Every row holds at least its diagonal, so the sparse stage
    always ends this way, at the latest with _DENSE_SHARE rows left.  A graph
    that passes the test at the start, such as K_n, never builds dicts.
    """
    n = g.n_vertices
    if n <= 1:
        return n
    if len(g.edges) < n - 1:
        return 0
    # vertex 0 is struck; size[v] counts the nonzeros of row v
    size = [1] * n
    for u, v, _ in g.edges:
        if u:  # u < v, so an edge to vertex 0 adds only to v's diagonal
            size[u] += 1
            size[v] += 1
    active = n - 1
    if _DENSE_SHARE * min(size[1:]) >= active:
        return _bareiss([row[1:] for row in laplacian(g)[1:]], 1)

    rows: list[dict[int, int] | None] = [{v: 0} for v in range(n)]
    for u, v, m in g.edges:
        rows[u][u] += m
        rows[v][v] += m
        if u:
            rows[u][v] = rows[v][u] = -m
    rows[0] = None
    step = [0] * n  # the step as of which each row is stored
    pivots = [1]  # pivots[s] is the pivot of step s
    heap = [(size[v], v) for v in range(1, n)]
    heapq.heapify(heap)
    while True:
        count, v = heapq.heappop(heap)
        row = rows[v]
        if row is None or len(row) != count:
            continue  # eliminated, or its size changed since this push
        t = len(pivots) - 1
        prev = pivots[t]
        if _DENSE_SHARE * count >= active:
            order = [i for i in range(1, n) if rows[i] is not None]
            col = {j: c for c, j in enumerate(order)}
            block = []
            for i in order:
                line = [0] * active
                base = pivots[step[i]]
                for j, x in rows[i].items():
                    line[col[j]] = x * prev // base
                block.append(line)
            return _bareiss(block, prev)
        rows[v] = None
        active -= 1
        base = pivots[step[v]]
        row = {j: x * prev // base for j, x in row.items()}
        pivot = row.pop(v)
        if pivot == 0:
            return 0
        pivots.append(pivot)
        for i, a_iv in row.items():  # a_iv = a_vi: the active block is symmetric
            old = rows[i]
            del old[v]
            base = pivots[step[i]]
            new = {j: x * pivot // base for j, x in old.items() if j not in row}
            for j, a_vj in row.items():
                new[j] = (pivot * (old.get(j, 0) * prev // base) - a_iv * a_vj) // prev
            rows[i] = new
            step[i] = t + 1
            heapq.heappush(heap, (len(new), i))


def tau_bruteforce(g: Graph, *, budget: int = 5_000_000) -> int:
    """Count spanning trees by scanning all (n-1)-edge subsets.

    Independent of the determinant route: a subset counts when its edges
    (parallel copies are distinct edges) touch no cycle and leave one
    component.  Refuses when C(|E|, n-1) exceeds ``budget``.
    """
    n = g.n_vertices
    if n == 0:
        return 0
    instances = g.edge_instances()
    need = n - 1
    if len(instances) < need:
        return 0
    n_subsets = comb(len(instances), need)
    if n_subsets > budget:
        raise ValueError(
            f"{n_subsets} subsets exceed the enumeration budget of {budget}"
        )
    count = 0
    for subset in combinations(instances, need):
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        merges = 0
        for u, v in subset:
            ru, rv = find(u), find(v)
            if ru == rv:
                break
            parent[ru] = rv
            merges += 1
        if merges == need:
            count += 1
    return count
