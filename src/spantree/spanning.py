"""Exact spanning-tree counts via the matrix-tree identity.

No floating point is involved at any step, so counts stay exact at any
magnitude.  Elimination runs on Python ints, except that dense blocks of
at least _MODULAR_ROWS rows are eliminated on int64 residues modulo primes
below 2^26, and the count is rebuilt from those by the Chinese remainder
theorem.  All functions are pure.  The one shared state is a cache of
sieved prime windows, filled on first use (not at import) with values that
depend on nothing else, so the functions are safe to call from concurrent
workers.

`tau` eliminates the struck Laplacian fraction-free (Bareiss) with pivots
taken in greedy minimum-degree order.  While the active rows are sparse they
are dicts, and a step rewrites only the pivot's neighbour rows.  Every other
row keeps the step of its last update and is rescaled when next touched;
the rescale divides exactly because every entry of the active block is a
minor of the integer matrix.  Once the next pivot row is dense, `_finish`
takes the active block as a numpy array: below _MODULAR_ROWS rows to
`_bareiss`, a list-of-lists Bareiss loop, from there on to `_det_mod`:
left-looking block LDL^T elimination of its residues modulo a batch of
primes, two columns at a time.  Neither swaps rows.  A graph dense from
the start skips the sparse stage: its struck Laplacian is built as one
array straight from the edges.

Why the multimodular finish is exact.  Let B be the k x k active block left
after pivots p_1..p_t, and prev = p_t (1 when nothing was eliminated).  B /
prev is the Schur complement of the eliminated rows in the struck
Laplacian, so it is positive semidefinite, and τ = prev * det(B / prev) =
det(B) / prev^(k-1).  Hadamard's inequality for positive semidefinite
matrices bounds det(B / prev) by the product of its diagonal, so
0 <= τ <= ∏ B_ii // prev^(k-1), the floor because τ is an integer.  For a
prime p that does not divide prev, τ = det(B) * prev^-(k-1) mod p, and the
residues for primes whose product exceeds the bound fix τ by the Chinese
remainder theorem.

Without row swaps a pivot block can be singular modulo p.  `_det_mod`
pivots on the 2 x 2 blocks of columns c, c+1 for even c, and on the last
column alone when k is odd; a 1 x 1 pivot there that vanishes makes det(B)
≡ 0.  The determinant d of the block at c is M_(c+2) / M_c modulo p, where
M_j is the leading principal minor of B of order j.  Suppose d ≡ 0.  If
the block's two columns of the trailing Schur complement (rows c..k-1)
are dependent modulo p, that complement is singular modulo p, so det(B) ≡
0; they are tested by the 2 x 2 minors of every row with one nonzero row.
Otherwise the prime is unlucky and skipped.  It divides M_(c+2), which is
nonzero: were it 0, the rational Schur complement would be positive
semidefinite with a singular 2 x 2 principal block, so it would send some
(x0, x1) ≠ 0, extended by zeros, to zero.  Its two columns would then be
dependent, and so would their residues, since their denominators are
products of earlier pivots, units modulo p.  So only the finitely many
prime factors of B's nonzero leading minors of even order are skipped, and
further primes fix τ; if the primes below 2^26 run out first, `_bareiss`
finishes the block.  A disconnected graph gives residue 0 for every prime.

Why int64 does not overflow.  An int64 block whose entries lie in
(-2^62, 2^62) is eliminated from its raw entries; any other block (large
multiplicities, or minors after a long sparse stage) is first reduced
modulo each prime, as Python ints where it holds them, so its entries
start in [0, p) with p < 2^26.  The update of a pair's two columns
subtracts sums of at most _REDUCE_EVERY = 2^10 products of two residues,
each below 2^52, so each sum is below 2^62, and reduces the result before
the next such sum.  Both columns are reduced with their first update (the
first pair, which has none, alone), the raw upper entry of the pivot
block, the twin of the lower one, with them.  The pivot block's
determinant and the dependence test's minors are differences of two
products of residues, in (-2^52, 2^52); each entry of the block's inverse
is a product of two residues, reduced; each scaled multiplier is a sum of
two such products, below 2^53, reduced; every stored entry is a residue.
So every product is one of residues.  A raw entry less one sum lies in
(-2^63, 2^62), a residue less one sum in (-2^62, 2^26): no intermediate
value leaves int64.
"""

from __future__ import annotations

import heapq
from functools import cache
from itertools import chain
from math import prod
from typing import Iterator

import numpy as np

from .graphs import Graph
from .partitions import _primes_in

__all__ = ["tau"]

# `tau` eliminates dense lists, not dicts, once the next pivot row has a
# nonzero in at least 1/_DENSE_SHARE of the active columns
_DENSE_SHARE = 4
# dense blocks with fewer rows are finished by `_bareiss`, larger ones
# modulo primes.  They cross at 18 rows: on K_(k+1) and 5 multigraphs
# (edge probability 0.8, multiplicities 1-3) per k, seeds 1-3, medians of
# 10 alternating pairs in two sets, `_bareiss` took 0.76-0.87x the modular
# time at k = 15, 0.98-1.04x at 16, 0.92-1.06x at 17, 1.21-1.30x at 18
# (modular faster in 8-10 of 10 pairs for each seed and set), 1.49-1.57x
# at 20, 1.73-1.84x at 22 and 2.05-2.26x at 24
_MODULAR_ROWS = 18
# the primes lie below 2^_PRIME_BITS, so a product of two residues is < 2^52
_PRIME_BITS = 26
# primes are sieved in windows of this many consecutive integers
_PRIME_WINDOW = 1 << 14
# int64 entries per working array of the multimodular finish (2 MiB): a block
# of up to about 100 rows takes every prime its bound needs in one
# `_det_mod` call, since each call repeats the whole column loop.  Min
# (median) of 6 in-process runs at 2^16 / 2^18 / 2^20 entries on a shared
# 2-vCPU host: K_90 11 (16) / 8 (12.5) / 8 (12) ms, K_150 68 (104) /
# 48 (70) / 49 (70) ms, a 200-vertex multigraph (p 0.7, multiplicities 1-3)
# 218 (295) / 141 (181) / 145 (200) ms, K_300 703 (960) / 597 (931) /
# 675 (936) ms; peak RSS 37 / 40 / 57 MB
_CHUNK_ENTRIES = 1 << 18
# products summed between reductions of a pair's columns; below 2^11 each
# sum stays inside int64 (see the module docstring)
_REDUCE_EVERY = 1 << 10


def _struck_laplacian(g: Graph) -> np.ndarray:
    """The Laplacian of ``g`` with vertex 0's row and column struck.

    An int64 array when every multiplicity is below 2^62 // n, so each
    diagonal entry, a sum of at most n - 1 of them, stays below 2^62;
    otherwise an object array of Python ints, built by the same code.
    ``g`` has at least one edge.
    """
    n = g.n_vertices
    count = 3 * len(g.edges)
    try:
        flat = np.fromiter(chain.from_iterable(g.edges), np.int64, count)
    except OverflowError:
        flat = None
    if flat is None or flat[2::3].max() >= (1 << 62) // n:
        flat = np.fromiter(chain.from_iterable(g.edges), object, count)
    u, v, m = flat.reshape(-1, 3).T
    u, v = u.astype(np.intp), v.astype(np.intp)
    lap = np.zeros((n, n), dtype=flat.dtype)
    lap[u, v] = lap[v, u] = -m
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap[1:, 1:]


def _bareiss(m: list[list[int]], prev: int) -> int:
    """Determinant from a nonempty Bareiss block, eliminated in place.

    ``prev`` divides the first step: the last pivot taken before ``m`` was
    left as the active block (1 when there was none); the result is then
    the determinant of the whole struck Laplacian.  ``m`` is ``prev`` times a
    positive semidefinite Schur complement, so a zero diagonal entry has a
    zero row: a zero pivot means the determinant is 0, and no rows are
    swapped (the argument `tau` gives for its own zero pivot).
    """
    k = len(m)
    for col in range(k - 1):
        pivot_row = m[col]
        pivot = pivot_row[col]
        if pivot == 0:
            return 0
        for i in range(col + 1, k):
            row = m[i]
            factor = row[col]
            for j in range(col + 1, k):
                row[j] = (row[j] * pivot - factor * pivot_row[j]) // prev
        prev = pivot
    return m[k - 1][k - 1]


def _finish(mat: np.ndarray, prev: int) -> int:
    """τ from the dense active block of a struck Laplacian.

    ``mat`` is the block as an int64 array, or an object array of Python
    ints when its entries do not fit int64; ``prev`` is as for `_bareiss`.
    Blocks of fewer than _MODULAR_ROWS rows go to `_bareiss` as lists.
    Larger ones go to `_det_mod`, in chunks of at most _CHUNK_ENTRIES int64
    entries, modulo primes that do not divide ``prev``.  An int64 block
    whose entries lie strictly inside ±2^62 is copied into each chunk as it
    is, and `_det_mod` reduces each pair of columns on first touch; any
    other block is reduced modulo every prime of the chunk first.  Each
    chunk takes only as many primes as the Hadamard bound on τ still needs;
    a prime `_det_mod` finds unlucky (one dividing a nonzero leading minor
    of even order) is dropped and the next chunk draws further primes,
    until the primes combined exceed the bound.  The residues of τ are then
    combined by the Chinese remainder theorem (the argument is in the
    module docstring).
    """
    k = len(mat)
    if k < _MODULAR_ROWS:
        return _bareiss(mat.tolist(), prev)
    diag = mat.diagonal().tolist()
    bound = prod(diag) // prev ** (k - 1)
    # mat / prev is positive semidefinite, so no entry exceeds the largest
    # diagonal entry in absolute value
    raw = mat.dtype == np.int64 and max(diag) < 1 << 62
    per_chunk = max(1, _CHUNK_ENTRIES // (k * k))
    supply = (p for p in _primes() if prev % p)
    value, modulus = 0, 1
    while modulus <= bound:
        chunk, cover = [], modulus
        for p in supply:
            chunk.append(p)
            cover *= p
            if cover > bound or len(chunk) == per_chunk:
                break
        if not chunk:  # the bound outgrows every prime below 2^26, about 2^(9.7 * 10^7)
            return _bareiss(mat.tolist(), prev)
        a = np.empty((len(chunk), k, k), dtype=np.int64)
        if raw:
            a[:] = mat
        else:
            # residues straight into int64; object entries are reduced a
            # buffer at a time, so no object array of the chunk's size is built
            np.remainder(mat, np.array(chunk, dtype=np.int64)[:, None, None], out=a, casting="unsafe")
        for p, d in zip(chunk, _det_mod(a, chunk)):
            if d is not None:
                r = d * pow(prev, 1 - k, p)  # τ mod p, up to a multiple of p
                value += modulus * ((r - value) * pow(modulus, -1, p) % p)
                modulus *= p
    return value


def _det_mod(a: np.ndarray, primes: list[int]) -> list[int | None]:
    """Determinant of ``a[i]`` modulo ``primes[i]``, eliminating ``a`` in place.

    ``a`` holds symmetric int64 matrices whose entries lie in (-2^62, 2^62):
    residues, or the raw entries of one block.  Columns are taken in pairs
    c, c + 1, the last alone when k is odd.  Rows c.. of a pair are brought
    up to date by one batched product of the multipliers left of its
    diagonal with the unscaled earlier columns stored above it, reduced
    after every _REDUCE_EVERY products (see the module docstring), so the
    first reduction of a raw entry, the upper entry at (c, c + 1) among
    them, comes with its pair's first update; the first pair has none and
    is reduced alone.  The determinant d of the 2 x 2 pivot block D is the
    step's factor of the residue.  The rows below D are stored unscaled in
    rows c and c + 1, over raw entries never read, and times D^-1 = adj(D) *
    d^-1, one modular inverse per prime, in columns c and c + 1.  No rows
    are swapped: d ≡ 0 over two dependent columns gives residue 0, over
    independent ones it makes the prime unlucky, with result None.
    """
    n_p, k, _ = a.shape
    mods = np.array(primes, dtype=np.int64)[:, None, None]
    det: list[int | None] = [1] * n_p
    signs = np.array([[1, -1], [-1, 1]])
    first = a[:, :, :2]
    np.remainder(first, mods, out=first)
    for c in range(0, k, 2):
        panel = a[:, c:, c : c + 2]
        for t in range(0, c, _REDUCE_EVERY):
            e = min(t + _REDUCE_EVERY, c)
            panel -= np.matmul(a[:, c:, t:e], a[:, t:e, c : c + 2])
            np.remainder(panel, mods, out=panel)
        if c == k - 1:  # k is odd: the last column is a 1 x 1 pivot
            return [d * x % p if d else d for d, x, p in zip(det, panel[:, 0, 0].tolist(), primes)]
        alpha, beta, delta = panel[:, 0, 0], panel[:, 1, 0], panel[:, 1, 1]
        pivots = ((alpha * delta - beta * beta) % mods[:, 0, 0]).tolist()
        if 0 in pivots:
            # the columns are dependent iff every row's 2 x 2 minor with the
            # first nonzero row vanishes (all of them, if there is none)
            lead = panel[np.arange(n_p), panel.any(axis=2).argmax(axis=1)]
            minors = panel[:, :, 0] * lead[:, 1, None] - panel[:, :, 1] * lead[:, 0, None]
            free = (minors % mods[:, 0]).any(axis=1).tolist()
            det = [None if d and f and not x else d for d, x, f in zip(det, pivots, free)]
        det = [d * x % p if d else d for d, x, p in zip(det, pivots, primes)]
        if c == k - 2:
            return det
        below = panel[:, 2:]
        a[:, c : c + 2, c + 2 :] = below.swapaxes(1, 2)
        inv = np.array([pow(x, -1, p) if x else 0 for x, p in zip(pivots, primes)])
        # D^-1 = adj(D) / det(D): [[delta, -beta], [-beta, alpha]] * inv
        scale = panel[:, 1::-1, 1::-1] * (signs * inv[:, None, None])
        np.remainder(scale, mods, out=scale)
        np.remainder(np.matmul(below, scale), mods, out=below)
    return det


def _primes() -> Iterator[int]:
    """The primes below 2^_PRIME_BITS, descending."""
    top = 1 << _PRIME_BITS
    return chain.from_iterable(map(_prime_window, range(top // _PRIME_WINDOW)))


@cache
def _prime_window(i: int) -> tuple[int, ...]:
    """The primes in the i-th window below 2^_PRIME_BITS, descending.

    Sieved on first use, so nothing is computed at import and every process
    sees the same list.
    """
    hi = (1 << _PRIME_BITS) - i * _PRIME_WINDOW
    return tuple(reversed(_primes_in(hi - _PRIME_WINDOW, hi)))


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
    the active columns, the active rows are brought up to date and handed
    as an array, int64 or else of Python ints, with the last pivot, to
    `_finish`.  Every row holds at least its diagonal, so the sparse stage
    always ends this way, at the latest with _DENSE_SHARE rows left.

    A graph that passes the test at the start, such as K_n, goes to
    `_finish` without building dicts: its struck Laplacian is built as one
    array from the edges, and its row sizes are counted there.  Only a graph
    with enough edges for the test to pass builds that array, so a sparse
    graph such as a long cycle allocates nothing of size n^2.
    """
    n = g.n_vertices
    if n <= 1:
        return n
    if len(g.edges) < n - 1:
        return 0
    active = n - 1
    # a row of the struck Laplacian has at most 1 + (its vertex's neighbours)
    # nonzeros, so the rows hold at most n - 1 + 2|E| in all; if the smallest
    # holds active / _DENSE_SHARE, then active^2 <= _DENSE_SHARE * that sum
    if active * (active - _DENSE_SHARE) <= 2 * _DENSE_SHARE * len(g.edges):
        block = _struck_laplacian(g)
        if _DENSE_SHARE * np.count_nonzero(block, axis=1).min() >= active:
            return _finish(block, 1)

    rows: list[dict[int, int] | None] = [{v: 0} for v in range(n)]
    for u, v, m in g.edges:
        rows[u][u] += m
        rows[v][v] += m
        if u:
            rows[u][v] = rows[v][u] = -m
    rows[0] = None
    step = [0] * n  # the step as of which each row is stored
    pivots = [1]  # pivots[s] is the pivot of step s
    heap = [(len(rows[v]), v) for v in range(1, n)]
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
            try:
                mat = np.array(block, dtype=np.int64)
            except OverflowError:  # entries beyond int64 stay Python ints
                mat = np.array(block, dtype=object)
            return _finish(mat, prev)
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
