"""Exact spanning-tree counts via the matrix-tree identity.

No floating point is involved at any step, so counts stay exact at any
magnitude.  Elimination runs on Python ints, except that dense blocks of
at least _MODULAR_ROWS rows are eliminated on int64 residues modulo primes
below 2^27, and the count is rebuilt from those by the Chinese remainder
theorem.  All functions are pure.  The one shared state is a cache of
sieved prime windows, filled on first use (not at import) with values that
depend on nothing else, so the functions are safe to call from concurrent
workers.

`tau` eliminates a positive semidefinite integer matrix fraction-free
(Bareiss) with pivots taken in greedy minimum-degree order: the Laplacian
struck at a vertex with the most pairs, or for a near-complete graph the
whole matrix of Temperley's identity below.  While the active rows are
sparse they are dicts, and a step rewrites only the entries (i, j) with i
and j both in the pivot's row, at a cost of that row's size squared.  Every
other entry keeps the pivot at which it was written and is rescaled when
next read; the rescale divides exactly because every entry of the active
block is a minor of the integer matrix, and a pair written at the last
pivot is read as stored.  Only a pivot row of four entries or more takes
the density test, so path and cycle remainders are finished in the dicts:
when no active row is left, the last pivot, the leading principal minor
of full order, is the determinant.  Once the next pivot row has four
entries or more and is dense, `_finish` takes the active block as a numpy
array: below _MODULAR_ROWS rows to `_bareiss`, a list-of-lists Bareiss
loop, from there on to `_det_mod`: left-looking block LDL^T elimination
of its residues modulo a batch of primes, two rows at a time.  Neither
swaps rows.  The density test runs on row sizes counted from the graph's
edge columns; a graph dense from the start skips the sparse stage, its
struck Laplacian one array built from them.

Division-free steps.  An entry no step has rewritten is the graph's own, an
int x of value x * prev, prev the last pivot.  A step rewrites (i, i)
whenever it rewrites (i, j), so a row whose diagonal x_v is an int holds
only such entries x_i.  Its pivot is x_v * prev and a_iv = x_i * prev, so
the step's update (pivot * A - a_iv * a_vj) / prev of an entry of value A
is x_v * A - x_i * x_j * prev, and for an int entry y, of value y * prev,
it is prev * (x_v * y - x_i * x_j).  Both are sums of integer products,
exact with no division and no product of two prev-sized numbers.  Rows
that a step has rewritten take the general form, whose quotient is exact
because the result is a minor.  In a star or K_(m,n) struck at a hub
every step but the last is on a row of its own, in a grid about half;
a path, a cycle, a wheel's rim or a flower's petal takes one such step,
and its other steps read pairs written at the last pivot as stored.

Near-complete graphs.  Let t be the largest multiplicity of G, and H its
deficit: the pairs below t, each valued t - m, and the absent pairs, each
valued t, so that L(G) = t * (n * I - J) - L(H), J the all-ones matrix.
When every vertex has at least n - 3 of its n - 1 pairs at t, H has at
most two pairs at any vertex, a disjoint union of paths and cycles.  Then
A = L(G) + t * J = t * n * I - L(H) has at most three entries in a row, and
minimum-degree elimination keeps it so: eliminating a vertex of a path or
cycle joins its two neighbours, so each of the n steps touches at most a
3 x 3 neighbourhood.  A is L(G) plus t * 1 1^T, so it is positive
semidefinite, and by the matrix-determinant lemma (Temperley's identity,
Proc. Phys. Soc. 83, 1964) det A = t * n^2 * τ: the all-ones vector is an
eigenvector of both terms, with eigenvalue t * n for A, and the other
eigenvalues are L(G)'s, whose product is n * τ.  Every argument below
holds for any positive semidefinite integer matrix, so the zero-pivot rule,
the Bareiss minors, the int64 hand-off and the Hadamard bound carry over to
A with no vertex struck, and τ = det A // (t * n^2) exactly.

Why the multimodular finish is exact.  Let B be the k x k active block left
after pivots p_1..p_t, and prev = p_t (1 when nothing was eliminated).  B /
prev is the Schur complement of the eliminated rows in the matrix
eliminated, the struck Laplacian or A, so it is positive semidefinite, and
that matrix's determinant δ (τ, or t * n^2 * τ) is prev * det(B / prev) =
det(B) / prev^(k-1).  Hadamard's inequality for positive semidefinite
matrices bounds det(B / prev) by the product of its diagonal, so
0 <= δ <= ∏ B_ii // prev^(k-1), the floor because δ is an integer.  For a
prime p that does not divide prev, δ = det(B) * prev^-(k-1) mod p, and the
residues for primes whose product exceeds the bound fix δ by the Chinese
remainder theorem.

Without row swaps a pivot block can be singular modulo p.  `_det_mod`
pivots on the 2 x 2 blocks of rows c, c+1 for even c, and on the last row
alone when k is odd; a 1 x 1 pivot there that vanishes makes det(B) ≡ 0.
The determinant d of the block at c is M_(c+2) / M_c modulo p, where M_j
is the leading principal minor of B of order j.  Suppose d ≡ 0.  If the
block's two rows of the trailing Schur complement (columns c..k-1) are
dependent modulo p, that complement is singular modulo p, so det(B) ≡ 0;
they are tested by the 2 x 2 minors of every column with one nonzero
column.  Otherwise the prime is unlucky and skipped.  It divides M_(c+2),
which is nonzero: were it 0, the rational Schur complement would be
positive semidefinite with a singular 2 x 2 principal block, so it would
send some (x0, x1) ≠ 0, extended by zeros, to zero.  Its two rows would
then be dependent, and so would their residues, since their denominators are
products of earlier pivots, units modulo p.  So only the finitely many
prime factors of B's nonzero leading minors of even order are skipped, and
further primes fix δ; if the primes below 2^27 run out first, `_bareiss`
finishes the block.  A disconnected graph gives residue 0 for every prime.

Why int64 does not overflow.  `_finish` takes a block as int64 only when
its entries lie in (-2^62, 2^62): `_struck_laplacian` needs multiplicities
below 2^62 // n, the sparse stage a largest diagonal entry below 2^62,
which bounds every entry of its positive semidefinite block.  Such a block
is eliminated from its raw entries; any other block holds Python ints and
is first reduced modulo each prime, so its entries start in [0, p) with
p < 2^27.  The update of a pair's two rows subtracts sums of at most
_REDUCE_EVERY = 2^8 products of two residues, each below 2^54, so each
sum is below 2^62, and reduces the result before the next such sum.  Both
rows are reduced with their first update (the first pair, which has none,
alone).  The pivot block's determinant and the dependence test's minors
are differences of two products of residues, in (-2^54, 2^54); each entry
of the block's inverse is a product of two residues, reduced; each scaled
multiplier is a sum of two such products, below 2^55, reduced; every stored
entry is a residue.  So every product is one of residues.  A raw entry less
one sum lies in (-2^63, 2^62), a residue less one sum in (-2^62, 2^27): no
intermediate value leaves int64.
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

# the sparse rows of `_eliminate`: row i maps column j to entry (i, j), an
# int or a pair (x, s), and is None once eliminated or struck
_Rows = list[dict[int, int | tuple[int, int]] | None]
# `tau` eliminates dense lists, not dicts, once the next pivot row has four
# entries or more and a nonzero in at least 1/_DENSE_SHARE of the active
# columns
_DENSE_SHARE = 4
# dense blocks with fewer rows are finished by `_bareiss`, larger ones
# modulo primes.  They cross at 18 rows: on K_(k+1) and 5 multigraphs
# (edge probability 0.8, multiplicities 1-3) per k, seeds 1-3, medians of
# 10 alternating pairs in two sets, `_bareiss` took 0.76-0.87x the modular
# time at k = 15, 0.98-1.04x at 16, 0.92-1.06x at 17, 1.21-1.30x at 18
# (modular faster in 8-10 of 10 pairs for each seed and set), 1.49-1.57x
# at 20, 1.73-1.84x at 22 and 2.05-2.26x at 24.  K_n is near-complete and
# reaches neither kernel; K_n with one pair doubled leaves a block of the
# same shape
_MODULAR_ROWS = 18
# the primes lie below 2^_PRIME_BITS, so a product of two residues is < 2^54
_PRIME_BITS = 27
# primes are sieved in windows of this many consecutive integers
_PRIME_WINDOW = 1 << 14
# int64 entries per working array of the multimodular finish (2 MiB): a block
# of up to about 100 rows takes every prime its bound needs in one
# `_det_mod` call, since each call repeats the whole column loop.  Min
# (median) of 6 in-process runs at 2^16 / 2^18 / 2^20 entries on a shared
# 2-vCPU host: K_90 11 (16) / 8 (12.5) / 8 (12) ms, K_150 68 (104) /
# 48 (70) / 49 (70) ms, a 200-vertex multigraph (p 0.7, multiplicities 1-3)
# 218 (295) / 141 (181) / 145 (200) ms, K_300 703 (960) / 597 (931) /
# 675 (936) ms; peak RSS 37 / 40 / 57 MB (K_n's blocks, the shape K_n with
# one pair doubled still leaves)
_CHUNK_ENTRIES = 1 << 18
# products summed between reductions of a pair's rows: each sum stays below
# 2^62, so a raw entry less it stays inside int64 (see the module docstring)
_REDUCE_EVERY = 1 << (62 - 2 * _PRIME_BITS)


def _struck_laplacian(g: Graph, h: int) -> np.ndarray:
    """The Laplacian of ``g`` with vertex ``h``'s row and column struck.

    Assigned straight from the graph's columns, relabelled so that ``h``
    comes first and the others keep their order: an int64 array when every
    multiplicity is below 2^62 // n, so each diagonal entry, a sum of at
    most n - 1 of them, stays below 2^62; otherwise an object array of
    Python ints, built by the same code.  ``g`` has at least one edge.
    """
    n = g.n_vertices
    m = g.m
    if m.max() >= (1 << 62) // n:
        m = m.astype(object)
    label = np.arange(n)
    label[:h] += 1
    label[h] = 0
    u, v = label[g.u], label[g.v]
    lap = np.zeros((n, n), dtype=m.dtype)
    lap[u, v] = lap[v, u] = -m
    np.fill_diagonal(lap, -lap.sum(axis=1))
    return lap[1:, 1:]


def _bareiss(m: list[list[int]], prev: int) -> int:
    """Determinant from a nonempty Bareiss block, eliminated in place.

    ``prev`` divides the first step: the last pivot taken before ``m`` was
    left as the active block (1 when there was none); the result is then
    the determinant of the whole matrix eliminated.  ``m`` is ``prev`` times a
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
    """Determinant of the matrix `tau` eliminates, from its dense active block.

    ``mat`` is the block as an int64 array with entries inside ±2^62, or
    else an object array of Python ints; ``prev`` is as for `_bareiss`.
    Blocks of fewer than _MODULAR_ROWS rows go to `_bareiss` as lists.
    Larger ones go to `_det_mod`, in chunks of at most _CHUNK_ENTRIES int64
    entries, modulo primes that do not divide ``prev``.  An int64 block is
    copied into each chunk as it is, and `_det_mod` reduces each pair of
    rows on first touch; an object block is reduced modulo every prime of
    the chunk first.  Each chunk takes only as many primes as the Hadamard
    bound on the determinant still needs; a prime `_det_mod` finds unlucky
    (one dividing a nonzero leading minor of even order) is dropped and the
    next chunk draws further primes, until the primes combined exceed the
    bound.  Its residues are then combined by the Chinese remainder theorem
    (the argument is in the module docstring).
    """
    k = len(mat)
    if k < _MODULAR_ROWS:
        return _bareiss(mat.tolist(), prev)
    bound = prod(mat.diagonal().tolist()) // prev ** (k - 1)
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
        if not chunk:  # the bound outgrows every prime below 2^27, about 2^(1.9 * 10^8)
            return _bareiss(mat.tolist(), prev)
        a = np.empty((len(chunk), k, k), dtype=np.int64)
        if mat.dtype == np.int64:
            a[:] = mat
        else:
            # residues straight into int64; object entries are reduced a
            # buffer at a time, so no object array of the chunk's size is built
            np.remainder(mat, np.array(chunk, dtype=np.int64)[:, None, None], out=a, casting="unsafe")
        for p, d in zip(chunk, _det_mod(a, chunk)):
            if d is not None:
                r = d * pow(prev, 1 - k, p)  # the determinant mod p, up to a multiple of p
                value += modulus * ((r - value) * pow(modulus, -1, p) % p)
                modulus *= p
    return value


def _det_mod(a: np.ndarray, primes: list[int]) -> list[int | None]:
    """Determinant of ``a[i]`` modulo ``primes[i]``, eliminating ``a`` in place.

    ``a`` holds symmetric int64 matrices with entries in (-2^62, 2^62):
    residues, or the raw entries of one block; only those on and above the
    diagonal are read.  Rows are taken in pairs c, c + 1, the last alone
    when k is odd.  A pair's panel, its two rows from column c on, is
    brought up to date by one batched product of their multipliers, left of
    the diagonal, with the unscaled earlier rows above it, reduced after
    every _REDUCE_EVERY products (see the module docstring), so a raw entry
    is first reduced with its pair's first update; the first pair has none
    and is reduced alone.  The determinant d of the 2 x 2 pivot block D is
    the step's factor of the residue.  The panel right of D stays in place
    unscaled; times D^-1 = adj(D) * d^-1, one modular inverse per prime, it
    gives the multipliers of the rows below, written into columns c and
    c + 1.  No rows are swapped: d ≡ 0 over two dependent rows gives residue
    0, over independent ones it makes the prime unlucky, with result None.
    """
    n_p, k, _ = a.shape
    mods = np.array(primes, dtype=np.int64)[:, None, None]
    det: list[int | None] = [1] * n_p
    signs = np.array([[1, -1], [-1, 1]])
    first = a[:, :2]
    np.remainder(first, mods, out=first)
    for c in range(0, k, 2):
        panel = a[:, c : c + 2, c:]
        for t in range(0, c, _REDUCE_EVERY):
            e = min(t + _REDUCE_EVERY, c)
            panel -= np.matmul(a[:, c : c + 2, t:e], a[:, t:e, c:])
            np.remainder(panel, mods, out=panel)
        if c == k - 1:  # k is odd: the last row is a 1 x 1 pivot
            return [d * x % p if d else d for d, x, p in zip(det, panel[:, 0, 0].tolist(), primes)]
        panel[:, 1, 0] = panel[:, 0, 1]  # the input below the diagonal is not read
        alpha, beta, delta = panel[:, 0, 0], panel[:, 0, 1], panel[:, 1, 1]
        pivots = ((alpha * delta - beta * beta) % mods[:, 0, 0]).tolist()
        if 0 in pivots:
            # the rows are dependent iff every column's 2 x 2 minor with the
            # first nonzero column vanishes (all of them, if there is none)
            lead = panel[np.arange(n_p), :, panel.any(axis=1).argmax(axis=1)]
            minors = panel[:, 0] * lead[:, 1, None] - panel[:, 1] * lead[:, 0, None]
            free = (minors % mods[:, 0]).any(axis=1).tolist()
            det = [None if d and f and not x else d for d, x, f in zip(det, pivots, free)]
        det = [d * x % p if d else d for d, x, p in zip(det, pivots, primes)]
        if c == k - 2:
            return det
        inv = np.array([pow(x, -1, p) if x else 0 for x, p in zip(pivots, primes)])
        # D^-1 = adj(D) / det(D): [[delta, -beta], [-beta, alpha]] * inv
        scale = panel[:, 1::-1, 1::-1] * (signs * inv[:, None, None])
        np.remainder(scale, mods, out=scale)
        mult = np.matmul(scale, panel[:, :, 2:])
        np.remainder(mult, mods, out=mult)
        a[:, c + 2 :, c : c + 2] = mult.swapaxes(1, 2)
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

    Conventions: the 0-vertex graph has 0 spanning trees, the 1-vertex
    graph has 1, and any disconnected graph has 0.  A graph with fewer than
    n - 1 vertex pairs joined cannot be connected, so it returns 0 before
    anything of size n is allocated.

    A near-complete graph, one whose every vertex has at least n - 3 of its
    n - 1 pairs at the top multiplicity t, is counted through Temperley's
    identity: det(L + t * J) = t * n^2 * τ, J the all-ones matrix, and
    L + t * J = t * n * I - L(H) for the deficit H of `_deficit_rows`, a
    disjoint union of paths and cycles.  `_eliminate` takes that matrix
    whole, and every step touches at most three rows.  A graph with fewer
    than n(n - 3)/2 pairs cannot pass the rule, so it is ruled out before
    any array is built.

    Any other graph gives `_eliminate` its Laplacian with the row and
    column of h struck, h being the vertex with the most vertex pairs (the
    lowest such label); by the matrix-tree identity every choice of struck
    index gives the same value, and striking the hub of a star, wheel,
    flower or K_(2,n) leaves rows that stay small.  The row sizes, 1 plus
    the pairs at the vertex, less one next to h, are counted once, from
    the edge columns, and seed the heap.  A graph that passes the dense
    test on them goes to `_finish` without building dicts: its struck
    Laplacian is one array built from the columns, and no other graph
    builds it, so a sparse graph such as a long cycle allocates nothing of
    size n^2.
    """
    n = g.n_vertices
    if n <= 1:
        return n
    if len(g.u) < n - 1:
        return 0
    if 2 * len(g.u) >= n * (n - 3):
        t = int(g.m.max())
        top = g.m == t
        if (np.bincount(g.u[top], minlength=n) + np.bincount(g.v[top], minlength=n)).min() >= n - 3:
            rows = _deficit_rows(g, t)
            return _eliminate(rows, [(len(row), v) for v, row in enumerate(rows)]) // (t * n * n)
    # row v holds its diagonal and one entry per pair joining v to a vertex
    # other than h, the vertex with the most pairs (the lowest such label)
    pairs = np.bincount(g.u, minlength=n) + np.bincount(g.v, minlength=n)
    h = int(pairs.argmax())
    size = 1 + pairs
    size[g.u[g.v == h]] -= 1
    size[g.v[g.u == h]] -= 1
    # size[h], 1 plus the most pairs, is at least every other size, so the
    # minimum is that of a row the struck Laplacian keeps
    if _DENSE_SHARE * size.min() >= n - 1:
        return _finish(_struck_laplacian(g, h), 1)

    rows: _Rows = [{v: 0} for v in range(n)]
    for u, v, m in zip(g.u.tolist(), g.v.tolist(), g.m.tolist()):
        rows[u][u] += m
        rows[v][v] += m
        rows[u][v] = rows[v][u] = -m
    struck = rows[h]
    rows[h] = None
    del struck[h]
    for j in struck:
        del rows[j][h]
    return _eliminate(rows, [(count, v) for v, count in enumerate(size.tolist()) if v != h])


def _deficit_rows(g: Graph, t: int) -> _Rows:
    """The rows of L + t * J = t * n * I - L(H), as dicts for `_eliminate`.

    ``t`` is the top multiplicity of ``g`` and H its deficit: every pair
    below t, valued t - m, and every absent pair, valued t.  So the
    diagonal entries are t * n less the deficit at the vertex, and the
    others are H's values.  `tau` has checked that H has at most two pairs
    at any vertex; the absent ones are read off one n x n mask, built only
    when some pair is absent.
    """
    n = g.n_vertices
    low = g.m < t
    deficit = list(zip(g.u[low].tolist(), g.v[low].tolist(), (t - g.m[low]).tolist()))
    if 2 * len(g.u) < n * (n - 1):
        absent = np.ones((n, n), dtype=bool)
        absent[g.u, g.v] = absent[g.v, g.u] = False
        deficit += [(a, b, t) for a, b in np.argwhere(absent).tolist() if a < b]
    rows: _Rows = [{x: t * n} for x in range(n)]
    for a, b, x in deficit:
        rows[a][a] -= x
        rows[b][b] -= x
        rows[a][b] = rows[b][a] = x
    return rows


def _eliminate(rows: _Rows, heap: list[tuple[int, int]]) -> int:
    """Determinant of the positive semidefinite integer matrix in ``rows``.

    ``rows[i]`` maps column j to entry (i, j), None for a row the matrix
    leaves out (the struck vertex), and ``heap`` holds (row size, i) for
    every row it keeps.  Elimination is fraction-free with symmetric
    pivoting, the next pivot being an active row with the fewest nonzeros.
    After t steps with pivots p_1..p_t (p_0 = 1) the active entry (i, j) is
    the minor on the pivot rows plus i and the pivot columns plus j, and
    step t + 1 with pivot p on vertex v sets it to
    ``(p * a_ij - a_iv * a_vj) // p_t``.  Where a_iv or a_vj is 0 that is
    ``a_ij * p // p_t``, so an entry need not be touched until a step
    reads or rewrites it: each entry carries its own scale.  An int x is
    the matrix's own entry, with value ``x * p_t``; a pair (x, s) was
    written by the step with pivot s, with value ``x * p_t // s``, which
    is x itself when s is p_t.  Both are exact, since the value is a minor
    and so an integer.  A step on a row whose diagonal is an int, one no
    step has rewritten, takes the division-free form of the module
    docstring; any other step the general one.  A step on v
    rewrites only the entries (i, j) with i and j both in v's row, so it
    costs the square of that row's size, whatever the size of the rows it
    touches.  Minimum-degree order eliminates a pendant tree with no fill
    and each vertex of a cycle with at most one fill entry, so the blocks of
    a graph are used without decomposing it into them.

    A zero pivot returns 0.  The matrix is positive semidefinite and the
    pivots before it are positive, so the block left after them (the
    active entries divided by the last pivot) is a positive semidefinite
    matrix with a zero on its diagonal; its row there is all zero and the
    determinant vanishes.

    Once the next pivot row has four entries or more and a nonzero in at
    least 1/_DENSE_SHARE of the active columns, the active rows are
    brought up to date and handed with the last pivot to `_finish`, as
    int64 when the largest diagonal entry, which bounds every entry, is
    below 2^62, else as Python ints.  A pivot row of at most three entries
    writes at most three entries, and minimum-degree order keeps the rows
    of a path or cycle remainder that small, so it stays in the dicts to
    its last row; when no active row is left, the last pivot, the leading
    principal minor of full order, is returned.
    """
    n = len(rows)
    active = len(heap)
    prev = 1  # the last pivot
    heapq.heapify(heap)
    while active:
        count, v = heapq.heappop(heap)
        row = rows[v]
        if row is None or len(row) != count:
            continue  # eliminated, or its size changed since this push
        if count > 3 and _DENSE_SHARE * count >= active:
            order = [i for i in range(n) if rows[i] is not None]
            col = {j: c for c, j in enumerate(order)}
            block = []
            for i in order:
                line = [0] * active
                for j, x in rows[i].items():
                    line[col[j]] = x * prev if type(x) is int else x[0] * prev // x[1]
                block.append(line)
            wide = max(line[c] for c, line in enumerate(block)) >= 1 << 62
            return _finish(np.array(block, dtype=object if wide else np.int64), prev)
        rows[v] = None
        active -= 1
        x = row.pop(v)
        # a step that rewrites (i, j) rewrites (i, i), so a row whose
        # diagonal is an int holds only the graph's own entries, and its
        # step needs no division: line holds them as they are, x is x_v
        own = type(x) is int
        if own:
            pivot = x * prev
            line = list(row.items())
        else:
            pivot = x[0] if x[1] == prev else x[0] * prev // x[1]
            line = [(j, y * prev if type(y) is int else y[0] if y[1] == prev else y[0] * prev // y[1])
                    for j, y in row.items()]
        if pivot == 0:
            return 0
        for k, (i, a_iv) in enumerate(line):  # a_iv = a_vi: the active block is symmetric
            old = rows[i]
            del old[v]
            for j, a_vj in line[k:]:  # (i, j) and (j, i) are written at once
                y = old.get(j, 0)
                if type(y) is int:  # the matrix's own entry, or none: value y * prev
                    y = prev * (x * y - a_iv * a_vj) if own else pivot * y - a_iv * a_vj // prev
                else:
                    y = y[0] if y[1] == prev else y[0] * prev // y[1]
                    y = x * y - a_iv * a_vj * prev if own else (pivot * y - a_iv * a_vj) // prev
                old[j] = rows[j][i] = (y, pivot)
            heapq.heappush(heap, (len(old), i))
        prev = pivot
    return prev
