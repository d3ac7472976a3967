import random
import time
from itertools import combinations
from math import comb, isqrt, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spantree.spanning as spanning
from spantree import (
    Graph,
    Partition,
    build_witness,
    complete,
    cycle,
    path,
    tau,
)

from oracles import (
    contract_edge,
    delete_edge,
    det_bareiss,
    det_cofactor,
    identify,
    laplacian,
    principal_minor,
    random_multigraph,
    tau_bruteforce,
)


class TestLaplacian:
    def test_rows_sum_to_zero(self):
        rng = random.Random(3)
        for _ in range(50):
            g = random_multigraph(rng)
            assert all(sum(row) == 0 for row in laplacian(g))

    def test_multiplicities_counted(self):
        lap = laplacian(Graph(2, ((0, 1, 3),)))
        assert lap == [[3, -3], [-3, 3]]

    @pytest.mark.parametrize("wide", [False, True])
    def test_array_builder_matches(self, wide):
        """`_struck_laplacian` is the struck `laplacian`, int64 while every
        multiplicity is below 2^62 // n and an object array from there on."""
        rng = random.Random(47)
        for _ in range(60):
            n = rng.randint(2, 40)
            pairs = [p for p in combinations(range(n), 2) if rng.random() < 0.5] or [(0, 1)]
            top = (2**62 // n, 2**62 // n + 2, 2**63, 2**70) if wide else (1, 3, 2**55)
            edges = tuple((u, v, rng.randint(1, rng.choice(top))) for u, v in pairs)
            if wide:
                edges += ((*pairs[0], rng.choice(top)),)  # one multiplicity >= 2^62 // n
            g = Graph(n, edges)
            block = spanning._struck_laplacian(g)
            assert block.dtype == (object if wide else np.int64)
            assert block.tolist() == principal_minor(laplacian(g), 0)


class TestDeterminant:
    """The general determinant oracle that ``dense_tau`` rests on."""

    def test_empty_matrix_is_one(self):
        assert det_bareiss([]) == 1

    def test_against_cofactor_expansion(self):
        rng = random.Random(11)
        for _ in range(300):
            k = rng.randint(1, 6)
            mat = [[rng.randint(-5, 5) for _ in range(k)] for _ in range(k)]
            assert det_bareiss(mat) == det_cofactor(mat)

    def test_singular(self):
        assert det_bareiss([[1, 2], [2, 4]]) == 0

    def test_needs_row_swap(self):
        assert det_bareiss([[0, 1], [1, 0]]) == -1

    def test_input_not_mutated(self):
        mat = [[2, 1], [1, 2]]
        det_bareiss(mat)
        assert mat == [[2, 1], [1, 2]]


class TestTau:
    def test_conventions(self):
        assert tau(Graph(0)) == 0
        assert tau(Graph(1)) == 1
        assert tau(Graph(2)) == 0  # disconnected

    def test_trees_have_one(self):
        assert tau(path(7)) == 1

    def test_cycle_length(self):
        for k in range(3, 9):
            assert tau(cycle(k)) == k

    def test_cayley(self):
        for n in range(3, 121):
            assert tau(complete(n)) == n ** (n - 2)

    def test_parallel_edges(self):
        assert tau(Graph(2, ((0, 1, 5),))) == 5

    def test_theta_graph(self):
        # two vertices joined by paths of lengths 1, 2, 2: count by hand
        g = Graph(4, ((0, 1), (0, 2), (2, 1), (0, 3), (3, 1)))
        assert tau(g) == tau_bruteforce(g) == 8

    def test_disconnected_is_zero(self):
        g = Graph(6, tuple(cycle(3).edges) + ((3, 4), (4, 5), (3, 5)))
        assert tau(g) == 0

    def test_block_multiplicativity(self):
        rng = random.Random(23)
        for _ in range(30):
            a = random_multigraph(rng, max_vertices=5, max_edges=6)
            b = random_multigraph(rng, max_vertices=5, max_edges=6)
            u = rng.randrange(a.n_vertices)
            v = rng.randrange(b.n_vertices)
            assert tau(identify(a, u, b, v)) == tau(a) * tau(b)


class TestBruteForce:
    def test_matches_tau_on_k4_subsets(self):
        pairs = list(combinations(range(4), 2))
        for mask in range(1 << 6):
            edges = tuple(p for i, p in enumerate(pairs) if mask >> i & 1)
            g = Graph(4, edges)
            assert tau(g) == tau_bruteforce(g)

    def test_random_multigraphs(self):
        rng = random.Random(5)
        for _ in range(100):
            g = random_multigraph(rng)
            assert tau(g) == tau_bruteforce(g)

    def test_budget_refusal(self):
        # C(36, 8) = 30,260,340 subsets, past the fixed limit
        with pytest.raises(ValueError, match="budget of 5000000"):
            tau_bruteforce(complete(9))
        with pytest.raises(TypeError):
            tau_bruteforce(complete(3), budget=10)
        # refused from the edge count, before any parallel copy is listed
        with pytest.raises(ValueError, match="budget of 5000000"):
            tau_bruteforce(Graph(2, ((0, 1, 10**12),)))

    def test_too_few_edges(self):
        assert tau_bruteforce(Graph(3, ((0, 1),))) == 0

    def test_small_cases(self):
        assert tau_bruteforce(Graph(0)) == 0
        assert tau_bruteforce(Graph(1)) == 1
        assert tau_bruteforce(Graph(2, ((0, 1, 3),))) == 3
        # two parallel copies are a 2-cycle and leave vertex 2 out
        assert tau_bruteforce(Graph(3, ((0, 1, 2),))) == 0
        # triangle with one side doubled: 2 + 2 + 1 spanning trees
        g = Graph(3, ((0, 1, 2), (1, 2), (0, 2)))
        assert tau_bruteforce(g) == tau(g) == 5


@settings(max_examples=60, deadline=None)
@given(mask=st.integers(0, 2**10 - 1), edge_index=st.integers(0, 9))
def test_deletion_contraction(mask, edge_index):
    """tau(G) = tau(G - e) + tau(G / e) for any edge e."""
    pairs = list(combinations(range(5), 2))
    g = Graph(5, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))
    if not g.edges:
        return
    e = g.edges[edge_index % len(g.edges)][:2]
    assert tau(g) == tau(delete_edge(g, e)) + tau(contract_edge(g, e))


def dense_tau(g: Graph) -> int:
    """The dense route: a general determinant of the whole struck Laplacian."""
    if g.n_vertices == 0:
        return 0
    return det_bareiss(principal_minor(laplacian(g), 0))


def relabel(g: Graph, label: list[int]) -> Graph:
    return Graph(g.n_vertices, tuple((label[u], label[v], m) for u, v, m in g.edges))


def cactus_chain(lengths: list[int], bridges: list[int]) -> Graph:
    """Disjoint cycles joined in a line by bridges of the given multiplicities."""
    edges = []
    start = 0
    for i, length in enumerate(lengths):
        edges += [(start + j, start + (j + 1) % length) for j in range(length)]
        if i:
            edges.append((start - 1, start, bridges[i - 1]))
        start += length
    return Graph(start, tuple(edges))


def core_with_attachments(rng: random.Random, core: int, n_cycles: int, n_paths: int) -> Graph:
    """A dense random multigraph with cycles and long paths glued to random vertices."""
    edges = [
        (u, v, rng.randint(1, 3))
        for u, v in combinations(range(core), 2)
        if rng.random() < 0.7
    ]
    n = core
    for _ in range(n_cycles):
        ring = [rng.randrange(n), *range(n, n + rng.randint(2, 12))]
        n = ring[-1] + 1
        edges += [(a, b, rng.randint(1, 2)) for a, b in zip(ring, ring[1:] + ring[:1])]
    for _ in range(n_paths):
        chain = [rng.randrange(n), *range(n, n + rng.randint(1, 25))]
        n = chain[-1] + 1
        edges += [(a, b, rng.randint(1, 2)) for a, b in zip(chain, chain[1:])]
    return Graph(n, tuple(edges))


@st.composite
def multigraphs(draw, max_vertices: int = 14):
    n = draw(st.integers(0, max_vertices))
    if n < 2:
        return Graph(n)
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda t: (t[0], (t[0] + t[1]) % n)  # two distinct endpoints
    )
    entries = draw(st.lists(st.tuples(pair, st.integers(1, 3)), max_size=3 * n))
    return Graph(n, tuple((u, v, m) for (u, v), m in entries))


class TestTauProperties:
    @settings(max_examples=300, deadline=None)
    @given(g=multigraphs())
    def test_matches_dense_oracle(self, g):
        assert tau(g) == dense_tau(g)

    @settings(max_examples=150, deadline=None)
    @given(g=multigraphs(max_vertices=7))
    def test_matches_bruteforce(self, g):
        if comb(g.n_edges, max(g.n_vertices - 1, 0)) <= 20_000:
            assert tau(g) == tau_bruteforce(g)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_relabelling_invariant(self, data):
        g = data.draw(multigraphs())
        label = data.draw(st.permutations(range(g.n_vertices)))
        assert tau(relabel(g, label)) == tau(g)

    def test_parallel_bridges(self):
        # two triangles joined by a 4-fold bridge, then a 2-fold pendant edge
        g = Graph(7, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3, 4), (5, 6, 2)))
        assert tau(g) == dense_tau(g) == 3 * 3 * 4 * 2

    def test_pendant_multi_edges(self):
        # a star of multi-edges is a tree of bundles: the product of the bundles
        for centre in (0, 3):
            leaves = [v for v in range(6) if v != centre]
            g = Graph(6, tuple((centre, v, v + 1) for v in leaves))
            assert tau(g) == prod(v + 1 for v in leaves)

    def test_disconnected_inputs(self):
        assert tau(Graph(5, ((0, 1, 2), (1, 2), (3, 4, 3)))) == 0
        assert tau(Graph(6, tuple(complete(5).edges))) == 0  # an isolated vertex
        assert tau(Graph(40, tuple(cycle(39).edges))) == 0  # enough edges, one vertex left out

    def test_too_few_edges_allocates_nothing(self, capped_python):
        proc = capped_python("-c", (
            "import time\n"
            "from spantree import Graph, tau\n"
            "start = time.perf_counter()\n"
            "print(tau(Graph(10**9)), tau(Graph(10**9, ((0, 1),))))\n"
            "print(time.perf_counter() - start < 0.1)\n"
        ))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 0\nTrue\n", "")

    def test_dense_core_with_attachments(self, monkeypatch):
        """Sparse steps on the attachments, then a dense finish of the core.

        A core of 12 is finished by Bareiss, a core of 40 modulo primes.
        """
        finishes = []

        def spy(block, prev):
            finishes.append((len(block), prev))
            return finish(block, prev)

        finish = spanning._finish
        monkeypatch.setattr(spanning, "_finish", spy)
        rng = random.Random(13)
        for core, rounds in ((12, 12), (40, 3)):
            for _ in range(rounds):
                g = core_with_attachments(rng, core=core, n_cycles=6, n_paths=6)
                label = list(range(g.n_vertices))
                rng.shuffle(label)
                g = relabel(g, label)
                finishes.clear()
                value = tau(g)
                # the sparse stage ran (its last pivot divides the first
                # dense step) and left more than one row to the dense finish
                [(size, prev)] = finishes
                assert size > 1 and prev > 1
                assert (size >= spanning._MODULAR_ROWS) == (core == 40)
                assert value == dense_tau(g) > 0


class TestTauFamilies:
    def test_long_path_and_cycle(self):
        for g, expected in ((path(2000), 1), (cycle(2000), 2000)):
            start = time.perf_counter()
            assert tau(g) == expected
            assert time.perf_counter() - start < 2.0

    def test_cactus_chains(self):
        rng = random.Random(17)
        for _ in range(20):
            lengths = [rng.randint(3, 15) for _ in range(rng.randint(1, 12))]
            bridges = [rng.randint(1, 4) for _ in lengths[1:]]
            g = cactus_chain(lengths, bridges)
            label = list(range(g.n_vertices))
            rng.shuffle(label)
            assert tau(relabel(g, label)) == prod(lengths) * prod(bridges)

    def test_all_threes_witness(self):
        w = build_witness(Partition((3,) * 160), 480)
        assert tau(w.graph) == w.tau_value == 3**160

    def test_uniform_complete(self):
        for n in range(2, 16):
            for m in (2, 3):
                g = Graph(n, tuple((u, v, m) for u, v in combinations(range(n), 2)))
                assert tau(g) == m ** (n - 1) * n ** (n - 2)


def dense_multigraph(rng: random.Random, n: int, low: int = 1, high: int = 3) -> Graph:
    """Each pair joined with probability 0.55-0.85, multiplicity in [low, high]."""
    density = rng.uniform(0.55, 0.85)
    edges = [
        (u, v, rng.randint(low, high))
        for u, v in combinations(range(n), 2)
        if rng.random() < density
    ]
    return Graph(n, tuple(edges))


def is_prime(x: int) -> bool:
    return x > 1 and all(x % d for d in range(2, isqrt(x) + 1))


class TestBareissFinish:
    """Dense blocks below _MODULAR_ROWS rows are finished by `_bareiss`."""

    def test_zero_pivot_before_last_column(self, monkeypatch):
        """K_9 on 1..9 and K_9 on 0, 10..17 leave one 17-row block whose
        first 9 rows are K_9's singular Laplacian: the pivot at column 8
        vanishes over a zero row and column, so no row is swapped."""
        blocks = []

        def spy(block, prev):
            blocks.append(block)
            return bareiss(block, prev)

        bareiss = spanning._bareiss
        monkeypatch.setattr(spanning, "_bareiss", spy)
        monkeypatch.setattr(spanning, "_MODULAR_ROWS", 18)
        left = tuple((u + 1, v + 1) for u, v, _ in complete(9).edges)
        right = tuple((u and u + 9, v + 9) for u, v, _ in complete(9).edges)
        assert tau(Graph(18, left + right)) == 0
        [block] = blocks
        assert len(block) == 17
        assert [c for c in range(17) if block[c][c] == 0][0] == 8
        assert not any(block[8][8:]) and not any(row[8] for row in block[9:])


class TestModularFinish:
    """Dense blocks of at least _MODULAR_ROWS rows are finished modulo primes."""

    def test_random_dense_multigraphs(self):
        rng = random.Random(29)
        crossover = spanning._MODULAR_ROWS
        for k in (*range(crossover - 2, crossover + 3), 31, 47, 64, 89, 120):
            g = dense_multigraph(rng, k + 1)
            assert tau(g) == dense_tau(g)

    def test_kernel_switches_at_modular_rows(self, monkeypatch):
        rows = spanning._MODULAR_ROWS
        calls = []

        def spy(name):
            kernel = getattr(spanning, name)

            def call(block, *rest):
                calls.append((name, len(block[0])))
                return kernel(block, *rest)

            return call

        for name in ("_bareiss", "_det_mod"):
            monkeypatch.setattr(spanning, name, spy(name))
        for k in (rows, rows - 1):  # K_(k+1) leaves a dense block of k rows
            calls.clear()
            assert tau(complete(k + 1)) == (k + 1) ** (k - 1)
            assert calls == [("_det_mod" if k == rows else "_bareiss", k)]

    def test_multiplicities_beyond_int64(self):
        rng = random.Random(31)
        for n in (26, 40):
            g = dense_multigraph(rng, n, 2**63, 2**64)
            assert tau(g) == dense_tau(g)

    def test_two_disjoint_complete_graphs(self):
        edges = complete(30).edges
        g = Graph(60, edges + tuple((u + 30, v + 30) for u, v, _ in edges))
        assert tau(g) == dense_tau(g) == 0

    def test_pivot_zero_modulo_first_prime(self, monkeypatch):
        """The first prime divides the leading 2 x 2 minor of K_30 with b
        extra copies of edge (2, 3), 29 * (29 + b) - 1, over two columns of
        rank 2 modulo it, so the prime is unlucky."""
        first = next(spanning._primes())
        b = pow(29, -1, first) - 29
        g = Graph(30, complete(30).edges + ((2, 3, b),))
        block = principal_minor(laplacian(g), 0)
        minor = block[0][0] * block[1][1] - block[0][1] ** 2
        assert minor == 29 * (29 + b) - 1 and minor % first == 0
        results = []

        def spy(a, primes):
            dets = det_mod(a, primes)
            results.extend(zip(primes, dets))
            return dets

        det_mod = spanning._det_mod
        monkeypatch.setattr(spanning, "_det_mod", spy)
        assert tau(g) == dense_tau(g)
        assert results[0] == (first, None)
        combined = [p for p, d in results if d is not None]
        assert first not in combined
        assert prod(combined) > prod(block[i][i] for i in range(len(block)))

    def test_det_mod_pivots_per_prime(self):
        """Zero pivots and zero columns modulo one prime but not the others.

        A residue is the determinant's, or None where the prime divides a
        leading principal minor of lower order.
        """
        rng = random.Random(37)
        primes = [7, 11, 13]
        entries = (0, 0, 7, 11, 13, 77, 1, -1)
        unlucky = zeros = 0
        for _ in range(200):
            k = rng.randint(1, 7)
            mat = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i, k):
                    mat[i][j] = mat[j][i] = rng.choice(entries)
            a = np.array([[[x % p for x in row] for row in mat] for p in primes])
            det = det_bareiss(mat)
            minors = [det_bareiss([row[:j] for row in mat[:j]]) for j in range(1, k)]
            for p, d in zip(primes, spanning._det_mod(a, primes)):
                if d is None:
                    assert any(m % p == 0 for m in minors)
                    unlucky += 1
                else:
                    assert d == det % p
                    zeros += d == 0
        assert unlucky and zeros

    def test_det_mod_gram_matrices(self):
        """Positive semidefinite X^T X, of rank below k when X has fewer
        rows than columns, modulo small primes.

        A residue is the determinant's, or None where the prime divides a
        nonzero leading principal minor of even order below k: the order
        at which a 2 x 2 pivot block ends.
        """
        rng = random.Random(61)
        primes = [2, 3, 5, 7]
        unlucky = zeros = singular = 0
        for _ in range(300):
            k = rng.randint(1, 9)
            x = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rng.randint(1, k + 1))]
            mat = [[sum(r[i] * r[j] for r in x) for j in range(k)] for i in range(k)]
            a = np.array([mat] * len(primes), dtype=np.int64)
            det = det_bareiss(mat)
            even = [det_bareiss([row[:j] for row in mat[:j]]) for j in range(2, k, 2)]
            singular += det == 0
            for p, d in zip(primes, spanning._det_mod(a, primes)):
                if d is None:
                    assert any(m and m % p == 0 for m in even)
                    unlucky += 1
                else:
                    assert d == det % p
                    zeros += d == 0 and any(m % p == 0 for m in even)
        assert unlucky and zeros and singular

    def test_det_mod_small_blocks(self):
        """k = 1 and 3 end on a 1 x 1 pivot, k = 2 and 4 on a 2 x 2 block;
        raw, reduced and singular blocks alike."""
        supply = spanning._primes()
        primes = [next(supply), next(supply), 13, 11]
        for k in range(1, 5):
            m = 2**56  # uniform K_(k+1), raw
            uniform = [[m * k if i == j else -m for j in range(k)] for i in range(k)]
            singular = [[(i + 1) * (j + 1) for j in range(k)] for i in range(k)]  # rank 1
            other = [[i + j + 2 * k * (i == j) for j in range(k)] for i in range(k)]
            assert det_bareiss(uniform) == m**k * (k + 1) ** (k - 1)
            assert det_bareiss(singular) == (k == 1)
            for mat in (uniform, singular, other):
                det = det_bareiss(mat)
                reduced = [[[x % p for x in row] for row in mat] for p in primes]
                for block in ([mat] * len(primes), reduced):
                    a = np.array(block, dtype=np.int64)
                    assert spanning._det_mod(a, primes) == [det % p for p in primes]

    def test_two_disjoint_complete_graphs_one_call(self, monkeypatch):
        """K_30 on 1..30 and K_30 on 0, 31..59 leave one 59-row block whose
        first 30 rows are K_30's singular Laplacian: the pivot block at
        columns 28 and 29, the last within those rows, is singular over
        dependent columns modulo every prime.  One `_det_mod` call gives
        residue 0 for each, and `_bareiss` is never called."""
        calls = []

        def spy(a, primes):
            dets = det_mod(a, primes)
            calls.append(dets)
            if len(calls) > 1:
                raise AssertionError("a second _det_mod call")
            return dets

        def no_bareiss(m, prev):
            raise AssertionError("_bareiss called")

        det_mod = spanning._det_mod
        monkeypatch.setattr(spanning, "_det_mod", spy)
        monkeypatch.setattr(spanning, "_bareiss", no_bareiss)
        left = tuple((u + 1, v + 1) for u, v, _ in complete(30).edges)
        right = tuple((u and u + 30, v + 30) for u, v, _ in complete(30).edges)
        assert tau(Graph(60, left + right)) == 0
        [dets] = calls
        assert dets and set(dets) == {0}

    @staticmethod
    def det_mod_shapes(monkeypatch) -> list[tuple[int, int, int]]:
        """The shape of every array `_det_mod` is called on from now on."""
        shapes = []

        def spy(a, primes):
            shapes.append(a.shape)
            return det_mod(a, primes)

        det_mod = spanning._det_mod
        monkeypatch.setattr(spanning, "_det_mod", spy)
        return shapes

    def test_prime_chunks(self, monkeypatch):
        """A budget below one block's batch of primes splits it into chunks."""
        budget = 4 * 99 * 99  # four primes of a 99-row block
        monkeypatch.setattr(spanning, "_CHUNK_ENTRIES", budget)
        shapes = self.det_mod_shapes(monkeypatch)
        g = dense_multigraph(random.Random(41), 100)
        assert tau(g) == dense_tau(g)
        assert len(shapes) > 1
        assert all(np.prod(shape) <= budget for shape in shapes)

    def test_one_call_per_block(self, monkeypatch):
        """At the default budget an 89-row block takes every prime its
        Hadamard bound needs in one `_det_mod` call."""
        shapes = self.det_mod_shapes(monkeypatch)
        n, m = 90, 3
        tripled = Graph(n, tuple((u, v, m) for u, v in combinations(range(n), 2)))
        for g, expected in ((complete(n), n ** (n - 2)), (tripled, m ** (n - 1) * n ** (n - 2))):
            shapes.clear()
            assert tau(g) == expected
            assert len(shapes) == 1
            assert np.prod(shapes[0]) <= spanning._CHUNK_ENTRIES

    def test_dense_from_the_start(self, monkeypatch):
        """K_90, the tripled K_90 and a p = 0.55 multigraph on 35 vertices
        reach `_finish` whole (prev 1, no sparse step) as int64 arrays."""
        finishes = []

        def spy(mat, prev):
            finishes.append((mat.shape, mat.dtype, prev))
            return finish(mat, prev)

        finish = spanning._finish
        monkeypatch.setattr(spanning, "_finish", spy)
        n, m = 90, 3
        tripled = Graph(n, tuple((u, v, m) for u, v in combinations(range(n), 2)))
        rng = random.Random(59)
        multi = Graph(35, tuple(
            (u, v, rng.randint(1, 3)) for u, v in combinations(range(35), 2) if rng.random() < 0.55
        ))
        for g in (complete(n), tripled, multi):
            finishes.clear()
            tau(g)
            k = g.n_vertices - 1
            assert finishes == [((k, k), np.int64, 1)]

    def test_sparse_graphs_build_no_array(self, monkeypatch):
        """A cycle or a path has too few edges for the dense test, so no
        n x n array is built for it."""

        def no_array(g):
            raise AssertionError("array built")

        monkeypatch.setattr(spanning, "_struck_laplacian", no_array)
        assert tau(cycle(2000)) == 2000 and tau(path(2000)) == 1

    def test_int64_bound(self):
        """A residue, or a raw entry inside ±2^62, less a sum of
        _REDUCE_EVERY products of residues fits int64, and so does every
        step of a 2 x 2 pivot."""
        top = 2**spanning._PRIME_BITS
        assert spanning._REDUCE_EVERY * (top - 1) ** 2 + top < 2**63
        assert -(2**62 - 1) - spanning._REDUCE_EVERY * (top - 1) ** 2 >= -(2**63)
        # a 2 x 2 pivot block's determinant and the dependence test's
        # minors are differences of two products of residues, the entries
        # of adj(D) * det(D)^-1 products of two residues, and the scaled
        # multipliers sums of two of those products
        assert (top - 1) ** 2 < 2**52
        assert 2 * (top - 1) ** 2 < 2**53

    def test_det_mod_raw_entries(self):
        """Unreduced int64 entries inside ±2^62 give the residues of the
        determinant, each column reduced on its first touch."""
        rng = random.Random(53)
        supply = spanning._primes()
        primes = [next(supply), next(supply), 13, 7]
        edge = 2**62 - 1
        for _ in range(100):
            k = rng.randint(1, 8)
            mat = [[0] * k for _ in range(k)]
            for i in range(k):
                for j in range(i, k):
                    x = rng.choice((edge, -edge, rng.randint(-edge, edge)))
                    mat[i][j] = mat[j][i] = x
            a = np.array([mat] * len(primes), dtype=np.int64)
            det = det_bareiss(mat)
            minors = [det_bareiss([row[:j] for row in mat[:j]]) for j in range(1, k)]
            for p, d in zip(primes, spanning._det_mod(a, primes)):
                if d is None:
                    assert any(m % p == 0 for m in minors)
                else:
                    assert d == det % p
        first = primes[0]
        multiple = first * (2**62 // first - 1)
        # a raw 1 x 1 pivot that is a nonzero multiple of the first prime
        # lies inside a 2 x 2 pivot block, so both residues are the
        # determinant's
        mat = [[multiple, 5], [5, 1]]
        a = np.array([mat] * 2, dtype=np.int64)
        assert spanning._det_mod(a, primes[:2]) == [det_bareiss(mat) % p for p in primes[:2]]
        # a raw leading 2 x 2 minor that is a nonzero multiple of the first
        # prime, over columns (1, 1, 2) and (1, 1, 3) of rank 2 modulo it
        mat = [[multiple + 1, 1, 2], [1, 1, 3], [2, 3, 2**62 - 1]]
        a = np.array([mat] * 2, dtype=np.int64)
        assert spanning._det_mod(a, primes[:2]) == [None, det_bareiss(mat) % primes[1]]

    def test_uniform_k30_raw_and_reduced(self, monkeypatch):
        """Multiplicity 2^56 keeps the int64 block raw; 2^62 // 30 + 1
        makes it an object block, reduced before `_det_mod`."""
        dtypes = []

        def spy(mat, prev):
            dtypes.append(mat.dtype)
            return finish(mat, prev)

        finish = spanning._finish
        monkeypatch.setattr(spanning, "_finish", spy)
        n = 30
        for m, dtype in ((2**56, np.int64), (2**62 // n + 1, object)):
            g = Graph(n, tuple((u, v, m) for u, v in combinations(range(n), 2)))
            assert tau(g) == m ** (n - 1) * n ** (n - 2)
            assert dtypes.pop() == dtype

    def test_large_complete_graphs(self):
        assert tau(complete(150)) == 150**148
        n, m = 120, 3
        g = Graph(n, tuple((u, v, m) for u, v in combinations(range(n), 2)))
        assert tau(g) == m ** (n - 1) * n ** (n - 2)

    def test_periodic_reduction(self, monkeypatch):
        monkeypatch.setattr(spanning, "_REDUCE_EVERY", 3)
        rng = random.Random(43)
        for n in (25, 33, 60):
            g = dense_multigraph(rng, n)
            assert tau(g) == dense_tau(g)

    def test_primes_run_out(self, monkeypatch):
        """A bound beyond every prime falls back to Bareiss."""
        monkeypatch.setattr(spanning, "_primes", lambda: iter([13, 11, 7]))
        assert tau(complete(30)) == 30**28

    def test_primes(self):
        bound = 299**299  # the Hadamard bound of K_300
        primes, cover = [], 1
        for p in spanning._primes():
            primes.append(p)
            cover *= p
            if cover > bound:
                break
        assert cover > bound
        assert primes == sorted(set(primes), reverse=True)
        assert all(p < 2**26 and is_prime(p) for p in primes)

    def test_primes_sieved_on_first_use(self, capped_python):
        proc = capped_python("-c", (
            "from spantree import complete, spanning\n"
            "print(spanning._prime_window.cache_info().currsize)\n"
            "spanning.tau(complete(25))\n"
            "print(spanning._prime_window.cache_info().currsize)\n"
        ))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n1\n", "")
