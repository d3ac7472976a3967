import random
import time
from itertools import combinations
from math import comb, isqrt, prod

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spantree.spanning as spanning
from spantree import cli
from spantree import (
    Graph,
    Partition,
    build_witness,
    complete,
    cycle,
    flower,
    format_edge_list,
    parse_edge_list,
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


def raised(n: int, m: int = 1) -> Graph:
    """K_n of uniform multiplicity m with pair (0, 1) raised to m + 1.

    Only that pair is at the top multiplicity, so from n = 4 on the graph
    is not near-complete: `tau` strikes vertex 0 of its Laplacian, every
    vertex having n - 1 pairs, and takes the dense start, finished by
    `_bareiss` below _MODULAR_ROWS rows and modulo primes from there.  Its τ is
    m^(n-2) * n^(n-3) * (m * n + 2): a tree through (0, 1), one of
    2 * n^(n-3), weighs m^(n-2) * (m + 1), any other m^(n-1).
    """
    return Graph(n, tuple((u, v, m + ((u, v) == (0, 1))) for u, v in combinations(range(n), 2)))


def raised_tau(n: int, m: int = 1) -> int:
    return m ** (n - 2) * n ** (n - 3) * (m * n + 2)


def busiest(g: Graph) -> int:
    """The vertex `tau` strikes: the most vertex pairs, the lowest such label."""
    pairs = [0] * g.n_vertices
    for u, v, _ in g.edges:
        pairs[u] += 1
        pairs[v] += 1
    return pairs.index(max(pairs))


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
        """`_struck_laplacian` is `laplacian` struck at the busiest vertex,
        the others kept in order, int64 while every multiplicity is below
        2^62 // n and an object array from there on."""
        rng = random.Random(47)
        for _ in range(60):
            n = rng.randint(2, 40)
            pairs = [p for p in combinations(range(n), 2) if rng.random() < 0.5] or [(0, 1)]
            top = (2**62 // n, 2**62 // n + 2, 2**63, 2**70) if wide else (1, 3, 2**55)
            edges = tuple((u, v, rng.randint(1, rng.choice(top))) for u, v in pairs)
            if wide:
                edges += ((*pairs[0], rng.choice(top)),)  # one multiplicity >= 2^62 // n
            g = Graph(n, edges)
            h = busiest(g)
            block = spanning._struck_laplacian(g, h)
            assert block.dtype == (object if wide else np.int64)
            assert block.tolist() == principal_minor(laplacian(g), h)

    @pytest.mark.parametrize("n", [2, 3, 7, 40])
    def test_array_builder_bound_in_int64_column(self, n):
        """A multiplicity of 2^62 // n or more takes the object Laplacian
        while its column is still int64; one less stays int64.  The path
        is struck at its busiest vertex, 1 from n = 3 on."""
        for top, dtype in ((2**62 // n - 1, np.int64), (2**62 // n, object), (2**62 - 1, object)):
            g = Graph(n, ((0, 1, top),) + tuple((v, v + 1) for v in range(1, n - 1)))
            assert g.m.dtype == np.int64
            h = busiest(g)
            block = spanning._struck_laplacian(g, h)
            assert block.dtype == dtype
            assert block.tolist() == principal_minor(laplacian(g), h)

    def test_complete_struck_at_zero(self, monkeypatch):
        """Every vertex of K_n with pair (0, 1) doubled has n - 1 pairs, so
        `tau` strikes the lowest label, 0, and builds the trailing
        (n - 1) x (n - 1) block."""
        blocks = []

        def spy(g, h):
            blocks.append((h, struck(g, h).tolist()))
            return struck(g, h)

        struck = spanning._struck_laplacian
        monkeypatch.setattr(spanning, "_struck_laplacian", spy)
        for n in (5, 30):
            blocks.clear()
            g = raised(n)
            assert tau(g) == n ** (n - 2) + 2 * n ** (n - 3) == dense_tau(g)
            assert blocks == [(0, principal_minor(laplacian(g), 0))]


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

    def test_reads_columns_only(self, monkeypatch):
        """Neither the builders, the edge-list round trip nor `tau` build the
        tuple of triples: multigraphs like the dense benchmark's (edge
        probability 0.55-0.85, multiplicities 1-3), K_40 and a cycle are
        counted with `Graph.edges` made to raise."""
        rng = random.Random(29)
        dense = []
        for n in (35, 42):
            p = rng.uniform(0.55, 0.85)
            pairs = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
            dense.append(Graph(n, tuple((u, v, rng.randint(1, 3)) for u, v in pairs)))
        expected = [det_bareiss(principal_minor(laplacian(g), 0)) for g in dense]

        def unread(g):
            raise AssertionError("Graph.edges was read")

        monkeypatch.setattr(Graph, "edges", property(unread))
        for g, want in zip(dense, expected):
            assert tau(parse_edge_list(format_edge_list(g))) == want
        assert tau(complete(40)) == 40**38
        assert tau(cycle(300)) == 300
        assert tau(Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0, 2)))) == 7


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

    @settings(max_examples=150, deadline=None)
    @given(hubs=st.integers(1, 3), seed=st.integers(0, 2**32))
    def test_hubs_match_dense_oracle(self, hubs, seed):
        """A sparse random multigraph plus 1-3 hubs, each joined to most
        earlier vertices, under shuffled labels: one hub is struck, and the
        other hubs' rows mix the graph's own entries with entries that
        pivots wrote many steps before they are read."""
        rng = random.Random(seed)
        g = random_multigraph(rng, max_vertices=40, max_edges=50)
        n = g.n_vertices + hubs
        edges = g.edges + tuple(
            (w, h, rng.randint(1, 3)) for h in range(g.n_vertices, n) for w in range(h)
            if rng.random() < 0.8
        )
        label = list(range(n))
        rng.shuffle(label)
        g = relabel(Graph(n, edges), label)
        assert tau(g) == dense_tau(g)

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

        A core of 12 is finished by Bareiss, a core of 40 modulo primes,
        each handed over as int64 exactly when its largest diagonal entry,
        which bounds every entry, is below 2^62.  Then a uniform K_13 of
        multiplicity M with paths of single edges hanging off it: every
        pivot before the core's is 1, so the core reaches `_finish` as M
        times the struck Laplacian of K_13, 12 rows of diagonal 12M, as
        int64 for M up to 2^62 // 12 and as Python ints from there.
        """
        finishes = []

        def spy(block, prev):
            finishes.append((len(block), prev, block.dtype, max(block.diagonal().tolist())))
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
                [(size, prev, dtype, top)] = finishes
                assert size > 1 and prev > 1
                assert dtype == (np.int64 if top < 2**62 else object)
                assert (size >= spanning._MODULAR_ROWS) == (core == 40)
                assert value == dense_tau(g) > 0
        k = 12
        edges = [(u, v) for u, v, _ in complete(k + 1).edges]
        n = k + 1
        for length in (1, 3, 8, 20):
            chain = [rng.randrange(k + 1), *range(n, n + length)]
            edges += zip(chain, chain[1:])
            n += length
        label = list(range(n))
        rng.shuffle(label)
        for m in (2**62 // k - 1, 2**62 // k, 2**62 // k + 1, 2**63):
            g = Graph(n, tuple((label[u], label[v], m if v <= k else 1) for u, v in edges))
            finishes.clear()
            assert tau(g) == m**k * (k + 1) ** (k - 1)
            assert finishes == [(k, 1, np.int64 if k * m < 2**62 else object, k * m)]


class TestTauFamilies:
    def test_long_path_and_cycle(self):
        for g, expected in ((path(2000), 1), (cycle(2000), 2000)):
            start = time.perf_counter()
            assert tau(g) == expected
            assert time.perf_counter() - start < 2.0

    def test_hubs_labelled_last(self, capped_python):
        """Stars, wheels and complete bipartite graphs with their hubs
        labelled last, against closed forms: a star has 1 spanning tree, a
        wheel on k rim vertices L_2k - 2 (the Lucas numbers) and K_(m,n)
        m^(n-1) * n^(m-1).  One hub is struck, and every pivot row left
        holds at most three entries, so a step writes at most nine however
        long another hub's row is.  A sparse stage that rebuilt each
        neighbour's whole row took more than 60 s on every one of these
        sizes, so they run in a child process under its 60 s timeout.
        K_(2,15000) is timed as well: each rim step is on the graph's own
        row, so it needs no division and reads the other hub's diagonal as
        stored; steps that divided by the last pivot, up to 2^15000, took
        5-6 s."""
        star, rim, pair, triple, wide = 50_000, 4000, 6000, 2500, 15_000
        proc = capped_python("-c", (
            "import time\n"
            "from spantree import Graph, tau\n"
            "def bipartite(m, n):\n"
            "    return Graph(n + m, tuple((v, h) for v in range(n) for h in range(n, n + m)))\n"
            f"print(hex(tau(Graph({star + 1}, tuple((v, {star}) for v in range({star}))))))\n"
            f"k = {rim}\n"
            "ring = tuple((v, (v + 1) % k) for v in range(k))\n"
            "print(hex(tau(Graph(k + 1, ring + tuple((v, k) for v in range(k))))))\n"
            f"for m, n in ((2, {pair}), (3, {triple})):\n"
            "    print(hex(tau(bipartite(m, n))))\n"
            f"g = bipartite(2, {wide})\n"
            "start = time.perf_counter()\n"
            "print(hex(tau(g)), time.perf_counter() - start < 2)\n"
        ))
        lucas = [2, 1]
        while len(lucas) <= 2 * rim:
            lucas.append(lucas[-1] + lucas[-2])
        counts = [1, lucas[2 * rim] - 2, 2 ** (pair - 1) * pair, 3 ** (triple - 1) * triple**2]
        counts.append(2 ** (wide - 1) * wide)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split() == [*(hex(c) for c in counts), "True"]

    def test_cactus_chains(self):
        rng = random.Random(17)
        for _ in range(20):
            lengths = [rng.randint(3, 15) for _ in range(rng.randint(1, 12))]
            bridges = [rng.randint(1, 4) for _ in lengths[1:]]
            g = cactus_chain(lengths, bridges)
            label = list(range(g.n_vertices))
            rng.shuffle(label)
            assert tau(relabel(g, label)) == prod(lengths) * prod(bridges)

    def test_chains_finish_in_dicts(self, monkeypatch):
        """Cycles, paths, flowers, witnesses and cactus chains under shuffled
        labels give their closed forms with `_finish` made to raise: every
        pivot row holds at most three entries, so the dict stage finishes
        them and returns its last pivot.  Each has at least 14 vertices and
        a row of at most three entries, so none is dense from the start."""

        def unused(*args):
            raise AssertionError("_finish called")

        monkeypatch.setattr(spanning, "_finish", unused)
        rng = random.Random(19)
        primes = [p for p in range(3, 60, 2) if is_prime(p)]
        for _ in range(10):
            n = rng.randint(14, 120)
            lengths = [rng.randint(3, 15) for _ in range(rng.randint(1, 8))]
            bridges = [rng.randint(1, 4) for _ in lengths[1:]]
            parts = sorted(rng.choices(primes, k=rng.randint(1, 6)))
            cases = [
                (cycle(n), n),
                (path(n), 1),
                (flower(lengths + [14]), prod(lengths) * 14),
                (build_witness(Partition(tuple(parts)), sum(parts) + 14).graph, prod(parts)),
                (cactus_chain(lengths + [14], bridges + [1]), prod(lengths) * 14 * prod(bridges)),
            ]
            for g, expected in cases:
                assert g.n_vertices >= 14
                label = list(range(g.n_vertices))
                rng.shuffle(label)
                assert tau(relabel(g, label)) == expected

    def test_all_threes_witness(self):
        w = build_witness(Partition((3,) * 160), 480)
        assert tau(w.graph) == w.tau_value == 3**160

    def test_uniform_complete(self):
        for n in range(2, 16):
            for m in (2, 3):
                g = Graph(n, tuple((u, v, m) for u, v in combinations(range(n), 2)))
                assert tau(g) == m ** (n - 1) * n ** (n - 2)


def deficient(rng: random.Random, n: int, t: int) -> Graph:
    """Uniform K_n of multiplicity t less random disjoint paths and cycles,
    each of their pairs removed or lowered below t, under shuffled labels."""
    order = list(range(n))
    rng.shuffle(order)
    deficit = {}
    while order:
        cut = rng.randint(1, len(order))
        piece, order = order[:cut], order[cut:]
        links = list(zip(piece, piece[1:]))
        if len(piece) >= 3 and rng.random() < 0.5:
            links.append((piece[-1], piece[0]))
        for a, b in links:
            deficit[min(a, b), max(a, b)] = rng.randrange(t)  # 0 removes the pair
    edges = ((u, v, deficit.get((u, v), t)) for u, v in combinations(range(n), 2))
    return Graph(n, tuple(e for e in edges if e[2]))


class TestNearComplete:
    """Graphs whose every vertex has at least n - 3 pairs at the top
    multiplicity, counted through Temperley's identity: neither the struck
    Laplacian nor a dense finish is ever used on them, since every pivot
    row of their matrix holds at most three entries."""

    @staticmethod
    def unused(*args):
        raise AssertionError("the struck Laplacian or a dense finish was used")

    @pytest.fixture()
    def temperley_only(self, monkeypatch):
        for name in ("_struck_laplacian", "_finish"):
            monkeypatch.setattr(spanning, name, self.unused)

    def test_cayley(self, temperley_only):
        for n in (*range(2, 60), 150, 300):
            assert tau(complete(n)) == n ** (n - 2)

    def test_uniform(self, temperley_only):
        """m^(n-1) * n^(n-2), with multiplicities on both sides of 2^62 // n
        and past 2^62, where the columns hold Python ints.  The matrix is
        diagonal, so every pivot row holds one entry and none reaches
        `_finish`, even where the rows are few enough to pass the dense
        test (the hand-off's int64 bound is checked in
        `test_dense_core_with_attachments`)."""
        for n in (2, 3, 4, 7, 30, 90):
            for m in (2, 3, 2**62 // n - 1, 2**62 // n, 2**62 // n + 1, 2**63, 2**70):
                g = Graph(n, tuple((u, v, m) for u, v in combinations(range(n), 2)))
                assert tau(g) == m ** (n - 1) * n ** (n - 2)

    def test_complete_less_an_edge(self, temperley_only):
        for n in (*range(3, 41), 200):
            g = Graph(n, tuple(e for e in complete(n).edges if e[:2] != (1, n - 1)))
            assert tau(g) == (n - 2) * n ** (n - 3)

    def test_cocktail_party(self, temperley_only):
        """K_2k less a perfect matching: (2k)^(k-2) * (2k - 2)^k."""
        for k in (*range(2, 21), 500):
            g = Graph(2 * k, tuple(e for e in complete(2 * k).edges if e[:2] != (e[0], e[0] ^ 1)))
            assert tau(g) == (2 * k) ** (k - 2) * (2 * k - 2) ** k

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(2, 40), t=st.integers(1, 4), seed=st.integers(0, 2**32))
    def test_matches_dense_oracle(self, n, t, seed):
        g = deficient(random.Random(seed), n, t)
        expected = dense_tau(g)
        with pytest.MonkeyPatch.context() as patch:
            for name in ("_struck_laplacian", "_finish"):
                patch.setattr(spanning, name, self.unused)
            assert tau(g) == expected

    def test_three_lacking_pairs_build_the_array(self, monkeypatch):
        """A vertex with two pairs below the top is still near-complete; one
        with three, removed or lowered, takes the struck Laplacian."""
        built = []

        def spy(g, h):
            built.append(h)
            return struck(g, h)

        struck = spanning._struck_laplacian
        monkeypatch.setattr(spanning, "_struck_laplacian", spy)
        for n in (8, 30):
            for lacking in (2, 3):
                for low in (0, 1):  # the lacking pairs of vertex 0 removed, or at 1 of 2
                    edges = ((u, v, low if u == 0 and v <= lacking else 2) for u, v, _ in complete(n).edges)
                    g = Graph(n, tuple(e for e in edges if e[2]))
                    built.clear()
                    assert tau(g) == dense_tau(g)
                    assert built == ([busiest(g)] if lacking == 3 else [])

    def test_largest_complete_graphs_in_seconds(self, capped_python):
        """`tau --complete 1000`, over 80 s as one modular block, and
        `--complete 1414`, the largest the edge limit accepts, count in a
        few seconds under the address-space cap."""
        assert 1414 * 1413 // 2 <= cli._LIST_LIMIT < 1415 * 1414 // 2
        proc = capped_python("-c", (
            "import time\n"
            "from spantree.cli import main\n"
            "for n in (1000, 1414):\n"
            "    start = time.perf_counter()\n"
            "    main(['tau', '--complete', str(n)])\n"
            "    print(time.perf_counter() - start < 5)\n"
        ))
        counts = [cli._decimal(n ** (n - 2)) for n in (1000, 1414)]
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.split() == [counts[0], "True", counts[1], "True"]


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
        for k in (rows, rows - 1):  # K_(k+1), (0, 1) doubled, leaves a dense block of k rows
            calls.clear()
            assert tau(raised(k + 1)) == raised_tau(k + 1)
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

    @staticmethod
    def gram(rng: random.Random, k: int) -> list[list[int]]:
        """X^T X for a random X of small entries with 1..k + 1 rows."""
        x = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(rng.randint(1, k + 1))]
        return [[sum(r[i] * r[j] for r in x) for j in range(k)] for i in range(k)]

    def test_det_mod_reads_upper_triangle(self):
        """Random values inside ±2^62 below the diagonal leave every residue
        of a Gram block as it was, zero pivots modulo 7 and 13 among them."""
        rng = random.Random(67)
        primes = [next(spanning._primes()), 13, 7]
        edge = 2**62 - 1
        results = []
        for _ in range(300):
            k = rng.randint(2, 12)
            a = np.array([self.gram(rng, k)] * len(primes), dtype=np.int64)
            expected = spanning._det_mod(a.copy(), primes)
            rows, cols = np.tril_indices(k, -1)
            a[:, rows, cols] = [[rng.randint(-edge, edge) for _ in rows] for _ in primes]
            assert spanning._det_mod(a, primes) == expected
            results += expected
        assert None in results and 0 in results

    @pytest.mark.parametrize("every", [1, 2, 3, 5])
    def test_det_mod_chunked_reduction(self, monkeypatch, every):
        """Rows brought up to date a few products at a time: Gram blocks
        keep the rules of `test_det_mod_gram_matrices`."""
        monkeypatch.setattr(spanning, "_REDUCE_EVERY", every)
        rng = random.Random(71 + every)
        primes = [2, 3, 5, 7]
        for _ in range(150):
            k = rng.randint(1, 12)
            mat = self.gram(rng, k)
            a = np.array([mat] * len(primes), dtype=np.int64)
            det = det_bareiss(mat)
            even = [det_bareiss([row[:j] for row in mat[:j]]) for j in range(2, k, 2)]
            for p, d in zip(primes, spanning._det_mod(a, primes)):
                if d is None:
                    assert any(m and m % p == 0 for m in even)
                else:
                    assert d == det % p

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
        n = 90
        for m in (1, 3):  # K_90 and the tripled K_90, pair (0, 1) one higher
            shapes.clear()
            assert tau(raised(n, m)) == raised_tau(n, m)
            assert len(shapes) == 1
            assert np.prod(shapes[0]) <= spanning._CHUNK_ENTRIES

    def test_dense_from_the_start(self, monkeypatch):
        """K_90 and the tripled K_90, pair (0, 1) one higher, and a p = 0.55
        multigraph on 35 vertices reach `_finish` whole (prev 1, no sparse
        step) as int64 arrays."""
        finishes = []

        def spy(mat, prev):
            finishes.append((mat.shape, mat.dtype, prev))
            return finish(mat, prev)

        finish = spanning._finish
        monkeypatch.setattr(spanning, "_finish", spy)
        rng = random.Random(59)
        multi = Graph(35, tuple(
            (u, v, rng.randint(1, 3)) for u, v in combinations(range(35), 2) if rng.random() < 0.55
        ))
        for g in (raised(90), raised(90, 3), multi):
            finishes.clear()
            tau(g)
            k = g.n_vertices - 1
            assert finishes == [((k, k), np.int64, 1)]

    @staticmethod
    def no_array(g, h):
        raise AssertionError("array built")

    def test_sparse_graphs_build_no_array(self, monkeypatch):
        """The rows of a cycle or a path are too small for the dense test,
        so no n x n array is built for it."""
        monkeypatch.setattr(spanning, "_struck_laplacian", self.no_array)
        assert tau(cycle(2000)) == 2000 and tau(path(2000)) == 1

    def test_pendant_builds_no_array(self, monkeypatch):
        """K_50 has edges enough for a dense start, but a pendant vertex's
        row of two entries fails the test, so no 50 x 50 array is built:
        one sparse step leaves a 49-row block of K_50 for the modular
        finish."""
        monkeypatch.setattr(spanning, "_struck_laplacian", self.no_array)
        assert tau(Graph(51, complete(50).edges + ((49, 50),))) == 50**48

    @settings(max_examples=150, deadline=None)
    @given(
        core=st.integers(2, 24),
        density=st.floats(0.5, 1.0),
        pendants=st.integers(0, 3),
        isolated=st.integers(0, 2),
        hub=st.integers(0, 6),
        seed=st.integers(0, 2**32),
    )
    def test_array_built_iff_rows_pass(self, core, density, pendants, isolated, hub, seed):
        """`tau` builds the struck Laplacian exactly when the graph is not
        near-complete and its smallest dict row, counted here from the
        edges with the busiest vertex struck, passes the dense test, on
        dense cores with pair (0, 1) doubled, pendant and isolated vertices
        and extra neighbours of vertex 0, under shuffled labels."""
        rng = random.Random(seed)
        n = core + pendants + isolated
        edges = [(0, 1)] * 2
        edges += [(u, v) for u, v in list(combinations(range(core), 2))[1:] if rng.random() < density]
        edges += [(rng.randrange(core), w) for w in range(core, core + pendants)]
        label = list(range(n))
        rng.shuffle(label)
        edges += [(label.index(0), w) for w in rng.sample(range(n), min(hub, n))]
        g = Graph(n, tuple((label[u], label[v]) for u, v in edges if label[u] != label[v]))
        assume(len(g.u) >= n - 1)
        neighbours = [{w for u, v, _ in g.edges for w in (u, v) if x in (u, v)} for x in range(n)]
        h = busiest(g)
        smallest = min(1 + len(neighbours[x] - {x, h}) for x in range(n) if x != h)
        built = []

        def spy(graph, struck_at):
            built.append(struck_at)
            return struck(graph, struck_at)

        struck = spanning._struck_laplacian
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spanning, "_struck_laplacian", spy)
            assert tau(g) == dense_tau(g)
        top = max(m for *_, m in g.edges)
        near = all(sum(m == top for u, v, m in g.edges if x in (u, v)) >= n - 3 for x in range(n))
        assert built == ([h] if not near and spanning._DENSE_SHARE * smallest >= n - 1 else [])

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
        assert (top - 1) ** 2 < 2 ** (2 * spanning._PRIME_BITS)
        assert 2 * (top - 1) ** 2 < 2 ** (2 * spanning._PRIME_BITS + 1) <= 2**63

    @staticmethod
    def unit_pairs(k: int) -> np.ndarray:
        """L L^T for the k x k lower triangular L with the 2 x 2 identity on
        its block diagonal and -1 everywhere left of it; det = det(L)^2 = 1."""
        i, j = np.indices((k, k))
        low = np.eye(k, dtype=np.int64) - (j < i - i % 2)
        return low @ low.T

    def test_det_mod_worst_case_sums(self):
        """Every product the row updates sum is (p - 1)^2, the largest
        there is, in chunks of _REDUCE_EVERY, subtracted from residues and
        from raw entries just above -2^62.

        The pivot blocks of `unit_pairs` are the identity, and every stored
        multiplier and unscaled row entry is -1 ≡ p - 1.  k = 2 *
        _REDUCE_EVERY + 3 makes the last pairs sum two full chunks and ends
        on a 1 x 1 pivot.  An int64 sum that wrapped would change the
        residues.  `det_bareiss` confirms det = 1 on a small k, as it would
        take seconds on this one.
        """
        assert det_bareiss(self.unit_pairs(13).tolist()) == 1
        k = 2 * spanning._REDUCE_EVERY + 3
        mat = self.unit_pairs(k)
        supply = spanning._primes()
        primes = [next(supply) for _ in range(3)]
        mods = np.array(primes, dtype=np.int64)[:, None, None]
        reduced = mat % mods
        # each residue less the most multiples of p that keep it inside ±2^62
        raw = reduced - mods * ((2**62 - 1 + reduced) // mods)
        assert raw.min() > -(2**62) and raw.max() < -(2**62) + 2**spanning._PRIME_BITS
        for a in (reduced, raw):
            assert spanning._det_mod(a, primes) == [1] * len(primes)

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
        """Uniform K_30, pair (0, 1) one higher: multiplicity 2^56 keeps the
        int64 block raw; 2^62 // 30 + 1 makes it an object block, reduced
        before `_det_mod`."""
        dtypes = []

        def spy(mat, prev):
            dtypes.append(mat.dtype)
            return finish(mat, prev)

        finish = spanning._finish
        monkeypatch.setattr(spanning, "_finish", spy)
        n = 30
        for m, dtype in ((2**56, np.int64), (2**62 // n + 1, object)):
            assert tau(raised(n, m)) == raised_tau(n, m)
            assert dtypes.pop() == dtype

    def test_sparse_handoff_inside_int64_bound(self, monkeypatch):
        """Uniform K_30 of multiplicity M = 2^62 // 29 + 5 with one pendant
        edge reaches `_finish` after one sparse step, its diagonal 29M past
        2^62 although every entry fits int64: the handoff makes it an
        object block, so every int64 block `_finish` takes lies inside
        ±2^62."""
        blocks = []

        def spy(mat, prev):
            blocks.append((mat.dtype, max(abs(int(x)) for x in mat.flat)))
            return finish(mat, prev)

        finish = spanning._finish
        monkeypatch.setattr(spanning, "_finish", spy)
        n, m = 30, 2**62 // 29 + 5
        g = Graph(n + 1, ((0, n, 1), *((u, v, m) for u, v in combinations(range(n), 2))))
        assert tau(g) == m ** (n - 1) * n ** (n - 2)
        assert blocks and all(dtype != np.int64 or top < 2**62 for dtype, top in blocks)

    def test_large_complete_graphs(self):
        """K_150 and the tripled K_120, pair (0, 1) one higher."""
        assert tau(raised(150)) == raised_tau(150)
        assert tau(raised(120, 3)) == raised_tau(120, 3)

    def test_periodic_reduction(self, monkeypatch):
        monkeypatch.setattr(spanning, "_REDUCE_EVERY", 3)
        rng = random.Random(43)
        for n in (25, 33, 60):
            g = dense_multigraph(rng, n)
            assert tau(g) == dense_tau(g)

    def test_primes_run_out(self, monkeypatch):
        """A bound beyond every prime falls back to Bareiss."""
        monkeypatch.setattr(spanning, "_primes", lambda: iter([13, 11, 7]))
        assert tau(raised(30)) == raised_tau(30)

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
        assert all(p < 2**spanning._PRIME_BITS and is_prime(p) for p in primes)

    def test_primes_sieved_on_first_use(self, capped_python):
        proc = capped_python("-c", (
            "from spantree import Graph, complete, spanning\n"
            "print(spanning._prime_window.cache_info().currsize)\n"
            "spanning.tau(Graph(25, complete(25).edges + ((0, 1),)))\n"
            "print(spanning._prime_window.cache_info().currsize)\n"
        ))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n1\n", "")
