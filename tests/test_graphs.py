import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spantree import (
    EdgeListError,
    Graph,
    complete,
    contract_edge,
    cycle,
    delete_edge,
    format_edge_list,
    identify,
    is_connected,
    parse_edge_list,
    path,
)

from oracles import is_connected_bfs, random_multigraph


class TestConstruction:
    def test_pairs_normalize_to_triples(self):
        g = Graph(3, ((1, 0), (1, 2)))
        assert g.edges == ((0, 1, 1), (1, 2, 1))

    def test_duplicate_entries_merge_multiplicities(self):
        g = Graph(2, ((0, 1), (1, 0, 2)))
        assert g.edges == ((0, 1, 3),)
        assert g.n_edges == 3

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Graph(2, ((1, 1),))

    def test_out_of_range_endpoint_rejected(self):
        with pytest.raises(ValueError, match="outside vertex range"):
            Graph(2, ((0, 2),))

    def test_nonpositive_multiplicity_rejected(self):
        with pytest.raises(ValueError, match="multiplicity"):
            Graph(2, ((0, 1, 0),))

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_degree_and_multiplicity(self):
        g = Graph(3, ((0, 1, 2), (1, 2)))
        assert g.degree(1) == 3
        assert g.multiplicity(1, 0) == 2
        assert g.multiplicity(0, 2) == 0

    def test_equality_is_structural(self):
        assert Graph(3, ((2, 1), (0, 1))) == Graph(3, ((0, 1), (1, 2)))


class TestConstructors:
    def test_cycle_shape(self):
        g = cycle(5)
        assert g.n_vertices == 5
        assert g.n_edges == 5
        assert all(g.degree(u) == 2 for u in range(5))

    def test_cycle_too_short(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_path_shape(self):
        g = path(4)
        assert (g.n_vertices, g.n_edges) == (4, 3)
        assert g.degree(0) == 1 and g.degree(1) == 2

    def test_single_vertex_path(self):
        assert path(1).edges == ()

    def test_complete_shape(self):
        g = complete(5)
        assert g.n_edges == 10
        assert all(g.degree(u) == 4 for u in range(5))


class TestIdentify:
    def test_counts(self):
        g = identify(cycle(3), 0, cycle(5), 0)
        assert g.n_vertices == 7
        assert g.n_edges == 8
        assert g.degree(0) == 4

    def test_merged_vertex_keeps_first_label(self):
        g = identify(path(3), 2, path(2), 0)
        # second path's far endpoint lands at label 3
        assert g.multiplicity(2, 3) == 1
        assert g.n_vertices == 4

    def test_single_vertex_attachment_is_noop(self):
        g = cycle(4)
        assert identify(g, 1, path(1), 0) == g

    def test_bad_vertex(self):
        with pytest.raises(ValueError):
            identify(path(2), 5, path(2), 0)


class TestConnectivity:
    def test_empty_graph_connected(self):
        assert is_connected(Graph(0))

    def test_single_vertex_connected(self):
        assert is_connected(Graph(1))

    def test_two_isolated_vertices(self):
        assert not is_connected(Graph(2))

    def test_path_connected(self):
        assert is_connected(path(6))

    def test_disjoint_cycles(self):
        g = Graph(6, tuple(cycle(3).edges) + ((3, 4), (4, 5), (3, 5)))
        assert not is_connected(g)

    def test_parallel_edges_and_isolated_vertex(self):
        assert not is_connected(Graph(3, ((0, 1, 4),)))
        assert is_connected(Graph(3, ((0, 1, 4), (1, 2, 2))))

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(0, 9),
        raw=st.lists(st.tuples(st.integers(0, 8), st.integers(0, 8), st.integers(1, 3)),
                     max_size=12),
    )
    @example(n=0, raw=[])
    @example(n=1, raw=[(0, 0, 1)])
    def test_matches_bfs(self, n, raw):
        # endpoints folded into range; loops dropped, repeats merged by Graph
        edges = tuple((u % n, v % n, m) for u, v, m in raw if n and u % n != v % n)
        g = Graph(n, edges)
        assert is_connected(g) == is_connected_bfs(g)


class TestDeleteContract:
    def test_delete_drops_one_copy(self):
        g = Graph(2, ((0, 1, 2),))
        assert delete_edge(g, (0, 1)).n_edges == 1
        assert delete_edge(delete_edge(g, (0, 1)), (1, 0)).n_edges == 0

    def test_delete_absent_edge(self):
        with pytest.raises(ValueError):
            delete_edge(path(3), (0, 2))

    def test_contract_triangle_leaves_doubled_edge(self):
        g = contract_edge(cycle(3), (0, 1))
        assert g.n_vertices == 2
        assert g.edges == ((0, 1, 2),)

    def test_contract_relabels_above(self):
        g = contract_edge(path(4), (1, 2))
        assert g.n_vertices == 3
        assert g.edges == ((0, 1, 1), (1, 2, 1))

    def test_contract_absent_edge(self):
        with pytest.raises(ValueError):
            contract_edge(path(3), (0, 2))


class TestEdgeListFormat:
    def test_header_and_order(self):
        text = format_edge_list(Graph(3, ((2, 0), (0, 1, 2))))
        assert text == "n 3\n0 1 2\n0 2\n"

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_multigraph(rng)
            text = format_edge_list(g)
            assert parse_edge_list(text) == g
            assert format_edge_list(parse_edge_list(text)) == text

    def test_comments_and_blanks_skipped(self):
        g = parse_edge_list("# header\n\nn 3\n# inner\n0 1\n\n1 2\n")
        assert g == path(3)

    def test_empty_input(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("")

    @pytest.mark.parametrize(
        "text,line_no",
        [
            ("x 3\n0 1\n", 1),
            ("n 3\n0 1 2 3\n", 2),
            ("n 3\n0 a\n", 2),
            ("n 3\n0 1\n1 1\n", 3),
            ("n 2\n0 5\n", 2),
            ("n 2\n0 1 0\n", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, line_no):
        with pytest.raises(EdgeListError) as exc_info:
            parse_edge_list(text)
        assert exc_info.value.line_no == line_no

    @pytest.mark.parametrize(
        "text,message",
        [
            ("# c\n  x 3 \n", "line 2: expected 'n <vertex_count>', got 'x 3'"),
            ("n three\n", "line 1: bad vertex count 'three'"),
            ("n -1\n", "line 1: vertex count must be nonnegative"),
            ("n 3\n 0 1 1 1 \n", "line 2: expected 'u v [multiplicity]', got '0 1 1 1'"),
            ("n 3\n0 x\n", "line 2: non-integer token in '0 x'"),
            ("n 3\n\t0 #1\n", "line 2: non-integer token in '0 #1'"),
            ("n 3\n0 1 2.5\n", "line 2: non-integer token in '0 1 2.5'"),
            ("n 3\n  1 1  \n", "line 2: self-loop at vertex 1"),
            ("n 3\n0 3\n", "line 2: edge (0, 3) outside vertex range"),
            ("n 3\n-1 2\n", "line 2: edge (-1, 2) outside vertex range"),
            ("n 3\n0 1 0\n", "line 2: multiplicity 0 must be >= 1"),
            ("", "line 1: empty input: missing 'n <vertex_count>' line"),
            ("# only\n\n", "line 1: empty input: missing 'n <vertex_count>' line"),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(EdgeListError) as exc_info:
            parse_edge_list(text)
        assert str(exc_info.value) == message


class TestTrustedConstruction:
    """Builders that skip validation produce what validation would produce.

    Equality compares the stored edge tuples, so it holds only if the
    unvalidated builder stored exactly the canonical tuple.
    """

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_parse_merges_like_graph(self, data):
        n = data.draw(st.integers(0, 8))
        entries = []
        if n >= 2:
            pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
            entries = data.draw(st.lists(st.tuples(pair, st.integers(1, 3)), max_size=15))
        lines = [f"{u} {v}" if m == 1 else f"{u} {v} {m}" for (u, v), m in entries]
        if lines:
            lines += data.draw(st.lists(st.sampled_from(lines), max_size=10))
        lines = data.draw(st.permutations(lines))
        if data.draw(st.booleans()):
            lines.reverse()
        g = parse_edge_list("\n".join([f"n {n}", *lines]) + "\n")
        parsed = [tuple(map(int, line.split())) for line in lines]
        assert g == Graph(n, tuple(parsed))

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(3, 60))
    def test_cycle(self, k):
        assert cycle(k) == Graph(k, tuple((i, (i + 1) % k) for i in range(k)))

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(1, 60))
    def test_path(self, k):
        assert path(k) == Graph(k, tuple((i + 1, i) for i in range(k - 1)))

    @settings(max_examples=20, deadline=None)
    @given(k=st.integers(1, 16))
    def test_complete(self, k):
        pairs = tuple((v, u) for u in range(k) for v in range(u + 1, k))
        assert complete(k) == Graph(k, pairs)
