import pickle
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spantree import graphs
from spantree import (
    EdgeListError,
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
    witness_family,
)

from oracles import (
    canonical,
    connects,
    contract_edge,
    degree,
    delete_edge,
    identify,
    is_connected,
    multiplicity,
    random_multigraph,
)


def union_find(g):
    return connects(g.n_vertices, ((u, v) for u, v, _ in g.edges))


def outcome(parse, text):
    """What ``parse(text)`` gives: the graph, or its error and line number."""
    try:
        return parse(text)
    except EdgeListError as exc:
        return str(exc), exc.line_no


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

    @pytest.mark.parametrize("entry", [(0.0, 1.0), (0, 1, 1.5), ("0", 1), (0, None)])
    def test_non_integer_entries_rejected(self, entry):
        with pytest.raises(ValueError, match=f"edge entry {re.escape(repr(entry))}"):
            Graph(3, (entry, (1, 2)))

    @pytest.mark.parametrize("entry", [(0,), (0, 1, 1, 1)])
    def test_entry_neither_pair_nor_triple_rejected(self, entry):
        with pytest.raises(ValueError, match=f"{re.escape(repr(entry))} is not a pair or a triple"):
            Graph(3, (entry,))

    @pytest.mark.parametrize("count", [3.0, "3", None, 3 + 0j])
    def test_non_integer_vertex_count_rejected(self, count):
        with pytest.raises(ValueError, match=f"vertex count {re.escape(repr(count))}"):
            Graph(count, ((0, 1), (1, 2)))

    def test_integer_vertex_counts_stored_as_int(self):
        for count in (np.int64(3), np.uint8(3)):
            g = Graph(count, ((0, 1), (1, 2)))
            assert type(g.n_vertices) is int and g == path(3)
        g = Graph(True)
        assert type(g.n_vertices) is int and tau(g) == 1 and type(tau(g)) is int

    def test_numpy_integers_stored_as_int(self):
        g = Graph(3, ((np.int64(1), np.int32(0)), (1, np.uint8(2), np.int64(2))))
        assert g.edges == ((0, 1, 1), (1, 2, 2))
        assert {type(x) for edge in g.edges for x in edge} == {int}

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError):
            Graph(-1)

    def test_degree_and_multiplicity(self):
        g = Graph(3, ((0, 1, 2), (1, 2)))
        assert degree(g, 1) == 3
        assert multiplicity(g, 1, 0) == 2
        assert multiplicity(g, 0, 2) == 0

    def test_equality_is_structural(self):
        assert Graph(3, ((2, 1), (0, 1))) == Graph(3, ((0, 1), (1, 2)))

    def test_repr_shows_the_columns(self):
        assert repr(Graph(3, ((2, 1), (0, 1, 2)))) == "Graph(n_vertices=3, u=[0, 1], v=[1, 2], m=[2, 1])"
        assert repr(Graph(2, ((0, 1, 2**70),))) == f"Graph(n_vertices=2, u=[0], v=[1], m=[{2**70}])"


class TestConstructors:
    def test_cycle_shape(self):
        g = cycle(5)
        assert g.n_vertices == 5
        assert g.n_edges == 5
        assert all(degree(g, u) == 2 for u in range(5))

    def test_cycle_too_short(self):
        with pytest.raises(ValueError):
            cycle(2)

    def test_path_shape(self):
        g = path(4)
        assert (g.n_vertices, g.n_edges) == (4, 3)
        assert degree(g, 0) == 1 and degree(g, 1) == 2

    def test_single_vertex_path(self):
        assert path(1).edges == ()

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_path_rejected(self, n):
        with pytest.raises(ValueError, match=f"at least one vertex, got {n}"):
            path(n)

    def test_complete_shape(self):
        g = complete(5)
        assert g.n_edges == 10
        assert all(degree(g, u) == 4 for u in range(5))


class TestIdentify:
    def test_counts(self):
        g = identify(cycle(3), 0, cycle(5), 0)
        assert g.n_vertices == 7
        assert g.n_edges == 8
        assert degree(g, 0) == 4

    def test_merged_vertex_keeps_first_label(self):
        g = identify(path(3), 2, path(2), 0)
        # second path's far endpoint lands at label 3
        assert multiplicity(g, 2, 3) == 1
        assert g.n_vertices == 4

    def test_single_vertex_attachment_is_noop(self):
        g = cycle(4)
        assert identify(g, 1, path(1), 0) == g

    def test_bad_vertex(self):
        with pytest.raises(ValueError):
            identify(path(2), 5, path(2), 0)


class TestConnectivity:
    """The union-find that the brute-force oracle counts spanning trees with,
    against breadth-first search."""

    def test_empty_graph_connected(self):
        assert union_find(Graph(0))

    def test_single_vertex_connected(self):
        assert union_find(Graph(1))

    def test_two_isolated_vertices(self):
        assert not union_find(Graph(2))

    def test_path_connected(self):
        assert union_find(path(6))

    def test_disjoint_cycles(self):
        g = Graph(6, tuple(cycle(3).edges) + ((3, 4), (4, 5), (3, 5)))
        assert not union_find(g)

    def test_parallel_edges_and_isolated_vertex(self):
        assert not union_find(Graph(3, ((0, 1, 4),)))
        assert union_find(Graph(3, ((0, 1, 4), (1, 2, 2))))

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
        assert union_find(g) == is_connected(g)


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
    parse = staticmethod(parse_edge_list)

    def test_header_and_order(self):
        text = format_edge_list(Graph(3, ((2, 0), (0, 1, 2))))
        assert text == "n 3\n0 1 2\n0 2\n"

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            g = random_multigraph(rng)
            text = format_edge_list(g)
            assert self.parse(text) == g
            assert format_edge_list(self.parse(text)) == text

    def test_comments_and_blanks_skipped(self):
        g = self.parse("# header\n\nn 3\n# inner\n0 1\n\n1 2\n")
        assert g == path(3)

    def test_empty_input(self):
        with pytest.raises(EdgeListError):
            self.parse("")

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
            self.parse(text)
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
            self.parse(text)
        assert str(exc_info.value) == message


# one faulty edge entry on 3 vertices, and the one message that both
# Graph(...) and parse_edge_list (after its "line k: ") give for it
_EDGE_FAULTS = [
    ((1, 1), "self-loop at vertex 1"),
    ((0, 3), "edge (0, 3) outside vertex range"),
    ((3, 0), "edge (3, 0) outside vertex range"),
    ((-1, 2), "edge (-1, 2) outside vertex range"),
    ((2, -1), "edge (2, -1) outside vertex range"),
    ((0, 1, 0), "multiplicity 0 must be >= 1"),
    ((0, 1, -1), "multiplicity -1 must be >= 1"),
]


@pytest.mark.parametrize("entry, message", _EDGE_FAULTS)
def test_edge_fault_has_one_message(entry, message):
    with pytest.raises(ValueError) as exc_info:
        Graph(3, (entry,))
    assert str(exc_info.value) == message
    text = "n 3\n" + " ".join(map(str, entry)) + "\n"
    # plain, and padded into a block of the bulk parser as TestEdgeListFormatBulk does
    for form in (text, text.replace("\n", " " * (1 << 18) + "\n")):
        with pytest.raises(EdgeListError) as exc_info:
            parse_edge_list(form)
        assert (exc_info.value.line_no, str(exc_info.value)) == (2, f"line 2: {message}")


class TestEdgeListFormatBulk(TestEdgeListFormat):
    """The edge-list cases again, with every line padded by trailing spaces
    into a 256 KiB block of the bulk parser of its own.  The padding changes
    neither a graph nor an error message, which strips its line."""

    @staticmethod
    def parse(text):
        return parse_edge_list(text.replace("\n", " " * (1 << 18) + "\n"))


# one-line edits that leave the bulk parser or change what a line means:
# lines it must hand to the loop whole, and lines the loop rejects
_EDITS = {
    "comment": lambda s: "# " + s,
    "crlf": lambda s: s + "\r",
    "carriage return": lambda s: s.replace(" ", "\r", 1),
    "tab": lambda s: s.replace(" ", "\t", 1),
    "plus": lambda s: "+" + s,
    "underscore": lambda s: s.replace(" ", " 1_", 1),
    "arabic-indic digit": lambda s: s.replace("1", "\u0661"),
    "vertical tab": lambda s: s.replace(" ", "\x0b", 1),
    "line separator": lambda s: s.replace(" ", "\u2028", 1),
    "leading zeros": lambda s: "0" * 19 + s,
    "wraps past 2^64": lambda s: str(2**64 + int(s[: s.index(" ")])) + s[s.index(" "):],
    "blank padding": lambda s: "  " + s + " \n ",
    "self-loop": lambda s: f"{s.split()[0]} {s.split()[0]}",
    "out of range": lambda s: s + "0",
    "zero multiplicity": lambda s: " ".join(s.split()[:2]) + " 0",
    "one token": lambda s: s.split()[0],
    "four tokens": lambda s: s + " 1 1",
    "word": lambda s: s + "x",
}
_HEADERS = (
    "n {n}", "# c\nn {n}", " n  0{n} ", "n\t{n}", "n\x0b{n}", "n +{n}", "n {n}\r",
    "n {n}" + "0" * 4300,
)


class TestBulkParse:
    """The bulk parser against the line loop."""

    @staticmethod
    def check_as_loop(n, seed, header, edits):
        """150 random edge lines on n vertices, edited, parse as the loop has it."""
        rng = random.Random(seed)
        lines = []
        for _ in range(150):
            u, v = rng.sample(range(n), 2)
            m = rng.choice((1, 1, 2, 3))
            lines.append(f"{u} {v}" if m == 1 else f"{u} {v} {m}")
        for i, name in edits:
            lines[i] = _EDITS[name](lines[i])
        text = header.format(n=n) + "\n" + "\n".join(lines) + "\n"
        got = outcome(parse_edge_list, text)
        assert got == outcome(graphs._parse_lines, text)
        if isinstance(got, Graph):
            assert {type(x) for edge in got.edges for x in edge} <= {int}

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 400),
        seed=st.integers(0, 2**32),
        header=st.sampled_from(_HEADERS),
        edits=st.lists(st.tuples(st.integers(0, 149), st.sampled_from(sorted(_EDITS))),
                       max_size=4, unique_by=lambda edit: edit[0]),
    )
    @example(n=2**40, seed=0, header="n {n}", edits=[])  # keys past 2^63
    def test_unusual_bodies_parse_as_the_loop_does(self, n, seed, header, edits):
        self.check_as_loop(n, seed, header, edits)

    @pytest.mark.parametrize("edit", sorted(_EDITS))
    def test_each_edit_parses_as_the_loop_does(self, edit):
        self.check_as_loop(90, 1, "n {n}", [(0, edit), (75, edit), (149, edit)])

    def test_sum_past_2_63(self):
        text = "n 2\n" + "0 1 999999999999999999\n" * 40
        assert parse_edge_list(text).edges == ((0, 1, 40 * (10**18 - 1)),)

    def test_plain_body_takes_the_bulk_path(self):
        g = random_multigraph(random.Random(3), max_vertices=40, max_edges=400)
        text = format_edge_list(g)
        assert graphs._parse_bulk(text) == g
        assert graphs._parse_bulk(text.rstrip("\n")) == g  # no final newline

    def test_short_bodies_take_the_bulk_path(self):
        assert graphs._parse_bulk("n 3\n0 1\n1 2\n") == path(3)
        assert graphs._parse_bulk("n 3\n\n  \n\n") == Graph(3)

    def test_token_past_int64_goes_to_the_loop(self):
        # strtoll saturates at 2^63 - 1, which the sum and range checks refuse
        text = "n 2\n0 1 18446744073709551617\n"
        assert graphs._parse_bulk(text) is None
        assert parse_edge_list(text).edges == ((0, 1, 2**64 + 1),)
        text = "n 2\n0 18446744073709551617\n"
        assert graphs._parse_bulk(text) is None
        with pytest.raises(EdgeListError) as exc_info:
            parse_edge_list(text)
        assert str(exc_info.value) == "line 2: edge (0, 18446744073709551617) outside vertex range"

    def test_blank_lines_parse_in_bounded_memory(self, capped_python):
        # the blocks keep the token arrays small: a whole-text tokenizer
        # would take about 270 MB here
        proc = capped_python("-c", (
            "import resource\n"
            "from spantree.graphs import _parse_bulk\n"
            "text = 'n 3\\n' + '\\n' * ((8 << 20) - 4)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "g = _parse_bulk(text)\n"
            "after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss\n"
            "print(g.n_vertices, g.edges, after - before < 64 << 10)"  # ru_maxrss in KiB
        ))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "3 () True\n", "")

    def test_eight_mib_under_address_space_cap(self, capped_python, tmp_path):
        # 4 copies of K_670's pairs in 4 spellings: 7.9 MiB, multiplicity 1+2+3+1
        k = 670
        forms = ("{u} {v}", "{v} {u} 2", "{u}  {v} 3", " {v} {u}")
        lines = [f.format(u=u, v=v) for f in forms for u in range(k) for v in range(u + 1, k)]
        target = tmp_path / "big.edgelist"
        target.write_text(f"n {k}\n" + "\n".join(lines) + "\n")
        assert 7 << 20 < target.stat().st_size <= 8 << 20
        proc = capped_python("-c", (
            "from spantree.graphs import _parse_bulk, read_text_bounded\n"
            f"g = _parse_bulk(read_text_bounded({str(target)!r}, 8 << 20))\n"
            "print(g.n_vertices, len(g.edges), {m for *_, m in g.edges}, g.edges[-1])"
        ))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout == f"{k} {k * (k - 1) // 2} {{7}} ({k - 2}, {k - 1}, 7)\n"


class TestTrustedConstruction:
    """Builders that skip validation produce what validation would produce.

    Equality compares the stored columns, so it holds only if the
    unvalidated builder stored exactly the canonical columns.
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
        text = "\n".join([f"n {n}", *lines]) + "\n"
        parsed = [tuple(map(int, line.split())) for line in lines]
        assert parse_edge_list(text) == Graph(n, tuple(parsed))

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


# multiplicities on both sides of 2^62, where a column leaves int64
_MULTIPLICITIES = st.one_of(
    st.integers(1, 3),
    st.sampled_from([2**62 - 1, 2**62, 2**63 + 1]),
    st.integers(1, 2**65),
)


@st.composite
def multigraph_entries(draw):
    """A vertex count and edge entries on it: pairs and triples with
    endpoints in either order, some pairs repeated."""
    n = draw(st.integers(0, 12))
    if n < 2:
        return n, []
    pair = st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True)
    drawn = draw(st.lists(st.tuples(pair, st.none() | _MULTIPLICITIES), max_size=20))
    entries = [(u, v) if m is None else (u, v, m) for (u, v), m in drawn]
    if entries:
        entries += draw(st.lists(st.sampled_from(entries), max_size=8))
    return n, draw(st.permutations(entries))


def check_columns(g):
    """Each column is read-only, and int64 unless a value reaches 2^62."""
    for column in (g.u, g.v, g.m):
        assert not column.flags.writeable
        assert column.dtype == (np.int64 if max(column.tolist(), default=0) < 2**62 else object)


class TestColumns:
    """A graph is its vertex count and three canonical columns."""

    @settings(max_examples=200, deadline=None)
    @given(graph=multigraph_entries())
    def test_columns_hold_the_canonical_triples(self, graph):
        n, entries = graph
        g = Graph(n, entries)
        assert g.edges == canonical(entries)
        check_columns(g)
        assert {type(x) for edge in g.edges for x in edge} <= {int}
        text = format_edge_list(g)
        for parse in (parse_edge_list, graphs._parse_lines):
            got = parse(text)
            assert got == g and hash(got) == hash(g)
        bulk = graphs._parse_bulk(text)
        if max(g.m.tolist(), default=0) * len(g.m) < 2**62:  # the bulk parser's sum bound
            assert bulk == g and hash(bulk) == hash(g)
            check_columns(bulk)
        else:
            assert bulk is None
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and hash(copy) == hash(g)
        check_columns(copy)

    @settings(max_examples=50, deadline=None)
    @given(graph=multigraph_entries())
    def test_graph_cannot_be_changed(self, graph):
        g = Graph(*graph)
        for column in (g.u, g.v, g.m):
            if len(column):
                with pytest.raises(ValueError, match="read-only"):
                    column[0] = 5
        for name in ("n_vertices", "u", "v", "m", "edges", "other"):
            with pytest.raises(AttributeError):
                setattr(g, name, 1)
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert g == Graph(*graph)

    def test_endpoints_past_2_62(self):
        big = 2**70
        g = Graph(big, ((2**69, 5, 2**62), (0, 2**69)))
        assert g.edges == ((0, 2**69, 1), (5, 2**69, 2**62))
        assert (g.u.dtype, g.v.dtype, g.m.dtype) == (np.int64, object, object)
        assert parse_edge_list(format_edge_list(g)) == g
        assert pickle.loads(pickle.dumps(g)) == g
        assert tau(g) == 0

    def test_unequal_graphs(self):
        g = Graph(3, ((0, 1), (1, 2)))
        for other in (Graph(4, g.edges), Graph(3, ((0, 1), (1, 2, 2))), Graph(3, ((0, 1), (0, 2)))):
            assert other != g
        assert g != g.edges and Graph(0) != Graph(1)

    @pytest.mark.parametrize(
        "g",
        [cycle(3), cycle(50), path(1), path(2), path(40), complete(1), complete(2), complete(30),
         flower((3, 3, 5)), flower((7,)), build_witness(Partition((3, 5, 7)), 30).graph]
        + [w.graph for w in witness_family(13)],
    )
    def test_builders_store_canonical_columns(self, g):
        again = Graph(g.n_vertices, g.edges)
        assert again == g and hash(again) == hash(g)
        check_columns(g)

    def test_long_cycle_footprint(self):
        # three int64 columns of 10^6 entries take 24 MB; one tuple of three
        # ints per edge took about 130 MB
        tracemalloc.start()
        try:
            g = cycle(10**6)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert g.n_edges == 10**6
        assert held <= 40 * 10**6
