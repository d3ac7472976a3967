import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spantree import (
    Graph,
    Partition,
    build_witness,
    cycle,
    flower,
    path,
    sidecar_json,
    tau,
    witness_family,
)

from oracles import (
    P10_TAUS,
    degree,
    identify,
    is_connected,
    random_odd_prime_partition,
)


class TestFlower:
    def test_two_cycles(self):
        g = flower((3, 5))
        assert (g.n_vertices, g.n_edges) == (7, 8)
        assert tau(g) == 15

    def test_single_cycle_is_the_cycle(self):
        assert flower((3,)) == cycle(3)

    def test_three_triangles(self):
        g = flower((3, 3, 3))
        assert (g.n_vertices, g.n_edges) == (7, 9)
        assert degree(g, 0) == 6
        assert tau(g) == 27

    def test_accepts_partition_object(self):
        assert flower(Partition((3, 5))) == flower((3, 5))

    def test_rejects_short_parts(self):
        with pytest.raises(ValueError):
            flower((3, 2))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            flower(())

    def test_equals_identify_chain(self):
        rng = random.Random(41)
        for _ in range(40):
            parts = random_odd_prime_partition(rng, 60)
            chained = cycle(parts[0])
            for x in parts[1:]:
                chained = identify(chained, 0, cycle(x), 0)
            assert flower(parts) == chained

    @settings(max_examples=100, deadline=None)
    @given(lengths=st.lists(st.integers(3, 12), min_size=1, max_size=6))
    def test_equals_validated_rings(self, lengths):
        edges, n = [], 1
        for x in lengths:
            ring = [0, *range(n, n + x - 1)]
            edges += [(ring[i], ring[i - 1]) for i in range(x)]
            n += x - 1
        assert flower(lengths) == Graph(n, tuple(edges))

    def test_nonprime_lengths_allowed(self):
        # flowers are defined for any cycle lengths, primality is a
        # witness-level restriction
        assert tau(flower((4, 6))) == 24


class TestBuildWitness:
    def test_padding_to_ten(self):
        w = build_witness(Partition((3, 5)), 10)
        assert w.graph.n_vertices == w.n == 10
        assert w.tau_value == 15
        assert tau(w.graph) == 15

    def test_degenerate_path(self):
        w = build_witness(Partition((3,)), 3)
        assert w.graph == cycle(3)
        assert w.tau_value == 3

    def test_three_triangles_on_nine(self):
        w = build_witness(Partition((3, 3, 3)), 9)
        assert w.graph.n_vertices == 9
        assert tau(w.graph) == 27

    def test_sum_exceeding_target(self):
        with pytest.raises(ValueError, match="exceeds"):
            build_witness(Partition((3, 7)), 9)

    def test_rejects_composite_part(self):
        for parts in ((9,), (3, 3, 25), (1, 3), (3, 5, 15), (7, 49)):
            with pytest.raises(ValueError, match="odd prime"):
                build_witness(Partition(parts), 60)

    def test_rejects_two(self):
        with pytest.raises(ValueError):
            build_witness(Partition((2, 3)), 9)

    def test_rejects_empty_partition(self):
        with pytest.raises(ValueError):
            build_witness(Partition(()), 5)

    def test_equals_identify_chain(self):
        for n in range(3, 31):
            for w in witness_family(n):
                p = w.partition
                chained = identify(flower(p), 0, path(n - p.total + len(p)), 0)
                assert w.graph == chained

    @settings(max_examples=100, deadline=None)
    @given(
        parts=st.lists(st.sampled_from([3, 5, 7, 11, 13]), min_size=1, max_size=6),
        pad=st.integers(0, 12),
    )
    def test_equals_validated_identify(self, parts, pad):
        p = Partition(tuple(sorted(parts)))
        n = p.total + pad
        chained = identify(flower(p), 0, path(n - p.total + len(p)), 0)
        assert build_witness(p, n).graph == chained


    @settings(max_examples=100, deadline=None)
    @given(
        parts=st.lists(st.sampled_from([3, 5, 7, 11, 13, 17, 19, 23]), min_size=1, max_size=6),
        pad=st.integers(0, 10),
    )
    def test_equals_validated_rings_and_tail(self, parts, pad):
        # the rings and the tail drawn one edge at a time, checked by Graph(...)
        p = Partition(tuple(sorted(parts)))
        edges, start = [], 1
        for x in p.parts:
            ring = [0, *range(start, start + x - 1)]
            edges += [(ring[i], ring[i - 1]) for i in range(x)]
            start += x - 1
        tail = [0, *range(start, p.total + pad)]
        edges += zip(tail, tail[1:])
        w = build_witness(p, p.total + pad)
        assert w.graph == Graph(p.total + pad, tuple(edges))
        assert tau(w.graph) == math.prod(p.parts)


class TestFamily:
    def test_ten_vertex_family(self):
        ws = list(witness_family(10))
        assert [w.tau_value for w in ws] == P10_TAUS
        assert all(w.tau_value == math.prod(w.partition.parts) for w in ws)
        assert all(w.graph.n_vertices == w.n == 10 for w in ws)
        assert all(is_connected(w.graph) for w in ws)

    def test_three_is_single_triangle(self):
        ws = list(witness_family(3))
        assert len(ws) == 1
        assert ws[0].graph == cycle(3)

    def test_two_is_empty(self):
        assert list(witness_family(2)) == []

    def test_stream_is_deterministic(self):
        a = [(w.partition.parts, w.tau_value) for w in witness_family(18)]
        b = [(w.partition.parts, w.tau_value) for w in witness_family(18)]
        assert a == b

    def test_counts_recompute_exactly(self):
        # every witness through n=25, then spot checks higher up
        for n in range(3, 26):
            for w in witness_family(n):
                assert tau(w.graph) == w.tau_value
        rng = random.Random(41)
        for n in (35, 45, 55):
            ws = list(witness_family(n))
            for w in rng.sample(ws, 4):
                assert tau(w.graph) == w.tau_value

    def test_tau_values_odd_and_at_least_three(self):
        assert all(w.tau_value >= 3 and w.tau_value % 2 == 1 for w in witness_family(30))


class TestAttachmentIndependence:
    def test_any_flower_vertex_gives_same_count(self):
        rng = random.Random(97)
        for _ in range(20):
            parts = random_odd_prime_partition(rng, 24)
            base = flower(parts)
            tail = path(4)
            at_hub = tau(identify(base, 0, tail, 0))
            other = rng.randrange(1, base.n_vertices)
            elsewhere = tau(identify(base, other, tail, 0))
            assert at_hub == elsewhere


def test_family_counts_are_distinct():
    ws = list(witness_family(30))
    assert len({w.tau_value for w in ws}) == len(ws)


def test_sidecar_round_trip():
    w = build_witness(Partition((3, 5)), 10)
    payload = json.loads(sidecar_json(w))
    assert payload == {"n": 10, "parts": [3, 5], "tau": "15"}
