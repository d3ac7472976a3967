import hashlib
import json
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spantree.atlas as atlas_module
from spantree import (
    AlphaRecord,
    AtlasRecord,
    Graph,
    alpha_exact,
    atlas_filename,
    azarija_skrekovski_bound,
    exact_atlas,
    load_atlas,
    load_atlas_dir,
    p_set_size,
    save_atlas,
    sedlacek_bound,
    tau,
    verify_lower_bound,
)

from oracles import (
    ATLAS_3,
    ATLAS_4,
    check_atlas_payload,
    degree,
    extension_taus_per_graph,
    graph_of_code,
    is_connected,
    least_codes,
    mask_scan_atlas,
)

# connected graphs on k = 1..7 vertices up to isomorphism (OEIS A001349)
CLASS_COUNTS = [1, 1, 2, 6, 21, 112, 853]

# SHA-256 of the comma-joined values of exact_atlas(8) as computed by the
# exact canonical-code atlas this one replaced; the mask scan takes too long here
A8_SHA256 = "5d3d7f48169f89f89d9f219f879e921a06f33e921ddaeb2fc367d3de5e9ac26f"

_GOOD = {"n": 3, "size": 2, "values": ["1", "3"], "graphs_scanned": 8, "elapsed_ms": 0}

# file name, file text, the fault the ValueError must name
_MALFORMED = {
    "non-json": ("atlas_3.json", "not json{", "not JSON"),
    "deep-nesting": ("atlas_3.json", "[" * 100_000, "not JSON"),
    "not-object": ("atlas_3.json", "[1, 3]", "not a JSON object"),
    "missing-values": (
        "atlas_3.json",
        json.dumps({k: v for k, v in _GOOD.items() if k != "values"}),
        "'values' missing",
    ),
    "n-not-int": ("atlas_3.json", json.dumps(dict(_GOOD, n="3")), "'n' missing or not int"),
    "size-mismatch": ("atlas_3.json", json.dumps(dict(_GOOD, size=1)), "size is 1"),
    "non-decimal": ("atlas_3.json", json.dumps(dict(_GOOD, values=["1", "3.0"])), "decimal"),
    "unsorted": ("atlas_3.json", json.dumps(dict(_GOOD, values=["3", "1"])), "ascending"),
    "no-tree": ("atlas_3.json", json.dumps(dict(_GOOD, size=1, values=["3"])), "from 1"),
    "not-cayley": (
        "atlas_2.json",
        json.dumps(dict(_GOOD, n=2, values=["1", "2"])),
        r"to 1 \(the complete graph\)",
    ),
    "duplicate": ("atlas_3.json", json.dumps(dict(_GOOD, values=["3", "3"])), "ascending"),
    "zero": ("atlas_3.json", json.dumps(dict(_GOOD, values=["0", "3"])), "positive"),
    "n-zero": ("atlas_0.json", json.dumps(dict(_GOOD, n=0)), "n must be >= 1"),
    "long-value": (
        "atlas_3.json",
        json.dumps(dict(_GOOD, values=["1", "9" * 5000])),
        "atlas_3.json: values must have at most 1 digits",
    ),
    "n-huge": ("atlas_1000000000.json", json.dumps(dict(_GOOD, n=10**9)), "<= 8"),
    "name-mismatch": ("atlas_4.json", json.dumps(_GOOD), "must be named atlas_3.json"),
    "scanned-mismatch": (
        "atlas_3.json",
        json.dumps(dict(_GOOD, graphs_scanned=7)),
        r"graphs_scanned must be 8 \(2\^C\(n,2\)\)",
    ),
    "negative-elapsed": ("atlas_3.json", json.dumps(dict(_GOOD, elapsed_ms=-1)), "elapsed_ms"),
    "huge-elapsed": (
        "atlas_3.json",
        json.dumps(dict(_GOOD, elapsed_ms=10**400)),
        "atlas_3.json: elapsed_ms must be at most 1.7976931348623157e",
    ),
    "long-size": (  # more digits than json.loads converts by default
        "atlas_3.json",
        json.dumps(_GOOD).replace('"size": 2', '"size": 2' + "0" * 5000),
        r"atlas_3.json: not JSON \(",
    ),
    "no-values": ("atlas_3.json", json.dumps(dict(_GOOD, size=0, values=[])), "from 1"),
    "empty-value": ("atlas_3.json", json.dumps(dict(_GOOD, values=["1", ""])), "decimal"),
    "int-value": ("atlas_3.json", json.dumps(dict(_GOOD, values=[1, 3])), "decimal"),
    "arabic-digit": ("atlas_3.json", json.dumps(dict(_GOOD, values=["1", "\u0663"])), "decimal"),
}

# what a mutation of an atlas's values puts in place of a value
_ODD_VALUES = st.one_of(
    st.integers(-3, 10**6),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(["", "\u0663", "\u00b2", "1\u0663", " 3", "3 ", "-3", "+3", "1_0", "3.0"]),
    st.text(alphabet="0123456789\u0663\u00b2", max_size=12),
)

_MUTATIONS = ["put", "lead-zero", "duplicate", "swap", "too-long", "drop", "clear", "size"]


def _mutate(record: AtlasRecord, mutations) -> dict:
    """The payload ``save_atlas`` writes for ``record``, its ``values``
    changed by each (kind, index, odd value) in turn; ``size`` counts the
    values, off by -2..2 after a "size" mutation."""
    digits = len(str(record.values[-1]))  # Cayley's count for n >= 2
    values: list = [str(v) for v in record.values]
    skew = 0
    for kind, index, odd in mutations:
        i = index % len(values) if values else 0
        if kind == "clear" or not values:
            values = []
        elif kind == "put":
            values[i] = odd
        elif kind == "lead-zero" and isinstance(values[i], str):
            values[i] = "0" + values[i]
        elif kind == "duplicate":
            values[i] = values[i - 1]
        elif kind == "swap" and i + 1 < len(values):
            values[i], values[i + 1] = values[i + 1], values[i]
        elif kind == "too-long":
            values[i] = "1" + "0" * digits
        elif kind == "drop":
            del values[i]
        elif kind == "size":
            skew = index % 5 - 2
    return {"n": record.n, "size": len(values) + skew, "values": values,
            "graphs_scanned": record.graphs_scanned, "elapsed_ms": 0}


def _random_connected(rng: random.Random, k: int, count: int) -> list[int]:
    """Codes of ``count`` random connected graphs on k vertices, any labelling."""
    codes: list[int] = []
    while len(codes) < count:
        code = rng.getrandbits(k * (k - 1) // 2)
        if is_connected(graph_of_code(k, code)):
            codes.append(code)
    return codes


@pytest.fixture(scope="module")
def small_atlases():
    return {n: exact_atlas(n) for n in range(1, 7)}


@pytest.fixture(scope="module")
def scratch_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("scratch")


@pytest.fixture(scope="module")
def mask_scans():
    return {n: mask_scan_atlas(n) for n in range(1, 8)}


class TestExactAtlas:
    def test_known_sets(self, small_atlases):
        assert set(small_atlases[1].values) == {1}
        assert set(small_atlases[2].values) == {1}
        assert set(small_atlases[3].values) == ATLAS_3
        assert set(small_atlases[4].values) == ATLAS_4

    def test_record_bookkeeping(self, small_atlases):
        for n, record in small_atlases.items():
            assert record.size == len(record.values)
            assert record.values == tuple(sorted(record.values))
            assert record.graphs_scanned == 1 << (n * (n - 1) // 2)
            assert record.elapsed >= 0.0

    def test_extremes(self, small_atlases):
        for n in range(1, 7):
            values = small_atlases[n].values
            assert values[0] == 1  # trees
            if n >= 3:
                assert values[-1] == n ** (n - 2)  # the complete graph

    def test_monotone_nesting(self, small_atlases):
        # a pendant vertex preserves the count, so each set embeds upward
        for n in range(1, 6):
            assert set(small_atlases[n].values) <= set(small_atlases[n + 1].values)

    def test_two_never_appears(self, small_atlases):
        # observation only; nothing beyond the computed range is claimed
        for record in small_atlases.values():
            assert 2 not in record.values

    def test_matches_tau_of_every_connected_subset(self, small_atlases):
        # one Graph and one tau per labelled edge subset: the extensions of
        # the isomorphism classes must reach every connected one
        for n in range(1, 7):
            pairs = list(combinations(range(n), 2))
            graphs = (
                Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))
                for mask in range(1 << len(pairs))
            )
            taus = {tau(g) for g in graphs if is_connected(g)}
            assert small_atlases[n].values == tuple(sorted(taus))

    def test_class_counts(self):
        # the cover reaches every class (its exact codes number them all),
        # and a key that stopped refining would keep far more than one
        # graph per class
        for k, classes in enumerate(CLASS_COUNTS, 1):
            cover = atlas_module._classes(k)
            assert len(set(least_codes(k, cover))) == classes
            assert classes <= len(cover) <= 2 * classes

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 8), st.lists(st.integers(0, 2**28 - 1), min_size=1, max_size=8))
    def test_relabel_keeps_the_graph(self, k, raw):
        # a relabelling is an isomorphism: same degrees, same count
        masks = [m & ((1 << (k * (k - 1) // 2)) - 1) for m in raw]
        got = atlas_module._relabel(np.array(masks, dtype=np.int64), k).tolist()
        assert len(got) == len(masks)
        for before, after in zip(masks, got):
            g, h = graph_of_code(k, before), graph_of_code(k, after)
            assert sorted(degree(g, u) for u in range(k)) == sorted(degree(h, u) for u in range(k))
            assert tau(g) == tau(h)

    def test_matches_mask_scan(self, mask_scans):
        for n in range(1, 8):
            assert exact_atlas(n).values == mask_scans[n]

    def test_kernel_matches_per_graph_tau(self):
        rng = random.Random(7)
        for n in range(2, 8):
            cover = atlas_module._classes(n - 1)
            for codes in (cover, _random_connected(rng, n - 1, 24)):
                got = atlas_module._extension_taus(n, np.array(codes, dtype=np.int64))
                assert got == extension_taus_per_graph(n, codes)

    def test_kernel_matches_per_graph_tau_at_eight(self):
        rng = random.Random(8)
        for codes in (rng.sample(atlas_module._classes(7), 24), _random_connected(rng, 7, 24)):
            got = atlas_module._extension_taus(8, np.array(codes, dtype=np.int64))
            assert got == extension_taus_per_graph(8, codes)

    def test_int64_bound_covers_hard_cap(self):
        # numpy int64 arrays wrap silently: every entry the subset tree holds
        # is a minor of some L_G + diag(s), s in {0,1}^k, below n^(n-1), so
        # every update term is below 2 n^(2(n-1)), which must stay under 2^63
        n = atlas_module.HARD_CAP
        assert n <= 10 and 2 * n ** (2 * (n - 1)) < 2**63
        # the complete graph, whose rows have the largest norms: every extension
        k = n - 1
        complete_code = (1 << (k * (k - 1) // 2)) - 1
        got = atlas_module._extension_taus(n, np.array([complete_code], dtype=np.int64))
        assert got == extension_taus_per_graph(n, [complete_code])

    def test_chunks_match_one_stack(self, small_atlases, monkeypatch, capsys):
        # one cover graph per chunk: 21 chunks on 5 vertices, each reported once
        monkeypatch.setattr(atlas_module, "_CHUNK_ENTRIES", 1)
        assert exact_atlas(6, progress=True).values == small_atlases[6].values
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [f"atlas n=6: chunk {i}/21" for i in range(1, 22)]

    def test_eight(self):
        record = exact_atlas(8)
        assert record.size == len(record.values) == 3_700
        digest = hashlib.sha256(",".join(map(str, record.values)).encode()).hexdigest()
        assert digest == A8_SHA256
        assert (record.values[0], record.values[-1]) == (1, 8**6)
        assert record.graphs_scanned == 1 << 28

    def test_cap_without_force(self):
        # the force override is gone: nothing lifts the hard cap
        with pytest.raises(TypeError, match="force"):
            exact_atlas(9, force=True)

    def test_hard_cap(self):
        with pytest.raises(ValueError, match="hard cap 8"):
            exact_atlas(9)

    def test_bad_n(self):
        with pytest.raises(ValueError):
            exact_atlas(0)


class TestAlpha:
    def test_one_vertex(self, small_atlases):
        record = alpha_exact(1, small_atlases)
        assert (record.alpha, record.status) == (1, "exact")

    def test_triangle(self, small_atlases):
        assert alpha_exact(3, small_atlases).alpha == 3

    def test_nine_needs_five(self, small_atlases):
        record = alpha_exact(9, small_atlases)
        assert (record.alpha, record.status) == (5, "exact")
        assert record.searched_up_to == 6

    def test_two_is_never_found(self, small_atlases):
        record = alpha_exact(2, small_atlases)
        assert record.status == "lower-bound-only"
        assert record.alpha == 7
        assert record.searched_up_to == 6

    def test_gap_in_cache_degrades(self, small_atlases):
        cache = {1: small_atlases[1], 3: small_atlases[3]}
        record = alpha_exact(3, cache)
        assert record.status == "lower-bound-only"
        assert record.alpha == 2

    def test_bad_m(self):
        with pytest.raises(ValueError):
            alpha_exact(0, {})

    def test_status_is_derived(self):
        assert AlphaRecord(m=9, alpha=5, searched_up_to=5).status == "exact"
        assert AlphaRecord(m=2, alpha=7, searched_up_to=6).status == "lower-bound-only"
        with pytest.raises(TypeError):
            AlphaRecord(m=9, alpha=5, status="exact", searched_up_to=5)


class TestBounds:
    def test_sedlacek_table(self):
        assert sedlacek_bound(9) == 5
        assert sedlacek_bound(8) == 4
        assert sedlacek_bound(12) == 6
        assert sedlacek_bound(7) is None  # residue 1 has no published case
        assert sedlacek_bound(10) is None
        assert sedlacek_bound(6) is None
        assert sedlacek_bound(3) is None

    def test_azarija_skrekovski_table(self):
        assert azarija_skrekovski_bound(25) is None
        assert azarija_skrekovski_bound(26) == 10
        assert azarija_skrekovski_bound(27) == 9
        assert azarija_skrekovski_bound(28) == 9
        assert azarija_skrekovski_bound(29) == 11

    def test_sharper_where_both_defined(self):
        for m in range(26, 400):
            sed = sedlacek_bound(m)
            azs = azarija_skrekovski_bound(m)
            if sed is not None and azs is not None:
                assert azs <= sed


class TestLowerBound:
    def test_small_reports_ok(self):
        for n in range(3, 8):
            record = exact_atlas(n)
            report = verify_lower_bound(record)
            assert report.ok
            assert report.size_ok and report.covered
            assert report.n == n
            assert (report.atlas_size, report.partition_count) == (record.size, p_set_size(n))
            assert report.atlas_size >= report.partition_count

    def test_takes_only_the_record(self, small_atlases):
        with pytest.raises(TypeError):
            verify_lower_bound(4, record=small_atlases[4])

    def test_missing_values_detected(self):
        fake = AtlasRecord(n=5, values=(1, 4), elapsed=0.0)
        assert (fake.size, fake.graphs_scanned) == (2, 1024)
        report = verify_lower_bound(fake)
        assert not report.ok
        assert report.missing == (3, 5)

    def test_truth_is_ok(self):
        # without __bool__ every report is truthy, so `assert report` passes on a failure
        passing = verify_lower_bound(exact_atlas(5))
        failing = verify_lower_bound(AtlasRecord(n=5, values=(1, 4), elapsed=0.0))
        assert (bool(passing), bool(failing)) == (passing.ok, failing.ok) == (True, False)


class TestPersistence:
    def test_round_trip(self, small_atlases, tmp_path):
        record = small_atlases[4]
        target = tmp_path / atlas_filename(4)
        save_atlas(record, target)
        loaded = load_atlas(target)
        assert (loaded.n, loaded.values, loaded.size) == (4, record.values, record.size)
        assert loaded.graphs_scanned == record.graphs_scanned

    def test_values_are_decimal_strings(self, small_atlases, tmp_path):
        target = tmp_path / "atlas_3.json"
        save_atlas(small_atlases[3], target)
        assert '"values"' in target.read_text()
        assert '"1"' in target.read_text()

    def test_directory_scan(self, small_atlases, tmp_path):
        for n in (2, 3, 5):
            save_atlas(small_atlases[n], tmp_path / atlas_filename(n))
        cache = load_atlas_dir(tmp_path)
        assert sorted(cache) == [2, 3, 5]
        assert cache[3].values == small_atlases[3].values

    @settings(max_examples=400, deadline=None)
    @given(
        st.integers(1, 6),
        st.lists(st.tuples(st.sampled_from(_MUTATIONS), st.integers(0, 399), _ODD_VALUES),
                 max_size=3),
    )
    def test_value_checks_match_reference(self, small_atlases, scratch_dir, n, mutations):
        # the same record, or the same message, as value-at-a-time checks
        payload = _mutate(small_atlases[n], mutations)
        target = scratch_dir / atlas_filename(n)
        target.write_text(json.dumps(payload))

        def outcome(check, *args):
            try:
                return check(*args)
            except ValueError as exc:
                return str(exc)

        want = outcome(check_atlas_payload, target, json.loads(target.read_text()))
        assert outcome(load_atlas, target) == want

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_file_rejected(self, tmp_path, case):
        name, text, fault = _MALFORMED[case]
        (tmp_path / name).write_text(text)
        with pytest.raises(ValueError, match=fault):
            load_atlas_dir(tmp_path)
