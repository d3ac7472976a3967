import json
from itertools import combinations

import pytest

import spantree.atlas as atlas_module
from spantree import (
    AtlasRecord,
    Graph,
    alpha_exact,
    atlas_filename,
    azarija_skrekovski_bound,
    exact_atlas,
    is_connected,
    load_atlas,
    load_atlas_dir,
    save_atlas,
    sedlacek_bound,
    tau,
    verify_lower_bound,
)

from oracles import ATLAS_3, ATLAS_4

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
    "n-huge": ("atlas_1000000000.json", json.dumps(dict(_GOOD, n=10**9)), "<= 8"),
    "name-mismatch": ("atlas_4.json", json.dumps(_GOOD), "must be named atlas_3.json"),
}


@pytest.fixture(scope="module")
def small_atlases():
    return {n: exact_atlas(n) for n in range(1, 7)}


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
        # one Graph and one tau per edge subset: no code shared with the kernel
        for n in range(1, 7):
            pairs = list(combinations(range(n), 2))
            graphs = (
                Graph(n, tuple(p for i, p in enumerate(pairs) if mask >> i & 1))
                for mask in range(1 << len(pairs))
            )
            taus = {tau(g) for g in graphs if is_connected(g)}
            assert small_atlases[n].values == tuple(sorted(taus))

    def test_worker_split_matches_inline(self, small_atlases, monkeypatch):
        # shrink the batch so n=5 genuinely exercises the pool + merge path
        monkeypatch.setattr(atlas_module, "_BATCH", 64)
        split = exact_atlas(5, jobs=3)
        assert split.values == small_atlases[5].values
        assert split.graphs_scanned == small_atlases[5].graphs_scanned

    def test_cap_without_force(self):
        with pytest.raises(ValueError, match="force"):
            exact_atlas(8)

    def test_hard_cap(self):
        with pytest.raises(ValueError, match="hard cap"):
            exact_atlas(9, force=True)

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
    def test_small_reports_ok(self, small_atlases):
        for n in range(2, 7):
            report = verify_lower_bound(n, record=small_atlases[n])
            assert report.ok
            assert report.size_ok and report.covered
            assert report.atlas_size >= report.partition_count

    def test_record_mismatch(self, small_atlases):
        with pytest.raises(ValueError):
            verify_lower_bound(4, record=small_atlases[5])

    def test_missing_values_detected(self):
        fake = AtlasRecord(n=5, values=(1, 4), size=2, graphs_scanned=1024, elapsed=0.0)
        report = verify_lower_bound(5, record=fake)
        assert not report.ok
        assert report.missing == (3, 5)


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

    @pytest.mark.parametrize("case", sorted(_MALFORMED))
    def test_malformed_file_rejected(self, tmp_path, case):
        name, text, fault = _MALFORMED[case]
        (tmp_path / name).write_text(text)
        with pytest.raises(ValueError, match=fault):
            load_atlas_dir(tmp_path)
