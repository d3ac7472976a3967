import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spantree
import spantree.atlas as atlas_module
import spantree.cli as cli
from spantree import PartClass, count_partitions_up_to, exact_atlas, save_atlas
from spantree.cli import main

# argv -> the exact stdout it prints ({atlas} is the atlas_dir fixture)
GOLDEN = json.loads((Path(__file__).parent / "cli_golden.json").read_text(encoding="utf-8"))

# inputs that must exit 2 with one error line naming the bad path: bad
# output paths, a non-UTF-8 edge list and malformed atlas directories
# ({bad} is the bad_inputs fixture)
FAILING = [
    "witness --n 5 --emit {bad}/afile",
    "witness --n 5 --emit {bad}/afile/sub",
    "atlas --n 3 --jobs 1 --out {bad}/missing/atlas_3.json",
    "tau --input {bad}/latin1.edgelist",
    "alpha --m 2 --atlas-dir {bad}/nonjson",
    "alpha --m 2 --atlas-dir {bad}/notutf8",
    "alpha --m 2 --atlas-dir {bad}/oversized",
    "alpha --m 2 --atlas-dir {bad}/twotree",
    "bounds --max-n 3 --atlas-dir {bad}/novalues",
    "bounds --max-n 3 --atlas-dir {bad}/hugen",
]


@pytest.fixture()
def run(capsys):
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""

    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture(scope="module")
def atlas_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("atlases")
    for n in range(1, 6):
        save_atlas(exact_atlas(n), directory / f"atlas_{n}.json")
    return directory


@pytest.fixture(scope="module")
def bad_inputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("bad")
    (directory / "afile").write_text("x")
    (directory / "latin1.edgelist").write_bytes(b"# caf\xe9\nn 2\n0 1\n")
    one = {"n": 1, "size": 1, "values": ["1"], "graphs_scanned": 1, "elapsed_ms": 0}
    two = {"n": 2, "size": 2, "values": ["1", "2"], "graphs_scanned": 2, "elapsed_ms": 0}
    for name, files in {
        "nonjson": {"atlas_1.json": "not json{"},
        "notutf8": {"atlas_1.json": "\xff"},
        "novalues": {"atlas_1.json": json.dumps({k: v for k, v in one.items() if k != "values"})},
        "oversized": {"atlas_1.json": json.dumps(dict(one, values=["1", "2"]))},
        # well formed, but no graph on 2 vertices has 2 spanning trees
        "twotree": {"atlas_1.json": json.dumps(one), "atlas_2.json": json.dumps(two)},
        "hugen": {"atlas_1000000000.json": json.dumps(dict(one, n=10**9))},
    }.items():
        (directory / name).mkdir()
        for file_name, text in files.items():  # latin-1 writes "\xff" as the byte 0xff
            (directory / name / file_name).write_bytes(text.encode("latin-1"))
    return directory


@pytest.mark.parametrize(
    "argv, code, stdout",
    [(argv, 0, out) for argv, out in GOLDEN.items()] + [(argv, 2, "") for argv in FAILING],
)
def test_golden(run, atlas_dir, bad_inputs, argv, code, stdout):
    got_code, got_out, err = run(*argv.format(atlas=atlas_dir, bad=bad_inputs).split())
    assert (got_code, got_out) == (code, stdout)
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(bad_inputs) in err


class TestTau:
    def test_flower(self, run):
        assert run("tau", "--flower", "3,5") == (0, "15\n", "")

    def test_complete(self, run):
        assert run("tau", "--complete", "4") == (0, "16\n", "")

    def test_cycle(self, run):
        assert run("tau", "--cycle", "7") == (0, "7\n", "")

    def test_input_file(self, run, tmp_path):
        target = tmp_path / "g.edgelist"
        target.write_text("# triangle\nn 3\n0 1\n1 2\n0 2\n")
        assert run("tau", "--input", str(target)) == (0, "3\n", "")

    def test_disconnected_is_zero_not_error(self, run, tmp_path):
        target = tmp_path / "g.edgelist"
        target.write_text("n 2\n")
        assert run("tau", "--input", str(target)) == (0, "0\n", "")

    def test_json_and_csv(self, run):
        code, out, _ = run("tau", "--flower", "3,3", "--format", "json")
        assert code == 0 and json.loads(out) == {"tau": "9"}
        code, out, _ = run("tau", "--flower", "3,3", "--format", "csv")
        assert code == 0 and out == "tau\n9\n"

    def test_unordered_flower_parts(self, run):
        assert run("tau", "--flower", "5,3")[:2] == (0, "15\n")

    def test_requires_exactly_one_source(self, run):
        code, _, err = run("tau", "--cycle", "3", "--complete", "4")
        assert code == 2
        code, _, err = run("tau")
        assert code == 2

    def test_parse_error_reports_line(self, run, tmp_path):
        target = tmp_path / "bad.edgelist"
        target.write_text("n 3\n0 9\n")
        code, _, err = run("tau", "--input", str(target))
        assert code == 2
        assert "line 2" in err

    def test_missing_file(self, run, tmp_path):
        code, _, err = run("tau", "--input", str(tmp_path / "absent"))
        assert code == 2

    def test_bad_flower_part(self, run):
        assert run("tau", "--flower", "3,2")[0] == 2


class TestPartitions:
    def test_count(self, run):
        assert run("partitions", "--n", "10", "--class", "oddprime")[:2] == (0, "2\n")

    def test_cumulative(self, run):
        out = run("partitions", "--n", "10", "--class", "oddprime", "--cumulative")
        assert out[:2] == (0, "8\n")

    def test_zero(self, run):
        assert run("partitions", "--n", "0", "--class", "all")[:2] == (0, "1\n")

    def test_list(self, run):
        code, out, _ = run("partitions", "--n", "8", "--class", "oddprime", "--list")
        assert code == 0
        assert out == "3+5\n"

    def test_cumulative_list(self, run):
        code, out, _ = run(
            "partitions", "--n", "8", "--class", "oddprime", "--cumulative", "--list"
        )
        assert code == 0
        assert out.splitlines() == ["3", "5", "3+3", "7", "3+5"]

    def test_cumulative_needs_oddprime(self, run):
        code, _, err = run("partitions", "--n", "10", "--class", "prime", "--cumulative")
        assert code == 2
        assert "oddprime" in err

    def test_negative_n(self, run):
        assert run("partitions", "--n", "-1", "--class", "all")[0] == 2

    def test_json_count(self, run):
        code, out, _ = run(
            "partitions", "--n", "10", "--class", "oddprime", "--cumulative",
            "--format", "json",
        )
        assert json.loads(out) == {
            "n": 10, "class": "oddprime", "cumulative": True, "count": "8",
        }


class TestWitness:
    def test_three(self, run):
        assert run("witness", "--n", "3")[:2] == (0, "3 | 3 | 3 | 3\n")

    def test_ten_table(self, run):
        code, out, _ = run("witness", "--n", "10")
        assert code == 0
        taus = [line.split("|")[1].strip() for line in out.splitlines()]
        assert taus == ["3", "5", "9", "7", "15", "27", "21", "25"]

    def test_too_small(self, run):
        assert run("witness", "--n", "2")[0] == 2

    def test_emit_round_trips(self, run, tmp_path):
        emit = tmp_path / "out"
        code, _, _ = run("witness", "--n", "10", "--emit", str(emit))
        assert code == 0
        edge_files = sorted(emit.glob("witness_10_*.edgelist"))
        sidecars = sorted(emit.glob("witness_10_*.json"))
        assert len(edge_files) == len(sidecars) == 8
        for edge_file, sidecar in zip(edge_files, sidecars):
            meta = json.loads(sidecar.read_text())
            code, out, _ = run("tau", "--input", str(edge_file))
            assert code == 0
            assert out.strip() == meta["tau"]

    def test_json_schema(self, run):
        code, out, _ = run("witness", "--n", "5", "--format", "json")
        payload = json.loads(out)
        assert payload["n"] == 5
        assert payload["witnesses"][0] == {
            "parts": [3], "tau": "3", "vertices": 5, "edges": 5,
        }


class TestAtlas:
    def test_size_line(self, run):
        assert run("atlas", "--n", "4")[:2] == (0, "5\n")

    def test_json_values(self, run):
        code, out, _ = run("atlas", "--n", "4", "--format", "json")
        payload = json.loads(out)
        assert payload["values"] == ["1", "3", "4", "8", "16"]
        assert payload["graphs_scanned"] == 64

    def test_out_file(self, run, tmp_path):
        target = tmp_path / "atlas_3.json"
        code, out, _ = run("atlas", "--n", "3", "--out", str(target))
        assert code == 0 and out == "2\n"
        payload = json.loads(target.read_text())
        assert payload["values"] == ["1", "3"]
        assert "elapsed_ms" in payload

    def test_cap_needs_force(self, run):
        code, _, err = run("atlas", "--n", "8")
        assert code == 2
        assert "force" in err

    def test_hard_cap(self, run):
        assert run("atlas", "--n", "9", "--force")[0] == 2

    def test_out_checked_before_scan(self, run, tmp_path, monkeypatch):
        def scan(*args, **kwargs):
            raise AssertionError("scanned before --out was checked")

        monkeypatch.setattr(cli, "exact_atlas", scan)
        for out in (tmp_path / "missing" / "atlas_3.json", tmp_path):
            code, _, err = run("atlas", "--n", "3", "--out", str(out))
            assert code == 2 and str(out) in err
        assert list(tmp_path.iterdir()) == []

    def test_failed_scan_writes_nothing(self, run, tmp_path, monkeypatch):
        def scan(*args, **kwargs):
            raise ValueError("scan failed")

        monkeypatch.setattr(cli, "exact_atlas", scan)
        kept = tmp_path / "atlas_3.json"
        kept.write_text("old")
        for out in (kept, tmp_path / "atlas_4.json"):
            assert run("atlas", "--n", "3", "--out", str(out))[0] == 2
        assert list(tmp_path.iterdir()) == [kept] and kept.read_text() == "old"

    def test_progress_only_on_stderr(self, run, monkeypatch):
        monkeypatch.setattr(atlas_module, "_BATCH", 1 << 6)  # n = 5 now runs in parallel
        argv = ["atlas", "--n", "5", "--jobs", "2", "--format", "json"]
        quiet = run(*argv)
        loud = run(*argv, "--progress")
        assert quiet[0] == loud[0] == 0
        assert loud[1] == quiet[1] and quiet[2] == ""
        assert loud[2].splitlines() == [f"atlas n=5: chunk {i}/8" for i in range(1, 9)]


class TestAlpha:
    def test_exact(self, run, atlas_dir):
        assert run("alpha", "--m", "9", "--atlas-dir", str(atlas_dir))[:2] == (0, "5\n")

    def test_not_found(self, run, atlas_dir):
        code, out, _ = run("alpha", "--m", "2", "--atlas-dir", str(atlas_dir))
        assert (code, out) == (0, "> 5\n")

    def test_env_var_default(self, run, atlas_dir, monkeypatch):
        monkeypatch.setenv("SPANTREE_ATLAS_DIR", str(atlas_dir))
        assert run("alpha", "--m", "3")[:2] == (0, "3\n")

    def test_missing_dir_is_exit_three(self, run, tmp_path):
        assert run("alpha", "--m", "9", "--atlas-dir", str(tmp_path / "void"))[0] == 3

    def test_no_dir_given(self, run, monkeypatch):
        monkeypatch.delenv("SPANTREE_ATLAS_DIR", raising=False)
        assert run("alpha", "--m", "9")[0] == 2

    def test_json(self, run, atlas_dir):
        code, out, _ = run(
            "alpha", "--m", "9", "--atlas-dir", str(atlas_dir), "--format", "json"
        )
        assert json.loads(out) == {
            "m": "9", "status": "exact", "alpha": 5, "searched_up_to": 5,
        }


class TestBounds:
    def test_table_shape(self, run):
        code, out, _ = run("bounds", "--max-n", "7")
        lines = out.splitlines()
        assert code == 0
        assert lines[0].split(" | ")[0].strip() == "n"
        assert len(lines) == 8

    def test_atlas_column_fills(self, run, atlas_dir):
        code, out, _ = run(
            "bounds", "--max-n", "5", "--atlas-dir", str(atlas_dir), "--format", "json"
        )
        rows = json.loads(out)["rows"]
        assert [r["atlas"] for r in rows] == [1, 1, 2, 5, 16]
        assert rows[2]["p_set"] == "1"

    def test_bad_range(self, run):
        assert run("bounds", "--max-n", "0")[0] == 2

    def test_one_partition_table(self, run, monkeypatch):
        calls = []

        def counting(n, part_class):
            calls.append((n, part_class))
            return count_partitions_up_to(n, part_class)

        monkeypatch.setattr(cli, "count_partitions_up_to", counting)
        assert run("bounds", "--max-n", "40")[0] == 0
        assert calls == [(40, PartClass.ODD_PRIME)]


class TestAsymptotics:
    def test_grid_100(self, run):
        code, out, _ = run("asymptotics", "--grid", "100")
        assert code == 0
        row = out.splitlines()[1]
        assert "190569292" in row
        assert "0.956" in row

    def test_trivial_grid(self, run):
        code, out, _ = run("asymptotics", "--grid", "2")
        assert code == 0
        assert out.splitlines()[1].split("|")[1].strip() == "2"

    def test_lhospital_column(self, run):
        code, out, _ = run(
            "asymptotics", "--grid", "1000,1000000", "--check-lhospital",
            "--format", "json",
        )
        rows = json.loads(out)["rows"]
        assert abs(rows[1]["r"] - 1.0) < abs(rows[0]["r"] - 1.0)
        assert rows[1]["p_exact"] is None
        assert rows[1]["hr_value"] is None

    def test_descending_grid(self, run):
        assert run("asymptotics", "--grid", "100,50")[0] == 2

    def test_malformed_grid(self, run):
        assert run("asymptotics", "--grid", "10,x")[0] == 2

    def test_lhospital_needs_ten_plus(self, run):
        assert run("asymptotics", "--grid", "5,100", "--check-lhospital")[0] == 2


class TestStability:
    def test_reruns_byte_identical(self, run):
        first = run("bounds", "--max-n", "6", "--format", "csv")
        second = run("bounds", "--max-n", "6", "--format", "csv")
        assert first == second
        first = run("witness", "--n", "12", "--format", "json")
        second = run("witness", "--n", "12", "--format", "json")
        assert first == second

    def test_console_script_installed(self):
        # the subprocess imports the same sources as this test run
        src = str(Path(spantree.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "spantree", "tau", "--flower", "3,5"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0
        assert proc.stdout == "15\n"

    def test_help_exits_zero(self, run):
        assert run("--help")[0] == 0
