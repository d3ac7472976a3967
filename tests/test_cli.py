import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import spantree
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
    "alpha --m 3 --atlas-dir {bad}/longvalue",
    "bounds --max-n 3 --atlas-dir {bad}/novalues",
    "bounds --max-n 3 --atlas-dir {bad}/hugen",
    "alpha --m 3 --atlas-dir {bad}/hugeelapsed",
    "bounds --max-n 3 --atlas-dir {bad}/hugeelapsed",
    "alpha --m 3 --atlas-dir {bad}/longint",
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
    three = {"n": 3, "size": 2, "values": ["1", "3"], "graphs_scanned": 8, "elapsed_ms": 0}
    for name, files in {
        "nonjson": {"atlas_1.json": "not json{"},
        "notutf8": {"atlas_1.json": "\xff"},
        "novalues": {"atlas_1.json": json.dumps({k: v for k, v in one.items() if k != "values"})},
        "oversized": {"atlas_1.json": json.dumps(dict(one, values=["1", "2"]))},
        # well formed, but no graph on 2 vertices has 2 spanning trees
        "twotree": {"atlas_1.json": json.dumps(one), "atlas_2.json": json.dumps(two)},
        "hugen": {"atlas_1000000000.json": json.dumps(dict(one, n=10**9))},
        # more digits than int() converts by default
        "longvalue": {"atlas_3.json": json.dumps(dict(one, n=3, size=2, values=["1", "3" * 5000]))},
        # elapsed_ms past the largest float, which dividing by 1000.0 cannot convert
        "hugeelapsed": {"atlas_3.json": json.dumps(dict(three, elapsed_ms=10**400))},
        # a JSON integer with more digits than json.loads converts by default
        "longint": {"atlas_3.json": json.dumps(three).replace('"n": 3', '"n": 3' + "0" * 5000)},
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


# usage errors that argparse finds and integer lists that int() refuses, all
# reported by main: (argv, a fragment of the one error line)
USAGE_ERRORS = {
    "no-command": ([], "required: command"),
    "unknown-command": (["frobnicate"], "frobnicate"),
    "unknown-option": (["tau", "--cycle", "3", "--bogus"], "unrecognized arguments: --bogus"),
    "missing-option": (["partitions", "--class", "all"], "required: --n"),
    "non-integer-n": (
        ["partitions", "--n", "x", "--class", "all"], "argument --n: invalid int value: 'x'"
    ),
    "bad-class": (["partitions", "--n", "3", "--class", "odd"], "argument --class: invalid choice"),
    "two-sources": (
        ["tau", "--cycle", "3", "--complete", "4"], "--complete: not allowed with argument --cycle"
    ),
    "no-source": (["tau", "--format", "json"], "--input --cycle --complete --flower is required"),
    "malformed-flower": (["tau", "--flower", "3,x"], "--flower must be comma-separated integers"),
    "malformed-grid": (["asymptotics", "--grid", "10,x"], "--grid must be comma-separated integers"),
    # past int()'s 4,300-digit limit
    "long-flower": (["tau", "--flower", "3," + "3" * 5000], "--flower must be comma-separated"),
    "long-grid": (["asymptotics", "--grid", "1" * 4301], "--grid must be comma-separated"),
}


@pytest.mark.parametrize("argv, fragment", USAGE_ERRORS.values(), ids=USAGE_ERRORS)
def test_usage_error_is_one_line(run, argv, fragment):
    code, out, err = run(*argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert fragment in err


class TestErrorLineLimit:
    """A rejected value or edge-list line too long to echo whole leaves one
    error line cut to _ERROR_LIMIT characters, still led by the option or
    the path and line number."""

    @staticmethod
    def check(run, argv, start):
        code, out, err = run(*argv)
        assert (code, out) == (2, "")
        assert err.startswith(start) and err.endswith("...\n") and err.count("\n") == 1
        assert len(err) - 1 <= cli._ERROR_LIMIT

    @pytest.mark.parametrize("argv, start", [
        (["tau", "--cycle", "3" * 5000], "error: argument --cycle: invalid int value"),
        (["partitions", "--n", "3", "--class", "x" * 5000], "error: argument --class: invalid"),
        (["tau", "--cycle", "3", "--format", "x" * 5000], "error: argument --format: invalid"),
    ], ids=["cycle", "class", "format"])
    def test_long_option_value(self, run, argv, start):
        self.check(run, argv, start)

    @pytest.mark.parametrize("text, line", [
        ("n 3\n" + "0 " * 3_000_000 + "\n", 2),
        ("n " + "3 " * 3_000_000 + "\n0 1\n", 1),
    ], ids=["edge-line", "header"])
    def test_long_edge_list_line(self, run, tmp_path, text, line):
        target = tmp_path / "long.edgelist"
        target.write_text(text)
        self.check(run, ["tau", "--input", str(target)], f"error: {target}: line {line}: expected")

    def test_limit_is_inclusive(self, run, monkeypatch):
        line = "error: --flower must be comma-separated integers"
        monkeypatch.setattr(cli, "_ERROR_LIMIT", len(line))
        assert run("tau", "--flower", "x") == (2, "", line + "\n")
        monkeypatch.setattr(cli, "_ERROR_LIMIT", len(line) - 1)
        assert run("tau", "--flower", "x") == (2, "", line[:-4] + "...\n")


@pytest.mark.parametrize("command", ["", *cli._COMMANDS])
def test_help_prints_usage(run, command):
    code, out, err = run(*command.split(), "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: spantree {command}".rstrip())


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

    def test_edgeless_huge_input(self, capped_python, tmp_path):
        # fewer edges than a tree needs: 0 before anything of size n exists
        target = tmp_path / "g.edgelist"
        target.write_text("n 1000000000\n")
        proc = capped_python("-m", "spantree", "tau", "--input", str(target))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")

    def test_out_of_memory_is_one_error_line(self, run, monkeypatch):
        def exhausted(g):
            raise MemoryError
        monkeypatch.setattr(cli, "tau", exhausted)
        assert run("tau", "--cycle", "7") == (2, "", "error: out of memory\n")

    def test_interrupt_is_one_error_line(self, run, monkeypatch):
        """Ctrl-C during a count: one line and the shell's exit code for
        SIGINT, no traceback."""
        def interrupted(g):
            raise KeyboardInterrupt
        monkeypatch.setattr(cli, "tau", interrupted)
        assert run("tau", "--cycle", "7") == (130, "", "error: interrupted\n")

    @pytest.mark.parametrize(
        "argv,count", [("--cycle 1000000", 10**6), ("--flower 3,999997", 3 * 999997)]
    )
    def test_large_named_graph_under_address_space_cap(self, capped_python, argv, count):
        # within the edge limit, but tau holds about 0.5 KB a vertex: near the cap
        proc = capped_python("-m", "spantree", "tau", *argv.split())
        assert "Traceback" not in proc.stderr
        if proc.returncode == 0:
            assert (proc.stdout, proc.stderr) == (f"{count}\n", "")
        else:
            assert (proc.returncode, proc.stdout) == (2, "")
            assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_count_past_str_digit_limit(self, run, tmp_path):
        """τ = 10^7998, past the 4,300 digits CPython's ``str`` of an int
        allows, is printed in full."""
        target = tmp_path / "g.edgelist"
        big = 10**3999
        target.write_text(f"n 3\n0 1 {big}\n1 2 {big}\n")
        count = "1" + "0" * 7998
        assert run("tau", "--input", str(target)) == (0, count + "\n", "")
        code, out, err = run("tau", "--input", str(target), "--format", "json")
        assert (code, json.loads(out), err) == (0, {"tau": count}, "")

    def test_decimal_of_any_length(self):
        """`_decimal` agrees with ``str`` below the limit and, past it, with
        the value rebuilt from its last 4,000 digits and the rest."""
        for x in (0, 7, 10**4214, 2**14_000 - 1, 2**14_000, 10**4300, 10**8000 - 1,
                  3**15_000, 1500 * 2**14_999):
            text = cli._decimal(x)
            assert text == text.lstrip("0") or text == "0"
            if len(text) <= 4000:
                assert text == str(x)
            else:
                assert int(text[:-4000]) * 10**4000 + int(text[-4000:]) == x

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

    def test_short_ring_has_one_wording(self, run):
        message = "cycle length must be >= 3, got 2"
        for build in (lambda: spantree.cycle(2), lambda: spantree.flower((3, 2))):
            with pytest.raises(ValueError) as info:
                build()
            assert str(info.value) == message
        assert run("tau", "--cycle", "2") == (2, "", f"error: {message}\n")
        assert run("tau", "--flower", "3,2") == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("value", ["", "3,,5", "3,x", "3,5,"])
    def test_malformed_flower(self, run, value):
        message = "error: --flower must be comma-separated integers\n"
        assert run("tau", "--flower", value) == (2, "", message)

    def test_huge_named_graph_refused(self, run, monkeypatch):
        def build(*args):
            raise AssertionError("built a graph past the edge limit")

        for name in ("cycle", "complete", "flower"):
            monkeypatch.setattr(cli, name, build)
        for argv in (
            ["--complete", "100000"],  # about 5 * 10^9 edges
            ["--complete", "1415"],  # 1,000,405 edges
            ["--cycle", "1000001"],
            ["--flower", "3,999999"],
        ):
            code, out, err = run("tau", *argv)
            assert (code, out) == (2, "")
            assert err.startswith(f"error: {argv[0]}") and "1,000,000 edges" in err

    def test_edge_limit_is_inclusive(self, run, monkeypatch):
        monkeypatch.setattr(cli, "_LIST_LIMIT", 6)
        assert run("tau", "--complete", "4") == (0, "16\n", "")  # 6 edges
        assert run("tau", "--complete", "5")[:2] == (2, "")  # 10 edges
        assert run("tau", "--cycle", "6") == (0, "6\n", "")
        assert run("tau", "--cycle", "7")[:2] == (2, "")
        assert run("tau", "--flower", "3,3") == (0, "9\n", "")
        assert run("tau", "--flower", "3,5")[:2] == (2, "")
        # below one vertex the constructors' own messages still apply
        assert "at least one vertex" in run("tau", "--complete", "-3000")[2]
        assert "length must be >= 3" in run("tau", "--cycle", "-7")[2]


class TestBoundedReads:
    @pytest.mark.parametrize("argv", [
        "tau --input /dev/zero",
        "alpha --m 3 --atlas-dir {zero}",
        "bounds --max-n 3 --atlas-dir {zero}",
    ])
    def test_endless_file_refused(self, capped_python, tmp_path, argv):
        # read in full, /dev/zero would exhaust the capped address space
        (tmp_path / "atlas_3.json").symlink_to("/dev/zero")
        proc = capped_python("-m", "spantree", *argv.format(zero=tmp_path).split())
        path = "/dev/zero" if argv.startswith("tau") else str(tmp_path / "atlas_3.json")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"error: {path}: larger than ")
        assert proc.stderr.count("\n") == 1

    def test_input_limit_is_inclusive(self, run, tmp_path, monkeypatch):
        text = "n 3\n0 1\n1 2\n0 2\n"  # 16 bytes
        monkeypatch.setattr(cli, "_INPUT_LIMIT", len(text))
        target = tmp_path / "g.edgelist"
        target.write_text(text)
        assert run("tau", "--input", str(target)) == (0, "3\n", "")
        target.write_text(text + "\n")
        code, out, err = run("tau", "--input", str(target))
        assert (code, out, err) == (2, "", f"error: {target}: larger than 16 bytes\n")

    def test_atlas_limit_is_inclusive(self, run, atlas_dir, tmp_path, monkeypatch):
        text = (atlas_dir / "atlas_3.json").read_bytes()
        (tmp_path / "atlas_3.json").write_bytes(text)
        monkeypatch.setattr(spantree.atlas, "_ATLAS_FILE_LIMIT", len(text))
        assert run("bounds", "--max-n", "3", "--atlas-dir", str(tmp_path))[0] == 0
        (tmp_path / "atlas_3.json").write_bytes(text + b"\n")
        code, out, err = run("alpha", "--m", "3", "--atlas-dir", str(tmp_path))
        assert (code, out) == (2, "")
        assert err == f"error: {tmp_path / 'atlas_3.json'}: larger than {len(text):,} bytes\n"


class TestReadErrors:
    def test_input_errors_name_the_path(self, run, tmp_path):
        missing = tmp_path / "missing.edgelist"
        assert run("tau", "--input", str(tmp_path)) == (
            2, "", f"error: [Errno 21] Is a directory: '{tmp_path}'\n"
        )
        assert run("tau", "--input", str(missing)) == (
            2, "", f"error: [Errno 2] No such file or directory: '{missing}'\n"
        )

    @pytest.mark.parametrize("argv", ["alpha --m 3", "bounds --max-n 3"])
    def test_atlas_directory_names_the_path(self, run, tmp_path, argv):
        # globbed like a file, but a read of its descriptor fails
        (tmp_path / "atlas_3.json").mkdir()
        assert run(*argv.split(), "--atlas-dir", str(tmp_path)) == (
            2, "", f"error: [Errno 21] Is a directory: '{tmp_path / 'atlas_3.json'}'\n"
        )

    def test_text_not_utf8_says_so(self, run, tmp_path):
        """Edge lists and atlas files report undecodable bytes in one wording."""
        edges = tmp_path / "latin1.edgelist"
        edges.write_bytes(b"# caf\xe9\nn 2\n0 1\n")
        assert run("tau", "--input", str(edges)) == (2, "", (
            f"error: {edges}: not UTF-8 ('utf-8' codec can't decode byte 0xe9 in position 5: "
            "invalid continuation byte)\n"
        ))
        (tmp_path / "atlas_1.json").write_bytes(b"\xff")
        assert run("alpha", "--m", "2", "--atlas-dir", str(tmp_path)) == (2, "", (
            f"error: {tmp_path / 'atlas_1.json'}: not UTF-8 ('utf-8' codec can't decode byte "
            "0xff in position 0: invalid start byte)\n"
        ))


class TestFifoReads:
    @pytest.mark.parametrize("argv", [
        "tau --input {fifo}/F",
        "alpha --m 3 --atlas-dir {fifo}",
        "bounds --max-n 3 --atlas-dir {fifo}",
    ])
    def test_fifo_without_writer_reads_empty(self, tmp_path, argv):
        # a blocking open() would wait for a writer forever; the timeout fails the test
        os.mkfifo(tmp_path / "F")
        os.mkfifo(tmp_path / "atlas_3.json")
        src = str(Path(spantree.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-m", "spantree", *argv.format(fifo=tmp_path).split()],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=5,
        )
        path = tmp_path / ("F" if argv.startswith("tau") else "atlas_3.json")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith(f"error: {path}: ")
        assert proc.stderr.count("\n") == 1


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

    def test_huge_list_refused(self, run):
        # p(200) is about 4e12: refused after counting, before listing
        code, out, err = run("partitions", "--n", "200", "--class", "all", "--list")
        assert (code, out) == (2, "")
        assert err == "error: --n 200: more than 1,000,000 members to list\n"

    def test_list_limit_is_inclusive(self, run, monkeypatch):
        # 8 odd-prime partitions with sum <= 10, 10 with sum <= 11
        monkeypatch.setattr(cli, "_LIST_LIMIT", 8)
        argv = ["partitions", "--class", "oddprime", "--cumulative", "--list", "--n"]
        assert run(*argv, "10")[0] == 0
        assert run(*argv, "11")[0] == 2
        assert run("partitions", "--n", "11", "--class", "oddprime", "--list")[0] == 0

    def test_past_max_n_refused_without_counting(self, run, monkeypatch):
        def count(*args):
            raise AssertionError("counted past the list cap")

        monkeypatch.setattr(cli, "count_partitions", count)
        monkeypatch.setattr(cli, "p_set_size", count)
        for cls in ("all", "prime", "oddprime"):
            assert run("partitions", "--n", "2001", "--class", cls, "--list")[0] == 2
        argv = ["partitions", "--n", "2001", "--class", "oddprime", "--cumulative", "--list"]
        assert run(*argv)[0] == 2
        assert run("witness", "--n", "10000000000")[0] == 2

    def test_every_family_past_max_n_is_too_large(self):
        # the smallest family is the odd-prime partitions of exactly n, and
        # adding a part 3 maps those of n - 3 into those of n
        table = count_partitions_up_to(cli._LIST_MAX_N, PartClass.ODD_PRIME)
        assert all(table[n] >= table[n - 3] for n in range(3, len(table)))
        assert min(table[-3:]) > cli._LIST_LIMIT

    def test_huge_count_refused(self, capped_python):
        # a table of 10^9 + 1 ints does not fit the cap: refused before it is built
        proc = capped_python("-c", (
            "import time\n"
            "from spantree.cli import main\n"
            "start = time.perf_counter()\n"
            "print([main(argv.split()) for argv in (\n"
            "    'partitions --n 1000000000 --class all',\n"
            "    'partitions --n 1000000000 --class oddprime --cumulative',\n"
            "    'bounds --max-n 1000000000',\n"
            ")])\n"
            "print(time.perf_counter() - start < 1)\n"
        ))
        assert (proc.returncode, proc.stdout) == (0, "[2, 2, 2]\nTrue\n")
        assert proc.stderr == (
            "error: --n 1000000000: counts are computed only up to 100,000\n" * 2
            + "error: --max-n 1000000000: counts are computed only up to 100,000\n"
        )

    def test_count_limit_is_inclusive(self, run, monkeypatch):
        monkeypatch.setattr(cli, "_COUNT_MAX_N", 10)
        for cls, count in (("all", "42"), ("prime", "5"), ("oddprime", "2")):
            assert run("partitions", "--n", "10", "--class", cls)[:2] == (0, f"{count}\n")
            assert run("partitions", "--n", "11", "--class", cls)[0] == 2
        assert run("partitions", "--n", "11", "--class", "oddprime", "--cumulative")[0] == 2
        assert run("bounds", "--max-n", "10")[0] == 0
        assert run("bounds", "--max-n", "11")[0] == 2

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

    def test_huge_family_refused(self, run, monkeypatch):
        # 960,248 witnesses at n = 141, 1,015,341 at n = 142
        def build(n):
            raise AssertionError("built a refused family")

        monkeypatch.setattr(cli, "witness_family", build)
        code, out, err = run("witness", "--n", "142")
        assert (code, out) == (2, "")
        assert err == "error: --n 142: more than 1,000,000 edges to build\n"

    def test_edge_limit_is_inclusive(self, run, monkeypatch):
        # 13,180 witnesses of at least 75 edges each: 988,500 <= 10^6; at
        # n = 76 the bound reads 1,082,012
        code, out, _ = run("witness", "--n", "75")
        assert code == 0 and len(out.splitlines()) == 13_180

        def build(n):
            raise AssertionError("built a refused family")

        monkeypatch.setattr(cli, "witness_family", build)
        assert run("witness", "--n", "76") == (
            2, "", "error: --n 76: more than 1,000,000 edges to build\n"
        )

    def test_render_out_of_memory_is_one_error_line(self, run, monkeypatch):
        def exhausted(fmt, out):
            raise MemoryError

        monkeypatch.setattr(cli, "_render", exhausted)
        assert run("witness", "--n", "10", "--format", "json") == (
            2, "", "error: out of memory\n"
        )

    @staticmethod
    def buffered_env():
        """This run's sources, and stdout buffered as a console script's is."""
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(spantree.__file__).resolve().parents[1])
        return env

    def test_closed_pipe_is_one_error_line(self):
        # the 243,621-byte table overfills the pipe once its reader has gone
        proc = subprocess.Popen(
            [sys.executable, "-m", "spantree", "witness", "--n", "60"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=self.buffered_env(),
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert first.startswith("3 ")
        assert proc.returncode == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_pipe_without_reader_is_one_error_line(self):
        # a table that fits stdout's buffer fails only at the final flush,
        # which must leave nothing for the flush at exit to fail on again
        read, write = os.pipe()
        os.close(read)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "spantree", "witness", "--n", "10"],
                stdout=write, stderr=subprocess.PIPE, text=True, env=self.buffered_env(),
                timeout=60,
            )
        finally:
            os.close(write)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

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
        # --force no longer exists, so it cannot lift the hard cap either
        for n in ("3", "9"):
            code, out, err = run("atlas", "--n", n, "--force")
            assert (code, out) == (2, "")
            assert "unrecognized arguments: --force" in err

    def test_hard_cap(self, run):
        code, out, err = run("atlas", "--n", "9")
        assert (code, out) == (2, "")
        assert "hard cap 8" in err

    def test_bad_jobs(self, run):
        for jobs in ("0", "-3"):
            code, _, err = run("atlas", "--n", "3", "--jobs", jobs)
            assert (code, err) == (2, "error: jobs must be >= 1\n")

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

    def test_progress_only_on_stderr(self, run):
        argv = ["atlas", "--n", "5", "--jobs", "2", "--format", "json"]
        quiet = run(*argv)
        loud = run(*argv, "--progress")
        assert quiet[0] == loud[0] == 0
        assert loud[1] == quiet[1] and quiet[2] == ""
        # 6 classes on 4 vertices fit one chunk; --jobs starts no worker
        assert loud[2].splitlines() == ["atlas n=5: chunk 1/1"]


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

    def test_m_below_one_refused(self, run, atlas_dir):
        code, out, err = run("alpha", "--m", "0", "--atlas-dir", str(atlas_dir))
        assert (code, out, err) == (2, "", "error: --m must be >= 1\n")

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


def test_atlas_dir_env_read_per_call(run, atlas_dir, monkeypatch):
    # one process, one shared parser: each call sees the variable as it is then
    monkeypatch.delenv("SPANTREE_ATLAS_DIR", raising=False)
    assert run("alpha", "--m", "3")[0] == 2
    monkeypatch.setenv("SPANTREE_ATLAS_DIR", str(atlas_dir))
    assert run("alpha", "--m", "3")[:2] == (0, "3\n")
    code, out, _ = run("bounds", "--max-n", "5", "--format", "json")
    assert code == 0
    assert [r["atlas"] for r in json.loads(out)["rows"]] == [1, 1, 2, 5, 16]
    monkeypatch.delenv("SPANTREE_ATLAS_DIR")
    assert run("alpha", "--m", "3")[0] == 2
    code, out, _ = run("bounds", "--max-n", "5", "--format", "json")
    assert code == 0
    assert [r["atlas"] for r in json.loads(out)["rows"]] == [None] * 5


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
        code, out, err = run("asymptotics", "--grid", "5,100", "--check-lhospital")
        assert (code, out, err) == (2, "", "error: --grid values must be >= 10\n")
        assert run("asymptotics", "--grid", "10,100", "--check-lhospital")[0] == 0

    def test_grid_below_two_refused(self, run):
        assert run("asymptotics", "--grid", "1") == (2, "", "error: --grid values must be >= 2\n")

    def test_lhospital_overflow_is_an_input_error(self, run):
        for n in (10**14, 10**16):
            code, out, err = run("asymptotics", "--grid", f"100,{n}", "--check-lhospital")
            assert (code, out) == (2, "")
            assert err.startswith(f"error: n={n}: ") and err.count("\n") == 1

    def test_grid_past_double_range_refused(self, run):
        for exponent in (301, 307, 308, 309, 400):
            code, out, err = run("asymptotics", "--grid", str(10**exponent))
            assert (code, out, err) == (2, "", "error: --grid values must be <= 10^300\n")
        code, out, _ = run("asymptotics", "--grid", str(10**300), "--format", "json")
        (row,) = json.loads(out)["rows"]
        assert code == 0 and math.isfinite(row["lower_log"])


class TestStability:
    def test_reruns_byte_identical(self, run):
        first = run("bounds", "--max-n", "6", "--format", "csv")
        second = run("bounds", "--max-n", "6", "--format", "csv")
        assert first == second
        first = run("witness", "--n", "12", "--format", "json")
        second = run("witness", "--n", "12", "--format", "json")
        assert first == second

    def test_python_m_spantree_runs(self):
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

    @pytest.mark.parametrize("command", ["alpha", "bounds"])
    def test_atlas_dir_help_names_the_variable(self, run, command):
        code, out, _ = run(command, "--help")
        assert code == 0
        assert "SPANTREE_ATLAS_DIR" in out


class TestParserReuse:
    def test_calls_leave_no_state(self, run, atlas_dir, bad_inputs):
        argvs = [
            argv.format(atlas=atlas_dir, bad=bad_inputs).split()
            for argv in list(GOLDEN) + FAILING
        ]
        first = [run(*argv) for argv in argvs]
        assert run("tau", "--cycle", "x")[0] == 2
        assert run("--help")[0] == 0
        again = [run(*argv) for argv in reversed(argvs)]
        assert again[::-1] == first

    def test_build_parser_returns_a_fresh_parser(self, run):
        first, second = cli.build_parser(), cli.build_parser()
        assert first is not second
        assert cli._parser() not in (first, second)
        first.add_argument("--extra", action="store_true")
        assert first.parse_args(["--extra", "tau", "--cycle", "3"]).extra
        with pytest.raises(ValueError, match="unrecognized arguments: --extra"):
            second.parse_args(["--extra", "tau", "--cycle", "3"])
        assert run("--extra", "tau", "--cycle", "3")[0] == 2
        assert run("tau", "--cycle", "3")[:2] == (0, "3\n")

    def test_import_builds_no_parser(self):
        # built on the first main call, so import time (setup) never pays for it
        src = str(Path(spantree.__file__).resolve().parents[1])
        script = (
            "import spantree.cli as cli\n"
            "print(cli._parser.cache_info().currsize)\n"
            "cli.main(['tau', '--cycle', '3'])\n"
            "print(cli._parser.cache_info().currsize)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
        assert proc.returncode == 0
        assert proc.stdout == "0\n3\n1\n"


def _count(x: int) -> str:
    return cli._decimal(x) + "\n"


def _error(prefix: str) -> re.Pattern:
    """One error line that starts with ``prefix``."""
    return re.compile(re.escape(f"error: {prefix}") + r"[^\n]*\n")


def _complete_edges(n: int) -> list[str]:
    return [f"{u} {v}" for v in range(n) for u in range(v)]


# name -> the file's lines, written once into the console_files directory
CONSOLE_FILES = {
    **{f"doubled_{n}": [f"n {n}", *_complete_edges(n), "0 1"] for n in (10, 90, 91, 150, 300)},
    "pendant": ["n 51", *_complete_edges(50), "49 50"],
    "hubs": ["n 15002", *(f"{v} {h}" for v in range(15000) for h in (15000, 15001))],
    "plain": ["n 4", "0 1", "0 2 2", "1 2", "2 3"],
    "forms": ["# K_3 and a pendant\r", "n\t4\r", "0\t1\r", "  # note\r", "0 2\t2\r", "\r",
              "1 2\r", "\t2 3\r"],
    "signed": ["n 4", "0 1", "1 +2"],
}

# The checks an installed console script must pass: argv ({dir} is the
# console_files directory), exit code, stdout and stderr, each exact or a
# pattern the whole text matches.  Those with a timeout or a head run in
# a child `python -m spantree` under capped_python: a timeout bounds the
# whole process, and head closes stdout after that many lines, as a pipe
# into `head -n 1` does; the rest run in-process through main.
CONSOLE = {
    "flower": ("tau --flower 3,5", 0, "15\n", ""),
    # atlases written by `atlas`, read back: 9 spanning trees need 5 vertices
    "alpha-from-atlas": ("alpha --m 9 --atlas-dir {dir}/atlases", 0, "5\n", ""),
    # near-complete, so counted through Temperley's identity
    "complete-10": ("tau --complete 10", 0, "100000000\n", ""),
    "complete-90": ("tau --complete 90", 0, _count(90**88), ""),
    "complete-91": ("tau --complete 91", 0, _count(91**89), ""),
    # the largest complete graph the edge limit accepts
    "complete-1414": ("tau --complete 1414", 0, _count(1414**1412), "", {"timeout": 10}),
    # pair (0, 1) doubled is not near-complete: K_10 is dense from the start
    # and finished by _bareiss; K_90's 89-row block ends on a 1x1 pivot and
    # K_91's 90-row one on a 2x2; K_300's 299-row block sums its late pairs'
    # updates in two reduction chunks at the default constants
    **{
        f"doubled-{n}":
            (f"tau --input {{dir}}/doubled_{n}", 0, _count(n ** (n - 2) + 2 * n ** (n - 3)), "")
        for n in (10, 90, 91, 150, 300)
    },
    # K_50 and a pendant vertex: one sparse step, then a 49-row modular block
    "pendant": ("tau --input {dir}/pendant", 0, _count(50**48), ""),
    # K_(2,15000), hubs labelled last: one hub struck, the other's row never
    # rebuilt and every rim step free of division
    "hubs-last": ("tau --input {dir}/hubs", 0, _count(15000 * 2**14999), "", {"timeout": 10}),
    # a comment, CRLF line ends and tabs count as the plain form does
    "plain": ("tau --input {dir}/plain", 0, "5\n", ""),
    "forms": ("tau --input {dir}/forms", 0, "5\n", ""),
    "signed": ("tau --input {dir}/signed", 2, "",
               re.compile(re.escape("error: ") + r"\S+/signed"
                          + re.escape(": line 3: non-integer token in '1 +2'\n"))),
    "usage-error": ("partitions --n x --class all", 2, "", _error("")),
    # a 5,000-digit value's line is cut to 1,000 characters and a newline
    "long-value": ("tau --cycle " + "3" * 5000, 2, "",
                   re.compile(re.escape("error: argument --cycle: ") + r"[^\n]{0,975}\n")),
    # a write to a closed pipe
    "closed-pipe": ("witness --n 60", 2, re.compile(r"3 [^\n]*\n"), _error(""), {"head": 1}),
    # a witness family past 10^6 edges
    "witness-76": ("witness --n 76", 2, "", _error("--n 76: more than 1,000,000 edges")),
}


@pytest.fixture(scope="module")
def console_files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("console")
    for name, lines in CONSOLE_FILES.items():
        (directory / name).write_bytes("".join(f"{line}\n" for line in lines).encode())
    (directory / "atlases").mkdir()
    for k in range(1, 6):
        argv = ["atlas", "--n", str(k), "--out", str(directory / "atlases" / f"atlas_{k}.json")]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
    return directory


@pytest.mark.parametrize("name", list(CONSOLE))
def test_console_check(name, console_files, capsys, capped_python):
    argv, code, stdout, stderr, *child = CONSOLE[name]
    argv = argv.format(dir=console_files).split()
    if child:
        proc = capped_python("-m", "spantree", *argv, **child[0])
        got = proc.returncode, proc.stdout, proc.stderr
    else:
        got = main(argv), *capsys.readouterr()
    assert "Traceback" not in got[2]
    for expected, text in zip((code, stdout, stderr), got):
        if isinstance(expected, re.Pattern):
            assert expected.fullmatch(text), text[:200]
        else:
            assert text == expected
