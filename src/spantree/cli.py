"""Command-line entry point: one subcommand per capability.

Counts are printed as decimal strings in every format, including JSON,
since they outgrow 64-bit integers.  Identical invocations produce
byte-identical output; the only varying fields (elapsed times) live in
atlas files, not on stdout.  Exit codes: 0 success, 2 usage or input
error (bad arguments, malformed edge lists or atlas files, unreadable or
unwritable paths), 3 required atlas data missing, 130 interrupted
(Ctrl-C).  Commands only compute; ``main`` alone renders their output and
turns their errors, the parser's usage errors, a failed write of the
output and an interrupt among them, into one ``error: ...`` line of at
most _ERROR_LIMIT characters and an exit code.

``main`` builds its parser once per process, on its first call, and reuses
it; nothing is built at import.  So that a reused parser carries nothing
from one call to the next, ``--atlas-dir`` has no default in the parser:
``alpha`` and ``bounds`` read ``SPANTREE_ATLAS_DIR`` each time they run.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from pathlib import Path
from typing import Callable, NamedTuple, NoReturn

from .asymptotics import (
    N_MAX,
    check_lhospital,
    cumulative_lower_bound,
    hardy_ramanujan,
    prime_main_term,
)
from .atlas import (
    HARD_CAP,
    alpha_exact,
    azarija_skrekovski_bound,
    exact_atlas,
    load_atlas_dir,
    save_atlas,
    sedlacek_bound,
)
from .graphs import (
    EdgeListError,
    complete,
    cycle,
    format_edge_list,
    parse_edge_list,
    read_text_bounded,
)
from .partitions import (
    PartClass,
    count_partitions,
    count_partitions_up_to,
    enumerate_partitions,
    p_set_enumerate,
    p_set_size,
)
from .spanning import tau
from .witness import flower, sidecar_json, witness_family

_P_EXACT_LIMIT = 10_000

# --list refuses families larger than this, and witness and tau refuse graphs
# with more edges.  Past _LIST_MAX_N every family is larger: appending a part
# 3 shows that the odd-prime count never falls from n - 3 to n, and it
# exceeds the limit at 1998..2000.
_LIST_LIMIT = 10**6
_LIST_MAX_N = 2_000

# tau --input refuses a larger edge list before parsing it, so that parsing
# a file at the limit stays well below 512 MB: 943,486 random pairs on 2,000
# vertices raise ru_maxrss by 85 MB, 700,000 on 300,000 (8.85 MiB) by 63 MB
_INPUT_LIMIT = 8 * 2**20

# partitions and bounds refuse a count table past this n before building it:
# the prime classes take about a minute here, and N + 1 ints can exhaust memory
_COUNT_MAX_N = 10**5

# main cuts a longer error line to this many characters, the last three
# "...", so that a huge rejected value or edge-list line is not echoed whole
_ERROR_LIMIT = 1_000

class _MissingAtlas(Exception):
    """Required atlas data is absent (exit 3)."""


class _Output(NamedTuple):
    """What a command computed, in every output format.

    ``table`` holds the table rows where they differ from the CSV rows.
    """

    payload: object
    header: list[str]
    rows: list[list[str]]
    table: list[list[str]] | None = None


def _render(fmt: str, out: _Output) -> None:
    if fmt == "json":
        print(json.dumps(out.payload, indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(out.header)
        writer.writerows(out.rows)
    else:
        table = out.rows if out.table is None else out.table
        widths = [max(map(len, column)) for column in zip(*table)]
        for row in table:
            print(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())


def _cell(value: object) -> str:
    """A table or CSV cell: "-" for None, six decimals for a float."""
    return "-" if value is None else f"{value:.6f}" if isinstance(value, float) else str(value)


def _check_family_size(n: int, size: Callable[[int], int], what: str) -> None:
    """Refuse a family whose size (``what``) exceeds _LIST_LIMIT before building it."""
    if n > _LIST_MAX_N or size(n) > _LIST_LIMIT:
        raise ValueError(f"--n {n}: more than {_LIST_LIMIT:,} {what}")


def _check_count_n(option: str, n: int) -> None:
    """Refuse a count table of more than _COUNT_MAX_N + 1 entries before building it."""
    if n > _COUNT_MAX_N:
        raise ValueError(f"{option} {n}: counts are computed only up to {_COUNT_MAX_N:,}")


def _check_edge_count(option: str, edges: int) -> None:
    """Refuse a named graph of more than _LIST_LIMIT edges before building it."""
    if edges > _LIST_LIMIT:
        raise ValueError(f"{option}: more than {_LIST_LIMIT:,} edges")


def _atlas_dir_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--atlas-dir", help="directory of atlas_<n>.json files (or SPANTREE_ATLAS_DIR)"
    )


def _atlas_dir(args: argparse.Namespace) -> str | None:
    """--atlas-dir if given, else SPANTREE_ATLAS_DIR as set at this call."""
    if args.atlas_dir is not None:
        return args.atlas_dir
    return os.environ.get("SPANTREE_ATLAS_DIR")


def _int_list(option: str, text: str) -> list[int]:
    """The integers of a comma-separated option value."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:  # also a value past int()'s 4,300-digit limit
        raise ValueError(f"{option} must be comma-separated integers") from None


def _decimal(x: int) -> str:
    """``str(x)`` for an int x >= 0 of any length.

    CPython's ``str`` refuses an int of more than 4,300 digits, so a longer
    one is split by ``divmod`` at a power of ten near the middle of its
    digits, and each half converted the same way.
    """
    if x.bit_length() <= 14_000:  # at most 4,215 digits
        return str(x)
    k = x.bit_length() * 3 // 20  # about half its digits, log10(2) being 0.301
    high, low = divmod(x, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _cmd_tau(args: argparse.Namespace) -> _Output:
    if args.input is not None:
        g = parse_edge_list(read_text_bounded(args.input, _INPUT_LIMIT))
    elif args.cycle is not None:
        _check_edge_count(f"--cycle {args.cycle}", args.cycle)
        g = cycle(args.cycle)
    elif args.complete is not None:
        k = max(args.complete, 0)
        _check_edge_count(f"--complete {args.complete}", k * (k - 1) // 2)
        g = complete(args.complete)
    else:
        lengths = tuple(sorted(_int_list("--flower", args.flower)))
        _check_edge_count("--flower", sum(lengths))
        g = flower(lengths)
    value = _decimal(tau(g))
    return _Output({"tau": value}, ["tau"], [[value]])


def _cmd_partitions(args: argparse.Namespace) -> _Output:
    if args.n < 0:
        raise ValueError("--n must be >= 0")
    part_class = PartClass(args.part_class)
    if args.cumulative and part_class is not PartClass.ODD_PRIME:
        raise ValueError("--cumulative is defined only for --class oddprime")
    payload = {"n": args.n, "class": part_class.value, "cumulative": args.cumulative}
    if args.list:
        size = p_set_size if args.cumulative else lambda n: count_partitions(n, part_class)
        _check_family_size(args.n, size, "members to list")
        stream = p_set_enumerate(args.n) if args.cumulative else enumerate_partitions(
            args.n, part_class
        )
        payload["partitions"] = items = [str(p) for p in stream]
        return _Output(payload, ["partition"], [[s] for s in items])
    _check_count_n("--n", args.n)
    count = p_set_size(args.n) if args.cumulative else count_partitions(args.n, part_class)
    payload["count"] = str(count)
    return _Output(payload, ["count"], [[str(count)]])


def _cmd_witness(args: argparse.Namespace) -> _Output:
    if args.n < 3:
        raise ValueError("--n must be >= 3")
    _check_family_size(args.n, lambda n: p_set_size(n) * n, "edges to build")  # >= n each
    out = None if args.emit is None else Path(args.emit)
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    rows = []
    witnesses = [] if args.format == "json" else None  # only JSON prints them
    for idx, w in enumerate(witness_family(args.n)):
        if out is not None:
            stem = f"witness_{args.n}_{idx}"
            (out / f"{stem}.edgelist").write_text(format_edge_list(w.graph), encoding="utf-8")
            (out / f"{stem}.json").write_text(sidecar_json(w), encoding="utf-8")
        count, vertices, edges = str(w.tau_value), w.graph.n_vertices, w.graph.n_edges
        rows.append([str(w.partition), count, str(vertices), str(edges)])
        if witnesses is not None:
            witnesses.append(
                {"parts": list(w.partition.parts), "tau": count, "vertices": vertices,
                 "edges": edges}
            )
    header = ["partition", "tau", "vertices", "edges"]
    return _Output({"n": args.n, "witnesses": witnesses}, header, rows)


def _cmd_atlas(args: argparse.Namespace) -> _Output:
    if args.jobs < 1:  # --jobs starts no worker; it stays accepted for old scripts
        raise ValueError("jobs must be >= 1")
    if args.out is not None:  # before the atlas is built, so a bad path costs no build
        out = Path(args.out)
        if out.is_dir() or not (out.parent.is_dir() and os.access(out.parent, os.W_OK)):
            raise ValueError(f"--out {out}: not a file in a writable directory")
    record = exact_atlas(args.n, progress=args.progress)
    if args.out is not None:
        save_atlas(record, args.out)
    payload = {
        "n": record.n,
        "size": record.size,
        "values": [str(v) for v in record.values],
        "graphs_scanned": record.graphs_scanned,
    }
    row = [str(record.n), str(record.size), str(record.graphs_scanned)]
    return _Output(payload, ["n", "size", "graphs_scanned"], [row], [[str(record.size)]])


def _cmd_alpha(args: argparse.Namespace) -> _Output:
    if args.m < 1:
        raise ValueError("--m must be >= 1")
    atlas_dir = _atlas_dir(args)
    if atlas_dir is None:
        raise ValueError("--atlas-dir required (or set SPANTREE_ATLAS_DIR)")
    directory = Path(atlas_dir)
    cache = load_atlas_dir(directory) if directory.is_dir() else {}
    if not cache:
        raise _MissingAtlas(f"no atlas files in {directory}")
    record = alpha_exact(args.m, cache)
    exact = record.status == "exact"
    payload = {
        "m": str(args.m),
        "status": record.status,
        "alpha": record.alpha if exact else None,
        "searched_up_to": record.searched_up_to,
    }
    alpha = str(record.alpha) if exact else f">{record.searched_up_to}"
    shown = str(record.alpha) if exact else f"> {record.searched_up_to}"
    return _Output(payload, ["m", "alpha", "status"], [[str(args.m), alpha, record.status]],
                   [[shown]])


def _cmd_bounds(args: argparse.Namespace) -> _Output:
    if args.max_n < 1:
        raise ValueError("--max-n must be >= 1")
    _check_count_n("--max-n", args.max_n)
    atlas_dir = _atlas_dir(args)
    cache = {}
    if atlas_dir is not None and Path(atlas_dir).is_dir():
        cache = load_atlas_dir(atlas_dir)
    header = ["n", "p_set", "atlas", "lower_log", "sedlacek", "azarija"]
    payload = []
    odd_prime = count_partitions_up_to(args.max_n, PartClass.ODD_PRIME)
    p_set = 0
    for n in range(1, args.max_n + 1):
        p_set += odd_prime[n]  # = p_set_size(n), as no odd-prime partition sums to 1 or 2
        atlas_size = cache[n].size if n in cache else None
        lower = cumulative_lower_bound(n).log_value if n >= 2 else None
        values = [n, str(p_set), atlas_size, lower, sedlacek_bound(n), azarija_skrekovski_bound(n)]
        payload.append(dict(zip(header, values)))
    rows = [[_cell(v) for v in entry.values()] for entry in payload]
    return _Output({"rows": payload}, header, rows, [header] + rows)


def _cmd_asymptotics(args: argparse.Namespace) -> _Output:
    grid = _int_list("--grid", args.grid)
    if any(a > b for a, b in zip(grid, grid[1:])):
        raise ValueError("--grid must be ascending")
    floor = 10 if args.check_lhospital else 2  # check_lhospital refuses n < 10
    if any(n < floor for n in grid):
        raise ValueError(f"--grid values must be >= {floor}")
    if any(n > N_MAX for n in grid):
        raise ValueError("--grid values must be <= 10^300")
    ratios = dict(check_lhospital(grid).rows) if args.check_lhospital else {}
    small = [n for n in grid if n <= _P_EXACT_LIMIT]
    exact_table = count_partitions_up_to(max(small), PartClass.ALL) if small else []
    header = ["n", "p_exact", "hr_estimate", "ratio", "f_log", "lower_log"]
    if args.check_lhospital:
        header.append("r")
    rows = []
    payload = []
    for n in grid:
        p_exact = exact_table[n] if n <= _P_EXACT_LIMIT else None
        hr = hardy_ramanujan(n)
        entry = {
            "n": n,
            "p_exact": None if p_exact is None else str(p_exact),
            "hr_log": hr.log_value,
            "hr_value": hr.value,
            "ratio": None if p_exact is None or hr.value is None else p_exact / hr.value,
            "f_log": prime_main_term(n).log_value,
            "lower_log": cumulative_lower_bound(n).log_value,
        }
        if args.check_lhospital:
            entry["r"] = ratios[n]
        hr_cell = f"{hr.value:.6e}" if hr.value is not None else f"exp({hr.log_value:.6f})"
        rest = [_cell(entry[key]) for key in header[3:]]  # these columns are entry keys
        rows.append([str(n), _cell(entry["p_exact"]), hr_cell, *rest])
        payload.append(entry)
    return _Output({"rows": payload}, header, rows, [header] + rows)


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=["table", "csv", "json"], default="table",
        help="output format (default: table)",
    )


class _Parser(argparse.ArgumentParser):
    """Raises usage errors, so ``main`` reports them like any other error."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spantree",
        description="Exact spanning-tree counts: witnesses, atlases, asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_tau = sub.add_parser("tau", help="spanning-tree count of one graph")
    src = p_tau.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", help="edge-list file")
    src.add_argument("--cycle", type=int, help="cycle length")
    src.add_argument("--complete", type=int, help="complete-graph order")
    src.add_argument("--flower", help="comma-separated cycle lengths")
    _add_format(p_tau)

    p_parts = sub.add_parser("partitions", help="restricted partition counts")
    p_parts.add_argument("--n", type=int, required=True)
    p_parts.add_argument(
        "--class", dest="part_class", required=True, choices=["all", "prime", "oddprime"]
    )
    p_parts.add_argument("--list", action="store_true", help="list members, one per line")
    p_parts.add_argument(
        "--cumulative", action="store_true",
        help="all odd-prime partitions with sum <= n (class oddprime only)",
    )
    _add_format(p_parts)

    p_wit = sub.add_parser("witness", help="one graph per odd-prime partition")
    p_wit.add_argument("--n", type=int, required=True)
    p_wit.add_argument("--emit", help="write edge lists and sidecars to this directory")
    _add_format(p_wit)

    p_atlas = sub.add_parser("atlas", help="exhaustive realizable-count set")
    p_atlas.add_argument("--n", type=int, required=True, help=f"vertex count, 1..{HARD_CAP}")
    p_atlas.add_argument("--jobs", type=int, default=1,
                         help="at least 1; accepted for old scripts, starts no worker")
    p_atlas.add_argument("--out", help="write atlas JSON here")
    p_atlas.add_argument("--progress", action="store_true", help="report each finished chunk")
    _add_format(p_atlas)

    p_alpha = sub.add_parser("alpha", help="least vertex count realizing m")
    p_alpha.add_argument("--m", type=int, required=True)
    _atlas_dir_arg(p_alpha)
    _add_format(p_alpha)

    p_bounds = sub.add_parser("bounds", help="per-n family sizes and bound table")
    p_bounds.add_argument("--max-n", type=int, required=True)
    _atlas_dir_arg(p_bounds)
    _add_format(p_bounds)

    p_asym = sub.add_parser("asymptotics", help="growth formulas on a grid")
    p_asym.add_argument("--grid", required=True, help="comma-separated ascending n values")
    p_asym.add_argument(
        "--check-lhospital", action="store_true",
        help="append the derivative/main-term ratio column",
    )
    _add_format(p_asym)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` shares across calls, built by the first one."""
    return build_parser()


_COMMANDS = {
    "tau": _cmd_tau,
    "partitions": _cmd_partitions,
    "witness": _cmd_witness,
    "atlas": _cmd_atlas,
    "alpha": _cmd_alpha,
    "bounds": _cmd_bounds,
    "asymptotics": _cmd_asymptotics,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        _render(args.format, _COMMANDS[args.command](args))
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return 0
    except SystemExit as exc:  # argparse exits only after --help
        return int(exc.code or 0)
    except _MissingAtlas as exc:
        message, code = str(exc), 3
    except EdgeListError as exc:  # only from tau --input
        message, code = f"{args.input}: {exc}", 2
    except (ValueError, OSError) as exc:
        message, code = str(exc), 2
        if isinstance(exc, BrokenPipeError):  # else exit's flush of stdout fails again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except MemoryError:  # a size the limits allow that this process cannot hold
        message, code = "out of memory", 2
    except KeyboardInterrupt:  # Ctrl-C: the shell's code for SIGINT, 128 + 2
        message, code = "interrupted", 130
    line = f"error: {message}"
    if len(line) > _ERROR_LIMIT:
        line = line[: _ERROR_LIMIT - 3] + "..."
    print(line, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
