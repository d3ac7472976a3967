"""Command-line entry point: one subcommand per capability.

Counts are printed as decimal strings in every format, including JSON,
since they outgrow 64-bit integers.  Identical invocations produce
byte-identical output; the only varying fields (elapsed times) live in
atlas files, not on stdout.  Exit codes: 0 success, 2 usage or input
error (bad arguments, malformed edge lists or atlas files, unreadable or
unwritable paths), 3 required atlas data missing.  Commands only compute;
``main`` alone renders their output and turns their errors into exit codes.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from pathlib import Path
from typing import NamedTuple

from .asymptotics import (
    check_lhospital,
    cumulative_lower_bound,
    hardy_ramanujan,
    prime_main_term,
)
from .atlas import (
    DEFAULT_CAP,
    HARD_CAP,
    alpha_exact,
    azarija_skrekovski_bound,
    exact_atlas,
    load_atlas_dir,
    save_atlas,
    sedlacek_bound,
)
from .graphs import EdgeListError, complete, cycle, format_edge_list, parse_edge_list
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

# the literals int() accepts, so a bad --grid is reported by its option name
_INT_LITERAL = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


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


def _atlas_dir_arg(parser: argparse.ArgumentParser, required_hint: bool) -> None:
    parser.add_argument(
        "--atlas-dir",
        default=os.environ.get("SPANTREE_ATLAS_DIR"),
        help="directory of atlas_<n>.json files"
        + (" (or SPANTREE_ATLAS_DIR)" if required_hint else ""),
    )


def _cmd_tau(args: argparse.Namespace) -> _Output:
    if args.input is not None:
        g = parse_edge_list(Path(args.input).read_text(encoding="utf-8"))
    elif args.cycle is not None:
        g = cycle(args.cycle)
    elif args.complete is not None:
        g = complete(args.complete)
    else:
        g = flower(tuple(sorted(int(s) for s in args.flower.split(","))))
    value = str(tau(g))
    return _Output({"tau": value}, ["tau"], [[value]])


def _cmd_partitions(args: argparse.Namespace) -> _Output:
    if args.n < 0:
        raise ValueError("--n must be >= 0")
    part_class = PartClass(args.part_class)
    if args.cumulative and part_class is not PartClass.ODD_PRIME:
        raise ValueError("--cumulative is defined only for --class oddprime")
    payload = {"n": args.n, "class": part_class.value, "cumulative": args.cumulative}
    if args.list:
        stream = p_set_enumerate(args.n) if args.cumulative else enumerate_partitions(
            args.n, part_class
        )
        payload["partitions"] = items = [str(p) for p in stream]
        return _Output(payload, ["partition"], [[s] for s in items])
    count = p_set_size(args.n) if args.cumulative else count_partitions(args.n, part_class)
    payload["count"] = str(count)
    return _Output(payload, ["count"], [[str(count)]])


def _cmd_witness(args: argparse.Namespace) -> _Output:
    if args.n < 3:
        raise ValueError("--n must be >= 3")
    ws = list(witness_family(args.n))
    if args.emit is not None:
        out = Path(args.emit)
        out.mkdir(parents=True, exist_ok=True)
        for idx, w in enumerate(ws):
            stem = f"witness_{args.n}_{idx}"
            (out / f"{stem}.edgelist").write_text(
                format_edge_list(w.graph), encoding="utf-8"
            )
            (out / f"{stem}.json").write_text(sidecar_json(w), encoding="utf-8")
    rows = [
        [str(w.partition), str(w.tau_value), str(w.graph.n_vertices), str(w.graph.n_edges)]
        for w in ws
    ]
    witnesses = [
        {
            "parts": list(w.partition.parts),
            "tau": row[1],
            "vertices": w.graph.n_vertices,
            "edges": w.graph.n_edges,
        }
        for w, row in zip(ws, rows)
    ]
    header = ["partition", "tau", "vertices", "edges"]
    return _Output({"n": args.n, "witnesses": witnesses}, header, rows)


def _cmd_atlas(args: argparse.Namespace) -> _Output:
    if args.out is not None:  # before the scan, which can take minutes
        out = Path(args.out)
        if out.is_dir() or not (out.parent.is_dir() and os.access(out.parent, os.W_OK)):
            raise ValueError(f"--out {out}: not a file in a writable directory")
    jobs = args.jobs if args.jobs is not None else (os.cpu_count() or 1)
    record = exact_atlas(args.n, jobs=jobs, force=args.force, progress=args.progress)
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
    if args.atlas_dir is None:
        raise ValueError("--atlas-dir required (or set SPANTREE_ATLAS_DIR)")
    directory = Path(args.atlas_dir)
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
    cache = {}
    if args.atlas_dir is not None and Path(args.atlas_dir).is_dir():
        cache = load_atlas_dir(args.atlas_dir)
    header = ["n", "p_set", "atlas", "lower_log", "sedlacek", "azarija"]
    rows = []
    payload = []
    odd_prime = count_partitions_up_to(args.max_n, PartClass.ODD_PRIME)
    p_set = 0
    for n in range(1, args.max_n + 1):
        p_set += odd_prime[n]  # = p_set_size(n), as no odd-prime partition sums to 1 or 2
        atlas_size = cache[n].size if n in cache else None
        lower = cumulative_lower_bound(n).log_value if n >= 2 else None
        sed = sedlacek_bound(n)
        azs = azarija_skrekovski_bound(n)
        payload.append(
            {
                "n": n,
                "p_set": str(p_set),
                "atlas": atlas_size,
                "lower_log": lower,
                "sedlacek": sed,
                "azarija": azs,
            }
        )
        rows.append(
            [
                str(n),
                str(p_set),
                "-" if atlas_size is None else str(atlas_size),
                "-" if lower is None else f"{lower:.6f}",
                "-" if sed is None else str(sed),
                "-" if azs is None else str(azs),
            ]
        )
    return _Output({"rows": payload}, header, rows, [header] + rows)


def _cmd_asymptotics(args: argparse.Namespace) -> _Output:
    if not all(_INT_LITERAL.fullmatch(s) for s in args.grid.split(",")):
        raise ValueError("--grid must be comma-separated integers")
    grid = [int(s) for s in args.grid.split(",")]
    if any(a > b for a, b in zip(grid, grid[1:])):
        raise ValueError("--grid must be ascending")
    if any(n < 2 for n in grid):
        raise ValueError("--grid values must be >= 2")
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
        ratio = None
        if p_exact is not None and hr.value is not None:
            ratio = p_exact / hr.value
        f_log = prime_main_term(n).log_value
        lower_log = cumulative_lower_bound(n).log_value
        entry = {
            "n": n,
            "p_exact": None if p_exact is None else str(p_exact),
            "hr_log": hr.log_value,
            "hr_value": hr.value,
            "ratio": ratio,
            "f_log": f_log,
            "lower_log": lower_log,
        }
        row = [
            str(n),
            "-" if p_exact is None else str(p_exact),
            f"{hr.value:.6e}" if hr.value is not None else f"exp({hr.log_value:.6f})",
            "-" if ratio is None else f"{ratio:.6f}",
            f"{f_log:.6f}",
            f"{lower_log:.6f}",
        ]
        if args.check_lhospital:
            entry["r"] = ratios[n]
            row.append(f"{ratios[n]:.6f}")
        payload.append(entry)
        rows.append(row)
    return _Output({"rows": payload}, header, rows, [header] + rows)


def _add_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format", choices=["table", "csv", "json"], default="table",
        help="output format (default: table)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p_atlas.add_argument("--n", type=int, required=True)
    p_atlas.add_argument("--jobs", type=int, default=None, help="worker processes")
    p_atlas.add_argument("--out", help="write atlas JSON here")
    p_atlas.add_argument(
        "--force", action="store_true", help=f"allow n up to {HARD_CAP} (default cap {DEFAULT_CAP})"
    )
    p_atlas.add_argument("--progress", action="store_true", help="report chunk completion")
    _add_format(p_atlas)

    p_alpha = sub.add_parser("alpha", help="least vertex count realizing m")
    p_alpha.add_argument("--m", type=int, required=True)
    _atlas_dir_arg(p_alpha, required_hint=True)
    _add_format(p_alpha)

    p_bounds = sub.add_parser("bounds", help="per-n family sizes and bound table")
    p_bounds.add_argument("--max-n", type=int, required=True)
    _atlas_dir_arg(p_bounds, required_hint=False)
    _add_format(p_bounds)

    p_asym = sub.add_parser("asymptotics", help="growth formulas on a grid")
    p_asym.add_argument("--grid", required=True, help="comma-separated ascending n values")
    p_asym.add_argument(
        "--check-lhospital", action="store_true",
        help="append the derivative/main-term ratio column",
    )
    _add_format(p_asym)

    return parser


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        out = _COMMANDS[args.command](args)
    except _MissingAtlas as exc:
        message, code = str(exc), 3
    except (EdgeListError, UnicodeDecodeError) as exc:  # only from tau --input
        message, code = f"{args.input}: {exc}", 2
    except (ValueError, OSError) as exc:
        message, code = str(exc), 2
    else:
        _render(args.format, out)
        return 0
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
