"""Seeded inputs for the four workloads, and the checks on their outputs.

`build` writes a workload's input files and returns its fixed call list:
each `Call` holds the CLI argv and a check that judges the call's stdout.
Checks run after timing, in call order, with a dict that is fresh for each
round so that later calls can be judged against earlier outputs (the alpha
queries against the atlases the same round wrote).  Reference values come
from `reference`, never from spantree.

Sizes that set the cost of a call (witness N, the large partition count,
graph orders, edge densities, multiplicities of the uniform K_n) are fixed
per slot; the seed draws only content of like cost (which partition counts,
which graph, which labels, which m) and the call order, so that runs with
different seeds do the same amount of work.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path
from typing import Callable

import reference as ref

WORKLOADS = ("atlas", "tables", "tau-sparse", "tau-dense")

# The CLI default for --jobs is os.cpu_count(); the benchmark always pins it.
ATLAS_JOBS = 2
ATLAS_MAX_N = 7

Check = Callable[[str, dict], bool]


@dataclass(frozen=True)
class Call:
    argv: list[str]
    check: Check


@dataclass(frozen=True)
class Workload:
    name: str
    calls: list[Call]
    size: str  # the input size wall_s refers to


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Generate and write the inputs of one workload under workdir."""
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    makers = {
        "atlas": _atlas,
        "tables": _tables,
        "tau-sparse": _tau_sparse,
        "tau-dense": _tau_dense,
    }
    calls, size = makers[name](rng, workdir)
    return Workload(name, calls, size)


# ----------------------------------------------------------------- atlas


def _atlas(rng: random.Random, workdir: Path) -> tuple[list[Call], str]:
    atlas_dir = workdir / "atlas"
    atlas_dir.mkdir()
    calls = []
    for k in range(1, ATLAS_MAX_N + 1):
        out = atlas_dir / f"atlas_{k}.json"
        argv = ["atlas", "--n", str(k), "--jobs", str(ATLAS_JOBS), "--out", str(out),
                "--format", "json"]
        calls.append(Call(argv, _check_atlas(k, out)))
    # Each m is asked twice per round, after the parallel scans and after the
    # single-core baseline (for scaling_eff), so that its median latency
    # draws on two moments of each round.
    ms = [9] + rng.sample(range(10, 2001), 119)

    def queries(order: list[int]) -> list[Call]:
        return [Call(["alpha", "--m", str(m), "--atlas-dir", str(atlas_dir)], _check_alpha(m))
                for m in order]

    calls += queries(ms)
    baseline = ["atlas", "--n", str(ATLAS_MAX_N), "--jobs", "1", "--format", "json"]
    calls.append(Call(baseline, _check_atlas_baseline))
    calls += queries(rng.sample(ms, len(ms)))
    argv = ["bounds", "--max-n", str(ATLAS_MAX_N), "--atlas-dir", str(atlas_dir),
            "--format", "json"]
    calls.append(Call(argv, _check_bounds(ATLAS_MAX_N, with_atlas=True)))
    size = (f"atlas n=1..{ATLAS_MAX_N} at --jobs {ATLAS_JOBS} plus n={ATLAS_MAX_N} at --jobs 1 "
            f"(2^21 masks each), {len(ms)} alpha queries asked twice, bounds --max-n {ATLAS_MAX_N}")
    return calls, size


def _atlas_values(stdout: str, n: int) -> list[int] | None:
    payload = json.loads(stdout)
    values = [int(v) for v in payload["values"]]
    ok = (
        payload["n"] == n
        and payload["size"] == len(values) == ref.ATLAS_SIZES[n]
        and payload["graphs_scanned"] == 2 ** (n * (n - 1) // 2)
        and values == sorted(set(values))
    )
    return values if ok else None


def _check_atlas(n: int, saved: Path) -> Check:
    def check(stdout: str, ctx: dict) -> bool:
        values = _atlas_values(stdout, n)
        if values is None:
            return False
        if n in ref.ATLAS_SETS and set(values) != ref.ATLAS_SETS[n]:
            return False
        on_disk = json.loads(saved.read_text(encoding="utf-8"))
        if [int(v) for v in on_disk["values"]] != values:
            return False
        ctx.setdefault("atlas", {})[n] = set(values)
        return True

    return check


def _check_atlas_baseline(stdout: str, ctx: dict) -> bool:
    values = _atlas_values(stdout, ATLAS_MAX_N)
    return values is not None and set(values) == ctx["atlas"][ATLAS_MAX_N]


def _check_alpha(m: int) -> Check:
    def check(stdout: str, ctx: dict) -> bool:
        found = [k for k, values in sorted(ctx["atlas"].items()) if m in values]
        expected = str(found[0]) if found else f"> {ATLAS_MAX_N}"
        if m == 9 and expected != "5":
            return False
        return stdout == expected + "\n"

    return check


# ----------------------------------------------------------------- tables

_WITNESS_NS = (10, 20, 30, 36, 42, 60)
_LARGE_ALL = 2000  # the large --class all count
_LIST_N = 58  # the cumulative --list, whose output grows steeply with n
_BOUNDS_N = 60
_ASYM_MID = 1500  # the grid point <= 10_000 that sets the cost of asymptotics


def _stratified(rng: random.Random, count: int, top: int) -> list[int]:
    """One value from each of `count` equal strata of [0, top)."""
    width = top // count
    return [i * width + rng.randrange(width) for i in range(count)]


class _Tables:
    """Reference tables for the tables workload, built on first use."""

    def __init__(self) -> None:
        self._all: list[int] = []
        self._restricted: dict[str, list[int]] = {}

    def p(self, n: int) -> int:
        if n >= len(self._all):
            self._all = ref.partition_numbers(max(n, 2 * len(self._all)))
        return self._all[n]

    def restricted(self, cls: str, n: int) -> int:
        table = self._restricted.get(cls, [])
        if n >= len(table):
            size = max(n, 1000)
            primes = ref.primes_upto(size)
            parts = primes if cls == "prime" else [p for p in primes if p != 2]
            table = self._restricted[cls] = ref.restricted_partition_numbers(size, parts)
        return table[n]

    def cumulative(self, n: int) -> int:
        return sum(self.restricted("oddprime", s) for s in range(3, n + 1))


def _tables(rng: random.Random, workdir: Path) -> tuple[list[Call], str]:
    refs = _Tables()
    calls = []
    witness_ns = list(_WITNESS_NS)
    for n in witness_ns:
        calls.append(Call(["witness", "--n", str(n)], _check_witness(n, refs)))
    counts = [("all", n) for n in _stratified(rng, 40, 600)]
    counts += [("all", 50), ("all", 100), ("all", _LARGE_ALL)]
    counts += [("prime", n) for n in _stratified(rng, 25, 1000)]
    counts += [("oddprime", n) for n in _stratified(rng, 25, 1000)]
    for cls, n in counts:
        argv = ["partitions", "--n", str(n), "--class", cls]
        calls.append(Call(argv, _check_count(cls, n, refs)))
    for n in _stratified(rng, 5, 300):
        argv = ["partitions", "--n", str(n), "--class", "oddprime", "--cumulative"]
        calls.append(Call(argv, _check_cumulative(n, refs)))
    n = _LIST_N
    argv = ["partitions", "--n", str(n), "--class", "oddprime", "--cumulative", "--list"]
    calls.append(Call(argv, _check_cumulative_list(n, refs)))
    max_n = _BOUNDS_N
    argv = ["bounds", "--max-n", str(max_n), "--format", "json"]
    calls.append(Call(argv, _check_bounds(max_n, with_atlas=False)))
    grid = [rng.randint(10, 50), rng.randint(100, 400), rng.randint(500, 900),
            _ASYM_MID, rng.randint(10**4 + 1, 10**5),
            rng.randint(10**6, 10**7)]
    argv = ["asymptotics", "--grid", ",".join(map(str, grid)), "--check-lhospital",
            "--format", "json"]
    calls.append(Call(argv, _check_asymptotics(grid, refs)))
    rng.shuffle(calls)
    size = (f"witness N in {sorted(witness_ns)}, {len(counts)} partition counts "
            f"(largest --class all n={_LARGE_ALL}), cumulative list n={_LIST_N}, bounds "
            f"--max-n {_BOUNDS_N}, asymptotics grid up to 1e7 with the point {_ASYM_MID}")
    return calls, size


@functools.cache
def _odd_primes(limit: int) -> frozenset[int]:
    return frozenset(ref.primes_upto(limit)) - {2}


def _valid_odd_prime_partition(parts: list[int], limit: int) -> bool:
    odd_primes = _odd_primes(limit)
    return (
        bool(parts)
        and parts == sorted(parts)
        and all(p in odd_primes for p in parts)
        and sum(parts) <= limit
    )


def _check_witness(n: int, refs: _Tables) -> Check:
    def check(stdout: str, ctx: dict) -> bool:
        seen = set()
        for line in stdout.splitlines():
            label, tau, vertices, edges = (cell.strip() for cell in line.split("|"))
            parts = [int(x) for x in label.split("+")]
            if not _valid_odd_prime_partition(parts, n) or label in seen:
                return False
            seen.add(label)
            if (int(tau), int(vertices), int(edges)) != (math.prod(parts), n, n + len(parts) - 1):
                return False
        return len(seen) == refs.cumulative(n)

    return check


def _check_count(cls: str, n: int, refs: _Tables) -> Check:
    anchors = {50: ref.P_50, 100: ref.P_100}

    def check(stdout: str, ctx: dict) -> bool:
        if cls == "all":
            expected = refs.p(n)
            if n in anchors and expected != anchors[n]:
                return False
        else:
            expected = refs.restricted(cls, n)
        return stdout == f"{expected}\n"

    return check


def _check_cumulative(n: int, refs: _Tables) -> Check:
    def check(stdout: str, ctx: dict) -> bool:
        return stdout == f"{refs.cumulative(n)}\n"

    return check


def _check_cumulative_list(n: int, refs: _Tables) -> Check:
    def check(stdout: str, ctx: dict) -> bool:
        lines = stdout.splitlines()
        for line in lines:
            if not _valid_odd_prime_partition([int(x) for x in line.split("+")], n):
                return False
        return len(set(lines)) == len(lines) == refs.cumulative(n)

    return check


def _check_bounds(max_n: int, *, with_atlas: bool) -> Check:
    def check(stdout: str, ctx: dict) -> bool:
        rows = json.loads(stdout)["rows"]
        if [row["n"] for row in rows] != list(range(1, max_n + 1)):
            return False
        for row in rows:
            n = row["n"]
            atlas = ref.ATLAS_SIZES[n] if with_atlas else None
            lower = row["lower_log"]
            if row["atlas"] != atlas or int(row["p_set"]) != ref.odd_prime_cumulative(n):
                return False
            if n >= 2 and not math.isclose(lower, ref.log_lower_bound(n), rel_tol=1e-9):
                return False
        return True

    return check


def _check_asymptotics(grid: list[int], refs: _Tables) -> Check:
    def check(stdout: str, ctx: dict) -> bool:
        rows = json.loads(stdout)["rows"]
        if [row["n"] for row in rows] != grid:
            return False
        for row in rows:
            n = row["n"]
            exact = str(refs.p(n)) if n <= 10_000 else None
            close = all(
                math.isclose(row[key], want, rel_tol=1e-9)
                for key, want in (
                    ("hr_log", ref.log_hardy_ramanujan(n)),
                    ("f_log", ref.log_main_term(n)),
                    ("lower_log", ref.log_lower_bound(n)),
                )
            )
            if row["p_exact"] != exact or not close:
                return False
            if not math.isclose(row["r"], ref.lhospital_ratio(n), rel_tol=1e-9):
                return False
        return True

    return check


# ----------------------------------------------------------------- tau

Edges = list[tuple[int, int, int]]

# vertex counts per call slot: a few large graphs set p90, many small ones p50
_SPARSE_TIERS = (300,) * 2 + (220,) * 3 + (150,) * 8 + (100,) * 20 + (60,) * 67
_DENSE_TIERS = (90,) * 4 + (70,) * 8 + (55,) * 16 + (35,) * 56
_COMPLETE_ORDERS = tuple(range(20, 91, 10))
_ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
# graph family per slot, in turn, so every tier mixes the families alike
_SPARSE_KINDS = ("witness", "flower", "cycle", "path", "cactus")


def _write_graph(path: Path, n: int, edges: Edges, rng: random.Random) -> None:
    """Edge-list file with vertices relabeled and lines shuffled by rng."""
    label = list(range(n))
    rng.shuffle(label)
    lines = []
    for u, v, m in edges:
        a, b = (label[u], label[v]) if rng.random() < 0.5 else (label[v], label[u])
        lines.append(f"{a} {b}" if m == 1 else f"{a} {b} {m}")
    rng.shuffle(lines)
    path.write_text(f"n {n}\n" + "\n".join(lines) + "\n", encoding="utf-8")


def _split(total: int, lo: int, hi: int, rng: random.Random) -> list[int]:
    """Random chunks in [lo, hi] summing to total (needs total >= lo, hi >= 2 lo)."""
    out = []
    while total:
        c = total if total <= hi else rng.randint(lo, min(hi, total - lo))
        out.append(c)
        total -= c
    return out


def _cycle_edges(vertices: list[int]) -> Edges:
    return [(a, b, 1) for a, b in zip(vertices, vertices[1:] + vertices[:1])]


def _flower_edges(lengths: list[int]) -> tuple[int, Edges]:
    """Cycles of the given lengths glued at vertex 0."""
    edges: Edges = []
    n = 1
    for length in lengths:
        ring = [0] + list(range(n, n + length - 1))
        edges += _cycle_edges(ring)
        n += length - 1
    return n, edges


def _sparse_graph(kind: str, n: int, rng: random.Random) -> tuple[Edges, int]:
    """One block-structured graph on n vertices and its spanning-tree count."""
    if kind == "path":
        return [(i, i + 1, 1) for i in range(n - 1)], 1
    if kind == "cycle":
        return _cycle_edges(list(range(n))), n
    if kind == "flower":
        lengths = [c + 1 for c in _split(n - 1, 2, 30, rng)]
        _, edges = _flower_edges(lengths)
        return edges, math.prod(lengths)
    if kind == "witness":
        limit = rng.randint(3, min(n, 120))
        parts = [3]
        while True:
            p = rng.choice(_ODD_PRIMES)
            if sum(parts) + p > limit:
                break
            parts.append(p)
        used, edges = _flower_edges(sorted(parts))
        # pad to n vertices with a path hanging off the hub
        chain = [0] + list(range(used, n))
        edges += [(a, b, 1) for a, b in zip(chain, chain[1:])]
        return edges, math.prod(parts)
    # cactus chain: disjoint cycles joined in a line by parallel bridges
    lengths = _split(n, 3, 30, rng)
    edges = []
    start, tau = 0, 1
    for i, length in enumerate(lengths):
        edges += _cycle_edges(list(range(start, start + length)))
        tau *= length
        if i:
            m = rng.randint(1, 3)
            edges.append((start - 1, start, m))
            tau *= m
        start += length
    return edges, tau


def _check_exact(expected: int) -> Check:
    return lambda stdout, ctx: stdout == f"{expected}\n"


def _tau_sparse(rng: random.Random, workdir: Path) -> tuple[list[Call], str]:
    calls = []
    for i, n in enumerate(_SPARSE_TIERS):
        kind = _SPARSE_KINDS[i % len(_SPARSE_KINDS)]
        edges, tau = _sparse_graph(kind, n, rng)
        path = workdir / f"sparse_{i}_{kind}.edgelist"
        _write_graph(path, n, edges, rng)
        calls.append(Call(["tau", "--input", str(path)], _check_exact(tau)))
    rng.shuffle(calls)
    size = (f"{len(calls)} tau --input calls on witnesses, flowers, cycles, paths and cactus "
            f"chains; vertex counts {_tier_summary(_SPARSE_TIERS)}")
    return calls, size


def _check_residues(n: int, edges: Edges) -> Check:
    @functools.cache
    def residues() -> tuple[int, ...]:
        return ref.tau_residues(n, edges)

    def check(stdout: str, ctx: dict) -> bool:
        value = int(stdout)
        return value > 0 and all(value % p == r for p, r in zip(ref.PRIMES, residues()))

    return check


def _tau_dense(rng: random.Random, workdir: Path) -> tuple[list[Call], str]:
    calls = []
    for n in _COMPLETE_ORDERS:
        calls.append(Call(["tau", "--complete", str(n)], _check_exact(n ** (n - 2))))
        m = 2 + n // 10 % 2
        path = workdir / f"uniform_{n}.edgelist"
        _write_graph(path, n, [(u, v, m) for u, v in combinations(range(n), 2)], rng)
        calls.append(Call(["tau", "--input", str(path)],
                          _check_exact(m ** (n - 1) * n ** (n - 2))))
    for i, n in enumerate(_DENSE_TIERS):
        density = 0.55 + 0.1 * (i % 4)  # 0.55, 0.65, 0.75, 0.85 in turn
        edges = [(u, v, rng.randint(1, 3)) for u, v in combinations(range(n), 2)
                 if rng.random() < density]
        path = workdir / f"dense_{i}.edgelist"
        _write_graph(path, n, edges, rng)
        calls.append(Call(["tau", "--input", str(path)], _check_residues(n, edges)))
    rng.shuffle(calls)
    size = (f"{len(calls)} tau calls: K_n and uniform-multiplicity K_n for n=20..90, "
            f"random multigraphs (edge prob 0.55-0.85, mult 1-3) on {_tier_summary(_DENSE_TIERS)}")
    return calls, size


def _tier_summary(tiers: tuple[int, ...]) -> str:
    return ", ".join(f"{tiers.count(n)}x{n}" for n in sorted(set(tiers), reverse=True))
