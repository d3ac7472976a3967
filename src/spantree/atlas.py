"""Exhaustive ground truth: every realizable spanning-tree count at small n.

The atlas for n is the set of distinct spanning-tree counts over all simple
connected graphs on n labeled vertices.  Distinct values need no
isomorphism reduction, so the scan just walks all 2^C(n,2) edge subsets of
the complete graph as bitmasks in a fixed lexicographic pair order.

Per batch of masks the pipeline is array-shaped: unpack bits into struck
Laplacians (vertex 0 deleted) and run fraction-free elimination on all of
them without pivot search.  By the matrix-tree theorem the result is 0
exactly for the disconnected subsets, so the elimination is also the
connectivity test; zeros are dropped when the values are collected.

A zero pivot needs no special case.  The struck Laplacian is positive
semidefinite.  While earlier pivots are positive, the trailing block is
the last of them (a leading minor) times a positive semidefinite Schur
complement, whose zero diagonal entries have zero rows and columns; so a
zero pivot leaves an all-zero trailing block and a final value of 0.  The
next step divides by max(pivot, 1): for a connected graph every pivot is a
leading minor of a positive definite matrix, hence positive, so nothing
changes.  int64 never overflows through n = 10: intermediate entries are
determinants of submatrices, Hadamard-bounded well below 2^63 (n = 8:
about 1.3e6, squared in the update step still ~1.7e12).

Work splits into disjoint mask ranges; each worker returns a local value
set and the merge is set union, so the result cannot depend on worker
count or scheduling.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .witness import witness_family

__all__ = [
    "AtlasRecord",
    "AlphaRecord",
    "LowerBoundReport",
    "exact_atlas",
    "alpha_exact",
    "sedlacek_bound",
    "azarija_skrekovski_bound",
    "verify_lower_bound",
    "atlas_filename",
    "save_atlas",
    "load_atlas",
    "load_atlas_dir",
    "DEFAULT_CAP",
    "HARD_CAP",
]

DEFAULT_CAP = 7
HARD_CAP = 8

# masks per vectorized batch
_BATCH = 1 << 16

# int64 elimination is exact through this size; see module docstring
_MAX_EXACT_N = 10


@dataclass(frozen=True)
class AtlasRecord:
    """Exact realizable-count set for one vertex count.

    ``values`` is sorted ascending; ``graphs_scanned`` counts every edge
    subset examined (2^C(n,2)); ``elapsed`` is wall-clock seconds.
    """

    n: int
    values: tuple[int, ...]
    size: int
    graphs_scanned: int
    elapsed: float


@dataclass(frozen=True)
class AlphaRecord:
    """Least vertex count realizing a given spanning-tree count.

    With status "exact", ``alpha`` is the answer.  With status
    "lower-bound-only" the contiguous atlas prefix ran out first and
    ``alpha`` is the least vertex count not yet excluded.
    ``searched_up_to`` is the length of that prefix: atlases for
    1..searched_up_to were all present.
    """

    m: int
    alpha: int
    status: str
    searched_up_to: int


@dataclass(frozen=True)
class LowerBoundReport:
    """Comparison of the witness construction against the exhaustive atlas."""

    n: int
    partition_count: int
    atlas_size: int
    missing: tuple[int, ...]

    @property
    def size_ok(self) -> bool:
        return self.atlas_size >= self.partition_count

    @property
    def covered(self) -> bool:
        return not self.missing

    @property
    def ok(self) -> bool:
        return self.size_ok and self.covered

    def __bool__(self) -> bool:
        return self.ok


def _scan_batch(n: int, lo: int, hi: int) -> set[int]:
    """Distinct counts over connected graphs among masks [lo, hi)."""
    if n == 1:
        return {1} if lo <= 0 < hi else set()
    us, vs = np.triu_indices(n, 1)  # the pairs in lexicographic order
    masks = np.arange(lo, hi, dtype=np.int64)
    bits = (masks >> np.arange(len(us), dtype=np.int64)[:, None]) & 1
    # the batch is the last axis, so every elementwise step runs over
    # contiguous runs of masks
    lap = np.zeros((n, n, hi - lo), dtype=np.int64)
    lap[us, vs] = lap[vs, us] = -bits
    lap[range(n), range(n)] = -lap.sum(axis=1)
    m = lap[1:, 1:]  # strike vertex 0

    prev = 1
    for col in range(n - 2):
        pivot = m[col, col]
        rest = slice(col + 1, None)
        m[rest, rest] = (m[rest, rest] * pivot - m[rest, col, None] * m[None, col, rest]) // prev
        prev = np.maximum(pivot, 1)  # a zero pivot left only zeros below it
    det = m[-1, -1]
    return set(np.unique(det[det > 0]).tolist())


def _scan_range(n: int, start: int, stop: int) -> set[int]:
    values: set[int] = set()
    for lo in range(start, stop, _BATCH):
        values |= _scan_batch(n, lo, min(lo + _BATCH, stop))
    return values


def exact_atlas(
    n: int, *, jobs: int = 1, force: bool = False, progress: bool = False
) -> AtlasRecord:
    """Scan every edge subset of the complete graph on n labeled vertices.

    Parameters
    ----------
    n : int
        Vertex count, 1 <= n <= 7 by default; n = 8 (2^28 subsets) only
        with ``force=True``; larger n refused outright.
    jobs : int
        Worker processes.  The value set is identical for any jobs count.
    force : bool
        Permit the n = 8 run.
    progress : bool
        Report chunk completion on stderr (useful for the forced run).

    Returns
    -------
    AtlasRecord
        Sorted distinct counts, subsets examined, elapsed seconds.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > HARD_CAP:
        raise ValueError(f"n={n} exceeds the hard cap {HARD_CAP} (2^36+ subsets)")
    if n > DEFAULT_CAP and not force:
        raise ValueError(f"n={n} exceeds the default cap {DEFAULT_CAP}; pass force=True")
    assert n <= _MAX_EXACT_N  # int64 elimination exactness margin

    start = time.perf_counter()
    total = 1 << (n * (n - 1) // 2)
    if jobs <= 1 or total <= _BATCH:
        values = _scan_range(n, 0, total)
    else:
        chunk = -(-total // (jobs * 4))
        chunk = -(-chunk // _BATCH) * _BATCH  # align to batch boundaries
        spans = [(s, min(s + chunk, total)) for s in range(0, total, chunk)]
        values = set()
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [pool.submit(_scan_range, n, a, b) for a, b in spans]
            for done, fut in enumerate(futures, 1):
                values |= fut.result()
                if progress:
                    print(f"atlas n={n}: chunk {done}/{len(spans)}", file=sys.stderr, flush=True)
    elapsed = time.perf_counter() - start
    ordered = tuple(sorted(values))
    return AtlasRecord(
        n=n,
        values=ordered,
        size=len(ordered),
        graphs_scanned=total,
        elapsed=elapsed,
    )


def alpha_exact(m: int, atlas_cache: Mapping[int, AtlasRecord]) -> AlphaRecord:
    """Least vertex count whose atlas contains m, given cached atlases.

    Exactness needs an unbroken run of atlases for 1, 2, ..., so the claim
    "no smaller graph realizes m" is actually checked; beyond the cached
    prefix the result degrades to a lower bound.
    """
    if m < 1:
        raise ValueError("spanning-tree counts are >= 1")
    prefix = 0
    while prefix + 1 in atlas_cache:
        prefix += 1
    for j in range(1, prefix + 1):
        if m in atlas_cache[j].values:
            return AlphaRecord(m=m, alpha=j, status="exact", searched_up_to=prefix)
    return AlphaRecord(m=m, alpha=prefix + 1, status="lower-bound-only", searched_up_to=prefix)


def sedlacek_bound(m: int) -> int | None:
    """Classical vertex-count upper bound for realizing m spanning trees.

    Defined for m > 6 when m is 0 or 2 mod 3; the remaining residue class
    has no published case, so it maps to None rather than a guess.
    """
    if m <= 6:
        return None
    if m % 3 == 0:
        return (m + 6) // 3
    if m % 3 == 2:
        return (m + 4) // 3
    return None


def azarija_skrekovski_bound(m: int) -> int | None:
    """Sharper vertex-count upper bound, defined for m > 25."""
    if m <= 25:
        return None
    if m % 3 == 2:
        return (m + 4) // 3
    return (m + 9) // 4


def verify_lower_bound(
    n: int, *, record: AtlasRecord | None = None, jobs: int = 1
) -> LowerBoundReport:
    """Check the witness construction against the exhaustive atlas at n.

    Asserts nothing itself; the report carries whether the atlas has at
    least as many values as there are witnesses, and whether every witness
    count actually appears in the atlas.
    """
    if record is None:
        record = exact_atlas(n, jobs=jobs)
    elif record.n != n:
        raise ValueError(f"record is for n={record.n}, not n={n}")
    taus = [w.tau_value for w in witness_family(n)]
    present = set(record.values)
    missing = tuple(sorted(t for t in set(taus) if t not in present))
    return LowerBoundReport(
        n=n,
        partition_count=len(taus),
        atlas_size=record.size,
        missing=missing,
    )


def atlas_filename(n: int) -> str:
    return f"atlas_{n}.json"


def save_atlas(record: AtlasRecord, path: str | Path) -> None:
    """Write one atlas as JSON; counts go out as decimal strings."""
    payload = {
        "n": record.n,
        "size": record.size,
        "values": [str(v) for v in record.values],
        "graphs_scanned": record.graphs_scanned,
        "elapsed_ms": int(round(record.elapsed * 1000)),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


# key -> type of every field an atlas file must hold
_ATLAS_FIELDS = {"n": int, "size": int, "values": list, "graphs_scanned": int, "elapsed_ms": int}


def load_atlas(path: str | Path) -> AtlasRecord:
    """Read one atlas file, raising ValueError unless it is well formed.

    Well formed: a JSON object with every field of ``_ATLAS_FIELDS`` at its
    type, 1 <= n <= ``HARD_CAP``, and ``values`` strictly ascending positive
    decimal strings, ``size`` of them, from 1 (a tree) to the count of the
    complete graph (Cayley's n^(n-2)).
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError,
            RecursionError) as exc:  # deep nesting recurses
        raise ValueError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    for key, kind in _ATLAS_FIELDS.items():
        if type(payload.get(key)) is not kind:
            raise ValueError(f"{path}: field {key!r} missing or not {kind.__name__}")
    raw = payload["values"]
    if not all(type(s) is str and s.isascii() and s.isdigit() for s in raw):
        raise ValueError(f"{path}: values must be decimal strings")
    values = tuple(map(int, raw))
    n = payload["n"]
    if not 1 <= n <= HARD_CAP:  # the cap also keeps n^(n-2) below cheap
        raise ValueError(f"{path}: n must be >= 1 and <= {HARD_CAP}")
    if payload["size"] != len(values):
        raise ValueError(f"{path}: size is {payload['size']} but there are {len(values)} values")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(f"{path}: values must be strictly ascending")
    cayley = n ** (n - 2) if n > 2 else 1
    if values[:1] != (1,) or values[-1:] != (cayley,):
        raise ValueError(f"{path}: values must be positive, from 1 (a tree) to {cayley} "
                         f"(the complete graph)")
    return AtlasRecord(
        n=n,
        values=values,
        size=payload["size"],
        graphs_scanned=payload["graphs_scanned"],
        elapsed=payload["elapsed_ms"] / 1000.0,
    )


def load_atlas_dir(directory: str | Path) -> dict[int, AtlasRecord]:
    """All atlas_<n>.json files under a directory, keyed by n.

    Raises ValueError for a malformed file (see ``load_atlas``) or one whose
    name is not ``atlas_filename`` of the n it holds, so no two files can
    claim the same n.
    """
    out: dict[int, AtlasRecord] = {}
    for path in sorted(Path(directory).glob("atlas_*.json")):
        record = load_atlas(path)
        if path.name != atlas_filename(record.n):
            raise ValueError(f"{path}: holds n={record.n}, so it must be named "
                             f"{atlas_filename(record.n)}")
        out[record.n] = record
    return out
