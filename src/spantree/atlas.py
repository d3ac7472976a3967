"""Exhaustive ground truth: every realizable spanning-tree count at small n.

The atlas for n is the set of distinct spanning-tree counts over all simple
connected graphs on n labeled vertices, i.e. over the 2^C(n,2) edge subsets
of the complete graph.  Every connected graph on n >= 2 vertices is one on
n - 1 vertices plus a vertex joined to a nonempty subset of them (delete a
leaf of a spanning tree), and isomorphic graphs share their count.  So the
atlas is the set of counts of the 2^(n-1) - 1 extensions of one graph per
isomorphism class on n - 1 vertices.

The class lists grow the same way and are deduplicated by an exact
canonical code.  A graph on k vertices is a bitmask over pairs in colex
order (pair u < v is bit v(v-1)/2 + u), so joining vertex k - 1 to the
subset S adds S << C(k-1, 2).  Its code is the least mask over all k!
relabellings: the candidates' int64 bit rows times a table of each pair's
bit under each permutation.  Codes stay below 2^21, since n <= ``HARD_CAP``
= 8 needs no list past k = 7.

The count of an extension needs no graph.  Strike the new vertex from the
Laplacian of "G plus a vertex joined to S": what remains is L_G + diag(1_S),
whose determinant is the count (matrix-tree theorem).  G is connected, so
L_G is positive semidefinite with kernel the constant vectors, and adding
diag(1_S) for a nonempty S makes it positive definite.  Every leading
principal minor of a positive definite matrix is positive, so fraction-free
(Bareiss) elimination never meets a zero pivot and needs no pivot search:
the whole stack of matrices, for a chunk of classes times every subset, is
eliminated together in k - 1 vectorized int64 steps (k = n - 1), and the
last pivots are the counts.

int64 arrays wrap silently on overflow (numpy warns only for scalars), so
the kernel rests on a bound instead of a check.  Each row of L_G + diag(1_S)
has a diagonal entry of at most k and at most k - 1 entries -1, so its
Euclidean norm is below k + 1 = n.  Every entry the elimination forms is a
minor of that matrix, below n^(n-1) by Hadamard's inequality, and every
update term is a difference of two products of such entries, below
2 n^(2(n-1)).  That is under 2^63 for n <= 10, which covers ``HARD_CAP``.

All of the work runs in this process, chunk by chunk, and the merge is set
union, so the result cannot depend on how the classes are chunked.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from itertools import permutations
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
    "HARD_CAP",
]

HARD_CAP = 8

# int64 entries per chunk: relabelled masks of the canonical-code product, or
# matrix entries of the extension stack
_CHUNK_ENTRIES = 1 << 20


@dataclass(frozen=True)
class AtlasRecord:
    """Exact realizable-count set for one vertex count.

    ``values`` is sorted ascending and ``elapsed`` is wall-clock seconds.
    ``size`` and ``graphs_scanned`` follow from the other fields.
    """

    n: int
    values: tuple[int, ...]
    elapsed: float

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def graphs_scanned(self) -> int:
        """Labelled edge subsets covered, 2^C(n,2); not graphs whose count was computed."""
        return 1 << (self.n * (self.n - 1) // 2)


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


def _pairs(k: int) -> list[tuple[int, int]]:
    """Vertex pairs of k vertices in colex order: (u, v) is bit v(v-1)/2 + u."""
    return [(u, v) for v in range(k) for u in range(v)]


def _relabel_table(k: int) -> np.ndarray:
    """Bit of each pair (rows) under each permutation of k vertices (columns)."""
    perms = np.array(list(permutations(range(k))), dtype=np.int64)
    us, vs = np.array(_pairs(k), dtype=np.int64).T
    a, b = perms[:, us], perms[:, vs]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return (1 << (hi * (hi - 1) // 2 + lo)).T


def _classes(k: int) -> list[int]:
    """Canonical codes of the connected graphs on k vertices, ascending."""
    codes = np.zeros(1, dtype=np.int64)  # the single vertex
    for j in range(2, k + 1):
        joins = np.arange(1, 1 << (j - 1), dtype=np.int64) << ((j - 1) * (j - 2) // 2)
        candidates = (codes[:, None] | joins).ravel()
        table = _relabel_table(j)
        bits = np.arange(len(table))
        step = max(1, _CHUNK_ENTRIES // table.shape[1])
        least = [
            (((chunk[:, None] >> bits) & 1) @ table).min(axis=1)
            for chunk in np.split(candidates, range(step, len(candidates), step))
        ]
        codes = np.unique(np.concatenate(least))
    return codes.tolist()


def _extension_taus(n: int, codes: np.ndarray) -> set[int]:
    """Distinct counts of the one-vertex extensions to n vertices of these classes.

    The count of the extension joined to S is det(L_G + diag(1_S)) (see the
    module docstring), so the kernel builds L_G of each class from its colex
    bit row, adds every subset diagonal and eliminates the stack of
    len(codes) * (2^(n-1) - 1) matrices of side k = n - 1 together, without
    pivoting.  Every update term is below 2 n^(2(n-1)) < 2^63 for n <= 10,
    so no int64 entry wraps.  The stack holds k^2 (2^k - 1) entries per
    class; callers bound it by passing chunks of classes.
    """
    k = n - 1
    us, vs = np.array(_pairs(k), dtype=np.int64).reshape(-1, 2).T
    joined = (np.arange(1, 1 << k, dtype=np.int64) >> np.arange(k)[:, None]) & 1
    diag = np.arange(k)
    # the batch is the last axis, so every elementwise step runs over
    # contiguous runs of matrices
    lap = np.zeros((k, k, len(codes)), dtype=np.int64)
    lap[us, vs] = lap[vs, us] = -((codes >> np.arange(len(us))[:, None]) & 1)
    lap[diag, diag] = -lap.sum(axis=1)
    m = np.repeat(lap[..., None], joined.shape[1], axis=3)
    m[diag, diag] += joined[:, None, :]
    m = m.reshape(k, k, -1)
    prev = 1
    for col in range(k - 1):
        pivot = m[col, col]  # a leading minor, positive
        rest = m[col + 1:, col + 1:]
        rest *= pivot
        rest -= m[col + 1:, col, None] * m[None, col, col + 1:]
        rest //= prev  # exact
        prev = pivot
    return set(np.unique(m[-1, -1]).tolist())


def exact_atlas(n: int, *, progress: bool = False) -> AtlasRecord:
    """Every spanning-tree count of a connected graph on n labeled vertices.

    Parameters
    ----------
    n : int
        Vertex count, 1 <= n <= ``HARD_CAP``.
    progress : bool
        Report each finished chunk of classes on stderr.

    Returns
    -------
    AtlasRecord
        Sorted distinct counts and elapsed seconds.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > HARD_CAP:
        raise ValueError(f"n={n} exceeds the hard cap {HARD_CAP}")

    start = time.perf_counter()
    values = {1}  # the single vertex; every larger atlas holds 1 too (trees)
    if n > 1:
        classes = np.array(_classes(n - 1), dtype=np.int64)
        step = max(1, _CHUNK_ENTRIES // ((n - 1) ** 2 * ((1 << (n - 1)) - 1)))
        chunks = np.split(classes, range(step, len(classes), step))
        for done, chunk in enumerate(chunks, 1):
            values |= _extension_taus(n, chunk)
            if progress:
                print(f"atlas n={n}: chunk {done}/{len(chunks)}", file=sys.stderr, flush=True)
    elapsed = time.perf_counter() - start
    return AtlasRecord(n=n, values=tuple(sorted(values)), elapsed=elapsed)


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


def verify_lower_bound(n: int, *, record: AtlasRecord | None = None) -> LowerBoundReport:
    """Check the witness construction against the exhaustive atlas at n.

    Asserts nothing itself; the report carries whether the atlas has at
    least as many values as there are witnesses, and whether every witness
    count actually appears in the atlas.
    """
    if record is None:
        record = exact_atlas(n)
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
    complete graph (Cayley's n^(n-2)), ``graphs_scanned`` 2^C(n,2) and
    ``elapsed_ms`` >= 0.  A value string longer than Cayley's count is
    rejected before any value is converted.
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
    n = payload["n"]
    if not 1 <= n <= HARD_CAP:  # the cap also keeps n^(n-2) below cheap
        raise ValueError(f"{path}: n must be >= 1 and <= {HARD_CAP}")
    cayley = n ** (n - 2) if n > 2 else 1
    digits = len(str(cayley))
    if any(len(s) > digits for s in raw):  # before int(), which refuses 4,300+ digits
        raise ValueError(f"{path}: values must have at most {digits} digits")
    values = tuple(map(int, raw))
    if payload["size"] != len(values):
        raise ValueError(f"{path}: size is {payload['size']} but there are {len(values)} values")
    if any(a >= b for a, b in zip(values, values[1:])):
        raise ValueError(f"{path}: values must be strictly ascending")
    if values[:1] != (1,) or values[-1:] != (cayley,):
        raise ValueError(f"{path}: values must be positive, from 1 (a tree) to {cayley} "
                         f"(the complete graph)")
    record = AtlasRecord(n=n, values=values, elapsed=payload["elapsed_ms"] / 1000.0)
    if payload["graphs_scanned"] != record.graphs_scanned:
        raise ValueError(f"{path}: graphs_scanned must be {record.graphs_scanned} (2^C(n,2))")
    if payload["elapsed_ms"] < 0:
        raise ValueError(f"{path}: elapsed_ms must be >= 0")
    return record


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
