"""Exhaustive ground truth: every realizable spanning-tree count at small n.

The atlas for n is the set of distinct spanning-tree counts over all simple
connected graphs on n labeled vertices, i.e. over the 2^C(n,2) edge subsets
of the complete graph.  Every connected graph on n >= 2 vertices is one on
n - 1 vertices plus a vertex joined to a nonempty subset of them (delete a
leaf of a spanning tree), and isomorphic graphs share their count.  So the
atlas is the set of counts of the 2^(n-1) - 1 extensions of each graph of
a cover: connected graphs on n - 1 vertices, at least one per class.

Covers grow the same way.  A graph on k vertices is a bitmask over pairs
in colex order (pair u < v is bit v(v-1)/2 + u), so joining vertex k - 1
to the subset S adds S << C(k-1, 2).  Each candidate is relabelled once, by
a colour-refinement order of its vertices, and equal codes are merged.  A
relabelled graph stays in its class, so no class loses its last member;
what is not merged (967 graphs for 853 classes at k = 7) costs only kernel
time.  Codes stay below 2^21, as n <= ``HARD_CAP`` = 8 needs k <= 7.

The count of an extension needs no graph.  Strike the new vertex from the
Laplacian of "G plus a vertex joined to S": what remains is L_G + diag(1_S),
whose determinant is the count (matrix-tree theorem).  G is connected, so
every proper principal submatrix of L_G, and all of L_G + diag(1_S) for a
nonempty S, is positive definite: fraction-free (Bareiss) elimination meets
no zero pivot before the last and needs no pivot search.  After t steps the
trailing block for S is that for S minus {t, t+1, ...} plus the last pivot
times diag(1_S) on it, so the subsets share their steps as a binary tree
that branches on vertex t just before its pivot.

int64 arrays wrap silently on overflow (numpy warns only for scalars), so
the kernel rests on a bound instead of a check.  Every entry the tree holds
is a minor of some L_G + diag(s), s in {0, 1}^k, whose rows have norm below
k + 1 = n (a diagonal entry of at most k, at most k - 1 entries -1): below
n^(n-1) by Hadamard's inequality.  Every update term is a difference of two
products of such entries, below 2 n^(2(n-1)) < 2^63 for n <= 10, which
covers ``HARD_CAP``.  The merge over chunks of the cover is set union, so
the result cannot depend on the chunking.
"""

from __future__ import annotations

import json
import math
import operator
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .graphs import read_text_bounded
from .partitions import p_set_enumerate

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

# int64 entries per chunk of the subset tree's largest level
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

    ``searched_up_to`` is the length of the contiguous atlas prefix:
    atlases for 1..searched_up_to were all present.  An ``alpha`` inside
    it is the answer (status "exact"); past it (status "lower-bound-only")
    the prefix ran out first and ``alpha`` is the least vertex count not
    yet excluded.
    """

    m: int
    alpha: int
    searched_up_to: int

    @property
    def status(self) -> str:
        return "exact" if self.alpha <= self.searched_up_to else "lower-bound-only"


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


def _adjacency(codes: np.ndarray, k: int) -> np.ndarray:
    """0/1 adjacency matrices of these colex bit rows, the batch on the last axis.

    With the batch last, every elementwise step runs over contiguous runs
    of matrices.  The rows below the diagonal list the pairs in colex order.
    """
    vs, us = np.tril_indices(k, -1)
    adj = np.zeros((k, k, len(codes)), dtype=np.int64)
    adj[us, vs] = adj[vs, us] = (codes >> np.arange(len(us))[:, None]) & 1
    return adj


def _relabel(codes: np.ndarray, k: int) -> np.ndarray:
    """Codes of these graphs on k vertices, each relabelled by a vertex key.

    A stable sort orders the vertices by a key that starts as the degree
    and is refined twice to key * k^3 + the sum of the neighbours' keys.
    Isomorphic graphs often get the same code, and a relabelled graph is
    always isomorphic.
    """
    adj = _adjacency(codes, k)
    key = adj.sum(axis=1)
    for _ in range(2):
        key = key * k**3 + (adj * key).sum(axis=1)
    order = np.argsort(key, axis=0, kind="stable")  # new label -> old vertex
    vs, us = np.tril_indices(k, -1)
    bits = adj[order[us], order[vs], np.arange(len(codes))]
    return (bits << np.arange(len(us))[:, None]).sum(axis=0)


def _classes(k: int) -> list[int]:
    """Codes of connected graphs on k vertices, at least one per isomorphism class."""
    codes = np.zeros(1, dtype=np.int64)  # the single vertex
    for j in range(2, k + 1):
        joins = np.arange(1, 1 << (j - 1), dtype=np.int64) << ((j - 1) * (j - 2) // 2)
        codes = np.unique(_relabel((codes[:, None] | joins).ravel(), j))
    return codes.tolist()


def _extension_taus(n: int, codes: np.ndarray) -> set[int]:
    """Distinct counts of the one-vertex extensions to n vertices of these graphs.

    The subset tree of the module docstring: before step t the batch
    doubles and the half with t in S adds the last pivot to entry (t, t).
    The final pivots are the counts of all 2^k subsets, the empty one's
    (det L_G = 0) first.  No level holds 2^(k+2) entries per graph.
    """
    k = n - 1
    m = -_adjacency(codes, k)
    m[range(k), range(k)] = -m.sum(axis=1)
    prev = np.ones(len(codes), dtype=np.int64)
    for _ in range(k):
        m = np.concatenate([m, m], axis=2)
        m[0, 0, len(prev):] += prev  # the half with t in S
        prev = np.concatenate([prev, prev])
        pivot = m[0, 0]  # a leading minor, positive until the last step
        m = (m[1:, 1:] * pivot - m[1:, :1] * m[:1, 1:]) // prev  # exact
        prev = pivot
    return set(np.unique(prev[len(codes):]).tolist())


def exact_atlas(n: int, *, progress: bool = False) -> AtlasRecord:
    """Every spanning-tree count of a connected graph on n labeled vertices.

    Parameters
    ----------
    n : int
        Vertex count, 1 <= n <= ``HARD_CAP``.
    progress : bool
        Report each finished chunk of the cover on stderr.

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
        cover = np.array(_classes(n - 1), dtype=np.int64)
        step = max(1, _CHUNK_ENTRIES >> (n + 1))
        chunks = np.split(cover, range(step, len(cover), step))
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
        values = atlas_cache[j].values
        i = bisect_left(values, m)
        if i < len(values) and values[i] == m:
            return AlphaRecord(m=m, alpha=j, searched_up_to=prefix)
    return AlphaRecord(m=m, alpha=prefix + 1, searched_up_to=prefix)


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


def verify_lower_bound(record: AtlasRecord) -> LowerBoundReport:
    """Check the witness construction against the exhaustive atlas ``record``.

    Asserts nothing itself; the report carries whether the atlas has at
    least as many values as there are witnesses on ``record.n`` vertices,
    and whether every witness count actually appears in the atlas.  A
    witness's count is the product of its partition's parts, so no witness
    graph is built.
    """
    taus = [math.prod(p.parts) for p in p_set_enumerate(record.n)]
    present = set(record.values)
    missing = tuple(sorted(t for t in set(taus) if t not in present))
    return LowerBoundReport(
        n=record.n,
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


# load_atlas refuses a larger file before parsing it; atlas_8.json is about 44 KB
_ATLAS_FILE_LIMIT = 2**20

# key -> type of every field an atlas file must hold
_ATLAS_FIELDS = {"n": int, "size": int, "values": list, "graphs_scanned": int, "elapsed_ms": int}


def load_atlas(path: str | Path) -> AtlasRecord:
    """Read one atlas file, raising ValueError unless it is well formed.

    Well formed: a JSON object with every field of ``_ATLAS_FIELDS`` at its
    type, 1 <= n <= ``HARD_CAP``, and ``values`` strictly ascending positive
    decimal strings, ``size`` of them, from 1 (a tree) to the count of the
    complete graph (Cayley's n^(n-2)), ``graphs_scanned`` 2^C(n,2) and
    ``elapsed_ms`` from 0 to the largest float.  A file of more than
    ``_ATLAS_FILE_LIMIT`` bytes or not UTF-8 is rejected before it is
    parsed, text that holds a JSON integer past ``int()``'s digit limit is
    not JSON, and a value string longer than Cayley's count is rejected
    before any value is converted.  Each check on ``values`` is one pass in
    C over the whole list (a join, ``all``, ``max`` or ``map``), not a
    Python loop over the values.
    """
    text = read_text_bounded(path, _ATLAS_FILE_LIMIT)
    try:
        payload = json.loads(text)
    # an integer past int()'s digit limit raises a plain ValueError, and deep nesting recurses
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"{path}: not JSON ({exc})") from exc
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: not a JSON object")
    for key, kind in _ATLAS_FIELDS.items():
        if type(payload.get(key)) is not kind:
            raise ValueError(f"{path}: field {key!r} missing or not {kind.__name__}")
    raw = payload["values"]
    try:
        joined = "".join(raw)
    except TypeError:  # a value that is not a string
        joined = ""
    # ASCII digits throughout, and all() finds any empty string
    if raw and not (joined.isascii() and joined.isdigit() and all(raw)):
        raise ValueError(f"{path}: values must be decimal strings")
    n = payload["n"]
    if not 1 <= n <= HARD_CAP:  # the cap also keeps n^(n-2) below cheap
        raise ValueError(f"{path}: n must be >= 1 and <= {HARD_CAP}")
    cayley = n ** (n - 2) if n > 2 else 1
    digits = len(str(cayley))
    if max(map(len, raw), default=0) > digits:  # before int(), which refuses 4,300+ digits
        raise ValueError(f"{path}: values must have at most {digits} digits")
    values = tuple(map(int, raw))
    if payload["size"] != len(values):
        raise ValueError(f"{path}: size is {payload['size']} but there are {len(values)} values")
    if not all(map(operator.lt, values, values[1:])):
        raise ValueError(f"{path}: values must be strictly ascending")
    if values[:1] != (1,) or values[-1:] != (cayley,):
        raise ValueError(f"{path}: values must be positive, from 1 (a tree) to {cayley} "
                         f"(the complete graph)")
    scanned = 1 << (n * (n - 1) // 2)  # AtlasRecord.graphs_scanned
    if payload["graphs_scanned"] != scanned:
        raise ValueError(f"{path}: graphs_scanned must be {scanned} (2^C(n,2))")
    if payload["elapsed_ms"] < 0:
        raise ValueError(f"{path}: elapsed_ms must be >= 0")
    if payload["elapsed_ms"] > sys.float_info.max:  # / 1000.0 would overflow
        raise ValueError(f"{path}: elapsed_ms must be at most {sys.float_info.max}")
    return AtlasRecord(n=n, values=values, elapsed=payload["elapsed_ms"] / 1000.0)


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
