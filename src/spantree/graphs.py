"""Undirected multigraphs as immutable values.

Vertices are the integers ``0..n_vertices-1``.  Edges are unordered pairs
carrying an integer multiplicity >= 1; self-loops are rejected outright
because a loop can never lie on a spanning tree.  A graph is never changed
after it is built, so instances can be shared freely between threads and
worker processes.

Multiplicities are the edge-list format's third column, and τ counts each
parallel copy as its own edge (a doubled edge has two spanning trees).  All
the named constructors (`cycle`, `path`, `complete`) emit simple graphs.

Public ``Graph(...)`` validates, merges and sorts every edge.  Builders that
already hold the canonical form skip that through the private
`Graph._from_canonical`: `cycle`, `path` and `complete` (and the flowers and
witnesses in ``witness.py``) emit their triples sorted, with distinct
in-range endpoints by construction; `parse_edge_list` checks every edge line
and merges the multiplicities on the same integer pair key u * n + v that
``Graph(...)`` uses.  Its line loop merges them in a dict sorted into
triples by the one `_canonical`; an edge list of plain digits, spaces and
newlines is parsed in bulk by numpy instead, which reads every token with
one ``np.fromstring``, sorts the keys and sums each run of equal keys.  The
result equals what ``Graph(...)`` would make of the same edges, so equality
and hashing are unaffected (the tests compare both paths).
"""

from __future__ import annotations

import operator
import os
import re
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

__all__ = [
    "Graph",
    "EdgeListError",
    "cycle",
    "path",
    "complete",
    "format_edge_list",
    "parse_edge_list",
]


class EdgeListError(ValueError):
    """Malformed edge-list text.  ``line_no`` is 1-based."""

    def __init__(self, line_no: int, message: str) -> None:
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass(frozen=True)
class Graph:
    """A multigraph on ``n_vertices`` labeled vertices.

    ``edges`` is stored canonically: one ``(u, v, multiplicity)`` triple per
    vertex pair with ``u < v``, sorted lexicographically.  The constructor
    accepts ``(u, v)`` pairs (multiplicity 1) or ``(u, v, m)`` triples with
    endpoints in either order and normalizes; repeated entries for the same
    pair have their multiplicities summed.  The vertex count, endpoints and
    multiplicities may be any integers, numpy ones included, and are stored
    as ``int``.  Equality and hashing follow the canonical form.
    """

    n_vertices: int
    edges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        try:
            n = operator.index(self.n_vertices)
        except TypeError:
            raise ValueError(f"vertex count {self.n_vertices!r} is not an integer") from None
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        object.__setattr__(self, "n_vertices", n)
        merged: dict[int, int] = {}  # keyed by u * n + v, u < v
        for entry in self.edges:
            if len(entry) == 2:
                u, v = entry
                m = 1
            elif len(entry) == 3:
                u, v, m = entry
            else:
                raise ValueError(f"edge entry {entry!r} is not a pair or a triple")
            try:
                u, v, m = operator.index(u), operator.index(v), operator.index(m)
            except TypeError:
                raise ValueError(
                    f"edge entry {entry!r} has a non-integer endpoint or multiplicity"
                ) from None
            if u == v:
                raise ValueError(f"self-loop at vertex {u} rejected")
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
            if m < 1:
                raise ValueError(f"multiplicity {m} for edge ({u}, {v}) must be >= 1")
            key = u * n + v if u < v else v * n + u
            merged[key] = merged.get(key, 0) + m
        object.__setattr__(self, "edges", _canonical(n, merged))

    @classmethod
    def _from_canonical(
        cls, n_vertices: int, edges: tuple[tuple[int, int, int], ...]
    ) -> Graph:
        """A graph from edges already in canonical form, unchecked.

        The caller guarantees what ``__post_init__`` would establish: a
        nonnegative vertex count, and a tuple of triples ``(u, v, m)`` with
        ``0 <= u < v < n_vertices`` and ``m >= 1``, strictly ascending, so no
        pair repeats.
        """
        g = object.__new__(cls)
        object.__setattr__(g, "n_vertices", n_vertices)
        object.__setattr__(g, "edges", edges)
        return g

    @property
    def n_edges(self) -> int:
        """Number of edges counted with multiplicity."""
        return sum(m for _, _, m in self.edges)


def _canonical(n: int, merged: dict[int, int]) -> tuple[tuple[int, int, int], ...]:
    """Sorted ``(u, v, m)`` triples from multiplicities keyed by ``u * n + v``,
    ``u < v < n``; the keys sort as the pairs do."""
    return tuple((key // n, key % n, merged[key]) for key in sorted(merged))


def cycle(length: int) -> Graph:
    """The cycle on ``length`` >= 3 vertices."""
    if length < 3:
        raise ValueError(f"cycle length must be >= 3, got {length}")
    rim = tuple((i, i + 1, 1) for i in range(1, length - 1))
    return Graph._from_canonical(length, ((0, 1, 1), (0, length - 1, 1), *rim))


def path(n_vertices: int) -> Graph:
    """The path on ``n_vertices`` >= 1 vertices; one vertex means no edges."""
    if n_vertices < 1:
        raise ValueError(f"path needs at least one vertex, got {n_vertices}")
    edges = tuple((i, i + 1, 1) for i in range(n_vertices - 1))
    return Graph._from_canonical(n_vertices, edges)


def complete(n_vertices: int) -> Graph:
    """The complete graph on ``n_vertices`` >= 1 vertices."""
    if n_vertices < 1:
        raise ValueError(f"complete graph needs at least one vertex, got {n_vertices}")
    return Graph._from_canonical(
        n_vertices, tuple((u, v, 1) for u, v in combinations(range(n_vertices), 2))
    )


def format_edge_list(g: Graph) -> str:
    """Serialize to the edge-list text format.

    First line ``n <vertex_count>``, then one edge per line as ``u v`` (or
    ``u v m`` when the multiplicity exceeds 1), in canonical order.  The
    output round-trips bit-exactly through `parse_edge_list`.
    """
    lines = [f"n {g.n_vertices}"]
    for u, v, m in g.edges:
        lines.append(f"{u} {v}" if m == 1 else f"{u} {v} {m}")
    return "\n".join(lines) + "\n"


def read_text_bounded(path: str | Path, limit: int) -> str:
    """The UTF-8 text of a file, read only up to one byte past ``limit``: a
    larger (or endless) file raises ValueError naming the path.  The file
    is opened without blocking, so a FIFO with no writer reads as empty
    instead of waiting for one."""
    data = bytearray()
    with open(path, "rb", opener=lambda p, flags: os.open(p, flags | os.O_NONBLOCK)) as handle:
        os.set_blocking(handle.fileno(), True)
        # in blocks, as read(limit + 1) would allocate limit + 1 bytes every call;
        # the last block ends at limit + 1 bytes, after which read(0) is empty
        while block := handle.read(min(1 << 16, limit + 1 - len(data))):
            data += block
    if len(data) > limit:
        raise ValueError(f"{path}: larger than {limit:,} bytes")
    return data.decode("utf-8")


def parse_edge_list(text: str) -> Graph:
    """Parse the edge-list text format.

    Lines starting with ``#`` and blank lines are skipped.  The first
    meaningful line must be ``n <vertex_count>``; the rest are ``u v`` or
    ``u v multiplicity``.  Raises `EdgeListError` carrying the offending
    line number.

    Text whose first line is the header and whose other characters are
    ASCII digits, spaces and newlines is parsed in bulk by numpy.  Any
    other text, and any text the bulk parse cannot accept whole, is parsed
    line by line from the top, which alone reports errors.
    """
    g = _parse_bulk(text)
    return g if g is not None else _parse_lines(text)


def _parse_bulk(text: str) -> Graph | None:
    """The graph of a plain edge list, or None to leave the text to
    `_parse_lines`: when it holds anything but digits, spaces and newlines
    after its header line, or fails a line's check."""
    start = text.find("\n") + 1
    if not start or not text.isascii():
        return None
    # only spaces besides "n" and the count, as the line loop splits lines at
    # other whitespace (\v, \f, \x1c...); 18 digits stay below 2^63
    head = re.fullmatch(r" *n +([0-9]{1,18}) *", text[: start - 1])
    if head is None:
        return None
    n = int(head[1])
    body = text.encode("ascii")[start:]
    # n < 2^31 keeps the pair keys below n^2 < 2^62
    if n >= 1 << 31 or body.translate(None, b"0123456789 \n"):
        return None
    blocks = []
    lo = 0
    # in blocks of whole lines of about 256 KiB, so that the per-token int64
    # arrays stay a few MB at any length; once for an empty body
    while lo < len(body) or not blocks:
        hi = body.find(b"\n", lo + (1 << 18)) + 1 or len(body)
        blocks.append(_parse_block(body[lo:hi], n))
        if blocks[-1] is None:
            return None
        lo = hi
    u, v, m = (np.concatenate(column) for column in zip(*blocks))
    if len(m) and int(m.max()) * len(m) >= 1 << 62:  # the int64 sums could wrap
        return None
    # a stable sort, whose code is a third the size of the default's
    keys = u * n + v
    order = np.argsort(keys, kind="stable")
    runs = np.flatnonzero(np.diff(keys[order], prepend=-1))  # where each key starts
    m = np.add.reduceat(m[order], runs)
    order = order[runs]
    return Graph._from_canonical(n, tuple(zip(u[order].tolist(), v[order].tolist(), m.tolist())))


def _parse_block(block: bytes, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The edges ``u < v`` with multiplicity ``m`` on the lines of ``block``,
    whole lines of digits, spaces and newlines, as arrays ``u, v, m``; None
    when a line is not a valid edge on ``n`` vertices."""
    # the body holds no sign, so a -1 ends each line; a token past int64
    # reads as 2^63 - 1 (strtoll saturates), which the range and sum
    # checks refuse
    tokens = np.fromstring(block.replace(b"\n", b" -1 ") + b" -1", dtype=np.int64, sep=" ")
    ends = np.flatnonzero(tokens < 0)
    count = np.diff(ends, prepend=-1) - 1
    first = (ends - count)[count > 0]  # blank lines hold no token
    count = count[count > 0]
    if not len(first):
        return first, first, first
    if count.min() < 2 or count.max() > 3:
        return None
    u, v = tokens[first], tokens[first + 1]
    m = np.where(count == 3, tokens[first + 2], 1)
    u, v = np.minimum(u, v), np.maximum(u, v)
    # a self-loop leaves v - u = 0
    if v.max() >= n or (v - u).min() < 1 or m.min() < 1:
        return None
    return u, v, m


def _parse_lines(text: str) -> Graph:
    """`parse_edge_list` one line at a time, with its line-numbered errors."""
    n_vertices: int | None = None
    merged: dict[int, int] = {}  # keyed by u * n_vertices + v, u < v
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0][0] == "#":
            continue
        if n_vertices is None:
            if len(tokens) != 2 or tokens[0] != "n":
                raise EdgeListError(line_no, f"expected 'n <vertex_count>', got {raw.strip()!r}")
            try:
                n_vertices = int(tokens[1])
            except ValueError:
                raise EdgeListError(line_no, f"bad vertex count {tokens[1]!r}") from None
            if n_vertices < 0:
                raise EdgeListError(line_no, "vertex count must be nonnegative")
            continue
        if len(tokens) == 2:
            tokens.append("1")
        elif len(tokens) != 3:
            raise EdgeListError(line_no, f"expected 'u v [multiplicity]', got {raw.strip()!r}")
        try:
            u, v, m = map(int, tokens)
        except ValueError:
            raise EdgeListError(line_no, f"non-integer token in {raw.strip()!r}") from None
        if u == v:
            raise EdgeListError(line_no, f"self-loop at vertex {u}")
        if not (0 <= u < n_vertices and 0 <= v < n_vertices):
            raise EdgeListError(line_no, f"edge ({u}, {v}) outside vertex range")
        if m < 1:
            raise EdgeListError(line_no, f"multiplicity {m} must be >= 1")
        key = u * n_vertices + v if u < v else v * n_vertices + u
        merged[key] = merged.get(key, 0) + m
    if n_vertices is None:
        raise EdgeListError(1, "empty input: missing 'n <vertex_count>' line")
    return Graph._from_canonical(n_vertices, _canonical(n_vertices, merged))
