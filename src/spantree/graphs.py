"""Undirected multigraphs as immutable values.

Vertices are the integers ``0..n_vertices-1``.  Edges are unordered pairs
carrying an integer multiplicity >= 1; self-loops are rejected outright
because a loop can never lie on a spanning tree.  A graph is never changed
after it is built, so instances can be shared freely between threads.

A graph stores its edges as three read-only numpy columns, endpoints
``u < v`` and multiplicity ``m``, one entry per vertex pair, sorted by
pair; int64 until a value reaches 2^62, Python ints from there on.  The
property ``edges`` builds the tuple of ``(u, v, m)`` triples on access for
callers; the package itself reads the columns.

Multiplicities are the edge-list format's third column, and τ counts each
parallel copy as its own edge (a doubled edge has two spanning trees).  All
the named constructors (`cycle`, `path`, `complete`) emit simple graphs.

Public ``Graph(...)`` and the line loop of `parse_edge_list` check and merge
every edge through one `_add_edge`: it refuses a self-loop, an endpoint
outside 0..n-1 and a multiplicity below 1, and sums multiplicities on the
integer pair key u * n + v, which `_columns` sorts into the columns.  Code
that holds canonical columns skips that through `_graph`, called only by
`complete` (from ``np.triu_indices``), the two edge-list parsers and
`_cactus`; the last lays out every other graph built here, rings glued at
vertex 0 and a path on from it: `cycle`, `path`, flowers and witnesses.  An
edge list of plain digits, spaces and newlines is parsed in bulk by numpy
instead, which reads every token with one ``np.fromstring``, sorts the keys
and, when a pair repeats, sums each run of equal keys: the vectorised image
of the same check and merge, which the tests compare with the line loop,
and its sorted columns are the graph's.  Either way the result equals what
``Graph(...)`` would make of the same edges, so equality and hashing are
unaffected.
"""

from __future__ import annotations

import operator
import os
import re
from itertools import chain, repeat
from pathlib import Path
from typing import Sequence

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


class Graph:
    """A multigraph on ``n_vertices`` labeled vertices.

    The edges are stored canonically as three read-only columns ``u``,
    ``v`` and ``m``: one entry per vertex pair with ``u < v``, sorted
    lexicographically, ``m`` its multiplicity.  Each column is int64, or an
    object array of Python ints once one of its values reaches 2^62.  The
    constructor accepts ``(u, v)`` pairs (multiplicity 1) or ``(u, v, m)``
    triples with endpoints in either order and normalizes; repeated entries
    for the same pair have their multiplicities summed.  The vertex count,
    endpoints and multiplicities may be any integers, numpy ones included.
    Equality and hashing follow the canonical form.
    """

    __slots__ = ("n_vertices", "u", "v", "m")

    def __new__(cls, n_vertices: int, edges: Sequence[Sequence[int]] = ()) -> Graph:
        try:
            n = operator.index(n_vertices)
        except TypeError:
            raise ValueError(f"vertex count {n_vertices!r} is not an integer") from None
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        merged: dict[int, int] = {}
        for entry in edges:
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
            _add_edge(merged, n, u, v, m)
        return _graph(n, *_columns(n, merged))

    @property
    def edges(self) -> tuple[tuple[int, int, int], ...]:
        """The canonical ``(u, v, multiplicity)`` triples, built on access."""
        return tuple(zip(self.u.tolist(), self.v.tolist(), self.m.tolist()))

    @property
    def n_edges(self) -> int:
        """Number of edges counted with multiplicity."""
        return sum(self.m.tolist())

    def _key(self) -> tuple:
        return self.n_vertices, *(
            c.tobytes() if c.dtype == np.int64 else tuple(c) for c in (self.u, self.v, self.m)
        )

    def __eq__(self, other: object) -> bool:
        return self._key() == other._key() if isinstance(other, Graph) else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        columns = ", ".join(f"{c}={getattr(self, c).tolist()}" for c in "uvm")
        return f"Graph(n_vertices={self.n_vertices}, {columns})"

    def __reduce__(self) -> tuple:
        return _graph, (self.n_vertices, self.u, self.v, self.m)

    def __setattr__(self, *_: object) -> None:
        raise AttributeError("a Graph cannot be changed")

    __delattr__ = __setattr__


def _graph(n: int, u: np.ndarray, v: np.ndarray, m: np.ndarray) -> Graph:
    """The graph on ``n`` vertices with canonical columns ``u, v, m``, which
    it makes read-only, unchecked: the caller guarantees what ``Graph(...)``
    would establish, a nonnegative ``n`` and pairs ``0 <= u < v < n``
    strictly ascending with ``m >= 1``, in columns that are int64 unless a
    value reaches 2^62."""
    u.setflags(write=False)
    v.setflags(write=False)
    m.setflags(write=False)
    g = object.__new__(Graph)
    object.__setattr__(g, "n_vertices", n)
    object.__setattr__(g, "u", u)
    object.__setattr__(g, "v", v)
    object.__setattr__(g, "m", m)
    return g


def _add_edge(merged: dict[int, int], n: int, u: int, v: int, m: int) -> None:
    """Add ``m`` copies of the edge ``(u, v)`` on ``n`` vertices to ``merged``
    under the key ``u * n + v``, ``u < v``; ValueError for a self-loop, an
    endpoint outside ``0..n-1`` or a multiplicity below 1."""
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError(f"edge ({u}, {v}) outside vertex range")
    if m < 1:
        raise ValueError(f"multiplicity {m} must be >= 1")
    key = u * n + v if u < v else v * n + u
    merged[key] = merged.get(key, 0) + m


def _columns(n: int, merged: dict[int, int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Canonical columns ``u, v, m`` from multiplicities keyed by ``u * n +
    v``, ``u < v < n``; the keys sort as the pairs do."""
    keys = sorted(merged)
    columns = ([k // n for k in keys], [k % n for k in keys], [merged[k] for k in keys])
    return tuple(np.array(c, np.int64 if max(c, default=0) < 1 << 62 else object) for c in columns)


def cycle(length: int) -> Graph:
    """The cycle on ``length`` >= 3 vertices."""
    return _cactus((length,), length)


def path(n_vertices: int) -> Graph:
    """The path on ``n_vertices`` >= 1 vertices; one vertex means no edges."""
    if n_vertices < 1:
        raise ValueError(f"path needs at least one vertex, got {n_vertices}")
    return _cactus((), n_vertices)


def _cactus(rings: Sequence[int], n: int) -> Graph:
    """Cycles of the given lengths glued at vertex 0, then a path from vertex 0
    on through the remaining vertices to n - 1, for n >= sum(rings) -
    len(rings) + 1; ValueError for a ring shorter than 3.

    Each ring is the hub 0 and a run of consecutive vertices start..end, and
    the path is the run after the last ring: spokes (0, v) join the hub to
    each run's start and each ring's end, rungs (i, i + 1) join neighbours
    within a run.  Spokes sort before rungs and both ascend, so the pairs
    are sorted, and distinct since each ring has x >= 3 vertices.
    """
    spokes: list[int] = []  # the far ends of the spokes
    lows: list[range] = []  # the rungs of each run by their lower ends
    start = 1
    for x in rings:
        if x < 3:
            raise ValueError(f"cycle length must be >= 3, got {x}")
        end = start + x - 2
        spokes += (start, end)
        lows.append(range(start, end))
        start = end + 1
    if start < n:
        spokes.append(start)
        lows.append(range(start, n - 1))
    e = len(spokes) + sum(map(len, lows))
    highs = chain.from_iterable(range(r.start + 1, r.stop + 1) for r in lows)
    # both endpoint columns as the halves of one block, read from the ranges
    ends = chain(repeat(0, len(spokes)), chain.from_iterable(lows), spokes, highs)
    uv = np.fromiter(ends, np.int64, 2 * e)
    m = np.empty(e, dtype=np.int64)
    m.fill(1)  # np.ones takes longer on the short columns of a witness
    return _graph(n, uv[:e], uv[e:], m)


def complete(n_vertices: int) -> Graph:
    """The complete graph on ``n_vertices`` >= 1 vertices."""
    if n_vertices < 1:
        raise ValueError(f"complete graph needs at least one vertex, got {n_vertices}")
    # the pairs in lexicographic order
    u, v = (c.astype(np.int64, copy=False) for c in np.triu_indices(n_vertices, 1))
    return _graph(n_vertices, u, v, np.ones(len(u), dtype=np.int64))


def format_edge_list(g: Graph) -> str:
    """Serialize to the edge-list text format.

    First line ``n <vertex_count>``, then one edge per line as ``u v`` (or
    ``u v m`` when the multiplicity exceeds 1), in canonical order.  The
    output round-trips bit-exactly through `parse_edge_list`.
    """
    lines = [f"n {g.n_vertices}"]
    for u, v, m in zip(g.u.tolist(), g.v.tolist(), g.m.tolist()):
        lines.append(f"{u} {v}" if m == 1 else f"{u} {v} {m}")
    return "\n".join(lines) + "\n"


def read_text_bounded(path: str | Path, limit: int) -> str:
    """The UTF-8 text of a file, read only up to one byte past ``limit``: a
    larger (or endless) file, or one that is not UTF-8, raises ValueError
    naming the path.  The file is opened without blocking, so a FIFO with
    no writer reads as empty instead of waiting for one, then read with
    plain ``os.read`` calls on the descriptor, which cost less than a
    buffered file object; an OSError names the path, as ``open`` would."""
    data = bytearray()
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        os.set_blocking(fd, True)
        # in blocks, as read(limit + 1) would allocate limit + 1 bytes every call;
        # the last block ends at limit + 1 bytes, after which read(0) is empty
        while block := os.read(fd, min(1 << 16, limit + 1 - len(data))):
            data += block
    except OSError as exc:  # a directory fails here, and os.read names no file
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    finally:
        os.close(fd)
    if len(data) > limit:
        raise ValueError(f"{path}: larger than {limit:,} bytes")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 ({exc})") from None


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
    u, v, m = blocks[0] if len(blocks) == 1 else (np.concatenate(column) for column in zip(*blocks))
    if len(m) and int(m.max()) * len(m) >= 1 << 62:  # the int64 sums could wrap
        return None
    # the default sort kind: on 3,000 keys below 90^2 it takes 35 us against
    # the stable kind's 138, for 256 KiB of resident code pages against 128
    # (the RssFile step of /proc/self/status on its first call, numpy 2.4)
    keys = u * n + v
    order = np.argsort(keys)
    keys = keys[order]
    if (keys[1:] == keys[:-1]).any():  # some pair repeats: sum each run of equal keys
        runs = np.flatnonzero(np.diff(keys, prepend=-1))  # where each key starts
        m = np.add.reduceat(m[order], runs)
        order = order[runs]
    else:
        m = m[order]
    return _graph(n, u[order], v[order], m)


def _parse_block(block: bytes, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The edges ``u < v`` with multiplicity ``m`` on the lines of ``block``,
    whole lines of digits, spaces and newlines, as arrays ``u, v, m``; None
    when a line is not a valid edge on ``n`` vertices."""
    # the body holds no sign, so a -1 ends each line; a token past int64
    # reads as 2^63 - 1 (strtoll saturates), which the range and sum
    # checks refuse
    tokens = np.fromstring(block.replace(b"\n", b" -1 ") + b" -1", dtype=np.int64, sep=" ")
    ends = np.flatnonzero(tokens < 0)
    count = ends.copy()  # each line's tokens: its end less the line before's, less 1
    count[1:] -= ends[:-1] + 1
    kept = count > 0  # blank lines hold no token
    first = (ends - count)[kept]
    count = count[kept]
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
    merged: dict[int, int] = {}
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
        try:
            _add_edge(merged, n_vertices, u, v, m)
        except ValueError as exc:
            raise EdgeListError(line_no, str(exc)) from None
    if n_vertices is None:
        raise EdgeListError(1, "empty input: missing 'n <vertex_count>' line")
    return _graph(n_vertices, *_columns(n_vertices, merged))
