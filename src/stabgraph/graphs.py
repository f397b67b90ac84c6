"""Simple graphs and local complementation.

Vertices are numbered 1..n on every public interface (and in the file
formats); internally they index bit positions 0..n-1. Graphs are immutable:
every transformation returns a new graph.
"""

import re
from itertools import compress
from operator import lt

from . import gf2
from .errors import MAX_QUBITS, ParseError, _decimal, _Record
from .gf2 import BitMatrix


class Graph(_Record):
    """Simple undirected graph held as a symmetric, zero-diagonal adjacency matrix.

    ``Graph(adj)`` validates its input; transformations whose output is a
    graph by construction build it with ``Graph._trusted(adj)`` instead.
    """

    __slots__ = ("adj",)

    def __init__(self, adj):
        if not adj.is_square():
            raise ValueError("adjacency matrix must be square")
        if not gf2.is_symmetric(adj):
            raise ValueError("adjacency matrix must be symmetric")
        if gf2.diagonal(adj):
            raise ValueError("adjacency matrix must have zero diagonal (no self-loops)")
        self._store((adj,))

    @property
    def n(self):
        return self.adj.rows

    def _key(self):  # a square adjacency is fixed by its rows
        return self.adj.row_ints

    def edges(self):
        """Sorted list of (i, j) edge pairs with i < j, 1-based."""
        return [(int(i), int(j)) for i, above in _labels_above(self) for j in above]

    def __repr__(self):
        return f"Graph(n={self.n}, edges={self.edges()})"


def _check_vertex(n, i):
    """Validate a 1-based vertex id and return its 0-based index."""
    if not 1 <= i <= n:
        raise ValueError(f"vertex {i} out of range 1..{n}")
    return i - 1


def local_complement(g, i):
    """Complement the induced subgraph on the neighborhood of vertex i.

    For every pair of neighbors j, k of i the edge {j, k} is toggled, one row
    XOR against the neighborhood mask per neighbor. Toggling inside a
    neighborhood keeps the matrix symmetric with zero diagonal, so the result
    is built without re-validation.
    """
    n = g.adj.rows
    rows = list(g.adj.row_ints)
    _complement_rows(rows, _check_vertex(n, i))
    return Graph._trusted(BitMatrix._trusted(n, n, tuple(rows)))


def _complement_rows(rows, idx):
    """Local complementation at 0-based vertex idx of the adjacency rows, in place."""
    mask = bits = rows[idx]
    while bits:
        low = bits & -bits
        rows[low.bit_length() - 1] ^= mask ^ low
        bits ^= low


def _labels_above(g):
    """Per vertex, in order, its label i and the sorted labels j > i of its neighbours."""
    labels = list(map(str, range(1, g.n + 1)))
    for i, row in enumerate(g.adj.row_ints, start=1):
        above = gf2.to01(row >> i, g.n - i).encode().translate(gf2._SELECTORS)
        yield labels[i - 1], list(compress(labels[i:], above))


def format_edge_list(g):
    """Edge-list text: line 1 is "n", then one "i j" line per edge (i < j)."""
    rows = (f"{i} " + f"\n{i} ".join(above) for i, above in _labels_above(g) if above)
    return "\n".join([str(g.n), *rows]) + "\n"


# the writer's shape, which parse_edge_list decodes per file; other text, every
# error included, goes through the line loop. re compiles it on first use, not on import.
_EDGE_LIST = r"[0-9]+(?:\n[0-9]+ [0-9]+)*\n?"


def parse_edge_list(text):
    """Inverse of :func:`format_edge_list`; '#' comments and blank lines allowed."""
    g = _decode_edges(text.split()) if re.fullmatch(_EDGE_LIST, text) else None
    return g if g is not None else _parse_edge_lines(text)


def _decode_edges(words):
    """The graph of an edge list's words, or None where the line loop must report."""
    n = int(words[0]) if len(words[0]) <= 6 else 0  # longer: too large or zero-padded
    if not 1 <= n <= MAX_QUBITS:
        return None
    index = dict(zip(map(str, range(1, n + 1)), range(n)))
    ends = list(map(index.get, words[1:]))  # None: out of range or not written canonically
    heads, tails = ends[::2], ends[1::2]
    if None in ends or not all(map(lt, heads, tails)):
        return None
    rows = [0] * n
    for i, j in zip(heads, tails):
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    if sum(map(int.bit_count, rows)) < 2 * len(heads):  # a duplicate edge sets no new bit
        return None
    return Graph._trusted(BitMatrix._trusted(n, n, tuple(rows)))


def _parse_edge_lines(text):
    """The line-by-line reader of :func:`parse_edge_list`, which reports every error."""
    n = None
    rows = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if n is None:
            try:
                n = _decimal(line)
            except ValueError:
                raise ParseError("expected vertex count", line=lineno) from None
            if not 1 <= n <= MAX_QUBITS:
                raise ParseError(f"vertex count must be in 1..{MAX_QUBITS}", line=lineno)
            rows = [0] * n
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected an edge 'i j'", line=lineno)
        a, b = parts
        try:
            if not (a.isdigit() and b.isdigit() and line.isascii()):  # _decimal, inlined
                raise ValueError(line)
            i, j = int(a), int(b)
        except ValueError:
            raise ParseError("expected two vertex ids", line=lineno) from None
        if not (1 <= i <= n and 1 <= j <= n):
            raise ParseError(f"vertex out of range 1..{n}", line=lineno)
        if i >= j:
            raise ParseError("edges must be written with i < j", line=lineno)
        if rows[i - 1] >> (j - 1) & 1:
            raise ParseError(f"duplicate edge {i} {j}", line=lineno)
        rows[i - 1] |= 1 << (j - 1)
        rows[j - 1] |= 1 << (i - 1)
    if n is None:
        raise ParseError("empty graph file", line=1)
    return Graph._trusted(BitMatrix._trusted(n, n, tuple(rows)))


def to_dot(g):
    """Undirected DOT text with vertices labeled 1..n."""
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(1, g.n + 1))
    lines.extend(f"  {i} -- {j};" for i, above in _labels_above(g) for j in above)
    lines.append("}")
    return "\n".join(lines) + "\n"
