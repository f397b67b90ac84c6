"""Simple graphs and local complementation.

Vertices are numbered 1..n on every public interface (and in the file
formats); internally they index bit positions 0..n-1. Graphs are immutable:
every transformation returns a new graph.
"""

from . import gf2
from .errors import MAX_QUBITS, ParseError, _decimal
from .gf2 import BitMatrix


class Graph:
    """Simple undirected graph held as a symmetric, zero-diagonal adjacency matrix.

    ``Graph(adj)`` validates its input; transformations whose output is a
    graph by construction build it with :meth:`_trusted` instead.
    """

    __slots__ = ("n", "adj")

    def __init__(self, adj):
        if not adj.is_square():
            raise ValueError("adjacency matrix must be square")
        if not gf2.is_symmetric(adj):
            raise ValueError("adjacency matrix must be symmetric")
        if gf2.diagonal(adj):
            raise ValueError("adjacency matrix must have zero diagonal (no self-loops)")
        object.__setattr__(self, "n", adj.rows)
        object.__setattr__(self, "adj", adj)

    @classmethod
    def _trusted(cls, adj):
        """Wrap an adjacency matrix that is symmetric with zero diagonal by construction."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", adj.rows)
        object.__setattr__(g, "adj", adj)
        return g

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    def edges(self):
        """Sorted list of (i, j) edge pairs with i < j, 1-based."""
        out = []
        for a in range(self.n):
            bits = self.adj.row_ints[a] >> (a + 1)
            b = a + 1
            while bits:
                if bits & 1:
                    out.append((a + 1, b + 1))
                bits >>= 1
                b += 1
        return out

    def __eq__(self, other):
        return isinstance(other, Graph) and self.adj == other.adj

    def __hash__(self):
        return hash(self.adj)

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
    idx = _check_vertex(g.n, i)
    mask = g.adj.row_ints[idx]
    rows = list(g.adj.row_ints)
    bits = mask
    while bits:
        low = bits & -bits
        j = low.bit_length() - 1
        rows[j] ^= mask & ~low
        bits ^= low
    return Graph._trusted(BitMatrix(g.n, g.n, rows))


def format_edge_list(g):
    """Edge-list text: line 1 is "n", then one "i j" line per edge (i < j)."""
    lines = [str(g.n)]
    lines.extend(f"{i} {j}" for i, j in g.edges())
    return "\n".join(lines) + "\n"


def parse_edge_list(text):
    """Inverse of :func:`format_edge_list`; '#' comments and blank lines allowed."""
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
            if not (a.isdigit() and b.isdigit() and line.isascii()):  # _decimal, inlined: hot loop
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
    return Graph._trusted(BitMatrix(n, n, rows))


def to_dot(g):
    """Undirected DOT text with vertices labeled 1..n."""
    lines = ["graph G {"]
    lines.extend(f"  {v};" for v in range(1, g.n + 1))
    lines.extend(f"  {i} -- {j};" for i, j in g.edges())
    lines.append("}")
    return "\n".join(lines) + "\n"
