"""Local Clifford operations in the binary symplectic picture.

A local Clifford operation is a 2n x 2n symplectic matrix whose four n x n
blocks are diagonal; only the four diagonals are stored, as n-bit vectors
(a, b, c, d), and computed on as n-bit ints. Per qubit i the 2x2 matrix
[[a_i, b_i], [c_i, d_i]] must be invertible, i.e. a_i d_i + b_i c_i = 1,
which is equivalent to the full 2n x 2n matrix preserving the symplectic
form.
"""

from . import decomposition, gf2, graphs, stabilizer
from .errors import MAX_QUBITS, NotInDomainError, ParseError, _decimal, _Record
from .gf2 import BitMatrix, BitVec


class InvalidCliffordError(ValueError):
    """The four diagonals fail per-qubit invertibility."""


class LocalCliffordOp(_Record):
    """Four block diagonals (a, b, c, d), one bit of each per qubit."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        n = a.n
        if not (b.n == n and c.n == n and d.n == n):
            raise ValueError("diagonal lengths differ")
        singular = ~((a.bits & d.bits) ^ (b.bits & c.bits)) & ((1 << n) - 1)
        if singular:
            bad = [i + 1 for i in range(n) if singular >> i & 1]
            raise InvalidCliffordError(f"qubit blocks not invertible at {bad}")
        self._store((a, b, c, d))

    @property
    def n(self):
        return self.a.n

    def __repr__(self):
        a, b, c, d = (gf2.to01(v.bits, self.n) for v in (self.a, self.b, self.c, self.d))
        return f"LocalCliffordOp(a={a}, b={b}, c={c}, d={d})"


def _op(n, a, b, c, d):
    """The operation with diagonals a, b, c, d given as n-bit ints, validated."""
    return LocalCliffordOp(BitVec(n, a), BitVec(n, b), BitVec(n, c), BitVec(n, d))


def apply_to_stabilizer(q, stab):
    """Left-multiply a generator matrix by the operation; returns the raw 2n x n matrix.

    Z-row i of the result is a_i * Z_i + b_i * X_i, X-row i is
    c_i * Z_i + d_i * X_i. The result always spans a valid stabilizer
    subspace but is returned unwrapped because callers typically keep
    transforming it.
    """
    n = stab.n
    if q.n != n:
        raise ValueError("qubit count mismatch")
    a, b, c, d = q.a.bits, q.b.bits, q.c.bits, q.d.bits
    rows = list(enumerate(zip(stab.s.row_ints[:n], stab.s.row_ints[n:])))
    out_z = [(z if a >> i & 1 else 0) ^ (x if b >> i & 1 else 0) for i, (z, x) in rows]
    out_x = [(z if c >> i & 1 else 0) ^ (x if d >> i & 1 else 0) for i, (z, x) in rows]
    return BitMatrix._trusted(2 * n, n, tuple(out_z + out_x))


def graph_action(q, g):
    """Act on a graph; returns the image graph or raises NotInDomainError.

    The image adjacency is (A.adj + B)(C.adj + D)^-1 when C.adj + D is
    invertible and that matrix has zero diagonal. The decomposition walk
    decides both and ends at the image (:mod:`stabgraph.decomposition`).
    """
    rows = tuple(decomposition._act(q, g)[1])
    return graphs.Graph._trusted(BitMatrix._trusted(g.n, g.n, rows))


def _maps(q, g, h):
    """Whether q maps graph g onto graph h: A.g + B = h.(C.g + D), one product, no inversion.

    Exact because q is invertible per qubit: q.[g; I] then has full column
    rank, so the equality forces C.g + D to be invertible and h, which has a
    zero diagonal, to be the image (A.g + B)(C.g + D)^-1.
    """
    rows = apply_to_stabilizer(q, stabilizer.from_graph(g)).row_ints
    return gf2.mat_mul(h.adj, BitMatrix._trusted(g.n, g.n, rows[g.n :])).row_ints == rows[: g.n]


def complete_from_cd(g, c, d):
    """The unique operation with lower diagonals (c, d) that keeps g in-domain.

    Requires C.adj + D invertible, or the decomposition walk raises
    gf2.SingularError. Per qubit there are exactly two (a_i, b_i) choices
    keeping the 2x2 block invertible, and they differ by (c_i, d_i).
    Switching between them adds row i of C.adj + D to row i of A.adj + B, so
    it flips only entry (i, i) of the image. The start (a, b) = (d & ~c, c)
    is valid on every qubit; the decomposition walk of the start operation
    ends with the image's diagonal b', and the start is switched where it is 1.
    """
    if c.n != g.n or d.n != g.n:
        raise ValueError("diagonal length mismatch")
    a, b, c, d = d.bits & ~c.bits, c.bits, c.bits, d.bits
    flip = decomposition._walk(g, a, b, c, d)[1]
    return _op(g.n, a ^ (c & flip), b ^ (d & flip), c, d)


def format_clifford(q):
    """Text form: line 1 is "n", then one "a b c d" bit line per qubit."""
    diagonals = (gf2.to01(v.bits, q.n) for v in (q.a, q.b, q.c, q.d))
    return "\n".join([str(q.n), *map(" ".join, zip(*diagonals))]) + "\n"


def parse_clifford(text):
    """Inverse of :func:`format_clifford`; raises ParseError with line info.

    The qubit lines, last first, are joined with a word "|" between each two
    and split once: each line holds four bits exactly when every word is one
    character, every fifth a "|" and the other 4n '0' or '1'. A diagonal is
    then a stride slice, top bit first; only a failed check seeks the bad line.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("empty clifford file", line=1)
    try:
        n = _decimal(lines[0].strip())
    except ValueError:
        raise ParseError("expected qubit count", line=1) from None
    if not 1 <= n <= MAX_QUBITS:
        raise ParseError(f"qubit count must be in 1..{MAX_QUBITS}", line=1)
    if len(lines) - 1 < n:
        raise ParseError(f"expected {n} qubit lines, found {len(lines) - 1}", line=len(lines))
    words = " | ".join(lines[n:0:-1]).split()
    bits = "".join(words)
    ok = len(words) == len(bits) == 5 * n - 1 and bits[4::5] == "|" * (n - 1)
    if not ok or bits.count("0") + bits.count("1") != 4 * n:
        rows = (line.split() for line in lines[1 : n + 1])
        bad = next(k for k, row in enumerate(rows, 2) if len(row) != 4 or {*row} - {"0", "1"})
        raise ParseError("expected four bits 'a b c d'", line=bad)
    for extra in range(1 + n, len(lines)):
        if lines[extra].strip():
            raise ParseError("trailing content after qubit lines", line=extra + 1)
    try:
        return _op(n, *(int(bits[k::5], 2) for k in range(4)))
    except InvalidCliffordError as exc:
        raise ParseError(str(exc), line=2) from exc
