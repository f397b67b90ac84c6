"""Exact bit-packed linear algebra over GF(2).

Vectors and matrix rows are packed into Python integers: bit ``k`` of the
integer is coordinate ``k``, so a row XOR is a single arbitrary-precision
integer XOR (CPython stores the integer as an array of machine words, which
makes any width fast; widths up to one word are a single-word operation).

:class:`BitVec` and :class:`BitMatrix` are immutable records
(:class:`errors._Record`); every operation returns a new value. The public
constructors check their input, and the kernels here build their results,
valid by construction, with ``BitMatrix._trusted(rows, cols, row_tuple)``.
They make the tuple from a list: one grown from a generator is reallocated
as it grows, which fragments the heap (about 0.5 MB more peak RSS over an
equiv bench run).
"""

from functools import reduce
from itertools import compress
from operator import xor

from .errors import MAX_QUBITS, ParseError, _decimal, _Record

_SELECTORS = bytes.maketrans(b"01", b"\x00\x01")  # digits to falsy/truthy bytes


class SingularError(Exception):
    """C.adj + D is singular: raised by the decomposition walk, and so by ``complete_from_cd``."""


class BitVec(_Record):
    """Immutable n-bit vector over GF(2): one diagonal of a LocalCliffordOp.

    Bits at positions >= ``n`` are zero; the kernels here use plain ints.
    """

    __slots__ = ("n", "bits")

    def __init__(self, n, bits=0):
        if n < 0:
            raise ValueError("length must be >= 0")
        if bits < 0 or bits >> n:
            raise ValueError("bits set beyond vector length")
        self._store((n, bits))

    def __repr__(self):
        return f"BitVec({to01(self.bits, self.n)!r})"


class BitMatrix(_Record):
    """Immutable dense matrix over GF(2); each row is one packed integer."""

    __slots__ = ("rows", "cols", "row_ints")

    def __init__(self, rows, cols, row_ints):
        if rows < 0 or cols < 0:
            raise ValueError("dimensions must be >= 0")
        row_ints = tuple(row_ints)
        if len(row_ints) != rows:
            raise ValueError(f"expected {rows} rows, got {len(row_ints)}")
        for r in row_ints:
            if r < 0 or r >> cols:
                raise ValueError("row bits set beyond column count")
        self._store((rows, cols, row_ints))

    def is_square(self):
        return self.rows == self.cols

    def __repr__(self):
        body = ",".join(to01(r, self.cols) for r in self.row_ints)
        return f"BitMatrix({self.rows}x{self.cols}:[{body}])"


def to01(bits, n):
    """The n-bit vector ``bits`` as '0'/'1' digits, coordinate 0 first."""
    # the leading 1 pads to exactly n digits (n = 0 included); reversed it is dropped
    return format(bits | 1 << n, "b")[:0:-1]


def identity(n):
    return BitMatrix._trusted(n, n, tuple([1 << i for i in range(n)]))


def mat_mul(a, b):
    """Exact GF(2) product a.b.

    Row i of the result is the XOR of the rows of ``b`` selected by the set
    bits of row i of ``a``, read as binary digits against b's rows reversed.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: {a.cols} columns vs {b.rows} rows")
    brows = b.row_ints[::-1]
    spec = f"0{b.rows}b"
    out = [
        reduce(xor, compress(brows, format(ra, spec).encode().translate(_SELECTORS)), 0)
        for ra in a.row_ints
    ]
    return BitMatrix._trusted(a.rows, b.cols, tuple(out))


def transpose(m):
    if not (m.rows and m.cols):  # format(0, "00b") is "0", one digit too many
        return BitMatrix._trusted(m.cols, m.rows, (0,) * m.cols)
    spec = f"0{m.cols}b"
    digits = [format(r, spec) for r in reversed(m.row_ints)]
    out = [int("".join(col), 2) for col in zip(*digits)]
    return BitMatrix._trusted(m.cols, m.rows, tuple(reversed(out)))


def diagonal(m):
    """The diagonal of a square matrix as an int, bit i from entry (i, i)."""
    if not m.is_square():
        raise ValueError("diagonal of a non-square matrix")
    acc = 0
    for i, row in enumerate(m.row_ints):
        acc |= row & 1 << i
    return acc


def set_diagonal_zero(m):
    if not m.is_square():
        raise ValueError("diagonal of a non-square matrix")
    rows = tuple([row & ~(1 << i) for i, row in enumerate(m.row_ints)])
    return BitMatrix._trusted(m.rows, m.cols, rows)


def is_symmetric(m):
    return m.is_square() and m == transpose(m)


def hstack(a, b):
    if a.rows != b.rows:
        raise ValueError("row count mismatch")
    rows = tuple([ra | (rb << a.cols) for ra, rb in zip(a.row_ints, b.row_ints)])
    return BitMatrix._trusted(a.rows, a.cols + b.cols, rows)


def vstack(a, b):
    if a.cols != b.cols:
        raise ValueError("column count mismatch")
    return BitMatrix._trusted(a.rows + b.rows, a.cols, a.row_ints + b.row_ints)


def _reduce_rows(rows, low=0):
    """Reduce each row, in order, against the independent rows before it.

    An independent row joins a basis keyed by its highest set bit (its
    pivot), so each step is one dict lookup and the one XOR that clears the
    current highest bit. Bits below ``low`` are bookkeeping and never
    pivots. Yields each row's remainder: it has a bit at ``low`` or above
    iff the row is independent of the rows before it, and is then that
    row's basis entry. The independent rows are thus the lowest-index ones.
    """
    basis = {}
    for r in rows:
        top = r.bit_length()
        while top > low:
            p = basis.get(top)
            if p is None:
                basis[top] = r
                break
            r ^= p
            top = r.bit_length()
        yield r


def rank(m):
    """GF(2) row rank: the number of rows independent of the rows before them."""
    return sum(1 for r in _reduce_rows(m.row_ints) if r)


def solve_homogeneous(mt):
    """Basis of the null space {x : m.x = 0}, given the system by columns.

    Row j of ``mt`` is column j of m. Reducing the rows of [mt | I], with I
    below mt's bits, leaves each dependent row j (a free column of m: one
    dependent on those before it) a null vector with its highest 1 at j.
    Only independent rows are ever XORed in, so its other 1s sit at pivot
    columns: per free column, ascending, these are the unique reduced basis,
    with 0 at every other free column, and need no back-substitution. Each
    basis vector is returned as an ``mt.rows``-bit int.
    """
    n = mt.rows
    rows = (r << n | 1 << j for j, r in enumerate(mt.row_ints))
    return [v for v in _reduce_rows(rows, n) if not v >> n]


def format_matrix(m):
    """Text form: first line "rows cols", then one '0'/'1' line per row."""
    lines = [f"{m.rows} {m.cols}"]
    lines += (to01(r, m.cols) for r in m.row_ints)
    return "\n".join(lines) + "\n"


def parse_matrix(text):
    """Inverse of :func:`format_matrix`; raises ParseError with line info."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty matrix text", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError("expected header 'rows cols'", line=1)
    try:
        rows, cols = _decimal(header[0]), _decimal(header[1])
    except ValueError:
        raise ParseError("expected two integers in header", line=1) from None
    if not (0 <= rows <= 2 * MAX_QUBITS and 0 <= cols <= 2 * MAX_QUBITS):  # 2n x n at most
        raise ParseError(f"dimensions must be in 0..{2 * MAX_QUBITS}", line=1)
    if len(lines) - 1 < rows:
        raise ParseError(f"expected {rows} data rows, found {len(lines) - 1}", line=len(lines))
    ints = []
    for i in range(rows):
        line = lines[1 + i].strip()
        if len(line) != cols:
            raise ParseError(f"expected {cols} bits, found {len(line)}", line=2 + i)
        # int(s, 2) would also take "_", "0b", signs, spaces and non-ASCII digits
        if line.count("0") + line.count("1") != cols:
            j = next(j for j, ch in enumerate(line) if ch not in "01")
            raise ParseError(f"invalid character {line[j]!r}", line=2 + i, column=j + 1)
        ints.append(int(line[::-1] or "0", 2))
    for extra in range(1 + rows, len(lines)):
        if lines[extra].strip():
            raise ParseError("trailing content after matrix rows", line=extra + 1)
    return BitMatrix(rows, cols, ints)
