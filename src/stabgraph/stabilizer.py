"""Binary representation of Pauli operators and stabilizer generator matrices.

A generator matrix is a full-rank 2n x n matrix over GF(2) whose columns
encode n independent, pairwise commuting Pauli operators: the top n rows hold
the Z bits, the bottom n rows the X bits. Overall phases are not tracked at
all in this representation: a generator matrix fixes its stabilizer state
only up to per-generator signs.
"""

import re

from . import gf2
from .errors import MAX_QUBITS, ParseError, _Record
from .gf2 import BitMatrix


class StabilizerError(ValueError):
    """Base class for invalid stabilizer constructions."""


class NotCommutingError(StabilizerError):
    def __init__(self, i, j):
        self.pair = (i, j)
        super().__init__(f"generators {i} and {j} anticommute")


class NotIndependentError(StabilizerError):
    def __init__(self):
        super().__init__("generators are linearly dependent")


class WrongCountError(StabilizerError):
    def __init__(self, n, count):
        super().__init__(f"need exactly {n} generators on {n} qubits, got {count}")


_Z_DIGITS = str.maketrans("IXZY", "0011")
_X_DIGITS = str.maketrans("IXZY", "0101")
_ZX_TO_PAULI = {"00": "I", "01": "X", "10": "Z", "11": "Y"}
_MATRIX_HEADER = r"([1-9][0-9]{0,5}) ([1-9][0-9]{0,5})"  # re compiles it on first use


class StabilizerGenMatrix(_Record):
    """Validated 2n x n generator matrix: full rank and symplectically self-orthogonal."""

    __slots__ = ("s",)

    def __init__(self, s):
        _check(gf2.transpose(s), s)
        self._store((s,))

    @property
    def n(self):
        return self.s.cols

    def __repr__(self):
        return f"StabilizerGenMatrix({format_stabilizer(self).split()})"


def from_graph(g):
    """Graph-state generator matrix: adjacency block on top of an identity block.

    The identity block gives full rank, and the symmetry of the adjacency
    block makes the columns pairwise commute, so no check is re-run.
    """
    return StabilizerGenMatrix._trusted(gf2.vstack(g.adj, gf2.identity(g.n)))


def same_subspace(a, b):
    """True iff the two generator matrices span the same column space."""
    if a.n != b.n:
        raise ValueError("qubit count mismatch")
    return gf2.rank(gf2.hstack(a.s, b.s)) == a.n


def format_stabilizer(stab):
    """One generator (column) per line as a Pauli string (no sign prefix)."""
    n = stab.n
    zx = (gf2.to01(col, 2 * n) for col in gf2.transpose(stab.s).row_ints)  # n Z then n X digits
    lines = ("".join(map(_ZX_TO_PAULI.__getitem__, map(str.__add__, d[:n], d[n:]))) for d in zx)
    return "\n".join(lines) + "\n"


def parse_stabilizer(text):
    """Parse either Pauli lines or a raw 2n x n matrix block (gf2 text format).

    The matrix alternative is detected by a first line of two integers.
    Pauli lines are checked one by one (length, letters, the letter count of
    the first line), then as a set: count, independence, commutation.
    """
    return _validated(*_decode_columns(text))


def _parse_echelon(text):
    """:func:`parse_stabilizer` on the remainders of its rank check's elimination.

    Remainder j is generator j plus earlier ones, with its own highest bit. So
    the remainders span the same state, and fail each check with the same
    message: if the generators before i commute with all, remainder i commutes
    with the others as generator i does, up to its first anticommuting partner.
    """
    gens, what = _decode_columns(text)
    rows = tuple(gf2._reduce_rows(gens.row_ints))
    return _validated(BitMatrix._trusted(gens.rows, gens.cols, rows), what)


def _validated(gens, what):
    s = gf2.transpose(gens)
    try:
        _check(gens, s)
    except StabilizerError as exc:
        raise ParseError(f"{what}: {exc}", line=1) from exc
    return StabilizerGenMatrix._trusted(s)


def _check(gens, s):
    """Raise the StabilizerError of the first failed check; gens holds generator j as row j."""
    n = s.cols
    if s.rows != 2 * n:
        raise StabilizerError(f"expected a 2n x n matrix, got {s.rows} x {s.cols}")
    if gf2.rank(gens) != n:
        raise NotIndependentError()
    # Row i of X^T.Z + Z^T.X = [X^T | Z^T].[Z; X] holds the symplectic products of
    # generator i: the first nonzero row's lowest 1 is at j > i, as the sum is symmetric.
    ones = (1 << n) - 1
    swapped = [g >> n | (g & ones) << n for g in gens.row_ints]
    products = gf2.mat_mul(BitMatrix._trusted(n, 2 * n, tuple(swapped)), s)
    for i, row in enumerate(products.row_ints):
        if row:
            raise NotCommutingError(i + 1, (row & -row).bit_length())


def _decode_columns(text):
    """The generators of :func:`parse_stabilizer` text: row j is generator j, Z then X bits.

    Pauli lines and matrix blocks in the writers' shape are read in bulk; any
    other text, and every error, goes through :func:`_decode_stabilizer`.
    """
    first, _, body = text.partition("\n")
    n = len(first)
    if 0 < n <= MAX_QUBITS and len(text) == n * (n + 1) and text[n :: n + 1] == "\n" * n:
        if sum(map(text.count, "IXYZ")) == n * n:
            rev = text[::-1].split()[::-1]  # most significant digit first, first line first
            gens = [int(ln.translate(_X_DIGITS) + ln.translate(_Z_DIGITS), 2) for ln in rev]
            return BitMatrix._trusted(n, 2 * n, tuple(gens)), "not a valid stabilizer"
    head = re.fullmatch(_MATRIX_HEADER, first)
    if head and int(head[1]) == 2 * (n := int(head[2])) <= 2 * MAX_QUBITS:
        if len(body) == 2 * n * (n + 1) and body[n :: n + 1] == "\n" * 2 * n:
            if body.count("0") + body.count("1") == 2 * n * n:
                gens = [int(body[j :: n + 1][::-1], 2) for j in range(n)]
                return BitMatrix._trusted(n, 2 * n, tuple(gens)), "not a valid stabilizer matrix"
    return _decode_stabilizer(text)


def _decode_stabilizer(text):
    """The generator rows of :func:`parse_stabilizer` text, unvalidated, and its errors' prefix.

    Makes every text check and the generator count, not rank or commutation.
    """
    stripped = [ln for ln in text.splitlines() if ln.strip()]
    header = stripped[0].split() if stripped else ()
    if len(header) == 2 and all(t.isdigit() and t.isascii() for t in header):
        m = gf2.parse_matrix(text)
        if m.cols < 1:
            raise ParseError("qubit count must be >= 1", line=1)
        return gf2.transpose(m), "not a valid stabilizer matrix"
    n = None
    cols = []  # generator j as one int, its X bits above its Z bits
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        body = line[1:] if line[0] in "+-" else line  # the sign is dropped
        if len(body) > MAX_QUBITS:
            raise ParseError(f"qubit count must be <= {MAX_QUBITS}", line=lineno)
        # int(s, 2) would also take "_", "0b", signs, spaces and non-ASCII digits
        if sum(map(body.count, "IXYZ")) != len(body):
            i = next(i for i, ch in enumerate(body) if ch not in "IXYZ")
            raise ParseError(f"invalid Pauli letter {body[i]!r}", line=lineno, column=i + 1)
        if n is None:
            n = len(body)
            if not n:
                raise ParseError("qubit count must be >= 1", line=lineno)
        elif len(body) != n:
            raise ParseError(f"expected {n} Pauli letters, found {len(body)}", line=lineno)
        rev = body[::-1]  # most significant digit first
        cols.append(int(rev.translate(_X_DIGITS) + rev.translate(_Z_DIGITS), 2))
    if n is None:
        raise ParseError("empty stabilizer file", line=1)
    if len(cols) != n:
        exc = WrongCountError(n, len(cols))
        raise ParseError(f"not a valid stabilizer: {exc}", line=1) from exc
    return BitMatrix._trusted(n, 2 * n, tuple(cols)), "not a valid stabilizer"
