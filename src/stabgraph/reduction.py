"""Reduction of stabilizer generator matrices to graph-state standard form.

Any valid generator matrix S can be transformed into [adj; I] for a simple
graph by a local Clifford operation Q (row side) together with a basis change
R (column side): Q.S.R = [adj; I]. The witness (graph, Q, R) is returned
explicitly and can be re-verified bit-exactly. :func:`to_graph_state` follows
the paper's proof (Van den Nest, Dehaene, De Moor, quant-ph/0308151) by column
operations on the n generators of S, each held as one int with its Z bits, X
bits and a tag of the generators it sums. No qubit permutation is ever applied:
permutations are not local operations on fixed qubits, so instead of
reordering rows the algorithm picks an invertible row subset of the X block
and targets the Hadamards at its complement.
"""

from functools import reduce
from itertools import compress
from operator import xor

from . import clifford, gf2, graphs
from .errors import InternalError, _Record
from .gf2 import BitMatrix
from .stabilizer import StabilizerGenMatrix


class ReductionWitness(_Record):
    """Certificate that q.S.r equals the graph-state standard form [adj; I]."""

    __slots__ = ("graph", "q", "r")

    def __init__(self, graph, q, r):
        self._store((graph, q, r))


def to_graph_state(stab):
    """Transform a stabilizer generator matrix into graph-state standard form.

    Deterministic and total: every valid stabilizer reduces. On the columns
    of S: (1) an elimination of the X parts on their lowest qubits, whose
    pivots are the lowest-index independent X rows; (2) Hadamards on every
    other qubit, making the X block invertible; (3) an elimination of the new
    X parts, null columns first, and a back-substitution leave column i as
    S'.R.e_i = [M.e_i; e_i], tagged R.e_i. M must be symmetric, and shears
    [[1, 1], [0, 1]] clear its diagonal.

    S may come unchecked: a witness that verifies proves it full rank and
    self-orthogonal, as X'.R = I makes R invertible, Q is symplectic and adj
    is symmetric. When a step fails, the validating constructor raises the
    StabilizerError of an invalid S; for a valid one the InternalError follows.
    """
    return _reduce_columns(gf2.transpose(stab.s))


def _reduce_columns(st):
    """:func:`to_graph_state` of S given as its transpose: row j is generator j."""
    n, ones = st.rows, (1 << st.rows) - 1
    if st.cols != 2 * n:
        _reject(st)
    # Step 1: column j as its X bits at 0..n-1, its Z bits above and its tag
    # 1 << 2n + j above those; X = 0 leaves a null column.
    vs = (g >> n | (g & ones) << n | 1 << 2 * n + j for j, g in enumerate(st.row_ints))
    pivots, nulls = _pivot(vs, ones)
    swap = ones ^ (keep := sum(pivots))  # Hadamards go on the qubits of no pivot
    swapped = [v ^ (t := (v ^ v >> n) & swap) ^ t << n for v in nulls + list(pivots.values())]
    echelon, singular = _pivot(swapped, ones)
    if singular:
        _reject(st)
    cols = []  # S'.R.e_i for i = n - 1 down to 0
    for i in range(n - 1, -1, -1):
        e = echelon[1 << i]
        above = format((e & ones) >> i + 1, f"0{n - 1 - i}b").encode().translate(gf2._SELECTORS)
        cols.append(reduce(xor, compress(cols, above), e))
    cols.reverse()
    m = BitMatrix._trusted(n, n, tuple([c >> n & ones for c in cols]))  # row i is column i of M
    tags = [c >> 2 * n for c in cols]  # column i of R
    shear = gf2.diagonal(m)  # the qubits that get [[1, 1], [0, 1]] after the Hadamards
    q = clifford._op(n, keep ^ shear & swap, swap ^ shear & keep, swap, keep)
    graph = graphs.Graph._trusted(gf2.set_diagonal_zero(m))
    if gf2.transpose(m) != m or not _maps_onto(st, q, graph, tags):
        _reject(st)
    return ReductionWitness(graph, q, gf2.transpose(BitMatrix._trusted(n, n, tuple(tags))))


def _reject(st):
    """Raise the StabilizerError of an invalid S, else the InternalError of a failed step."""
    StabilizerGenMatrix(gf2.transpose(st))
    raise InternalError("reduction bookkeeping produced a bad witness")


def _pivot(vectors, ones):
    """The basis of the vectors by lowest bit in ``ones``, and those reducing to no such bit."""
    basis, rest = {}, []
    for v in vectors:
        low = v & -v
        while low <= ones:
            p = basis.get(low)
            if p is None:
                basis[low] = v
                break
            v ^= p
            low = v & -v
        else:
            rest.append(v)
    return basis, rest


def _maps_onto(st, q, graph, r_cols):
    """True iff column i of q.S.R, with column i of R in ``r_cols``, is [adj.e_i; e_i]."""
    n = st.rows
    a, b, c, d = q.a.bits, q.b.bits, q.c.bits, q.d.bits
    sr = gf2.mat_mul(BitMatrix._trusted(n, n, tuple(r_cols)), st).row_ints  # the transpose of S.R
    return all(
        a & v ^ b & v >> n == row and c & v ^ d & v >> n == 1 << i
        for i, (v, row) in enumerate(zip(sr, graph.adj.row_ints))
    )


def verify_witness(stab, witness):
    """Recompute q.S.r, column by column, and compare it bit-exactly against [adj; I].

    A graph, q or r that does not have n qubits (r: n x n), or an S that is
    not 2n x n, is rejected before any product. The equality alone proves r
    invertible: the bottom block of q.S.r is X'.r, for X' the X block of q.S,
    so X'.r = I gives the square r a left inverse.
    """
    r, q, g, n = witness.r, witness.q, witness.graph, stab.n
    sized = r.rows == r.cols == q.n == g.n == n and stab.s.rows == 2 * n
    return sized and _maps_onto(gf2.transpose(stab.s), q, g, gf2.transpose(r).row_ints)
