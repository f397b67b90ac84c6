"""Reduction of stabilizer generator matrices to graph-state standard form.

Any valid generator matrix S can be transformed into [adj; I] for a simple
graph by a local Clifford operation Q (row side) together with a basis change
R (column side): Q.S.R = [adj; I]. The witness (graph, Q, R) is returned
explicitly and can be re-verified bit-exactly. :func:`to_graph_state` follows
the paper's proof (Van den Nest, Dehaene, De Moor, quant-ph/0308151) on the
2n x n rows of S in four steps: independent X rows, Hadamards on the other
qubits, R = X^-1 and M = Z.R, phase gates on the diagonal of M.

No qubit permutation is ever applied: permutations are not local operations
on fixed qubits, so instead of reordering rows the algorithm picks an
arbitrary invertible row subset and targets the Hadamards at its complement.
"""

from . import clifford, gf2
from .errors import InternalError, _Record
from .stabilizer import StabilizerGenMatrix


class ReductionWitness(_Record):
    """Certificate that q.S.r equals the graph-state standard form [adj; I]."""

    __slots__ = ("graph", "q", "r")

    def __init__(self, graph, q, r):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r", r)


def to_graph_state(stab):
    """Transform a stabilizer generator matrix into graph-state standard form.

    Deterministic and total: every valid stabilizer reduces. The steps follow
    the proof that every stabilizer state is LC-equivalent to a graph state
    (Van den Nest, Dehaene, De Moor, quant-ph/0308151), on the rows of S:

    1. the lowest-index rows of the X block that are linearly independent,
       k of them for an X block of rank k: each row is kept iff it does not
       reduce to zero against the rows kept before it,
    2. Z/X swap (Hadamard) on every qubit outside the kept rows, which makes
       the whole X block invertible,
    3. the graph form (:func:`clifford.graph_form`): R = X^-1 and M = Z.R,
       so that S.R = [M; I] with M symmetric, and the shears clearing diag(M).

    S may come unchecked: a witness that verifies proves it full rank and
    self-orthogonal, as X'.R = I makes R invertible, Q is symplectic and adj
    is symmetric. When a step fails, the validating constructor raises the
    StabilizerError of an invalid S; for a valid one the InternalError follows.
    """
    n = stab.n
    if stab.s.rows != 2 * n:
        StabilizerGenMatrix(stab.s)  # raises the shape error

    # Step 1: the lowest-index linearly independent rows of X.
    remainders = gf2._reduce_rows(stab.s.row_ints[n:])
    keep = sum(1 << i for i, r in enumerate(remainders) if r)

    # Steps 2 and 3: Hadamards on every other qubit, then the graph form.
    swap = ((1 << n) - 1) ^ keep
    try:
        form = clifford.graph_form(clifford._op(n, keep, swap, swap, keep), stab)
        if form is None:
            raise InternalError("X block is singular after the Hadamard step")
        q, graph, r, _ = form
        witness = ReductionWitness(graph=graph, q=q, r=r)
        if not verify_witness(stab, witness):
            raise InternalError("reduction bookkeeping produced a bad witness")
    except InternalError:  # graph_form's symmetry check raises it too
        StabilizerGenMatrix(stab.s)
        raise
    return witness


def verify_witness(stab, witness):
    """Recompute q.S.r and compare it bit-exactly against [adj; I].

    A graph, q or r that does not have n qubits (r: n x n) is rejected before
    any product. The equality alone proves r invertible: the bottom block of
    q.S.r is X'.r, for X' the X block of q.S, so X'.r = I gives the square r a
    left inverse.
    """
    if not witness.r.rows == witness.r.cols == witness.q.n == witness.graph.n == stab.n:
        return False
    lhs = gf2.mat_mul(clifford.apply_to_stabilizer(witness.q, stab), witness.r)
    rhs = gf2.vstack(witness.graph.adj, gf2.identity(witness.graph.n))
    return lhs == rhs

