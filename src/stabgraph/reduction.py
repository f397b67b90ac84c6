"""Reduction of stabilizer generator matrices to graph-state standard form.

Any valid generator matrix S can be transformed into [adj; I] for a simple
graph by a local Clifford operation Q (row side) together with a basis change
R (column side): Q.S.R = [adj; I]. The witness (graph, Q, R) is returned
explicitly and can be re-verified bit-exactly.

No qubit permutation is ever applied: permutations are not local operations
on fixed qubits, so instead of reordering rows the algorithm picks an
arbitrary invertible row subset and targets the Hadamards at its complement.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import clifford, gf2, graphs
from .errors import InternalError
from .gf2 import BitMatrix, BitVec


@dataclass(frozen=True)
class ReductionWitness:
    """Certificate that q.S.r equals the graph-state standard form [adj; I]."""

    graph: graphs.Graph
    q: clifford.LocalCliffordOp
    r: BitMatrix


def to_graph_state(stab):
    """Transform a stabilizer generator matrix into graph-state standard form.

    Deterministic (lowest-index pivoting throughout) and total: every valid
    stabilizer reduces. Each generator (a column of S) is one packed int:
    Z part in bits 0..n-1, X part in bits n..2n-1, and its column of the
    accumulated right factor R carried from bit 2n up. Steps:

    1. Gauss-Jordan elimination on the X parts of the generators; its pivot
       columns are the lowest-index rows of the X block that are linearly
       independent, k of them for an X block of rank k,
    2. Z/X swap (Hadamard) on every qubit outside the pivot rows, done as a
       bit swap in each generator, which makes the whole X block invertible,
    3. a second elimination on the X parts; taken in pivot-column order,
       generator j then has X part e_j, so the generators form [M; I] with
       M symmetric, and their carried bits are the columns of R,
    4. the shear [[1, 1], [0, 1]] on each qubit where M has a diagonal 1,
       which clears the diagonal without touching anything else.
    """
    n = stab.n
    full = (1 << n) - 1
    gens = [g | 1 << (2 * n + j) for j, g in enumerate(gf2.transpose(stab.s).row_ints)]

    # Step 1: eliminate on the X parts of the generators (bits n..2n-1).
    pivots = gf2.eliminate(gens, range(n, 2 * n))

    # Step 2: Hadamard outside the pivot rows.
    swap_mask = full ^ sum(1 << (col - n) for col, _ in pivots)
    for j, g in enumerate(gens):
        flip = (g ^ g >> n) & swap_mask
        gens[j] = g ^ flip ^ flip << n
    q_h = clifford.LocalCliffordOp(
        BitVec(n, full ^ swap_mask),
        BitVec(n, swap_mask),
        BitVec(n, swap_mask),
        BitVec(n, full ^ swap_mask),
    )

    # Step 3: normalize the X block to the identity.
    pivots = gf2.eliminate(gens, range(n, 2 * n))
    if len(pivots) < n:
        raise InternalError("X block is singular after the Hadamard step")
    gens = [gens[i] for _, i in pivots]
    if any((g >> n) & full != 1 << j for j, g in enumerate(gens)):
        raise InternalError("X block failed to normalize to the identity")
    r = gf2.transpose(BitMatrix(n, n, [g >> (2 * n) for g in gens]))

    # Step 4: clear the diagonal of the Z block. Generator j holds column j
    # of M, which is also row j exactly when M is symmetric.
    m = BitMatrix(n, n, [g & full for g in gens])
    if not gf2.is_symmetric(m):
        raise InternalError("Z block of the standard form is not symmetric")
    diag = gf2.diagonal(m)
    q_shear = clifford.LocalCliffordOp(BitVec.ones(n), diag, BitVec.zeros(n), BitVec.ones(n))

    graph = graphs.Graph._trusted(gf2.set_diagonal_zero(m))
    q = clifford.compose(q_shear, q_h)
    witness = ReductionWitness(graph=graph, q=q, r=r)
    if not verify_witness(stab, witness):
        raise InternalError("reduction bookkeeping produced a bad witness")
    return witness


def verify_witness(stab, witness):
    """Recompute q.S.r and compare it bit-exactly against [adj; I]."""
    if gf2.try_invert(witness.r) is None:
        return False
    lhs = gf2.mat_mul(clifford.apply_to_stabilizer(witness.q, stab), witness.r)
    rhs = gf2.vstack(witness.graph.adj, gf2.identity(witness.graph.n))
    return lhs == rhs

