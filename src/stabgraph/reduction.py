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
    stabilizer reduces. Steps:

    1. basis change so the X block becomes [Rx | 0] with Rx of full column
       rank k; the X-zero generators are pushed to the back,
    2. greedy lowest-index selection of k rows of Rx forming an invertible
       submatrix,
    3. Z/X swap (Hadamard) on every qubit outside the selected row set, which
       makes the whole X block invertible,
    4. basis change by the inverse of the new X block, leaving [M; I] with M
       symmetric,
    5. the shear [[1, 1], [0, 1]] on each qubit where M has a diagonal 1,
       which clears the diagonal without touching anything else.
    """
    n = stab.n
    gens = [gf2.column(stab.s, j).bits for j in range(n)]
    # rT holds the transpose of the accumulated right factor: row j is column
    # j of r, so a generator update gens[j] ^= gens[l] pairs with rT[j] ^= rT[l].
    rT = [1 << j for j in range(n)]

    # Step 1: eliminate on the X parts of the generators (bits n..2n-1).
    used = [False] * n
    pivot_gens = []
    for p in range(n):
        pivot = None
        for j in range(n):
            if not used[j] and (gens[j] >> (n + p)) & 1:
                pivot = j
                break
        if pivot is None:
            continue
        used[pivot] = True
        pivot_gens.append(pivot)
        for l in range(n):
            if l != pivot and (gens[l] >> (n + p)) & 1:
                gens[l] ^= gens[pivot]
                rT[l] ^= rT[pivot]
    order = pivot_gens + [j for j in range(n) if not used[j]]
    gens = [gens[j] for j in order]
    rT = [rT[j] for j in order]
    k = len(pivot_gens)

    # Step 2: pick the lowest-index rows of Rx that form an invertible k x k
    # submatrix (greedy elimination over rows).
    rx_rows = []
    for p in range(n):
        bits = 0
        for t in range(k):
            bits |= ((gens[t] >> (n + p)) & 1) << t
        rx_rows.append(bits)
    selected = set()
    echelon = {}
    for p in range(n):
        v = rx_rows[p]
        while v:
            lead = v.bit_length() - 1
            if lead not in echelon:
                break
            v ^= echelon[lead]
        if v:
            echelon[v.bit_length() - 1] = v
            selected.add(p)
        if len(selected) == k:
            break
    if len(selected) != k:
        raise InternalError("X block lost rank during elimination")

    # Step 3: Hadamard outside the selected rows.
    swap_mask = ((1 << n) - 1) ^ sum(1 << p for p in selected)
    q_h = clifford.LocalCliffordOp(
        BitVec(n, ((1 << n) - 1) ^ swap_mask),
        BitVec(n, swap_mask),
        BitVec(n, swap_mask),
        BitVec(n, ((1 << n) - 1) ^ swap_mask),
    )
    t = _columns_to_matrix(gens, n)
    t = clifford.apply_to_rows(q_h, t)

    # Step 4: normalize the X block to the identity.
    x_block = BitMatrix(n, n, t.row_ints[n:])
    x_inv = gf2.try_invert(x_block)
    if x_inv is None:
        raise InternalError("X block is singular after the Hadamard step")
    t = gf2.mat_mul(t, x_inv)
    r = gf2.mat_mul(gf2.transpose(BitMatrix(n, n, rT)), x_inv)

    # Step 5: clear the diagonal of the Z block.
    m = BitMatrix(n, n, t.row_ints[:n])
    if BitMatrix(n, n, t.row_ints[n:]) != gf2.identity(n):
        raise InternalError("X block failed to normalize to the identity")
    if not gf2.is_symmetric(m):
        raise InternalError("Z block of the standard form is not symmetric")
    diag = gf2.diagonal(m)
    q_shear = clifford.LocalCliffordOp(BitVec.ones(n), diag, BitVec.zeros(n), BitVec.ones(n))
    t = clifford.apply_to_rows(q_shear, t)

    graph = graphs.Graph._trusted(BitMatrix(n, n, t.row_ints[:n]))
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


def _columns_to_matrix(cols, n):
    rows = [0] * (2 * n)
    for j, g in enumerate(cols):
        bits = g
        while bits:
            low = bits & -bits
            rows[low.bit_length() - 1] |= 1 << j
            bits ^= low
    return BitMatrix(2 * n, n, rows)
