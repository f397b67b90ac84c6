"""Local Clifford equivalence of stabilizer states, with explicit witnesses.

Two generator matrices S, S' describe locally Clifford equivalent states
exactly when some block-diagonal symplectic Q makes the subspace spanned by
Q.S symplectically orthogonal to (hence equal to) the span of S'. That
orthogonality is linear in the 4n diagonal entries of Q: an n^2 x 4n
homogeneous system, built and solved by columns. Its solutions are searched
for one meeting the per-qubit constraints a_i d_i + b_i c_i = 1. Qubit i's
constraint reads only qubit i's coordinates, so the null-space basis splits
into blocks with disjoint qubit supports, each searched on its own.

The system reads S_b^T.J.Q.S_a = 0 (Bouchet, Combinatorica 11, 1991; PRA 70,
034302). S -> S.R mixes its equations invertibly, so the null space, its
reduced basis and the witness do not depend on the generators. The solver
takes them with distinct highest bits, where the system is sparser and far
quicker to eliminate: graph states and parsed states (the remainders of the
parser's rank elimination) have them, and other inputs pay one elimination.
"""

from functools import reduce
from itertools import combinations
from operator import xor

from . import clifford, gf2, stabilizer
from .errors import InternalError, _Record
from .gf2 import BitMatrix

# The system holds 4n x n^2 bits; n = 1024 is the largest size measured to
# finish (12.4 s CPU at 864 MB peak RSS on a 2-core Xeon; 10.5 s at 842 MB
# for a pair of stabilizers on scrambled generators).
_MAX_SYSTEM_QUBITS = 1024


class Equivalent(_Record):
    """A verified witness operation mapping the first state onto the second."""

    __slots__ = ("q",)

    def __init__(self, q):
        self._store((q,))


class Inequivalent(_Record):
    """No vector of the solution space meets the constraints; no witness exists."""

    __slots__ = ()


def build_linear_system(sa, sb):
    """The homogeneous system by columns: one n^2-bit row per unknown.

    Equation (a, b), at bit a*n + b, states that generator a of the first
    matrix, pushed through the unknown operation, commutes with generator b
    of the second. Unknowns are ordered (A_1..A_n, B_1..B_n, C_1..C_n,
    D_1..D_n); the coefficient of A_i is z_{a,i} x'_{b,i}, of B_i is
    x_{a,i} x'_{b,i}, of C_i is z_{a,i} z'_{b,i}, and of D_i is x_{a,i}
    z'_{b,i}: a Kronecker product of row i (Z) or n + i (X) of each matrix.
    Above ``_MAX_SYSTEM_QUBITS`` qubits it raises ValueError before building.
    """
    n = sa.n
    if sb.n != n:
        raise ValueError("qubit count mismatch")
    if n > _MAX_SYSTEM_QUBITS:
        raise ValueError(
            f"the {4 * n} x {n * n} equivalence system for {n} qubits"
            f" exceeds the bound of {_MAX_SYSTEM_QUBITS} qubits"
        )
    # Bit a of a row of the first matrix moves to bit a*n; times an n-bit row
    # this is the Kronecker product. One product moves bits 0..n-2 without
    # carries: (r & low) * every has a partial product at a + k(n-1) for each
    # set bit a <= n-2 of r and each k < n. Two of them differ by a - a' plus
    # a multiple of n-1, and |a - a'| < n-1, so they are pairwise distinct and
    # the product is their OR. a + k(n-1) = a - k (mod n) is a multiple of n
    # only for k = a, at a*n, which is all that at_stride keeps. Bit n-1 would
    # meet a = 0, k = 1, so it moves on its own.
    top = max(n - 1, 0)
    low = (1 << top) - 1
    every = sum(1 << k * top for k in range(n))
    at_stride = sum(1 << a * n for a in range(n))
    spread = [(r & low) * every & at_stride | r >> top << top * n for r in sa.s.row_ints]
    za, xa = spread[:n], spread[n:]
    zb, xb = sb.s.row_ints[:n], sb.s.row_ints[n:]
    pairs = ((za, xb), (xa, xb), (za, zb), (xa, zb))
    rows = tuple([u * v for us, vs in pairs for u, v in zip(us, vs)])
    return BitMatrix._trusted(4 * n, n * n, rows)


def _echelon(stab):
    """stab, or generators of its state with distinct highest bits if its own lack them."""
    seen = 0  # generators with a 1 in a later row of S; each row may bring in at most one more
    for row in reversed(stab.s.row_ints):
        if (new := row & ~seen) & new - 1:
            rows = tuple(gf2._reduce_rows(gf2.transpose(stab.s).row_ints))
            gens = BitMatrix._trusted(stab.n, 2 * stab.n, rows)
            return stabilizer.StabilizerGenMatrix._trusted(gf2.transpose(gens))
        seen |= row
    return stab


def _blocks(basis, n):
    """(qubit support, vectors in basis order) for each block of the basis.

    A vector's qubit support is the OR of its four n-bit fields; vectors
    whose supports overlap, directly or through others, share a block.
    """
    supports = [(v | v >> n | v >> 2 * n | v >> 3 * n) & ((1 << n) - 1) for v in basis]
    merged = []
    for s in supports:
        for m in merged:
            s |= m if m & s else 0
        merged = [m for m in merged if not m & s] + [s]
    return [(m, [v for v, s in zip(basis, supports) if s & m]) for m in merged]


def _candidates(vectors):
    """Every nonzero combination of up to 4 vectors, else each vector and pairwise sum.

    In lexicographic order of the coefficients, first vector most significant.
    """
    d = len(vectors)
    subsets = (c for r in range(1, (d if d <= 4 else 2) + 1) for c in combinations(range(d), r))
    for c in sorted(subsets, key=lambda c: sum(1 << d - 1 - i for i in c)):
        yield reduce(xor, (vectors[i] for i in c))


def test_equivalence(sa, sb):
    """Decide equivalence of two stabilizer states in polynomial time.

    Bouchet's theorem (Combinatorica 11, 1991; for graph states Van den Nest,
    Dehaene and De Moor, quant-ph/0405023, PRA 70, 034302): if two connected
    graphs have a solution space of dimension > 4, a valid vector exists iff,
    for any basis, a basis vector or a sum of two is valid. Blocks inherit it:
    LC-equivalent states have the same components, over which the system is a
    direct sum, so a block lies inside one component, and a component's
    weight-<=2 solution restricts to a nonzero weight-<=2 combination in each
    of its blocks. Stabilizer inputs reach graph states through a per-qubit
    linear bijection of the solution space that keeps invertibility and
    supports. A qubit outside every block, or a block with no valid candidate,
    proves inequivalence; the XOR of each block's first valid candidate
    (smallest block first) is verified before it is returned.
    """
    n = sa.n
    if sb.n != n:
        raise ValueError("qubit count mismatch")
    basis = gf2.solve_homogeneous(build_linear_system(_echelon(sa), _echelon(sb)))
    blocks = sorted(_blocks(basis, n), key=lambda block: len(block[1]))
    mask = (1 << n) - 1
    if sum(support for support, _ in blocks) != mask:
        return Inequivalent()
    x = 0
    for support, vectors in blocks:
        for y in _candidates(vectors):
            if ((y & y >> 3 * n) ^ (y >> n & y >> 2 * n)) & support == support:
                x ^= y
                break
        else:
            return Inequivalent()
    q = clifford._op(n, *(x >> (f * n) & mask for f in range(4)))
    image = stabilizer.StabilizerGenMatrix._trusted(clifford.apply_to_stabilizer(q, sa))
    if not stabilizer.same_subspace(image, sb):
        raise InternalError("solver candidate passed constraints but moved the subspace")
    return Equivalent(q)


def test_equivalence_graphs(g, h):
    """Equivalence of two graph states, via their standard generator matrices."""
    return test_equivalence(stabilizer.from_graph(g), stabilizer.from_graph(h))
