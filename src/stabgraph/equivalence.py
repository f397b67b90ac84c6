"""Local Clifford equivalence of stabilizer states, with explicit witnesses.

Two generator matrices S, S' describe locally Clifford equivalent states
exactly when some block-diagonal symplectic Q makes the subspace spanned by
Q.S symplectically orthogonal to (hence equal to) the span of S'. That
orthogonality is linear in the 4n diagonal entries of Q, so candidates are
found by solving an n^2 x 4n homogeneous system and then searching its
solution space for a vector meeting the n per-qubit invertibility
constraints a_i d_i + b_i c_i = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import clifford, gf2, stabilizer
from .errors import InternalError
from .gf2 import BitMatrix, BitVec

DEFAULT_SEARCH_CAP = 1 << 24


@dataclass(frozen=True)
class Equivalent:
    """A verified witness operation mapping the first state onto the second."""

    q: clifford.LocalCliffordOp


@dataclass(frozen=True)
class Inequivalent:
    """The full solution space was exhausted; no valid witness exists."""


@dataclass(frozen=True)
class Indeterminate:
    """The search cap was hit before the solution space was exhausted."""

    searched: int
    space_dim: int


def build_linear_system(sa, sb):
    """The n^2 x 4n system whose solutions are the orthogonality-compatible diagonals.

    Row (a, b) states that generator a of the first matrix, pushed through the
    unknown operation, commutes with generator b of the second. Unknowns are
    ordered (A_1..A_n, B_1..B_n, C_1..C_n, D_1..D_n); the coefficient of A_i
    is z_{a,i} x'_{b,i}, of B_i is x_{a,i} x'_{b,i}, of C_i is z_{a,i}
    z'_{b,i}, and of D_i is x_{a,i} z'_{b,i}.
    """
    n = sa.n
    if sb.n != n:
        raise ValueError("qubit count mismatch")
    mask = (1 << n) - 1
    gens_b = gf2.transpose(sb.s).row_ints
    rows = []
    for ga in gf2.transpose(sa.s).row_ints:
        za, xa = ga & mask, ga >> n
        for gb in gens_b:
            zb, xb = gb & mask, gb >> n
            rows.append(
                (za & xb) | (xa & xb) << n | (za & zb) << (2 * n) | (xa & zb) << (3 * n)
            )
    return BitMatrix(n * n, 4 * n, rows)


def test_equivalence(sa, sb, search_cap=DEFAULT_SEARCH_CAP):
    """Decide equivalence of two stabilizer states.

    The null space of the linear system is enumerated lexicographically over
    basis coefficients (all-zero skipped: it never meets the constraints) and
    the first candidate passing all per-qubit constraints is verified and
    returned. Exhausting the whole space proves inequivalence; hitting the
    cap first yields Indeterminate. Deterministic for fixed inputs and cap.
    """
    n = sa.n
    if sb.n != n:
        raise ValueError("qubit count mismatch")
    basis = gf2.solve_homogeneous(build_linear_system(sa, sb))
    dim = len(basis)
    total = (1 << dim) - 1
    limit = total if total <= search_cap else search_cap
    basis_bits = [v.bits for v in basis]
    mask = (1 << n) - 1
    for t in range(1, limit + 1):
        x = 0
        bits = t
        while bits:
            low = bits & -bits
            # bit j of the counter is coefficient dim - j, so ascending
            # counters enumerate coefficient tuples lexicographically
            x ^= basis_bits[dim - low.bit_length()]
            bits ^= low
        av = x & mask
        bv = (x >> n) & mask
        cv = (x >> (2 * n)) & mask
        dv = (x >> (3 * n)) & mask
        if ((av & dv) ^ (bv & cv)) != mask:
            continue
        q = clifford.LocalCliffordOp(
            BitVec(n, av), BitVec(n, bv), BitVec(n, cv), BitVec(n, dv)
        )
        image = stabilizer.StabilizerGenMatrix._trusted(clifford.apply_to_stabilizer(q, sa))
        if not stabilizer.same_subspace(image, sb):
            raise InternalError("solver candidate passed constraints but moved the subspace")
        return Equivalent(q)
    if limit == total:
        return Inequivalent()
    return Indeterminate(searched=limit, space_dim=dim)


def test_equivalence_graphs(g, h, search_cap=DEFAULT_SEARCH_CAP):
    """Equivalence of two graph states, via their standard generator matrices."""
    return test_equivalence(
        stabilizer.from_graph(g), stabilizer.from_graph(h), search_cap=search_cap
    )
