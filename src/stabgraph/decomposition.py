"""Decomposing local Clifford actions on graphs into local complementations.

The lower blocks (C, D) of an in-domain operation determine an invertible
matrix C.adj + D. Stepping that matrix with :func:`cd_step` mirrors the
effect of one local complementation, and repeatedly stepping it down to the
identity yields a vertex sequence whose complementations reproduce the full
graph action. Uniqueness of the in-domain completion of (C, D) is what makes
the translation exact.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from . import clifford, gf2, graphs
from .errors import InternalError, ParseError
from .gf2 import BitMatrix

log = logging.getLogger(__name__)


class NotInDomainError(ValueError):
    """The graph is outside the domain of the operation being decomposed."""

    def __init__(self, report):
        self.report = report
        if not report.invertible_cd:
            detail = "C.adj + D is singular"
        else:
            detail = "the transformed matrix has a nonzero diagonal"
        super().__init__(f"graph not in the operation's domain: {detail}")


class DecompositionError(InternalError):
    """The reduction loop violated its termination or ordering contract."""


@dataclass(frozen=True)
class Single:
    """One local complementation at vertex i."""

    i: int


@dataclass(frozen=True)
class Triple:
    """The three-step pattern at adjacent vertices: g_j, then g_k, then g_j."""

    j: int
    k: int


@dataclass(frozen=True)
class LCSequence:
    """Ordered local-complementation steps, applied first element first."""

    steps: tuple

    def __iter__(self):
        return iter(self.steps)

    def __len__(self):
        return len(self.steps)

    def expand(self):
        """Flat vertex list in application order; triples open out to j, k, j."""
        out = []
        for step in self.steps:
            if isinstance(step, Single):
                out.append(step.i)
            else:
                out.extend((step.j, step.k, step.j))
        return out

    def vertex_indices(self):
        """All step indices in order of appearance: i for singles, j and k for triples."""
        out = []
        for step in self.steps:
            if isinstance(step, Single):
                out.append(step.i)
            else:
                out.extend((step.j, step.k))
        return out


def cd_step(m, i):
    """Step a square matrix by vertex i: m . (E_i m + m_ii E_i + I).

    E_i is the single-entry diagonal at i (1-based). This is the matrix-level
    shadow of local complementation at i on matrices of the form
    diag(c).adj + diag(d); it maps that class to itself and preserves
    invertibility.
    """
    if not m.is_square():
        raise ValueError("matrix must be square")
    idx = graphs._check_vertex(m.rows, i)
    n = m.rows
    factor_rows = [1 << r for r in range(n)]
    factor_rows[idx] ^= m.row_ints[idx]
    if (m.row_ints[idx] >> idx) & 1:
        factor_rows[idx] ^= 1 << idx
    return gf2.mat_mul(m, BitMatrix(n, n, factor_rows))


def reduce_to_identity(m):
    """Vertex sequence whose cd-steps take the invertible matrix m to the identity.

    m is an invertible diag(c).adj + diag(d), as :func:`decompose_action`
    builds it; cd-steps keep the rank, so a singular m ends in a
    DecompositionError. Two phases, all choices lowest-index: first, any row with a diagonal 1
    that is not yet a unit row is finished with one step at that vertex;
    second, remaining rows (whose diagonal entries are all 0) are finished in
    pairs j, k with m_kj = 1 via the three-step pattern. Singles always come
    before triples. A step budget of 3n and a distinct-index check guard the
    claimed termination behavior; the sequence is still returned if the
    indices repeat, with the anomaly logged.
    """
    n = m.rows
    ident = gf2.identity(n)
    steps = []
    budget = 3 * n

    while True:
        target = None
        for i in range(n):
            if m.entry(i, i) == 1 and m.row_ints[i] != (1 << i):
                target = i
                break
        if target is None:
            break
        steps.append(Single(target + 1))
        m = cd_step(m, target + 1)
        if len(steps) > budget:
            raise DecompositionError("step budget exceeded while clearing diagonal-1 rows")

    while m != ident:
        j0 = None
        for j in range(n):
            if m.entry(j, j) == 0:
                j0 = j
                break
        if j0 is None:
            raise DecompositionError(
                "no zero-diagonal row left but the matrix is not the identity"
            )
        k0 = None
        for k in range(n):
            if m.entry(k, j0) == 1:
                k0 = k
                break
        if k0 is None:
            raise DecompositionError("zero column in an invertible matrix")
        steps.append(Triple(j0 + 1, k0 + 1))
        m = cd_step(m, j0 + 1)
        m = cd_step(m, k0 + 1)
        m = cd_step(m, j0 + 1)
        if len(steps) > budget:
            raise DecompositionError("step budget exceeded while clearing zero-diagonal rows")

    seq = LCSequence(tuple(steps))
    indices = seq.vertex_indices()
    if len(set(indices)) != len(indices):
        log.warning("repeated vertex indices in reduction sequence: %s", indices)
    return seq


def apply_sequence(g, seq):
    """Fold local complementation over the expanded step list, left to right."""
    for v in seq.expand():
        g = graphs.local_complement(g, v)
    return g


def decompose_action(q, g):
    """Translate an in-domain local Clifford action into complementation steps.

    Only the lower blocks (c, d) of the operation enter the computation; the
    upper blocks are implied by the uniqueness of the in-domain completion.
    The result is checked against the direct graph action before returning.
    """
    report = clifford.graph_action(q, g)
    if not report.in_domain():
        raise NotInDomainError(report)
    seq = reduce_to_identity(clifford.cd_matrix(g.adj, q.c, q.d))
    if apply_sequence(g, seq) != report.image:
        raise InternalError("decomposed sequence does not reproduce the graph action")
    return seq


def format_sequence(seq):
    """Text form: one step per line, "g i" for singles, "gg j k" for triples."""
    lines = []
    for step in seq:
        if isinstance(step, Single):
            lines.append(f"g {step.i}")
        else:
            lines.append(f"gg {step.j} {step.k}")
    return "\n".join(lines) + ("\n" if lines else "")


def parse_sequence(text):
    """Inverse of :func:`format_sequence`; blank lines and '#' comments allowed."""
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "g" and len(parts) == 2:
            steps.append(Single(_parse_vertex(parts[1], lineno)))
        elif parts[0] == "gg" and len(parts) == 3:
            steps.append(
                Triple(_parse_vertex(parts[1], lineno), _parse_vertex(parts[2], lineno))
            )
        else:
            raise ParseError("expected 'g i' or 'gg j k'", line=lineno)
    return LCSequence(tuple(steps))


def _parse_vertex(token, lineno):
    try:
        v = int(token)
    except ValueError:
        raise ParseError(f"invalid vertex id {token!r}", line=lineno) from None
    if v < 1:
        raise ParseError(f"vertex ids are 1-based, got {v}", line=lineno)
    return v
