"""Decomposing local Clifford actions on graphs into local complementations.

The lower blocks (c, d) of an in-domain operation determine the invertible
matrix diag(c).adj + diag(d). Local complementation at a vertex v with
c_v = 1 maps the triple (g, c, d) to the lower blocks of
compose(q, local_complement_op(g, v)):

    g' = local_complement(g, v),  d' = d ^ (c & N(v)),  c' = c ^ (d & e_v),

and diag(c').adj' + diag(d') is the old matrix times an invertible factor.
Walking the triple down to the identity (d all ones, no vertex of c with a
neighbour) yields a vertex sequence whose complementations reproduce the
full graph action; the uniqueness of the in-domain completion of (c, d) makes
the translation exact. The walk complements one list of adjacency row ints in
place, by the row step of :func:`graphs.local_complement`, and builds one graph.
"""

from . import clifford, gf2, graphs
from .errors import InternalError, ParseError, _decimal, _Record


class DecompositionError(InternalError):
    """The reduction loop violated its termination or ordering contract."""


class Single(_Record):
    """One local complementation at vertex i."""

    __slots__ = ("i",)

    def __init__(self, i):
        object.__setattr__(self, "i", i)


class Triple(_Record):
    """The three-step pattern at adjacent vertices: g_j, then g_k, then g_j."""

    __slots__ = ("j", "k")

    def __init__(self, j, k):
        object.__setattr__(self, "j", j)
        object.__setattr__(self, "k", k)


class LCSequence(_Record):
    """Ordered local-complementation steps, applied first element first."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        object.__setattr__(self, "steps", steps)

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


def _complement_at(rows, c, d, v):
    """One walk step at 0-based vertex v: complements ``rows`` in place, returns (c, d)."""
    graphs._complement_rows(rows, v)  # row v itself is left as it is
    return c ^ (d & 1 << v), d ^ (c & rows[v])


def _lowest_with_neighbour(rows, bits):
    """The lowest vertex in ``bits`` whose row is not zero, or None."""
    while bits and not rows[(bits & -bits).bit_length() - 1]:
        bits &= bits - 1
    return (bits & -bits).bit_length() - 1 if bits else None


def reduce_to_identity(g, c, d):
    """Vertex sequence whose local complementations walk (g, c, d) to the identity.

    (g, c, d) stands for the matrix diag(c).adj + diag(d), which must be
    invertible, as it is for the lower blocks of an in-domain operation. Each
    step complements g at a vertex v and updates the diagonals to
    d ^ (c & N(v)) and c ^ (d & e_v). On an invertible input every step has
    c_v = 1, where this is exactly the lower blocks of compose(q,
    local_complement_op(g, v)): phase-1 targets lie in c, a phase-2 j has
    d_j = 0 and so c_j = 1, and k is taken from c. Every step the walk takes
    multiplies the matrix by an invertible factor, so a singular input ends
    in a DecompositionError.

    The walk ends when d is all ones and no vertex of c has a neighbour. Two
    phases, all choices lowest-index: first, each vertex in c & d that has a
    neighbour is finished with one step there; second, the vertices with
    d_j = 0 are finished in pairs j, k, with k the lowest vertex of c adjacent
    to j, via the three-step pattern. Singles always come before triples. A
    step budget of 3n guards the claimed termination behavior. Returns the
    sequence and the graph the walk ends on (g with the sequence applied).
    """
    n = g.n
    if c.n != n or d.n != n:
        raise ValueError("diagonal lengths differ from the vertex count")
    c, d = c.bits, d.bits
    rows = list(g.adj.row_ints)  # the walk's graph, complemented in place
    full = (1 << n) - 1
    steps = []
    budget = 3 * n

    while (target := _lowest_with_neighbour(rows, c & d)) is not None:
        steps.append(Single(target + 1))
        c, d = _complement_at(rows, c, d, target)
        if len(steps) > budget:
            raise DecompositionError("step budget exceeded while clearing diagonal-1 rows")

    while d != full or _lowest_with_neighbour(rows, c) is not None:
        if d == full:
            raise DecompositionError(
                "no zero-diagonal row left but the matrix is not the identity"
            )
        zeros = full ^ d
        j = (zeros & -zeros).bit_length() - 1
        column = c & rows[j]
        if not column:
            raise DecompositionError("zero column in an invertible matrix")
        k = (column & -column).bit_length() - 1
        steps.append(Triple(j + 1, k + 1))
        for v in (j, k, j):
            c, d = _complement_at(rows, c, d, v)
        if len(steps) > budget:
            raise DecompositionError("step budget exceeded while clearing zero-diagonal rows")

    return LCSequence(tuple(steps)), graphs.Graph._trusted(gf2.BitMatrix(n, n, rows))


def apply_sequence(g, seq):
    """Fold local complementation over the expanded step list, left to right."""
    for v in seq.expand():
        g = graphs.local_complement(g, v)
    return g


def decompose_action(q, g):
    """Translate an in-domain local Clifford action into complementation steps.

    Only the lower blocks (c, d) of the operation enter the computation; the
    upper blocks are implied by the uniqueness of the in-domain completion.
    The walk's final graph is checked against the direct graph action, which
    raises clifford.NotInDomainError for a graph outside the domain.
    """
    image = clifford.graph_action(q, g)
    seq, walked = reduce_to_identity(g, q.c, q.d)
    if walked != image:
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
        v = _decimal(token)
    except ValueError:
        raise ParseError(f"invalid vertex id {token!r}", line=lineno) from None
    if v < 1:
        raise ParseError(f"vertex ids are 1-based, got {v}", line=lineno)
    return v
