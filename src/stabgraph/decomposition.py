"""Decomposing local Clifford actions on graphs into local complementations.

Local complementation at a vertex v is the involution L_v with A = D = I,
B = diag(N(v)) and C = e_v e_v^T. The walk composes an operation q with L_v,
taken at the graph it complements, and so updates all four diagonals:

    a' = a ^ (b & e_v),  b' = b ^ (a & N(v)),  c' = c ^ (d & e_v),  d' = d ^ (c & N(v)).

q acts on g exactly when the new operation acts on the complemented graph,
with the same image matrix (A.adj + B)(C.adj + D)^-1, and the denominator
C.adj + D is multiplied by an invertible factor. The walk's choices read
only the graph and (c, d). It ends at lower blocks (c', 1) with no vertex
of c' having a neighbour, where the denominator is the identity and the
image matrix is the walked graph plus diag(b'). So q acts on g exactly when
b' = 0, and the image is then the walked graph: the complementation sequence
reproduces the action. The walk complements one list of adjacency row ints
in place, by the row step of :func:`graphs.local_complement`.

The walk is the library's one graph action: :func:`decompose_action` returns
its sequence and :func:`clifford.graph_action` its walked graph. The CLI's
``--verify`` replay reuses the walk's step, :func:`_step`, from the identity,
and checks the result with :func:`clifford._maps`, one product that shares
no code with the walk.
"""

from . import gf2, graphs
from .errors import NotInDomainError, ParseError, _decimal, _Record


class Single(_Record):
    """One local complementation at vertex i."""

    __slots__ = ("i",)

    def __init__(self, i):
        self._store((i,))


class Triple(_Record):
    """The three-step pattern at adjacent vertices: g_j, then g_k, then g_j."""

    __slots__ = ("j", "k")

    def __init__(self, j, k):
        self._store((j, k))


class LCSequence(_Record):
    """Ordered local-complementation steps, applied first element first."""

    __slots__ = ("steps",)

    def __init__(self, steps):
        self._store((steps,))

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


def _step(rows, a, b, c, d, v):
    """One walk step at 0-based vertex v: complements ``rows`` in place, returns the diagonals."""
    graphs._complement_rows(rows, v)  # row v itself is left as it is
    e, nb = 1 << v, rows[v]
    return a ^ (b & e), b ^ (a & nb), c ^ (d & e), d ^ (c & nb)


def _lowest_with_neighbour(rows, bits):
    """The lowest vertex in ``bits`` whose row is not zero, or None."""
    while bits and not rows[(bits & -bits).bit_length() - 1]:
        bits &= bits - 1
    return (bits & -bits).bit_length() - 1 if bits else None


def _walk(g, a, b, c, d):
    """Walk the operation with n-bit int diagonals a, b, c, d on g; returns (sequence, b', rows).

    Two phases, all choices lowest-index: first, each vertex in c & d that
    has a neighbour is finished with one step there; second, the vertices
    with d_j = 0 are finished in pairs j, k, with k the lowest vertex of c
    adjacent to j, via the three-step pattern. Singles always come before
    triples. The walk ends only where d is all ones and no vertex of c has a
    neighbour, which is the identity denominator, so it raises SingularError
    when C.adj + D is singular; a step budget of 3n bounds its second phase.
    """
    rows = list(g.adj.row_ints)  # the walk's graph, complemented in place
    full = (1 << g.n) - 1
    steps = []

    while (v := _lowest_with_neighbour(rows, c & d)) is not None:  # clears v from c
        steps.append(Single(v + 1))
        a, b, c, d = _step(rows, a, b, c, d, v)

    while d != full and len(steps) <= 3 * g.n:
        zeros = full ^ d
        j = (zeros & -zeros).bit_length() - 1
        column = c & rows[j]
        if not column:
            break
        k = (column & -column).bit_length() - 1
        steps.append(Triple(j + 1, k + 1))
        for v in (j, k, j):
            a, b, c, d = _step(rows, a, b, c, d, v)

    if d != full or _lowest_with_neighbour(rows, c) is not None:
        raise gf2.SingularError("lower blocks do not give an invertible denominator")
    return LCSequence(tuple(steps)), b, rows


def apply_sequence(g, seq):
    """Fold local complementation over the expanded step list, left to right, on one row list."""
    rows = list(g.adj.row_ints)
    for v in seq.expand():
        graphs._complement_rows(rows, graphs._check_vertex(g.n, v))
    return graphs.Graph._trusted(gf2.BitMatrix._trusted(g.n, g.n, tuple(rows)))


def _act(q, g):
    """The walk of q's four diagonals on g: (sequence, image rows), or NotInDomainError.

    NotInDomainError names a singular C.adj + D when the walk fails, and a
    nonzero image diagonal when it ends with b' != 0.
    """
    if q.n != g.n:
        raise ValueError("qubit count mismatch")
    try:
        seq, b, rows = _walk(g, q.a.bits, q.b.bits, q.c.bits, q.d.bits)
    except gf2.SingularError:
        detail = "C.adj + D is singular"
    else:
        if not b:
            return seq, rows
        detail = "the transformed matrix has a nonzero diagonal"
    raise NotInDomainError(f"graph not in the operation's domain: {detail}")


def decompose_action(q, g):
    """Translate the action of q on g into complementation steps that map g onto its image."""
    return _act(q, g)[0]


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
