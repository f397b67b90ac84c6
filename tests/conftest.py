"""Shared test-instance generators (named graph families, the seeded random
stabilizer, basis changes, fixed operations, the group product and the
operation of one local complementation, which the library itself never
needs), the matrix and operation built from lists of bits, random-instance
generators, naive list-of-lists GF(2) oracles, the per-bit loop references
for the packed kernels and text codecs, the line-by-line clifford reader, the
column-by-column elimination behind reference rank, inverse and null basis,
the inversion form of the graph action, the three-step row reduction to graph-state form and stabilizers of any X
rank, the tuple orbit key, the matrix references for C.adj + D and the
decomposition walk, the graph-action domain predicate and error texts, the
reference completion and the exhaustive reference equivalence solver.

The naive oracles work on plain Python lists of 0/1 ints with explicit
loops, on purpose: they validate the bit-packed implementations without
sharing any code with them.
"""

import random
import re

from stabgraph import clifford, decomposition, equivalence, gf2, graphs, stabilizer
from stabgraph.errors import MAX_QUBITS, ParseError, _decimal

# the two NotInDomainError texts, as patterns for pytest.raises(match=...)
SINGULAR_CD = re.escape("graph not in the operation's domain: C.adj + D is singular")
NONZERO_DIAGONAL = re.escape(
    "graph not in the operation's domain: the transformed matrix has a nonzero diagonal"
)


def rows_of(m):
    """BitMatrix -> list of list of 0/1 ints."""
    return [[(r >> j) & 1 for j in range(m.cols)] for r in m.row_ints]


def naive_mat_mul(a, b):
    """Triple-loop mod-2 product of two list-of-lists matrices."""
    n, k, m = len(a), len(b), len(b[0]) if b else 0
    assert all(len(row) == k for row in a)
    out = [[0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            s = 0
            for t in range(k):
                s += a[i][t] * b[t][j]
            out[i][j] = s % 2
    return out


def naive_rank(rows):
    """Row rank over GF(2) by explicit elimination on a copy."""
    work = [row[:] for row in rows]
    cols = len(work[0]) if work else 0
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, len(work)):
            if work[i][c]:
                pivot = i
                break
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        for i in range(len(work)):
            if i != r and work[i][c]:
                work[i] = [(x + y) % 2 for x, y in zip(work[i], work[r])]
        r += 1
    return r


def reference_mat_mul(a, b):
    """Row i of a.b as the XOR of the rows of b at the set bits of row i of a, bit by bit."""
    out = []
    for ra in a.row_ints:
        acc = 0
        bits = ra
        while bits:
            low = bits & -bits
            acc ^= b.row_ints[low.bit_length() - 1]
            bits ^= low
        out.append(acc)
    return gf2.BitMatrix(a.rows, b.cols, out)


def reference_transpose(m):
    """Transpose by scattering each set bit of each row."""
    out = [0] * m.cols
    for i, row in enumerate(m.row_ints):
        bits = row
        while bits:
            low = bits & -bits
            out[low.bit_length() - 1] |= 1 << i
            bits ^= low
    return gf2.BitMatrix(m.cols, m.rows, out)


def reference_eliminate(rows, columns, stop_at_gap=False):
    """Gauss-Jordan elimination in place, column by column, on packed int rows.

    For each bit position in ``columns``, in order, the pivot is the
    lowest-index row not yet used as a pivot that has the bit set, and it is
    XORed into every other row that has the bit set. Returns the
    ``(column, row index)`` pivots; with ``stop_at_gap`` it returns at the
    first column with no pivot. The pivot rows are the lowest-index
    independent rows, whatever the column order.
    """
    pivots = []
    used = [False] * len(rows)
    unused = -1
    for col in columns:
        if len(pivots) == len(rows):
            break
        bit = 1 << col
        pivot = None
        if unused & bit:
            pivot = next((i for i, r in enumerate(rows) if r & bit and not used[i]), None)
            if pivot is None:
                unused = 0
                for r, u in zip(rows, used):
                    unused |= 0 if u else r
        if pivot is None:
            if stop_at_gap:
                break
            continue
        used[pivot] = True
        pivots.append((col, pivot))
        prow = rows[pivot]
        rows[:] = [r ^ prow if r & bit else r for r in rows]
        rows[pivot] = prow
    return pivots


def reference_rank(m):
    return len(reference_eliminate(list(m.row_ints), range(m.cols)))


def reference_try_invert(m):
    """The inverse from the pivot rows of [m | I], identity above m; None at a gap."""
    n = m.rows
    work = [r | 1 << (n + i) for i, r in enumerate(m.row_ints)]
    pivots = reference_eliminate(work, range(n), stop_at_gap=True)
    if len(pivots) < n:
        return None
    return gf2.BitMatrix(n, n, [work[i] >> n for _, i in pivots])


def reference_graph_action(q, g):
    """The graph action as the inversion form (A.adj + B)(C.adj + D)^-1, with the reference kernels.

    Applies q to [adj; I], inverts the X block C.adj + D and multiplies; raises
    the library's NotInDomainError texts when that block is singular or the
    image has a nonzero diagonal, and ValueError for a qubit count mismatch.
    """
    if q.n != g.n:
        raise ValueError("qubit count mismatch")
    n = g.n
    rows = clifford.apply_to_stabilizer(q, stabilizer.from_graph(g)).row_ints
    r = reference_try_invert(gf2.BitMatrix(n, n, rows[n:]))
    if r is None:
        detail = "C.adj + D is singular"
    else:
        m = reference_mat_mul(gf2.BitMatrix(n, n, rows[:n]), r)
        assert m == reference_transpose(m)
        if not gf2.diagonal(m):
            return graphs.Graph(m)
        detail = "the transformed matrix has a nonzero diagonal"
    raise clifford.NotInDomainError(f"graph not in the operation's domain: {detail}")


def reference_solve_homogeneous(mt):
    """The reduced null basis of the system with columns ``mt``, by two eliminations.

    The non-pivot rows of [mt | I], identity above, carry a null-space basis
    in their upper bits; eliminating those over descending coordinates leaves
    one vector per free column, the reduced basis in ascending order.
    """
    width = mt.cols
    rows = [r | 1 << (width + j) for j, r in enumerate(mt.row_ints)]
    pivot_rows = {i for _, i in reference_eliminate(rows, range(width))}
    null = [r >> width for i, r in enumerate(rows) if i not in pivot_rows]
    pivots = reference_eliminate(null, range(mt.rows - 1, -1, -1))
    return [null[i] for _, i in reversed(pivots)]


def reference_to_graph_state(stab):
    """The three-step row reduction on the 2n x n rows of S, as (graph, q, r).

    Keeps the lowest-index independent rows of the X block, swaps Z and X
    (Hadamard) on the other qubits, inverts the new X block (r = X'^-1),
    reads M = Z'.r and shears its diagonal away, with the reference kernels.
    """
    n, ones = stab.n, (1 << stab.n) - 1
    keep = sum(1 << i for _, i in reference_eliminate(list(stab.s.row_ints[n:]), range(n)))
    swap = ones ^ keep
    q = clifford._op(n, keep, swap, swap, keep)
    rows = clifford.apply_to_stabilizer(q, stab).row_ints
    r = reference_try_invert(gf2.BitMatrix(n, n, rows[n:]))
    m = reference_mat_mul(gf2.BitMatrix(n, n, rows[:n]), r)
    assert m == reference_transpose(m)
    q = compose(clifford._op(n, ones, gf2.diagonal(m), 0, ones), q)
    return graphs.Graph(gf2.set_diagonal_zero(m)), q, r


def stabilizer_with_x_rank(rng, n, k):
    """A random stabilizer whose X block has rank k.

    The graph state of a random graph on k random qubits and Z on the other
    qubits, under a random basis change and phase gates on random qubits,
    neither of which changes the rank of the X block.
    """
    qubits = rng.sample(range(n), k)
    sub = random_graph(rng, k)
    gens = [1 << q for q in range(n) if q not in qubits]  # Z bits, then X bits above
    for a, q in enumerate(qubits):
        z = sum(1 << qubits[b] for b in range(k) if sub.adj.row_ints[a] >> b & 1)
        gens.append(z | 1 << n + q)
    rng.shuffle(gens)
    s = stabilizer.StabilizerGenMatrix(gf2.transpose(gf2.BitMatrix(n, 2 * n, gens)))
    ones = (1 << n) - 1
    s = basis_change(s, random_invertible(rng, n))
    phases = clifford._op(n, ones, rng.getrandbits(n), 0, ones)
    return stabilizer.StabilizerGenMatrix(clifford.apply_to_stabilizer(phases, s))


def outcome(f, text):
    """f(text), or the type, text and location of the exception it raises."""
    try:
        return f(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)


def reference_entry_tuple(g):
    """Row-major upper-triangular adjacency entries as a tuple, one per entry."""
    return tuple(g.adj.row_ints[i] >> j & 1 for i in range(g.n) for j in range(i + 1, g.n))


def reference_to01(bits, n):
    return "".join("1" if (bits >> i) & 1 else "0" for i in range(n))


def reference_parse_matrix(text):
    """``gf2.parse_matrix`` reading each row character by character."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty matrix text", line=1)
    header = lines[0].split()
    if len(header) != 2:
        raise ParseError("expected header 'rows cols'", line=1)
    try:
        rows, cols = _decimal(header[0]), _decimal(header[1])
    except ValueError:
        raise ParseError("expected two integers in header", line=1) from None
    if not (0 <= rows <= 2 * MAX_QUBITS and 0 <= cols <= 2 * MAX_QUBITS):
        raise ParseError(f"dimensions must be in 0..{2 * MAX_QUBITS}", line=1)
    if len(lines) - 1 < rows:
        raise ParseError(f"expected {rows} data rows, found {len(lines) - 1}", line=len(lines))
    ints = []
    for i in range(rows):
        line = lines[1 + i].strip()
        if len(line) != cols:
            raise ParseError(f"expected {cols} bits, found {len(line)}", line=2 + i)
        acc = 0
        for j, ch in enumerate(line):
            if ch == "1":
                acc |= 1 << j
            elif ch != "0":
                raise ParseError(f"invalid character {ch!r}", line=2 + i, column=j + 1)
        ints.append(acc)
    for extra in range(1 + rows, len(lines)):
        if lines[extra].strip():
            raise ParseError("trailing content after matrix rows", line=extra + 1)
    return gf2.BitMatrix(rows, cols, ints)


def reference_parse_clifford(text):
    """``parse_clifford`` line by line, with every check and its line number."""
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("empty clifford file", line=1)
    try:
        n = _decimal(lines[0].strip())
    except ValueError:
        raise ParseError("expected qubit count", line=1) from None
    if not 1 <= n <= MAX_QUBITS:
        raise ParseError(f"qubit count must be in 1..{MAX_QUBITS}", line=1)
    if len(lines) - 1 < n:
        raise ParseError(f"expected {n} qubit lines, found {len(lines) - 1}", line=len(lines))
    blocks = []
    for i in range(n):
        parts = lines[1 + i].split()
        if len(parts) != 4 or any(p not in ("0", "1") for p in parts):
            raise ParseError("expected four bits 'a b c d'", line=2 + i)
        blocks.append(tuple(int(p) for p in parts))
    for extra in range(1 + n, len(lines)):
        if lines[extra].strip():
            raise ParseError("trailing content after qubit lines", line=extra + 1)
    try:
        return op_from_qubit_blocks(blocks)
    except clifford.InvalidCliffordError as exc:
        raise ParseError(str(exc), line=2) from exc


_PAULI_TO_ZX = {"I": (0, 0), "X": (0, 1), "Z": (1, 0), "Y": (1, 1)}
_ZX_TO_PAULI = {v: k for k, v in _PAULI_TO_ZX.items()}


def reference_pauli_from_text(text):
    """The Pauli-line branch of ``parse_stabilizer``, reading one letter at a time."""
    n = None
    gens = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.strip()
        if not body:
            continue
        if body[0] in "+-":
            body = body[1:]
        if len(body) > MAX_QUBITS:
            raise ParseError(f"qubit count must be <= {MAX_QUBITS}", line=lineno)
        zx = []
        for i, ch in enumerate(body):
            if ch not in _PAULI_TO_ZX:
                raise ParseError(f"invalid Pauli letter {ch!r}", line=lineno, column=i + 1)
            zx.append(_PAULI_TO_ZX[ch])
        if n is None:
            n = len(zx)
            if n == 0:
                raise ParseError("qubit count must be >= 1", line=lineno)
        elif len(zx) != n:
            raise ParseError(f"expected {n} Pauli letters, found {len(zx)}", line=lineno)
        gens.append(zx)
    if n is None:
        raise ParseError("empty stabilizer file", line=1)
    try:
        if len(gens) != n:
            raise stabilizer.WrongCountError(n, len(gens))
        # row i holds the Z bit of qubit i in every generator, row n + i its X bit
        rows = [[gen[i][half] for gen in gens] for half in (0, 1) for i in range(n)]
        return stabilizer.StabilizerGenMatrix(matrix_from_rows(rows))
    except stabilizer.StabilizerError as exc:
        raise ParseError(f"not a valid stabilizer: {exc}", line=1) from exc


def reference_pauli_to_text(stab):
    """``format_stabilizer`` writing one letter at a time."""
    n, rows = stab.n, stab.s.row_ints
    lines = [
        "".join(_ZX_TO_PAULI[((rows[i] >> j) & 1, (rows[n + i] >> j) & 1)] for i in range(n))
        for j in range(n)
    ]
    return "".join(line + "\n" for line in lines)


def mat_vec(m, v):
    """Matrix-vector product m.v over GF(2), for an m.cols-bit int v; an m.rows-bit int."""
    if v < 0 or v >> m.cols:
        raise ValueError("dimension mismatch")
    acc = 0
    for i, row in enumerate(m.row_ints):
        acc |= ((row & v).bit_count() & 1) << i
    return acc


def diag_from_vec(v, n):
    """n x n diagonal matrix with the bits of the n-bit int ``v`` on the diagonal."""
    return gf2.BitMatrix(n, n, [((v >> i) & 1) << i for i in range(n)])


def invert(m):
    """Inverse of a square matrix; raises SingularError when rank < n."""
    inv = reference_try_invert(m)
    if inv is None:
        raise gf2.SingularError(f"{m.rows}x{m.cols} matrix is singular")
    return inv


def cd_matrix(adj, c, d):
    """diag(c) . adj + diag(d): row i is c_i * adj_i + d_i * e_i.

    The per-row form of the X block of Q.[adj; I]; the reference for the
    denominator C.adj + D of the graph action and for the decomposition walk.
    """
    n = adj.rows
    rows = []
    for i in range(n):
        row = adj.row_ints[i] if (c.bits >> i) & 1 else 0
        if (d.bits >> i) & 1:
            row ^= 1 << i
        rows.append(row)
    return gf2.BitMatrix(n, n, rows)


def cd_step(m, i):
    """Step a square matrix by vertex i: m . (E_i m + m_ii E_i + I).

    E_i is the single-entry diagonal at i (1-based). On a matrix
    diag(c).adj + diag(d) with c_i = 1 this is the matrix of local
    complementation at i, with lower blocks (c, d) updated as
    compose(q, local_complement_op(g, i)) updates them; with c_i = 0 it is
    the identity. The reference that the decomposition walk is checked
    against.
    """
    n = m.rows
    idx = i - 1
    factor_rows = [1 << r for r in range(n)]
    factor_rows[idx] ^= m.row_ints[idx]
    if (m.row_ints[idx] >> idx) & 1:
        factor_rows[idx] ^= 1 << idx
    return gf2.mat_mul(m, gf2.BitMatrix(n, n, factor_rows))


def symplectic_form_matrix(n):
    """The 2n x 2n matrix [[0, I], [I, 0]] of the symplectic form."""
    rows = [1 << (n + i) for i in range(n)] + [1 << i for i in range(n)]
    return gf2.BitMatrix(2 * n, 2 * n, rows)


def random_bitmatrix(rng, rows, cols):
    return gf2.BitMatrix(rows, cols, [rng.getrandbits(cols) for _ in range(rows)])


def random_invertible(rng, n):
    while True:
        m = random_bitmatrix(rng, n, n)
        if reference_try_invert(m) is not None:
            return m


def random_graph(rng, n):
    rows = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            if rng.getrandbits(1):
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return graphs.Graph(gf2.BitMatrix(n, n, rows))


def all_graphs(n):
    """Every labeled simple graph on n vertices, in edge-mask order."""
    slots = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for mask in range(1 << len(slots)):
        rows = [0] * n
        for t, (i, j) in enumerate(slots):
            if (mask >> t) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        yield graphs.Graph(gf2.BitMatrix(n, n, rows))


def matrix_from_rows(rows_of_bits):
    """Build a BitMatrix from an iterable of rows, each an iterable of 0/1 values."""
    ints = []
    width = None
    for row in rows_of_bits:
        acc = count = 0
        for b in row:
            if b not in (0, 1):
                raise ValueError(f"bit values must be 0 or 1, got {b!r}")
            acc |= b << count
            count += 1
        if width is None:
            width = count
        elif count != width:
            raise ValueError("ragged rows")
        ints.append(acc)
    if width is None:
        width = 0
    return gf2.BitMatrix(len(ints), width, ints)


def zero_matrix(rows, cols):
    return gf2.BitMatrix(rows, cols, [0] * rows)


def empty_graph(n):
    return graphs.Graph._trusted(zero_matrix(n, n))


def complete_graph(n):
    full = (1 << n) - 1
    return graphs.Graph._trusted(gf2.BitMatrix(n, n, [full ^ (1 << i) for i in range(n)]))


def path_graph(n):
    """The path 1-2-...-n."""
    rows = [0] * n
    for i in range(n - 1):
        rows[i] |= 1 << (i + 1)
        rows[i + 1] |= 1 << i
    return graphs.Graph._trusted(gf2.BitMatrix(n, n, rows))


def star_graph(n, center=1):
    """All edges from ``center`` to every other vertex."""
    c = graphs._check_vertex(n, center)
    rows = [1 << c if i != c else 0 for i in range(n)]
    rows[c] = ((1 << n) - 1) ^ (1 << c)
    return graphs.Graph._trusted(gf2.BitMatrix(n, n, rows))


def graph_from_edges(n, edges):
    """Graph on n vertices with the given (i, j) edges, 1-based."""
    rows = [0] * n
    for i, j in edges:
        a, b = graphs._check_vertex(n, i), graphs._check_vertex(n, j)
        if a == b:
            raise ValueError(f"self-loop at vertex {i}")
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return graphs.Graph._trusted(gf2.BitMatrix(n, n, rows))


def op_from_qubit_blocks(blocks):
    """Build a LocalCliffordOp from an iterable of per-qubit (a, b, c, d) bit tuples."""
    blocks = list(blocks)
    for i, block in enumerate(blocks, start=1):
        if len(block) != 4:
            raise ValueError(f"qubit {i}: expected four bits (a, b, c, d), got {len(block)}")
    diagonals = matrix_from_rows([bl[f] for bl in blocks] for f in range(4)).row_ints
    return clifford._op(len(blocks), *diagonals)


def identity_op(n):
    ones = (1 << n) - 1
    return clifford._op(n, ones, 0, 0, ones)


def compose(q2, q1):
    """Group product: q1 applied first, then q2 (right-to-left operator order)."""
    if q2.n != q1.n:
        raise ValueError("qubit count mismatch")
    a = (q2.a.bits & q1.a.bits) ^ (q2.b.bits & q1.c.bits)
    b = (q2.a.bits & q1.b.bits) ^ (q2.b.bits & q1.d.bits)
    c = (q2.c.bits & q1.a.bits) ^ (q2.d.bits & q1.c.bits)
    d = (q2.c.bits & q1.b.bits) ^ (q2.d.bits & q1.d.bits)
    return clifford._op(q1.n, a, b, c, d)


def local_complement_op(g, i):
    """The local Clifford operation whose graph action is local complementation at i.

    Blocks: A = I, B = diag(row i of the adjacency), C = the single-entry
    diagonal at i, D = I. Every graph is in its domain, and the action equals
    :func:`graphs.local_complement` at the same vertex.
    """
    idx = graphs._check_vertex(g.n, i)
    ones = (1 << g.n) - 1
    return clifford._op(g.n, ones, g.adj.row_ints[idx], 1 << idx, ones)


def hadamard_all_op(n):
    """The Z/X swap [[0, 1], [1, 0]] on every qubit."""
    ones = (1 << n) - 1
    return clifford._op(n, 0, ones, ones, 0)


def basis_change(stab, r):
    """Right-multiply by an invertible matrix: new generators for the same subspace."""
    if not r.is_square() or reference_try_invert(r) is None:
        raise gf2.SingularError("basis change matrix must be invertible")
    return stabilizer.StabilizerGenMatrix._trusted(gf2.mat_mul(stab.s, r))


_TRANSVECTIONS_PER_QUBIT = 8


def random_stabilizer(n, seed):
    """Random stabilizer generator matrix, deterministic in the seed.

    Starts from the X-only matrix [0; I] and applies 8n random symplectic
    transvections x -> x + <v, x> v to all columns. Transvections preserve the
    symplectic form, so self-orthogonality and full rank hold by
    construction; empirically the X-block rank of the output ranges over
    0..n across seeds.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = random.Random(seed)
    mask = (1 << n) - 1
    cols = [1 << (n + j) for j in range(n)]
    for _ in range(_TRANSVECTIONS_PER_QUBIT * n):
        v = 0
        while v == 0:
            v = rng.getrandbits(2 * n)
        # <v, c> pairs the Z half of v with the X half of c and vice versa
        swapped = (v >> n) | (v & mask) << n
        cols = [c ^ v if (swapped & c).bit_count() & 1 else c for c in cols]
    return stabilizer.StabilizerGenMatrix._trusted(gf2.transpose(gf2.BitMatrix(n, 2 * n, cols)))


def in_domain(q, g):
    """Whether g lies in the domain of q's graph action."""
    try:
        reference_graph_action(q, g)
    except clifford.NotInDomainError:
        return False
    return True


def step_indices(seq):
    """All step indices in order of appearance: i for singles, j and k for triples."""
    out = []
    for step in seq:
        if isinstance(step, decomposition.Single):
            out.append(step.i)
        else:
            out.extend((step.j, step.k))
    return out


def random_in_domain_op(rng, g):
    """A random local Clifford operation whose domain contains g.

    Draws lower diagonals until their combination with the adjacency is
    invertible, then completes them; completions are exactly the in-domain
    operations with those lower blocks. Per-qubit (c_i, d_i) pairs are drawn
    from the three nonzero values: a (0, 0) pair makes a zero row, so it can
    never occur in a valid lower block.
    """
    n = g.n
    pairs = [(0, 1), (1, 0), (1, 1)]
    while True:
        cbits = 0
        dbits = 0
        for i in range(n):
            ci, di = pairs[rng.randrange(3)]
            cbits |= ci << i
            dbits |= di << i
        try:
            return clifford.complete_from_cd(g, gf2.BitVec(n, cbits), gf2.BitVec(n, dbits))
        except gf2.SingularError:
            continue


def reference_completion(g, c, d):
    """The in-domain operation with lower diagonals (c, d), qubit by qubit.

    Per qubit, the first of (0, 1), (1, 0), (1, 1) that keeps the 2x2 block
    invertible is taken and switched by (c_i, d_i) when its image diagonal
    entry is 1; the result is checked with :func:`reference_graph_action`.
    Raises SingularError when C.adj + D is singular.
    """
    n = g.n
    denom_inv = reference_try_invert(cd_matrix(g.adj, c, d))
    if denom_inv is None:
        raise gf2.SingularError("lower blocks do not give an invertible denominator")
    inv_cols = gf2.transpose(denom_inv).row_ints
    abits = bbits = 0
    for i in range(n):
        ci = (c.bits >> i) & 1
        di = (d.bits >> i) & 1
        ai, bi = next(
            (cand_a, cand_b)
            for cand_a, cand_b in ((0, 1), (1, 0), (1, 1))
            if (cand_a & di) ^ (cand_b & ci)
        )
        row = (g.adj.row_ints[i] if ai else 0) ^ ((1 << i) if bi else 0)
        if (row & inv_cols[i]).bit_count() & 1:
            ai ^= ci
            bi ^= di
        abits |= ai << i
        bbits |= bi << i
    q = clifford.LocalCliffordOp(gf2.BitVec(n, abits), gf2.BitVec(n, bbits), c, d)
    assert in_domain(q, g)
    return q


def random_valid_clifford(rng, n):
    """Uniform random local Clifford diagonals (not tied to any graph)."""
    valid = _all_blocks()
    return op_from_qubit_blocks(
        rng.choice(valid) for _ in range(n)
    )


def _all_blocks():
    out = []
    for a in (0, 1):
        for b in (0, 1):
            for c in (0, 1):
                for d in (0, 1):
                    if (a & d) ^ (b & c):
                        out.append((a, b, c, d))
    return out


def reference_linear_system(sa, sb):
    """The n^2 x 4n equivalence system by rows, row (a, b) at index a*n + b.

    The layout ``equivalence.build_linear_system`` returns transposed: the
    coefficient of A_i is z_{a,i} x'_{b,i}, of B_i is x_{a,i} x'_{b,i}, of
    C_i is z_{a,i} z'_{b,i}, and of D_i is x_{a,i} z'_{b,i}.
    """
    n = sa.n
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
    return gf2.BitMatrix(n * n, 4 * n, rows)


def reference_null_space(m):
    """Reduced null-space basis of m by row elimination, free columns ascending.

    Its own Gauss-Jordan loop, sharing no code with the ``gf2`` kernel or
    ``reference_eliminate``.
    """
    rows = list(m.row_ints)
    pivots = []
    for col in range(m.cols):
        r = next((i for i in range(len(pivots), len(rows)) if rows[i] >> col & 1), None)
        if r is None:
            continue
        top = len(pivots)
        rows[top], rows[r] = rows[r], rows[top]
        for i in range(len(rows)):
            if i != top and rows[i] >> col & 1:
                rows[i] ^= rows[top]
        pivots.append(col)
    basis = []
    for free in range(m.cols):
        if free in pivots:
            continue
        bits = 1 << free
        for k, col in enumerate(pivots):
            if rows[k] >> free & 1:
                bits |= 1 << col
        basis.append(bits)
    return basis


def reference_equivalence(sa, sb):
    """The solver as one exhaustive lexicographic search over the whole null space.

    Counts up through all 2^dim - 1 nonzero coefficient tuples, the first
    basis vector most significant, and returns the first vector meeting
    every constraint a_i d_i + b_i c_i = 1, verified; Inequivalent when the
    whole space fails. Exponential in the dimension, so keep it small.
    """
    n = sa.n
    basis = reference_null_space(reference_linear_system(sa, sb))
    dim = len(basis)
    mask = (1 << n) - 1
    for t in range(1, 1 << dim):
        x = 0
        for j in range(dim):
            if t >> (dim - 1 - j) & 1:
                x ^= basis[j]
        a, b, c, d = (x >> (k * n) & mask for k in range(4))
        if (a & d) ^ (b & c) != mask:
            continue
        q = clifford.LocalCliffordOp(*(gf2.BitVec(n, v) for v in (a, b, c, d)))
        moved = stabilizer.StabilizerGenMatrix(clifford.apply_to_stabilizer(q, sa))
        assert stabilizer.same_subspace(moved, sb)
        return equivalence.Equivalent(q)
    return equivalence.Inequivalent()
