"""Shared random-instance generators, naive list-of-lists GF(2) oracles and
the matrix reference for the decomposition walk.

The naive oracles work on plain Python lists of 0/1 ints with explicit
loops, on purpose: they validate the bit-packed implementations without
sharing any code with them.
"""

from stabgraph import clifford, gf2, graphs


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
        if gf2.is_invertible(m):
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


def random_valid_clifford(rng, n):
    """Uniform random local Clifford diagonals (not tied to any graph)."""
    valid = _all_blocks()
    return clifford.LocalCliffordOp.from_qubit_blocks(
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
