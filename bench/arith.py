"""Plain-int GF(2) arithmetic, independent of the library under test.

Matrices are lists of row ints (bit j of row i is entry (i, j)); graphs are
symmetric zero-diagonal adjacency matrices in that form, 0-based. The
benchmark builds its inputs and re-checks the library's outputs with these
helpers only, so a defect in ``stabgraph.gf2`` cannot hide itself.
"""

from __future__ import annotations


def rank(rows):
    """Row rank, by elimination on lead bits."""
    basis = {}
    for v in rows:
        while v:
            lead = v.bit_length() - 1
            if lead not in basis:
                basis[lead] = v
                break
            v ^= basis[lead]
    return len(basis)


def invert(rows):
    """Inverse of a square matrix, or None when singular."""
    n = len(rows)
    work = list(rows)
    inv = [1 << i for i in range(n)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if (work[i] >> col) & 1), None)
        if pivot is None:
            return None
        work[col], work[pivot] = work[pivot], work[col]
        inv[col], inv[pivot] = inv[pivot], inv[col]
        for i in range(n):
            if i != col and (work[i] >> col) & 1:
                work[i] ^= work[col]
                inv[i] ^= inv[col]
    return inv


def mat_mul(a, b):
    """Product a.b: row i is the XOR of the rows of b picked by row i of a."""
    out = []
    for ra in a:
        acc = 0
        j = 0
        while ra:
            if ra & 1:
                acc ^= b[j]
            ra >>= 1
            j += 1
        out.append(acc)
    return out


def transpose(rows, cols):
    out = [0] * cols
    for i, r in enumerate(rows):
        for j in range(cols):
            if (r >> j) & 1:
                out[j] |= 1 << i
    return out


def identity(n):
    return [1 << i for i in range(n)]


def local_complement(adj, v):
    """Toggle every edge between two neighbours of v (0-based)."""
    mask = adj[v]
    out = list(adj)
    for j in range(len(adj)):
        if (mask >> j) & 1:
            out[j] ^= mask & ~(1 << j)
    return out


def is_connected(adj):
    n = len(adj)
    seen = 1
    frontier = 1
    while frontier:
        reach = 0
        for j in range(n):
            if (frontier >> j) & 1:
                reach |= adj[j]
        frontier = reach & ~seen
        seen |= frontier
    return seen == (1 << n) - 1


def lc_orbit(adj):
    """All adjacency tuples reachable from adj by local complementations."""
    start = tuple(adj)
    seen = {start}
    todo = [start]
    while todo:
        cur = todo.pop()
        for v in range(len(cur)):
            nxt = tuple(local_complement(cur, v))
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return seen


def graph_stabilizer(adj):
    """The 2n x n generator matrix [adj; I] as 2n row ints."""
    return list(adj) + identity(len(adj))


def apply_local_clifford(a, b, c, d, s):
    """Row action of diagonals (a, b, c, d) on a 2n-row matrix [Z; X]."""
    n = len(s) // 2
    z, x = s[:n], s[n:]
    out_z = [(z[i] if (a >> i) & 1 else 0) ^ (x[i] if (b >> i) & 1 else 0) for i in range(n)]
    out_x = [(z[i] if (c >> i) & 1 else 0) ^ (x[i] if (d >> i) & 1 else 0) for i in range(n)]
    return out_z + out_x


def same_span(s, t):
    """True iff two full-rank 2n x n matrices have equal column spans."""
    n = len(s) // 2
    joined = [sr | (tr << n) for sr, tr in zip(s, t)]
    return rank(transpose(joined, 2 * n)) == n


def solution_dim(s, t):
    """Null-space dimension of the 4n-unknown equivalence system of two states.

    Row (a, b) asks that generator a of s, moved by diagonals (A, B, C, D),
    commutes with generator b of t; the coefficients of (A_i, B_i, C_i, D_i)
    are (z_ai x'_bi, x_ai x'_bi, z_ai z'_bi, x_ai z'_bi).
    """
    n = len(s) // 2
    sc = transpose(s, n)
    tc = transpose(t, n)
    mask = (1 << n) - 1
    rows = []
    for ga in sc:
        za, xa = ga & mask, ga >> n
        for gb in tc:
            zb, xb = gb & mask, gb >> n
            rows.append(
                (za & xb) | (xa & xb) << n | (za & zb) << (2 * n) | (xa & zb) << (3 * n)
            )
    return 4 * n - rank(rows)
