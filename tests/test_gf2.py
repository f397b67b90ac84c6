"""Bit-packed GF(2) linear algebra against naive list-based oracles."""

import random

import pytest

from conftest import (
    complete_graph,
    diag_from_vec,
    invert,
    mat_vec,
    matrix_from_rows,
    naive_mat_mul,
    naive_rank,
    random_bitmatrix,
    random_graph,
    random_invertible,
    random_stabilizer,
    reference_eliminate,
    reference_mat_mul,
    reference_parse_matrix,
    reference_rank,
    reference_solve_homogeneous,
    reference_to01,
    reference_transpose,
    reference_try_invert,
    rows_of,
    symplectic_form_matrix,
    zero_matrix,
)
from stabgraph import equivalence, gf2, graphs, stabilizer
from stabgraph.errors import ParseError
from stabgraph.gf2 import BitMatrix, BitVec, SingularError


def test_bitvec_basics():
    (bits,) = matrix_from_rows([[1, 0, 1, 1]]).row_ints
    v = BitVec(4, bits)
    assert v.n == 4
    assert v.bits == 0b1101
    assert gf2.to01(v.bits, v.n) == "1011"
    w = v.bits ^ 0b1111
    assert gf2.to01(w, 4) == "0100"
    assert repr(v) == "BitVec('1011')"
    assert v == BitVec(4, 0b1101) and hash(v) == hash(BitVec(4, 0b1101))
    assert v != BitVec(5, 0b1101)
    with pytest.raises(AttributeError):
        v.bits = 0


def test_bitvec_storage_invariant():
    with pytest.raises(ValueError):
        BitVec(3, 0b1000)
    for row in ([0, 2], [0] * 64 + [2]):
        with pytest.raises(ValueError, match="bit values must be 0 or 1, got 2"):
            matrix_from_rows([row])
    with pytest.raises(ValueError, match="ragged rows"):
        matrix_from_rows([[0, 1], [1]])


def test_mat_mul_identity():
    rng = random.Random(1)
    m = random_bitmatrix(rng, 3, 3)
    assert gf2.mat_mul(gf2.identity(3), m) == m
    assert gf2.mat_mul(m, gf2.identity(3)) == m


def test_mat_mul_upper_triangular_involution():
    m = matrix_from_rows([[1, 1], [0, 1]])
    assert gf2.mat_mul(m, m) == gf2.identity(2)


def test_mat_mul_matches_naive_oracle():
    rng = random.Random(2)
    for _ in range(200):
        r = rng.randrange(1, 9)
        k = rng.randrange(1, 9)
        c = rng.randrange(1, 9)
        a = random_bitmatrix(rng, r, k)
        b = random_bitmatrix(rng, k, c)
        assert rows_of(gf2.mat_mul(a, b)) == naive_mat_mul(rows_of(a), rows_of(b))


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        gf2.mat_mul(zero_matrix(2, 3), zero_matrix(2, 3))


def test_invert_identity_and_permutation():
    assert invert(gf2.identity(4)) == gf2.identity(4)
    swap = matrix_from_rows([[0, 1], [1, 0]])
    assert invert(swap) == swap


def test_single_vertex_shear_is_self_inverse():
    # row-i pinning of an adjacency matrix plus the identity squares to I
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randrange(1, 9)
        rows = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if rng.getrandbits(1):
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
        i = rng.randrange(n)
        m_rows = [1 << r for r in range(n)]
        m_rows[i] ^= rows[i]
        m = BitMatrix(n, n, m_rows)
        assert gf2.mat_mul(m, m) == gf2.identity(n)
        assert invert(m) == m


def test_invert_random_roundtrip():
    rng = random.Random(4)
    for _ in range(500):
        n = rng.randrange(1, 13)
        m = random_invertible(rng, n)
        assert gf2.mat_mul(invert(m), m) == gf2.identity(n)


def test_invert_wide_matrices():
    # rows wider than one machine word
    rng = random.Random(9)
    m = random_invertible(rng, 100)
    assert gf2.mat_mul(invert(m), m) == gf2.identity(100)


def test_invert_singular():
    with pytest.raises(SingularError):
        invert(zero_matrix(3, 3))
    assert reference_try_invert(matrix_from_rows([[1, 1], [1, 1]])) is None


def test_rank_examples():
    assert gf2.rank(zero_matrix(4, 4)) == 0
    assert gf2.rank(gf2.identity(5)) == 5
    assert gf2.rank(matrix_from_rows([[1, 1], [1, 1]])) == 1


def test_rank_matches_naive_oracle():
    rng = random.Random(5)
    for _ in range(200):
        m = random_bitmatrix(rng, rng.randrange(1, 10), rng.randrange(1, 10))
        assert gf2.rank(m) == naive_rank(rows_of(m))


def test_solve_homogeneous_trivial():
    assert gf2.solve_homogeneous(gf2.transpose(gf2.identity(4))) == []
    basis = gf2.solve_homogeneous(gf2.transpose(zero_matrix(3, 3)))
    assert len(basis) == 3


def test_solve_homogeneous_single_row():
    m = matrix_from_rows([[1, 1, 0]])
    basis = gf2.solve_homogeneous(gf2.transpose(m))
    assert len(basis) == 2
    # oracle: enumerate all 8 vectors and compare kernels
    kernel = set()
    for bits in range(8):
        if mat_vec(m, bits) == 0:
            kernel.add(bits)
    spanned = set()
    for coeff in range(4):
        acc = 0
        for j in range(2):
            if (coeff >> j) & 1:
                acc ^= basis[j]
        spanned.add(acc)
    assert spanned == kernel


def test_solve_homogeneous_properties():
    rng = random.Random(6)
    for _ in range(200):
        m = random_bitmatrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        basis = gf2.solve_homogeneous(gf2.transpose(m))
        assert len(basis) == m.cols - gf2.rank(m)
        for b in basis:
            assert mat_vec(m, b) == 0


def test_solve_homogeneous_deterministic_order():
    m = matrix_from_rows([[1, 0, 1, 1]])
    basis = gf2.solve_homogeneous(gf2.transpose(m))
    # free columns ascending, each with the matching pivot-column fill
    assert [gf2.to01(b, 4) for b in basis] == ["0100", "1010", "1001"]


def _span(rows):
    """Every XOR of a subset of ``rows``, built subset by subset."""
    span = {0}
    for r in rows:
        span |= {v ^ r for v in span}
    return span


def _brute_rank(m):
    return len(_span(m.row_ints)).bit_length() - 1


def _first_independent_columns(m):
    """Lowest-index columns that are independent of the columns before them."""
    chosen = []
    for j in range(m.cols):
        col = sum(((r >> j) & 1) << i for i, r in enumerate(m.row_ints))
        if col not in _span(chosen):
            chosen.append(col)
            yield j


def _random_matrices(seed, count, square=False):
    """Seeded matrices up to 12 x 12, half of them of deliberately low rank."""
    rng = random.Random(seed)
    for _ in range(count):
        rows = rng.randrange(0, 13)
        cols = rows if square else rng.randrange(0, 13)
        if rng.getrandbits(1):
            yield random_bitmatrix(rng, rows, cols)
        else:
            k = rng.randrange(0, 6)
            yield gf2.mat_mul(random_bitmatrix(rng, rows, k), random_bitmatrix(rng, k, cols))


def test_eliminate_pivot_rule_examples():
    # each row reduces against the earlier independent rows by its highest set bit
    assert list(gf2._reduce_rows([0b10, 0b01, 0b11])) == [0b10, 0b01, 0b00]
    # 0b011 holds pivot 1 (its highest bit), so 0b010 reduces to 0b001 and holds pivot 0
    assert list(gf2._reduce_rows([0b011, 0b010])) == [0b011, 0b001]
    # bits below low are bookkeeping: a row whose remainder lies below low is dependent
    assert list(gf2._reduce_rows([0b1_01, 0b1_10, 0b0_11], low=2)) == [0b101, 0b011, 0b011]
    # remainders come one row at a time, so a caller can stop at any row
    rows = iter([0b1, 0b1, 0b10])
    assert next(gf2._reduce_rows(rows)) == 0b1
    assert list(rows) == [0b1, 0b10]


def test_eliminate_properties():
    for m in _random_matrices(31, 300):
        # an identity carried below the reduced bits records every row operation
        start = [r << m.rows | 1 << i for i, r in enumerate(m.row_ints)]
        remainders = list(gf2._reduce_rows(start, m.rows))
        assert len(remainders) == m.rows
        tops = [r.bit_length() for r in remainders if r >> m.rows]
        assert len(tops) == len(set(tops)) == _brute_rank(m)
        for i, r in enumerate(remainders):
            combo = r & (1 << m.rows) - 1
            # only row i and rows before it were mixed in
            assert combo.bit_length() == i + 1
            mixed = 0
            for k, orig in enumerate(m.row_ints):
                if (combo >> k) & 1:
                    mixed ^= orig
            assert r >> m.rows == mixed
        kept = [r >> m.rows for r in remainders if r >> m.rows]
        assert _span(kept) == _span(m.row_ints)


def test_eliminate_pivot_rows_are_the_lowest_index_independent_rows():
    # reduction.to_graph_state relies on this to pick its Hadamard-free qubits
    rng = random.Random(35)
    for trial in range(400):
        rows_n = rng.randrange(1, 14)
        cols = rows_n if trial % 2 else rng.randrange(1, 14)
        rows = [rng.getrandbits(cols) for _ in range(rows_n)]
        for i in range(1, rows_n):
            if rng.random() < 0.4:  # planted dependent row: a sum of earlier rows
                rows[i] = 0
                for k in rng.sample(range(i), rng.randrange(1, i + 1)):
                    rows[i] ^= rows[k]
        # greedy reference: keep a row iff it is independent of the rows kept before it
        basis = {}
        greedy = []
        for i, r in enumerate(rows):
            while r and r.bit_length() in basis:
                r ^= basis[r.bit_length()]
            if r:
                basis[r.bit_length()] = r
                greedy.append(i)
        pivots = [(r.bit_length() - 1, i) for i, r in enumerate(gf2._reduce_rows(rows)) if r]
        assert sorted(i for _, i in pivots) == greedy


def test_rank_matches_brute_force():
    for m in _random_matrices(32, 300):
        assert gf2.rank(m) == _brute_rank(m)


def test_try_invert_matches_brute_force():
    for m in _random_matrices(33, 300, square=True):
        inv = reference_try_invert(m)
        if _brute_rank(m) < m.rows:
            assert inv is None
        else:
            assert gf2.mat_mul(inv, m) == gf2.identity(m.rows)
            assert gf2.mat_mul(m, inv) == gf2.identity(m.rows)


def test_null_basis_is_the_reduced_basis():
    for m in _random_matrices(34, 300):
        basis = gf2.solve_homogeneous(gf2.transpose(m))
        assert len(basis) == m.cols - _brute_rank(m)
        free = [b.bit_length() - 1 for b in basis]
        assert free == sorted(set(range(m.cols)) - set(_first_independent_columns(m)))
        free_mask = sum(1 << f for f in free)
        for f, b in zip(free, basis):
            assert mat_vec(m, b) == 0
            assert b & free_mask == 1 << f


def test_helpers():
    rng = random.Random(7)
    m = random_bitmatrix(rng, 5, 3)
    assert gf2.transpose(gf2.transpose(m)) == m
    assert gf2.diagonal(gf2.identity(2)) == 0b11
    sq = matrix_from_rows([[1, 1], [0, 1]])
    assert gf2.set_diagonal_zero(sq) == matrix_from_rows([[0, 1], [0, 0]])
    assert gf2.is_symmetric(complete_graph(4).adj)
    assert not gf2.is_symmetric(sq)
    assert diag_from_vec(0b101, 3) == matrix_from_rows(
        [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
    )
    for n in (63, 64, 65):  # one word, and either side of it
        m = random_bitmatrix(rng, n, n)
        rows = rows_of(m)
        assert matrix_from_rows(rows) == m
        assert gf2.diagonal(m) == sum(rows[i][i] << i for i in range(n))
        assert gf2.diagonal(gf2.identity(n)) == (1 << n) - 1


def test_stacking():
    a = matrix_from_rows([[1, 0], [0, 1]])
    b = matrix_from_rows([[1, 1], [0, 0]])
    assert gf2.hstack(a, b) == matrix_from_rows([[1, 0, 1, 1], [0, 1, 0, 0]])
    assert gf2.vstack(a, b) == matrix_from_rows([[1, 0], [0, 1], [1, 1], [0, 0]])


def test_symplectic_form():
    p = symplectic_form_matrix(2)
    # (z|x) encodings: Z1 = 01|00, X1 = 00|01 anticommute; Z1, Z2 commute
    z1, z2, x1 = 0b0001, 0b0010, 0b0100
    assert (z1 & mat_vec(p, x1)).bit_count() & 1 == 1
    assert (z1 & mat_vec(p, z2)).bit_count() & 1 == 0
    assert gf2.is_symmetric(p)
    assert gf2.mat_mul(p, p) == gf2.identity(4)
    for u in (z1, z2, x1):
        for v in (z1, z2, x1):
            assert (u & mat_vec(p, v)).bit_count() & 1 == (v & mat_vec(p, u)).bit_count() & 1


def test_matrix_text_roundtrip():
    rng = random.Random(8)
    for _ in range(50):
        m = random_bitmatrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        text = gf2.format_matrix(m)
        assert gf2.parse_matrix(text) == m
        assert gf2.format_matrix(gf2.parse_matrix(text)) == text


def test_matrix_text_exact():
    m = matrix_from_rows([[1, 0, 1], [0, 1, 1]])
    assert gf2.format_matrix(m) == "2 3\n101\n011\n"


def test_matrix_parse_errors():
    with pytest.raises(ParseError):
        gf2.parse_matrix("")
    with pytest.raises(ParseError) as err:
        gf2.parse_matrix("2\n10\n01\n")
    assert err.value.line == 1
    with pytest.raises(ParseError) as err:
        gf2.parse_matrix("2 2\n10\n0x\n")
    assert err.value.line == 3
    assert err.value.column == 2
    with pytest.raises(ParseError):
        gf2.parse_matrix("2 2\n101\n010\n")


@pytest.mark.parametrize("header", ["2_0 1", "+2 1", "\u0662 1", "2 \u0661"])
def test_matrix_header_takes_ascii_digits_only(header):
    with pytest.raises(ParseError, match="expected two integers in header"):
        gf2.parse_matrix(header + "\n0\n1\n")


# Rows of 4400 bits are longer than the default int_max_str_digits (4300):
# that limit leaves base 2 alone, in int(s, 2) and format(v, "b") alike.
KERNEL_SHAPES = [
    (0, 6), (6, 0), (0, 0), (1, 1), (6, 6), (63, 63), (64, 64), (65, 65),
    (128, 64), (64, 128), (5, 4400),
]


def _kernel_inputs(rows, cols):
    """The shape's seeded generator and a dense, a sparse and a low-rank matrix of it."""
    rng = random.Random(rows * 10007 + cols)
    bits = rng.getrandbits
    sparse = [bits(cols) & bits(cols) & bits(cols) for _ in range(rows)]
    k = min(rows, cols) // 2
    low = reference_mat_mul(random_bitmatrix(rng, rows, k), random_bitmatrix(rng, k, cols))
    dense = random_bitmatrix(rng, rows, cols)
    return rng, [dense, BitMatrix(rows, cols, sparse), low]


@pytest.mark.parametrize("rows,cols", KERNEL_SHAPES)
def test_transpose_and_mat_mul_match_the_bit_loops(rows, cols):
    rng, matrices = _kernel_inputs(rows, cols)
    for m in matrices:
        mt = reference_transpose(m)
        assert gf2.transpose(m) == mt
        for a, b in ((m, random_bitmatrix(rng, cols, 7)), (random_bitmatrix(rng, 3, rows), m)):
            assert gf2.mat_mul(a, b) == reference_mat_mul(a, b)
        assert gf2.mat_mul(m, mt) == reference_mat_mul(m, mt)


def _assert_same_elimination(m):
    """Rank, pivot rows, null basis and inverse of m as the column-scan reference gives them."""
    assert gf2.rank(m) == reference_rank(m)
    kept = [i for i, r in enumerate(gf2._reduce_rows(m.row_ints)) if r]
    assert kept == sorted(i for _, i in reference_eliminate(list(m.row_ints), range(m.cols)))
    assert gf2.solve_homogeneous(m) == reference_solve_homogeneous(m)
    k = min(m.rows, m.cols)
    square = BitMatrix(k, k, [r & (1 << k) - 1 for r in m.row_ints[:k]])
    inv = reference_try_invert(square)
    assert (inv is None) == (gf2.rank(square) < k)
    assert inv is None or gf2.mat_mul(inv, square) == gf2.identity(k)


@pytest.mark.parametrize("rows,cols", KERNEL_SHAPES)
def test_eliminate_matches_the_bit_loop(rows, cols):
    rng, matrices = _kernel_inputs(rows, cols)
    k = min(rows, cols)
    invertible = random_invertible(rng, k) if k else BitMatrix(0, 0, [])
    for m in matrices + [invertible]:
        _assert_same_elimination(m)


@pytest.mark.parametrize("related", [False, True])
def test_eliminate_matches_the_bit_loop_on_the_equiv_system(related):
    # the system solve_homogeneous reads at n = 48: 192 unknowns of 2304 bits each
    if related:  # a graph and its image under a 144-move complementation walk
        rng = random.Random(48)
        g = h = random_graph(rng, 48)
        for _ in range(144):
            h = graphs.local_complement(h, rng.randrange(1, 49))
        sa, sb = stabilizer.from_graph(g), stabilizer.from_graph(h)
    else:
        sa, sb = random_stabilizer(48, 1), random_stabilizer(48, 2)
    _assert_same_elimination(equivalence.build_linear_system(sa, sb))


def test_null_basis_matches_the_reference_on_stabilizer_pairs():
    rng = random.Random(36)
    for k in range(1000):
        n = 1 + k % 32
        sa = random_stabilizer(n, rng.randrange(10**6))
        sb = random_stabilizer(n, rng.randrange(10**6))
        mt = equivalence.build_linear_system(sa, sb)
        assert gf2.solve_homogeneous(mt) == reference_solve_homogeneous(mt)


@pytest.mark.parametrize("rows,cols", KERNEL_SHAPES)
def test_bit_strings_match_the_bit_loops(rows, cols):
    _, matrices = _kernel_inputs(rows, cols)
    for m in matrices:
        for r in m.row_ints:
            assert gf2.to01(r, cols) == reference_to01(r, cols)
        text = gf2.format_matrix(m)
        assert gf2.parse_matrix(text) == reference_parse_matrix(text) == m


def test_matrix_rows_checked_against_the_column_count():
    with pytest.raises(ValueError, match="beyond column count"):
        BitMatrix(2, 3, [0b111, 0b1000])
    with pytest.raises(ValueError, match="beyond column count"):
        BitMatrix(2, 3, [0b111, -1])
    assert BitMatrix(2, 0, [0, 0]).row_ints == (0, 0)
