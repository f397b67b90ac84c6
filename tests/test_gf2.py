"""Bit-packed GF(2) linear algebra against naive list-based oracles."""

import random

import pytest

from conftest import (
    naive_mat_mul,
    naive_rank,
    random_bitmatrix,
    random_invertible,
    rows_of,
    symplectic_form_matrix,
)
from stabgraph import gf2
from stabgraph.errors import ParseError
from stabgraph.gf2 import BitMatrix, BitVec, SingularError, SymplecticForm


def test_bitvec_basics():
    v = BitVec.from_bits([1, 0, 1, 1])
    assert len(v) == 4
    assert [v[i] for i in range(4)] == [1, 0, 1, 1]
    assert v.weight() == 3
    assert v.support() == [0, 2, 3]
    assert v.to01() == "1011"
    assert BitVec.unit(5, 2).to01() == "00100"
    assert (v ^ BitVec.ones(4)).to01() == "0100"
    assert v.dot(BitVec.from_bits([1, 1, 0, 1])) == 0
    assert v.dot(BitVec.from_bits([1, 0, 0, 0])) == 1


def test_bitvec_storage_invariant():
    with pytest.raises(ValueError):
        BitVec(3, 0b1000)
    with pytest.raises(ValueError):
        BitVec.from_bits([0, 2])


def test_mat_mul_identity():
    rng = random.Random(1)
    m = random_bitmatrix(rng, 3, 3)
    assert gf2.mat_mul(gf2.identity(3), m) == m
    assert gf2.mat_mul(m, gf2.identity(3)) == m


def test_mat_mul_upper_triangular_involution():
    m = BitMatrix.from_rows([[1, 1], [0, 1]])
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
        gf2.mat_mul(BitMatrix.zeros(2, 3), BitMatrix.zeros(2, 3))


def test_invert_identity_and_permutation():
    assert gf2.invert(gf2.identity(4)) == gf2.identity(4)
    swap = BitMatrix.from_rows([[0, 1], [1, 0]])
    assert gf2.invert(swap) == swap


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
        assert gf2.invert(m) == m


def test_invert_random_roundtrip():
    rng = random.Random(4)
    for _ in range(500):
        n = rng.randrange(1, 13)
        m = random_invertible(rng, n)
        assert gf2.mat_mul(gf2.invert(m), m) == gf2.identity(n)


def test_invert_wide_matrices():
    # rows wider than one machine word
    rng = random.Random(9)
    m = random_invertible(rng, 100)
    assert gf2.mat_mul(gf2.invert(m), m) == gf2.identity(100)


def test_invert_singular():
    with pytest.raises(SingularError):
        gf2.invert(BitMatrix.zeros(3, 3))
    assert gf2.try_invert(BitMatrix.from_rows([[1, 1], [1, 1]])) is None


def test_rank_examples():
    assert gf2.rank(BitMatrix.zeros(4, 4)) == 0
    assert gf2.rank(gf2.identity(5)) == 5
    assert gf2.rank(BitMatrix.from_rows([[1, 1], [1, 1]])) == 1


def test_rank_matches_naive_oracle():
    rng = random.Random(5)
    for _ in range(200):
        m = random_bitmatrix(rng, rng.randrange(1, 10), rng.randrange(1, 10))
        assert gf2.rank(m) == naive_rank(rows_of(m))


def test_solve_homogeneous_trivial():
    assert gf2.solve_homogeneous(gf2.identity(4)) == []
    basis = gf2.solve_homogeneous(BitMatrix.zeros(3, 3))
    assert len(basis) == 3


def test_solve_homogeneous_single_row():
    m = BitMatrix.from_rows([[1, 1, 0]])
    basis = gf2.solve_homogeneous(m)
    assert len(basis) == 2
    # oracle: enumerate all 8 vectors and compare kernels
    kernel = set()
    for bits in range(8):
        v = BitVec(3, bits)
        if gf2.mat_vec(m, v).bits == 0:
            kernel.add(bits)
    spanned = set()
    for coeff in range(4):
        acc = 0
        for j in range(2):
            if (coeff >> j) & 1:
                acc ^= basis[j].bits
        spanned.add(acc)
    assert spanned == kernel


def test_solve_homogeneous_properties():
    rng = random.Random(6)
    for _ in range(200):
        m = random_bitmatrix(rng, rng.randrange(1, 9), rng.randrange(1, 9))
        basis = gf2.solve_homogeneous(m)
        assert len(basis) == m.cols - gf2.rank(m)
        for b in basis:
            assert gf2.mat_vec(m, b).bits == 0


def test_solve_homogeneous_deterministic_order():
    m = BitMatrix.from_rows([[1, 0, 1, 1]])
    basis = gf2.solve_homogeneous(m)
    # free columns ascending, each with the matching pivot-column fill
    assert [b.to01() for b in basis] == ["0100", "1010", "1001"]


def test_helpers():
    assert gf2.all_ones_offdiag(2) == BitMatrix.from_rows([[0, 1], [1, 0]])
    rng = random.Random(7)
    m = random_bitmatrix(rng, 5, 3)
    assert gf2.transpose(gf2.transpose(m)) == m
    assert gf2.diagonal(gf2.identity(2)) == BitVec.from_bits([1, 1])
    sq = BitMatrix.from_rows([[1, 1], [0, 1]])
    assert gf2.set_diagonal_zero(sq) == BitMatrix.from_rows([[0, 1], [0, 0]])
    assert gf2.column(sq, 1) == BitVec.from_bits([1, 1])
    assert gf2.is_symmetric(gf2.all_ones_offdiag(4))
    assert not gf2.is_symmetric(sq)
    assert gf2.diag_from_vec(BitVec.from_bits([1, 0, 1])) == BitMatrix.from_rows(
        [[1, 0, 0], [0, 0, 0], [0, 0, 1]]
    )


def test_stacking():
    a = BitMatrix.from_rows([[1, 0], [0, 1]])
    b = BitMatrix.from_rows([[1, 1], [0, 0]])
    assert gf2.hstack(a, b) == BitMatrix.from_rows([[1, 0, 1, 1], [0, 1, 0, 0]])
    assert gf2.vstack(a, b) == BitMatrix.from_rows([[1, 0], [0, 1], [1, 1], [0, 0]])


def test_symplectic_form():
    form = SymplecticForm(2)
    # (z|x) encodings: Z1 = 01|00, X1 = 00|01 anticommute; Z1, Z2 commute
    z1 = BitVec.from_bits([1, 0, 0, 0])
    z2 = BitVec.from_bits([0, 1, 0, 0])
    x1 = BitVec.from_bits([0, 0, 1, 0])
    assert form.product(z1, x1) == 1
    assert form.product(z1, z2) == 0
    p = symplectic_form_matrix(2)
    assert gf2.is_symmetric(p)
    assert gf2.mat_mul(p, p) == gf2.identity(4)
    for u in (z1, z2, x1):
        for v in (z1, z2, x1):
            assert form.product(u, v) == u.dot(gf2.mat_vec(p, v)) % 2


def test_matrix_text_roundtrip():
    rng = random.Random(8)
    for _ in range(50):
        m = random_bitmatrix(rng, rng.randrange(1, 8), rng.randrange(1, 8))
        text = gf2.format_matrix(m)
        assert gf2.parse_matrix(text) == m
        assert gf2.format_matrix(gf2.parse_matrix(text)) == text


def test_matrix_text_exact():
    m = BitMatrix.from_rows([[1, 0, 1], [0, 1, 1]])
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
