"""Pauli encoding, generator-matrix validation, and random instance generation."""

import random

import pytest

from conftest import (
    mat_vec,
    random_invertible,
    reference_pauli_from_text,
    reference_pauli_to_text,
    symplectic_form_matrix,
)
from stabgraph import gf2, graphs, stabilizer
from stabgraph.errors import ParseError
from stabgraph.gf2 import BitMatrix, BitVec
from stabgraph.stabilizer import (
    NotCommutingError,
    NotIndependentError,
    PauliString,
    StabilizerGenMatrix,
    WrongCountError,
    from_graph,
    from_pauli_strings,
    random_stabilizer,
)


def pauli(text):
    return PauliString.from_text(text)


def test_pauli_encoding():
    p = pauli("IXZY")
    assert p.z.to01() == "0011"
    assert p.x.to01() == "0101"
    assert p.to_text() == "IXZY"
    assert pauli("+XX") == pauli("XX")
    assert pauli("-XX") == pauli("XX")  # signs dropped by design
    with pytest.raises(ParseError):
        pauli("XQ")


@pytest.mark.parametrize("n", [0, 1, 7, 64, 4400])
def test_pauli_codec_matches_the_letter_loop(n):
    rng = random.Random(n)
    for _ in range(5):
        text = "".join(rng.choice("IXYZ") for _ in range(n))
        p = pauli(text)
        assert p == reference_pauli_from_text(text) == pauli("-" + text)
        assert p.to_text() == reference_pauli_to_text(p) == text


def test_from_pauli_strings_edge_graph():
    s = from_pauli_strings([pauli("XZ"), pauli("ZX")])
    edge = graphs.Graph.from_edges(2, [(1, 2)])
    assert s.s == gf2.vstack(edge.adj, gf2.identity(2))


def test_from_pauli_strings_z_only():
    s = from_pauli_strings([pauli("ZI"), pauli("IZ")])
    assert s.s == gf2.vstack(gf2.identity(2), BitMatrix.zeros(2, 2))


def test_from_pauli_strings_bell_pair_generators():
    s = from_pauli_strings([pauli("XX"), pauli("ZZ")])
    assert s.n == 2


def test_from_pauli_strings_errors():
    with pytest.raises(NotCommutingError) as err:
        from_pauli_strings([pauli("XI"), pauli("ZI")])
    assert err.value.pair == (1, 2)
    with pytest.raises(NotIndependentError):
        from_pauli_strings([pauli("XX"), pauli("XX")])
    # dependent and anticommuting: independence is checked first
    with pytest.raises(NotIndependentError):
        from_pauli_strings([pauli("XII"), pauli("ZII"), pauli("YII")])
    with pytest.raises(NotCommutingError) as err:
        from_pauli_strings([pauli("ZII"), pauli("IXI"), pauli("IZZ")])
    assert err.value.pair == (2, 3)
    with pytest.raises(WrongCountError):
        from_pauli_strings([pauli("XI")])
    with pytest.raises(WrongCountError):
        from_pauli_strings([])


def test_constructor_rejects_bad_matrices():
    with pytest.raises(NotCommutingError):
        # columns encode XI and ZI, which anticommute
        StabilizerGenMatrix(BitMatrix.from_rows([[0, 1], [0, 0], [1, 0], [0, 0]]))
    with pytest.raises(NotIndependentError):
        StabilizerGenMatrix(BitMatrix.from_rows([[1, 1], [0, 0], [0, 0], [0, 0]]))
    with pytest.raises(stabilizer.StabilizerError):
        StabilizerGenMatrix(BitMatrix.zeros(3, 2))


def test_from_graph():
    empty2 = from_graph(graphs.Graph.empty(2))
    assert [p.to_text() for p in empty2.to_pauli_strings()] == ["XI", "IX"]
    edge = from_graph(graphs.Graph.from_edges(2, [(1, 2)]))
    assert [p.to_text() for p in edge.to_pauli_strings()] == ["XZ", "ZX"]
    triangle = from_graph(graphs.Graph.complete(3))
    assert [p.to_text() for p in triangle.to_pauli_strings()] == ["XZZ", "ZXZ", "ZZX"]


def test_pauli_roundtrip_on_columns():
    rng = random.Random(20)
    for seed in range(50):
        s = random_stabilizer(rng.randrange(1, 9), seed)
        assert from_pauli_strings(s.to_pauli_strings()) == s


def test_basis_change():
    s = from_graph(graphs.Graph.path(3))
    assert stabilizer.basis_change(s, gf2.identity(3)) == s
    swap = BitMatrix.from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    permuted = stabilizer.basis_change(s, swap)
    assert permuted.to_pauli_strings()[0] == s.to_pauli_strings()[1]
    assert permuted.to_pauli_strings()[1] == s.to_pauli_strings()[0]
    with pytest.raises(gf2.SingularError):
        stabilizer.basis_change(s, BitMatrix.zeros(3, 3))
    rng = random.Random(21)
    for seed in range(50):
        n = rng.randrange(1, 9)
        s = random_stabilizer(n, seed)
        r = random_invertible(rng, n)
        changed = stabilizer.basis_change(s, r)
        assert stabilizer.same_subspace(s, changed)


def test_same_subspace():
    z_span = from_pauli_strings([pauli("ZI"), pauli("IZ")])
    x_span = from_pauli_strings([pauli("XI"), pauli("IX")])
    assert not stabilizer.same_subspace(z_span, x_span)
    assert stabilizer.same_subspace(z_span, z_span)


def test_random_stabilizer_invariants():
    p = symplectic_form_matrix(2)
    seen_ranks = set()
    for seed in range(500):
        s = random_stabilizer(2, seed)
        assert gf2.rank(s.s) == 2
        cols = [BitVec(4, c) for c in gf2.transpose(s.s).row_ints]
        for u in cols:
            for v in cols:
                assert (u.bits & mat_vec(p, v).bits).bit_count() & 1 == 0
        seen_ranks.add(gf2.rank(BitMatrix(2, 2, s.s.row_ints[2:])))
    assert seen_ranks == {0, 1, 2}


def test_random_stabilizer_deterministic():
    assert random_stabilizer(5, 123) == random_stabilizer(5, 123)
    assert random_stabilizer(5, 123) != random_stabilizer(5, 124)


def test_stabilizer_text_roundtrip():
    for seed in range(20):
        s = random_stabilizer(4, seed)
        text = stabilizer.format_stabilizer(s)
        assert stabilizer.parse_stabilizer(text) == s
        assert stabilizer.format_stabilizer(stabilizer.parse_stabilizer(text)) == text


def test_parse_stabilizer_matrix_block():
    s = from_graph(graphs.Graph.path(3))
    assert stabilizer.parse_stabilizer(gf2.format_matrix(s.s)) == s


def test_parse_stabilizer_signs_ignored():
    assert stabilizer.parse_stabilizer("+XZ\n-ZX\n") == from_pauli_strings(
        [pauli("XZ"), pauli("ZX")]
    )


def test_parse_stabilizer_errors():
    with pytest.raises(ParseError):
        stabilizer.parse_stabilizer("")
    with pytest.raises(ParseError) as err:
        stabilizer.parse_stabilizer("XZ\nZQ\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        stabilizer.parse_stabilizer("XI\nZI\n")  # anticommuting
