"""Pauli encoding, generator-matrix validation, and random instance generation."""

import random

import pytest

from conftest import (
    basis_change,
    complete_graph,
    empty_graph,
    graph_from_edges,
    mat_vec,
    matrix_from_rows,
    outcome,
    path_graph,
    random_invertible,
    random_stabilizer,
    reference_pauli_from_text,
    reference_pauli_to_text,
    symplectic_form_matrix,
    zero_matrix,
)
from stabgraph import gf2, stabilizer
from stabgraph.errors import ParseError
from stabgraph.gf2 import BitMatrix
from stabgraph.stabilizer import (
    NotCommutingError,
    NotIndependentError,
    StabilizerGenMatrix,
    WrongCountError,
    format_stabilizer,
    from_graph,
    parse_stabilizer,
)


def pauli_stab(*lines):
    return parse_stabilizer("".join(line + "\n" for line in lines))


def _invalid(*lines):
    """The StabilizerError behind the ParseError that the Pauli lines raise."""
    with pytest.raises(ParseError) as err:
        pauli_stab(*lines)
    assert err.value.line == 1
    return err.value.__cause__


def test_pauli_encoding():
    s = pauli_stab("IXZY", "ZIII", "IZXI", "IIIY")
    # column 0 holds the Z bits of IXZY, then its X bits
    assert gf2.to01(gf2.transpose(s.s).row_ints[0], 8) == "0011" + "0101"
    assert format_stabilizer(s) == "IXZY\nZIII\nIZXI\nIIIY\n"
    assert pauli_stab("+IXZY", "-ZIII", "IZXI", "+IIIY") == s  # signs dropped by design
    with pytest.raises(ParseError) as err:
        pauli_stab("XQ", "ZX")
    assert (err.value.line, err.value.column) == (1, 2)


@pytest.mark.parametrize("n", [0, 1, 7, 64, 200])
def test_pauli_codec_matches_the_letter_loop(n):
    rng = random.Random(n)
    if n == 0:  # no letters to read: both readers refuse the same way
        for text in ("", "\n", "+\n", "-\n \n"):
            with pytest.raises(ParseError) as got:
                parse_stabilizer(text)
            with pytest.raises(ParseError) as want:
                reference_pauli_from_text(text)
            assert (got.value.message, got.value.line) == (want.value.message, want.value.line)
        return
    for _ in range(5):
        s = random_stabilizer(n, rng.randrange(10**6))
        text = format_stabilizer(s)
        assert text == reference_pauli_to_text(s)
        signed = "".join(rng.choice(("", "+", "-")) + ln + "\n" for ln in text.splitlines())
        assert parse_stabilizer(text) == reference_pauli_from_text(text) == s
        assert parse_stabilizer(signed) == reference_pauli_from_text(signed) == s


# Pauli strings assembled into a generator matrix: column j is line j.
def test_from_pauli_strings_edge_graph():
    s = pauli_stab("XZ", "ZX")
    edge = graph_from_edges(2, [(1, 2)])
    assert s.s == gf2.vstack(edge.adj, gf2.identity(2))


def test_from_pauli_strings_z_only():
    s = pauli_stab("ZI", "IZ")
    assert s.s == gf2.vstack(gf2.identity(2), zero_matrix(2, 2))


def test_from_pauli_strings_bell_pair_generators():
    s = pauli_stab("XX", "ZZ")
    assert s.n == 2


def test_from_pauli_strings_errors():
    err = _invalid("XI", "ZI")
    assert isinstance(err, NotCommutingError) and err.pair == (1, 2)
    assert isinstance(_invalid("XX", "XX"), NotIndependentError)
    # dependent and anticommuting: independence is checked first
    assert isinstance(_invalid("XII", "ZII", "YII"), NotIndependentError)
    err = _invalid("ZII", "IXI", "IZZ")
    assert isinstance(err, NotCommutingError) and err.pair == (2, 3)
    assert isinstance(_invalid("XI"), WrongCountError)
    # too many generators, even dependent and anticommuting ones: the count comes first
    assert isinstance(_invalid("XI", "ZI", "XI"), WrongCountError)
    with pytest.raises(ParseError, match="empty stabilizer file"):
        pauli_stab()


def test_ragged_pauli_lines_are_reported_where_they_start():
    cases = [
        ("XZ\nZXI\n", "line 2: expected 2 Pauli letters, found 3"),
        ("XZ\n\n-Z\nZX\n", "line 3: expected 2 Pauli letters, found 1"),
        ("XZI\nZXZ\nIZ\nXXX\n", "line 3: expected 3 Pauli letters, found 2"),
        ("+\n", "line 1: qubit count must be >= 1"),
        ("\n-\nX\n", "line 2: qubit count must be >= 1"),
    ]
    for text, message in cases:
        with pytest.raises(ParseError) as err:
            parse_stabilizer(text)
        assert str(err.value) == message
        with pytest.raises(ParseError) as ref:
            reference_pauli_from_text(text)
        assert str(ref.value) == message


def test_constructor_rejects_bad_matrices():
    with pytest.raises(NotCommutingError):
        # columns encode XI and ZI, which anticommute
        StabilizerGenMatrix(matrix_from_rows([[0, 1], [0, 0], [1, 0], [0, 0]]))
    with pytest.raises(NotIndependentError):
        StabilizerGenMatrix(matrix_from_rows([[1, 1], [0, 0], [0, 0], [0, 0]]))
    with pytest.raises(stabilizer.StabilizerError):
        StabilizerGenMatrix(zero_matrix(3, 2))


def test_from_graph():
    empty2 = from_graph(empty_graph(2))
    assert format_stabilizer(empty2) == "XI\nIX\n"
    edge = from_graph(graph_from_edges(2, [(1, 2)]))
    assert format_stabilizer(edge) == "XZ\nZX\n"
    triangle = from_graph(complete_graph(3))
    assert format_stabilizer(triangle) == "XZZ\nZXZ\nZZX\n"
    assert repr(triangle) == "StabilizerGenMatrix(['XZZ', 'ZXZ', 'ZZX'])"


def test_pauli_roundtrip_on_columns():
    rng = random.Random(20)
    for seed in range(50):
        s = random_stabilizer(rng.randrange(1, 9), seed)
        assert parse_stabilizer(format_stabilizer(s)) == s


def test_basis_change():
    s = from_graph(path_graph(3))
    assert basis_change(s, gf2.identity(3)) == s
    swap = matrix_from_rows([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    permuted = basis_change(s, swap)
    lines, permuted_lines = format_stabilizer(s).split(), format_stabilizer(permuted).split()
    assert permuted_lines == [lines[1], lines[0], lines[2]]
    with pytest.raises(gf2.SingularError):
        basis_change(s, zero_matrix(3, 3))
    rng = random.Random(21)
    for seed in range(50):
        n = rng.randrange(1, 9)
        s = random_stabilizer(n, seed)
        r = random_invertible(rng, n)
        changed = basis_change(s, r)
        assert stabilizer.same_subspace(s, changed)


def test_same_subspace():
    z_span = pauli_stab("ZI", "IZ")
    x_span = pauli_stab("XI", "IX")
    assert not stabilizer.same_subspace(z_span, x_span)
    assert stabilizer.same_subspace(z_span, z_span)


def test_random_stabilizer_invariants():
    p = symplectic_form_matrix(2)
    seen_ranks = set()
    for seed in range(500):
        s = random_stabilizer(2, seed)
        assert gf2.rank(s.s) == 2
        cols = gf2.transpose(s.s).row_ints
        for u in cols:
            for v in cols:
                assert (u & mat_vec(p, v)).bit_count() & 1 == 0
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
    s = from_graph(path_graph(3))
    assert stabilizer.parse_stabilizer(gf2.format_matrix(s.s)) == s


def test_parse_stabilizer_signs_ignored():
    s = stabilizer.parse_stabilizer("+XZ\n-ZX\n")
    assert s == pauli_stab("XZ", "ZX") == from_graph(graph_from_edges(2, [(1, 2)]))


def test_parse_stabilizer_errors():
    with pytest.raises(ParseError):
        stabilizer.parse_stabilizer("")
    with pytest.raises(ParseError) as err:
        stabilizer.parse_stabilizer("XZ\nZQ\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        stabilizer.parse_stabilizer("XI\nZI\n")  # anticommuting


def _decoded_by_rows(text):
    return stabilizer._decode_stabilizer(text)


def _stabilizer_texts():
    """Writer text in both formats, irregular text and texts that fail each check."""
    for n in (1, 2, 3, 7, 64):
        s = random_stabilizer(n, n)
        pauli, block = format_stabilizer(s), gf2.format_matrix(s.s)
        lines = pauli.splitlines()
        for text in (pauli, block):
            yield text
            yield text.replace("\n", "\r\n")
            yield "\n" + text.replace("\n", "\n\n")
            yield text.replace("\n", "  \n")
            yield text.rstrip("\n")
            yield text[:-1] + "I\n"
            yield text[:-2] + "\n"
            yield text + text.splitlines()[-1] + "\n"
            yield text[text.index("\n") + 1 :]
        yield "".join(("+" if i % 2 else "-") + line + "\n" for i, line in enumerate(lines))
        yield pauli.replace("Z", "W", 1).replace("X", "\u0425", 1)
        yield pauli.replace(lines[-1], lines[0]) if n > 1 else "XX\n"
        yield block.replace("1", "2", 1)
        yield block.replace(f"{2 * n} {n}", f"{2 * n} {n + 1}", 1)
        yield block.replace(f"{2 * n} {n}", f"0{2 * n} {n}", 1)
        yield block.replace(f"{2 * n} {n}", f"{2 * n + 2} {n + 1}", 1) + "0" * n + "\n" * 2
    yield from ("", "\n", "0 0\n", "2 1\n0\n1\n", "2 1\n1\n0\n", "4 2\n11\n00\n11\n00\n")
    yield from ("\u0664 \u0662\n11\n00\n11\n00\n", "XI\nZI\n", "4 2\n1x\n00\n11\n00\n", "ZZ\nXX\n")


def test_the_column_decoder_is_the_row_decoder_transposed():
    texts = list(_stabilizer_texts())
    results = [outcome(stabilizer._decode_columns, text) for text in texts]
    assert results == [outcome(_decoded_by_rows, text) for text in texts]
    assert sum(isinstance(r[0], BitMatrix) for r in results) >= 50
    assert sum(r[0] is ParseError for r in results) >= 20


def test_writer_text_is_decoded_without_the_line_reader(monkeypatch):
    texts = []
    for n in (1, 5, 64):
        s = random_stabilizer(n, 3)
        texts += [format_stabilizer(s), gf2.format_matrix(s.s)]
    expected = [_decoded_by_rows(text) for text in texts]
    monkeypatch.setattr(stabilizer, "_decode_stabilizer", None)  # a call raises TypeError
    assert [stabilizer._decode_columns(text) for text in texts] == expected


def _invalid_texts():
    """Stabilizers with one flipped bit, most failing the rank or commutation check, in both
    formats; then hand-made anticommuting, wrong-count and wrong-shape texts."""
    rng = random.Random(82)
    for n in (2, 3, 5, 8):
        for _ in range(40):
            rows = list(random_stabilizer(n, rng.randrange(10**6)).s.row_ints)
            rows[rng.randrange(2 * n)] ^= 1 << rng.randrange(n)  # often still independent
            s = StabilizerGenMatrix._trusted(BitMatrix(2 * n, n, rows))
            yield format_stabilizer(s)
            yield gf2.format_matrix(s.s)
    # the remainders 1: IIX, 2: XII (from XIX) and 3: ZII anticommute where 2 and 3 do
    yield from ("IIX\nXIX\nZII\n", "6 3\n001\n000\n000\n010\n000\n110\n")
    yield from ("XX\nZZ\nYY\n", "XZ\n", "6 2\n10\n01\n00\n00\n00\n00\n")


def test_the_echelon_parse_fails_as_the_parser_does_and_spans_the_same_state():
    texts = list(_stabilizer_texts()) + list(_invalid_texts())
    results = [outcome(stabilizer._parse_echelon, text) for text in texts]
    failures = 0
    for text, got in zip(texts, results):
        want = outcome(stabilizer.parse_stabilizer, text)
        if isinstance(want, StabilizerGenMatrix):
            tops = [g.bit_length() for g in gf2.transpose(got.s).row_ints]
            assert len(set(tops)) == got.n and stabilizer.same_subspace(got, want)
        else:
            assert got == want
            failures += "anticommute" in want[1]
    assert failures >= 100
