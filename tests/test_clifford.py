"""Local Clifford operations: validity, composition, graph action, completion."""

import itertools
import random

import pytest

from conftest import (
    NONZERO_DIAGONAL,
    SINGULAR_CD,
    all_graphs,
    complete_graph,
    compose,
    empty_graph,
    graph_from_edges,
    hadamard_all_op,
    identity_op,
    in_domain,
    local_complement_op,
    matrix_from_rows,
    op_from_qubit_blocks,
    outcome,
    path_graph,
    random_graph,
    random_in_domain_op,
    random_valid_clifford,
    reference_completion,
    reference_graph_action,
    reference_parse_clifford,
    star_graph,
    symplectic_form_matrix,
    zero_matrix,
)
from stabgraph import clifford, decomposition, gf2, graphs, stabilizer
from stabgraph.clifford import (
    LocalCliffordOp,
    NotInDomainError,
    complete_from_cd,
    graph_action,
)
from stabgraph.decomposition import decompose_action
from stabgraph.errors import MAX_QUBITS, ParseError
from stabgraph.gf2 import BitMatrix, BitVec


def assemble(q):
    """The full 2n x 2n matrix [[diag(a), diag(b)], [diag(c), diag(d)]] of the operation."""
    n = q.n
    rows = []
    for i in range(n):
        rows.append((((q.a.bits >> i) & 1) << i) | (((q.b.bits >> i) & 1) << (n + i)))
    for i in range(n):
        rows.append((((q.c.bits >> i) & 1) << i) | (((q.d.bits >> i) & 1) << (n + i)))
    return BitMatrix(2 * n, 2 * n, rows)


def test_validity_enforced():
    with pytest.raises(clifford.InvalidCliffordError):
        LocalCliffordOp(BitVec(2, 0b11), BitVec(2, 0b11), BitVec(2, 0b11), BitVec(2, 0b11))
    with pytest.raises(clifford.InvalidCliffordError):
        op_from_qubit_blocks([(1, 0, 0, 1), (0, 0, 0, 1)])
    with pytest.raises(ValueError, match="bit values must be 0 or 1, got 2"):
        op_from_qubit_blocks([(1, 0, 0, 1), (1, 0, 0, 2)])
    with pytest.raises(ValueError, match="diagonal lengths differ"):
        LocalCliffordOp(BitVec(2, 0b11), BitVec(2, 0), BitVec(3, 0), BitVec(2, 0b11))
    for blocks, qubit, length in (
        ([(1, 0, 0)], 1, 3),
        ([(1, 0, 0, 1), (1, 0)], 2, 2),
        ([(1, 0, 0, 1, 1)], 1, 5),
    ):
        with pytest.raises(ValueError) as err:
            op_from_qubit_blocks(blocks)
        assert str(err.value) == f"qubit {qubit}: expected four bits (a, b, c, d), got {length}"



def test_validity_equals_symplectic_condition():
    rng = random.Random(30)
    p = symplectic_form_matrix(4)
    for _ in range(100):
        q = random_valid_clifford(rng, 4)
        m = assemble(q)
        assert gf2.mat_mul(gf2.mat_mul(gf2.transpose(m), p), m) == p
    # a diagonal-block matrix with a non-invertible qubit block breaks it
    bad = matrix_from_rows([[1, 0], [0, 0]])  # n=1 blocks a=1, b=0, c=0, d=0
    assert gf2.mat_mul(
        gf2.mat_mul(gf2.transpose(bad), symplectic_form_matrix(1)), bad
    ) != symplectic_form_matrix(1)


def test_compose_identity_and_hadamard():
    rng = random.Random(31)
    q = random_valid_clifford(rng, 5)
    ident = identity_op(5)
    assert compose(ident, q) == q
    assert compose(q, ident) == q
    h = hadamard_all_op(5)
    assert compose(h, h) == ident


def test_compose_matches_assembled_product():
    rng = random.Random(32)
    for _ in range(100):
        n = rng.randrange(1, 7)
        q1 = random_valid_clifford(rng, n)
        q2 = random_valid_clifford(rng, n)
        composed = compose(q2, q1)
        assert assemble(composed) == gf2.mat_mul(assemble(q2), assemble(q1))


def test_apply_to_stabilizer_identity():
    s = stabilizer.from_graph(path_graph(3))
    assert clifford.apply_to_stabilizer(identity_op(3), s) == s.s


def test_apply_to_stabilizer_hadamard_swaps_blocks():
    z_only = stabilizer.parse_stabilizer("ZI\nIZ\n")
    out = clifford.apply_to_stabilizer(hadamard_all_op(2), z_only)
    assert out == gf2.vstack(zero_matrix(2, 2), gf2.identity(2))


def test_apply_to_stabilizer_generator_blocks():
    # hand block-multiply for the 2-vertex edge graph and its vertex-1 generator op
    edge = graph_from_edges(2, [(1, 2)])
    q = local_complement_op(edge, 1)
    out = clifford.apply_to_stabilizer(q, stabilizer.from_graph(edge))
    # upper block: adj + diag(row 1) = [[0,1],[1,1]]; lower: unit-diag.adj + I = [[1,1],[0,1]]
    assert out == matrix_from_rows([[0, 1], [1, 1], [1, 1], [0, 1]])


def test_graph_action_identity():
    rng = random.Random(34)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 9))
        assert graph_action(identity_op(g.n), g) == g


def test_graph_action_singular_denominator():
    with pytest.raises(NotInDomainError, match=SINGULAR_CD):
        graph_action(hadamard_all_op(3), empty_graph(3))
    assert not in_domain(hadamard_all_op(3), empty_graph(3))


def test_graph_action_zero_diagonal_failure():
    # shear on one qubit of an edge graph puts a 1 on the image diagonal
    edge = graph_from_edges(2, [(1, 2)])
    q = op_from_qubit_blocks([(1, 1, 0, 1), (1, 0, 0, 1)])
    with pytest.raises(NotInDomainError, match=NONZERO_DIAGONAL):
        graph_action(q, edge)


def test_local_complement_op_matches_edge_toggling():
    for n in range(1, 5):
        for g in all_graphs(n):
            for i in range(1, n + 1):
                assert graph_action(local_complement_op(g, i), g) == graphs.local_complement(g, i)
    rng = random.Random(35)
    for _ in range(300):
        n = rng.randrange(1, 13)
        g = random_graph(rng, n)
        i = rng.randrange(1, n + 1)
        assert graph_action(local_complement_op(g, i), g) == graphs.local_complement(g, i)


def test_local_complement_op_examples():
    empty = empty_graph(3)
    q = local_complement_op(empty, 2)
    assert tuple((v.bits >> 1) & 1 for v in (q.a, q.b, q.c, q.d)) == (1, 0, 1, 1)
    assert graph_action(q, empty) == empty

    edge = graph_from_edges(2, [(1, 2)])
    assert graph_action(local_complement_op(edge, 1), edge) == edge

    k5 = complete_graph(5)
    assert graph_action(local_complement_op(k5, 1), k5) == star_graph(5, 1)


def test_graph_action_consistent_with_stabilizer_action():
    rng = random.Random(36)
    for _ in range(100):
        n = rng.randrange(2, 9)
        g = random_graph(rng, n)
        q = random_in_domain_op(rng, g)
        image = graph_action(q, g)
        moved = stabilizer.StabilizerGenMatrix(
            clifford.apply_to_stabilizer(q, stabilizer.from_graph(g))
        )
        assert stabilizer.same_subspace(moved, stabilizer.from_graph(image))


def test_complete_from_cd_identity_case():
    rng = random.Random(37)
    for _ in range(30):
        g = random_graph(rng, rng.randrange(1, 9))
        q = complete_from_cd(g, BitVec(g.n, 0), BitVec(g.n, (1 << g.n) - 1))
        assert q == identity_op(g.n)


def test_complete_from_cd_recovers_generator_op():
    rng = random.Random(38)
    for _ in range(100):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n)
        i = rng.randrange(1, n + 1)
        q = complete_from_cd(g, BitVec(n, 1 << (i - 1)), BitVec(n, (1 << n) - 1))
        assert q == local_complement_op(g, i)


def test_complete_from_cd_alternates_break_zero_diagonal():
    rng = random.Random(39)
    tested = 0
    while tested < 60:
        n = rng.randrange(1, 8)
        g = random_graph(rng, n)
        c = BitVec(n, rng.getrandbits(n))
        d = BitVec(n, rng.getrandbits(n))
        try:
            q = complete_from_cd(g, c, d)
        except gf2.SingularError:
            continue
        tested += 1
        assert in_domain(q, g)
        for i in range(n):
            flipped = LocalCliffordOp(
                BitVec(n, q.a.bits ^ (c.bits & 1 << i)),
                BitVec(n, q.b.bits ^ (d.bits & 1 << i)),
                c,
                d,
            )
            with pytest.raises(NotInDomainError, match=NONZERO_DIAGONAL):
                reference_graph_action(flipped, g)


def test_complete_from_cd_unique_among_all_sign_choices():
    # exhaustive at n <= 3: exactly one of the 2^n upper-block choices lands in-domain
    for n in range(1, 4):
        for g in all_graphs(n):
            for cbits in range(1 << n):
                for dbits in range(1 << n):
                    c = BitVec(n, cbits)
                    d = BitVec(n, dbits)
                    try:
                        q = complete_from_cd(g, c, d)
                    except gf2.SingularError:
                        continue
                    hits = 0
                    for flips in range(1 << n):
                        cand = LocalCliffordOp(
                            BitVec(n, q.a.bits ^ (flips & cbits)),
                            BitVec(n, q.b.bits ^ (flips & dbits)),
                            c,
                            d,
                        )
                        if in_domain(cand, g):
                            hits += 1
                    assert hits == 1


def test_complete_from_cd_singular():
    with pytest.raises(gf2.SingularError):
        complete_from_cd(empty_graph(2), BitVec(2, 0b11), BitVec(2, 0))


def _same_completion(g, c, d):
    """complete_from_cd and the reference agree: the same operation, or both singular."""
    try:
        want = reference_completion(g, c, d)
    except gf2.SingularError:
        with pytest.raises(gf2.SingularError):
            complete_from_cd(g, c, d)
        return False
    assert complete_from_cd(g, c, d) == want
    return True


def test_complete_from_cd_matches_reference_exhaustive_n3():
    for n in range(1, 4):
        for g in all_graphs(n):
            for cbits in range(1 << n):
                for dbits in range(1 << n):
                    _same_completion(g, BitVec(n, cbits), BitVec(n, dbits))


def test_complete_from_cd_matches_reference_seeded_to_n64():
    rng = random.Random(40)
    pairs = [(0, 1), (1, 0), (1, 1)]  # a (0, 0) pair always makes C.adj + D singular
    completed = 0
    for _ in range(300):
        n = rng.randrange(1, 65)
        g = random_graph(rng, n)
        cd = [pairs[rng.randrange(3)] for _ in range(n)]
        c = BitVec(n, sum(ci << i for i, (ci, _) in enumerate(cd)))
        d = BitVec(n, sum(di << i for i, (_, di) in enumerate(cd)))
        completed += _same_completion(g, c, d)
    assert completed >= 100


def test_complete_from_cd_and_decompose_action_never_invert(monkeypatch):
    # each entry point to the graph action is one decomposition walk, and nothing else
    calls = []
    right = decomposition._walk
    monkeypatch.setattr(decomposition, "_walk", lambda *args: calls.append(1) or right(*args))
    rng = random.Random(41)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 12))
        q = random_in_domain_op(rng, g)
        calls.clear()
        assert complete_from_cd(g, q.c, q.d) == q
        assert len(calls) == 1
        decompose_action(q, g)
        assert len(calls) == 2
        assert graph_action(q, g) == reference_graph_action(q, g)
        assert len(calls) == 3


def test_maps_holds_exactly_where_the_action_maps_g_onto_h():
    # every operation on up to 3 qubits and every pair of labeled graphs
    valid = [(a, b, c, d) for a, b, c, d in itertools.product((0, 1), repeat=4) if a & d ^ b & c]
    for n in range(1, 4):
        graphs_n = list(all_graphs(n))
        for blocks in itertools.product(valid, repeat=n):
            q = op_from_qubit_blocks(blocks)
            for g in graphs_n:
                image = outcome(lambda g: reference_graph_action(q, g), g)
                for h in graphs_n:
                    assert clifford._maps(q, g, h) == (image == h)  # False for all h off the domain


def test_clifford_text_roundtrip():
    rng = random.Random(40)
    for n in [rng.randrange(1, 10) for _ in range(50)] + [63, 64, 65]:
        q = random_valid_clifford(rng, n)
        text = clifford.format_clifford(q)
        assert clifford.parse_clifford(text) == q
        assert clifford.format_clifford(clifford.parse_clifford(text)) == text


@pytest.mark.parametrize("n", [1, 63, 64, 65])
def test_from_qubit_blocks_puts_qubit_i_at_bit_i(n):
    rng = random.Random(n)
    valid = [(a, b, c, d) for a, b, c, d in itertools.product((0, 1), repeat=4) if a & d ^ b & c]
    blocks = [rng.choice(valid) for _ in range(n)]
    q = op_from_qubit_blocks(blocks)
    assert q.n == n
    assert [tuple(v.bits >> i & 1 for v in (q.a, q.b, q.c, q.d)) for i in range(n)] == blocks
    ones = (1 << n) - 1
    assert identity_op(n).a == BitVec(n, ones) == identity_op(n).d
    hadamards = hadamard_all_op(n)
    assert hadamards.b == BitVec(n, ones) == hadamards.c and hadamards.a == BitVec(n, 0)


def test_clifford_text_exact():
    q = hadamard_all_op(2)
    assert clifford.format_clifford(q) == "2\n0 1 1 0\n0 1 1 0\n"
    for n in (63, 64, 65):
        q = hadamard_all_op(n)
        assert clifford.format_clifford(q) == f"{n}\n" + "0 1 1 0\n" * n


def _clifford_texts():
    """Writer text, irregular text and texts that fail each check of the line reader."""
    rng = random.Random(42)
    for n in (1, 2, 5, 64):
        text = clifford.format_clifford(random_valid_clifford(rng, n))
        yield text
        yield text.replace("\n", "\r\n")
        yield text.replace("\n", " \n")
        yield text.replace(" ", "  ")
        yield text + "\n"
        yield text.rstrip("\n")
        yield "0" + text
        yield text.replace(f"{n}\n", f"{n + 1}\n", 1)
        yield text.replace(f"{n}\n", f"{n - 1}\n", 1)
        yield text + "1 0 0 1\n"
        yield text[: text.index("\n") + 1] + "0 0 0 0\n" + text[text.index("\n") + 9 :]
        yield text[:-2] + "2\n"
        yield text[:-1] + " 1\n"
    yield from ("", "\n", "0\n", "1\n", "70000\n" + "1 0 0 1\n" * 70000, "1234567\n1 0 0 1\n")
    yield from ("\u0661\n1 0 0 1\n", "1\n1 1 1 1\n", "2\n1 0 0 1\n1 1 1 1\n", "1\n1 0 0 1")


# pieces a mutation inserts or writes over: bits, the separators that split() and
# splitlines() know, the "|" that the reader joins lines with, and whole words and lines
_PIECES = ["0", "1", "2", "x", "|", " ", "  ", "\t", "\n", "\r\n", "\r", "\x0b", "\x1f", "\xa0"]
_PIECES += ["\u2028", "01", "0 1", "1 0 0 1\n", "\n\n", " | "]
# the six invertible qubit blocks and two singular ones, as "a b c d" lines
_BLOCK_LINES = ["1 0 0 1", "0 1 1 0", "1 1 0 1", "1 0 1 1", "0 1 1 1", "1 1 1 0", "1 1 1 1", "0 0 0 0"]


def _mutated_clifford_texts(count):
    """Texts in the writer's shape on n <= 5 qubits, each given zero to three random edits."""
    rng = random.Random(44)
    for _ in range(count):
        n = rng.randrange(1, 6)
        text = f"{n}\n" + "".join(rng.choice(_BLOCK_LINES) + "\n" for _ in range(n))
        for _ in range(rng.randrange(4)):
            at = rng.randrange(len(text) + 1)
            edit = rng.randrange(3)
            if edit == 0:  # insert
                text = text[:at] + rng.choice(_PIECES) + text[at:]
            elif edit == 1:  # delete one to three characters
                text = text[:at] + text[at + rng.randrange(1, 4) :]
            else:  # overwrite one character
                text = text[:at] + rng.choice(_PIECES) + text[at + 1 :]
        yield text


def test_bulk_clifford_reading_is_the_line_reader():
    texts = list(_clifford_texts()) + list(_mutated_clifford_texts(3000))
    results = [outcome(clifford.parse_clifford, text) for text in texts]
    assert results == [outcome(reference_parse_clifford, text) for text in texts]
    assert sum(isinstance(r, LocalCliffordOp) for r in results) >= 300
    messages = "\n".join(r[1] for r in results if isinstance(r, tuple))
    for check in ("empty", "expected qubit count", "must be in", "qubit lines", "four bits"):
        assert check in messages  # each check of the reader fails somewhere
    assert "trailing" in messages and "not invertible" in messages


@pytest.mark.parametrize(
    "text, expected",
    [
        ("2\r\n1 0 0 1\r\n0 1 1 0\r\n", "2\n1 0 0 1\n0 1 1 0\n"),
        ("2\n1\t0\t0\t1\n0\t1 1\t0\n", "2\n1 0 0 1\n0 1 1 0\n"),
        ("2 \n1 0 0 1  \n 0 1 1 0 \n", "2\n1 0 0 1\n0 1 1 0\n"),
        ("2\n1 0 0 1\n0 1 1 0\n\n \n\n", "2\n1 0 0 1\n0 1 1 0\n"),
        ("02\n1 0 0 1\n0 1 1 0\n", "2\n1 0 0 1\n0 1 1 0\n"),
        ("2\n1 0 0 1\n\n0 1 1 0\n", "line 3: expected four bits 'a b c d'"),
        ("2\n1 0 0 1\n1 0 0\n", "line 3: expected four bits 'a b c d'"),
        ("2\n1 0 0\n1 0 0 1 1\n", "line 2: expected four bits 'a b c d'"),
        ("2\n1 0 0 1 1\n1 0 0\n", "line 2: expected four bits 'a b c d'"),
        ("1\n01 0 1\n", "line 2: expected four bits 'a b c d'"),
        ("2\n1 0 0 1 | 1 0 0\n1\n", "line 2: expected four bits 'a b c d'"),
        ("2\n1 0 0 |\n1 0 0 1\n", "line 2: expected four bits 'a b c d'"),
        ("0\n", f"line 1: qubit count must be in 1..{MAX_QUBITS}"),
        ("65537\n1 0 0 1\n", f"line 1: qubit count must be in 1..{MAX_QUBITS}"),
        ("2\n1 0 0 1\n1 1 1 1\n", "line 2: qubit blocks not invertible at [2]"),
        ("2\n1 1 1 1\nx\n", "line 3: expected four bits 'a b c d'"),
        ("1\n1 1 1 1\nx\n", "line 3: trailing content after qubit lines"),
    ],
)
def test_clifford_reader_cases(text, expected):
    got = outcome(clifford.parse_clifford, text)
    assert got == outcome(reference_parse_clifford, text)
    if isinstance(got, LocalCliffordOp):
        assert clifford.format_clifford(got) == expected
    else:
        assert got[:2] == (ParseError, expected)


def test_clifford_parse_errors():
    with pytest.raises(ParseError):
        clifford.parse_clifford("")
    with pytest.raises(ParseError) as err:
        clifford.parse_clifford("2\n1 0 0 1\n1 0 0\n")
    assert err.value.line == 3
    with pytest.raises(ParseError):
        clifford.parse_clifford("1\n0 0 1 1 \nxx")
    with pytest.raises(ParseError):
        clifford.parse_clifford("1\n1 1 1 1\n")  # fails per-qubit invertibility
