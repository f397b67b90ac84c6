"""Property tests for the five text formats, the CLI exit-code contract, the
paper's laws of the graph action and the library's malformed-input contract.

For every format, parsing the formatted text gives back the value, and any
text at all parses to a value or raises ParseError, never anything else.
Commands run on such texts exit with a code the contract gives them and
never report an internal error. The operation of local complementation acts
as local complementation, and the action of a product is the composed action
wherever the factors act. Reduction gives a witness that verifies and a graph
equivalent to its input, a decomposed action replays to the action, the
decomposition of any operation fails exactly where the graph action does and
with its text, the graph action is the inversion form (A.adj + B)(C.adj + D)^-1
with its domain errors, and equivalence is reflexive and symmetric with a
witness that moves the first state onto the second. A size mismatch or an out-of-range vertex raises
ValueError. Every matrix that the library builds on its trusted path, unchecked,
holds a tuple of rows that the validating constructor accepts. Examples are derived from the test source (``derandomize=True``),
so runs are deterministic.
"""

import os
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import (
    compose,
    empty_graph,
    graph_from_edges,
    hadamard_all_op,
    identity_op,
    in_domain,
    local_complement_op,
    op_from_qubit_blocks,
    outcome,
    random_in_domain_op,
    random_stabilizer,
    reference_graph_action,
    reference_parse_matrix,
    reference_pauli_from_text,
)
from stabgraph import cli, clifford, decomposition, equivalence, gf2, graphs, reduction, stabilizer
from stabgraph.errors import MAX_QUBITS, ParseError

SETTINGS = settings(max_examples=200, derandomize=True, deadline=None)

# the six invertible 2x2 blocks (a, b, c, d), those with a d + b c = 1
INVERTIBLE_BLOCKS = [
    (a, b, c, d)
    for a in (0, 1)
    for b in (0, 1)
    for c in (0, 1)
    for d in (0, 1)
    if (a & d) ^ (b & c)
]


@st.composite
def graph_values(draw, n=None):
    n = draw(st.integers(1, 12)) if n is None else n
    slots = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    mask = draw(st.integers(0, (1 << len(slots)) - 1))
    return graph_from_edges(n, [e for k, e in enumerate(slots) if mask >> k & 1])


def stabilizer_values():
    return st.builds(random_stabilizer, st.integers(1, 12), st.integers(0, 2**32))


@st.composite
def clifford_values(draw, n=None):
    n = draw(st.integers(1, 12)) if n is None else n
    blocks = draw(st.lists(st.sampled_from(INVERTIBLE_BLOCKS), min_size=n, max_size=n))
    return op_from_qubit_blocks(blocks)


@st.composite
def sequence_values(draw, max_vertex=10**6):
    vertex = st.integers(1, max_vertex)
    step = st.one_of(
        st.builds(decomposition.Single, vertex),
        st.builds(decomposition.Triple, vertex, vertex),
    )
    return decomposition.LCSequence(tuple(draw(st.lists(step, max_size=20))))


@st.composite
def matrix_values(draw):
    rows = draw(st.integers(0, 12))
    cols = draw(st.integers(0, 12))
    ints = draw(st.lists(st.integers(0, (1 << cols) - 1), min_size=rows, max_size=rows))
    return gf2.BitMatrix(rows, cols, ints)


def _stabilizer_matrix_text(stab):
    return gf2.format_matrix(stab.s)


# (values, format, parse, type of a parsed value) per format
FORMATS = {
    "graph": (graph_values(), graphs.format_edge_list, graphs.parse_edge_list, graphs.Graph),
    "stabilizer-pauli": (
        stabilizer_values(),
        stabilizer.format_stabilizer,
        stabilizer.parse_stabilizer,
        stabilizer.StabilizerGenMatrix,
    ),
    "stabilizer-matrix": (
        stabilizer_values(),
        _stabilizer_matrix_text,
        stabilizer.parse_stabilizer,
        stabilizer.StabilizerGenMatrix,
    ),
    "clifford": (
        clifford_values(),
        clifford.format_clifford,
        clifford.parse_clifford,
        clifford.LocalCliffordOp,
    ),
    "sequence": (
        sequence_values(),
        decomposition.format_sequence,
        decomposition.parse_sequence,
        decomposition.LCSequence,
    ),
    "matrix": (matrix_values(), gf2.format_matrix, gf2.parse_matrix, gf2.BitMatrix),
}

# the characters the formats are written in, so that drawn texts get past the first line
FORMAT_ALPHABET = "0123456789 \n\t#+-_gIXYZ"


@pytest.mark.parametrize("name", FORMATS)
@SETTINGS
@given(data=st.data())
def test_parse_inverts_format(name, data):
    values, fmt, parse, _ = FORMATS[name]
    value = data.draw(values)
    assert parse(fmt(value)) == value


@st.composite
def edited_texts(draw, values, fmt):
    """A formatted value with one slice replaced by drawn format characters."""
    text = fmt(draw(values))
    start = draw(st.integers(0, len(text)))
    stop = draw(st.integers(start, len(text)))
    return text[:start] + draw(st.text(FORMAT_ALPHABET, max_size=12)) + text[stop:]


@pytest.mark.parametrize("name", FORMATS)
@SETTINGS
@given(data=st.data())
def test_any_text_parses_or_raises_parse_error(name, data):
    values, fmt, parse, kind = FORMATS[name]
    text = data.draw(
        st.one_of(
            st.text(max_size=200),
            st.text(FORMAT_ALPHABET, max_size=200),
            edited_texts(values, fmt),
        )
    )
    try:
        value = parse(text)
    except ParseError:
        return
    assert isinstance(value, kind)


def state_texts():
    """Files that equiv and reduce read: valid states, edited state text, or bare format text."""
    return st.one_of(
        graph_values().map(graphs.format_edge_list),
        stabilizer_values().map(stabilizer.format_stabilizer),
        stabilizer_values().map(_stabilizer_matrix_text),
        edited_texts(graph_values(), graphs.format_edge_list),
        edited_texts(stabilizer_values(), stabilizer.format_stabilizer),
        st.text(FORMAT_ALPHABET, max_size=200),
    )


# an output path in the run's directory, or one whose directory does not exist
UNWRITABLE = "{tmp}/missing/out.txt"
OUTPUTS = st.sampled_from(["{tmp}/out.txt", UNWRITABLE])


def run_on_files(command, texts, *flags):
    """Run ``command`` on ``texts`` written to fresh files; returns (exit code, stderr).

    A text is a str, written as UTF-8, or bytes, written as they are. ``{tmp}``
    in a flag names the directory of those files.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"in{k}.txt") for k in range(len(texts))]
        for path, text in zip(paths, texts):
            data = text if isinstance(text, bytes) else text.encode()
            Path(path).write_bytes(data)
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = cli.run([command, *paths, *(f.format(tmp=tmp) for f in flags)])
    return code, err.getvalue()


def assert_documented(code, err, texts, out, *codes):
    """The exit code is one of ``codes`` and no error is internal.

    Undecodable input is a parse error, and an unwritable output never reports success.
    """
    assert "error: internal:" not in err, err
    assert code in codes, err
    if any(isinstance(text, bytes) for text in texts):
        assert code == cli.EXIT_PARSE, err
    if out == UNWRITABLE:
        assert code != cli.EXIT_OK, err


@SETTINGS
@given(first=state_texts(), second=state_texts())
def test_equiv_exit_codes(first, second):
    code, err = run_on_files("equiv", [first, second], "--witness", "{tmp}/w.lc", "--verify")
    assert "error: internal:" not in err
    mismatch = code == cli.EXIT_FAILURE and err == "error: invalid: qubit count mismatch\n"
    assert code in (cli.EXIT_OK, cli.EXIT_INEQUIVALENT, cli.EXIT_PARSE) or mismatch, err


@SETTINGS
@given(text=state_texts())
def test_reduce_exit_codes(text):
    code, err = run_on_files("reduce", [text], "--verify")
    assert code in (cli.EXIT_OK, cli.EXIT_PARSE), err


@st.composite
def undecodable(draw, texts):
    """A drawn text as UTF-8 with one byte inserted that UTF-8 never starts a character with."""
    data = draw(texts).encode()
    k = draw(st.integers(0, len(data)))
    return data[:k] + draw(st.sampled_from([b"\x80", b"\xfe", b"\xff"])) + data[k:]


def value_texts(values, fmt):
    """Formatted values, edited ones or bare format text, each also as undecodable bytes."""
    texts = st.one_of(
        values.map(fmt), edited_texts(values, fmt), st.text(FORMAT_ALPHABET, max_size=200)
    )
    return st.one_of(texts, undecodable(texts))


@st.composite
def in_domain_ops(draw, g):
    """An operation with g in its domain, or a random one when its lower blocks are singular."""
    blocks = draw(st.lists(st.sampled_from(INVERTIBLE_BLOCKS), min_size=g.n, max_size=g.n))
    q = op_from_qubit_blocks(blocks)
    try:
        return clifford.complete_from_cd(g, q.c, q.d)
    except gf2.SingularError:
        return q


@st.composite
def domain_ops(draw, g):
    """An operation with g in its domain: a completion, or else one local complementation."""
    q = draw(in_domain_ops(g))
    return q if in_domain(q, g) else local_complement_op(g, draw(st.integers(1, g.n)))


@SETTINGS
@given(data=st.data())
def test_local_complement_op_acts_as_local_complementation(data):
    g = data.draw(graph_values())
    v = data.draw(st.integers(1, g.n))
    h = graphs.local_complement(g, v)
    assert reference_graph_action(local_complement_op(g, v), g) == h
    assert graphs.local_complement(h, v) == g


@SETTINGS
@given(data=st.data())
def test_the_action_of_a_product_is_the_composed_action(data):
    g = data.draw(graph_values())
    q1 = data.draw(domain_ops(g))
    h = clifford.graph_action(q1, g)
    q2 = data.draw(domain_ops(h))
    assert clifford.graph_action(compose(q2, q1), g) == clifford.graph_action(q2, h)


def test_a_product_can_act_where_its_first_factor_does_not():
    """The composition law has no converse: H has no action on one vertex, but H.H has."""
    g, h = empty_graph(1), hadamard_all_op(1)
    with pytest.raises(clifford.NotInDomainError):
        clifford.graph_action(h, g)
    assert compose(h, h) == identity_op(1)
    assert clifford.graph_action(compose(h, h), g) == g


@SETTINGS
@given(s=stabilizer_values())
def test_reduction_gives_a_verified_witness_and_an_equivalent_graph(s):
    w = reduction.to_graph_state(s)
    assert reduction.verify_witness(s, w)
    result = equivalence.test_equivalence(s, stabilizer.from_graph(w.graph))
    assert isinstance(result, equivalence.Equivalent)


@SETTINGS
@given(data=st.data())
def test_a_decomposed_action_replays_to_the_action(data):
    g = data.draw(graph_values())
    q = data.draw(domain_ops(g))
    seq = decomposition.decompose_action(q, g)
    assert decomposition.apply_sequence(g, seq) == reference_graph_action(q, g)


@SETTINGS
@given(data=st.data())
def test_decomposition_decides_the_domain_as_the_graph_action_does(data):
    g = data.draw(graph_values())
    q = data.draw(clifford_values(g.n))  # mostly out of g's domain
    try:
        image = reference_graph_action(q, g)
    except clifford.NotInDomainError as exc:
        with pytest.raises(clifford.NotInDomainError) as err:
            decomposition.decompose_action(q, g)
        assert str(err.value) == str(exc)
    else:
        assert decomposition.apply_sequence(g, decomposition.decompose_action(q, g)) == image


@SETTINGS
@given(data=st.data())
def test_the_graph_action_is_the_inversion_form(data):
    g = data.draw(graph_values())
    other = other_sizes(g.n).flatmap(clifford_values)
    q = data.draw(st.one_of(domain_ops(g), clifford_values(g.n), other))
    actions = (clifford.graph_action, reference_graph_action)
    library, reference = (outcome(lambda f: f(q, g), f) for f in actions)
    assert library == reference  # the image, or the error's type and text


def _moves(q, first, second):
    moved = stabilizer.StabilizerGenMatrix(clifford.apply_to_stabilizer(q, first))
    return stabilizer.same_subspace(moved, second)


@SETTINGS
@given(data=st.data())
def test_equivalence_is_reflexive_and_symmetric_and_its_witness_moves_the_state(data):
    first = data.draw(stabilizer_values())
    q = data.draw(clifford_values(first.n))
    second = data.draw(
        st.one_of(
            st.just(stabilizer.StabilizerGenMatrix(clifford.apply_to_stabilizer(q, first))),
            st.builds(random_stabilizer, st.just(first.n), st.integers(0, 2**32)),
        )
    )
    assert _moves(equivalence.test_equivalence(first, first).q, first, first)
    forward = equivalence.test_equivalence(first, second)
    backward = equivalence.test_equivalence(second, first)
    assert type(forward) is type(backward)
    if isinstance(forward, equivalence.Equivalent):
        assert _moves(forward.q, first, second) and _moves(backward.q, second, first)


def out_of_range_vertices(n):
    return st.one_of(st.integers(max_value=0), st.integers(min_value=n + 1))


def other_sizes(n):
    return st.integers(1, 12).filter(lambda m: m != n)


@SETTINGS
@given(data=st.data())
def test_a_size_mismatch_or_a_bad_vertex_raises_value_error(data):
    g = data.draw(graph_values())
    q = data.draw(clifford_values(g.n))
    other = data.draw(clifford_values(data.draw(other_sizes(g.n))))
    v = data.draw(out_of_range_vertices(g.n))
    blocks = data.draw(
        st.lists(st.lists(st.integers(0, 1), max_size=6).map(tuple), min_size=1, max_size=12)
        .filter(lambda blocks: any(len(block) != 4 for block in blocks))
    )
    calls = (
        lambda: clifford.graph_action(other, g),
        lambda: graphs.local_complement(g, v),
        lambda: clifford.complete_from_cd(g, q.c, other.d),
        lambda: op_from_qubit_blocks(blocks),
    )
    for call in calls:
        with pytest.raises(ValueError):  # an IndexError, KeyError, ... is not caught
            call()


@SETTINGS
@given(data=st.data())
def test_verify_witness_is_false_for_a_witness_of_any_wrong_size(data):
    s = data.draw(stabilizer_values())
    w = reduction.to_graph_state(s)
    m = data.draw(other_sizes(s.n))
    r = data.draw(matrix_values().filter(lambda r: (r.rows, r.cols) != (s.n, s.n)))
    for bad in (
        reduction.ReductionWitness(graph=data.draw(graph_values(m)), q=w.q, r=w.r),
        reduction.ReductionWitness(graph=w.graph, q=data.draw(clifford_values(m)), r=w.r),
        reduction.ReductionWitness(graph=w.graph, q=w.q, r=r),
    ):
        assert reduction.verify_witness(s, bad) is False


# every command below fails only by a parse error (65) or an operation failure (70)
DOCUMENTED = (cli.EXIT_OK, cli.EXIT_PARSE, cli.EXIT_FAILURE)


@SETTINGS
@given(data=st.data(), out=OUTPUTS)
def test_decompose_exit_codes(data, out):
    g = data.draw(graph_values())
    op = data.draw(value_texts(in_domain_ops(g), clifford.format_clifford))
    graph = data.draw(value_texts(st.just(g), graphs.format_edge_list))
    code, err = run_on_files("decompose", [op, graph], "--out", out, "--verify")
    assert_documented(code, err, [op, graph], out, *DOCUMENTED)


@SETTINGS
@given(data=st.data(), out=OUTPUTS)
def test_apply_exit_codes(data, out):
    g = data.draw(graph_values())
    graph = data.draw(value_texts(st.just(g), graphs.format_edge_list))
    steps = data.draw(value_texts(sequence_values(g.n + 1), decomposition.format_sequence))
    code, err = run_on_files("apply", [graph, steps], "--out", out, "--verify")
    assert_documented(code, err, [graph, steps], out, *DOCUMENTED)


@pytest.mark.parametrize(
    "command, flags",
    [
        ("orbit", ["--cap", "20", "--members", "{out}", "--verify"]),
        ("canon", ["--cap", "20", "--out", "{out}"]),
        ("export-dot", ["--out", "{out}"]),
    ],
    ids=["orbit", "canon", "export-dot"],
)
@SETTINGS
@given(text=value_texts(graph_values(), graphs.format_edge_list), out=OUTPUTS)
def test_graph_command_exit_codes(command, flags, text, out):
    if command != "export-dot" and isinstance(text, str):
        try:
            n = graphs.parse_edge_list(text).n
        except ParseError:
            n = 0
        # orbit and canon take time quadratic in the vertex count even on a
        # one-member orbit, which --cap does not bound: drawn headers such as
        # "9999" are left out here
        assume(n <= 64)
    code, err = run_on_files(command, [text], *(f.replace("{out}", out) for f in flags))
    assert_documented(code, err, [text], out, *DOCUMENTED)


# Characters that int(s, 2) accepts in or around a base-2 literal besides 0 and
# 1: separators, signs, a "0b" prefix, whitespace and non-ASCII decimal digits.
INT_LITERAL_CHARS = "_+- \t\u00a0bB\u0660\u0661\uff10\uff11\U0001d7cf"

# (parser, text, message, line, column), recorded with the per-character readers
FOREIGN_CHARACTERS = [
    (gf2.parse_matrix, "2 3\n011\n0_1\n", "invalid character '_'", 3, 2),
    (gf2.parse_matrix, "2 3\n011\n+01\n", "invalid character '+'", 3, 1),
    (gf2.parse_matrix, "2 3\n011\n-01\n", "invalid character '-'", 3, 1),
    (gf2.parse_matrix, "2 3\n011\n0 1\n", "invalid character ' '", 3, 2),
    (gf2.parse_matrix, "2 3\n011\n1\u00a01\n", "invalid character '\\xa0'", 3, 2),
    (gf2.parse_matrix, "2 3\n011\n0b1\n", "invalid character 'b'", 3, 2),
    (gf2.parse_matrix, "2 3\n011\n01_\n", "invalid character '_'", 3, 3),
    (gf2.parse_matrix, "2 3\n011\n 0_1 \n", "invalid character '_'", 3, 2),
    (gf2.parse_matrix, "2 3\n011\n\u0661\u0660\u0661\n", "invalid character '\u0661'", 3, 1),
    (gf2.parse_matrix, "2 3\n011\n0\uff111\n", "invalid character '\uff11'", 3, 2),
    (stabilizer.parse_stabilizer, "4 2\n10\n01\n00\n1_\n", "invalid character '_'", 5, 2),
    (stabilizer.parse_stabilizer, "4 2\n10\n01\n00\n+1\n", "invalid character '+'", 5, 1),
    (stabilizer.parse_stabilizer, "4 2\n10\n01\n00\n-1\n", "invalid character '-'", 5, 1),
    (stabilizer.parse_stabilizer, "4 2\n10\n01\n00\n0b\n", "invalid character 'b'", 5, 2),
    (
        stabilizer.parse_stabilizer,
        "4 2\n10\n01\n00\n\uff11\uff10\n",
        "invalid character '\uff11'",
        5,
        1,
    ),
    (stabilizer.parse_stabilizer, "XZ\nX_Z\n", "invalid Pauli letter '_'", 2, 2),
    (stabilizer.parse_stabilizer, "XZ\nX+Z\n", "invalid Pauli letter '+'", 2, 2),
    (stabilizer.parse_stabilizer, "XZ\nXZ-\n", "invalid Pauli letter '-'", 2, 3),
    (stabilizer.parse_stabilizer, "XZ\n+-XZ\n", "invalid Pauli letter '-'", 2, 1),
    (stabilizer.parse_stabilizer, "XZ\nX Z\n", "invalid Pauli letter ' '", 2, 2),
    (stabilizer.parse_stabilizer, "XZ\nX\u00a0Z\n", "invalid Pauli letter '\\xa0'", 2, 2),
    (stabilizer.parse_stabilizer, "XZ\nX\uff11Z\n", "invalid Pauli letter '\uff11'", 2, 2),
    (stabilizer.parse_stabilizer, "XZ\nXZ\u0661\n", "invalid Pauli letter '\u0661'", 2, 3),
    (stabilizer.parse_stabilizer, "XZ\nxZ\n", "invalid Pauli letter 'x'", 2, 1),
]


@pytest.mark.parametrize("parse,text,message,line,column", FOREIGN_CHARACTERS)
def test_characters_int_accepts_are_parse_errors(parse, text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.message, err.value.line, err.value.column) == (message, line, column)


@st.composite
def with_foreign_characters(draw, text, first):
    """``text`` with one to three characters of lines ``first``.. replaced or joined by others."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(first, len(lines) - 1))
        j = draw(st.integers(0, len(lines[k])))
        ch = draw(st.sampled_from(INT_LITERAL_CHARS))
        lines[k] = lines[k][:j] + ch + lines[k][j + draw(st.integers(0, 1)) :]
    return "\n".join(lines) + "\n"


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return (exc.message, exc.line, exc.column)


@SETTINGS
@given(data=st.data())
def test_matrix_rows_read_like_the_character_loop(data):
    m = data.draw(matrix_values().filter(lambda m: m.rows > 0))
    text = data.draw(with_foreign_characters(gf2.format_matrix(m), first=1))
    assert _outcome(gf2.parse_matrix, text) == _outcome(reference_parse_matrix, text)


@pytest.mark.parametrize(
    "fmt,first", [(stabilizer.format_stabilizer, 0), (_stabilizer_matrix_text, 1)]
)
@SETTINGS
@given(data=st.data())
def test_stabilizer_lines_read_like_the_character_loops(fmt, first, data):
    text = data.draw(with_foreign_characters(fmt(data.draw(stabilizer_values())), first))
    got = _outcome(stabilizer.parse_stabilizer, text)
    if first:  # a matrix block: its header line is left alone, so it still reads as one
        with mock.patch.object(gf2, "parse_matrix", reference_parse_matrix):
            want = _outcome(stabilizer.parse_stabilizer, text)
    else:  # Pauli lines: no inserted character is an ASCII digit, so no header appears
        want = _outcome(reference_pauli_from_text, text)
    assert got == want


def _relabeled(stab, perm):
    """The state with qubit i renamed perm[i]: its Z and X rows moved accordingly."""
    n, rows = stab.n, stab.s.row_ints
    moved = [0] * (2 * n)
    for i, p in enumerate(perm):
        moved[p], moved[n + p] = rows[i], rows[n + i]
    return stabilizer.StabilizerGenMatrix(gf2.BitMatrix(2 * n, n, moved))


@SETTINGS
@given(data=st.data())
def test_equivalence_is_invariant_under_one_relabeling_of_both_states(data):
    first = data.draw(stabilizer_values())
    q = data.draw(clifford_values(first.n))
    second = data.draw(
        st.one_of(
            st.just(stabilizer.StabilizerGenMatrix(clifford.apply_to_stabilizer(q, first))),
            st.builds(random_stabilizer, st.just(first.n), st.integers(0, 2**32)),
        )
    )
    perm = data.draw(st.permutations(range(first.n)))
    moved_first, moved_second = _relabeled(first, perm), _relabeled(second, perm)
    verdict = equivalence.test_equivalence(first, second)
    moved = equivalence.test_equivalence(moved_first, moved_second)
    assert type(verdict) is type(moved)
    if isinstance(moved, equivalence.Equivalent):
        assert _moves(moved.q, moved_first, moved_second)


@st.composite
def malformed_graphs(draw):
    """An adjacency matrix that is not square, not symmetric or has a diagonal 1."""
    g = draw(graph_values())
    n, rows = g.n, list(g.adj.row_ints)
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    kind = draw(st.sampled_from(["shape", "asymmetric", "loop"] if i != j else ["shape", "loop"]))
    if kind == "shape":
        return gf2.BitMatrix(n, n + 1, rows)
    rows[i] ^= 1 << j if kind == "asymmetric" else 1 << i
    return gf2.BitMatrix(n, n, rows)


@st.composite
def malformed_stabilizers(draw):
    """A matrix that is not 2n x n, or has a zero or a repeated generator."""
    s = draw(stabilizer_values()).s
    n = s.cols
    kind = draw(st.sampled_from(["shape", "zero", "repeated"] if n > 1 else ["shape", "zero"]))
    if kind == "shape":
        extra = draw(st.sampled_from([-1, 1]))
        return gf2.BitMatrix(2 * n + extra, n, s.row_ints + (0,) if extra > 0 else s.row_ints[1:])
    gens = list(gf2.transpose(s).row_ints)  # generator j as one row
    j = draw(st.integers(0, n - 1))
    gens[j] = 0 if kind == "zero" else gens[(j + 1) % n]
    return gf2.transpose(gf2.BitMatrix(n, 2 * n, gens))


@SETTINGS
@given(data=st.data())
def test_malformed_input_to_a_public_name_raises_value_error(data):
    g = data.draw(graph_values())
    q = data.draw(clifford_values(g.n))
    other = data.draw(clifford_values(data.draw(other_sizes(g.n))))
    v = data.draw(out_of_range_vertices(g.n))
    step = data.draw(st.sampled_from([(v,), (v, 1), (1, v)]))
    steps = (decomposition.Single(*step) if len(step) == 1 else decomposition.Triple(*step),)
    s = data.draw(stabilizer_values())
    t = data.draw(st.builds(random_stabilizer, other_sizes(s.n), st.integers(0, 2**32)))
    width = data.draw(st.integers(0, 12))
    calls = (
        lambda: graphs.Graph(data.draw(malformed_graphs())),
        lambda: stabilizer.StabilizerGenMatrix(data.draw(malformed_stabilizers())),
        lambda: gf2.BitMatrix(2, width, [0]),  # a row short
        lambda: gf2.BitMatrix(1, width, [1 << width]),  # a bit beyond the last column
        lambda: gf2.BitMatrix(1, width, [-1]),
        lambda: gf2.BitMatrix(-1, width, []),
        lambda: gf2.BitVec(width, 1 << width),
        lambda: gf2.BitVec(width, -1),
        lambda: gf2.BitVec(-1),
        lambda: decomposition.apply_sequence(g, decomposition.LCSequence(steps)),
        lambda: decomposition.decompose_action(other, g),
        lambda: equivalence.test_equivalence(s, t),
    )
    for call in calls:
        with pytest.raises(ValueError):  # an IndexError, KeyError, ... is not caught
            call()


EDGE_LIST_EDITS = [
    "duplicate", "reversed", "self-loop", "out-of-range", "leading-zero", "comment",
    "crlf", "tab", "unicode-digit", "blank", "no-final-newline", "header",
]  # fmt: skip


@st.composite
def edge_list_texts(draw):
    """The writer's text of a graph, as it is or with edits of every malformed kind."""
    g = draw(graph_values())
    n, lines = g.n, graphs.format_edge_list(g).splitlines()
    edges = lines[1:]
    end, newline = "\n", "\n"
    for kind in draw(st.lists(st.sampled_from(EDGE_LIST_EDITS), max_size=2)):
        at = draw(st.integers(1, len(lines)))
        i, j = sorted(draw(st.lists(st.integers(1, n), min_size=2, max_size=2)))
        if kind == "duplicate" and edges:
            lines.insert(at, draw(st.sampled_from(edges)))
        elif kind == "reversed" and i < j:
            lines.insert(at, f"{j} {i}")
        elif kind == "self-loop":
            lines.insert(at, f"{i} {i}")
        elif kind == "out-of-range":
            lines.insert(at, f"{i} {draw(st.sampled_from([0, n + 1, n + 10]))}")
        elif kind == "leading-zero":
            lines.insert(at, f"0{i} {j}" if draw(st.booleans()) else f"{i} 0{j}")
        elif kind == "comment":
            lines.insert(at, draw(st.sampled_from(["# note", f"{i} {j} # note"])))
        elif kind == "crlf":
            newline = "\r\n"
        elif kind == "tab":
            lines.insert(at, f"{i}\t{j}")
        elif kind == "unicode-digit":
            lines.insert(at, f"{i} {j}".replace("1", "١"))
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", " "])))
        elif kind == "no-final-newline":
            end = ""
        elif kind == "header":
            lines[0] = draw(st.sampled_from(["0", f"0{n}", f"{n} {n}", str(MAX_QUBITS + 1)]))
    return newline.join(lines) + (newline if end else "")


def _edge_list_outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:
        return type(exc), str(exc)


@SETTINGS
@given(text=edge_list_texts())
def test_edge_lists_read_like_the_line_loop(text):
    want = _edge_list_outcome(graphs._parse_edge_lines, text)
    assert _edge_list_outcome(graphs.parse_edge_list, text) == want


def _assert_whole(m):
    """A matrix built unchecked holds its rows as a tuple that the validating constructor takes."""
    assert type(m.row_ints) is tuple
    assert gf2.BitMatrix(m.rows, m.cols, m.row_ints) == m
    hash(m)


@SETTINGS
@given(data=st.data())
def test_the_trusted_path_builds_values_the_constructors_accept(data):
    g = data.draw(graph_values())
    n = g.n
    stab = data.draw(st.builds(random_stabilizer, st.just(n), st.integers(0, 2**32)))
    q = data.draw(clifford_values(n))
    acting = random_in_domain_op(random.Random(data.draw(st.integers(0, 2**32))), g)
    seq = data.draw(sequence_values(max_vertex=n))
    m = data.draw(matrix_values())
    square = gf2.mat_mul(g.adj, g.adj)  # its diagonal holds the degrees' parities
    witness = reduction.to_graph_state(stab)
    graph_text, pauli_text = graphs.format_edge_list(g), stabilizer.format_stabilizer(stab)
    for built in [
        gf2.identity(n),
        square,
        gf2.transpose(m),
        gf2.set_diagonal_zero(square),
        gf2.hstack(g.adj, square),
        gf2.vstack(stab.s, g.adj),
        graphs.local_complement(g, data.draw(st.integers(1, n))).adj,
        decomposition.apply_sequence(g, seq).adj,
        clifford.graph_action(acting, g).adj,
        clifford.apply_to_stabilizer(q, stab),
        witness.graph.adj,
        witness.r,
        graphs.parse_edge_list(graph_text).adj,
        graphs.parse_edge_list("# the line loop\n" + graph_text).adj,
        stabilizer.parse_stabilizer(pauli_text).s,
        stabilizer.parse_stabilizer("+" + pauli_text).s,  # a sign: the line loop
        stabilizer.parse_stabilizer(gf2.format_matrix(stab.s)).s,
        stabilizer._parse_echelon(pauli_text).s,
    ]:
        _assert_whole(built)
    parsed = clifford.parse_clifford(clifford.format_clifford(q))
    assert clifford.LocalCliffordOp(parsed.a, parsed.b, parsed.c, parsed.d) == parsed == q
    hash(parsed)
