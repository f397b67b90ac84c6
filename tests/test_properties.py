"""Property tests for the five text formats and the CLI exit-code contract.

For every format, parsing the formatted text gives back the value, and any
text at all parses to a value or raises ParseError, never anything else.
Commands run on such texts exit with a code the contract gives them and
never report an internal error. Examples are derived from the test source
(``derandomize=True``), so runs are deterministic.
"""

import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabgraph import cli, clifford, decomposition, gf2, graphs, stabilizer
from stabgraph.errors import ParseError

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
def graph_values(draw):
    n = draw(st.integers(1, 12))
    slots = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    mask = draw(st.integers(0, (1 << len(slots)) - 1))
    return graphs.Graph.from_edges(n, [e for k, e in enumerate(slots) if mask >> k & 1])


def stabilizer_values():
    return st.builds(stabilizer.random_stabilizer, st.integers(1, 12), st.integers(0, 2**32))


@st.composite
def clifford_values(draw):
    n = draw(st.integers(1, 12))
    blocks = draw(st.lists(st.sampled_from(INVERTIBLE_BLOCKS), min_size=n, max_size=n))
    return clifford.LocalCliffordOp.from_qubit_blocks(blocks)


@st.composite
def sequence_values(draw):
    vertex = st.integers(1, 10**6)
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
FORMAT_ALPHABET = "0123456789 \n\t#+-gIXYZ"


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


def run_on_files(command, texts, *flags):
    """Run ``command`` on ``texts`` written to fresh files; returns (exit code, stderr).

    ``{tmp}`` in a flag names the directory of those files.
    """
    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"in{k}.txt") for k in range(len(texts))]
        for path, text in zip(paths, texts):
            Path(path).write_text(text)
        err = StringIO()
        with redirect_stdout(StringIO()), redirect_stderr(err):
            code = cli.run([command, *paths, *(f.format(tmp=tmp) for f in flags)])
    return code, err.getvalue()


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
