"""Property tests for the five text formats.

For every format, parsing the formatted text gives back the value, and any
text at all parses to a value or raises ParseError, never anything else.
Examples are derived from the test source (``derandomize=True``), so runs
are deterministic.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stabgraph import clifford, decomposition, gf2, graphs, stabilizer
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
