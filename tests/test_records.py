"""The contract of the seven result records.

Single, Triple, LCSequence, ReductionWitness, Equivalent, Inequivalent and
Orbit are immutable values. Each is built positionally or by keyword,
compares equal to a record of exactly its type with equal fields (Orbit by
its members alone), hashes consistently with that equality, prints as
``Single(i=3)`` does, refuses assignment and deletion, and comes back equal
from ``copy.copy``, ``copy.deepcopy`` and a pickle round trip. So do the
values the records hold (BitVec, BitMatrix, Graph, LocalCliffordOp and
StabilizerGenMatrix), which refuse assignment and deletion of their fields
and are rebuilt by their validating constructors.
"""

import copy
import pickle

import pytest

from conftest import identity_op, path_graph
from stabgraph import (
    BitMatrix,
    BitVec,
    Equivalent,
    Graph,
    Inequivalent,
    LCSequence,
    LocalCliffordOp,
    Orbit,
    ReductionWitness,
    Single,
    StabilizerGenMatrix,
    Triple,
    from_graph,
    orbit,
    to_graph_state,
)
from stabgraph.clifford import InvalidCliffordError
from stabgraph.stabilizer import NotCommutingError

EDGE = path_graph(2)
WITNESS = to_graph_state(from_graph(path_graph(3)))
OP = "LocalCliffordOp(a=111, b=000, c=000, d=111)"

# record type -> (its fields by name, its repr)
RECORDS = {
    Single: ({"i": 3}, "Single(i=3)"),
    Triple: ({"j": 1, "k": 2}, "Triple(j=1, k=2)"),
    LCSequence: (
        {"steps": (Single(1), Triple(2, 3))},
        "LCSequence(steps=(Single(i=1), Triple(j=2, k=3)))",
    ),
    ReductionWitness: (
        {"graph": WITNESS.graph, "q": WITNESS.q, "r": WITNESS.r},
        f"ReductionWitness(graph=Graph(n=3, edges=[(1, 2), (2, 3)]), q={OP},"
        " r=BitMatrix(3x3:[100,010,001]))",
    ),
    Equivalent: ({"q": identity_op(3)}, f"Equivalent(q={OP})"),
    Inequivalent: ({}, "Inequivalent()"),
    Orbit: (
        {"members": frozenset({EDGE}), "transcripts": {EDGE: LCSequence(())}},
        "Orbit(members=frozenset({Graph(n=2, edges=[(1, 2)])}),"
        " transcripts={Graph(n=2, edges=[(1, 2)]): LCSequence(steps=())})",
    ),
}

TYPES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)

# the five value types the records hold: a value built by its constructor, and its fields
VALUES = {
    BitVec: (BitVec(3, 0b101), ("n", "bits")),
    BitMatrix: (WITNESS.r, ("rows", "cols", "row_ints")),
    Graph: (EDGE, ("adj",)),
    LocalCliffordOp: (WITNESS.q, ("a", "b", "c", "d")),
    StabilizerGenMatrix: (from_graph(path_graph(3)), ("s",)),
}

VALUE_TYPES = pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)


@TYPES
def test_a_record_is_built_positionally_or_by_keyword(cls):
    fields, _ = RECORDS[cls]
    by_position, by_keyword = cls(*fields.values()), cls(**fields)
    for record in (by_position, by_keyword):
        assert {name: getattr(record, name) for name in fields} == fields
    assert by_position == by_keyword
    assert hash(by_position) == hash(by_keyword)


@TYPES
def test_a_record_prints_its_type_and_fields(cls):
    fields, text = RECORDS[cls]
    assert repr(cls(**fields)) == text


def test_records_are_equal_by_exact_type_and_fields():
    assert Single(1) == Single(1) and Single(1) != Single(2)
    assert Single(1) != Triple(1, 1)
    assert Single(1) != (1,) and Triple(1, 2) != (1, 2)
    assert Triple(1, 2) != Triple(2, 1)
    assert LCSequence((Single(1),)) != LCSequence((Single(1), Single(1)))
    assert LCSequence(()) != ()
    assert Equivalent(identity_op(3)) != Inequivalent()
    assert Equivalent(identity_op(3)) != Equivalent(identity_op(2))
    assert Inequivalent() == Inequivalent() and Inequivalent() != ()
    assert bool(Inequivalent()) and bool(LCSequence((Single(1),)))

    class Step(Single):
        pass

    assert Step(1) != Single(1) and Single(1) != Step(1)


def test_orbits_are_equal_by_their_members_alone():
    empty = path_graph(1)
    first = Orbit(frozenset({EDGE}), {EDGE: LCSequence(())})
    second = Orbit(frozenset({EDGE}), {EDGE: LCSequence((Single(1), Single(1)))})
    assert first == second and hash(first) == hash(second)
    assert first != Orbit(frozenset({empty}), {empty: LCSequence(())})


@pytest.mark.parametrize("cls", [*RECORDS, *VALUES], ids=lambda cls: cls.__name__)
def test_a_record_refuses_assignment_and_deletion(cls):
    if cls in RECORDS:
        fields, _ = RECORDS[cls]
        record = cls(**fields)
    else:
        record, names = VALUES[cls]
        fields = {name: getattr(record, name) for name in names}
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert {name: getattr(record, name) for name in fields} == fields


def _copies(value):
    """``value`` through copy.copy, copy.deepcopy and a pickle round trip at every protocol."""
    pickled = [pickle.dumps(value, p) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    return [copy.copy(value), copy.deepcopy(value), *map(pickle.loads, pickled)]


@TYPES
def test_a_record_survives_copy_and_pickle(cls):
    fields, _ = RECORDS[cls]
    record = cls(**fields)
    for duplicate in _copies(record):
        assert type(duplicate) is cls and duplicate == record and hash(duplicate) == hash(record)
        assert {name: getattr(duplicate, name) for name in fields} == fields


@VALUE_TYPES
def test_a_value_survives_copy_and_pickle(cls):
    value, _ = VALUES[cls]
    for duplicate in _copies(value):
        assert type(duplicate) is cls and duplicate == value and hash(duplicate) == hash(value)
        assert repr(duplicate) == repr(value)


def test_a_value_is_restored_through_its_validating_constructor():
    # values built on the unchecked path: an adjacency with a self-loop, the
    # anticommuting generators XI and ZI, a row with a bit beyond its one column,
    # and a qubit block [[1, 1], [1, 1]]
    loop = Graph._trusted(BitMatrix(1, 1, [1]))
    anticommuting = StabilizerGenMatrix._trusted(BitMatrix(4, 2, [0b10, 0, 0b01, 0]))
    wide = BitMatrix._trusted(1, 1, (0b10,))
    singular = LocalCliffordOp._trusted(*[BitVec(1, 1)] * 4)
    cases = [
        (loop, ValueError),
        (anticommuting, NotCommutingError),
        (wide, ValueError),
        (singular, InvalidCliffordError),
    ]
    for value, error in cases:
        data = pickle.dumps(value)
        with pytest.raises(error):
            pickle.loads(data)


def test_the_canonical_representative_is_computed_once(monkeypatch):
    result = orbit.enumerate_orbit(path_graph(3))
    first = result.canonical
    assert first in result.members

    def refuse(*args):
        raise AssertionError("the canonical representative was computed twice")

    monkeypatch.setattr(orbit, "_row_order", refuse)
    assert result.canonical is first
