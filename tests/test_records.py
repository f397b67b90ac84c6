"""The contract of the seven result records.

Single, Triple, LCSequence, ReductionWitness, Equivalent, Inequivalent and
Orbit are immutable values. Each is built positionally or by keyword,
compares equal to a record of exactly its type with equal fields (Orbit by
its members alone), hashes consistently with that equality, prints as
``Single(i=3)`` does, refuses assignment and deletion, and comes back equal
from ``copy.copy`` and a pickle round trip.
"""

import copy
import pickle

import pytest

from conftest import identity_op, path_graph
from stabgraph import (
    Equivalent,
    Inequivalent,
    LCSequence,
    Orbit,
    ReductionWitness,
    Single,
    Triple,
    from_graph,
    orbit,
    to_graph_state,
)

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

# Graph, LocalCliffordOp and BitMatrix do not pickle themselves, so the round
# trip puts plain values in those fields: it pins the records' own part.
PICKLABLE = {
    Single: (3,),
    Triple: (1, 2),
    LCSequence: ((Single(1), Triple(2, 3)),),
    ReductionWitness: ("graph", (1, 2), frozenset({3})),
    Equivalent: (5,),
    Inequivalent: (),
    Orbit: (frozenset({1, 2}), {1: LCSequence(()), 2: LCSequence((Single(1),))}),
}

TYPES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


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


@TYPES
def test_a_record_refuses_assignment_and_deletion(cls):
    fields, _ = RECORDS[cls]
    record = cls(**fields)
    for name in [*fields, "extra"]:
        with pytest.raises(AttributeError):
            setattr(record, name, None)
    for name in fields:
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert {name: getattr(record, name) for name in fields} == fields


@TYPES
def test_a_record_survives_copy_and_pickle(cls):
    fields, _ = RECORDS[cls]
    record = cls(**fields)
    duplicate = copy.copy(record)
    assert type(duplicate) is cls and duplicate == record and hash(duplicate) == hash(record)
    plain = cls(*PICKLABLE[cls])
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(plain, protocol))
        assert type(restored) is cls and restored == plain
        assert [getattr(restored, name) for name in fields] == list(PICKLABLE[cls])


def test_the_canonical_representative_is_computed_once(monkeypatch):
    result = orbit.enumerate_orbit(path_graph(3))
    first = result.canonical
    assert first in result.members

    def refuse(*args):
        raise AssertionError("the canonical representative was computed twice")

    monkeypatch.setattr(orbit, "_row_order", refuse)
    assert result.canonical is first
