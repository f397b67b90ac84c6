"""Orbits of labeled graphs under local complementation.

Breadth-first search over the n single-vertex moves enumerates the orbit of
a graph state under local Clifford operations. Orbits are over labeled
graphs: vertex relabeling is deliberately not factored out, since the moves
act on fixed qubits.
"""

from collections import deque
from functools import cmp_to_key

from . import graphs
from .decomposition import LCSequence, Single
from .errors import _Record

DEFAULT_MEMBER_CAP = 10**6


class CapExceededError(RuntimeError):
    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"orbit exceeds the member cap of {cap}")


class Orbit(_Record):
    """A complete orbit: members, replayable transcripts, and its lexicographic minimum."""

    _fields = ("members", "transcripts")
    __slots__ = _fields + ("_canonical",)

    def __init__(self, members, transcripts):
        self._store((members, transcripts))

    def _key(self):  # orbits compare and hash by their members alone
        return (self.members,)

    @property
    def canonical(self):
        """The first member in :func:`_row_order`, computed on first read."""
        if not hasattr(self, "_canonical"):
            object.__setattr__(self, "_canonical", min(self.members, key=_row_order))
        return self._canonical


@cmp_to_key
def _row_order(g, h):
    """At the lowest differing column of the first differing row, 0 comes first.

    Earlier rows are equal, so that column lies above the diagonal: this is
    the lexicographic order of the row-major upper-triangular entries.
    """
    for r, s in zip(g.adj.row_ints, h.adj.row_ints):
        if r != s:
            diff = r ^ s
            return 1 if r & diff & -diff else -1
    return 0


def enumerate_orbit(g, member_cap=DEFAULT_MEMBER_CAP):
    """BFS closure of the graph under all single-vertex complementations.

    Every member gets a shortest-move transcript from ``g`` (replaying it
    with :func:`decomposition.apply_sequence` reproduces the member). Raises
    CapExceededError rather than growing past ``member_cap`` members.
    """
    transcripts = {g: LCSequence(())}
    frontier = deque([(g, ())])  # each member with the steps of its transcript
    while frontier:
        cur, base = frontier.popleft()
        for i, row in enumerate(cur.adj.row_ints, 1):
            if row & (row - 1) == 0:  # degree < 2: complementing at i changes nothing
                continue
            nxt = graphs.local_complement(cur, i)
            if nxt in transcripts:
                continue
            if len(transcripts) >= member_cap:
                raise CapExceededError(member_cap)
            steps = base + (Single(i),)
            transcripts[nxt] = LCSequence(steps)
            frontier.append((nxt, steps))
    return Orbit(members=frozenset(transcripts), transcripts=transcripts)

