"""Orbits of labeled graphs under local complementation.

Breadth-first search over the n single-vertex moves enumerates the orbit of
a graph state under local Clifford operations. Orbits are over labeled
graphs: vertex relabeling is deliberately not factored out, since the moves
act on fixed qubits.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

from . import graphs
from .decomposition import LCSequence, Single

DEFAULT_MEMBER_CAP = 10**6


class CapExceededError(RuntimeError):
    def __init__(self, cap):
        self.cap = cap
        super().__init__(f"orbit exceeds the member cap of {cap}")


@dataclass(frozen=True)
class Orbit:
    """A complete orbit: members, replayable transcripts, and its lexicographic minimum."""

    members: frozenset
    transcripts: dict = field(compare=False)

    @cached_property
    def canonical(self):
        """The member with the least :func:`_lex_key`, computed on first read."""
        return min(self.members, key=_lex_key)


def _lex_key(g):
    """Row-major upper-triangular adjacency bits as one '0'/'1' string.

    Row i contributes its digits for columns i+1..n-1, read from its binary
    form reversed; keys of equal length compare in lexicographic bit order.
    """
    spec = f"0{g.n}b"
    return "".join(format(r, spec)[::-1][i + 1:] for i, r in enumerate(g.adj.row_ints))


def enumerate_orbit(g, member_cap=DEFAULT_MEMBER_CAP):
    """BFS closure of the graph under all single-vertex complementations.

    Every member gets a shortest-move transcript from ``g`` (replaying it
    with :func:`decomposition.apply_sequence` reproduces the member). Raises
    CapExceededError rather than growing past ``member_cap`` members.
    """
    transcripts = {g: LCSequence(())}
    frontier = deque([g])
    while frontier:
        cur = frontier.popleft()
        base = transcripts[cur].steps
        for i, row in enumerate(cur.adj.row_ints, 1):
            if row & (row - 1) == 0:  # degree < 2: complementing at i changes nothing
                continue
            nxt = graphs.local_complement(cur, i)
            if nxt in transcripts:
                continue
            if len(transcripts) >= member_cap:
                raise CapExceededError(member_cap)
            transcripts[nxt] = LCSequence(base + (Single(i),))
            frontier.append(nxt)
    return Orbit(members=frozenset(transcripts), transcripts=transcripts)

