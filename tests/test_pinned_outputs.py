"""Pinned SHA-256 digests of seeded outputs.

Each digest covers the text a command or constructor produces for a fixed,
seeded input set. They were recorded from the implementation before the GF(2)
elimination kernel was shared, so any refactor that changes a single output
bit (a different pivot, a different null-space basis, a different witness or
error message) fails here.
"""

import hashlib
import random

import pytest

from stabgraph import clifford, equivalence, gf2, graphs, reduction, stabilizer
from stabgraph.gf2 import BitMatrix
from stabgraph.stabilizer import StabilizerError, StabilizerGenMatrix, random_stabilizer

from conftest import random_invertible, random_valid_clifford


def _digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _scrambled(rng, s):
    """The same state as ``s`` under a random local Clifford and basis change."""
    moved = clifford.apply_to_stabilizer(random_valid_clifford(rng, s.n), s)
    return stabilizer.basis_change(
        StabilizerGenMatrix(moved), random_invertible(rng, s.n)
    )


def reduce_outputs():
    rng = random.Random(4101)
    for seed in range(200):
        stab = _scrambled(rng, random_stabilizer(rng.randrange(1, 13), seed))
        w = reduction.to_graph_state(stab)
        yield graphs.format_edge_list(w.graph)
        yield clifford.format_clifford(w.q)
        yield gf2.format_matrix(w.r)


def random_stabilizer_outputs():
    for n in range(1, 13):
        for seed in range(20):
            yield stabilizer.format_stabilizer(random_stabilizer(n, seed))


def equiv_witnesses():
    rng = random.Random(4102)
    for seed in range(40):
        n = rng.randrange(1, 8)
        sa = random_stabilizer(n, 1000 + seed)
        if seed % 4 == 3:
            sb = random_stabilizer(n, 2000 + seed)
        else:
            sb = _scrambled(rng, sa)
        result = equivalence.test_equivalence(sa, sb)
        if isinstance(result, equivalence.Equivalent):
            yield clifford.format_clifford(result.q)
        else:
            yield type(result).__name__


def stabilizer_verdicts():
    rng = random.Random(4103)
    for t in range(500):
        n = rng.randrange(1, 7)
        if t % 2:
            # a valid matrix with one flipped bit: often still independent
            rows = list(random_stabilizer(n, t).s.row_ints)
            rows[rng.randrange(2 * n)] ^= 1 << rng.randrange(n)
        else:
            rows = [rng.getrandbits(n) for _ in range(2 * n)]
        try:
            StabilizerGenMatrix(BitMatrix(2 * n, n, rows))
            yield "ok"
        except StabilizerError as exc:
            yield f"{type(exc).__name__}: {exc}"


PINNED = {
    "reduce": (
        reduce_outputs,
        "f971c38f36d40fa451e53a076fd3e2eb00a0125c985dd8b289062e4ccef9aab1",
    ),
    "random_stabilizer": (
        random_stabilizer_outputs,
        "84c441a6df1163668cb396277c7a696d554408449fc4fae6a2975ab1cefe4703",
    ),
    "equiv": (
        equiv_witnesses,
        "74e93a1bcbe23433880b036e86222113338cc2b8e8736aee3bac18afd5a22be1",
    ),
    "stabilizer_errors": (
        stabilizer_verdicts,
        "d14107e6cde1a0f6f95d16778672f7f9aee01927442631cab6d01b5192262cad",
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_outputs_match_pinned_digest(name):
    source, digest = PINNED[name]
    assert _digest(source()) == digest


if __name__ == "__main__":  # print fresh digests: python tests/test_pinned_outputs.py
    for name, (source, _) in PINNED.items():
        print(name, _digest(source()))
