"""Pinned SHA-256 digests of seeded outputs.

Each digest covers the text a command or constructor produces for a fixed,
seeded input set. The reduce, random_stabilizer, equiv and stabilizer_errors
digests were recorded before the GF(2) elimination kernel was shared; the
decompose digest was recorded while the decomposition still stepped the
matrix C.adj + D. Any refactor that changes a single output bit (a different
pivot, a different null-space basis, a different witness, step sequence or
error message) fails here.
"""

import hashlib
import random

import pytest

from stabgraph import clifford, decomposition, equivalence, gf2, graphs, reduction, stabilizer
from stabgraph.gf2 import BitMatrix, BitVec
from stabgraph.stabilizer import StabilizerError, StabilizerGenMatrix

from conftest import (
    basis_change,
    random_graph,
    random_in_domain_op,
    random_invertible,
    random_stabilizer,
    random_valid_clifford,
)


def _digest(chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _scrambled(rng, s):
    """The same state as ``s`` under a random local Clifford and basis change."""
    moved = clifford.apply_to_stabilizer(random_valid_clifford(rng, s.n), s)
    return basis_change(StabilizerGenMatrix(moved), random_invertible(rng, s.n))


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


def _op_with_untouched(rng, g, untouched):
    """An in-domain operation leaving exactly ``untouched`` qubits at (c_i, d_i) = (0, 1)."""
    n = g.n
    while True:
        skip = set(rng.sample(range(n), untouched))
        cbits = dbits = 0
        for i in range(n):
            ci, di = (0, 1) if i in skip else rng.choice(((1, 0), (1, 1)))
            cbits |= ci << i
            dbits |= di << i
        try:
            return clifford.complete_from_cd(g, BitVec(n, cbits), BitVec(n, dbits))
        except gf2.SingularError:
            continue


def decompose_outputs():
    rng = random.Random(4104)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 17))
        yield decomposition.format_sequence(
            decomposition.decompose_action(random_in_domain_op(rng, g), g)
        )
    for untouched in range(0, 57, 8):
        g = random_graph(rng, 64)
        q = _op_with_untouched(rng, g, untouched)
        yield decomposition.format_sequence(decomposition.decompose_action(q, g))


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
    "decompose": (
        decompose_outputs,
        "dd658765d2b3ff1623c70bf9eeec8fa7cf1ec34dc8477b95f6e002d659a0d0d2",
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_outputs_match_pinned_digest(name):
    source, digest = PINNED[name]
    assert _digest(source()) == digest


if __name__ == "__main__":  # print fresh digests: python tests/test_pinned_outputs.py
    for name, (source, _) in PINNED.items():
        print(name, _digest(source()))
