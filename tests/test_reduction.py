"""Reduction of stabilizers to graph-state standard form with exact witnesses."""

import random

from conftest import (
    basis_change,
    cd_matrix,
    compose,
    empty_graph,
    hadamard_all_op,
    identity_op,
    invert,
    random_graph,
    random_in_domain_op,
    random_invertible,
    random_stabilizer,
    reference_to_graph_state,
    stabilizer_with_x_rank,
    zero_matrix,
)
from stabgraph import clifford, gf2, graphs, reduction, stabilizer
from stabgraph.clifford import LocalCliffordOp
from stabgraph.gf2 import BitMatrix, BitVec
from stabgraph.reduction import to_graph_state, verify_witness


def z_only(n):
    return stabilizer.StabilizerGenMatrix(
        gf2.vstack(gf2.identity(n), zero_matrix(n, n))
    )


def test_standard_form_is_fixed_point():
    rng = random.Random(50)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 10))
        w = to_graph_state(stabilizer.from_graph(g))
        assert w.graph == g
        assert w.q == identity_op(g.n)
        assert w.r == gf2.identity(g.n)


def moved(q, g):
    """The generator matrix Q.[adj; I] of the graph state moved by q."""
    s = clifford.apply_to_stabilizer(q, stabilizer.from_graph(g))
    return stabilizer.StabilizerGenMatrix(s)


def test_reducing_an_in_domain_image_is_the_graph_action():
    # reduction and the graph action share one graph-form step: on Q.[adj; I]
    # with g in q's domain it needs no Hadamard and no shear
    rng = random.Random(52)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 16))
        q = random_in_domain_op(rng, g)
        w = to_graph_state(moved(q, g))
        assert w.graph == clifford.graph_action(q, g)
        assert w.q == identity_op(g.n)
        assert w.r == invert(cd_matrix(g.adj, q.c, q.d))


def test_completion_is_the_start_op_then_the_reduction_shears():
    rng = random.Random(53)
    for _ in range(60):
        g = random_graph(rng, rng.randrange(1, 16))
        q = random_in_domain_op(rng, g)
        start = LocalCliffordOp(BitVec(g.n, q.d.bits & ~q.c.bits), q.c, q.c, q.d)
        w = to_graph_state(moved(start, g))
        assert clifford.complete_from_cd(g, q.c, q.d) == compose(w.q, start)


def test_z_only_becomes_empty_graph_via_hadamards():
    for n in range(1, 8):
        w = to_graph_state(z_only(n))
        assert w.graph == empty_graph(n)
        assert w.q == hadamard_all_op(n)
        assert verify_witness(z_only(n), w)


def test_the_column_elimination_gives_the_row_reduction_witness():
    """Bit for bit the witness of the three-step row reduction, on X = 0, X = I,
    an X block of every rank in between and the seeded random stabilizers."""
    rng = random.Random(54)
    for n in range(1, 17):
        cases = [z_only(n), stabilizer.from_graph(random_graph(rng, n))]
        cases += [stabilizer_with_x_rank(rng, n, k) for k in range(n + 1) for _ in range(2)]
        cases += [random_stabilizer(n, seed) for seed in range(4)]
        for k, s in enumerate(cases[2 : 2 * n + 4 : 2]):
            assert gf2.rank(BitMatrix(n, n, s.s.row_ints[n:])) == k
        for s in cases:
            w = to_graph_state(s)
            assert (w.graph, w.q, w.r) == reference_to_graph_state(s)


def test_witness_identity_on_random_stabilizers():
    for n in range(1, 13):
        for seed in range(40):
            s = random_stabilizer(n, seed)
            w = to_graph_state(s)
            assert verify_witness(s, w)
            assert isinstance(w.graph, graphs.Graph)


def test_branch_coverage():
    # x-rank 0, full, and intermediate inputs all reduce
    rng = random.Random(51)
    full = stabilizer.from_graph(random_graph(rng, 5))
    assert gf2.rank(BitMatrix(5, 5, full.s.row_ints[5:])) == 5
    assert verify_witness(full, to_graph_state(full))

    zero = z_only(5)
    assert gf2.rank(BitMatrix(5, 5, zero.s.row_ints[5:])) == 0
    assert verify_witness(zero, to_graph_state(zero))

    mid = stabilizer.parse_stabilizer("ZI\nIX\n")
    assert gf2.rank(BitMatrix(2, 2, mid.s.row_ints[2:])) == 1
    w = to_graph_state(mid)
    assert verify_witness(mid, w)


def test_basis_changed_z_only_still_k0():
    rng = random.Random(52)
    for _ in range(20):
        n = rng.randrange(2, 8)
        s = basis_change(z_only(n), random_invertible(rng, n))
        assert gf2.rank(BitMatrix(n, n, s.s.row_ints[n:])) == 0
        assert verify_witness(s, to_graph_state(s))


def test_wide_instances():
    # widths past one machine word exercise the multi-word row path
    for seed in range(3):
        s = random_stabilizer(80, seed)
        assert verify_witness(s, to_graph_state(s))


def test_deterministic():
    s = random_stabilizer(7, 99)
    w1 = to_graph_state(s)
    w2 = to_graph_state(s)
    assert (w1.graph, w1.q, w1.r) == (w2.graph, w2.q, w2.r)


def test_verify_witness_rejects_wrong_basis():
    rng = random.Random(53)
    rejected = 0
    for seed in range(30):
        s = random_stabilizer(4, seed)
        w = to_graph_state(s)
        other = random_invertible(rng, 4)
        if other == w.r:
            continue
        bad = reduction.ReductionWitness(graph=w.graph, q=w.q, r=other)
        if not verify_witness(s, bad):
            rejected += 1
    assert rejected >= 25  # generically false


def test_verify_witness_rejects_perturbed_operation():
    s = random_stabilizer(4, 7)
    w = to_graph_state(s)
    shear = LocalCliffordOp(BitVec(4, 0b1111), BitVec(4, 1), BitVec(4, 0), BitVec(4, 0b1111))
    bad = reduction.ReductionWitness(graph=w.graph, q=compose(shear, w.q), r=w.r)
    assert not verify_witness(s, bad)


def test_verify_witness_rejects_singular_r():
    s = random_stabilizer(3, 1)
    w = to_graph_state(s)
    bad = reduction.ReductionWitness(graph=w.graph, q=w.q, r=zero_matrix(3, 3))
    assert not verify_witness(s, bad)


def test_verify_witness_rejects_a_non_square_r():
    s = random_stabilizer(3, 1)
    w = to_graph_state(s)
    # r with a column or a row dropped, or a zero column or row added: every
    # other entry matches, and each shape is rejected before the product
    dropped = BitMatrix(3, 2, [row & 0b11 for row in w.r.row_ints])
    widened = gf2.hstack(w.r, zero_matrix(3, 1))
    shortened = BitMatrix(2, 3, w.r.row_ints[:2])
    lengthened = gf2.vstack(w.r, zero_matrix(1, 3))
    for r in (dropped, widened, shortened, lengthened):
        bad = reduction.ReductionWitness(graph=w.graph, q=w.q, r=r)
        assert not verify_witness(s, bad)


def test_verify_witness_rejects_a_witness_of_the_wrong_size():
    s = random_stabilizer(3, 1)
    w = to_graph_state(s)
    # an operation or a graph on 4 qubits against a 3-qubit stabilizer is
    # rejected before the product, like an r of the wrong shape
    for bad in (
        reduction.ReductionWitness(graph=w.graph, q=identity_op(4), r=w.r),
        reduction.ReductionWitness(graph=empty_graph(4), q=w.q, r=w.r),
    ):
        assert verify_witness(s, bad) is False


def _constructor_error(s):
    try:
        stabilizer.StabilizerGenMatrix(s)
    except stabilizer.StabilizerError as exc:
        return type(exc), str(exc)
    return None


def test_an_unchecked_input_is_validated_through_the_witness():
    """On an unchecked matrix, to_graph_state raises what the constructor raises."""
    rng = random.Random(51)
    seen = set()
    for t in range(300):
        n = rng.randrange(1, 7)
        rows = list(random_stabilizer(n, t).s.row_ints)
        kind = t % 3
        if kind == 0:  # one flipped bit: often still independent, often anticommuting
            rows[rng.randrange(2 * n)] ^= 1 << rng.randrange(n)
        elif kind == 1:  # a row too many or too few, the first 2n rows still valid
            rows = rows + [rng.getrandbits(n)] if t % 2 else rows[:-1]
        s = BitMatrix(len(rows), n, rows)
        error = _constructor_error(s)
        seen.add(error and error[0])
        try:
            witness = to_graph_state(stabilizer.StabilizerGenMatrix._trusted(s))
        except stabilizer.StabilizerError as exc:
            assert (type(exc), str(exc)) == error
        else:
            assert error is None and verify_witness(stabilizer.StabilizerGenMatrix(s), witness)
    errors = stabilizer.NotIndependentError, stabilizer.NotCommutingError
    assert seen >= {None, stabilizer.StabilizerError, *errors}
