"""CD-form stepping, the local-complementation walk to the identity, and sequence decomposition."""

import random

import pytest

from conftest import (
    NONZERO_DIAGONAL,
    SINGULAR_CD,
    all_graphs,
    cd_matrix,
    cd_step,
    compose,
    empty_graph,
    graph_from_edges,
    hadamard_all_op,
    identity_op,
    local_complement_op,
    matrix_from_rows,
    op_from_qubit_blocks,
    path_graph,
    random_graph,
    random_in_domain_op,
    reference_graph_action,
    reference_try_invert,
    step_indices,
    zero_matrix,
)
from stabgraph import NotInDomainError, clifford, decomposition, gf2, graphs
from stabgraph.decomposition import (
    LCSequence,
    Single,
    Triple,
    apply_sequence,
    decompose_action,
)
from stabgraph.errors import ParseError
from stabgraph.gf2 import BitMatrix, BitVec
from stabgraph.graphs import Graph


def cd_triples(n):
    """Every (g, c, d) on n vertices, with whether diag(c).adj + diag(d) is invertible."""
    for g in all_graphs(n):
        for cbits in range(1 << n):
            for dbits in range(1 << n):
                c, d = BitVec(n, cbits), BitVec(n, dbits)
                yield g, c, d, reference_try_invert(cd_matrix(g.adj, c, d)) is not None


def cd_members(n):
    """Every (g, c, d) on n vertices whose diag(c).adj + diag(d) is invertible."""
    return ((g, c, d) for g, c, d, invertible in cd_triples(n) if invertible)


def random_cd_member(rng, n):
    while True:
        g = random_graph(rng, n)
        c, d = BitVec(n, rng.getrandbits(n)), BitVec(n, rng.getrandbits(n))
        if reference_try_invert(cd_matrix(g.adj, c, d)) is not None:
            return g, c, d


def factor_cd_form(m):
    """Recover some (graph, c, d) with diag(c).adj + diag(d) = m, or None.

    Membership oracle for the CD-form class: d is read off the diagonal,
    each nonzero off-diagonal row forces c_i = 1 and the adjacency row, and
    rows with c_i = 0 are filled in by symmetry.
    """
    if not m.is_square():
        return None
    n = m.rows
    dbits = gf2.diagonal(m)
    cbits = 0
    adj_rows = [0] * n
    forced = [False] * n
    for i in range(n):
        u = m.row_ints[i] & ~(1 << i)
        if u:
            cbits |= 1 << i
            adj_rows[i] = u
            forced[i] = True
    for i in range(n):
        if forced[i]:
            continue
        for j in range(n):
            if forced[j] and (adj_rows[j] >> i) & 1:
                adj_rows[i] |= 1 << j
    adj = BitMatrix(n, n, adj_rows)
    if not gf2.is_symmetric(adj) or gf2.diagonal(adj) != 0:
        return None
    c = BitVec(n, cbits)
    d = BitVec(n, dbits)
    if cd_matrix(adj, c, d) != m:
        return None
    return Graph(adj), c, d


def test_cd_step_identity_fixed():
    assert cd_step(gf2.identity(4), 1) == gf2.identity(4)


def test_cd_step_clears_unit_upper():
    m = matrix_from_rows([[1, 1], [0, 1]])
    assert cd_step(m, 1) == gf2.identity(2)


def test_cd_step_closure():
    rng = random.Random(60)
    for _ in range(300):
        g, c, d = random_cd_member(rng, rng.randrange(1, 8))
        m = cd_matrix(g.adj, c, d)
        i = rng.randrange(1, m.rows + 1)
        stepped = cd_step(m, i)
        assert reference_try_invert(stepped) is not None
        factored = factor_cd_form(stepped)
        assert factored is not None
        g2, c2, d2 = factored
        assert cd_matrix(g2.adj, c2, d2) == stepped
        # the step is local complementation at i on the graph and the lower
        # blocks of the operation when c_i = 1, and the identity otherwise
        if c.bits >> (i - 1) & 1:
            q = compose(clifford.complete_from_cd(g, c, d), local_complement_op(g, i))
            lc = graphs.local_complement(g, i)
            assert cd_matrix(lc.adj, q.c, q.d) == stepped
        else:
            assert stepped == m


def test_factor_cd_form_rejects_non_members():
    # off-diagonal rows force an asymmetric adjacency in both cases
    assert factor_cd_form(matrix_from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])) is None
    assert factor_cd_form(matrix_from_rows([[1, 1, 0], [0, 1, 0], [1, 0, 1]])) is None
    assert factor_cd_form(zero_matrix(2, 3)) is None


def test_factor_cd_form_accepts_singular_members():
    # membership does not require invertibility: c = (1, 0), d = 0 on the edge graph
    got = factor_cd_form(matrix_from_rows([[0, 1], [0, 0]]))
    assert got is not None
    g, c, d = got
    assert g == graph_from_edges(2, [(1, 2)])
    assert (gf2.to01(c.bits, c.n), gf2.to01(d.bits, d.n)) == ("10", "00")


def walk(g, c, d):
    """The walk's sequence for (g, c, d): the decomposition of their in-domain completion."""
    return decompose_action(clifford.complete_from_cd(g, c, d), g)


def test_reduce_identity_empty_sequence():
    assert walk(empty_graph(3), BitVec(3, 0), BitVec(3, 0b111)).steps == ()


def test_reduce_single_step_case():
    # c = (1,0), d = (1,1) on the 2-vertex edge graph gives [[1,1],[0,1]]
    edge = graph_from_edges(2, [(1, 2)])
    c, d = BitVec(2, 0b01), BitVec(2, 0b11)
    assert cd_matrix(edge.adj, c, d) == matrix_from_rows([[1, 1], [0, 1]])
    assert walk(edge, c, d).steps == (Single(1),)


def test_reduce_triple_step_case():
    # c = (1,1), d = (0,0) on the edge graph leaves the adjacency itself
    edge = graph_from_edges(2, [(1, 2)])
    assert cd_matrix(edge.adj, BitVec(2, 0b11), BitVec(2, 0)) == edge.adj
    assert walk(edge, BitVec(2, 0b11), BitVec(2, 0)).steps == (Triple(1, 2),)
    m = edge.adj
    for v in (1, 2, 1):
        m = cd_step(m, v)
    assert m == gf2.identity(2)


def apply_steps(m, seq):
    for v in seq.expand():
        m = cd_step(m, v)
    return m


def test_reduce_exhaustive_small():
    for n in range(1, 4):
        for g, c, d in cd_members(n):
            seq = walk(g, c, d)
            assert apply_steps(cd_matrix(g.adj, c, d), seq) == gf2.identity(n)
            kinds = [isinstance(s, Triple) for s in seq.steps]
            assert kinds == sorted(kinds)  # singles strictly before triples
            indices = step_indices(seq)
            assert len(set(indices)) == len(indices)


def test_reduce_random_members():
    rng = random.Random(61)
    for _ in range(300):
        g, c, d = random_cd_member(rng, rng.randrange(1, 13))
        seq = walk(g, c, d)
        assert apply_steps(cd_matrix(g.adj, c, d), seq) == gf2.identity(g.n)
        indices = step_indices(seq)
        assert len(set(indices)) == len(indices)


def test_reduce_singular_raises():
    for n in range(1, 4):
        for g, c, d, invertible in cd_triples(n):
            if invertible:
                continue
            with pytest.raises(gf2.SingularError):
                clifford.complete_from_cd(g, c, d)
            if c.bits | d.bits != (1 << n) - 1:
                continue  # a (0, 0) pair is the lower half of no operation
            for flips in range(1 << n):  # every operation with lower blocks (c, d)
                a = (d.bits & ~c.bits) ^ (c.bits & flips)
                b = c.bits ^ (d.bits & flips)
                q = clifford.LocalCliffordOp(BitVec(n, a), BitVec(n, b), c, d)
                with pytest.raises(NotInDomainError, match=SINGULAR_CD):
                    decompose_action(q, g)


def test_reduce_length_mismatch():
    g = path_graph(3)
    with pytest.raises(ValueError):
        clifford.complete_from_cd(g, BitVec(2, 0b11), BitVec(3, 0b111))
    with pytest.raises(ValueError):
        clifford.complete_from_cd(g, BitVec(3, 0b111), BitVec(4, 0b1111))


def test_apply_sequence_basics():
    g = path_graph(4)
    assert apply_sequence(g, LCSequence(())) == g
    assert apply_sequence(g, LCSequence((Single(2), Single(2)))) == g
    via_triple = apply_sequence(g, LCSequence((Triple(1, 2),)))
    manual = graphs.local_complement(
        graphs.local_complement(graphs.local_complement(g, 1), 2), 1
    )
    assert via_triple == manual


def test_decompose_identity():
    g = path_graph(4)
    q = identity_op(4)
    assert decompose_action(q, g).steps == ()


def test_decompose_generator_op():
    rng = random.Random(62)
    for _ in range(100):
        n = rng.randrange(1, 10)
        g = random_graph(rng, n)
        i = rng.randrange(1, n + 1)
        q = local_complement_op(g, i)
        seq = decompose_action(q, g)
        assert apply_sequence(g, seq) == graphs.local_complement(g, i)


def test_decompose_random_in_domain_pairs():
    rng = random.Random(63)
    for _ in range(300):
        n = rng.randrange(2, 11)
        g = random_graph(rng, n)
        q = random_in_domain_op(rng, g)
        seq = decompose_action(q, g)
        assert apply_sequence(g, seq) == reference_graph_action(q, g)


def test_composed_step_operations_realize_the_action():
    # composing the per-step generator ops (each taken at the current graph)
    # yields an in-domain operation with the same image; uniqueness of the
    # in-domain completion pins it from its own lower blocks
    rng = random.Random(65)
    for _ in range(150):
        n = rng.randrange(2, 9)
        g = random_graph(rng, n)
        q = random_in_domain_op(rng, g)
        seq = decompose_action(q, g)
        total = identity_op(n)
        cur = g
        for v in seq.expand():
            total = compose(local_complement_op(cur, v), total)
            cur = graphs.local_complement(cur, v)
        assert reference_graph_action(total, g) == reference_graph_action(q, g)
        assert clifford.complete_from_cd(g, total.c, total.d) == total


def test_decompose_not_in_domain():
    with pytest.raises(NotInDomainError, match=SINGULAR_CD):
        decompose_action(hadamard_all_op(3), empty_graph(3))
    # invertible denominator but nonzero image diagonal
    edge = graph_from_edges(2, [(1, 2)])
    shear = op_from_qubit_blocks([(1, 1, 0, 1), (1, 0, 0, 1)])
    with pytest.raises(NotInDomainError, match=NONZERO_DIAGONAL):
        decompose_action(shear, edge)


def test_sequence_text_roundtrip():
    rng = random.Random(64)
    for _ in range(50):
        steps = []
        for _ in range(rng.randrange(0, 6)):
            if rng.getrandbits(1):
                steps.append(Single(rng.randrange(1, 9)))
            else:
                steps.append(Triple(rng.randrange(1, 9), rng.randrange(1, 9)))
        seq = LCSequence(tuple(steps))
        text = decomposition.format_sequence(seq)
        assert decomposition.parse_sequence(text) == seq
        assert decomposition.format_sequence(decomposition.parse_sequence(text)) == text


def test_sequence_text_exact():
    seq = LCSequence((Single(3), Triple(1, 2)))
    assert decomposition.format_sequence(seq) == "g 3\ngg 1 2\n"
    assert decomposition.format_sequence(LCSequence(())) == ""


def test_sequence_parse_errors():
    with pytest.raises(ParseError) as err:
        decomposition.parse_sequence("g 1\nh 2\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        decomposition.parse_sequence("gg 1\n")
    with pytest.raises(ParseError):
        decomposition.parse_sequence("g 0\n")
    with pytest.raises(ParseError):
        decomposition.parse_sequence("g x\n")
    assert decomposition.parse_sequence("# nothing\n\n") == LCSequence(())
