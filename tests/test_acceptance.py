"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria are property-based (exhaustive small sizes plus seeded random
sampling) with exact GF(2) equality everywhere and 1e-9 tolerances on the
dense oracle; each also carries a wall-clock budget.
"""

import random
import time
from contextlib import contextmanager

import pytest

import dense_oracle as oracle
from conftest import (
    NONZERO_DIAGONAL,
    all_graphs,
    cd_matrix,
    cd_step,
    complete_graph,
    empty_graph,
    in_domain,
    local_complement_op,
    random_graph,
    random_in_domain_op,
    random_stabilizer,
    reference_graph_action,
    reference_try_invert,
    star_graph,
    step_indices,
)
from stabgraph import clifford, decomposition, equivalence, gf2, graphs
from stabgraph import orbit, reduction, stabilizer
from stabgraph.decomposition import Triple, apply_sequence, decompose_action
from stabgraph.gf2 import BitMatrix, BitVec
from stabgraph.graphs import Graph, local_complement


@contextmanager
def criterion(number, name, budget_seconds):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"acceptance {number} {name}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_seconds, f"criterion {number} took {elapsed:.1f}s"
    print(f"acceptance {number} {name}: PASS ({elapsed:.1f}s)")


def test_01_involution_and_commutation():
    with criterion(1, "involution-and-commutation", 10):
        for n in range(1, 6):
            for g in all_graphs(n):
                for i in range(1, n + 1):
                    assert local_complement(local_complement(g, i), i) == g
                for i in range(1, n + 1):
                    for j in range(i + 1, n + 1):
                        if g.adj.row_ints[i - 1] >> (j - 1) & 1:
                            continue
                        assert local_complement(
                            local_complement(g, j), i
                        ) == local_complement(local_complement(g, i), j)


def test_02_generator_op_equals_local_complement():
    with criterion(2, "generator-action-is-complementation", 10):
        for n in range(1, 5):
            for g in all_graphs(n):
                for i in range(1, n + 1):
                    op = local_complement_op(g, i)
                    assert reference_graph_action(op, g) == local_complement(g, i)
        rng = random.Random(201)
        for _ in range(500):
            n = rng.randrange(1, 13)
            g = random_graph(rng, n)
            i = rng.randrange(1, n + 1)
            op = local_complement_op(g, i)
            assert reference_graph_action(op, g) == local_complement(g, i)


def test_03_reduction_witnesses():
    with criterion(3, "reduction-witness-identity", 60):
        seen_zero_rank = False
        seen_full_rank = False
        for n in range(2, 11):
            for seed in range(500):
                s = random_stabilizer(n, seed)
                k = gf2.rank(BitMatrix(n, n, s.s.row_ints[n:]))
                seen_zero_rank = seen_zero_rank or k == 0
                seen_full_rank = seen_full_rank or k == n
                w = reduction.to_graph_state(s)
                assert reduction.verify_witness(s, w)
                assert isinstance(w.graph, Graph)
        assert seen_zero_rank and seen_full_rank


def test_04_unique_completion():
    with criterion(4, "unique-in-domain-completion", 30):
        for n in range(1, 5):
            for g in all_graphs(n):
                for cbits in range(1 << n):
                    for dbits in range(1 << n):
                        c = BitVec(n, cbits)
                        d = BitVec(n, dbits)
                        try:
                            q = clifford.complete_from_cd(g, c, d)
                        except gf2.SingularError:
                            continue
                        assert in_domain(q, g)
                        for i in range(n):
                            alt = clifford.LocalCliffordOp(
                                BitVec(n, q.a.bits ^ (c.bits & 1 << i)),
                                BitVec(n, q.b.bits ^ (d.bits & 1 << i)),
                                c,
                                d,
                            )
                            with pytest.raises(clifford.NotInDomainError, match=NONZERO_DIAGONAL):
                                reference_graph_action(alt, g)


def test_05_cd_reduction_to_identity():
    with criterion(5, "cd-form-reduction", 60):
        def check(g, c, d):
            n = g.n
            m = cd_matrix(g.adj, c, d)
            seq = decompose_action(clifford.complete_from_cd(g, c, d), g)
            for v in seq.expand():
                m = cd_step(m, v)
            assert m == gf2.identity(n)
            kinds = [isinstance(s, Triple) for s in seq.steps]
            assert kinds == sorted(kinds)
            indices = step_indices(seq)
            assert len(set(indices)) == len(indices)

        for n in range(1, 5):
            for g in all_graphs(n):
                for cbits in range(1 << n):
                    for dbits in range(1 << n):
                        c, d = BitVec(n, cbits), BitVec(n, dbits)
                        if reference_try_invert(cd_matrix(g.adj, c, d)) is not None:
                            check(g, c, d)
        rng = random.Random(202)
        checked = 0
        while checked < 1000:
            n = rng.randrange(1, 13)
            g = random_graph(rng, n)
            c, d = BitVec(n, rng.getrandbits(n)), BitVec(n, rng.getrandbits(n))
            if reference_try_invert(cd_matrix(g.adj, c, d)) is None:
                continue
            check(g, c, d)
            checked += 1


def test_06_sequence_decomposition_soundness():
    with criterion(6, "action-to-sequence-translation", 60):
        rng = random.Random(203)
        for _ in range(500):
            n = rng.randrange(2, 11)
            g = random_graph(rng, n)
            q = random_in_domain_op(rng, g)
            seq = decomposition.decompose_action(q, g)
            assert apply_sequence(g, seq) == reference_graph_action(q, g)


def test_07_solver_partition_matches_orbits():
    with criterion(7, "solver-vs-orbit-partition", 300):
        graphs4 = list(all_graphs(4))
        by_canonical = {}
        for g in graphs4:
            by_canonical.setdefault(orbit.enumerate_orbit(g).canonical, set()).add(g)
        orbit_classes = set(frozenset(v) for v in by_canonical.values())

        solver_classes = []  # list of [representative, member set]
        for g in graphs4:
            for entry in solver_classes:
                verdict = equivalence.test_equivalence_graphs(g, entry[0])
                if isinstance(verdict, equivalence.Equivalent):
                    entry[1].add(g)
                    break
            else:
                solver_classes.append([g, {g}])
        assert set(frozenset(entry[1]) for entry in solver_classes) == orbit_classes

        rng = random.Random(204)
        for _ in range(100):
            g = rng.choice(graphs4)
            h = rng.choice(graphs4)
            verdict = equivalence.test_equivalence_graphs(g, h)
            assert isinstance(verdict, equivalence.Equivalent) == (
                h in orbit.enumerate_orbit(g).members
            )


def test_08_dense_oracle_ground_truth():
    with criterion(8, "dense-oracle-ground-truth", 300):
        rng = random.Random(205)
        # (a) defining eigenvalue equations
        for n in range(1, 9):
            for g in [empty_graph(n), complete_graph(n)] + [
                random_graph(rng, n) for _ in range(15)
            ]:
                state = oracle.build_graph_state(g)
                assert oracle.defining_equation_error(state, g) <= 1e-9

        # (b) lifted decomposition sequences reach the target graph state
        for _ in range(100):
            n = rng.randrange(2, 9)
            g = random_graph(rng, n)
            q = random_in_domain_op(rng, g)
            seq = decomposition.decompose_action(q, g)
            state = oracle.build_graph_state(g)
            cur = g
            for v in seq.expand():
                step = local_complement_op(cur, v)
                state = oracle.apply_lifted(state, oracle.lift_local_clifford(step))
                cur = local_complement(cur, v)
            target = stabilizer.from_graph(reference_graph_action(q, g))
            assert oracle.stabilized_up_to_signs(state, target)

        # (c) lifted reduction witnesses map the stabilized state onto the graph state
        for trial in range(100):
            n = 1 + trial % 8
            s = random_stabilizer(n, 1000 + trial)
            w = reduction.to_graph_state(s)
            state = oracle.stabilized_state(s, seed=trial)
            moved = oracle.apply_lifted(state, oracle.lift_local_clifford(w.q))
            assert oracle.stabilized_up_to_signs(moved, stabilizer.from_graph(w.graph))


def test_09_complete_graph_becomes_star():
    with criterion(9, "complete-graph-star-example", 10):
        k5 = complete_graph(5)
        star = star_graph(5, 1)
        assert local_complement(k5, 1) == star
        members = orbit.enumerate_orbit(k5).members
        assert k5 in members and star in members


def test_10_format_round_trips():
    with criterion(10, "format-round-trips", 60):
        rng = random.Random(206)
        for trial in range(50):
            g = random_graph(rng, rng.randrange(1, 11))
            text = graphs.format_edge_list(g)
            assert graphs.format_edge_list(graphs.parse_edge_list(text)) == text

            s = random_stabilizer(rng.randrange(1, 9), trial)
            text = stabilizer.format_stabilizer(s)
            assert stabilizer.format_stabilizer(stabilizer.parse_stabilizer(text)) == text
            mtext = gf2.format_matrix(s.s)
            assert gf2.format_matrix(gf2.parse_matrix(mtext)) == mtext

            gq = random_graph(rng, rng.randrange(1, 9))
            q = random_in_domain_op(rng, gq)
            text = clifford.format_clifford(q)
            assert clifford.format_clifford(clifford.parse_clifford(text)) == text

            steps = []
            for _ in range(rng.randrange(0, 8)):
                if rng.getrandbits(1):
                    steps.append(decomposition.Single(rng.randrange(1, 11)))
                else:
                    steps.append(Triple(rng.randrange(1, 11), rng.randrange(1, 11)))
            seq = decomposition.LCSequence(tuple(steps))
            text = decomposition.format_sequence(seq)
            assert decomposition.format_sequence(decomposition.parse_sequence(text)) == text
