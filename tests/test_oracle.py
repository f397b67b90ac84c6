"""Dense statevector ground truth for the binary formalism."""

import random
from itertools import product

import numpy as np
import pytest

import dense_oracle as oracle
from conftest import (
    complete_graph,
    empty_graph,
    graph_from_edges,
    hadamard_all_op,
    identity_op,
    local_complement_op,
    path_graph,
    random_graph,
    random_in_domain_op,
    random_stabilizer,
    reference_graph_action,
)
from dense_oracle import (
    StateVector,
    TooLargeError,
    apply_lifted,
    apply_pauli,
    apply_single_qubit,
    build_graph_state,
    clifford_table,
    defining_equation_error,
    lift_local_clifford,
    stabilized_state,
    stabilized_up_to_signs,
)
from stabgraph import clifford, decomposition, graphs, reduction, stabilizer


def pauli(text):
    """The (z, x) bits of a string over {I, X, Y, Z}, qubit 1 first."""
    z = sum(1 << i for i, ch in enumerate(text) if ch in "ZY")
    x = sum(1 << i for i, ch in enumerate(text) if ch in "XY")
    return z, x


def test_plus_state():
    state = build_graph_state(empty_graph(1))
    assert np.allclose(state.amplitudes, [2**-0.5, 2**-0.5])


def test_edge_graph_state_amplitudes():
    state = build_graph_state(graph_from_edges(2, [(1, 2)]))
    assert np.allclose(state.amplitudes, np.array([1, 1, 1, -1]) / 2.0)


def test_defining_equations_random_graphs():
    rng = random.Random(90)
    for n in range(1, 9):
        for _ in range(5):
            g = random_graph(rng, n)
            state = build_graph_state(g)
            assert defining_equation_error(state, g) <= oracle.ATOL


def test_too_large():
    with pytest.raises(TooLargeError):
        build_graph_state(empty_graph(oracle.ORACLE_QUBIT_LIMIT + 1))


def test_apply_pauli_identity():
    state = build_graph_state(path_graph(3))
    moved = apply_pauli(state, pauli("III"))
    assert np.allclose(moved.amplitudes, state.amplitudes)


def test_apply_pauli_x():
    zero = StateVector(1, [1.0, 0.0])
    assert np.allclose(apply_pauli(zero, pauli("X")).amplitudes, [0.0, 1.0])


def test_apply_pauli_y():
    zero = StateVector(1, [1.0, 0.0])
    assert np.allclose(apply_pauli(zero, pauli("Y")).amplitudes, [0.0, 1j])
    one = StateVector(1, [0.0, 1.0])
    assert np.allclose(apply_pauli(one, pauli("Y")).amplitudes, [-1j, 0.0])


def test_apply_pauli_z():
    plus = StateVector(1, [2**-0.5, 2**-0.5])
    assert np.allclose(apply_pauli(plus, pauli("Z")).amplitudes, [2**-0.5, -(2**-0.5)])


def test_pauli_products_and_phases():
    # Y equals i X Z as matrices; check on a dense random state
    rng = np.random.default_rng(7)
    amps = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    state = StateVector(3, amps / np.linalg.norm(amps))
    lhs = apply_pauli(state, pauli("IYI"))
    rhs = apply_pauli(apply_pauli(state, pauli("IZI")), pauli("IXI"))
    assert np.allclose(lhs.amplitudes, 1j * rhs.amplitudes)


def test_clifford_table_structure():
    table = clifford_table()
    assert len(table) == 24
    by_sym = {}
    for entry in table:
        by_sym.setdefault(entry.symplectic, []).append(entry)
        u = entry.unitary
        assert np.allclose(u @ u.conj().T, np.eye(2), atol=oracle.ATOL)
    assert len(by_sym) == 6
    assert all(len(v) == 4 for v in by_sym.values())
    # entries are pairwise distinct up to global phase
    for i, e1 in enumerate(table):
        for e2 in table[i + 1 :]:
            inner = abs(np.trace(e1.unitary.conj().T @ e2.unitary))
            assert inner < 2 - 1e-6


def test_lift_identity_and_hadamard():
    ident = identity_op(3)
    for gate in lift_local_clifford(ident):
        assert gate.symplectic == (1, 0, 0, 1)
    had = hadamard_all_op(2)
    for gate in lift_local_clifford(had):
        assert gate.symplectic == (0, 1, 1, 0)
        assert np.allclose(np.abs(gate.unitary), np.full((2, 2), 2**-0.5), atol=1e-6)


def test_stabilized_up_to_signs():
    g = path_graph(3)
    state = build_graph_state(g)
    stab = stabilizer.from_graph(g)
    assert stabilized_up_to_signs(state, stab)
    flipped = apply_pauli(state, pauli("ZII"))
    assert stabilized_up_to_signs(flipped, stab)
    other = empty_graph(3)
    assert not stabilized_up_to_signs(build_graph_state(other), stab)


def test_stabilized_state_matches_circuit_construction():
    rng = random.Random(91)
    for _ in range(10):
        g = random_graph(rng, rng.randrange(1, 7))
        direct = build_graph_state(g)
        projected = stabilized_state(stabilizer.from_graph(g))
        assert abs(abs(direct.inner(projected)) - 1.0) <= 1e-9


def test_lifted_generator_op_moves_graph_state():
    rng = random.Random(92)
    for _ in range(25):
        n = rng.randrange(2, 7)
        g = random_graph(rng, n)
        i = rng.randrange(1, n + 1)
        q = local_complement_op(g, i)
        moved = apply_lifted(build_graph_state(g), lift_local_clifford(q))
        target = stabilizer.from_graph(graphs.local_complement(g, i))
        assert stabilized_up_to_signs(moved, target)


def test_lifted_sequence_matches_decomposition():
    rng = random.Random(93)
    for _ in range(15):
        n = rng.randrange(2, 7)
        g = random_graph(rng, n)
        q = random_in_domain_op(rng, g)
        seq = decomposition.decompose_action(q, g)
        state = build_graph_state(g)
        cur = g
        for v in seq.expand():
            step = local_complement_op(cur, v)
            state = apply_lifted(state, lift_local_clifford(step))
            cur = graphs.local_complement(cur, v)
        target = stabilizer.from_graph(reference_graph_action(q, g))
        assert stabilized_up_to_signs(state, target)


def test_lifted_reduction_witness():
    for seed in range(15):
        n = 2 + seed % 5
        s = random_stabilizer(n, seed)
        witness = reduction.to_graph_state(s)
        state = stabilized_state(s, seed=seed)
        moved = apply_lifted(state, lift_local_clifford(witness.q))
        assert stabilized_up_to_signs(moved, stabilizer.from_graph(witness.graph))


def test_equivalence_witness_lifts():
    p3 = path_graph(3)
    k3 = complete_graph(3)
    from stabgraph.equivalence import Equivalent, test_equivalence_graphs as decide_graphs

    result = decide_graphs(p3, k3)
    assert isinstance(result, Equivalent)
    moved = apply_lifted(build_graph_state(p3), lift_local_clifford(result.q))
    assert stabilized_up_to_signs(moved, stabilizer.from_graph(k3))


def test_no_local_clifford_connects_different_orbits():
    # exhaustive over the full table: 24^2 at n=2 and 24^3 at n=3
    cases = [
        (graph_from_edges(2, [(1, 2)]), empty_graph(2)),
        (complete_graph(3), empty_graph(3)),
    ]
    for g, h in cases:
        src = build_graph_state(g)
        target = stabilizer.from_graph(h)
        table = clifford_table()
        found = False
        for combo in product(table, repeat=g.n):
            state = src
            for qubit, gate in enumerate(combo, start=1):
                state = apply_single_qubit(state, gate.unitary, qubit)
            if stabilized_up_to_signs(state, target):
                found = True
                break
        assert not found


def test_apply_single_qubit_position():
    # X on qubit 2 of |00> gives |01> in little-endian indexing (index 2)
    zero2 = StateVector(2, [1.0, 0.0, 0.0, 0.0])
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    moved = apply_single_qubit(zero2, x, 2)
    assert np.allclose(moved.amplitudes, [0.0, 0.0, 1.0, 0.0])


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(1, [1.0, 1.0])  # not normalized
    with pytest.raises(ValueError):
        StateVector(2, [1.0, 0.0])  # wrong length
