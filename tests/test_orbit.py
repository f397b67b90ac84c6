"""Orbit enumeration, canonical representatives, and transcript soundness."""

import random

import pytest

from conftest import (
    all_graphs,
    complete_graph,
    empty_graph,
    graph_from_edges,
    random_graph,
    reference_entry_tuple,
)
from stabgraph import graphs, orbit
from stabgraph.decomposition import apply_sequence
from stabgraph.orbit import CapExceededError, enumerate_orbit


def test_empty_graph_is_a_fixed_point():
    for n in range(1, 6):
        o = enumerate_orbit(empty_graph(n))
        assert o.members == {empty_graph(n)}
        assert o.canonical == empty_graph(n)


def test_single_edge_orbit_is_singleton():
    edge = graph_from_edges(2, [(1, 2)])
    assert enumerate_orbit(edge).members == {edge}


def test_triangle_orbit():
    k3 = complete_graph(3)
    o = enumerate_orbit(k3)
    expected = {
        k3,
        graph_from_edges(3, [(1, 2), (1, 3)]),  # centered at 1
        graph_from_edges(3, [(1, 2), (2, 3)]),  # centered at 2
        graph_from_edges(3, [(1, 3), (2, 3)]),  # centered at 3
    }
    assert o.members == expected
    assert len(o.members) == 4
    # smallest upper-triangle bits (edge12, edge13, edge23) = (0, 1, 1)
    assert o.canonical == graph_from_edges(3, [(1, 3), (2, 3)])


def test_closure_and_transcripts():
    rng = random.Random(80)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 7))
        o = enumerate_orbit(g)
        assert g in o.members
        for m in o.members:
            for i in range(1, g.n + 1):
                assert graphs.local_complement(m, i) in o.members
            assert apply_sequence(g, o.transcripts[m]) == m


def test_orbit_independent_of_seed_member():
    rng = random.Random(81)
    for _ in range(10):
        g = random_graph(rng, rng.randrange(2, 7))
        o = enumerate_orbit(g)
        for m in o.members:
            o2 = enumerate_orbit(m)
            assert o2.members == o.members
            assert o2.canonical == o.canonical


def test_canonical_form_properties():
    rng = random.Random(82)
    assert enumerate_orbit(empty_graph(4)).canonical == empty_graph(4)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 7))
        rep = enumerate_orbit(g).canonical
        assert enumerate_orbit(rep).canonical == rep
        i = rng.randrange(1, g.n + 1)
        assert enumerate_orbit(graphs.local_complement(g, i)).canonical == rep


def test_same_orbit():
    rng = random.Random(83)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 7))
        i = rng.randrange(1, g.n + 1)
        assert graphs.local_complement(g, i) in enumerate_orbit(g).members
    assert empty_graph(2) not in enumerate_orbit(graph_from_edges(2, [(1, 2)])).members
    assert empty_graph(3) not in enumerate_orbit(empty_graph(2)).members


def test_member_cap():
    k3 = complete_graph(3)
    with pytest.raises(CapExceededError) as err:
        enumerate_orbit(k3, member_cap=2)
    assert err.value.cap == 2
    assert len(enumerate_orbit(k3, member_cap=4).members) == 4


def test_partition_of_all_4_vertex_graphs():
    reps = {}
    for g in all_graphs(4):
        reps.setdefault(enumerate_orbit(g).canonical, []).append(g)
    assert sum(len(v) for v in reps.values()) == 64
    for rep, members in reps.items():
        assert rep in members
        for m in members:
            assert enumerate_orbit(m).canonical == rep


def test_row_order_orders_like_the_entry_tuple():
    rng = random.Random(84)
    samples = [list(all_graphs(4))]
    samples += [[random_graph(rng, n) for _ in range(40)] for n in range(10)]
    for sample in samples:
        by_rows = sorted(sample, key=orbit._row_order)
        assert by_rows == sorted(sample, key=reference_entry_tuple)
        # equal in the order exactly when equal as graphs
        key = orbit._row_order
        assert all((key(g) == key(h)) == (g == h) for g in by_rows for h in by_rows)
