"""Graph type, local complementation, and the edge-list / DOT formats."""

import random

import pytest

from conftest import (
    all_graphs,
    complete_graph,
    empty_graph,
    graph_from_edges,
    matrix_from_rows,
    path_graph,
    random_graph,
    star_graph,
    zero_matrix,
)
from stabgraph import gf2, graphs
from stabgraph.errors import ParseError
from stabgraph.gf2 import BitMatrix
from stabgraph.graphs import Graph


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph(matrix_from_rows([[0, 1], [0, 0]]))  # asymmetric
    with pytest.raises(ValueError):
        Graph(matrix_from_rows([[1, 0], [0, 0]]))  # self-loop
    with pytest.raises(ValueError):
        Graph(zero_matrix(2, 3))


def test_constructors():
    assert empty_graph(3).edges() == []
    assert complete_graph(3).edges() == [(1, 2), (1, 3), (2, 3)]
    assert path_graph(4).edges() == [(1, 2), (2, 3), (3, 4)]
    assert star_graph(4, 2).edges() == [(1, 2), (2, 3), (2, 4)]
    g = graph_from_edges(4, [(2, 4), (1, 3)])
    assert g.edges() == [(1, 3), (2, 4)]
    with pytest.raises(ValueError):
        graph_from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        graph_from_edges(3, [(1, 4)])


def test_local_complement_complete_graph_becomes_star():
    got = graphs.local_complement(complete_graph(5), 1)
    assert got.edges() == [(1, 2), (1, 3), (1, 4), (1, 5)]
    assert got == star_graph(5, 1)


def test_local_complement_empty_graph_fixed():
    g = empty_graph(4)
    for i in range(1, 5):
        assert graphs.local_complement(g, i) == g


def test_local_complement_path_center_closes_triangle():
    got = graphs.local_complement(path_graph(3), 2)
    assert got == complete_graph(3)


def test_local_complement_out_of_range():
    with pytest.raises(ValueError):
        graphs.local_complement(empty_graph(3), 0)
    with pytest.raises(ValueError):
        graphs.local_complement(empty_graph(3), 4)


def local_complement_matrix_form(adj, i):
    """Reference formula: adj + adj . E_i . adj with the diagonal zeroed (i is 1-based)."""
    n = adj.rows
    unit_diag = BitMatrix(n, n, [(1 << (i - 1)) if r == i - 1 else 0 for r in range(n)])
    correction = gf2.mat_mul(gf2.mat_mul(adj, unit_diag), adj)
    summed = BitMatrix(n, n, [a ^ b for a, b in zip(adj.row_ints, correction.row_ints)])
    return gf2.set_diagonal_zero(summed)


def test_matrix_form_agrees_with_edge_toggling():
    for n in range(1, 5):
        for g in all_graphs(n):
            for i in range(1, n + 1):
                toggled = graphs.local_complement(g, i)
                formula = local_complement_matrix_form(g.adj, i)
                assert toggled.adj == formula
    rng = random.Random(11)
    for _ in range(200):
        n = rng.randrange(1, 13)
        g = random_graph(rng, n)
        i = rng.randrange(1, n + 1)
        assert graphs.local_complement(g, i).adj == local_complement_matrix_form(g.adj, i)


def test_involution():
    for n in range(1, 5):
        for g in all_graphs(n):
            for i in range(1, n + 1):
                assert graphs.local_complement(graphs.local_complement(g, i), i) == g
    rng = random.Random(12)
    for _ in range(500):
        n = rng.randrange(1, 13)
        g = random_graph(rng, n)
        i = rng.randrange(1, n + 1)
        assert graphs.local_complement(graphs.local_complement(g, i), i) == g


def test_commutation_on_non_adjacent_vertices():
    for n in range(2, 5):
        for g in all_graphs(n):
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    if g.adj.row_ints[i - 1] >> (j - 1) & 1:
                        continue
                    ij = graphs.local_complement(graphs.local_complement(g, j), i)
                    ji = graphs.local_complement(graphs.local_complement(g, i), j)
                    assert ij == ji


def test_edge_list_roundtrip():
    rng = random.Random(14)
    for _ in range(50):
        g = random_graph(rng, rng.randrange(1, 12))
        text = graphs.format_edge_list(g)
        assert graphs.parse_edge_list(text) == g
        assert graphs.format_edge_list(graphs.parse_edge_list(text)) == text


def test_edge_list_comments_and_blanks():
    text = "# a triangle\n3\n\n1 2 # first edge\n1 3\n2 3\n"
    assert graphs.parse_edge_list(text) == complete_graph(3)


def test_edge_list_parse_errors():
    with pytest.raises(ParseError):
        graphs.parse_edge_list("")
    with pytest.raises(ParseError) as err:
        graphs.parse_edge_list("3\n2 1\n")
    assert err.value.line == 2
    with pytest.raises(ParseError):
        graphs.parse_edge_list("3\n1 4\n")
    with pytest.raises(ParseError):
        graphs.parse_edge_list("3\n1 2\n1 2\n")
    with pytest.raises(ParseError):
        graphs.parse_edge_list("x\n")


def test_dot_export():
    g = graph_from_edges(3, [(1, 2)])
    assert graphs.to_dot(g) == "graph G {\n  1;\n  2;\n  3;\n  1 -- 2;\n}\n"


def test_graphs_hashable_and_immutable():
    g = path_graph(3)
    assert len({g, path_graph(3), empty_graph(3)}) == 2
    with pytest.raises(AttributeError):
        g.n = 5
