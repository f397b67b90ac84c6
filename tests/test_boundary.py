"""Values built on the trusted internal paths pass the public validating constructors.

The named graph families and the random stabilizer are the test generators of
conftest.py; they build through the same trusted paths, so the checks here
also keep the test instances valid. The rejections of the public constructors
are checked in test_graphs.py (test_graph_invariants_enforced) and
test_stabilizer.py.
"""

import random

from conftest import (
    complete_graph,
    empty_graph,
    graph_from_edges,
    path_graph,
    random_graph,
    random_in_domain_op,
    random_stabilizer,
    star_graph,
)
from stabgraph import clifford, graphs, reduction, stabilizer
from stabgraph.graphs import Graph
from stabgraph.stabilizer import StabilizerGenMatrix


def trusted_graphs(rng, g):
    n = g.n
    i = rng.randrange(1, n + 1)
    yield graphs.local_complement(g, i)
    yield graphs.parse_edge_list(graphs.format_edge_list(g))
    yield clifford.graph_action(random_in_domain_op(rng, g), g)
    yield reduction.to_graph_state(random_stabilizer(n, rng.getrandbits(32))).graph
    yield graph_from_edges(n, g.edges())
    yield star_graph(n, i)
    for build in (empty_graph, complete_graph, path_graph):
        yield build(n)


def test_trusted_outputs_pass_public_validation():
    rng = random.Random(90)
    for _ in range(300):
        g = random_graph(rng, rng.randrange(1, 13))
        for x in trusted_graphs(rng, g):
            assert Graph(x.adj) == x
        for s in (stabilizer.from_graph(g), random_stabilizer(g.n, rng.getrandbits(32))):
            assert StabilizerGenMatrix(s.s) == s
