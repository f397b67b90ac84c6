"""The linear-system equivalence solver, against brute force and orbits."""

import random

import pytest

from conftest import (
    all_graphs,
    basis_change,
    complete_graph,
    empty_graph,
    graph_from_edges,
    path_graph,
    random_graph,
    random_invertible,
    random_stabilizer,
    random_valid_clifford,
    reference_equivalence,
    reference_linear_system,
    reference_try_invert,
    star_graph,
)
from stabgraph import cli, clifford, equivalence, gf2, graphs, orbit, stabilizer
from stabgraph.decomposition import LCSequence, Single, apply_sequence
from stabgraph.equivalence import Equivalent, Inequivalent, build_linear_system
from stabgraph.equivalence import test_equivalence as decide
from stabgraph.equivalence import test_equivalence_graphs as decide_graphs
from stabgraph.graphs import Graph


def pauli_stab(*texts):
    return stabilizer.parse_stabilizer("".join(t + "\n" for t in texts))


def test_system_single_qubit_z_z():
    sys = gf2.transpose(build_linear_system(pauli_stab("Z"), pauli_stab("Z")))
    # unknowns ordered (A, B, C, D); the only equation is C = 0
    assert sys.rows == 1 and sys.cols == 4
    assert sys.row_ints == (0b0100,)


def test_system_single_qubit_z_x():
    sys = gf2.transpose(build_linear_system(pauli_stab("Z"), pauli_stab("X")))
    assert sys.row_ints == (0b0001,)  # A = 0


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 63, 64, 65, 70])
def test_system_matches_the_reference(n):
    # n = 1, 2, 3: the separately moved top bit is all or half of each row;
    # 31..33 and 63..65 straddle 32- and 64-bit boundaries, 70 is past both
    rng = random.Random(n)
    states = [random_stabilizer(n, 1000 * n + k) for k in range(6)]
    states += [stabilizer.from_graph(random_graph(rng, n)) for _ in range(6)]
    # all ones: every partial product of the spread is present, so a carry would show
    ones = stabilizer.StabilizerGenMatrix._trusted(gf2.BitMatrix(2 * n, n, [(1 << n) - 1] * 2 * n))
    for sa, sb in zip(states[::2] + [ones], states[1::2] + [ones]):
        assert build_linear_system(sa, sb) == gf2.transpose(reference_linear_system(sa, sb))


def naive_orthogonality_entry(sa, sb, a, b, abits, bbits, cbits, dbits):
    """Entry (a, b) of S^T Q^T P S' evaluated with explicit loops."""
    n = sa.n
    total = 0
    for i in range(n):
        za = sa.s.row_ints[i] >> a & 1
        xa = sa.s.row_ints[n + i] >> a & 1
        zb = sb.s.row_ints[i] >> b & 1
        xb = sb.s.row_ints[n + i] >> b & 1
        ai = (abits >> i) & 1
        bi = (bbits >> i) & 1
        ci = (cbits >> i) & 1
        di = (dbits >> i) & 1
        # Q (za|xa) = (ai za + bi xa | ci za + di xa); pair through block swap
        total += (ai * za + bi * xa) * xb + (ci * za + di * xa) * zb
    return total % 2


def test_system_rows_match_naive_oracle():
    rng = random.Random(70)
    for _ in range(40):
        n = rng.randrange(1, 5)
        sa = random_stabilizer(n, rng.randrange(1000))
        sb = random_stabilizer(n, rng.randrange(1000))
        sys = gf2.transpose(build_linear_system(sa, sb))
        for _ in range(10):
            bits = rng.getrandbits(4 * n)
            for a in range(n):
                for b in range(n):
                    expected = naive_orthogonality_entry(
                        sa,
                        sb,
                        a,
                        b,
                        bits & ((1 << n) - 1),
                        (bits >> n) & ((1 << n) - 1),
                        (bits >> 2 * n) & ((1 << n) - 1),
                        (bits >> 3 * n) & ((1 << n) - 1),
                    )
                    assert (sys.row_ints[a * n + b] & bits).bit_count() & 1 == expected


def test_self_equivalence():
    rng = random.Random(71)
    for _ in range(20):
        g = random_graph(rng, rng.randrange(1, 6))
        result = decide_graphs(g, g)
        assert isinstance(result, Equivalent)
        s = stabilizer.from_graph(g)
        moved = stabilizer.StabilizerGenMatrix(clifford.apply_to_stabilizer(result.q, s))
        assert stabilizer.same_subspace(moved, s)


def test_edge_vs_empty_inequivalent():
    edge = graph_from_edges(2, [(1, 2)])
    empty = empty_graph(2)
    assert isinstance(decide_graphs(edge, empty), Inequivalent)
    assert empty not in orbit.enumerate_orbit(edge).members


def test_path_vs_triangle_equivalent():
    p3 = path_graph(3)
    k3 = complete_graph(3)
    result = decide_graphs(p3, k3)
    assert isinstance(result, Equivalent)
    assert apply_sequence(p3, LCSequence((Single(2),))) == k3


def test_witness_is_verified_and_sound():
    rng = random.Random(72)
    for _ in range(30):
        n = rng.randrange(2, 6)
        g = random_graph(rng, n)
        steps = tuple(Single(rng.randrange(1, n + 1)) for _ in range(rng.randrange(4)))
        h = apply_sequence(g, LCSequence(steps))
        result = decide_graphs(g, h)
        assert isinstance(result, Equivalent)
        moved = stabilizer.StabilizerGenMatrix(
            clifford.apply_to_stabilizer(result.q, stabilizer.from_graph(g))
        )
        assert stabilizer.same_subspace(moved, stabilizer.from_graph(h))


def test_verdict_symmetry():
    rng = random.Random(73)
    graphs_n4 = list(all_graphs(3))
    for _ in range(40):
        g = rng.choice(graphs_n4)
        h = rng.choice(graphs_n4)
        fwd = decide_graphs(g, h)
        back = decide_graphs(h, g)
        assert isinstance(fwd, Equivalent) == isinstance(back, Equivalent)
        assert isinstance(fwd, Inequivalent) == isinstance(back, Inequivalent)


def test_solver_matches_orbit_membership_n3():
    graphs_n3 = list(all_graphs(3))
    for g in graphs_n3:
        for h in graphs_n3:
            verdict = decide_graphs(g, h)
            assert isinstance(verdict, Equivalent) == (h in orbit.enumerate_orbit(g).members)


def test_solver_matches_orbit_membership_sampled_n5_n6():
    rng = random.Random(75)
    for n in (5, 6):
        for _ in range(8):
            g = random_graph(rng, n)
            # same orbit: a short random walk away
            h = g
            for _ in range(rng.randrange(1, 4)):
                h = graphs.local_complement(h, rng.randrange(1, n + 1))
            verdict = decide_graphs(g, h)
            assert isinstance(verdict, Equivalent) == (h in orbit.enumerate_orbit(g).members)
        for _ in range(8):
            g = random_graph(rng, n)
            h = random_graph(rng, n)
            verdict = decide_graphs(g, h)
            assert isinstance(verdict, Equivalent) == (h in orbit.enumerate_orbit(g).members)


def test_reported_witness_is_deterministic():
    p3 = path_graph(3)
    k3 = complete_graph(3)
    first = decide_graphs(p3, k3)
    second = decide_graphs(p3, k3)
    assert isinstance(first, Equivalent) and first.q == second.q


def test_decides_a_256_vertex_walk_pair():
    rng = random.Random(256)
    g = random_graph(rng, 256)
    h = _walk(g, rng, 3 * 256)
    result = decide_graphs(g, h)
    assert isinstance(result, Equivalent)
    moved = clifford.apply_to_stabilizer(result.q, stabilizer.from_graph(g))
    assert stabilizer.same_subspace(stabilizer.StabilizerGenMatrix(moved), stabilizer.from_graph(h))


def test_stabilizer_level_equivalence():
    # the same subspace under a basis change must come out equivalent
    rng = random.Random(74)
    s = random_stabilizer(4, 5)
    r = None
    while r is None or reference_try_invert(r) is None:
        r = gf2.BitMatrix(4, 4, [rng.getrandbits(4) for _ in range(4)])
    changed = basis_change(s, r)
    assert isinstance(decide(s, changed), Equivalent)


def test_qubit_count_mismatch():
    with pytest.raises(ValueError):
        decide(pauli_stab("Z"), pauli_stab("ZZ", "XX"))


def test_a_system_above_the_bound_is_refused(monkeypatch):
    monkeypatch.setattr(equivalence, "_MAX_SYSTEM_QUBITS", 4)
    assert isinstance(decide_graphs(path_graph(4), path_graph(4)), Equivalent)
    message = "the 20 x 25 equivalence system for 5 qubits exceeds the bound of 4 qubits"
    with pytest.raises(ValueError, match=message):
        decide_graphs(path_graph(5), path_graph(5))
    with pytest.raises(ValueError, match=message):
        build_linear_system(random_stabilizer(5, 1), random_stabilizer(5, 2))


def _same_verdict(got, want):
    """Bit-identical verdicts: the same type and, when equivalent, the same witness."""
    return type(got) is type(want) and (not isinstance(got, Equivalent) or got.q == want.q)


def _check_against_reference(sa, sb):
    assert _same_verdict(decide(sa, sb), reference_equivalence(sa, sb))


def test_matches_reference_on_all_4_vertex_pairs():
    states = [stabilizer.from_graph(g) for g in all_graphs(4)]
    for sa in states:
        for sb in states:
            _check_against_reference(sa, sb)


def test_matches_reference_on_seeded_stabilizer_pairs():
    rng = random.Random(76)
    for k in range(500):
        n = rng.randrange(1, 9)
        sa = random_stabilizer(n, rng.randrange(10**6))
        if k % 2:
            sb = random_stabilizer(n, rng.randrange(10**6))
        else:
            moved = clifford.apply_to_stabilizer(random_valid_clifford(rng, n), sa)
            sb = basis_change(
                stabilizer.StabilizerGenMatrix(moved), random_invertible(rng, n)
            )
        _check_against_reference(sa, sb)


def _walk(g, rng, steps):
    for _ in range(steps):
        g = graphs.local_complement(g, rng.randrange(1, g.n + 1))
    return g


def _union(parts):
    """The disjoint union of graphs, vertices numbered part by part."""
    rows, offset = [], 0
    for part in parts:
        rows += [r << offset for r in part.adj.row_ints]
        offset += part.n
    return Graph(gf2.BitMatrix(offset, offset, rows))


def test_matches_reference_on_large_blocks():
    # blocks of dimension 5 or more are searched over single vectors and pairwise
    # sums only; the exhaustive reference searches the whole space
    rng = random.Random(78)
    pairs = []
    for n in range(5, 13):
        for make in (star_graph, complete_graph):
            for k in range(3):
                g = make(n)
                pairs.append((g, _walk(g, rng, 2 * n), k == 2))
    for k in range(16):
        sizes = [rng.randrange(4, 8) for _ in range(2)]
        parts = [rng.choice((star_graph, complete_graph))(size) for size in sizes]
        g = _union(parts)
        if k % 4 == 3:
            parts[1] = path_graph(sizes[1])  # a path on 4+ vertices is not GHZ-like
        pairs.append((g, _walk(_union(parts), rng, 2 * g.n), k % 2 == 1))
    large = 0
    for g, h, scramble in pairs:
        sa, sb = stabilizer.from_graph(g), stabilizer.from_graph(h)
        if scramble:
            moved = clifford.apply_to_stabilizer(random_valid_clifford(rng, h.n), sb)
            sb = basis_change(
                stabilizer.StabilizerGenMatrix(moved), random_invertible(rng, h.n)
            )
        basis = gf2.solve_homogeneous(build_linear_system(sa, sb))
        large += sum(len(vectors) >= 5 for _, vectors in equivalence._blocks(basis, g.n))
        _check_against_reference(sa, sb)
    assert large >= 50


@pytest.mark.parametrize("d", range(1, 13))
def test_candidates_are_bounded_and_in_counter_order(d):
    vectors = [1 << k for k in range(d)]  # a candidate's bits are its coefficients, reversed
    got = list(equivalence._candidates(vectors))
    assert len(got) == (2**d - 1 if d <= 4 else d * (d + 1) // 2) <= max(15, d * (d + 1) // 2)
    counters = [int(format(y, f"0{d}b")[::-1], 2) for y in got]
    assert counters == sorted(set(counters))
    assert all(t.bit_count() <= (d if d <= 4 else 2) for t in counters)


def _support(v, n):
    return (v | v >> n | v >> 2 * n | v >> 3 * n) & ((1 << n) - 1)


def test_blocks_are_the_components_of_overlapping_supports():
    rng = random.Random(77)
    for _ in range(300):
        n = rng.randrange(1, 9)
        basis = []
        for _ in range(rng.randrange(7)):
            u = rng.getrandbits(n)
            v = rng.getrandbits(4 * n) & (u | u << n | u << 2 * n | u << 3 * n)
            if v:
                basis.append(v)
        blocks = equivalence._blocks(basis, n)
        assert sorted(v for _, vs in blocks for v in vs) == sorted(basis)
        for k, (support, vectors) in enumerate(blocks):
            # basis order inside the block, disjoint from every other block
            assert [v for v in basis if v in vectors] == vectors
            union = 0
            for v in vectors:
                union |= _support(v, n)
            assert support == union
            assert not any(support & other for j, (other, _) in enumerate(blocks) if j != k)
            # and connected: growing from the first vector reaches them all
            reached, grown = _support(vectors[0], n), True
            while grown:
                grown = False
                for v in vectors:
                    if _support(v, n) & reached and _support(v, n) & ~reached:
                        reached |= _support(v, n)
                        grown = True
            assert reached == support


def _scrambled(rng, s):
    return basis_change(s, random_invertible(rng, s.n))


def _has_distinct_highest_bits(stab):
    tops = [g.bit_length() for g in gf2.transpose(stab.s).row_ints]
    return 0 not in tops and len(set(tops)) == len(tops)


def _seeded_pairs(rng, count, max_n):
    """Valid pairs n <= max_n: half of them equivalent through a random operation."""
    for k in range(count):
        n = rng.randrange(1, max_n + 1)
        sa = random_stabilizer(n, rng.randrange(10**6))
        if k % 2:
            sb = random_stabilizer(n, rng.randrange(10**6))
        else:
            sb = stabilizer.StabilizerGenMatrix(
                clifford.apply_to_stabilizer(random_valid_clifford(rng, n), sa)
            )
        yield sa, sb


def test_a_change_of_generator_basis_changes_neither_verdict_nor_witness():
    # S -> S.R mixes the equations of the system invertibly: same null space,
    # same reduced basis, same search and the same witness bytes
    rng = random.Random(79)
    verdicts = set()
    for sa, sb in _seeded_pairs(rng, 300, 12):
        want = decide(sa, sb)
        assert _same_verdict(decide(_scrambled(rng, sa), _scrambled(rng, sb)), want)
        verdicts.add(type(want))
    assert verdicts == {Equivalent, Inequivalent}


def test_the_echelon_basis_gives_the_null_basis_of_the_system_as_written():
    rng = random.Random(80)
    scrambled = 0
    for sa, sb in _seeded_pairs(rng, 200, 12):
        sa, sb = _scrambled(rng, sa), _scrambled(rng, sb)
        ea, eb = equivalence._echelon(sa), equivalence._echelon(sb)
        assert _has_distinct_highest_bits(ea) and _has_distinct_highest_bits(eb)
        assert stabilizer.same_subspace(ea, sa) and stabilizer.same_subspace(eb, sb)
        as_written = gf2.solve_homogeneous(build_linear_system(sa, sb))
        assert gf2.solve_homogeneous(build_linear_system(ea, eb)) == as_written
        scrambled += (ea is not sa) + (eb is not sb)
    assert scrambled >= 300


def test_graph_and_parsed_states_reach_the_build_unchanged(monkeypatch):
    rng = random.Random(81)
    states = [stabilizer.from_graph(random_graph(rng, n)) for n in (1, 2, 5, 16, 33)]
    for n in (1, 2, 5, 16, 33):
        s = _scrambled(rng, random_stabilizer(n, n))
        texts = (stabilizer.format_stabilizer(s), gf2.format_matrix(s.s))
        states += [cli._parse_state(text) for text in texts]
    assert all(_has_distinct_highest_bits(s) for s in states)
    seen, real = [], equivalence.build_linear_system
    monkeypatch.setattr(equivalence, "build_linear_system", lambda *st: seen.append(st) or real(*st))
    for s in states:
        assert equivalence._echelon(s) is s  # the scan passes: no elimination, no transpose
        assert isinstance(decide(s, s), Equivalent)
        (sa, sb), = seen
        assert sa is s and sb is s
        seen.clear()
