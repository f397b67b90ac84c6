"""Command-line front end: exit codes, artifacts, round-trips, error reporting."""

import json
import os
import random
import resource
import subprocess
import sys
import tracemalloc

import pytest

import test_pinned_outputs
from conftest import (
    complete_graph,
    compose,
    empty_graph,
    graph_from_edges,
    hadamard_all_op,
    identity_op,
    local_complement_op,
    op_from_qubit_blocks,
    outcome,
    path_graph,
    random_graph,
    random_in_domain_op,
    random_stabilizer,
    reference_graph_action,
    star_graph,
)
from dense_oracle import (
    apply_lifted,
    build_graph_state,
    lift_local_clifford,
    stabilized_state,
    stabilized_up_to_signs,
)
from stabgraph import cli, clifford, decomposition, equivalence, gf2, graphs, orbit, reduction
from stabgraph import stabilizer
from stabgraph.errors import MAX_QUBITS, ParseError


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def graph_file(tmp_path, name, g):
    return write(tmp_path, name, graphs.format_edge_list(g))


def test_usage_errors(capsys):
    assert cli.run([]) == cli.EXIT_USAGE
    assert cli.run(["no-such-command"]) == cli.EXIT_USAGE
    assert cli.run(["orbit"]) == cli.EXIT_USAGE
    assert "error: usage:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["-h"], ["reduce", "-h"]], ids=["top", "command"])
def test_help_returns_zero_and_prints_only_to_stdout(capsys, argv):
    assert cli.run(argv) == cli.EXIT_OK
    out, err = capsys.readouterr()
    assert out.startswith("usage: stabgraph") and err == ""


def test_installed_help_exits_zero():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    out = subprocess.run(
        [sys.executable, "-m", "stabgraph.cli", "--help"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stderr) == (0, "")
    assert out.stdout.startswith("usage: stabgraph")


def _ghz_walk():
    """star_graph(32) after a seeded 64-move local complementation walk."""
    g = star_graph(32)
    rng = random.Random(3)
    for _ in range(64):
        g = graphs.local_complement(g, rng.randrange(1, 33))
    return g


def _contract_argv(tmp_path, row):
    k3 = graph_file(tmp_path, "k3.graph", complete_graph(3))
    star = graph_file(tmp_path, "star32.graph", star_graph(32))
    walk = graph_file(tmp_path, "walk32.graph", _ghz_walk())
    empty9 = graph_file(tmp_path, "empty9.graph", empty_graph(9))
    edge9 = graph_file(tmp_path, "edge9.graph", graph_from_edges(9, [(1, 2)]))
    empty3 = graph_file(tmp_path, "empty3.graph", empty_graph(3))
    hadamards = clifford.format_clifford(hadamard_all_op(3))
    hadamards = write(tmp_path, "h.lc", hadamards)
    edge2 = graph_file(tmp_path, "edge2.graph", graph_from_edges(2, [(1, 2)]))
    shear = op_from_qubit_blocks([(1, 1, 0, 1), (1, 0, 0, 1)])
    shear = write(tmp_path, "shear.lc", clifford.format_clifford(shear))
    huge = write(tmp_path, "huge.graph", "1000000000000\n")
    edgeless2048 = write(tmp_path, "edgeless2048.graph", "2048\n")
    witness = ["--witness", str(tmp_path / "w.lc")]
    return {
        "canon": ["canon", k3],
        "equiv-ghz-32": ["equiv", star, walk, *witness],
        "equiv-empty-vs-edge-9": ["equiv", empty9, edge9, *witness],
        "no-command": [],
        "equiv-cap": ["equiv", star, walk, *witness, "--cap", "5"],
        "graph-header-too-large": ["canon", huge],
        "equiv-above-the-system-bound": ["equiv", edgeless2048, edgeless2048, *witness],
        "missing-file": ["equiv", str(tmp_path / "nope.graph"), k3],
        "orbit-over-cap": ["orbit", k3, "--cap", "2"],
        "decompose-out-of-domain": ["decompose", hadamards, empty3],
        "decompose-nonzero-diagonal": ["decompose", shear, edge2],
        "oracle-check-removed": ["oracle-check", k3],
    }[row]


EXIT_CONTRACT = [
    ("canon", cli.EXIT_OK),
    ("equiv-ghz-32", cli.EXIT_OK),
    ("equiv-empty-vs-edge-9", cli.EXIT_INEQUIVALENT),
    ("no-command", cli.EXIT_USAGE),
    ("equiv-cap", cli.EXIT_USAGE),
    ("graph-header-too-large", cli.EXIT_PARSE),
    ("equiv-above-the-system-bound", cli.EXIT_FAILURE),
    ("missing-file", cli.EXIT_PARSE),
    ("orbit-over-cap", cli.EXIT_FAILURE),
    ("decompose-out-of-domain", cli.EXIT_FAILURE),
    ("decompose-nonzero-diagonal", cli.EXIT_FAILURE),
    ("oracle-check-removed", cli.EXIT_USAGE),
]


def test_exit_code_contract_covers_every_code():
    assert {code for _, code in EXIT_CONTRACT} == {0, 1, 64, 65, 70}
    assert not hasattr(cli, "EXIT_INDETERMINATE")


@pytest.mark.parametrize("row, code", EXIT_CONTRACT, ids=[row for row, _ in EXIT_CONTRACT])
def test_exit_code_contract(tmp_path, capsys, row, code):
    got = cli.run(_contract_argv(tmp_path, row))
    assert got != 2
    assert got == code
    assert bool(capsys.readouterr().err) == (code >= cli.EXIT_USAGE)


def test_equiv_decides_the_32_qubit_ghz_pair_with_a_witness(tmp_path, capsys):
    first, second = stabilizer.from_graph(star_graph(32)), stabilizer.from_graph(_ghz_walk())
    witness = tmp_path / "w.lc"
    argv = ["equiv", graph_file(tmp_path, "a.graph", star_graph(32))]
    argv += [graph_file(tmp_path, "b.graph", _ghz_walk()), "--witness", str(witness)]
    assert cli.run(argv) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "equivalent"
    moved = clifford.apply_to_stabilizer(clifford.parse_clifford(witness.read_text()), first)
    assert stabilizer.same_subspace(stabilizer.StabilizerGenMatrix(moved), second)


POSITIONALS = {
    "reduce": 1,
    "decompose": 2,
    "apply": 2,
    "orbit": 1,
    "canon": 1,
    "equiv": 2,
    "export-dot": 1,
}
KEPT_FLAGS = {
    "reduce": {"verify", "quiet"},
    "decompose": {"verify", "quiet"},
    "apply": {"verify", "quiet"},
    "orbit": {"cap", "verify", "quiet"},
    "canon": {"cap", "quiet"},
    "equiv": {"verify", "quiet"},
    "export-dot": {"quiet"},
}
FLAG_ARGV = {
    "cap": ["--cap", "3"],
    "seed": ["--seed", "5"],
    "verify": ["--verify"],
    "quiet": ["--quiet"],
}
FLAG_VALUE = {"cap": 3, "verify": True, "quiet": True}


@pytest.mark.parametrize("command", sorted(POSITIONALS))
@pytest.mark.parametrize("flag", sorted(FLAG_ARGV))
def test_each_command_accepts_only_the_flags_it_reads(command, flag, capsys):
    argv = [command] + [f"in{k}.txt" for k in range(POSITIONALS[command])] + FLAG_ARGV[flag]
    if flag in KEPT_FLAGS[command]:
        assert getattr(cli._build_parser().parse_args(argv), flag) == FLAG_VALUE[flag]
    else:
        assert cli.run(argv) == cli.EXIT_USAGE
        assert "unrecognized arguments: --" + flag in capsys.readouterr().err


@pytest.mark.parametrize("exc", [RuntimeError("boom\non two lines"), MemoryError()])
def test_unexpected_exception_is_internal_error(tmp_path, capsys, monkeypatch, exc):
    def explode(text):
        raise exc

    path = graph_file(tmp_path, "k3.graph", complete_graph(3))
    monkeypatch.setattr(graphs, "parse_edge_list", explode)
    assert cli.run(["canon", path]) == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith(f"error: internal: {type(exc).__name__}:")
    assert err.count("\n") == 1


# blocks numpy, then runs each command line given as JSON and prints the exit codes
NO_NUMPY_PROBE = """
import json, sys
sys.modules["numpy"] = None
import stabgraph, stabgraph.cli
print(json.dumps([stabgraph.cli.run(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_cli_import_does_not_load_numpy(tmp_path):
    g = path_graph(4)
    gpath = graph_file(tmp_path, "g.graph", g)
    stab = write(tmp_path, "g.stab", stabilizer.format_stabilizer(stabilizer.from_graph(g)))
    op = write(tmp_path, "op.lc", clifford.format_clifford(local_complement_op(g, 2)))
    steps = write(tmp_path, "steps.lcs", "g 2\n")
    argvs = {
        "reduce": ["reduce", stab],
        "decompose": ["decompose", op, gpath],
        "apply": ["apply", gpath, steps],
        "orbit": ["orbit", gpath],
        "canon": ["canon", gpath],
        "equiv": ["equiv", stab, gpath, "--witness", str(tmp_path / "w.lc")],
        "export-dot": ["export-dot", gpath],
    }
    assert sorted(argvs) == sorted(POSITIONALS)
    for command, argv in argvs.items():
        argv += ["--verify", "--quiet"] if "verify" in KEPT_FLAGS[command] else ["--quiet"]
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    probe = [sys.executable, "-c", NO_NUMPY_PROBE, json.dumps(list(argvs.values()))]
    out = subprocess.run(probe, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    codes = dict(zip(argvs, json.loads(out.stdout)))
    assert all(code in (cli.EXIT_OK, cli.EXIT_INEQUIVALENT) for code in codes.values()), codes


def test_cli_import_does_not_load_the_test_generators():
    """The package never imports random, dataclasses or inspect.

    The seeded generators live in tests/conftest.py, and the result records
    are ``__slots__`` classes: ``dataclasses`` would bring ``inspect``, ``ast``
    and ``dis`` into every command's start-up. ``-S`` skips ``site``, which may
    import random itself; without it, none of the standard modules the package
    imports loads any of the three.
    """
    src = os.path.dirname(os.path.dirname(cli.__file__))
    # exits 1 and prints the names on stderr if any of them was loaded
    probe = "import sys, stabgraph.cli; sys.exit(sorted(set(sys.argv[1:]) & set(sys.modules)) or 0)"
    out = subprocess.run(
        [sys.executable, "-S", "-c", probe, "random", "dataclasses", "inspect"],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stderr) == (0, "")


def test_parse_error_exit_code(tmp_path, capsys):
    bad = write(tmp_path, "bad.graph", "3\n2 1\n")
    assert cli.run(["orbit", bad]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith("error: parse:")
    assert "line 2" in err


@pytest.mark.parametrize(
    "command, name, text",
    [
        ("canon", "huge.graph", "1000000000000\n"),
        ("decompose", "huge.lc", "1000000000000\n"),
        ("reduce", "huge.stab", "2000000000000 1000000000000\n"),
        ("reduce", "long.stab", "X" * (MAX_QUBITS + 1) + "\n"),
        ("reduce", "empty.stab", "0 0\n"),
    ],
    ids=["graph", "clifford", "matrix", "pauli", "zero-qubits"],
)
def test_counts_out_of_range_are_parse_errors(tmp_path, capsys, command, name, text):
    # a header is checked against MAX_QUBITS before anything sized by it is allocated
    path = write(tmp_path, name, text)
    argv = [command, path]
    if command == "decompose":
        argv.append(graph_file(tmp_path, "g.graph", path_graph(3)))
    assert cli.run(argv) == cli.EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"error: parse: {path}: line 1: ")


@pytest.mark.parametrize(
    "command, name, text, line",
    [
        ("export-dot", "count.graph", "1_0\n1 2\n", 1),
        ("canon", "count.graph", "\u0663\n1 2\n", 1),
        ("canon", "edge.graph", "3\n1 +3\n", 2),
        ("apply", "step.lcs", "g 1_0\n", 1),
        ("decompose", "count.lc", "0_1\n1 0 0 1\n", 1),
        ("reduce", "count.stab", "\u0662 1\n0\n1\n", 1),
    ],
    ids=["graph-count", "graph-count-non-ascii", "edge-sign", "step", "clifford-count", "matrix"],
)
def test_counts_and_vertex_ids_are_ascii_digits_only(tmp_path, capsys, command, name, text, line):
    # int() alone also takes "_" between digits, a sign and non-ASCII digits
    path = write(tmp_path, name, text)
    single = graph_file(tmp_path, "single.graph", empty_graph(1))
    argv = {
        "apply": ["apply", single, path],
        "decompose": ["decompose", path, single],
    }.get(command, [command, path])
    assert cli.run(argv + ["--quiet"]) == cli.EXIT_PARSE
    assert capsys.readouterr().err.startswith(f"error: parse: {path}: line {line}")


def test_missing_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.graph")
    for command, count in sorted(POSITIONALS.items()):
        assert cli.run([command] + [missing] * count) == cli.EXIT_PARSE, command
        err = capsys.readouterr().err
        assert err.startswith("error: parse:"), command
        assert err.count(missing) == 1, (command, err)


@pytest.mark.parametrize("command", sorted(POSITIONALS))
def test_undecodable_input_is_a_parse_error(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"3\n1 \xff\n")
    assert cli.run([command] + [str(bad)] * POSITIONALS[command]) == cli.EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: parse: {bad}: 'utf-8' codec can't decode byte 0xff "), err


def _unwritable_argv(tmp_path, command, out):
    g = path_graph(3)
    gpath = graph_file(tmp_path, "g.graph", g)
    op = write(tmp_path, "op.lc", clifford.format_clifford(local_complement_op(g, 2)))
    return {
        "reduce": ["reduce", write(tmp_path, "g.stab", "ZII\nIZI\nIIZ\n"), "--out-graph", out],
        "decompose": ["decompose", op, gpath, "--out", out],
        "apply": ["apply", gpath, write(tmp_path, "steps.lcs", "g 2\n"), "--out", out],
        "orbit": ["orbit", gpath, "--members", out],
        "canon": ["canon", gpath, "--out", out],
        "equiv": ["equiv", gpath, gpath, "--witness", out],
        "export-dot": ["export-dot", gpath, "--out", out],
    }[command]


@pytest.mark.parametrize("command", sorted(POSITIONALS))
def test_unwritable_output_is_a_failure_not_internal(tmp_path, capsys, command):
    out = str(tmp_path / "missing" / "out.txt")
    assert cli.run(_unwritable_argv(tmp_path, command, out)) == cli.EXIT_FAILURE
    err = capsys.readouterr().err
    assert err.startswith(f"error: failed: cannot write {out}: "), err
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["orbit", "canon"])
@pytest.mark.parametrize("cap", ["0", "-1", "x", "\u0663"])
def test_cap_below_one_is_a_usage_error(tmp_path, capsys, command, cap):
    path = graph_file(tmp_path, "single.graph", empty_graph(1))
    assert cli.run([command, path, "--cap", cap]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err == f"error: usage: argument --cap: expected an integer >= 1, got '{cap}'\n"
    assert cli.run([command, path, "--cap", "1", "--quiet"]) == cli.EXIT_OK


def test_orbit_command(tmp_path, capsys):
    path = graph_file(tmp_path, "empty4.graph", empty_graph(4))
    assert cli.run(["orbit", path]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "1 member" in out

    k3 = graph_file(tmp_path, "k3.graph", complete_graph(3))
    members = str(tmp_path / "members.txt")
    dot = str(tmp_path / "members.dot")
    assert cli.run(["orbit", k3, "--members", members, "--dot", dot, "--verify"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert "4 members" in out
    assert "check: ok" in out
    assert (tmp_path / "members.txt").read_text().count("--") == 4
    assert (tmp_path / "members.dot").read_text().count("graph G {") == 4


def test_orbit_quiet_never_reads_the_canonical_representative(tmp_path, capsys, monkeypatch):
    path = graph_file(tmp_path, "path4.graph", path_graph(4))
    assert cli.run(["orbit", path]) == cli.EXIT_OK
    out = "11 members\ncanonical representative:\n4\n1 3\n1 4\n2 3\n2 4\n"
    assert capsys.readouterr().out == out

    def refuse(g):
        raise AssertionError("orbit --quiet computed the canonical representative")

    monkeypatch.setattr(orbit, "_row_order", refuse)
    assert cli.run(["orbit", path, "--quiet", "--verify"]) == cli.EXIT_OK
    assert capsys.readouterr() == ("", "")


def test_orbit_cap(tmp_path, capsys):
    k3 = graph_file(tmp_path, "k3.graph", complete_graph(3))
    assert cli.run(["orbit", k3, "--cap", "2"]) == cli.EXIT_FAILURE
    assert "error: cap:" in capsys.readouterr().err


def test_canon_of_a_large_edgeless_graph_reads_no_single_entries(tmp_path, capsys, monkeypatch):
    # no vertex has two neighbours, so the orbit search makes no complementation at all,
    # and a one-member orbit needs no row comparison: n = 3000 stays cheap
    def refuse(g, i):
        raise AssertionError(f"complemented at vertex {i} of degree < 2")

    monkeypatch.setattr(graphs, "local_complement", refuse)
    path = write(tmp_path, "empty.graph", "3000\n")
    assert cli.run(["canon", path]) == cli.EXIT_OK
    assert capsys.readouterr().out == "3000\n"
    assert cli.run(["orbit", path]) == cli.EXIT_OK
    assert capsys.readouterr().out == "1 member\ncanonical representative:\n3000\n"


def test_canon_of_a_16000_vertex_edgeless_graph_fits_in_100_mb(tmp_path):
    # the graph alone is 16000 small row ints; a key of n^2/2 digits per member would not fit
    path = write(tmp_path, "edgeless.graph", "16000\n")
    limit = 100 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    argv = [sys.executable, "-m", "stabgraph.cli", "canon", path, "--quiet"]
    out = subprocess.run(
        argv, env=env, capture_output=True, text=True, preexec_fn=cap_address_space
    )
    assert (out.returncode, out.stderr) == (cli.EXIT_OK, "")


def test_canon_command(tmp_path, capsys):
    k3 = graph_file(tmp_path, "k3.graph", complete_graph(3))
    assert cli.run(["canon", k3]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "3"
    out_path = str(tmp_path / "canon.graph")
    assert cli.run(["canon", k3, "--out", out_path, "--quiet"]) == cli.EXIT_OK
    assert graphs.parse_edge_list((tmp_path / "canon.graph").read_text()).n == 3


def test_reduce_command(tmp_path, capsys):
    stab_path = write(tmp_path, "zeros3.stab", "ZII\nIZI\nIIZ\n")
    assert cli.run(["reduce", stab_path, "--verify"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "check: ok"
    g = graphs.parse_edge_list((tmp_path / "zeros3.graph").read_text())
    assert g == empty_graph(3)
    q = clifford.parse_clifford((tmp_path / "zeros3.lc").read_text())
    assert q == hadamard_all_op(3)
    r = gf2.parse_matrix((tmp_path / "zeros3.basis").read_text())
    assert r == gf2.identity(3)


def test_reduce_accepts_matrix_block(tmp_path):
    s = stabilizer.from_graph(path_graph(3))
    stab_path = write(tmp_path, "path3.stab", gf2.format_matrix(s.s))
    assert cli.run(["reduce", stab_path, "--quiet"]) == cli.EXIT_OK
    g = graphs.parse_edge_list((tmp_path / "path3.graph").read_text())
    assert g == path_graph(3)


def test_reduce_accepts_exactly_what_the_constructor_accepts(tmp_path, capsys, monkeypatch):
    """reduce validates through its witness; on the 500 matrices of the pinned
    stabilizer verdicts, written as matrix blocks, it agrees with the constructor."""
    matrices = []

    def record(s):
        matrices.append(s)
        return stabilizer.StabilizerGenMatrix(s)

    monkeypatch.setattr(test_pinned_outputs, "StabilizerGenMatrix", record)
    verdicts = list(test_pinned_outputs.stabilizer_verdicts())
    monkeypatch.undo()
    assert len(matrices) == len(verdicts) == 500
    assert "ok" in verdicts and any(v != "ok" for v in verdicts)
    path = tmp_path / "s.stab"
    for s, verdict in zip(matrices, verdicts):
        path.write_text(gf2.format_matrix(s))
        code = cli.run(["reduce", str(path), "--quiet", "--verify"])
        err = capsys.readouterr().err
        if verdict == "ok":
            assert code == cli.EXIT_OK, err
        else:  # "<error type>: <message>"
            message = verdict.split(": ", 1)[1]
            assert code == cli.EXIT_PARSE
            assert err == f"error: parse: {path}: line 1: not a valid stabilizer matrix: {message}\n"


def test_decompose_and_apply_roundtrip(tmp_path, capsys):
    g = path_graph(4)
    gpath = graph_file(tmp_path, "path4.graph", g)
    q = local_complement_op(g, 2)
    qpath = write(tmp_path, "op.lc", clifford.format_clifford(q))
    seq_path = str(tmp_path / "steps.lcs")
    assert cli.run(["decompose", qpath, gpath, "--out", seq_path, "--verify"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "check: ok"

    out_path = str(tmp_path / "applied.graph")
    assert cli.run(["apply", gpath, seq_path, "--out", out_path, "--verify"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "check: ok"
    applied = graphs.parse_edge_list((tmp_path / "applied.graph").read_text())
    assert applied == graphs.local_complement(g, 2)


def test_apply_verify_catches_wrong_edge_toggling(tmp_path, capsys, monkeypatch):
    # apply and the replay toggle edges with the same row step; the replay's check does not
    gpath = graph_file(tmp_path, "path4.graph", path_graph(4))
    seq_path = write(tmp_path, "steps.lcs", "g 2\n")
    monkeypatch.setattr(graphs, "_complement_rows", lambda rows, idx: None)
    assert cli.run(["apply", gpath, seq_path, "--verify", "--quiet"]) == cli.EXIT_FAILURE
    assert "error: failed: check failed: symplectic replay" in capsys.readouterr().err


def _verify_inputs(tmp_path, command, g):
    """argv for ``command --verify`` on inputs built from g."""
    gpath = graph_file(tmp_path, "g.graph", g)
    if command == "reduce":
        stab = stabilizer.format_stabilizer(stabilizer.from_graph(g))
        return ["reduce", write(tmp_path, "g.stab", stab), "--verify"]
    if command == "decompose":
        qpath = write(tmp_path, "op.lc", clifford.format_clifford(local_complement_op(g, 2)))
        return ["decompose", qpath, gpath, "--verify"]
    if command == "apply":
        return ["apply", gpath, write(tmp_path, "steps.lcs", "g 2\n"), "--verify"]
    return ["equiv", gpath, gpath, "--witness", str(tmp_path / "w.lc"), "--verify"]


def _swap_zx(q):
    """q followed by a Hadamard on every qubit: its Z and X rows swapped."""
    return clifford.LocalCliffordOp(q.c, q.d, q.a, q.b)


def _break_result(monkeypatch, command, g):
    """Make the library hand ``command`` a wrong witness, sequence or graph."""
    wrong = hadamard_all_op(g.n)
    if command == "reduce":
        right = reduction._reduce_columns  # what reduce calls, on the generators as rows
        monkeypatch.setattr(
            reduction, "_reduce_columns", lambda s: reduction.ReductionWitness(g, wrong, right(s).r)
        )
    elif command == "decompose":
        # complementing at 3 instead of 2 reaches another graph
        wrong_seq = decomposition.LCSequence((decomposition.Single(3),))
        monkeypatch.setattr(decomposition, "decompose_action", lambda q, h: wrong_seq)
    elif command == "apply":
        monkeypatch.setattr(decomposition, "apply_sequence", lambda h, seq: h)
    else:
        monkeypatch.setattr(equivalence, "test_equivalence", lambda a, b: equivalence.Equivalent(wrong))


def _break_writer(monkeypatch, command):
    """Make the writer of ``command``'s checked output write other, well-formed bits."""
    module, name, alter = {
        "reduce": (clifford, "format_clifford", _swap_zx),
        "decompose": (
            decomposition,
            "format_sequence",
            lambda seq: decomposition.LCSequence(seq.steps + (decomposition.Single(2),)),
        ),
        "apply": (graphs, "format_edge_list", lambda h: empty_graph(h.n)),
        "equiv": (clifford, "format_clifford", _swap_zx),
    }[command]
    right = getattr(module, name)
    monkeypatch.setattr(module, name, lambda value: right(alter(value)))


@pytest.mark.parametrize("fault", ["result", "writer"])
@pytest.mark.parametrize("n", [4, 13, 64])
@pytest.mark.parametrize(
    "command, failure",
    [
        ("reduce", "witness does not map onto the graph state"),
        ("decompose", "sequence misses the image of the graph action"),
        ("apply", "symplectic replay disagrees with edge toggling"),
        ("equiv", "witness does not connect the states"),
    ],
    ids=["reduce", "decompose", "apply", "equiv"],
)
def test_verify_catches_a_wrong_result(tmp_path, capsys, monkeypatch, command, failure, n, fault):
    g = path_graph(n)
    argv = _verify_inputs(tmp_path, command, g)
    if fault == "result":
        _break_result(monkeypatch, command, g)
    else:
        _break_writer(monkeypatch, command)
    assert cli.run(argv) == cli.EXIT_FAILURE
    captured = capsys.readouterr()
    assert captured.err == f"error: failed: check failed: {failure}\n"
    assert "check: ok" not in captured.out


def _walk_inputs(tmp_path, n, seed):
    """Files for a seeded G(n, 1/2), n random single steps and the operation they compose to."""
    rng = random.Random(seed)
    g = random_graph(rng, n)
    q, cur, steps = identity_op(n), g, []
    for _ in range(n):
        v = rng.randrange(1, n + 1)
        q, cur = compose(local_complement_op(cur, v), q), graphs.local_complement(cur, v)
        steps.append(f"g {v}\n")
    return (
        graph_file(tmp_path, "g.graph", g),
        write(tmp_path, "steps.lcs", "".join(steps)),
        write(tmp_path, "op.lc", clifford.format_clifford(q)),
    )


def _drop_highest_neighbour(monkeypatch):
    right = graphs._complement_rows

    def step(rows, idx):  # complements the neighbourhood without its highest vertex
        nb = rows[idx]
        rows[idx] = nb ^ (1 << nb.bit_length() >> 1)
        right(rows, idx)
        rows[idx] = nb

    monkeypatch.setattr(graphs, "_complement_rows", step)


def _drop_the_a_update(monkeypatch):
    right = decomposition._step
    monkeypatch.setattr(decomposition, "_step", lambda rows, a, *bcd: (a, *right(rows, a, *bcd)[1:]))


@pytest.mark.parametrize("n", [4, 13, 64])
@pytest.mark.parametrize("mutant", [_drop_highest_neighbour, _drop_the_a_update])
def test_a_broken_row_step_fails_the_replay_check(tmp_path, capsys, monkeypatch, mutant, n):
    # the walk and the command share the broken step; the one graph action does not
    gpath, seq_path, qpath = _walk_inputs(tmp_path, n, seed=1)
    mutant(monkeypatch)
    assert cli.run(["apply", gpath, seq_path, "--verify"]) == cli.EXIT_FAILURE
    captured = capsys.readouterr()
    failure = "symplectic replay disagrees with edge toggling"
    assert captured.err == f"error: failed: check failed: {failure}\n"
    assert cli.run(["decompose", qpath, gpath, "--verify"]) == cli.EXIT_FAILURE
    assert "check: ok" not in capsys.readouterr().out


def test_the_replay_makes_one_product_per_check(tmp_path, monkeypatch):
    gpath, seq_path, qpath = _walk_inputs(tmp_path, 64, seed=64)
    products, actions = [], []
    for owner, name, calls in ((gf2, "mat_mul", products), (clifford, "graph_action", actions)):
        right = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args, _f=right, _c=calls: _c.append(1) or _f(*args))
    assert cli.run(["apply", gpath, seq_path, "--verify", "--quiet"]) == cli.EXIT_OK
    assert len(products) == 1
    products.clear()
    assert cli.run(["decompose", qpath, gpath, "--verify", "--quiet"]) == cli.EXIT_OK
    assert len(products) == 2  # the replay's check and the check of the image it walked to
    assert actions == []


def test_cli_outputs_hold_on_the_dense_oracle(tmp_path):
    """reduce, decompose and equiv outputs, read back from their files, lifted onto statevectors."""
    rng = random.Random(77)
    witness = str(tmp_path / "w.lc")
    for trial in range(16):
        n = 1 + trial % 8
        s = random_stabilizer(n, 300 + trial)
        stab_path = write(tmp_path, "s.stab", stabilizer.format_stabilizer(s))
        assert cli.run(["reduce", stab_path, "--quiet"]) == cli.EXIT_OK
        reduced = graphs.parse_edge_list((tmp_path / "s.graph").read_text())
        q = clifford.parse_clifford((tmp_path / "s.lc").read_text())
        moved = apply_lifted(stabilized_state(s, seed=trial), lift_local_clifford(q))
        assert stabilized_up_to_signs(moved, stabilizer.from_graph(reduced))

        g = random_graph(rng, n)
        op = random_in_domain_op(rng, g)
        gpath = graph_file(tmp_path, "g.graph", g)
        qpath = write(tmp_path, "op.lc", clifford.format_clifford(op))
        seq_path = str(tmp_path / "g.lcs")
        assert cli.run(["decompose", qpath, gpath, "--out", seq_path, "--quiet"]) == cli.EXIT_OK
        seq = decomposition.parse_sequence((tmp_path / "g.lcs").read_text())
        image = reference_graph_action(op, g)
        state, cur = build_graph_state(g), g
        for v in seq.expand():
            state = apply_lifted(state, lift_local_clifford(local_complement_op(cur, v)))
            cur = graphs.local_complement(cur, v)
        assert stabilized_up_to_signs(state, stabilizer.from_graph(image))

        ipath = graph_file(tmp_path, "image.graph", image)
        pairs = [
            (gpath, ipath, build_graph_state(g), image),
            (stab_path, str(tmp_path / "s.graph"), stabilized_state(s, seed=trial), reduced),
        ]
        for first, second, state, target in pairs:
            assert cli.run(["equiv", first, second, "--witness", witness, "--quiet"]) == cli.EXIT_OK
            q = clifford.parse_clifford((tmp_path / "w.lc").read_text())
            moved = apply_lifted(state, lift_local_clifford(q))
            assert stabilized_up_to_signs(moved, stabilizer.from_graph(target))


def test_decompose_domain_failure(tmp_path, capsys):
    # each way out of the graph action's domain names its own condition
    for row, detail in [
        ("decompose-out-of-domain", "C.adj + D is singular"),
        ("decompose-nonzero-diagonal", "the transformed matrix has a nonzero diagonal"),
    ]:
        assert cli.run(_contract_argv(tmp_path, row)) == cli.EXIT_FAILURE
        err = capsys.readouterr().err
        assert err == f"error: domain: graph not in the operation's domain: {detail}\n"


def test_equiv_refuses_a_system_above_the_bound(tmp_path, capsys):
    # 2048 qubits would need an 8192 x 4194304-bit system (4 GiB): refused before it is built
    argv = _contract_argv(tmp_path, "equiv-above-the-system-bound")
    assert cli.run(argv) == cli.EXIT_FAILURE
    assert capsys.readouterr().err == (
        "error: invalid: the 8192 x 4194304 equivalence system for 2048 qubits"
        " exceeds the bound of 1024 qubits\n"
    )
    assert not (tmp_path / "w.lc").exists()


def test_equiv_graphs(tmp_path, capsys):
    p3 = graph_file(tmp_path, "path3.graph", path_graph(3))
    k3 = graph_file(tmp_path, "triangle.graph", complete_graph(3))
    witness = str(tmp_path / "w.lc")
    assert cli.run(["equiv", p3, k3, "--witness", witness, "--verify"]) == cli.EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "equivalent"
    assert out.splitlines()[-1] == "check: ok"
    q = clifford.parse_clifford((tmp_path / "w.lc").read_text())
    assert q.n == 3


def test_equiv_inequivalent(tmp_path, capsys):
    edge = graph_file(tmp_path, "edge.graph", graph_from_edges(2, [(1, 2)]))
    empty = graph_file(tmp_path, "empty.graph", empty_graph(2))
    assert cli.run(["equiv", edge, empty]) == cli.EXIT_INEQUIVALENT
    assert capsys.readouterr().out.splitlines()[0] == "inequivalent"


def test_equiv_product_states_decided_block_by_block(tmp_path, capsys):
    # the solution space has dimension 25, too large to search as a whole; it
    # splits into one block per qubit, and qubit 1's block has no valid vector
    empty = graph_file(tmp_path, "empty.graph", empty_graph(9))
    edge = graph_file(tmp_path, "edge.graph", graph_from_edges(9, [(1, 2)]))
    assert cli.run(["equiv", empty, edge]) == cli.EXIT_INEQUIVALENT
    assert capsys.readouterr().out.splitlines()[0] == "inequivalent"


def test_equiv_mixed_inputs(tmp_path, capsys):
    stab_path = write(
        tmp_path, "p3.stab", stabilizer.format_stabilizer(stabilizer.from_graph(path_graph(3)))
    )
    k3 = graph_file(tmp_path, "k3.graph", complete_graph(3))
    witness = str(tmp_path / "w.lc")
    assert cli.run(["equiv", stab_path, k3, "--witness", witness]) == cli.EXIT_OK
    assert "equivalent" in capsys.readouterr().out


def test_equiv_compares_qubit_counts_before_lifting_graphs(tmp_path, capsys):
    # a 5-byte header must not cost a 2n x n generator matrix before the mismatch
    header = write(tmp_path, "header.graph", "8192\n")
    k4 = graph_file(tmp_path, "k4.graph", complete_graph(4))
    tracemalloc.start()
    try:
        code = cli.run(["equiv", header, k4, "--witness", str(tmp_path / "w.lc")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == cli.EXIT_FAILURE
    assert capsys.readouterr().err == "error: invalid: qubit count mismatch\n"
    assert peak < 1 << 20


def test_equiv_sniffs_the_first_meaningful_line_as_splitlines_does(monkeypatch):
    def reference(text):
        lines = (ln.split("#", 1)[0].strip() for ln in text.splitlines())
        first = next(filter(None, lines), "")
        return "graph" if len(first.split()) == 1 and first.isdigit() else "stabilizer"

    monkeypatch.setattr(graphs, "parse_edge_list", lambda text: "graph")
    monkeypatch.setattr(stabilizer, "_parse_echelon", lambda text: "stabilizer")
    rng = random.Random(83)
    pieces = ["\n", "\r", "\r\n", "\x0b", "\x1c", "\x85", "\u2028", " ", "\t", "#", "# 3", "12"]
    pieces += ["1 2", "X", "XZ", "\u0663", "\xb2"]
    texts = ["", "\n", "5", "5\n", "#\n5", "\r\n\r\n7\r\n", "\r\n4 2\n"]
    texts += ["".join(rng.choices(pieces, k=rng.randrange(12))) for _ in range(3000)]
    kinds = [cli._parse_state(text) for text in texts]
    assert kinds == [reference(text) for text in texts]
    assert 500 < kinds.count("graph") < 2500


# dependent generators, an anticommuting pair whose second generator the
# elimination changes (XIX leaves XII), and a wrong count
_INVALID_STABILIZERS = {
    "dependent": ("XX\nXX\n", "4 2\n00\n00\n11\n00\n"),
    "anticommuting": ("IIX\nXIX\nZII\n", "6 3\n001\n000\n000\n010\n000\n110\n"),
    "count": ("XX\nZZ\nYY\n", "6 2\n10\n01\n00\n00\n00\n00\n"),
}


@pytest.mark.parametrize("case", sorted(_INVALID_STABILIZERS))
@pytest.mark.parametrize("form", [0, 1], ids=["pauli", "matrix"])
def test_equiv_rejects_a_stabilizer_as_the_parser_does(tmp_path, capsys, case, form):
    text = _INVALID_STABILIZERS[case][form]
    with pytest.raises(ParseError) as exc:
        stabilizer.parse_stabilizer(text)
    bad = write(tmp_path, "bad.stab", text)
    n = len(text.split()[-1])
    good = graph_file(tmp_path, "good.graph", empty_graph(n))
    for argv in ([bad, good], [good, bad]):
        assert cli.run(["equiv", *argv, "--witness", str(tmp_path / "w.lc")]) == cli.EXIT_PARSE
        assert capsys.readouterr() == ("", f"error: parse: {bad}: {exc.value}\n")
    assert not (tmp_path / "w.lc").exists()


def test_equiv_accepts_exactly_what_the_constructor_accepts(tmp_path, capsys, monkeypatch):
    """On the 500 matrices of the pinned stabilizer verdicts, as Pauli lines and
    as matrix blocks, equiv fails with the parser's error or decides the state
    equivalent to itself."""
    matrices = []

    def record(s):
        matrices.append(s)
        return stabilizer.StabilizerGenMatrix(s)

    monkeypatch.setattr(test_pinned_outputs, "StabilizerGenMatrix", record)
    verdicts = list(test_pinned_outputs.stabilizer_verdicts())
    monkeypatch.undo()
    assert len(matrices) == len(verdicts) == 500
    assert "ok" in verdicts and any(v != "ok" for v in verdicts)
    path, witness = tmp_path / "s.stab", str(tmp_path / "w.lc")
    for s, verdict in zip(matrices, verdicts):
        pauli = stabilizer.format_stabilizer(stabilizer.StabilizerGenMatrix._trusted(s))
        for text in (pauli, gf2.format_matrix(s)):
            path.write_text(text)
            code = cli.run(["equiv", str(path), str(path), "--quiet", "--witness", witness])
            err = capsys.readouterr().err
            if verdict == "ok":
                assert code == cli.EXIT_OK, err
            else:  # "<error type>: <message>"
                message = outcome(stabilizer.parse_stabilizer, text)[1]
                assert code == cli.EXIT_PARSE and message.endswith(verdict.split(": ", 1)[1])
                assert err == f"error: parse: {path}: {message}\n"


def test_export_dot(tmp_path, capsys):
    gpath = graph_file(tmp_path, "g.graph", graph_from_edges(3, [(1, 2)]))
    assert cli.run(["export-dot", gpath]) == cli.EXIT_OK
    assert "1 -- 2;" in capsys.readouterr().out
    out = str(tmp_path / "g.dot")
    assert cli.run(["export-dot", gpath, "--out", out, "--quiet"]) == cli.EXIT_OK
    assert (tmp_path / "g.dot").read_text() == graphs.to_dot(graph_from_edges(3, [(1, 2)]))


def test_inputs_not_mutated(tmp_path):
    g = path_graph(3)
    gpath = graph_file(tmp_path, "in.graph", g)
    before = (tmp_path / "in.graph").read_text()
    cli.run(["orbit", gpath, "--quiet"])
    cli.run(["canon", gpath, "--quiet", "--out", str(tmp_path / "c.graph")])
    cli.run(["export-dot", gpath, "--quiet", "--out", str(tmp_path / "c.dot")])
    assert (tmp_path / "in.graph").read_text() == before


def test_seeded_runs_are_byte_identical(tmp_path):
    stab_path = write(
        tmp_path,
        "s.stab",
        stabilizer.format_stabilizer(random_stabilizer(4, 11)),
    )
    outs = []
    for run in range(2):
        out_graph = str(tmp_path / f"g{run}.graph")
        out_lc = str(tmp_path / f"q{run}.lc")
        out_basis = str(tmp_path / f"r{run}.basis")
        assert (
            cli.run(
                [
                    "reduce",
                    stab_path,
                    "--quiet",
                    "--out-graph",
                    out_graph,
                    "--out-clifford",
                    out_lc,
                    "--out-basis",
                    out_basis,
                ]
            )
            == cli.EXIT_OK
        )
        outs.append(
            (tmp_path / f"g{run}.graph").read_bytes()
            + (tmp_path / f"q{run}.lc").read_bytes()
            + (tmp_path / f"r{run}.basis").read_bytes()
        )
    assert outs[0] == outs[1]


def test_writer_reader_roundtrips(tmp_path):
    rng = random.Random(100)
    for trial in range(10):
        g = random_graph(rng, rng.randrange(1, 9))
        text = graphs.format_edge_list(g)
        assert graphs.format_edge_list(graphs.parse_edge_list(text)) == text

        s = random_stabilizer(rng.randrange(1, 7), trial)
        stext = stabilizer.format_stabilizer(s)
        assert stabilizer.format_stabilizer(stabilizer.parse_stabilizer(stext)) == stext
