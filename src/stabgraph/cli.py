"""Command-line front end.

Commands map one-to-one onto library operations; all artifacts are plain
text (graphs, stabilizers, clifford operations, step sequences, matrices)
so fixtures diff cleanly and every writer round-trips through its reader.

``--verify`` re-reads the files a command just wrote and checks them with
exact GF(2) relations, at any size.

Exit codes: 0 success, 1 inequivalent (equiv), 64 usage error, 65 parse
error (also an unreadable or undecodable file), 70 operation failure (singular
input, domain violation, member cap exceeded, failed check or write) or internal error.
"""

import argparse
import sys
from pathlib import Path

from . import clifford, decomposition, equivalence, gf2, graphs, orbit, reduction, stabilizer
from .errors import ParseError

EXIT_OK = 0
EXIT_INEQUIVALENT = 1
EXIT_USAGE = 64
EXIT_PARSE = 65
EXIT_FAILURE = 70


class _UsageError(Exception):
    pass


class _Exit(Exception):
    """The parser printed the help; args[0] is the exit status."""


class CommandError(Exception):
    """A command-level failure (verification mismatch, unusable input)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)

    def exit(self, status=0, message=None):  # only -h and --help get here: error() raises
        raise _Exit(status)


def _build_parser():
    parser = _Parser(prog="stabgraph", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="reduce a stabilizer to graph-state standard form")
    p.add_argument("stabilizer", help="stabilizer file (Pauli lines or matrix block)")
    p.add_argument("--out-graph", help="output graph file (default: <stem>.graph)")
    p.add_argument("--out-clifford", help="output witness operation file (default: <stem>.lc)")
    p.add_argument("--out-basis", help="output basis-change matrix file (default: <stem>.basis)")
    _command(p, _cmd_reduce, "verify", "quiet")

    p = sub.add_parser("decompose", help="turn a graph action into complementation steps")
    p.add_argument("clifford", help="local Clifford operation file")
    p.add_argument("graph", help="graph file")
    p.add_argument("--out", help="output sequence file (default: <graph stem>.lcs)")
    _command(p, _cmd_decompose, "verify", "quiet")

    p = sub.add_parser("apply", help="apply a complementation sequence to a graph")
    p.add_argument("graph", help="graph file")
    p.add_argument("sequence", help="sequence file")
    p.add_argument("--out", help="output graph file (default: <graph stem>.out.graph)")
    _command(p, _cmd_apply, "verify", "quiet")

    p = sub.add_parser("orbit", help="enumerate the orbit under local complementation")
    p.add_argument("graph", help="graph file")
    p.add_argument("--members", help="write every member to this file")
    p.add_argument("--dot", help="write every member as DOT to this file")
    _command(p, _cmd_orbit, "cap", "verify", "quiet", cap=orbit.DEFAULT_MEMBER_CAP)

    p = sub.add_parser("canon", help="print the canonical orbit representative")
    p.add_argument("graph", help="graph file")
    p.add_argument("--out", help="write the representative to a file instead")
    _command(p, _cmd_canon, "cap", "quiet", cap=orbit.DEFAULT_MEMBER_CAP)

    p = sub.add_parser("equiv", help="decide local Clifford equivalence of two states")
    p.add_argument("first", help="graph or stabilizer file")
    p.add_argument("second", help="graph or stabilizer file")
    p.add_argument("--witness", default="witness.lc", help="witness output (default: witness.lc)")
    _command(p, _cmd_equiv, "verify", "quiet")

    p = sub.add_parser("export-dot", help="write a graph in DOT format")
    p.add_argument("graph", help="graph file")
    p.add_argument("--out", help="output file (default: stdout)")
    _command(p, _cmd_export_dot, "quiet")

    return parser


def _cap(text):
    if not (text.isdigit() and text.isascii()) or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


_FLAGS = {
    "cap": dict(type=_cap, help="orbit member cap, at least 1"),
    "verify": dict(action="store_true", help="re-read the written files and check them exactly"),
    "quiet": dict(action="store_true", help="suppress non-error output"),
}


def _command(p, handler, *names, **defaults):
    """Give a command its handler and the shared flags it reads, and no others."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])
    p.set_defaults(handler=handler, **defaults)


def run(argv):
    """Execute one command line; returns the process exit code."""
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as exc:
        print(f"error: usage: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _Exit as exc:
        return exc.args[0]
    try:
        return args.handler(args)
    except ParseError as exc:
        print(f"error: parse: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except orbit.CapExceededError as exc:
        print(f"error: cap: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except clifford.NotInDomainError as exc:
        print(f"error: domain: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except CommandError as exc:
        print(f"error: failed: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except (gf2.SingularError, ValueError) as exc:
        print(f"error: invalid: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except Exception as exc:  # includes MemoryError; exit 1 must keep meaning "inequivalent"
        message = str(exc).replace("\n", " ")
        print(f"error: internal: {type(exc).__name__}: {message}", file=sys.stderr)
        return EXIT_FAILURE


def _say(args, message):
    if not args.quiet:
        print(message)


def _read(path):
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:  # missing, unreadable or not UTF-8
        raise ParseError(str(getattr(exc, "strerror", None) or exc)) from exc


def _write(path, text):
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CommandError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _load(parse, path):
    try:
        return parse(_read(path))
    except ParseError as exc:
        raise ParseError(f"{path}: {exc}") from exc


def _parse_state(text):
    """Graph or stabilizer text, sniffed by the first meaningful line."""
    first, start = "", 0  # text.splitlines() piece by piece, up to the first meaningful line
    while not first and start <= len(text):
        end = text.find("\n", start) % (len(text) + 1)  # the end of the text when none is left
        lines = (ln.split("#", 1)[0].strip() for ln in text[start:end].splitlines())
        first, start = next(filter(None, lines), ""), end + 1
    if first.isdigit():
        return graphs.parse_edge_list(text)
    return stabilizer._parse_echelon(text)  # the basis the equivalence system is fastest on


def _reread(parse, path):
    """Read back a file this command wrote; one that does not parse fails the check."""
    try:
        return _load(parse, path)
    except ParseError as exc:
        raise CommandError(f"check failed: {exc}") from exc


def _check(args, ok, failure):
    if not ok:
        raise CommandError(f"check failed: {failure}")
    _say(args, "check: ok")


def _replay(g, seq):
    """The graph that ``seq`` walks g to, or None when one symplectic check fails.

    The decomposition walk runs from the identity, so its final operation Q'
    maps the walked graph W back onto g. :func:`clifford._maps` checks that
    exactly, A'.W + B' = g.(C'.W + D') with one product, and shares no code
    with the row step.
    """
    n, ones = g.n, (1 << g.n) - 1
    rows, a, b, c, d = list(g.adj.row_ints), ones, 0, 0, ones
    for v in seq.expand():
        a, b, c, d = decomposition._step(rows, a, b, c, d, graphs._check_vertex(n, v))
    try:
        walked = graphs.Graph(gf2.BitMatrix(n, n, rows))
        ok = clifford._maps(clifford._op(n, a, b, c, d), walked, g)
    except ValueError:  # an invalid graph or operation
        return None
    return walked if ok else None


def _stem(path):
    return str(Path(path).with_suffix(""))


def _cmd_reduce(args):
    st, what = _load(stabilizer._decode_columns, args.stabilizer)  # one row per generator
    try:
        witness = reduction._reduce_columns(st)  # validates S through its witness
    except stabilizer.StabilizerError as exc:
        raise ParseError(f"{args.stabilizer}: line 1: {what}: {exc}") from exc
    stem = _stem(args.stabilizer)
    graph_path = args.out_graph or stem + ".graph"
    clifford_path = args.out_clifford or stem + ".lc"
    basis_path = args.out_basis or stem + ".basis"
    _write(graph_path, graphs.format_edge_list(witness.graph))
    _write(clifford_path, clifford.format_clifford(witness.q))
    _write(basis_path, gf2.format_matrix(witness.r))
    edges = sum(r.bit_count() for r in witness.graph.adj.row_ints) // 2
    _say(args, f"graph with {edges} edges -> {graph_path}")
    _say(args, f"witness operation -> {clifford_path}")
    _say(args, f"basis change -> {basis_path}")
    if args.verify:
        written = reduction.ReductionWitness(
            _reread(graphs.parse_edge_list, graph_path),
            _reread(clifford.parse_clifford, clifford_path),
            _reread(gf2.parse_matrix, basis_path),
        )
        stab = stabilizer.StabilizerGenMatrix._trusted(gf2.transpose(st))
        ok = reduction.verify_witness(stab, written)
        _check(args, ok, "witness does not map onto the graph state")
    return EXIT_OK


def _cmd_decompose(args):
    q = _load(clifford.parse_clifford, args.clifford)
    g = _load(graphs.parse_edge_list, args.graph)
    seq = decomposition.decompose_action(q, g)
    out = args.out or _stem(args.graph) + ".lcs"
    _write(out, decomposition.format_sequence(seq))
    _say(args, f"{len(seq)} steps -> {out}")
    if args.verify:
        written = _reread(decomposition.parse_sequence, out)
        walked = _replay(g, written)
        ok = walked is not None and clifford._maps(q, g, walked)
        _check(args, ok, "sequence misses the image of the graph action")
    return EXIT_OK


def _cmd_apply(args):
    g = _load(graphs.parse_edge_list, args.graph)
    seq = _load(decomposition.parse_sequence, args.sequence)
    result = decomposition.apply_sequence(g, seq)
    out = args.out or _stem(args.graph) + ".out.graph"
    _write(out, graphs.format_edge_list(result))
    edges = sum(r.bit_count() for r in result.adj.row_ints) // 2
    _say(args, f"result graph with {edges} edges -> {out}")
    if args.verify:
        ok = _replay(g, seq) == _reread(graphs.parse_edge_list, out)
        _check(args, ok, "symplectic replay disagrees with edge toggling")
    return EXIT_OK


def _cmd_orbit(args):
    g = _load(graphs.parse_edge_list, args.graph)
    result = orbit.enumerate_orbit(g, member_cap=args.cap)
    count = len(result.members)
    _say(args, f"{count} member{'s' if count != 1 else ''}")
    if not args.quiet:
        print("canonical representative:")
        print(graphs.format_edge_list(result.canonical).rstrip("\n"))
    ordered = sorted(result.members, key=orbit._row_order) if args.members or args.dot else ()
    if args.members:
        blocks = [graphs.format_edge_list(m) for m in ordered]
        _write(args.members, "# orbit members\n" + "".join(b + "--\n" for b in blocks))
        _say(args, f"members -> {args.members}")
    if args.dot:
        _write(args.dot, "".join(graphs.to_dot(m) for m in ordered))
        _say(args, f"DOT bundle -> {args.dot}")
    if args.verify:
        replays = result.transcripts.items()
        ok = all(decomposition.apply_sequence(g, seq) == m for m, seq in replays)
        _check(args, ok, "transcript replay mismatch")
    return EXIT_OK


def _cmd_canon(args):
    g = _load(graphs.parse_edge_list, args.graph)
    rep = orbit.enumerate_orbit(g, member_cap=args.cap).canonical
    text = graphs.format_edge_list(rep)
    if args.out:
        _write(args.out, text)
        _say(args, f"canonical representative -> {args.out}")
    else:
        _say(args, text.rstrip("\n"))
    return EXIT_OK


def _cmd_equiv(args):
    states = [_load(_parse_state, path) for path in (args.first, args.second)]
    if states[0].n != states[1].n:  # before a graph header can size a 2n x n matrix
        raise ValueError("qubit count mismatch")
    first, second = (stabilizer.from_graph(s) if isinstance(s, graphs.Graph) else s for s in states)
    result = equivalence.test_equivalence(first, second)
    if isinstance(result, equivalence.Equivalent):
        _write(args.witness, clifford.format_clifford(result.q))
        _say(args, "equivalent")
        _say(args, f"witness -> {args.witness}")
        if args.verify:
            written = _reread(clifford.parse_clifford, args.witness)
            moved = clifford.apply_to_stabilizer(written, first)
            ok = stabilizer.same_subspace(stabilizer.StabilizerGenMatrix(moved), second)
            _check(args, ok, "witness does not connect the states")
        return EXIT_OK
    _say(args, "inequivalent")
    return EXIT_INEQUIVALENT


def _cmd_export_dot(args):
    g = _load(graphs.parse_edge_list, args.graph)
    text = graphs.to_dot(g)
    if args.out:
        _write(args.out, text)
        _say(args, f"DOT -> {args.out}")
    else:
        _say(args, text.rstrip("\n"))
    return EXIT_OK


_PARSER = _build_parser()


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
