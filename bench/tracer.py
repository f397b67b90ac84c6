"""Spans around library calls, installed from outside the library.

Each target is a module attribute (or a class's ``__init__``) replaced by a
wrapper that records a span: its name, its parent span and its duration.
Spans are aggregated in memory per (span, parent) pair as calls, total time
and self time (duration minus the time of child spans), and written out once
at the end. A census pass alone makes ~600k wrapped calls, so full span lists
are not kept.

A target that the library no longer defines is reported as absent, never as
an error, so the benchmark keeps running while the library is refactored.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

# (module, attribute path). "Class.__init__" is reported as "Class.init".
TARGETS = [
    ("gf2", "mat_mul"),
    ("gf2", "transpose"),
    ("gf2", "try_invert"),
    ("gf2", "rank"),
    ("gf2", "solve_homogeneous"),
    ("graphs", "Graph.__init__"),
    ("graphs", "local_complement"),
    ("graphs", "parse_edge_list"),
    ("graphs", "format_edge_list"),
    ("stabilizer", "StabilizerGenMatrix.__init__"),
    ("stabilizer", "from_graph"),
    ("stabilizer", "parse_stabilizer"),
    ("stabilizer", "format_stabilizer"),
    ("stabilizer", "same_subspace"),
    ("clifford", "graph_action"),
    ("clifford", "apply_to_rows"),
    ("clifford", "parse_clifford"),
    ("clifford", "format_clifford"),
    ("reduction", "to_graph_state"),
    ("reduction", "verify_witness"),
    ("decomposition", "decompose_action"),
    ("decomposition", "reduce_to_identity"),
    ("decomposition", "cd_step"),
    ("decomposition", "apply_sequence"),
    ("orbit", "enumerate_orbit"),
    ("equivalence", "build_linear_system"),
    ("equivalence", "test_equivalence"),
    ("cli", "run"),
]


def span_name(module, path):
    return f"{module}.{path.replace('.__init__', '.init')}"


SPANS = [span_name(m, p) for m, p in TARGETS]

# Work counters that repeat exactly for one seed. Each hook reads the call's
# arguments and result; it runs outside the span and its cost is charged to
# no span.
COUNTERS = [
    "gf2.transpose.bits",
    "gf2.mat_mul.row_xors",
    "decomposition.singles",
    "decomposition.triples",
    "decomposition.expanded_steps",
    "orbit.members",
    "orbit.moves",
    "orbit.new_ratio",
    "equivalence.solution_dim_sum",
    "equivalence.solution_dim_max",
    "equivalence.search_bound",
    "cli.bytes_read",
    "cli.bytes_written",
]


def _transpose(c, args, result):
    c["gf2.transpose.bits"] += sum(r.bit_count() for r in args[0].row_ints)


def _mat_mul(c, args, result):
    c["gf2.mat_mul.row_xors"] += sum(r.bit_count() for r in args[0].row_ints)


def _solve(c, args, result):
    dim = len(result)
    c["equivalence.solution_dim_sum"] += dim
    c["equivalence.solution_dim_max"] = max(c["equivalence.solution_dim_max"], dim)
    c["equivalence.search_bound"] += (1 << dim) - 1


def _orbit(c, args, result):
    members = len(result.members)
    c["orbit.members"] += members
    c["orbit.moves"] += args[0].n * members
    c["orbit.new"] += members - 1


def _decompose(c, args, result):
    steps = list(result)
    singles = sum(1 for s in steps if type(s).__name__ == "Single")
    c["decomposition.singles"] += singles
    c["decomposition.triples"] += len(steps) - singles
    c["decomposition.expanded_steps"] += len(result.expand())


HOOKS = {
    "gf2.transpose": _transpose,
    "gf2.mat_mul": _mat_mul,
    "gf2.solve_homogeneous": _solve,
    "orbit.enumerate_orbit": _orbit,
    "decomposition.decompose_action": _decompose,
}


def resolve(module, path):
    """(owner, attribute, function) for a target, or None when it is absent."""
    try:
        owner = importlib.import_module(f"stabgraph.{module}")
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    # an __init__ only counts when the class itself defines it
    if fn is None or (attr == "__init__" and attr not in vars(owner)):
        return None
    return owner, attr, fn


class Tracer:
    def __init__(self):
        self.stack = [["", 0.0]]
        self.agg = {}
        self.counters = defaultdict(int)
        self.absent = []
        self.broken_hooks = set()

    def install(self):
        for module, path in TARGETS:
            name = span_name(module, path)
            target = resolve(module, path)
            if target is None:
                self.absent.append(name)
                continue
            owner, attr, fn = target
            setattr(owner, attr, self._wrap(name, fn, HOOKS.get(name)))

    def _wrap(self, name, fn, hook):
        stack, agg, clock = self.stack, self.agg, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                rec = agg.get((name, parent[0]))
                if rec is None:
                    rec = agg[(name, parent[0])] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
                parent[1] += dur
            if hook is not None and name not in self.broken_hooks:
                t1 = clock()
                try:
                    hook(self.counters, args, result)
                except (AttributeError, TypeError):
                    self.broken_hooks.add(name)
                parent[1] += clock() - t1
            return result

        return wrapper

    def span(self, name, thunk):
        """Run thunk() as a root span (one request)."""
        return self._wrap(name, thunk, None)()

    def table(self):
        """Aggregated spans, largest self time first."""
        rows = [
            {"span": name, "parent": parent or None, "calls": r[0], "total_s": r[1], "self_s": r[2]}
            for (name, parent), r in self.agg.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])

    def metrics(self):
        """Per-layer metrics: calls and self time per span, then the counters."""
        out = {}
        for name in SPANS:
            calls = sum(r[0] for (n, _), r in self.agg.items() if n == name)
            self_s = sum(r[2] for (n, _), r in self.agg.items() if n == name)
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        c = self.counters
        for key in COUNTERS:
            if key == "orbit.new_ratio":
                out[key] = (c["orbit.new"] / c["orbit.moves"] if c["orbit.moves"] else 0.0, "ratio")
            else:
                out[key] = (c[key], "B" if key.startswith("cli.bytes") else "count")
        return out
