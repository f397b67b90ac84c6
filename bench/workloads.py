"""The three workloads: seeded inputs, the request loop body, and the gates.

Each workload has three parts:

* ``generate(seed, workdir, lib)`` builds the inputs with ``random`` and the
  plain-int arithmetic of :mod:`arith`, writes the files the CLI reads, and
  returns ``(plan, truth, digest)``. ``plan`` is the JSON the measuring
  process receives; ``truth`` stays in the parent for the correctness gates;
  ``digest`` is a SHA-256 of the serialized inputs.
* ``Runner(plan, lib)`` runs in the measuring process. ``cycle()`` yields
  ``(key, thunk)`` pairs, one per request; only ``thunk()`` is timed.
  ``record(key, outcome)`` captures what the gates need, untimed, and returns
  False when the outcome is a failure (an unexpected exit code).
* ``check(plan, truth, summary, lib)`` re-checks the outputs with the
  benchmark's own arithmetic and returns a list of error strings.

Library calls are limited to public entry points: ``cli.run`` argv and
``orbit.enumerate_orbit``. The generators use the library only where the
result is mathematically unique (``clifford.complete_from_cd``).
"""

from __future__ import annotations

import hashlib
import os
import random

import arith

# The six invertible 2x2 blocks (a, b, c, d) with a d + b c = 1.
_QUBIT_BLOCKS = [(1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1), (1, 1, 1, 0)]


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def _digest(parts):
    h = hashlib.sha256()
    for p in parts:
        data = p.encode()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


def _file_digest(paths):
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as f:
            data = f.read()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
    return h.hexdigest()


# ---------------------------------------------------------------- inputs


def random_graph(rng, n):
    upper = [rng.getrandbits(n - i - 1) << (i + 1) if i < n - 1 else 0 for i in range(n)]
    low = arith.transpose(upper, n)
    return [u | t for u, t in zip(upper, low)]


def random_connected(rng, n):
    while True:
        adj = random_graph(rng, n)
        if arith.is_connected(adj):
            return adj


def lc_walk(rng, adj, steps):
    for _ in range(steps):
        adj = arith.local_complement(adj, rng.randrange(len(adj)))
    return adj


def random_local_clifford(rng, n):
    a = b = c = d = 0
    for i in range(n):
        ba, bb, bc, bd = rng.choice(_QUBIT_BLOCKS)
        a |= ba << i
        b |= bb << i
        c |= bc << i
        d |= bd << i
    return a, b, c, d


def random_invertible(rng, n):
    while True:
        rows = [rng.getrandbits(n) for _ in range(n)]
        if arith.invert(rows) is not None:
            return rows


def scrambled_stabilizer(rng, adj):
    """Q.[adj; I].R for a random local Clifford Q and a random invertible R."""
    n = len(adj)
    s = arith.apply_local_clifford(*random_local_clifford(rng, n), arith.graph_stabilizer(adj))
    return arith.mat_mul(s, random_invertible(rng, n))


def format_graph(adj):
    n = len(adj)
    lines = [str(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if (adj[i] >> j) & 1:
                lines.append(f"{i + 1} {j + 1}")
    return "\n".join(lines) + "\n"


def format_pauli_lines(s):
    """One generator (column of the 2n x n matrix) per line over {I, X, Y, Z}."""
    n = len(s) // 2
    letters = {(0, 0): "I", (0, 1): "X", (1, 0): "Z", (1, 1): "Y"}
    lines = []
    for j in range(n):
        lines.append(
            "".join(letters[((s[i] >> j) & 1, (s[n + i] >> j) & 1)] for i in range(n))
        )
    return "\n".join(lines) + "\n"


def format_matrix(rows, cols):
    body = ["".join("1" if (r >> j) & 1 else "0" for j in range(cols)) for r in rows]
    return "\n".join([f"{len(rows)} {cols}"] + body) + "\n"


def format_clifford(a, b, c, d, n):
    lines = [str(n)]
    for i in range(n):
        lines.append(f"{(a >> i) & 1} {(b >> i) & 1} {(c >> i) & 1} {(d >> i) & 1}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------- output parsers (own)


def parse_graph(text):
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    n = int(lines[0])
    adj = [0] * n
    for ln in lines[1:]:
        i, j = (int(t) - 1 for t in ln.split())
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    return adj


def parse_clifford(text):
    lines = text.splitlines()
    n = int(lines[0])
    a = b = c = d = 0
    for i in range(n):
        ba, bb, bc, bd = (int(t) for t in lines[1 + i].split())
        a |= ba << i
        b |= bb << i
        c |= bc << i
        d |= bd << i
    return n, a, b, c, d


def parse_matrix(text):
    lines = text.splitlines()
    rows, cols = (int(t) for t in lines[0].split())
    out = []
    for ln in lines[1 : 1 + rows]:
        out.append(sum(1 << j for j, ch in enumerate(ln.strip()) if ch == "1"))
    return out, cols


def parse_sequence(text):
    """Expanded vertex list (0-based): 'g i' is i, 'gg j k' is j, k, j."""
    out = []
    for ln in text.splitlines():
        parts = ln.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "g":
            out.append(int(parts[1]) - 1)
        else:
            j, k = int(parts[1]) - 1, int(parts[2]) - 1
            out.extend((j, k, j))
    return out


def _clifford_ok(n, a, b, c, d):
    return ((a & d) ^ (b & c)) == (1 << n) - 1


# ------------------------------------------------------------- orbit-census

CENSUS_N = 6
CENSUS_PAIRS = [(i, j) for i in range(CENSUS_N) for j in range(i + 1, CENSUS_N)]
CENSUS_CODES = 1 << len(CENSUS_PAIRS)


def code_to_adj(code):
    adj = [0] * CENSUS_N
    for bit, (i, j) in enumerate(CENSUS_PAIRS):
        if (code >> bit) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return adj


def adj_to_code(rows):
    """Edge code: bit t is the t-th vertex pair (i < j) in lexicographic order."""
    code = 0
    shift = 0
    for i in range(CENSUS_N):
        code |= (rows[i] >> (i + 1)) << shift
        shift += CENSUS_N - 1 - i
    return code


def census_graph(lib, code):
    return lib.graphs.Graph(lib.gf2.BitMatrix(CENSUS_N, CENSUS_N, code_to_adj(code)))


def _pairs_inside():
    """inside[s]: the edge-code bits of every pair within the vertex set s."""
    table = []
    for s in range(1 << CENSUS_N):
        table.append(sum(1 << bit for bit, (i, j) in enumerate(CENSUS_PAIRS) if (s >> i) & (s >> j) & 1))
    return table


def census_partition():
    """Union-find over all labeled 6-vertex graphs under local complementation.

    Returns the root of every edge code. Moves are applied to codes directly:
    complementing at v toggles every pair inside N(v).
    """
    inside = _pairs_inside()
    incident = [[(bit, j if i == v else i) for bit, (i, j) in enumerate(CENSUS_PAIRS) if v in (i, j)]
                for v in range(CENSUS_N)]
    parent = list(range(CENSUS_CODES))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for code in range(CENSUS_CODES):
        for v in range(CENSUS_N):
            nbrs = 0
            for bit, other in incident[v]:
                if (code >> bit) & 1:
                    nbrs |= 1 << other
            ra, rb = find(code), find(code ^ inside[nbrs])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    return [find(c) for c in range(CENSUS_CODES)]


class Census:
    """All 2^15 labeled 6-vertex graphs split into LC orbits by BFS.

    One ``orbit.enumerate_orbit`` request per graph not yet covered by an
    earlier orbit of the same pass, in ascending edge-code order. Tiny n and
    ~197k complementations per pass, so per-call constant costs (constructor
    validation, hashing) dominate. The inputs do not depend on the seed; the
    seed picks the pairs the gate cross-checks against the equivalence solver.
    """

    name = "orbit-census"
    GATE_PAIRS = 8

    @staticmethod
    def generate(seed, workdir, lib):
        rng = _rng(Census.name, seed)
        roots = census_partition()
        same, cross = [], []
        while len(same) < Census.GATE_PAIRS:
            a = rng.randrange(CENSUS_CODES)
            b = adj_to_code(lc_walk(rng, code_to_adj(a), rng.randint(1, 8)))
            same.append([a, b])
        while len(cross) < Census.GATE_PAIRS:
            a, b = rng.randrange(CENSUS_CODES), rng.randrange(CENSUS_CODES)
            if roots[a] != roots[b]:
                cross.append([a, b])
        plan = {"workload": Census.name, "n": CENSUS_N}
        truth = {"roots": roots, "same": same, "cross": cross}
        digest = _digest([f"n={CENSUS_N};order=ascending-edge-code", repr(same), repr(cross)])
        return plan, truth, digest

    class Runner:
        def __init__(self, plan, lib):
            self.lib = lib
            self.covered = self.cur_orbit_of = self.cur_sizes = None
            self.orbit_of = self.sizes = None
            self.mismatch = 0
            self.io = None

        def _request(self, code):
            return self.lib.orbit.enumerate_orbit(census_graph(self.lib, code))

        def cycle(self):
            self.covered = bytearray(CENSUS_CODES)
            self.cur_orbit_of = [-1] * CENSUS_CODES
            self.cur_sizes = []
            for code in range(CENSUS_CODES):
                if not self.covered[code]:
                    yield code, (lambda c=code: self._request(c))
            if self.sizes is None:
                self.orbit_of, self.sizes = self.cur_orbit_of, self.cur_sizes
            elif self.cur_sizes != self.sizes or self.cur_orbit_of != self.orbit_of:
                self.mismatch += 1

        def record(self, key, result):
            idx = len(self.cur_sizes)
            members = result.members
            for m in members:
                c = adj_to_code(m.adj.row_ints)
                self.covered[c] = 1
                self.cur_orbit_of[c] = idx
            self.cur_sizes.append(len(members))
            return True

        def summary(self):
            return {"orbit_of": self.orbit_of, "sizes": self.sizes, "pass_mismatches": self.mismatch}

    @staticmethod
    def check(plan, truth, summary, lib):
        errors = []
        sizes, orbit_of = summary["sizes"], summary["orbit_of"]
        if sizes is None:
            return ["no complete census pass"]
        if summary["pass_mismatches"]:
            errors.append(f"{summary['pass_mismatches']} census passes differ from the first")
        if sum(sizes) != CENSUS_CODES:
            errors.append(f"orbit sizes sum to {sum(sizes)}, expected {CENSUS_CODES}")
        roots = truth["roots"]
        n_classes = len(set(roots))
        if len(sizes) != n_classes:
            errors.append(f"{len(sizes)} orbits, union-find recount gives {n_classes}")
        # Each orbit must be exactly one union-find class: the map orbit -> root
        # must be a bijection and the class sizes must match.
        root_of_orbit = {}
        class_size = {}
        for code, (orb, root) in enumerate(zip(orbit_of, roots)):
            if orb < 0:
                errors.append(f"graph code {code} is in no orbit")
                break
            if root_of_orbit.setdefault(orb, root) != root:
                errors.append(f"orbit {orb} spans two union-find classes")
                break
            class_size[root] = class_size.get(root, 0) + 1
        else:
            if len(set(root_of_orbit.values())) != len(root_of_orbit):
                errors.append("two orbits share a union-find class")
            for orb, root in root_of_orbit.items():
                if sizes[orb] != class_size[root]:
                    errors.append(f"orbit {orb} has {sizes[orb]} members, class has {class_size[root]}")
                    break
        for label, pairs, want in (("same", truth["same"], True), ("cross", truth["cross"], False)):
            for a, b in pairs:
                res = lib.equivalence.test_equivalence_graphs(census_graph(lib, a), census_graph(lib, b))
                got = isinstance(res, lib.equivalence.Equivalent)
                if got != want or (not got and not isinstance(res, lib.equivalence.Inequivalent)):
                    errors.append(f"{label}-orbit pair {a},{b}: solver says {type(res).__name__}")
        return errors


# ------------------------------------------------------- CLI-driven workloads


class CliRunner:
    """Closed loop over a fixed pool of ``cli.run`` argv lists.

    Every request lists the files it reads and writes. Outputs are removed
    before the request and hashed after it (both untimed), so the gates see
    what each request wrote and can insist that repeats of one request agree.
    """

    def __init__(self, plan, lib):
        self.cli = lib.cli
        self.requests = plan["requests"]
        self.codes = [set() for _ in self.requests]
        self.outputs = [set() for _ in self.requests]
        self.wrong = 0
        self.io = None

    def cycle(self):
        for idx, req in enumerate(self.requests):
            for path in req["writes"]:
                if os.path.exists(path):
                    os.remove(path)
            # looked up per call, so a traced run sees the wrapped cli.run
            yield idx, (lambda argv=req["argv"]: self.cli.run(argv))

    def record(self, idx, code):
        req = self.requests[idx]
        self.codes[idx].add(code)
        if code not in req["allowed"]:
            return False
        if code != req["expect"]:
            self.wrong += 1
        written = []
        if code == 0:
            written = [p for p in req["writes"] if os.path.exists(p)]
            missing = len(req["writes"]) - len(written)
            self.outputs[idx].add(f"missing {missing}" if missing else _file_digest(written))
        if self.io is not None:
            self.io["cli.bytes_read"] += sum(os.path.getsize(p) for p in req["reads"])
            self.io["cli.bytes_written"] += sum(os.path.getsize(p) for p in written)
        return True

    def summary(self):
        return {
            "codes": [sorted(c) for c in self.codes],
            "outputs": [sorted(o) for o in self.outputs],
            "wrong": self.wrong,
        }


def _check_cli_common(plan, summary):
    """Exit codes against the truth and determinism of repeated outputs.

    Returns the errors and the indices whose outputs may be checked further.
    """
    errors = []
    ok = []
    if summary["wrong"]:
        errors.append(f"{summary['wrong']} requests returned the wrong exit code")
    for idx, req in enumerate(plan["requests"]):
        codes, outs = summary["codes"][idx], summary["outputs"][idx]
        if not codes:
            continue
        if codes != [req["expect"]]:
            errors.append(f"request {idx} exit codes {codes}, expected {req['expect']}")
            continue
        if req["expect"] != 0:
            continue
        if len(outs) != 1:
            errors.append(f"request {idx} wrote {len(outs)} different outputs across repeats")
            continue
        if _file_digest(req["writes"]) != outs[0]:
            errors.append(f"request {idx} output on disk differs from the recorded digest")
            continue
        ok.append(idx)
    return errors, ok


def _read(path):
    with open(path) as f:
        return f.read()


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)


class EquivMixed:
    """``stabgraph equiv`` on a seeded pool of 48 pairs, in blocks of eight.

    Each block holds six connected G(n, 1/2) pairs, n = 32..48, made
    equivalent by a 3n-move LC walk (every other one written as scrambled
    stabilizer files), one equivalent multi-component pair and one near-miss
    inequivalent multi-component pair (3-4 components of 3-5 vertices,
    shuffled labels; one component of 4-5 vertices replaced by an
    LC-inequivalent graph on the same vertices), in the layout C C C E C C C M.
    Across the six blocks the component pairs of each kind take
    solution-space dimensions 13..18 once each, so every seed has the same
    exhaustive-search profile: the connected majority sets the median
    (n^2 x 4n elimination), the component pairs set the tail and the
    throughput (candidate search).
    """

    name = "equiv-mixed"
    BLOCKS = 6
    CONNECTED_PER_BLOCK = 6
    DIMS = (13, 14, 15, 16, 17, 18)
    NEAR_MISS_DIMS = (18, 13, 17, 14, 16, 15)

    @staticmethod
    def _component_pair(rng, equivalent):
        count = rng.choice((3, 4))
        sizes = [rng.randint(3, 5) for _ in range(count)]
        if not equivalent and max(sizes) < 4:
            sizes[0] = rng.choice((4, 5))
        n = sum(sizes)
        labels = list(range(n))
        rng.shuffle(labels)
        miss = None if equivalent else rng.choice([i for i, s in enumerate(sizes) if s >= 4])
        a = [0] * n
        b = [0] * n
        pos = 0
        for ci, size in enumerate(sizes):
            verts = labels[pos : pos + size]
            pos += size
            sub = random_connected(rng, size)
            if ci == miss:
                orbit = arith.lc_orbit(sub)
                other = random_connected(rng, size)
                while tuple(other) in orbit:
                    other = random_connected(rng, size)
            else:
                other = lc_walk(rng, sub, 3 * size)
            for x, vx in enumerate(verts):
                for y, vy in enumerate(verts):
                    if (sub[x] >> y) & 1:
                        a[vx] |= 1 << vy
                    if (other[x] >> y) & 1:
                        b[vx] |= 1 << vy
        return a, b

    @staticmethod
    def _component_pair_with_dim(rng, equivalent, dim):
        for _ in range(20000):
            a, b = EquivMixed._component_pair(rng, equivalent)
            sa, sb = arith.graph_stabilizer(a), arith.graph_stabilizer(b)
            if arith.solution_dim(sa, sb) == dim:
                return a, b
        raise RuntimeError(f"no component pair with solution dimension {dim}")

    @staticmethod
    def generate(seed, workdir, lib):
        rng = _rng(EquivMixed.name, seed)
        # Sizes spread evenly over 32..48 in seeded order, so the median does
        # not depend on which sizes a seed happened to draw; the warm-up
        # request (the first) is always the smallest.
        count = EquivMixed.BLOCKS * EquivMixed.CONNECTED_PER_BLOCK
        sizes = [32 + round(16 * k / (count - 1)) for k in range(count)]
        rng.shuffle(sizes)
        sizes.remove(32)
        sizes.insert(0, 32)
        entries = []  # (kind, text_a, text_b, stab_a, stab_b, expect)
        for block in range(EquivMixed.BLOCKS):
            chunk = []
            for k in range(EquivMixed.CONNECTED_PER_BLOCK):
                n = sizes.pop(0)
                a = random_connected(rng, n)
                b = lc_walk(rng, a, 3 * n)
                if k % 2:
                    sa, sb = scrambled_stabilizer(rng, a), scrambled_stabilizer(rng, b)
                    ta, tb = format_pauli_lines(sa), format_pauli_lines(sb)
                else:
                    sa, sb = arith.graph_stabilizer(a), arith.graph_stabilizer(b)
                    ta, tb = format_graph(a), format_graph(b)
                chunk.append(("connected", ta, tb, sa, sb, 0))
            for equivalent, dim in ((True, EquivMixed.DIMS[block]), (False, EquivMixed.NEAR_MISS_DIMS[block])):
                a, b = EquivMixed._component_pair_with_dim(rng, equivalent, dim)
                kind = "component-equivalent" if equivalent else "component-near-miss"
                chunk.append((kind, format_graph(a), format_graph(b),
                              arith.graph_stabilizer(a), arith.graph_stabilizer(b), 0 if equivalent else 1))
            # fixed layout C C C E C C C M: the warm-up request is always a
            # connected pair, and the heavy searches are spread over the cycle
            entries.extend(chunk[:3] + chunk[6:7] + chunk[3:6] + chunk[7:])
        requests, stabs, parts = [], [], []
        for idx, (kind, ta, tb, sa, sb, expect) in enumerate(entries):
            ext = ".graph" if ta[0].isdigit() else ".stab"
            pa = os.path.join(workdir, f"e{idx:02d}a{ext}")
            pb = os.path.join(workdir, f"e{idx:02d}b{ext}")
            pw = os.path.join(workdir, f"e{idx:02d}.lc")
            _write(pa, ta)
            _write(pb, tb)
            requests.append({
                "kind": kind,
                "argv": ["equiv", pa, pb, "--quiet", "--witness", pw],
                "reads": [pa, pb],
                "writes": [pw],
                "expect": expect,
                "allowed": [0, 1],
            })
            stabs.append((sa, sb))
            parts += [kind, ta, tb, str(expect)]
        plan = {"workload": EquivMixed.name, "requests": requests}
        return plan, {"stabs": stabs}, _digest(parts)

    Runner = CliRunner

    @staticmethod
    def check(plan, truth, summary, lib):
        errors, ok = _check_cli_common(plan, summary)
        for idx in ok:
            sa, sb = truth["stabs"][idx]
            n, a, b, c, d = parse_clifford(_read(plan["requests"][idx]["writes"][0]))
            if n != len(sa) // 2 or not _clifford_ok(n, a, b, c, d):
                errors.append(f"request {idx}: witness is not a valid local Clifford")
            elif not arith.same_span(arith.apply_local_clifford(a, b, c, d, sa), sb):
                errors.append(f"request {idx}: witness does not map the first state onto the second")
        return errors


class ReduceDecompose:
    """``stabgraph reduce`` and ``stabgraph decompose`` at n = 64, alternating.

    64 reduce and 64 decompose requests, reduce first.

    * reduce: S = Q.[adj; I].R for a random G(64, 1/2) graph, random local
      Clifford Q and random invertible R, written alternately as Pauli lines
      and as a 2n x n matrix block. Writes three files per request.
    * decompose: a random G(64, 1/2) graph and an in-domain operation whose
      lower blocks are drawn per qubit from (c_i, d_i) != (0, 0), redrawn
      until C.adj + D is invertible; the upper blocks are the unique
      in-domain completion. The number of qubits left untouched,
      (c_i, d_i) = (0, 1), is fixed per request and spread evenly over
      0..0.9 n across the pool, so sequence lengths (and latencies) cover a
      range. With one length for all, decompose latencies form one tight
      cluster and the median would sit on its edge, jumping with the host's
      speed. The count is exact rather than drawn per qubit, so the latency
      distribution (and the p90, which falls in the decompose tail) is
      nearly the same for every seed.
    """

    name = "reduce-decompose"
    N = 64
    PAIRS = 64
    MAX_UNTOUCHED = 0.9

    @staticmethod
    def _decompose_input(rng, n, untouched, lib):
        adj = random_graph(rng, n)
        while True:
            c = d = 0
            skip = set(rng.sample(range(n), untouched))
            for i in range(n):
                ci, di = (0, 1) if i in skip else rng.choice(((1, 0), (1, 1)))
                c |= ci << i
                d |= di << i
            denom = [(adj[i] if (c >> i) & 1 else 0) ^ (((d >> i) & 1) << i) for i in range(n)]
            if arith.invert(denom) is not None:
                break
        g = lib.graphs.Graph(lib.gf2.BitMatrix(n, n, adj))
        q = lib.clifford.complete_from_cd(g, lib.gf2.BitVec(n, c), lib.gf2.BitVec(n, d))
        return adj, (q.a.bits, q.b.bits, c, d)

    @staticmethod
    def generate(seed, workdir, lib):
        rng = _rng(ReduceDecompose.name, seed)
        n, pairs = ReduceDecompose.N, ReduceDecompose.PAIRS
        shares = [round(ReduceDecompose.MAX_UNTOUCHED * n * k / (pairs - 1)) for k in range(pairs)]
        rng.shuffle(shares)
        requests, inputs, parts = [], [], []
        for r in range(pairs):
            for step in ("reduce", "decompose"):
                idx = len(requests)
                stem = os.path.join(workdir, f"r{idx:03d}")
                if step == "reduce":
                    s = scrambled_stabilizer(rng, random_graph(rng, n))
                    text = format_pauli_lines(s) if r % 2 == 0 else format_matrix(s, n)
                    _write(stem + ".stab", text)
                    outs = [stem + ".out.graph", stem + ".out.lc", stem + ".out.basis"]
                    argv = ["reduce", stem + ".stab", "--quiet", "--out-graph", outs[0],
                            "--out-clifford", outs[1], "--out-basis", outs[2]]
                    reads = [stem + ".stab"]
                    inputs.append(("reduce", s))
                    parts += ["reduce", text]
                else:
                    adj, op = ReduceDecompose._decompose_input(rng, n, shares[r], lib)
                    gtext, otext = format_graph(adj), format_clifford(*op, n)
                    _write(stem + ".graph", gtext)
                    _write(stem + ".lc", otext)
                    outs = [stem + ".lcs"]
                    argv = ["decompose", stem + ".lc", stem + ".graph", "--quiet", "--out", outs[0]]
                    reads = [stem + ".lc", stem + ".graph"]
                    inputs.append(("decompose", (adj, op)))
                    parts += ["decompose", gtext, otext]
                requests.append({"kind": step, "argv": argv, "reads": reads, "writes": outs,
                                 "expect": 0, "allowed": [0]})
        plan = {"workload": ReduceDecompose.name, "requests": requests}
        return plan, {"inputs": inputs}, _digest(parts)

    Runner = CliRunner

    @staticmethod
    def check(plan, truth, summary, lib):
        errors, ok = _check_cli_common(plan, summary)
        n = ReduceDecompose.N
        full = (1 << n) - 1
        for idx in ok:
            kind, data = truth["inputs"][idx]
            outs = plan["requests"][idx]["writes"]
            if kind == "reduce":
                adj = parse_graph(_read(outs[0]))
                qn, a, b, c, d = parse_clifford(_read(outs[1]))
                r, cols = parse_matrix(_read(outs[2]))
                valid = (
                    len(adj) == n and qn == n and cols == n and _clifford_ok(n, a, b, c, d)
                    and arith.invert(r) is not None
                    and all(not (adj[i] >> i) & 1 for i in range(n))
                    and arith.transpose(adj, n) == adj
                )
                if not valid or arith.mat_mul(arith.apply_local_clifford(a, b, c, d, data), r) != (
                    arith.graph_stabilizer(adj)
                ):
                    errors.append(f"request {idx}: reduce witness fails Q.S.R = [adj; I]")
            else:
                adj, (a, b, c, d) = data
                numer = [(adj[i] if (a >> i) & 1 else 0) ^ (((b >> i) & 1) << i) for i in range(n)]
                denom = [(adj[i] if (c >> i) & 1 else 0) ^ (((d >> i) & 1) << i) for i in range(n)]
                image = arith.mat_mul(numer, arith.invert(denom))
                if any((image[i] >> i) & 1 for i in range(n)) or any(row & ~full for row in image):
                    errors.append(f"request {idx}: generated operation is not in-domain")
                    continue
                replay = adj
                for v in parse_sequence(_read(outs[0])):
                    replay = arith.local_complement(replay, v)
                if replay != image:
                    errors.append(f"request {idx}: sequence replay misses the graph action's image")
        return errors


WORKLOADS = {w.name: w for w in (Census, EquivMixed, ReduceDecompose)}
