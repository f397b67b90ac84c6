"""Independent dense statevector checks for the binary formalism.

Everything here is deliberately naive complex linear algebra on 2^n
amplitudes: graph states built by controlled-Z circuits, Pauli action with
phases, and a table of the 24 single-qubit Clifford unitaries for lifting
binary local Clifford operations back to Hilbert space. None of the checks
reuse the GF(2) arithmetic they are meant to validate.

Basis indexing is little-endian: qubit 1 is the least significant bit of the
amplitude index.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from stabgraph import gf2
from stabgraph.errors import InternalError

ORACLE_QUBIT_LIMIT = 12
ATOL = 1e-9


class TooLargeError(ValueError):
    def __init__(self, n):
        super().__init__(f"{n} qubits exceeds the dense-oracle limit of {ORACLE_QUBIT_LIMIT}")


class StateVector:
    """Normalized pure state on n qubits; amplitudes indexed little-endian."""

    __slots__ = ("n", "amplitudes")

    def __init__(self, n, amplitudes):
        amplitudes = np.asarray(amplitudes, dtype=complex)
        if amplitudes.shape != (1 << n,):
            raise ValueError(f"expected {1 << n} amplitudes, got {amplitudes.shape}")
        if abs(np.linalg.norm(amplitudes) - 1.0) > ATOL:
            raise ValueError("state is not normalized")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amplitudes", amplitudes)
        amplitudes.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("StateVector is immutable")

    def inner(self, other):
        """<self|other>."""
        if self.n != other.n:
            raise ValueError("qubit count mismatch")
        return complex(np.vdot(self.amplitudes, other.amplitudes))


class SingleQubitClifford:
    """A 2x2 Clifford unitary together with its conjugation action on (Z, X).

    The stored action is the 2x2 binary matrix [[a, b], [c, d]] with
    U Z U+ = +-(Z^a X^c phases) and U X U+ = +-(Z^b X^d phases), matching the
    block-diagonal convention of the binary picture.
    """

    __slots__ = ("unitary", "symplectic", "word")

    def __init__(self, unitary, symplectic, word):
        object.__setattr__(self, "unitary", unitary)
        object.__setattr__(self, "symplectic", symplectic)
        object.__setattr__(self, "word", word)
        unitary.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("SingleQubitClifford is immutable")

    def __repr__(self):
        return f"SingleQubitClifford({self.word or 'I'}, {self.symplectic})"


_SQ2 = 1.0 / np.sqrt(2.0)
_H = np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)
_S = np.array([[1.0, 0.0], [0.0, 1.0j]], dtype=complex)
_PAULI_1Q = {
    (0, 0): np.eye(2, dtype=complex),
    (0, 1): np.array([[0, 1], [1, 0]], dtype=complex),
    (1, 0): np.array([[1, 0], [0, -1]], dtype=complex),
    (1, 1): np.array([[0, -1j], [1j, 0]], dtype=complex),
}

_TABLE = None


def _phase_canonical(u):
    flat = u.flatten()
    for v in flat:
        if abs(v) > 1e-6:
            u = u * (v.conjugate() / abs(v))
            break
    return tuple(np.round(u, 9).flatten().tolist())


def _conjugation_image(u, pauli):
    """Match u.pauli.u+ against +-(one of X, Z, Y); returns the (z, x) bits."""
    img = u @ pauli @ u.conj().T
    for zx, mat in _PAULI_1Q.items():
        if zx == (0, 0):
            continue
        if np.allclose(img, mat, atol=ATOL) or np.allclose(img, -mat, atol=ATOL):
            return zx
    raise InternalError("conjugation image is not a signed Pauli")


def clifford_table():
    """All 24 single-qubit Cliffords up to global phase, grouped lazily.

    Generated as words of length <= 6 over the Hadamard and phase gates;
    exactly 24 survive phase deduplication and they cover each of the 6
    binary 2x2 actions exactly 4 times.
    """
    global _TABLE
    if _TABLE is None:
        seen = {}
        for length in range(7):
            for word in product("HS", repeat=length):
                u = np.eye(2, dtype=complex)
                for ch in word:
                    u = (_H if ch == "H" else _S) @ u
                key = _phase_canonical(u)
                if key not in seen:
                    z_img = _conjugation_image(u, _PAULI_1Q[(1, 0)])
                    x_img = _conjugation_image(u, _PAULI_1Q[(0, 1)])
                    sym = (z_img[0], x_img[0], z_img[1], x_img[1])
                    seen[key] = SingleQubitClifford(u, sym, "".join(word))
        entries = list(seen.values())
        if len(entries) != 24:
            raise InternalError(f"expected 24 single-qubit Cliffords, found {len(entries)}")
        by_sym = {}
        for e in entries:
            by_sym.setdefault(e.symplectic, []).append(e)
        if len(by_sym) != 6 or any(len(v) != 4 for v in by_sym.values()):
            raise InternalError("single-qubit Clifford table has the wrong coset structure")
        _TABLE = (entries, by_sym)
    return _TABLE[0]


def _table_by_symplectic():
    clifford_table()
    return _TABLE[1]


def build_graph_state(g):
    """Graph state: controlled-Z across every edge of the uniform superposition.

    The construction is validated against its defining property before being
    returned: applying the generator X_j (Z on the neighbors of j) must leave
    the state fixed, for every vertex j.
    """
    n = g.n
    if n > ORACLE_QUBIT_LIMIT:
        raise TooLargeError(n)
    amps = np.full(1 << n, 1.0 / np.sqrt(1 << n), dtype=complex)
    idx = np.arange(1 << n)
    for i, j in g.edges():
        both = ((idx >> (i - 1)) & 1) & ((idx >> (j - 1)) & 1)
        amps = np.where(both == 1, -amps, amps)
    state = StateVector(n, amps)
    if defining_equation_error(state, g) > ATOL:
        raise InternalError("graph state construction violates its defining equations")
    return state


def _graph_generator(g, j):
    """The (z, x) bits of the stabilizer generator at vertex j, from the adjacency bits."""
    return g.adj.row_ints[j - 1], 1 << (j - 1)


def defining_equation_error(state, g):
    """Max amplitude deviation of generator_j |psi> from |psi| over all vertices j."""
    worst = 0.0
    for j in range(1, g.n + 1):
        moved = apply_pauli(state, _graph_generator(g, j))
        worst = max(worst, float(np.max(np.abs(moved.amplitudes - state.amplitudes))))
    return worst


def apply_pauli(state, p):
    """Exact tensor-product Pauli action, phases included; ``p`` is a (z, x) pair of ints."""
    z, x = p
    if (z | x) >> state.n:
        raise ValueError("qubit count mismatch")
    amps = state.amplitudes
    idx = np.arange(1 << state.n)
    for q in range(state.n):
        zb = (z >> q) & 1
        xb = (x >> q) & 1
        if not zb and not xb:
            continue
        bit = (idx >> q) & 1
        if zb and xb:
            amps = amps[idx ^ (1 << q)] * np.where(bit == 1, 1j, -1j)
        elif xb:
            amps = amps[idx ^ (1 << q)]
        else:
            amps = np.where(bit == 1, -amps, amps)
    return StateVector(state.n, amps)


def apply_single_qubit(state, u, qubit):
    """Apply a 2x2 unitary at the given qubit (1-based)."""
    if not 1 <= qubit <= state.n:
        raise ValueError(f"qubit {qubit} out of range 1..{state.n}")
    q = qubit - 1
    amps = state.amplitudes.copy()
    idx = np.arange(1 << state.n)
    low = idx[(idx >> q) & 1 == 0]
    high = low ^ (1 << q)
    a0 = amps[low].copy()
    a1 = amps[high].copy()
    amps[low] = u[0, 0] * a0 + u[0, 1] * a1
    amps[high] = u[1, 0] * a0 + u[1, 1] * a1
    return StateVector(state.n, amps)


def lift_local_clifford(q):
    """Pick one concrete unitary per qubit realizing the binary blocks.

    Returns a list of SingleQubitClifford, qubit 1 first. The four table
    entries per binary action differ only by Pauli factors, so any of them is
    an acceptable lift.
    """
    table = _table_by_symplectic()
    gates = []
    for i in range(1, q.n + 1):
        key = tuple((v.bits >> (i - 1)) & 1 for v in (q.a, q.b, q.c, q.d))
        entries = table.get(key)
        if not entries:
            raise InternalError(f"no single-qubit Clifford matches blocks {key}")
        gates.append(entries[0])
    return gates


def apply_lifted(state, gates):
    """Apply per-qubit lifted unitaries (gate k acts on qubit k+1)."""
    if len(gates) != state.n:
        raise ValueError("need one gate per qubit")
    for i, gate in enumerate(gates, start=1):
        state = apply_single_qubit(state, gate.unitary, i)
    return state


def stabilized_up_to_signs(state, stab):
    """True iff the state is a +-1 eigenvector of every generator column."""
    if stab.n != state.n:
        raise ValueError("qubit count mismatch")
    n = stab.n
    for col in gf2.transpose(stab.s).row_ints:  # generator j: n Z bits, then n X bits
        val = state.inner(apply_pauli(state, (col & ((1 << n) - 1), col >> n)))
        if abs(abs(val) - 1.0) > ATOL:
            return False
    return True


def stabilized_state(stab, seed=0):
    """The joint +1 eigenvector of the generators, by projector products.

    Applies (I + M_j)/2 for every generator to a seeded random vector and
    normalizes; independence of the generators makes the target eigenspace
    one-dimensional, so the result is the stabilized state (up to phase).
    """
    n = stab.n
    if n > ORACLE_QUBIT_LIMIT:
        raise TooLargeError(n)
    rng = np.random.default_rng(seed)
    for _ in range(16):
        amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
        amps /= np.linalg.norm(amps)
        state = StateVector(n, amps)
        ok = True
        for col in gf2.transpose(stab.s).row_ints:  # generator j: n Z bits, then n X bits
            moved = apply_pauli(state, (col & ((1 << n) - 1), col >> n))
            amps = (state.amplitudes + moved.amplitudes) / 2.0
            norm = np.linalg.norm(amps)
            if norm < 1e-12:
                ok = False
                break
            state = StateVector(n, amps / norm)
        if ok:
            return state
    raise InternalError("projector products annihilated every trial vector")
