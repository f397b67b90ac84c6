"""Binary symplectic stabilizer toolkit.

Graph states, local complementation orbits, reduction of stabilizers to
graph-state standard form, decomposition of local Clifford actions into
complementation sequences, and an equivalence solver, all over bit-packed
GF(2) linear algebra.
"""

from .clifford import (
    InvalidCliffordError,
    LocalCliffordOp,
    NotInDomainError,
    complete_from_cd,
    graph_action,
)
from .decomposition import (
    LCSequence,
    Single,
    Triple,
    apply_sequence,
    decompose_action,
)
from .equivalence import (
    Equivalent,
    Inequivalent,
    test_equivalence,
    test_equivalence_graphs,
)
from .gf2 import BitMatrix, BitVec, SingularError
from .graphs import Graph, local_complement
from .orbit import CapExceededError, Orbit, enumerate_orbit
from .reduction import ReductionWitness, to_graph_state, verify_witness
from .stabilizer import StabilizerGenMatrix, from_graph, same_subspace

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BitVec",
    "CapExceededError",
    "Equivalent",
    "Graph",
    "Inequivalent",
    "InvalidCliffordError",
    "LCSequence",
    "LocalCliffordOp",
    "NotInDomainError",
    "Orbit",
    "ReductionWitness",
    "Single",
    "SingularError",
    "StabilizerGenMatrix",
    "Triple",
    "apply_sequence",
    "complete_from_cd",
    "decompose_action",
    "enumerate_orbit",
    "from_graph",
    "graph_action",
    "local_complement",
    "same_subspace",
    "test_equivalence",
    "test_equivalence_graphs",
    "to_graph_state",
    "verify_witness",
]
