"""Biseparability and full N-partite entanglement for GHZ-diagonal states.

An N-qubit GHZ-diagonal state is a mixture of the 2^N GHZ basis projectors.
For each bipartition the partial transpose decomposes into 4-dimensional
blocks whose eigenvalues are closed-form affine functions of the mixing
weights, so separability across that cut reduces to a handful of sign
checks.  The state is fully N-partite entangled exactly when every
bipartition fails its check.  "Fully entangled" here means NPT on every
cut; it is not genuine multipartite entanglement, because a mixture of
states that are each separable across some cut can still be NPT on every
cut.

The analytic path (:mod:`ghzent.analytic`) scales to two dozen qubits; the
dense path (:mod:`ghzent.oracle`) factorizes the partial transpose's blocks,
built from the density matrix's entries, and is kept as an independent
cross-check for small N.
"""

from .subsets import (
    MAX_QUBITS,
    Bipartition,
    SubsetMask,
    enumerate_bipartitions,
)
from .state import (
    GhzDiagonalState,
    load_state,
    random_state,
    state_from_json_dict,
    state_to_json_dict,
)
from .analytic import (
    ClassificationReport,
    CoefficientWitness,
    PartitionVerdict,
    classify,
    full_entanglement_threshold,
    is_ppt,
    noise_threshold,
)
from .oracle import DEFAULT_ORACLE, is_ppt_dense

__version__ = "0.1.0"

__all__ = [
    "MAX_QUBITS",
    "SubsetMask",
    "Bipartition",
    "enumerate_bipartitions",
    "GhzDiagonalState",
    "random_state",
    "state_to_json_dict",
    "state_from_json_dict",
    "load_state",
    "CoefficientWitness",
    "PartitionVerdict",
    "ClassificationReport",
    "is_ppt",
    "classify",
    "noise_threshold",
    "full_entanglement_threshold",
    "DEFAULT_ORACLE",
    "is_ppt_dense",
    "__version__",
]
