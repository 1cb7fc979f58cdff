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
dense path (:mod:`ghzent.oracle`) builds the 2^N-dimensional matrices and
is kept as an independent cross-check for small N.
"""

from .subsets import (
    MAX_QUBITS,
    Bipartition,
    SubsetMask,
    enumerate_bipartitions,
)
from .state import (
    DenseOperator,
    GhzDiagonalState,
    dump_state,
    load_state,
    mix_with_white_noise,
    random_state,
    state_from_json_dict,
    state_to_json_dict,
    to_dense,
    twirl_to_ghz_diagonal,
)
from .analytic import (
    ClassificationReport,
    CoefficientWitness,
    PartitionVerdict,
    classify,
    coefficient_arrays,
    full_entanglement_threshold,
    is_ppt,
    noise_threshold,
)
from .oracle import (
    DEFAULT_ORACLE,
    OracleTolerances,
    SpectrumResult,
    eigenvalues_symmetric,
    is_ppt_dense,
    partial_transpose,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_QUBITS",
    "SubsetMask",
    "Bipartition",
    "enumerate_bipartitions",
    "GhzDiagonalState",
    "DenseOperator",
    "to_dense",
    "twirl_to_ghz_diagonal",
    "random_state",
    "mix_with_white_noise",
    "state_to_json_dict",
    "state_from_json_dict",
    "dump_state",
    "load_state",
    "CoefficientWitness",
    "PartitionVerdict",
    "ClassificationReport",
    "coefficient_arrays",
    "is_ppt",
    "classify",
    "noise_threshold",
    "full_entanglement_threshold",
    "OracleTolerances",
    "DEFAULT_ORACLE",
    "SpectrumResult",
    "partial_transpose",
    "eigenvalues_symmetric",
    "is_ppt_dense",
    "__version__",
]
