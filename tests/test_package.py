import ghzent

# The public names, pinned so that one is added or dropped only on purpose.
PUBLIC_NAMES = {
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
}


def test_public_names_are_pinned():
    assert len(ghzent.__all__) == len(PUBLIC_NAMES) == 29
    assert set(ghzent.__all__) == PUBLIC_NAMES
    for name in ghzent.__all__:
        assert hasattr(ghzent, name), name
