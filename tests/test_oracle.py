import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import ghzent.oracle
import ghzent.state
from ghzent.analytic import COEFFICIENT_TOL, classify
from ghzent.cli import pt_spectrum_vs_coefficients
from ghzent.oracle import (
    DEFAULT_ORACLE,
    OracleTolerances,
    eigenvalues_symmetric,
    is_ppt_dense,
    partial_transpose,
)
from ghzent.state import (
    DenseOperator,
    GhzDiagonalState,
    mix_with_white_noise,
    random_state,
    to_dense,
)
from ghzent.subsets import SubsetMask, enumerate_bipartitions
from test_analytic import ghz_at, sparse_states


def random_symmetric(rng, n):
    a = rng.normal(size=(1 << n, 1 << n))
    return DenseOperator.from_matrix((a + a.T) / 2)


def test_partial_transpose_empty_and_full_masks():
    rng = np.random.default_rng(3)
    rho = random_symmetric(rng, 3)
    identity = partial_transpose(rho, SubsetMask(0, 3))
    assert np.array_equal(identity.matrix, rho.matrix)
    # transposing every qubit is a plain transpose, a no-op on symmetric input
    full = partial_transpose(rho, SubsetMask(7, 3))
    assert np.array_equal(full.matrix, rho.matrix)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        rho = random_symmetric(rng, n)
        alpha = SubsetMask(int(rng.integers(0, 1 << n)), n)
        twice = partial_transpose(partial_transpose(rho, alpha), alpha)
        assert np.array_equal(twice.matrix, rho.matrix)


def test_partial_transpose_composes_over_disjoint_masks():
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        rho = random_symmetric(rng, n)
        bits_a = int(rng.integers(0, 1 << n))
        bits_b = int(rng.integers(0, 1 << n)) & ~bits_a
        a = SubsetMask(bits_a, n)
        b = SubsetMask(bits_b, n)
        ab = SubsetMask(bits_a | bits_b, n)
        left = partial_transpose(partial_transpose(rho, a), b)
        right = partial_transpose(rho, ab)
        assert np.array_equal(left.matrix, right.matrix)


def test_partial_transpose_preserves_trace_and_symmetry():
    rng = np.random.default_rng(33)
    rho = random_symmetric(rng, 4)
    alpha = SubsetMask(0b1010, 4)  # qubits 1 and 3
    pt = partial_transpose(rho, alpha)
    assert np.trace(pt.matrix) == pytest.approx(np.trace(rho.matrix), abs=1e-12)
    assert np.array_equal(pt.matrix, pt.matrix.T)


def test_partial_transpose_on_complement_gives_same_spectrum():
    # transposing the other group is a full transpose away, so eigenvalues agree
    for seed in range(5):
        s = random_state(4, seed)
        rho = to_dense(s)
        for p in enumerate_bipartitions(4):
            ev1 = eigenvalues_symmetric(partial_transpose(rho, p.alpha1)).eigenvalues
            ev2 = eigenvalues_symmetric(partial_transpose(rho, p.alpha2)).eigenvalues
            assert np.allclose(ev1, ev2, atol=1e-12)


def test_eigenvalues_match_library_solver():
    rng = np.random.default_rng(43)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        rho = random_symmetric(rng, n)
        result = eigenvalues_symmetric(rho)
        expected = np.linalg.eigvalsh(rho.matrix)
        assert np.allclose(result.eigenvalues, expected, atol=1e-10)
        assert np.all(np.diff(result.eigenvalues) >= 0)
        assert result.min_eigenvalue == result.eigenvalues[0]
        assert result.residual < 1e-10


def test_eigenvalues_validation():
    with pytest.raises(ValueError, match="square"):
        eigenvalues_symmetric(np.zeros((3, 4)))
    with pytest.raises(ValueError, match="power of two"):
        eigenvalues_symmetric(np.eye(3))
    asym = np.zeros((4, 4))
    asym[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        eigenvalues_symmetric(asym)
    with pytest.raises(ValueError, match="1..10 qubits, got 11"):
        eigenvalues_symmetric(np.zeros((2048, 2048)))  # above the dense cap
    # an operator checked when it was built is checked again: its matrix is writable
    rho = DenseOperator.from_matrix(np.eye(4))
    rho.matrix[0, 1] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        eigenvalues_symmetric(rho)


def test_spectrum_result_read_only():
    result = eigenvalues_symmetric(np.eye(4))
    with pytest.raises(ValueError):
        result.eigenvalues[0] = -1.0


def test_maximally_mixed_is_ppt_everywhere():
    for n in range(2, 6):
        s = GhzDiagonalState.maximally_mixed(n)
        assert all(is_ppt_dense(s, p) for p in enumerate_bipartitions(n))


def test_pure_ghz_is_npt_everywhere():
    for n in range(2, 6):
        s = GhzDiagonalState.pure_ghz(n)
        assert not any(is_ppt_dense(s, p) for p in enumerate_bipartitions(n))


def test_dense_comparison_cap():
    s = random_state(11, 0)
    with pytest.raises(ValueError, match="capped at 10 qubits, got n=11"):
        is_ppt_dense(s, enumerate_bipartitions(11)[0])
    with pytest.raises(ValueError, match="mixed qubit counts 4 and 3"):
        is_ppt_dense(random_state(3, 0), enumerate_bipartitions(4)[0])


def test_custom_tolerances_change_the_call():
    s = GhzDiagonalState.pure_ghz(3)
    p = enumerate_bipartitions(3)[0]
    generous = OracleTolerances(psd_tol=2.0)
    assert is_ppt_dense(s, p, generous)  # minimum eigenvalue is -1/2
    assert not is_ppt_dense(s, p, DEFAULT_ORACLE)


def test_spectrum_matches_block_coefficients():
    rng = np.random.default_rng(53)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        s = random_state(n, int(rng.integers(0, 10_000)))
        for p in enumerate_bipartitions(n):
            dense = eigenvalues_symmetric(partial_transpose(to_dense(s), p.alpha1)).eigenvalues
            assert pt_spectrum_vs_coefficients(s, p, dense) < 1e-12


def partial_transpose_by_bits(rho, alpha):
    """Reference: swap the alpha bits of the row and column index of every element."""
    dim = rho.dim
    m = alpha.bits
    keep = (dim - 1) ^ m
    r = np.arange(dim)[:, None]
    c = np.arange(dim)[None, :]
    return rho.matrix[(r & keep) | (c & m), (c & keep) | (r & m)]


@pytest.mark.parametrize("n", range(1, 7))
def test_partial_transpose_equals_bit_formula_for_every_mask(n):
    rng = np.random.default_rng(60 + n)
    rho = random_symmetric(rng, n)
    for bits in range(1 << n):
        alpha = SubsetMask(bits, n)
        pt = partial_transpose(rho, alpha)
        assert np.array_equal(pt.matrix, partial_transpose_by_bits(rho, alpha))
        assert not np.shares_memory(pt.matrix, rho.matrix)  # fresh, even for the empty mask


CUSTOM_TOLERANCES = (
    DEFAULT_ORACLE,
    OracleTolerances(psd_tol=1e-9),
    OracleTolerances(psd_tol=0.01),
)


def assert_eigenvalue_rule(state, partition):
    """is_ppt_dense decides: smallest PT eigenvalue >= -psd_tol, for each tolerance set."""
    pt = partial_transpose(to_dense(state), partition.alpha1)
    low = eigenvalues_symmetric(pt).min_eigenvalue
    for tolerances in CUSTOM_TOLERANCES:
        assert is_ppt_dense(state, partition, tolerances) == (low >= -tolerances.psd_tol)


def verdict_corpus(n):
    p_star = (1 << n) / ((1 << n) + 2)
    yield random_state(n, 70 + n)
    yield random_state(n, 80 + n)
    for delta in (1e-3, 1e-6, 1e-9, 1e-11, 3e-12):
        yield ghz_at(n, p_star - delta)
        yield ghz_at(n, p_star + delta)
    yield mix_with_white_noise(random_state(n, 90 + n), 0.995)  # near maximally mixed
    sparse = np.zeros((2, 1 << (n - 1)))
    sparse[0, 0], sparse[0, 1], sparse[1, -1] = 0.5, 0.2, 0.3
    yield GhzDiagonalState(n, *(sparse / sparse.sum()))
    yield GhzDiagonalState.pure_ghz(n)
    yield GhzDiagonalState.maximally_mixed(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_is_ppt_dense_returns_the_eigenvalue_rule_on_a_corpus(n):
    partitions = enumerate_bipartitions(n)
    # about a dozen cuts per state at n >= 6 keeps the eigensolver reference cheap
    partitions = partitions[:: max(1, len(partitions) // 12)]
    for state in verdict_corpus(n):
        for partition in partitions:
            assert_eigenvalue_rule(state, partition)


@settings(max_examples=150, deadline=None)
@given(sparse_states(max_n=6))  # exact zeros in the PT spectrum
def test_is_ppt_dense_returns_the_eigenvalue_rule_on_sparse_weights(state):
    for partition in enumerate_bipartitions(state.n):
        assert_eigenvalue_rule(state, partition)


def test_default_psd_tol_is_the_coefficient_tolerance_in_eigenvalue_units():
    assert DEFAULT_ORACLE.psd_tol == COEFFICIENT_TOL / 2


def test_oracle_module_imports_nothing_from_analytic():
    # Read from the source: importing ghzent.oracle runs ghzent/__init__,
    # which imports analytic whatever the oracle does.
    path = Path(ghzent.oracle.__file__)
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert ".state" in imported  # the walk sees the module's relative imports
    assert not {".analytic", "analytic", "ghzent.analytic"} & imported


@pytest.mark.parametrize("bad", [0.0, -1e-12, float("nan"), float("inf")])
def test_psd_tol_must_be_positive_and_finite(bad):
    # at 0 a zero PT eigenvalue would fail the Cholesky test, though 0 >= -0
    with pytest.raises(ValueError, match="psd_tol"):
        OracleTolerances(psd_tol=bad)


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("delta", [1e-9, 1e-11, 3e-12])
def test_analytic_and_dense_agree_next_to_the_ghz_threshold(n, delta):
    p_star = (1 << n) / ((1 << n) + 2)
    partitions = enumerate_bipartitions(n)
    for p, ppt in ((p_star - delta, False), (p_star + delta, True)):
        state = ghz_at(n, p)
        report = classify(state)
        assert report.ppt.tolist() == [ppt] * len(partitions)
        assert [is_ppt_dense(state, part) for part in partitions] == [ppt] * len(partitions)


def test_analytic_and_dense_agree_next_to_the_ghz_threshold_at_n9():
    # Every 8th cut plus the last keeps the 512-dimensional Cholesky tests
    # to a few dozen per state.
    n = 9
    partitions = enumerate_bipartitions(n)
    picked = partitions[::8] + [partitions[-1]]
    p_star = (1 << n) / ((1 << n) + 2)
    for p, ppt in ((p_star - 3e-12, False), (p_star + 3e-12, True)):
        state = ghz_at(n, p)
        assert classify(state).ppt.tolist() == [ppt] * len(partitions)
        assert [is_ppt_dense(state, part) for part in picked] == [ppt] * len(picked)


def test_dense_matrix_is_built_once_per_state(monkeypatch):
    build = ghzent.state._dense_from_weights
    builds = []

    def counting_build(*args):
        builds.append(args[0])
        return build(*args)

    monkeypatch.setattr(ghzent.state, "_dense_from_weights", counting_build)
    state = random_state(7, 31)
    partitions = enumerate_bipartitions(7)
    assert len(partitions) == 63
    verdicts = [is_ppt_dense(state, part) for part in partitions]
    assert verdicts == classify(state).ppt.tolist()
    assert builds == [7]

    rho = to_dense(state)
    assert rho is to_dense(state)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0
    # the in-place shift of every Cholesky test landed on a copy
    assert np.array_equal(rho.matrix, build(7, state.lambda_plus, state.lambda_minus))

    noisy = mix_with_white_noise(state, 0.3)
    assert to_dense(noisy) is not rho
    assert builds == [7, 7]
