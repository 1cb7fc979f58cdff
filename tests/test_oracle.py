import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import ghzent.oracle
from ghz_reference import mix_with_white_noise, pt_spectrum_deviation
from ghzent.analytic import COEFFICIENT_TOL, classify
from ghzent.oracle import (
    DEFAULT_ORACLE,
    OracleTolerances,
    eigenvalues_symmetric,
    is_ppt_dense,
    partial_transpose,
    to_dense,
)
from ghzent.state import GhzDiagonalState, random_state
from ghzent.subsets import SubsetMask, enumerate_bipartitions
from test_analytic import ghz_at, sparse_states


def random_symmetric(rng, n):
    a = rng.normal(size=(1 << n, 1 << n))
    return (a + a.T) / 2


def test_partial_transpose_empty_and_full_masks():
    rng = np.random.default_rng(3)
    rho = random_symmetric(rng, 3)
    identity = partial_transpose(rho, SubsetMask(0, 3))
    assert np.array_equal(identity, rho)
    # transposing every qubit is a plain transpose, a no-op on symmetric input
    full = partial_transpose(rho, SubsetMask(7, 3))
    assert np.array_equal(full, rho)


def test_partial_transpose_is_involution():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        rho = random_symmetric(rng, n)
        alpha = SubsetMask(int(rng.integers(0, 1 << n)), n)
        twice = partial_transpose(partial_transpose(rho, alpha), alpha)
        assert np.array_equal(twice, rho)


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
        assert np.array_equal(left, right)


def test_partial_transpose_preserves_trace_and_symmetry():
    rng = np.random.default_rng(33)
    rho = random_symmetric(rng, 4)
    alpha = SubsetMask(0b1010, 4)  # qubits 1 and 3
    pt = partial_transpose(rho, alpha)
    assert np.trace(pt) == pytest.approx(np.trace(rho), abs=1e-12)
    assert np.array_equal(pt, pt.T)


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
        expected = np.linalg.eigvalsh(rho)
        assert np.allclose(result.eigenvalues, expected, atol=1e-10)
        assert np.all(np.diff(result.eigenvalues) >= 0)
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
    with pytest.raises(ValueError, match=r"symmetric, worst element \(0,1\)"):
        eigenvalues_symmetric(asym.tolist())  # any array-like is read as float64
    with pytest.raises(ValueError, match="1..10 qubits, got 11"):
        eigenvalues_symmetric(np.zeros((2048, 2048)))  # above the dense cap
    with pytest.raises(ValueError, match="1..10 qubits, got 0"):
        eigenvalues_symmetric(np.eye(1))
    with pytest.raises(ValueError, match="power of two"):
        eigenvalues_symmetric(np.zeros((0, 0)))
    with pytest.raises(ValueError, match="square"):
        eigenvalues_symmetric(np.zeros(4))


def test_partial_transpose_validation():
    with pytest.raises(ValueError, match="mixed qubit counts 2 and 3"):
        partial_transpose(np.eye(8), SubsetMask(1, 2))
    with pytest.raises(ValueError, match="square"):
        partial_transpose(np.zeros((4, 2)), SubsetMask(1, 2))
    with pytest.raises(ValueError, match="square"):
        partial_transpose(np.zeros(16), SubsetMask(1, 2))
    with pytest.raises(ValueError, match="power of two"):
        partial_transpose(np.eye(3), SubsetMask(1, 2))


def test_partial_transpose_reads_a_read_only_input():
    rho = random_symmetric(np.random.default_rng(9), 3)
    before = rho.copy()
    rho.flags.writeable = False
    pt = partial_transpose(rho, SubsetMask(0b101, 3))
    assert np.array_equal(rho, before)
    assert pt.flags.writeable and pt.flags.c_contiguous


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
    with pytest.raises(ValueError, match="dense path supports 1..10 qubits, got 11"):
        is_ppt_dense(s, enumerate_bipartitions(11)[0])
    with pytest.raises(ValueError, match="mixed qubit counts 4 and 3"):
        is_ppt_dense(random_state(3, 0), enumerate_bipartitions(4)[0])


def test_custom_tolerances_change_the_call(monkeypatch):
    # is_ppt_dense reads ghzent.oracle.DEFAULT_ORACLE at each call, not at import
    s = GhzDiagonalState.pure_ghz(3)
    p = enumerate_bipartitions(3)[0]
    assert not is_ppt_dense(s, p)
    monkeypatch.setattr(ghzent.oracle, "DEFAULT_ORACLE", OracleTolerances(psd_tol=2.0))
    assert is_ppt_dense(s, p)  # minimum eigenvalue is -1/2
    monkeypatch.undo()
    assert not is_ppt_dense(s, p)


@pytest.mark.parametrize("n", range(2, 9))
def test_spectrum_matches_block_coefficients(n):
    # every cut up to n = 7, every 8th at n = 8; random states and GHZ next to p*
    partitions = enumerate_bipartitions(n)[:: 8 if n == 8 else 1]
    p_star = (1 << n) / ((1 << n) + 2)
    states = [random_state(n, 53 + 10 * n + i) for i in range(3)]
    states += [ghz_at(n, p_star - 3e-12), ghz_at(n, p_star + 3e-12)]
    for s in states:
        for p in partitions:
            dense = eigenvalues_symmetric(partial_transpose(to_dense(s), p.alpha1)).eigenvalues
            assert pt_spectrum_deviation(s, p, dense) < 1e-12


def partial_transpose_by_bits(rho, alpha):
    """Reference: swap the alpha bits of the row and column index of every element."""
    dim = len(rho)
    m = alpha.bits
    keep = (dim - 1) ^ m
    r = np.arange(dim)[:, None]
    c = np.arange(dim)[None, :]
    return rho[(r & keep) | (c & m), (c & keep) | (r & m)]


@pytest.mark.parametrize("n", range(1, 7))
def test_partial_transpose_equals_bit_formula_for_every_mask(n):
    rng = np.random.default_rng(60 + n)
    rho = random_symmetric(rng, n)
    for bits in range(1 << n):
        alpha = SubsetMask(bits, n)
        pt = partial_transpose(rho, alpha)
        assert np.array_equal(pt, partial_transpose_by_bits(rho, alpha))
        assert not np.shares_memory(pt, rho)  # fresh, even for the empty mask


CUSTOM_TOLERANCES = (
    DEFAULT_ORACLE,
    OracleTolerances(psd_tol=1e-9),
    OracleTolerances(psd_tol=0.01),
)


def assert_eigenvalue_rule(state, partition):
    """is_ppt_dense decides: smallest PT eigenvalue >= -psd_tol, for each tolerance set.

    Each set is swapped in as ``ghzent.oracle.DEFAULT_ORACLE``, which is_ppt_dense reads.
    """
    pt = partial_transpose(to_dense(state), partition.alpha1)
    low = eigenvalues_symmetric(pt).eigenvalues[0]
    for tolerances in CUSTOM_TOLERANCES:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ghzent.oracle, "DEFAULT_ORACLE", tolerances)
            assert is_ppt_dense(state, partition) == (low >= -tolerances.psd_tol)


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


@pytest.mark.parametrize("n", range(2, 9))
def test_partial_transpose_of_a_state_is_exactly_symmetric_on_every_cut(n):
    # eigenvalues_symmetric rejects a matrix that is not exactly symmetric,
    # and oracle-check hands it this one
    for state in verdict_corpus(n):
        rho = to_dense(state)
        assert np.array_equal(rho, rho.T)
        for p in enumerate_bipartitions(n):
            pt = partial_transpose(rho, p.alpha1)
            assert np.array_equal(pt, pt.T)


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


def assert_every_cut_flips_at_the_ghz_threshold(n):
    partitions = enumerate_bipartitions(n)
    p_star = (1 << n) / ((1 << n) + 2)
    for p, ppt in ((p_star - 3e-12, False), (p_star + 3e-12, True)):
        state = ghz_at(n, p)
        assert classify(state).ppt.tolist() == [ppt] * len(partitions)
        assert [is_ppt_dense(state, part) for part in partitions] == [ppt] * len(partitions)


def test_analytic_and_dense_agree_next_to_the_ghz_threshold_at_n9():
    assert_every_cut_flips_at_the_ghz_threshold(9)  # 255 cuts


def test_analytic_and_dense_agree_next_to_the_ghz_threshold_at_n10():
    assert_every_cut_flips_at_the_ghz_threshold(10)  # 511 cuts, the dense cap


def test_dense_matrix_is_built_once_per_state(monkeypatch):
    build = ghzent.oracle._dense_from_weights
    builds = []

    def counting_build(*args):
        builds.append(args[0])
        return build(*args)

    monkeypatch.setattr(ghzent.oracle, "_dense_from_weights", counting_build)
    state = random_state(7, 31)
    partitions = enumerate_bipartitions(7)
    assert len(partitions) == 63
    verdicts = [is_ppt_dense(state, part) for part in partitions]
    assert verdicts == classify(state).ppt.tolist()
    assert builds == []  # is_ppt_dense works on the entries, never on a matrix

    rho = to_dense(state)
    assert rho is to_dense(state)
    assert builds == [7]
    with pytest.raises(ValueError):
        rho[0, 0] = 1.0
    assert np.array_equal(rho, build(7, state.lambda_plus, state.lambda_minus))

    noisy = mix_with_white_noise(state, 0.3)
    assert to_dense(noisy) is not rho
    assert builds == [7, 7]


def scatter(dim, rows, cols, values):
    m = np.zeros((dim, dim))
    m[rows, cols] = values
    return m


@pytest.mark.parametrize("n", range(2, 11))
def test_entries_scatter_into_the_dense_matrix(n):
    for state in (random_state(n, 100 + n), ghz_at(n, 0.5), GhzDiagonalState.pure_ghz(n)):
        rows, cols, values = ghzent.oracle._entries(n, state.lambda_plus, state.lambda_minus)
        assert len(rows) == len(cols) == len(values) == 1 << (n + 1)
        assert len(set(zip(rows.tolist(), cols.tolist()))) == 1 << (n + 1)  # one position each
        assert np.array_equal(scatter(1 << n, rows, cols, values), to_dense(state))


@pytest.mark.parametrize("n", range(2, 9))
def test_is_ppt_dense_tests_the_partial_transpose_on_every_cut(n, monkeypatch):
    # The entries is_ppt_dense hands to the block test, scattered, are the
    # dense partial transpose, bit for bit; so is the shift.
    decide = ghzent.oracle._is_positive_definite
    seen = []

    def recording(dim, rows, cols, values, shift):
        seen.append((scatter(dim, rows, cols, values), shift))
        return decide(dim, rows, cols, values, shift)

    monkeypatch.setattr(ghzent.oracle, "_is_positive_definite", recording)
    for state in (random_state(n, 110 + n), ghz_at(n, 0.6), GhzDiagonalState.maximally_mixed(n)):
        for p in enumerate_bipartitions(n):
            seen.clear()
            is_ppt_dense(state, p)
            [(moved, shift)] = seen
            assert np.array_equal(moved, partial_transpose(to_dense(state), p.alpha1))
            assert shift == DEFAULT_ORACLE.psd_tol


def random_block_matrix(rng, dim, tol):
    """A symmetric matrix that is block-diagonal under a random symmetric permutation.

    Each block's smallest eigenvalue is clearly positive, zero, just inside
    or just outside the shift, clearly negative, or the block has no entries
    at all.  Half the matrices get no outside or negative block, so both
    verdicts are common.  Some blocks are chains (tridiagonal in a shuffled
    index order), whose indices take several rounds to join.
    """
    kinds = ["definite", "singular", "inside", "empty"]
    if rng.random() < 0.5:
        kinds += ["outside", "indefinite"]
    m = np.zeros((dim, dim))
    order = rng.permutation(dim)
    cuts = np.sort(rng.choice(np.arange(1, dim), size=int(rng.integers(0, dim)), replace=False))
    for block in np.split(order, cuts):
        s = len(block)
        kind = rng.choice(kinds)
        if kind == "empty":
            continue
        low = {
            "definite": rng.uniform(0.1, 2.0),
            "singular": 0.0,
            "inside": -0.5 * tol,
            "outside": -2.0 * tol,
            "indefinite": -rng.uniform(0.1, 1.0),
        }[kind]
        if s > 2 and rng.random() < 0.5:
            b = np.diag(rng.uniform(0.3, 1.0, s - 1) * rng.choice([-1.0, 1.0], s - 1), 1)
            b += b.T
            b += (low - np.linalg.eigvalsh(b)[0]) * np.eye(s)
        else:
            q = np.linalg.qr(rng.normal(size=(s, s)))[0]
            eigs = rng.uniform(low, low + 2.0, size=s)
            eigs[rng.integers(s)] = low
            b = (q * eigs) @ q.T
            b = (b + b.T) / 2
        m[np.ix_(block, block)] = b
    return m


def test_block_test_agrees_with_dense_cholesky_on_matrices_that_are_not_ghz_diagonal():
    rng = np.random.default_rng(2024)
    verdicts = []
    for _ in range(400):
        dim = int(rng.integers(2, 65))
        tol = float(rng.choice([1e-3, 1e-2]))
        m = random_block_matrix(rng, dim, tol)
        rows, cols = np.nonzero(m)
        shuffle = rng.permutation(len(rows))
        rows, cols = rows[shuffle], cols[shuffle]
        try:
            np.linalg.cholesky(m + tol * np.eye(dim))
            dense = True
        except np.linalg.LinAlgError:
            dense = False
        got = ghzent.oracle._is_positive_definite(dim, rows, cols, m[rows, cols], tol)
        assert got == dense
        verdicts.append(dense)
    assert 0.1 < np.mean(verdicts) < 0.9  # both verdicts are well represented


@pytest.mark.parametrize("dim", [2, 7, 64])
def test_block_test_on_whole_matrix_single_blocks_and_empty_rows(dim):
    rng = np.random.default_rng(dim)
    g = rng.normal(size=(dim, dim))
    whole = g @ g.T + np.eye(dim)  # one block: every index joined
    rows, cols = np.nonzero(whole)
    assert ghzent.oracle._is_positive_definite(dim, rows, cols, whole[rows, cols], 1e-9)
    whole[0, 0] = -1.0
    assert not ghzent.oracle._is_positive_definite(dim, rows, cols, whole[rows, cols], 1e-9)
    # no entry at all: every row is a 1 x 1 zero block, positive once shifted
    none = np.array([], dtype=np.intp)
    assert ghzent.oracle._is_positive_definite(dim, none, none, np.array([]), 1e-9)
    # one negative diagonal entry among empty rows
    last = np.array([dim - 1])
    assert not ghzent.oracle._is_positive_definite(dim, last, last, np.array([-1e-6]), 1e-9)
    assert ghzent.oracle._is_positive_definite(dim, last, last, np.array([-1e-10]), 1e-9)
