"""Brute-force ground truth for the analytic classifier: the whole dense route.

:func:`to_dense` writes the density matrix from the definition of the GHZ
projectors.  Nothing after it uses a GHZ identity: partial transposition
swaps tensor axes of the full matrix, and positivity is decided by a dense
Cholesky factorization, or read off a dense real-symmetric eigensolver
where a caller needs the spectrum.  That is the point of an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import GhzDiagonalState
from .subsets import Bipartition, SubsetMask

MAX_DENSE_QUBITS = 10


@dataclass(frozen=True)
class OracleTolerances:
    """The oracle's PSD tolerance.

    ``psd_tol`` is the analytic ``COEFFICIENT_TOL`` (1e-12) in eigenvalue
    units: partial-transpose eigenvalues are half the block coefficients, so
    both routes draw the PPT line at the same states.  It is a literal
    because this module imports nothing from ``analytic``; a test pins the
    two together.  It must be positive: the Cholesky test fails on a
    singular matrix, so at 0 it would call a partial transpose with a zero
    eigenvalue NPT.
    """

    psd_tol: float = 5e-13


DEFAULT_ORACLE = OracleTolerances()


@dataclass(frozen=True)
class SpectrumResult:
    """Full spectrum of a symmetric matrix, ascending, with a residual check."""

    eigenvalues: np.ndarray
    residual: float


def _check_dense_qubits(n: int) -> None:
    if not 1 <= n <= MAX_DENSE_QUBITS:
        raise ValueError(f"dense path supports 1..{MAX_DENSE_QUBITS} qubits, got {n}")


def to_dense(state: GhzDiagonalState) -> np.ndarray:
    """Dense matrix of the state: the weighted sum of its GHZ projectors.

    Class k's vectors (|k> +- |kc>)/sqrt(2), kc the complement of k, put
    (plus + minus)/2 on (k, k) and (kc, kc) and (plus - minus)/2 on (k, kc)
    and (kc, k), each from one array, so the matrix is exactly symmetric.
    Built on the first call and kept on the state: every later call returns
    the same read-only array, shared by every caller.
    """
    dense = state._dense
    if dense is None:
        _check_dense_qubits(state.n)
        dense = _dense_from_weights(state.n, state.lambda_plus, state.lambda_minus)
        dense.flags.writeable = False
        state._dense = dense
    return dense


def _dense_from_weights(n: int, lambda_plus: np.ndarray, lambda_minus: np.ndarray) -> np.ndarray:
    dim = 1 << n
    k = np.arange(1 << (n - 1))
    kc = k ^ (dim - 1)
    diag = (lambda_plus + lambda_minus) / 2.0
    anti = (lambda_plus - lambda_minus) / 2.0
    m = np.zeros((dim, dim))
    m[k, k] = diag
    m[kc, kc] = diag
    m[k, kc] = anti
    m[kc, k] = anti
    return m


def _qubit_count(matrix: np.ndarray) -> int:
    """n of a 2^n x 2^n matrix; ValueError for any other shape."""
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {matrix.shape}")
    n = (matrix.shape[0] - 1).bit_length()
    if (1 << n) != matrix.shape[0]:
        raise ValueError(f"dimension {matrix.shape[0]} is not a power of two")
    return n


def partial_transpose(matrix: np.ndarray, alpha: SubsetMask) -> np.ndarray:
    """Transpose the tensor factors of the qubits in ``alpha``.

    The matrix is viewed as a tensor with one row and one column axis per
    qubit, and the two axes of every qubit in ``alpha`` are swapped, which
    exchanges the alpha bits of the row and column indices.  The empty set
    is the identity; the full set is total transposition.  The input is
    only read, and the result is always a fresh C-ordered array.  Entries
    are only permuted, so the partial transpose of an exactly symmetric
    matrix is exactly symmetric.
    """
    n = _qubit_count(matrix)
    if alpha.n != n:
        raise ValueError(f"mixed qubit counts {alpha.n} and {n}")
    axes = list(range(2 * n))
    for q in range(n):
        if alpha.bits >> q & 1:
            # Bit q of an index is tensor axis n - 1 - q of its row or column.
            row = n - 1 - q
            axes[row], axes[row + n] = row + n, row
    # copy() lays the swapped tensor out in C order, so the reshape is a
    # view of a fresh array, also for the empty mask.
    return matrix.reshape((2,) * (2 * n)).transpose(axes).copy().reshape(matrix.shape)


def eigenvalues_symmetric(matrix) -> SpectrumResult:
    """Full real spectrum of a symmetric matrix, sorted ascending.

    Delegates to LAPACK's symmetric eigensolver and reports the worst
    residual max-norm of M v - e v so callers can see the achieved
    accuracy.  Non-convergence raises instead of looping.  This is where
    a matrix from outside is checked: square, a power-of-two dimension,
    at most ``MAX_DENSE_QUBITS`` qubits, and exactly symmetric.
    """
    mat = np.asarray(matrix, dtype=float)
    _check_dense_qubits(_qubit_count(mat))
    if not np.array_equal(mat, mat.T):
        i, j = np.unravel_index(int(np.argmax(np.abs(mat - mat.T))), mat.shape)
        raise ValueError(f"matrix not exactly symmetric, worst element ({i},{j})")
    try:
        evals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigensolver failed to converge: {exc}") from exc
    residual = float(np.max(np.abs(mat @ vecs - vecs * evals)))
    evals.flags.writeable = False
    return SpectrumResult(evals, residual)


def is_ppt_dense(state: GhzDiagonalState, partition: Bipartition) -> bool:
    """Positivity of the dense partial transpose across one partition.

    The smallest eigenvalue is >= -psd_tol exactly when PT + psd_tol * I
    is positive semidefinite, which a Cholesky factorization decides
    without computing any eigenvalue: it succeeds or raises.  ``psd_tol``
    is read from this module's ``DEFAULT_ORACLE`` at each call.
    """
    pt = partial_transpose(to_dense(state), partition.alpha1)
    # Cholesky reads one triangle only.  to_dense's matrix is exactly
    # symmetric and a partial transpose only permutes entries, so pt is
    # too; nothing else holds that fresh array, so it takes the shift in place.
    pt.flat[:: pt.shape[0] + 1] += DEFAULT_ORACLE.psd_tol
    try:
        np.linalg.cholesky(pt)
    except np.linalg.LinAlgError:
        return False
    return True
