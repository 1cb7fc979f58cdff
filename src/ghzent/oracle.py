"""Brute-force ground truth for the analytic classifier.

Partial transposition swaps tensor axes of the full matrix, and positivity
is decided by a dense Cholesky factorization, or read off a dense
real-symmetric eigensolver where a caller needs the spectrum.  Nothing
here exploits GHZ structure; that is the point of an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .state import DenseOperator, GhzDiagonalState, to_dense
from .subsets import Bipartition, SubsetMask


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

    def __post_init__(self) -> None:
        if not 0.0 < self.psd_tol < float("inf"):
            raise ValueError(f"psd_tol must be a finite number > 0, got {self.psd_tol}")


DEFAULT_ORACLE = OracleTolerances()


@dataclass(frozen=True)
class SpectrumResult:
    """Full spectrum of a symmetric matrix, ascending, with a residual check."""

    eigenvalues: np.ndarray
    min_eigenvalue: float
    residual: float


def partial_transpose(rho: DenseOperator, alpha: SubsetMask) -> DenseOperator:
    """Transpose the tensor factors of the qubits in ``alpha``.

    The matrix is viewed as a tensor with one row and one column axis per
    qubit, and the two axes of every qubit in ``alpha`` are swapped, which
    exchanges the alpha bits of the row and column indices.  The empty set
    is the identity; the full set is total transposition.  The result is
    always a fresh array.
    """
    if alpha.n != rho.n:
        raise ValueError(f"mixed qubit counts {alpha.n} and {rho.n}")
    n = rho.n
    axes = list(range(2 * n))
    for q in range(n):
        if alpha.bits >> q & 1:
            # Bit q of an index is tensor axis n - 1 - q of its row or column.
            row = n - 1 - q
            axes[row], axes[row + n] = row + n, row
    # copy() lays the swapped tensor out in C order, so the reshape is a
    # view of a fresh array, also for the empty mask.
    swapped = rho.matrix.reshape((2,) * (2 * n)).transpose(axes).copy()
    return DenseOperator(swapped.reshape(rho.dim, rho.dim), n)


def eigenvalues_symmetric(m: DenseOperator | np.ndarray) -> SpectrumResult:
    """Full real spectrum of a symmetric matrix, sorted ascending.

    Delegates to LAPACK's symmetric eigensolver and reports the worst
    residual max-norm of M v - e v so callers can see the achieved
    accuracy.  Non-convergence raises instead of looping.  Every input,
    a ``DenseOperator`` too, is checked as ``DenseOperator.from_matrix``
    checks it: an operator's matrix can still be written after it is built.
    """
    mat = DenseOperator.from_matrix(m.matrix if isinstance(m, DenseOperator) else m).matrix
    try:
        evals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ArithmeticError(f"eigensolver failed to converge: {exc}") from exc
    residual = float(np.max(np.abs(mat @ vecs - vecs * evals)))
    evals.flags.writeable = False
    return SpectrumResult(evals, float(evals[0]), residual)


def is_ppt_dense(
    state: GhzDiagonalState,
    partition: Bipartition,
    tolerances: OracleTolerances = DEFAULT_ORACLE,
) -> bool:
    """Positivity of the dense partial transpose across one partition.

    The smallest eigenvalue is >= -psd_tol exactly when PT + psd_tol * I
    is positive semidefinite, which a Cholesky factorization decides
    without computing any eigenvalue: it succeeds or raises.
    """
    pt = partial_transpose(to_dense(state), partition.alpha1)
    # Cholesky reads one triangle only.  The operator partial_transpose just
    # built checked its matrix for exact symmetry, and nothing else holds
    # that fresh array, so it can take the shift in place.
    mat = pt.matrix
    mat.flat[:: pt.dim + 1] += tolerances.psd_tol
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        return False
    return True
