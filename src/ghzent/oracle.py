"""Brute-force ground truth for the analytic classifier: the whole dense route.

:func:`_entries` lists the density matrix's entries from the definition of
the GHZ projectors; :func:`to_dense` scatters them into a matrix.  Nothing
after that uses a GHZ identity.  :func:`is_ppt_dense` swaps the transposed
qubits' bits of each entry's row and column index, splits the result into the
connected components of its pattern, and decides positivity by a complete
Cholesky factorization of every component.  :func:`partial_transpose` swaps
tensor axes of a full matrix, and a dense real-symmetric eigensolver gives
the spectrum where a caller needs it.  That is the point of an oracle.
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

    The scatter of :func:`_entries` into a zero matrix, so it is exactly
    symmetric.  Built on the first call and kept on the state: every later
    call returns the same read-only array, shared by every caller.
    """
    dense = state._dense
    if dense is None:
        _check_dense_qubits(state.n)
        dense = _dense_from_weights(state.n, state.lambda_plus, state.lambda_minus)
        dense.flags.writeable = False
        state._dense = dense
    return dense


def _entries(n: int, lambda_plus: np.ndarray, lambda_minus: np.ndarray):
    """Rows, columns and values of the state's 2^(n+1) entries, one position each.

    Class k's vectors (|k> +- |kc>)/sqrt(2), kc the complement of k, put
    (plus + minus)/2 on (k, k) and (kc, kc) and (plus - minus)/2 on (k, kc)
    and (kc, k), each from one array, so the matrix is exactly symmetric.
    Every other entry is zero.
    """
    k = np.arange(1 << (n - 1))
    kc = k ^ ((1 << n) - 1)
    diag = (lambda_plus + lambda_minus) / 2.0
    anti = (lambda_plus - lambda_minus) / 2.0
    rows = np.concatenate((k, kc, k, kc))
    cols = np.concatenate((k, kc, kc, k))
    return rows, cols, np.concatenate((diag, diag, anti, anti))


def _dense_from_weights(n: int, lambda_plus: np.ndarray, lambda_minus: np.ndarray) -> np.ndarray:
    rows, cols, values = _entries(n, lambda_plus, lambda_minus)
    m = np.zeros((1 << n, 1 << n))
    m[rows, cols] = values
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


def _components(dim: int, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The smallest index of each index's connected component of the pattern.

    Two indices are joined when an entry sits at (row, column); the pattern
    is symmetric, so (column, row) is listed too.  Every index starts as its
    own root; each round hooks every root onto the smallest root it shares
    an entry with, then jumps pointers until every index points at a root.
    An index with no entry stays alone.
    """
    label = np.arange(dim)
    while True:
        lr, lc = label[rows], label[cols]
        if not (lr != lc).any():
            return label
        np.minimum.at(label, lr, lc)
        while True:
            up = label[label]
            if not (up != label).any():
                break
            label = up


def _is_positive_definite(
    dim: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shift: float
) -> bool:
    """Whether M + shift * I is positive definite, for the dim x dim symmetric M.

    M holds ``values[i]`` at (``rows[i]``, ``cols[i]``), each position listed
    at most once and both (r, c) and (c, r) listed for an off-diagonal entry;
    every other entry is zero.  Ordering the indices by connected component
    is a symmetric permutation that makes M block-diagonal, and such a matrix
    is positive definite exactly when every block is.  Each block keeps its
    indices in ascending order; an index with no entry is a 1 x 1 zero block.
    The blocks of each size are factorized in one batched Cholesky call,
    which raises on any block that is not positive definite.
    """
    label = _components(dim, rows, cols)
    size = np.bincount(label, minlength=dim)[label]
    # By block size, then by block; lexsort is stable, so ascending within a block.
    order = np.lexsort((label, size))
    per_size = np.bincount(size)  # how many indices sit in blocks of each size
    offset = np.empty(dim, dtype=np.intp)
    offset[order] = np.arange(dim)
    offset -= (np.cumsum(per_size) - per_size)[size]  # position among its size's indices
    # Block b of size s holds indices b*s .. b*s + s - 1 of those positions, so
    # entry (r, c) sits at flat position offset[r] * s + (offset[c] % s) of the stack.
    entry_size = size[rows]
    at = offset[rows] * entry_size + offset[cols] % entry_size
    for s in np.flatnonzero(per_size).tolist():
        pick = entry_size == s
        flat = np.zeros(int(per_size[s]) * s)
        flat[at[pick]] = values[pick]
        flat.reshape(-1, s * s)[:, :: s + 1] += shift
        try:
            np.linalg.cholesky(flat.reshape(-1, s, s))
        except np.linalg.LinAlgError:
            return False
    return True


def is_ppt_dense(state: GhzDiagonalState, partition: Bipartition) -> bool:
    """Positivity of the partial transpose across one partition.

    The smallest eigenvalue is >= -psd_tol exactly when PT + psd_tol * I
    is positive semidefinite, which a Cholesky factorization decides
    without computing any eigenvalue: it succeeds or raises.  PT is never built as
    a 2^n x 2^n matrix: the transpose moves each of the state's entries,
    swapping the alpha1 bits of its row and column index, and the Cholesky
    runs on the connected components of the moved entries.  ``psd_tol`` is
    read from this module's ``DEFAULT_ORACLE`` at each call.
    """
    n = state.n
    _check_dense_qubits(n)
    alpha = partition.alpha1
    if alpha.n != n:
        raise ValueError(f"mixed qubit counts {alpha.n} and {n}")
    rows, cols, values = _entries(n, state.lambda_plus, state.lambda_minus)
    # With x the alpha bits where row and column differ, (r, c) moves to (r ^ x, c ^ x).
    swap = (rows ^ cols) & alpha.bits
    return _is_positive_definite(1 << n, rows ^ swap, cols ^ swap, values, DEFAULT_ORACLE.psd_tol)
