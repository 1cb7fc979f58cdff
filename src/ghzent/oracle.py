"""Brute-force ground truth for the analytic classifier: the whole dense route.

:func:`_positions` and :func:`_values` list the density matrix's entries
from the definition of the GHZ projectors.  Nothing after that uses a GHZ
identity.  A cut swaps the transposed qubits' bits of each entry's row and
column index and splits the result into the connected components of its
pattern, a layout kept per cut.  :func:`is_ppt_dense` runs a Cholesky
factorization on those blocks, :func:`smallest_pt_eigenvalue` a dense
eigensolver.  That is the point of an oracle.  :func:`to_dense`,
:func:`partial_transpose` and :func:`eigenvalues_symmetric` work on the whole
2^n x 2^n matrix, as the tests' reference; no route here calls them.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .state import GhzDiagonalState
from .subsets import Bipartition, SubsetMask

MAX_DENSE_QUBITS = 10
_LAYOUT_CACHE_SIZE = (1 << MAX_DENSE_QUBITS) - 1 - MAX_DENSE_QUBITS  # every cut, n <= 10: 1013


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
    """Dense matrix of the state, the weighted sum of its GHZ projectors: a fresh
    scatter of its entry values at :func:`_positions`, so exactly symmetric."""
    _check_dense_qubits(state.n)
    m = np.zeros((1 << state.n, 1 << state.n))
    m[_positions(state.n)] = _entry_values(state)
    return m


def _positions(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows and columns of the state's 2^(n+1) entries, one position each: class
    k's vectors (|k> +- |kc>)/sqrt(2), kc the complement of k, put an entry on
    (k, k), (kc, kc), (k, kc) and (kc, k).  Every other entry is zero."""
    k = np.arange(1 << (n - 1))
    kc = k ^ ((1 << n) - 1)
    return np.concatenate((k, kc, k, kc)), np.concatenate((k, kc, kc, k))


def _values(lambda_plus: np.ndarray, lambda_minus: np.ndarray) -> np.ndarray:
    """The entries' values in :func:`_positions` order: (plus + minus)/2 on the
    diagonal, (plus - minus)/2 off it, each from one array, so exactly symmetric."""
    diag = (lambda_plus + lambda_minus) / 2.0
    anti = (lambda_plus - lambda_minus) / 2.0
    return np.concatenate((diag, diag, anti, anti))


def _entry_values(state: GhzDiagonalState) -> np.ndarray:
    """:func:`_values` of the state's weights, built on the first call and kept
    on the state, which is immutable: read-only, shared by every cut."""
    if state._entry_values is None:
        state._entry_values = _values(state.lambda_plus, state.lambda_minus)
        state._entry_values.flags.writeable = False
    return state._entry_values


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

    LAPACK's symmetric eigensolver, with the worst residual max|M v - v e|.
    Non-convergence raises instead of looping.  The matrix must be square, of
    power-of-two dimension, at most ``MAX_DENSE_QUBITS`` qubits, and exactly
    symmetric.
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


def _layout(dim: int, rows: np.ndarray, cols: np.ndarray):
    """``(at, slots, blocks)``: where the entries of a dim x dim symmetric pattern
    sit in one flat buffer of ``slots`` elements that holds its blocks back to
    back, and per block size s, in buffer order, the (count, s) array of the
    blocks' indices.  The blocks are the pattern's connected components (an
    index with no entry is a 1 x 1 block), by size, then by block, each with
    its indices ascending: a symmetric permutation to block-diagonal form."""
    label = _components(dim, rows, cols)
    size = np.bincount(label, minlength=dim)[label]
    # By block size, then by block; lexsort is stable, so ascending within a block.
    order = np.lexsort((label, size))
    per_size = np.bincount(size)  # how many indices sit in blocks of each size
    offset = np.empty(dim, dtype=np.intp)
    offset[order] = np.arange(dim)
    end = np.cumsum(per_size)  # where the indices in blocks of each size end in order
    offset -= (end - per_size)[size]  # position among its size's indices
    # Block b of size s holds indices b*s .. b*s + s - 1 of those positions, so entry
    # (r, c) sits at offset[r] * s + (offset[c] % s) of the stack of size s, whose
    # per_size[s] * s slots follow those of every smaller size.
    area = per_size * np.arange(per_size.size)
    entry_size = size[rows]
    at = offset[rows] * entry_size + offset[cols] % entry_size + (np.cumsum(area) - area)[entry_size]
    sizes = np.flatnonzero(per_size).tolist()
    blocks = tuple(order[end[s] - per_size[s] : end[s]].reshape(-1, s) for s in sizes)
    for array in (at, *blocks):  # the kept layout is shared: read-only index arrays
        array.flags.writeable = False
    return at, int(area.sum()), blocks


def _block_stacks(layout, values: np.ndarray):
    """The blocks of M, M holding ``values`` as laid out: one (count, s, s) stack
    per block size s, each a writable view of one fresh buffer."""
    at, slots, blocks = layout
    flat = np.zeros(slots)
    flat[at] = values
    for count, s in (b.shape for b in blocks):
        yield flat[: count * s * s].reshape(count, s, s)
        flat = flat[count * s * s :]


def _factorizes(layout, values: np.ndarray, shift: float) -> bool:
    """Whether M + shift * I is positive definite, M holding ``values`` as laid
    out: whether every block is.  Each block size gets one batched Cholesky call,
    which raises on any block that is not."""
    for stack in _block_stacks(layout, values):
        count, s, _ = stack.shape
        stack.reshape(count, s * s)[:, :: s + 1] += shift
        try:
            np.linalg.cholesky(stack)
        except np.linalg.LinAlgError:
            return False
    return True


@functools.lru_cache(maxsize=_LAYOUT_CACHE_SIZE)
def _cut_layout(n: int, bits: int):
    """:func:`_layout` of the entry positions moved by transposing the qubits in ``bits``."""
    rows, cols = _positions(n)
    # With x the alpha bits where row and column differ, (r, c) moves to (r ^ x, c ^ x).
    swap = (rows ^ cols) & bits
    return _layout(1 << n, rows ^ swap, cols ^ swap)


def _layout_of(state: GhzDiagonalState, partition: Bipartition):
    """The kept :func:`_cut_layout` of the partition's cut, once both are checked."""
    n = state.n
    _check_dense_qubits(n)
    alpha = partition.alpha1
    if alpha.n != n:
        raise ValueError(f"mixed qubit counts {alpha.n} and {n}")
    return _cut_layout(n, alpha.bits)


def is_ppt_dense(state: GhzDiagonalState, partition: Bipartition) -> bool:
    """Positivity of the partial transpose across one partition.

    The smallest eigenvalue is >= -psd_tol exactly when PT + psd_tol * I
    is positive semidefinite, which a Cholesky factorization decides
    without computing any eigenvalue: it succeeds or raises.  PT is never built as
    a 2^n x 2^n matrix: the transpose moves each of the state's entries,
    swapping the alpha1 bits of its row and column index, and the Cholesky
    runs on the connected components of the moved entries, a layout kept
    per cut.  ``psd_tol`` is read from ``DEFAULT_ORACLE`` at each call.
    """
    return _factorizes(_layout_of(state, partition), _entry_values(state), DEFAULT_ORACLE.psd_tol)


def smallest_pt_eigenvalue(state: GhzDiagonalState, partition: Bipartition) -> tuple[float, float]:
    """``(low, residual)``: the smallest eigenvalue of the partial transpose across
    one partition, and the worst residual max|B v - v e| over its blocks B, the
    blocks :func:`is_ppt_dense` factorizes.  One batched LAPACK symmetric
    eigensolver call per block size; non-convergence raises instead of looping."""
    low, residual = np.inf, 0.0
    for stack in _block_stacks(_layout_of(state, partition), _entry_values(state)):
        try:
            evals, vecs = np.linalg.eigh(stack)
        except np.linalg.LinAlgError as exc:
            raise ArithmeticError(f"eigensolver failed to converge: {exc}") from exc
        low = min(low, float(evals[:, 0].min()))
        residual = max(residual, float(np.abs(stack @ vecs - vecs * evals[:, None, :]).max()))
    return low, residual
