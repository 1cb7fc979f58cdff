"""Per-partition PPT decisions for GHZ-diagonal states, without matrices.

Across a fixed bipartition the state splits into four-dimensional blocks,
one per pair of canonical subset classes swapped by XOR with the second
group's mask.  Each block behaves like a two-qubit Bell-diagonal state
whose partial-transpose eigenvalues are, up to a factor of 2, the four
signed weight combinations computed here.  Positivity of every block
coefficient is therefore equivalent to positivity of the partial
transpose, which in turn decides biseparability across the partition; a
state is fully entangled exactly when every partition fails the test.

The factor of 2 never matters: only the coefficient signs enter the
verdict, and the dense oracle arbitrates actual spectra.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .state import GhzDiagonalState
from .subsets import (
    Bipartition,
    SubsetMask,
    bipartition_bit_strings,
    bit_strings,
    enumerate_bipartitions,
)

COEFFICIENT_TOL = 1e-12

COEFFICIENT_NAMES = ("B", "C", "D", "E")

# Classes per block of the all-partition scan, and a cap on block entries
# (classes times cuts) that keeps its temporaries small at large n.
_BLOCK_CLASSES = 16
_BLOCK_ENTRIES = 1 << 15


@dataclass(frozen=True)
class CoefficientWitness:
    """The minimizing coefficient of a partition scan."""

    beta: SubsetMask
    coefficient: str
    value: float


@dataclass(frozen=True)
class PartitionVerdict:
    partition: Bipartition
    is_ppt: bool
    worst: CoefficientWitness


@dataclass(frozen=True, eq=False)
class ClassificationReport:
    """Per-partition PPT verdicts plus the full-entanglement conclusion.

    The verdicts are columns in ``enumerate_bipartitions`` order, as
    ``partition_minima`` returns them: each cut's minimum coefficient, its
    class, its index into ``COEFFICIENT_NAMES``, and whether the cut is
    PPT.  A PPT partition certifies the state biseparable across that
    split; ``full_entangled`` holds exactly when no partition is PPT.
    """

    n: int
    values: np.ndarray
    classes: np.ndarray
    codes: np.ndarray
    ppt: np.ndarray
    full_entangled: bool

    @cached_property
    def partitions(self) -> tuple[PartitionVerdict, ...]:
        """One verdict object per cut, built on first access."""
        n = self.n
        return tuple(
            PartitionVerdict(
                partition, ppt, CoefficientWitness(SubsetMask(k, n), COEFFICIENT_NAMES[c], value)
            )
            for partition, ppt, k, c, value in zip(enumerate_bipartitions(n), *self.columns())
        )

    @property
    def ppt_partitions(self) -> tuple[Bipartition, ...]:
        n = self.n
        top = 1 << (n - 1)
        return tuple(Bipartition(SubsetMask(top | i, n)) for i in np.flatnonzero(self.ppt).tolist())

    def columns(self) -> tuple[list, list, list, list]:
        """``ppt``, ``classes``, ``codes`` and ``values`` as lists of Python scalars."""
        return self.ppt.tolist(), self.classes.tolist(), self.codes.tolist(), self.values.tolist()

    def to_json_dict(self) -> dict:
        n = self.n
        ppt, _, codes, values = self.columns()
        return {
            "n": n,
            "full_entangled": self.full_entangled,
            "partitions": [
                {
                    "alpha1": alpha1,
                    "ppt": p,
                    "worst": {"beta": beta, "coeff": COEFFICIENT_NAMES[c], "value": value},
                }
                for alpha1, p, beta, c, value in zip(
                    bipartition_bit_strings(n), ppt, bit_strings(self.classes, n), codes, values
                )
            ],
        }


def _check_compatible(state: GhzDiagonalState, partition: Bipartition) -> None:
    if partition.n != state.n:
        raise ValueError(f"mixed qubit counts {partition.n} and {state.n}")


def coefficient_arrays(
    state: GhzDiagonalState, partition: Bipartition
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (B, C, D, E) over all canonical classes at once.

    This is the whole analytic hot path: one XOR-permuted weight lookup
    and a handful of array sums per partition.
    """
    _check_compatible(state, partition)
    lp = state.lambda_plus
    lm = state.lambda_minus
    idx = np.arange(lp.size) ^ partition.alpha2.bits
    return _coefficients_from_weights(lp, lm, lp[idx], lm[idx])


def _coefficients_from_weights(lp, lm, ep, em):
    """(B, C, D, E) of classes with weights (lp, lm) and partner weights (ep, em)."""
    return (lp - lm + ep + em, lp + lm - ep + em, lp + lm + ep - em, -lp + lm + ep + em)


def is_ppt(
    state: GhzDiagonalState, partition: Bipartition, tol: float = COEFFICIENT_TOL
) -> tuple[bool, CoefficientWitness]:
    """PPT verdict for one partition, with the minimizing coefficient.

    True iff every block coefficient is nonnegative (within ``tol``),
    which certifies the state biseparable across the partition.  Ties on
    the worst value resolve to the smallest class index, then B, C, D, E
    order, so reports are deterministic.
    """
    b, c, d, e = coefficient_arrays(state, partition)
    table = np.stack([b, c, d, e], axis=1)
    flat = int(np.argmin(table))
    k, which = divmod(flat, 4)
    value = float(table[k, which])
    witness = CoefficientWitness(SubsetMask(k, state.n), COEFFICIENT_NAMES[which], value)
    return value >= -tol, witness


def partition_minima(state: GhzDiagonalState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum block coefficient of every bipartition, from one pruned scan.

    Returns ``(values, classes, codes)`` in ``enumerate_bipartitions``
    order: each cut's minimum coefficient, the class it belongs to and its
    index into ``COEFFICIENT_NAMES``.  These are bit-identical to the
    ``argmin`` over the stacked (B, C, D, E) table of ``is_ppt``, tie-break
    included.

    With s = lambda_plus + lambda_minus, d = lambda_plus - lambda_minus and
    partner k = j ^ alpha2, the pair {j, k} contributes min(B_j, E_j) =
    s_k - |d_j| and min(C_k, D_k) = s_k - |d_j| as well, so the minimum of
    cut alpha2 is min_j (s[j ^ alpha2] - |d_j|).  Classes are visited in
    decreasing |d_j|, a block of them against every cut at once, and the
    scan stops once min(s) - |d_j| exceeds the largest minimum found so
    far: no later class can reach any cut's minimum.  Flat |d|, as in the
    maximally mixed state, defeats the bound and visits every class.
    """
    lp = state.lambda_plus
    lm = state.lambda_minus
    n_cls = lp.size
    alpha2 = np.arange(n_cls - 1, 0, -1)
    s = lp + lm
    neg_abs_d = -np.abs(lp - lm)
    order = np.argsort(neg_abs_d, kind="stable")
    # Each coefficient below is evaluated in the operation order of the
    # B, C, D, E formulas, so the values are exact table entries; the
    # margin covers the rounding between them and the bound's s - |d|.
    margin = 8.0 * np.finfo(float).eps * float(s.max())
    floor = float(s.min())
    best = np.full(alpha2.size, np.inf)
    row = np.zeros(alpha2.size, dtype=np.int64)
    step = max(1, min(_BLOCK_CLASSES, _BLOCK_ENTRIES // alpha2.size))
    for start in range(0, n_cls, step):
        if floor + neg_abs_d[order[start]] - margin > best.max():
            break
        j = order[start : start + step, None]
        k = j ^ alpha2
        ep = lp[k]
        em = lm[k]
        # min(B_j, E_j) in row j and min(C_k, D_k) in row k.
        be = neg_abs_d[j] + ep
        be += em
        cd = ep + em  # s[k]: the same sum of the same weights
        coef_d = cd + lp[j]
        coef_d -= lm[j]
        cd -= lp[j]
        cd += lm[j]
        np.minimum(cd, coef_d, out=cd)
        low = np.minimum(be.min(axis=0), cd.min(axis=0))
        # A block changes a cut only by lowering its minimum or by tying it
        # in a smaller row; skip the row search when it does neither.
        reach = np.minimum(k.min(axis=0), j.min())
        if not ((low < best) | ((low == best) & (reach < row))).any():
            continue
        at = np.minimum(
            np.where(be == low, j, n_cls).min(axis=0), np.where(cd == low, k, n_cls).min(axis=0)
        )
        take = (low < best) | ((low == best) & (at < row))
        best[take] = low[take]
        row[take] = at[take]
    partner = row ^ alpha2
    table = np.stack(
        _coefficients_from_weights(lp[row], lm[row], lp[partner], lm[partner]), axis=1
    )
    codes = np.argmin(table, axis=1)
    return table[np.arange(row.size), codes], row, codes


def partition_thresholds(state: GhzDiagonalState) -> np.ndarray:
    """White-noise threshold of every bipartition, in enumeration order.

    Every coefficient is affine in the mixing probability and equals 2/2^n
    at full depolarization, so a cut with minimum M < 0 turns PPT at
    -M / (2/2^n - M), clamped to [0, 1]; cuts already PPT have threshold 0.
    """
    minima = partition_minima(state)[0]
    uniform = 2.0 / (1 << state.n)
    neg = np.minimum(minima, 0.0)
    return np.where(minima < 0.0, np.clip(-neg / (uniform - neg), 0.0, 1.0), 0.0)


def classify(state: GhzDiagonalState, tol: float = COEFFICIENT_TOL) -> ClassificationReport:
    """Scan every bipartition; fully entangled iff none is PPT."""
    values, classes, codes = partition_minima(state)
    ppt = values >= -tol
    return ClassificationReport(state.n, values, classes, codes, ppt, not ppt.any())


def noise_threshold(state: GhzDiagonalState, partition: Bipartition) -> float:
    """Smallest white-noise level at which the partition turns PPT.

    Every coefficient is affine in the mixing probability and equals
    2/2^n at full depolarization, so the exact threshold is the largest
    root over the negative coefficients, clamped to [0, 1].
    """
    _check_compatible(state, partition)
    coeffs = np.concatenate(coefficient_arrays(state, partition))
    negative = coeffs[coeffs < 0.0]
    if negative.size == 0:
        return 0.0
    uniform = 2.0 / (1 << state.n)
    roots = -negative / (uniform - negative)
    return float(min(max(float(roots.max()), 0.0), 1.0))


def full_entanglement_threshold(state: GhzDiagonalState) -> float:
    """Noise level at which full entanglement is first lost.

    The minimum over partitions of the per-partition threshold: past it,
    some partition is PPT and hence biseparable.
    """
    return float(partition_thresholds(state).min())


__all__ = [
    "ClassificationReport",
    "CoefficientWitness",
    "COEFFICIENT_NAMES",
    "COEFFICIENT_TOL",
    "PartitionVerdict",
    "classify",
    "coefficient_arrays",
    "full_entanglement_threshold",
    "is_ppt",
    "noise_threshold",
    "partition_minima",
    "partition_thresholds",
]
