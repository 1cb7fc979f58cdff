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

import math
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


def _check_tol(tol: float) -> None:
    """Reject a tolerance that would make every verdict meaningless."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")


def _check_compatible(state: GhzDiagonalState, partition: Bipartition) -> None:
    if partition.n != state.n:
        raise ValueError(f"mixed qubit counts {partition.n} and {state.n}")


def coefficient_arrays(
    state: GhzDiagonalState, partition: Bipartition
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(B, C, D, E) of every canonical class across one cut, for ``oracle-check --n 2``."""
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

    True iff every block coefficient is nonnegative (within ``tol``), which
    certifies the state biseparable across the partition.  The witness is
    the cut's entry of :func:`partition_minima`: ties go to the smallest
    class, then B, C, D, E order.  A state's first call scans every cut.
    ``tol`` must be a finite number >= 0; any other value raises ``ValueError``.
    """
    _check_tol(tol)
    _check_compatible(state, partition)
    i = partition.alpha1.bits - (1 << (state.n - 1))  # the cut's place in enumeration order
    values, classes, codes = partition_minima(state)
    value = float(values[i])
    beta = SubsetMask(int(classes[i]), state.n)
    return value >= -tol, CoefficientWitness(beta, COEFFICIENT_NAMES[codes[i]], value)


def partition_minima(state: GhzDiagonalState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Minimum block coefficient of every bipartition, from one pruned scan.

    Returns ``(values, classes, codes)`` in ``enumerate_bipartitions``
    order: each cut's minimum coefficient, the class it belongs to and its
    index into ``COEFFICIENT_NAMES``.  These are bit-identical to the
    ``argmin`` over each cut's stacked (B, C, D, E) table, tie-break
    included.  A state is scanned once: later calls return the same arrays,
    read-only, kept on the state and shared by its reports and thresholds.
    """
    if state._minima is None:
        minima = _scan_minima(state.lambda_plus, state.lambda_minus)
        for column in minima:
            column.flags.writeable = False
        state._minima = minima
    return state._minima


def _scan_minima(lp, lm):
    """``partition_minima`` of the weights ``lp`` and ``lm``, always computed.

    With s = lambda_plus + lambda_minus, d = lambda_plus - lambda_minus and
    partner k = j ^ alpha2, the pair (j, k) contributes min(B_j, E_j) =
    s_k - |d_j| and min(C_k, D_k) = s_k - |d_j| as well, so the minimum of
    cut alpha2 is min_j (s[j ^ alpha2] - |d_j|).  The scan reaches the
    pairs from two sides, a block of classes against every open cut at
    once: rows j in decreasing |d_j| and partners k in increasing s_k, ties
    to the smaller class, each block from the side whose next block raises
    s_next - |d_next| more.  A side is sorted only on a prefix: before
    each block, either side whose prefix does not reach its key one block
    on is ranked to twice that position, and the key is read from the
    prefix.  A pair not yet evaluated is unvisited on both sides, so it is
    no smaller than s_next - |d_next|, and a cut is closed once that bound,
    less a few-ulp margin, exceeds its minimum.  Near that point the bound
    is made exact by putting the extremes of the unvisited operands into
    the formulas' operation order; a cut whose minimum equals it can only
    move its witness to a smaller row, and those rows are checked
    directly.  Weights that tie in both s and |d|, such as quantised ones,
    still evaluate O(4^n) pairs.
    """
    n_cls = lp.size
    alpha2 = np.arange(n_cls - 1, 0, -1)
    s = lp + lm
    neg_abs_d = -np.abs(lp - lm)
    # Each coefficient below is evaluated in the operation order of the
    # B, C, D, E formulas, so the values are exact table entries; the
    # margin covers the rounding between them and the bound's s - |d|.
    margin = 8.0 * np.finfo(float).eps * float(s.max())
    best = np.full(alpha2.size, np.inf)
    row = np.zeros(alpha2.size, dtype=np.int64)
    live = np.arange(alpha2.size)  # open cuts: minimum or witness may still change
    # Per side, rows (t = 0) then partners (t = 1): key, order of visit,
    # classes visited, length of the sorted prefix, and the next key.
    keys = (neg_abs_d, s)
    orders = (np.arange(n_cls), np.arange(n_cls))
    pos, ranked, nxt = [0, 0], [0, 0], [neg_abs_d.min(), s.min()]
    # Work buffers for every block, allocated once per scan.  Plain temporaries
    # (256 KiB at n = 12) give the same output but come as fresh pages: ~360
    # minor faults and 1.5 ms per random n = 12 scan, not 0 and 1.0 (2-core Xeon).
    size = min(_BLOCK_CLASSES * alpha2.size, max(_BLOCK_ENTRIES, alpha2.size))
    int_bufs = np.empty((2, size), dtype=np.int64)
    float_bufs = np.empty((4, size))
    exact_at = None
    while max(pos) < n_cls:
        (rows, partners), (r, p), (d_next, s_next) = orders, pos, nxt
        bound = s_next + d_next
        live = live[best[live] >= bound - margin]
        if live.size and best[live].min() <= bound + margin:
            # Floating + and - are monotone in each operand, so this bounds
            # every entry of an unvisited pair with no margin.  It stays a
            # bound as the unvisited sets shrink, so it is only recomputed
            # when s_next or |d_next| moves.
            if exact_at != (d_next, s_next):
                exact_at = (d_next, s_next)
                lp_j = lp[rows[r:]]
                lm_j = lm[rows[r:]]
                exact = min(
                    ((d_next + lp[partners[p:]]) + lm[partners[p:]]).min(),
                    ((s_next - lp_j) + lm_j).min(),
                    ((s_next + lp_j) - lm_j).min(),
                )
            live = live[best[live] >= exact]
            tied = best[live] == exact
            if tied.any():
                live = np.concatenate(
                    (live[~tied], _settle_ties(lp, lm, alpha2, row, live[tied], exact))
                )
        if not live.size:
            break
        step = max(1, min(_BLOCK_CLASSES, _BLOCK_ENTRIES // live.size))
        ahead = []  # each side's key one block on
        for t in (0, 1):
            i = pos[t] + step
            if ranked[t] <= i < n_cls:  # keep the side sorted past i
                ranked[t] = _rank_prefix(keys[t], orders[t], ranked[t], 2 * i)
            ahead.append(keys[t][orders[t][i]] if i < n_cls else np.inf)
        t = int(ahead[1] - s_next > ahead[0] - d_next)
        end = min(pos[t] + step, n_cls)
        block = orders[t][pos[t] : end, None]
        pos[t], nxt[t] = end, ahead[t]
        cut = alpha2[live]
        idx, hits = int_bufs[:, : block.size * cut.size].reshape(2, block.size, cut.size)
        x, y, be, cd = float_bufs[:, : block.size * cut.size].reshape(4, block.size, cut.size)
        other = np.bitwise_xor(block, cut, out=idx)
        j, k = (other, block) if t else (block, other)
        # min(B_j, E_j) in row j and min(C_k, D_k) in row k, in the buffers.
        lp_j = _gather(lp, j, other, x)
        lm_j = _gather(lm, j, other, y)
        lp_k = _gather(lp, k, other, x)
        lm_k = _gather(lm, k, other, y)
        np.add(_gather(neg_abs_d, j, other, be), lp_k, out=be)
        be += lm_k
        s_k = np.add(lp_k, lm_k, out=lp_k)  # s[k]: the same sum of the same weights
        np.subtract(s_k, lp_j, out=cd)
        cd += lm_j
        coef_d = np.add(s_k, lp_j, out=x)
        coef_d -= lm_j
        np.minimum(cd, coef_d, out=cd)
        low = np.minimum(be.min(axis=0), cd.min(axis=0))
        held = best[live]
        # With the rows shifted below zero, the smallest row holding low in
        # a column is the column minimum of (value == low) * (row - n_cls).
        other -= n_cls
        j_off, k_off = (other, block - n_cls) if t else (block - n_cls, other)
        first = n_cls + np.minimum(
            np.multiply(be == low, j_off, out=hits).min(axis=0),
            np.multiply(cd == low, k_off, out=hits).min(axis=0),
        )
        take = (low < held) | ((low == held) & (first < row[live]))
        best[live[take]] = low[take]
        row[live[take]] = first[take]
    partner = row ^ alpha2
    table = np.stack(
        _coefficients_from_weights(lp[row], lm[row], lp[partner], lm[partner]), axis=1
    )
    codes = np.argmin(table, axis=1)
    return table[np.arange(row.size), codes], row, codes


def _gather(values, index, per_cut, out):
    """``values[index]``, written into ``out`` when ``index`` is the per-cut array."""
    return np.take(values, index, out=out) if index is per_cut else values[index]


def _rank_prefix(key, order, ranked, m) -> int:
    """Extend the sorted prefix of ``order`` from ``ranked`` to ``m`` entries.

    ``order[ranked:]`` is in increasing class order.  Afterwards
    ``order[:m]`` is the start of the stable argsort of ``key``, ties going
    to the smaller class, so tied classes are met smallest first, and the
    rest is still in increasing class order.  The prefix is picked out by
    selection and only it is sorted; an ``m`` past the end sorts the whole
    tail.  Returns the new prefix length.
    """
    m = min(m, order.size)
    tail = order[ranked:]
    keys = key[tail]
    if m < order.size:
        need = m - ranked
        edge = np.partition(keys, need - 1)[need - 1]
        take = keys < edge
        take[np.flatnonzero(keys == edge)[: need - np.count_nonzero(take)]] = True
        head = tail[take]
        order[m:] = tail[~take]
        tail = head
        keys = key[head]
    order[ranked:m] = tail[np.argsort(keys, kind="stable")]
    return m


def _settle_ties(lp, lm, alpha2, row, cuts, top) -> np.ndarray:
    """Settle cuts whose minimum ``top`` equals the scan's exact stop bound.

    No unvisited entry is below ``top``, so a tied cut keeps its minimum,
    and its witness can only move to a smaller row holding the same value;
    witness row 0 is final.  For a cut whose witness row is at most one
    block of classes, the four entries of every smaller row are evaluated
    in the formulas' operation order.  Returns the cuts left open.
    """
    fits = row[cuts] <= _BLOCK_CLASSES
    done = cuts[fits]
    counts = row[done]
    total = int(counts.sum())
    if total:
        starts = np.cumsum(counts) - counts
        cut = np.repeat(done, counts)
        i = np.arange(total) - np.repeat(starts, counts)
        k = i ^ alpha2[cut]
        low = np.minimum.reduce(_coefficients_from_weights(lp[i], lm[i], lp[k], lm[k]))
        hit = np.where(low == top, i, row[cut])
        held = counts > 0
        row[done[held]] = np.minimum.reduceat(hit, starts[held])
    return cuts[~fits]


def partition_thresholds(state: GhzDiagonalState) -> np.ndarray:
    """White-noise threshold of every bipartition, in enumeration order."""
    return _thresholds(partition_minima(state)[0], state.n)


def _thresholds(minima: np.ndarray, n: int) -> np.ndarray:
    """White-noise thresholds of cuts with minimum coefficients ``minima``.

    Every coefficient is affine in the mixing probability and equals 2/2^n
    at full depolarization, so a cut with minimum M < 0 turns PPT at
    -M / (2/2^n - M), clamped to [0, 1]; cuts already PPT have threshold 0.
    """
    uniform = 2.0 / (1 << n)
    neg = np.minimum(minima, 0.0)
    return np.where(minima < 0.0, np.clip(-neg / (uniform - neg), 0.0, 1.0), 0.0)


def classify(state: GhzDiagonalState, tol: float = COEFFICIENT_TOL) -> ClassificationReport:
    """Scan every bipartition; fully entangled iff none is PPT.

    ``tol`` is held to the contract of :func:`is_ppt`.
    """
    _check_tol(tol)
    values, classes, codes = partition_minima(state)
    ppt = values >= -tol
    return ClassificationReport(state.n, values, classes, codes, ppt, not ppt.any())


def noise_threshold(state: GhzDiagonalState, partition: Bipartition) -> float:
    """Smallest white-noise level at which the partition turns PPT.

    The value :func:`partition_thresholds` gives this cut, read off the
    cut's minimum coefficient: the value of :func:`is_ppt`'s witness.
    """
    return float(_thresholds(is_ppt(state, partition)[1].value, state.n))


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
