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
    """Reject a tolerance that would make every verdict meaningless, or a bool."""
    if isinstance(tol, (bool, np.bool_)) or not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be a finite number >= 0, got {tol}")


def _check_compatible(state: GhzDiagonalState, partition: Bipartition) -> None:
    if partition.n != state.n:
        raise ValueError(f"mixed qubit counts {partition.n} and {state.n}")


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
    class of a minimizing pair, then B, C, D, E order in its row.  A
    state's first call scans every cut.
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
    order.  With s = lambda_plus + lambda_minus and a = |lambda_plus -
    lambda_minus|, each rounded once per class, a cut's value is the least
    term fl(s[j ^ alpha2] - a_j) over classes j.  Its class is the smallest
    class of a pair (j, j ^ alpha2) holding that term, and its code the
    first index into ``COEFFICIENT_NAMES`` of the least of that class's B,
    C, D, E.  A state is scanned once: later calls return the same arrays,
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

    The scan reaches the terms from two sides, a block of classes against
    every open cut at once: rows j in decreasing a_j and partners k in
    increasing s_k, ties to the smaller class, each block from the side
    whose next block raises s_next - a_next more.  A side is sorted only
    on a prefix: before each block, either side whose prefix does not
    reach its key one block on is ranked to twice that position, and the
    key is read from the prefix.  A term not yet evaluated is unvisited on
    both sides, and floating subtraction is monotone in each operand, so
    it is no smaller than fl(s_next - a_next).  A cut whose minimum is
    below that bound is closed; one whose minimum equals it can only move
    its witness to a smaller class (:func:`_settle_ties`).  Weights that
    tie in both s and a, such as quantised ones, still take O(4^n) terms.
    """
    n_cls = lp.size
    alpha2 = np.arange(n_cls - 1, 0, -1)
    s = lp + lm
    neg_a = -np.abs(lp - lm)  # fl(s_k + neg_a_j) is fl(s_k - a_j)
    best = np.full(alpha2.size, np.inf)
    row = np.zeros(alpha2.size, dtype=np.int64)
    live = np.arange(alpha2.size)  # open cuts: minimum or witness may still change
    # Per side, rows (t = 0) then partners (t = 1): key, order of visit,
    # classes visited, length of the sorted prefix, and the next key.
    keys = (neg_a, s)
    orders = (np.arange(n_cls), np.arange(n_cls))
    pos, ranked, nxt = [0, 0], [0, 0], [neg_a.min(), s.min()]
    # Work buffers for every block, allocated once per scan, so that blocks
    # do not fault in fresh pages for their temporaries.
    size = min(_BLOCK_CLASSES * alpha2.size, max(_BLOCK_ENTRIES, alpha2.size))
    int_bufs = np.empty((2, size), dtype=np.int64)
    term_buf = np.empty(size)
    while max(pos) < n_cls:
        bound = nxt[1] + nxt[0]
        live = live[best[live] >= bound]
        tied = (best[live] == bound) & (row[live] <= _BLOCK_CLASSES)
        if tied.any():
            _settle_ties(s, neg_a, alpha2, row, live[tied], bound)
            live = live[~tied]
        if not live.size:
            break
        step = max(1, min(_BLOCK_CLASSES, _BLOCK_ENTRIES // live.size))
        ahead = []  # each side's key one block on
        for t in (0, 1):
            i = pos[t] + step
            if ranked[t] <= i < n_cls:  # keep the side sorted past i
                ranked[t] = _rank_prefix(keys[t], orders[t], ranked[t], 2 * i)
            ahead.append(keys[t][orders[t][i]] if i < n_cls else np.inf)
        t = int(ahead[1] - nxt[1] > ahead[0] - nxt[0])
        end = min(pos[t] + step, n_cls)
        block = orders[t][pos[t] : end, None]
        pos[t], nxt[t] = end, ahead[t]
        cut = alpha2[live]
        other, pair = int_bufs[:, : block.size * cut.size].reshape(2, block.size, cut.size)
        term = term_buf[: block.size * cut.size].reshape(block.size, cut.size)
        np.bitwise_xor(block, cut, out=other)
        # The block's own key plus the other side's key at each partner.
        np.take(keys[1 - t], other, out=term)
        term += keys[t][block]
        low = term.min(axis=0)
        # With the classes shifted below zero, the smallest pair class holding
        # low in a column is the column minimum of (term == low) * (class - n_cls).
        np.minimum(block, other, out=pair)
        pair -= n_cls
        first = n_cls + np.multiply(term == low, pair, out=pair).min(axis=0)
        held = best[live]
        take = (low < held) | ((low == held) & (first < row[live]))
        best[live[take]] = low[take]
        row[live[take]] = first[take]
    k = row ^ alpha2
    table = np.stack(_coefficients_from_weights(lp[row], lm[row], lp[k], lm[k]), axis=1)
    return best, row, np.argmin(table, axis=1)


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


def _settle_ties(s, neg_a, alpha2, row, cuts, top) -> None:
    """Settle the witness of cuts whose minimum ``top`` equals the scan's stop bound.

    No term not yet evaluated is below ``top``, so such a cut keeps its
    minimum, and its witness can only move to a smaller class whose pair
    holds ``top`` too; witness class 0 is final.  The witness of each of
    ``cuts`` is at most one block of classes, so the two terms of every
    smaller class's pair are evaluated here and the cut is done.
    """
    counts = row[cuts]
    total = int(counts.sum())
    if total:
        starts = np.cumsum(counts) - counts
        cut = np.repeat(cuts, counts)
        j = np.arange(total) - np.repeat(starts, counts)
        k = j ^ alpha2[cut]
        hit = np.where(np.minimum(s[k] + neg_a[j], s[j] + neg_a[k]) == top, j, row[cut])
        held = counts > 0
        row[cuts[held]] = np.minimum.reduceat(hit, starts[held])


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
    "full_entanglement_threshold",
    "is_ppt",
    "noise_threshold",
    "partition_minima",
    "partition_thresholds",
]
