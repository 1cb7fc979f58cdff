"""Correctness reference, computed with numpy straight from the block formulas.

For the cut whose second qubit group has mask a2, canonical class k is
paired with its partner class k ^ a2.  With (lp, lm) the weights of k and
(ep, em) those of the partner, the four partial-transpose coefficients are

    B = lp - lm + ep + em        C = lp + lm - ep + em
    D = lp + lm + ep - em        E = -lp + lm + ep + em

(the cut-wise PPT conditions of Duer, Cirac and Tarrach, PRL 83, 3562
(1999)).  A cut is PPT iff all four are nonnegative for every class, and
each coefficient is affine in the white-noise level with value 2 / 2^n at
full depolarization, which gives the threshold in closed form.  Nothing
here calls into ghzent: the benchmark owns this code so that it can judge
the program's answers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

COEFFICIENT_NAMES = ("B", "C", "D", "E")
# Partitions per numpy block; keeps the reference's own memory small next
# to the program's, since in-process workloads report the process peak.
_CHUNK = 16


def first_group_masks(n: int) -> np.ndarray:
    """Masks of the group holding qubit 1, in the order the reports list them."""
    top = 1 << (n - 1)
    return top | np.arange(top - 1)


def minimum_coefficients(lp: np.ndarray, lm: np.ndarray) -> np.ndarray:
    """Per-partition minimum of B, C, D, E over all classes.

    Each formula is evaluated left to right exactly as written above; only
    its first, class-local term is computed once and reused.
    """
    n = lp.size.bit_length()
    a2 = first_group_masks(n) ^ ((1 << n) - 1)
    classes = np.arange(lp.size)
    diff, total, neg = lp - lm, lp + lm, -lp + lm
    out = np.empty(a2.size)
    for lo in range(0, a2.size, _CHUNK):
        idx = classes[None, :] ^ a2[lo : lo + _CHUNK, None]
        ep = lp[idx]
        em = lm[idx]
        low = np.minimum(diff + ep + em, total - ep + em)  # B, C
        np.minimum(low, total + ep - em, out=low)  # D
        np.minimum(low, neg + ep + em, out=low)  # E
        out[lo : lo + _CHUNK] = low.min(axis=1)
    return out


def coefficient_at(lp, lm, alpha1: np.ndarray, classes: np.ndarray, names) -> np.ndarray:
    """The coefficient named in ``names`` of class ``classes`` on cut ``alpha1``."""
    n = lp.size.bit_length()
    a2 = alpha1 ^ ((1 << n) - 1)
    ep = lp[classes ^ a2]
    em = lm[classes ^ a2]
    l_p = lp[classes]
    l_m = lm[classes]
    table = np.stack(
        [l_p - l_m + ep + em, l_p + l_m - ep + em, l_p + l_m + ep - em, -l_p + l_m + ep + em]
    )
    which = np.array([COEFFICIENT_NAMES.index(c) for c in names])
    return table[which, np.arange(classes.size)]


def thresholds_from_minima(minima: np.ndarray, n: int) -> np.ndarray:
    """White-noise level at which each cut turns PPT; 0 for cuts already PPT."""
    uniform = 2.0 / (1 << n)
    neg = np.minimum(minima, 0.0)
    roots = -neg / (uniform - neg)
    return np.where(minima < 0.0, np.clip(roots, 0.0, 1.0), 0.0)


def full_entanglement_threshold(lp: np.ndarray, lm: np.ndarray) -> float:
    n = lp.size.bit_length()
    return float(thresholds_from_minima(minimum_coefficients(lp, lm), n).min())


def ghz_closed_form(n: int) -> float:
    """p* = 2^n / (2^n + 2): pure GHZ loses full entanglement at this noise."""
    dim = 1 << n
    return dim / (dim + 2)


@dataclass(frozen=True)
class Expected:
    """What a correct program answers for one state."""

    n: int
    lp: np.ndarray
    lm: np.ndarray
    alpha1: np.ndarray
    minima: np.ndarray
    ppt: np.ndarray
    thresholds: np.ndarray

    @property
    def full_entangled(self) -> bool:
        return not bool(self.ppt.any())

    @property
    def overall_threshold(self) -> float:
        return float(self.thresholds.min())


def expect(lp: np.ndarray, lm: np.ndarray, tol: float) -> Expected:
    """Reference answers; ``tol`` is the program's stated coefficient tolerance."""
    n = lp.size.bit_length()
    minima = minimum_coefficients(lp, lm)
    return Expected(
        n=n,
        lp=lp,
        lm=lm,
        alpha1=first_group_masks(n),
        minima=minima,
        ppt=minima >= -tol,
        thresholds=thresholds_from_minima(minima, n),
    )
