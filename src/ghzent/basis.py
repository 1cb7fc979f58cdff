"""GHZ basis vectors as sparse two-amplitude states.

Every vector here has exactly two nonzero amplitudes of magnitude 1/sqrt(2)
sitting on a basis index and its bitwise complement.  All amplitudes are
real: the phase convention puts +1/sqrt(2) on the smaller index and the
sign label on the larger one.  Only projectors carry physical meaning, so
any consistent convention works; this one makes a vector and the vector of
the complementary subset identical objects.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .subsets import SubsetMask

NORM_TOL = 1e-12

_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _check_sign(sign: int) -> None:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")


@dataclass(frozen=True)
class SparseStateVector:
    """Real state vector stored as (basis index, amplitude) pairs."""

    n: int
    entries: tuple[tuple[int, float], ...]

    def __post_init__(self) -> None:
        dim = 1 << self.n
        norm2 = 0.0
        last = -1
        for idx, amp in self.entries:
            if not 0 <= idx < dim:
                raise ValueError(f"basis index {idx} out of range for n={self.n}")
            if idx <= last:
                raise ValueError("basis indices must be strictly increasing")
            last = idx
            norm2 += amp * amp
        if abs(norm2 - 1.0) > NORM_TOL:
            raise ValueError(f"vector not normalized: |amp|^2 = {norm2}")

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(idx for idx, _ in self.entries)

    def to_dense(self) -> np.ndarray:
        vec = np.zeros(1 << self.n)
        for idx, amp in self.entries:
            vec[idx] = amp
        return vec

    def outer(self) -> np.ndarray:
        """Dense projector |v><v|."""
        v = self.to_dense()
        return np.outer(v, v)


def ghz_vector(beta: SubsetMask, sign: int) -> SparseStateVector:
    """GHZ basis vector for a subset: (|l(beta)> +- |complement>)/sqrt(2).

    The two support indices are the subset's basis index and its bitwise
    complement.  A subset and its complement give the identical vector, so
    projector equality across the pair is exact by construction.
    """
    _check_sign(sign)
    partner = beta.bits ^ ((1 << beta.n) - 1)
    lo, hi = sorted((beta.bits, partner))
    return SparseStateVector(beta.n, ((lo, _INV_SQRT2), (hi, sign * _INV_SQRT2)))
