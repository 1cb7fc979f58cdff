"""Independent references the tests check the library against.

The GHZ basis as sparse two-amplitude vectors, and the subset-mask and
weight helpers that only the tests need.  None of it is used by ``ghzent``
itself, so the checks built on it share no code with the paths they test.

Every GHZ vector has exactly two nonzero amplitudes of magnitude 1/sqrt(2)
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

from ghzent.subsets import Bipartition, SubsetMask

NORM_TOL = 1e-12

INV_SQRT2 = 1.0 / math.sqrt(2.0)


# -- subset masks ---------------------------------------------------------------


def mask_from_qubits(qubits, n: int) -> SubsetMask:
    """The mask of a set of 1-based qubit numbers: qubit m is bit n - m."""
    return SubsetMask(sum(1 << (n - m) for m in set(qubits)), n)


def xor(a: SubsetMask, b: SubsetMask) -> SubsetMask:
    if a.n != b.n:
        raise ValueError(f"mixed qubit counts {a.n} and {b.n}")
    return SubsetMask(a.bits ^ b.bits, a.n)


def canonical_beta(beta: SubsetMask) -> SubsetMask:
    """The representative of {beta, complement} that excludes qubit 1."""
    return beta.complement() if beta.contains(1) else beta


def enumerate_canonical_betas(n: int) -> list[SubsetMask]:
    """All 2^(n-1) canonical subset classes, increasing by basis index."""
    return [SubsetMask(k, n) for k in range(1 << (n - 1))]


def weight(state, beta: SubsetMask, sign: int) -> float:
    """Stored weight of the class containing ``beta``."""
    if beta.n != state.n:
        raise ValueError(f"mixed qubit counts {beta.n} and {state.n}")
    arr = state.lambda_plus if sign == 1 else state.lambda_minus
    return float(arr[canonical_beta(beta).bits])


# -- GHZ basis vectors ----------------------------------------------------------


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
    return SparseStateVector(beta.n, ((lo, INV_SQRT2), (hi, sign * INV_SQRT2)))


def phi_vector(beta: SubsetMask, sign: int, partition: Bipartition) -> SparseStateVector:
    """Partner vector of a subset relative to a bipartition.

    The GHZ vector of ``beta`` with the second group's bits flipped in both
    support indices, in the basis phase convention: +1/sqrt(2) on the
    smaller index and the sign label on the larger one.
    """
    if partition.n != beta.n:
        raise ValueError(f"mixed qubit counts {beta.n} and {partition.n}")
    flip = partition.alpha2.bits
    lo, hi = sorted(idx ^ flip for idx in ghz_vector(beta, sign).support)
    return SparseStateVector(beta.n, ((lo, INV_SQRT2), (hi, sign * INV_SQRT2)))
