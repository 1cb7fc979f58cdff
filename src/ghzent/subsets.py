"""Bitmask algebra for qubit subsets and bipartitions.

Qubits are numbered 1..n.  Qubit ``m`` occupies bit ``n - m`` of a mask, so
qubit 1 sits in the most significant position and the numeric value of a
mask equals the computational-basis index whose binary digits are the
subset's indicator string.  That makes subset masks double as basis
indices with no translation layer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 24


@dataclass(frozen=True)
class SubsetMask:
    """A subset of qubits 1..n packed into the low ``n`` bits of an int."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_QUBITS:
            raise ValueError(f"qubit count must be in 1..{MAX_QUBITS}, got {self.n}")
        if not 0 <= self.bits < (1 << self.n):
            raise ValueError(f"mask {self.bits} out of range for n={self.n}")

    def complement(self) -> "SubsetMask":
        return SubsetMask(self.bits ^ ((1 << self.n) - 1), self.n)

    def contains(self, qubit: int) -> bool:
        if not 1 <= qubit <= self.n:
            raise ValueError(f"qubit {qubit} out of range 1..{self.n}")
        return bool(self.bits >> (self.n - qubit) & 1)

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_full(self) -> bool:
        return self.bits == (1 << self.n) - 1

    def bit_string(self) -> str:
        """Indicator string, one digit per qubit, qubit 1 first."""
        return format(self.bits, f"0{self.n}b")

    def __repr__(self) -> str:
        return f"SubsetMask({self.bit_string()!r})"


@dataclass(frozen=True)
class Bipartition:
    """A split of qubits 1..n into two nonempty groups.

    Only one side is stored.  The representative ``alpha1`` is the side
    containing qubit 1, so a split and its mirror image compare equal.
    """

    alpha1: SubsetMask

    def __post_init__(self) -> None:
        a = self.alpha1
        if a.is_empty or a.is_full:
            raise ValueError("both sides of a bipartition must be nonempty")
        if not a.contains(1):
            object.__setattr__(self, "alpha1", a.complement())

    @property
    def n(self) -> int:
        return self.alpha1.n

    @property
    def alpha2(self) -> SubsetMask:
        return self.alpha1.complement()

    def split_string(self) -> str:
        """Human-readable split such as ``1|234`` (commas past 9 qubits)."""
        return split_string(self.alpha1.bit_string())

    def __repr__(self) -> str:
        return f"Bipartition({self.split_string()!r})"


def split_string(alpha1: str) -> str:
    """The split ``1|234`` of the ``alpha1`` bit string ``1000``; commas past 9 qubits."""
    sides = {"1": [], "0": []}
    for m, bit in enumerate(alpha1, 1):
        sides[bit].append(str(m))
    sep = "" if len(alpha1) <= 9 else ","
    return f"{sep.join(sides['1'])}|{sep.join(sides['0'])}"


def enumerate_bipartitions(n: int) -> list[Bipartition]:
    """All 2^(n-1) - 1 distinct bipartitions, increasing by alpha1 mask."""
    if n < 2:
        raise ValueError(f"a bipartition needs at least 2 qubits, got n={n}")
    top = 1 << (n - 1)
    return [Bipartition(SubsetMask(top | k, n)) for k in range(top - 1)]


def bit_strings(masks, n: int) -> list[str]:
    """``SubsetMask(m, n).bit_string()`` of every mask in an int array, in order.

    Each mask is unpacked as four big-endian bytes, so its last n bits come
    out most significant first.  They go into one ASCII buffer as rows of n
    digits and a space, which is decoded once and split at the spaces.
    """
    bits = np.unpackbits(np.asarray(masks, dtype=">u4").view(np.uint8).reshape(-1, 4), axis=1)
    text = np.full((bits.shape[0], n + 1), ord(" "), dtype=np.uint8)
    np.bitwise_or(bits[:, 32 - n :], ord("0"), out=text[:, :n])
    return text.tobytes().decode("ascii").split()


def bipartition_bit_strings(n: int) -> list[str]:
    """The ``alpha1`` bit strings of ``enumerate_bipartitions(n)``, in its order."""
    top = 1 << (n - 1)
    return bit_strings(np.arange(top, 2 * top - 1), n)
