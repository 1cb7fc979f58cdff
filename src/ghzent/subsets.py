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

# masks per block in split_strings: 2^16 rows of at most 2 * 3 * 24 + 2 bytes
_SPLIT_BLOCK = 1 << 16


def _as_int(value, name: str) -> int:
    """``value`` as a Python int: an int or a numpy integer, never a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class SubsetMask:
    """A subset of qubits 1..n packed into the low ``n`` bits of an int."""

    bits: int
    n: int

    def __post_init__(self) -> None:
        if type(self.n) is not int or type(self.bits) is not int:  # stored as Python ints
            object.__setattr__(self, "n", _as_int(self.n, "qubit count"))
            object.__setattr__(self, "bits", _as_int(self.bits, "mask"))
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
        return split_strings([self.alpha1.bits], self.n)[0]

    def __repr__(self) -> str:
        return f"Bipartition({self.split_string()!r})"


def enumerate_bipartitions(n: int) -> list[Bipartition]:
    """All 2^(n-1) - 1 distinct bipartitions, increasing by alpha1 mask."""
    n = _as_int(n, "qubit count")
    if n < 2:
        raise ValueError(f"a bipartition needs at least 2 qubits, got n={n}")
    top = 1 << (n - 1)
    return [Bipartition(SubsetMask(top | k, n)) for k in range(top - 1)]


def _digits(masks, n: int) -> np.ndarray:
    """The last n bits of every mask in an int array, most significant first.

    Each mask is unpacked as four big-endian bytes; the result is a
    (len(masks), n) uint8 array of 0s and 1s, one row per mask.
    """
    bits = np.unpackbits(np.asarray(masks, dtype=">u4").view(np.uint8).reshape(-1, 4), axis=1)
    return bits[:, 32 - n :]


def bit_strings(masks, n: int) -> list[str]:
    """``SubsetMask(m, n).bit_string()`` of every mask in an int array, in order.

    The digits go into one ASCII buffer as rows of n digits and a space,
    which is decoded once and split at the spaces.
    """
    digits = _digits(masks, n)
    text = np.full((digits.shape[0], n + 1), ord(" "), dtype=np.uint8)
    np.bitwise_or(digits, ord("0"), out=text[:, :n])
    return text.tobytes().decode("ascii").split()


def split_strings(masks, n: int) -> list[str]:
    """The split ``1|234`` of every ``alpha1`` mask in an int array; commas past 9 qubits.

    A row is a space, a cell per qubit for the mask's side, ``|``, and a
    cell per qubit for the other side.  A qubit's cell holds its label,
    after a comma past 9 qubits, on its own side and NULs on the other.
    The NULs are dropped from the buffer, which is decoded once; then the
    comma after each space or ``|`` goes, and the text is split at the
    spaces.  Masks go through in blocks of ``_SPLIT_BLOCK``, so the
    buffers stay a few tens of MB even for all 2^23 cuts of 24 qubits.
    """
    masks = np.asarray(masks)
    sep = "," if n > 9 else ""
    labels = np.array([sep + str(m) for m in range(1, n + 1)], dtype=f"S{len(sep) + len(str(n))}")
    cells = labels.view(np.uint8).reshape(n, -1)
    out: list[str] = []
    for start in range(0, len(masks), _SPLIT_BLOCK):
        digits = _digits(masks[start : start + _SPLIT_BLOCK], n)[:, :, None]
        text = np.zeros((len(digits), 2, cells.size + 1), dtype=np.uint8)
        text[:, :, 0] = (ord(" "), ord("|"))
        text[:, 0, 1:] = (cells * digits).reshape(len(digits), -1)
        text[:, 1, 1:] = (cells * (digits ^ 1)).reshape(len(digits), -1)
        text = text[text != 0].tobytes().decode("ascii")
        out += text.replace(" ,", " ").replace("|,", "|").split()
    return out


def bipartition_bit_strings(n: int) -> list[str]:
    """The ``alpha1`` bit strings of ``enumerate_bipartitions(n)``, in its order."""
    top = 1 << (n - 1)
    return bit_strings(np.arange(top, 2 * top - 1), n)


def bipartition_split_strings(n: int) -> list[str]:
    """The ``1|234`` splits of ``enumerate_bipartitions(n)``, in its order."""
    top = 1 << (n - 1)
    return split_strings(np.arange(top, 2 * top - 1), n)
