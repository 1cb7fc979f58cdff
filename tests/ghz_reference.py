"""Independent references the tests check the library against.

The GHZ basis as sparse two-amplitude vectors, the subset-mask and weight
helpers that only the tests need, the white-noise mixing their noisy
fixtures are built with, and a per-entry parser of the state's JSON form.
None of it is used by ``ghzent`` itself, so the checks built on it share
no code with the paths they test; the mixing and the parser build their
states with ``GhzDiagonalState``, as the library does.

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

from ghzent.state import WEIGHT_CLAMP, GhzDiagonalState
from ghzent.subsets import MAX_QUBITS, Bipartition, SubsetMask

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


def qubits(mask: SubsetMask) -> tuple[int, ...]:
    """The qubits a mask contains, in increasing order."""
    return tuple(m for m in range(1, mask.n + 1) if mask.bits >> (mask.n - m) & 1)


def reference_split_string(partition: Bipartition) -> str:
    """``1|234``: each side's qubits read off its mask, commas past 9 qubits."""
    sep = "" if partition.n <= 9 else ","
    sides = (partition.alpha1, partition.alpha2)
    return "|".join(sep.join(map(str, qubits(side))) for side in sides)


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


def mix_with_white_noise(state: GhzDiagonalState, p: float) -> GhzDiagonalState:
    """Depolarize: blend every weight toward the maximally mixed 1/2^n."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing probability must be in [0, 1], got {p}")
    floor = p / (1 << state.n)
    return GhzDiagonalState(
        state.n,
        (1.0 - p) * state.lambda_plus + floor,
        (1.0 - p) * state.lambda_minus + floor,
    )


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


# -- the state's JSON form ------------------------------------------------------


def _reference_beta_error(beta, pos: int, n: int) -> ValueError:
    if not (isinstance(beta, str) and beta and not beta.strip("01")):
        return ValueError(f"field 'weights[{pos}].beta' must be an n-digit bit string")
    return ValueError(f"field 'weights[{pos}].beta' has {len(beta)} digits, expected {n}")


def _reference_number(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a JSON number: {value!r}")
    return float(value)


def reference_state_from_json_dict(data: dict) -> GhzDiagonalState:
    """``state_from_json_dict`` one entry at a time, raising at the first bad one.

    Only ``n``, ``convention`` and ``weights`` are top-level fields, and only
    ``beta``, ``plus`` and ``minus`` fields of an entry; any other key is bad.
    A repeated class passes only when both of its weights agree with the
    first entry of that class within ``WEIGHT_CLAMP``; a NaN never agrees.
    """
    if not isinstance(data, dict):
        raise ValueError("state JSON must be an object")
    for key in data:
        if key not in ("n", "convention", "weights"):
            raise ValueError(f"unknown field '{key}'")
    n = data.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"field 'n' must be an integer qubit count, got {n!r}")
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"field 'n' must be in 2..{MAX_QUBITS}, got {n}")
    convention = data.get("convention", "canonical")
    if convention not in ("canonical", "full"):
        raise ValueError(f"field 'convention' must be 'canonical' or 'full', got {convention!r}")
    entries = data.get("weights", [])
    if not isinstance(entries, list):
        raise ValueError("field 'weights' must be a list")

    top = 1 << (n - 1)
    lp = np.zeros(top)
    lm = np.zeros(top)
    seen: dict[int, tuple[float, float]] = {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"field 'weights[{pos}]' must be an object")
        for key in entry:
            if key not in ("beta", "plus", "minus"):
                raise ValueError(f"unknown field 'weights[{pos}].{key}'")
        beta = entry.get("beta")
        if not (isinstance(beta, str) and len(beta) == n and not beta.strip("01")):
            raise _reference_beta_error(beta, pos, n)
        k = int(beta, 2)
        plus = entry.get("plus", 0.0)
        minus = entry.get("minus", 0.0)
        if type(plus) is not float or type(minus) is not float:
            try:
                plus = _reference_number(plus)
                minus = _reference_number(minus)
            except (TypeError, OverflowError):
                raise ValueError(f"field 'weights[{pos}]' plus/minus must be numbers") from None
        if k & top:
            if convention == "canonical":
                raise ValueError(
                    f"field 'weights[{pos}].beta' = {beta!r} is not canonical "
                    "(canonical classes exclude qubit 1)"
                )
            k ^= (top << 1) - 1
        if k in seen:
            prev = seen[k]
            if not (abs(prev[0] - plus) <= WEIGHT_CLAMP and abs(prev[1] - minus) <= WEIGHT_CLAMP):
                raise ValueError(
                    f"field 'weights[{pos}].beta' repeats class {format(k, f'0{n}b')} "
                    "with conflicting values"
                )
            continue
        seen[k] = (plus, minus)
        lp[k] = plus
        lm[k] = minus
    return GhzDiagonalState(n, lp, lm)
