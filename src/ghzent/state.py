"""GHZ-diagonal states and their JSON form.

A GHZ-diagonal state is a mixture of GHZ projectors.  It is stored as one
(plus, minus) weight pair per canonical subset class, normalized so the
plain sum of all stored weights is 1; each class stands for itself and its
complementary subset, which share the same projectors.
"""

from __future__ import annotations

import json
from itertools import chain

import numpy as np

from .subsets import MAX_QUBITS, _as_int, bit_strings

NORMALIZATION_TOL = 1e-10
WEIGHT_CLAMP = 1e-12


def _check_qubit_count(n) -> int:
    """``n`` as a Python int; ValueError unless it is an integer in 2..MAX_QUBITS."""
    n = _as_int(n, "qubit count")
    if not 2 <= n <= MAX_QUBITS:
        raise ValueError(f"qubit count must be in 2..{MAX_QUBITS}, got {n}")
    return n


def _clean_weights(values, n: int, name: str) -> np.ndarray:
    arr = np.array(values, dtype=float)
    expected = 1 << (n - 1)
    if arr.shape != (expected,):
        raise ValueError(f"{name} must have {expected} entries for n={n}, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        k = int(np.argmin(np.isfinite(arr)))
        raise ValueError(f"non-finite weight {arr[k]} in {name} at class index {k}")
    tiny = (arr < 0.0) & (arr >= -WEIGHT_CLAMP)
    arr[tiny] = 0.0
    if (arr < 0.0).any():
        k = int(np.argmin(arr))
        raise ValueError(f"negative weight {arr[k]} in {name} at class index {k}")
    arr.flags.writeable = False
    return arr


class GhzDiagonalState:
    """Weights of a GHZ-projector mixture, one pair per canonical class.

    ``lambda_plus[k]`` and ``lambda_minus[k]`` weight the +/- vectors of the
    canonical class whose basis index is ``k``.  Instances are immutable, so
    the density matrix's entry values (the dense oracle's) and the minima of
    ``analytic.partition_minima`` are kept here, read-only, once built.
    """

    __slots__ = ("_n", "_lambda_plus", "_lambda_minus", "_entry_values", "_minima")

    def __init__(self, n: int, lambda_plus, lambda_minus):
        n = _check_qubit_count(n)
        lp = _clean_weights(lambda_plus, n, "lambda_plus")
        lm = _clean_weights(lambda_minus, n, "lambda_minus")
        with np.errstate(over="ignore"):  # an overflow to inf fails the check below
            total = float(lp.sum() + lm.sum())
        if abs(total - 1.0) > NORMALIZATION_TOL:
            raise ValueError(f"bad normalization: weights sum to {total}, expected 1")
        self._n = n
        self._lambda_plus = lp
        self._lambda_minus = lm
        self._entry_values = None
        self._minima = None

    @property
    def n(self) -> int:
        return self._n

    @property
    def lambda_plus(self) -> np.ndarray:
        return self._lambda_plus

    @property
    def lambda_minus(self) -> np.ndarray:
        return self._lambda_minus

    @classmethod
    def pure_ghz(cls, n: int) -> "GhzDiagonalState":
        """The standard GHZ state: unit weight on the + empty class."""
        k = 1 << (_check_qubit_count(n) - 1)
        lp = np.zeros(k)
        lp[0] = 1.0
        return cls(n, lp, np.zeros(k))

    @classmethod
    def maximally_mixed(cls, n: int) -> "GhzDiagonalState":
        k = 1 << (_check_qubit_count(n) - 1)
        w = np.full(k, 0.5 / k)  # 1 / 2^n
        return cls(n, w, w.copy())

    def __eq__(self, other) -> bool:
        if not isinstance(other, GhzDiagonalState):
            return NotImplemented
        return (
            self._n == other._n
            and np.array_equal(self._lambda_plus, other._lambda_plus)
            and np.array_equal(self._lambda_minus, other._lambda_minus)
        )

    def __repr__(self) -> str:
        nz = int(np.count_nonzero(self._lambda_plus) + np.count_nonzero(self._lambda_minus))
        return f"GhzDiagonalState(n={self._n}, nonzero_weights={nz})"


def random_state(n: int, seed: int) -> GhzDiagonalState:
    """Uniform draw from the weight simplex (flat Dirichlet), seeded."""
    n = _check_qubit_count(n)
    seed = _as_int(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    w = rng.exponential(size=(1 << (n - 1), 2))
    w /= w.sum()
    return GhzDiagonalState(n, w[:, 0], w[:, 1])


def state_to_json_dict(state: GhzDiagonalState) -> dict:
    """JSON form listing only the classes that carry weight."""
    lp, lm = state.lambda_plus, state.lambda_minus
    k = np.flatnonzero((lp != 0.0) | (lm != 0.0))
    weights = [
        {"beta": beta, "plus": plus, "minus": minus}
        for beta, plus, minus in zip(bit_strings(k, state.n), lp[k].tolist(), lm[k].tolist())
    ]
    return {"n": state.n, "convention": "canonical", "weights": weights}


def _beta_error(beta, pos: int, n: int) -> ValueError:
    """The error for a ``beta`` that is not an n-digit bit string."""
    if not (isinstance(beta, str) and beta and not beta.strip("01")):
        return ValueError(f"field 'weights[{pos}].beta' must be an n-digit bit string")
    return ValueError(f"field 'weights[{pos}].beta' has {len(beta)} digits, expected {n}")


def _json_number(value) -> float:
    """A JSON number as a float; strings and booleans, which float() takes, are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"not a JSON number: {value!r}")
    return float(value)


def _all_instances(values, base, but=()) -> bool:
    """``isinstance(v, base) and not isinstance(v, but)`` for every v, once per type."""
    return all(issubclass(t, base) and not issubclass(t, but) for t in set(map(type, values)))


def _weight_columns(entries: list, n: int, convention: str):
    """``(lambda_plus, lambda_minus)`` of a weights list, or None if an entry is bad.

    Every check runs on whole columns.  None means some entry fails one;
    :func:`_first_bad_entry` then names the first.  The class indices are a
    Horner fold over the digit columns, so the digits stay one byte each:
    an int64 digit matrix would take 1.6 GB at n = 24.
    """
    if not _all_instances(entries, dict):
        return None
    if not set(chain.from_iterable(entries)) <= {"beta", "plus", "minus"}:
        return None
    betas = [e.get("beta") for e in entries]
    plus = [e.get("plus", 0.0) for e in entries]
    minus = [e.get("minus", 0.0) for e in entries]
    if not (_all_instances(betas, str) and set(map(len, betas)) <= {n}):
        return None
    if not (_all_instances(plus, (int, float), bool) and _all_instances(minus, (int, float), bool)):
        return None
    try:
        raw = "".join(betas).encode("ascii")
        plus = np.array(plus, dtype=float)
        minus = np.array(minus, dtype=float)
    except (UnicodeEncodeError, OverflowError):
        return None
    digits = np.frombuffer(raw, dtype=np.uint8) - ord("0")  # wraps below '0'
    if (digits > 1).any():
        return None
    k = np.zeros(len(entries), dtype=np.int64)
    for column in digits.reshape(-1, n).T:
        k += k
        k += column
    top = 1 << (n - 1)
    high = k >= top
    if high.any():
        if convention == "canonical":
            return None
        k[high] ^= (top << 1) - 1
    if np.bincount(k, minlength=top).max() > 1:
        # Each repeat against its class's first entry; NaN never agrees.
        pos = np.arange(len(k))
        first = np.full(top, len(k))
        np.minimum.at(first, k, pos)
        lead = first[k]
        repeat = lead != pos
        for col in (plus, minus):
            with np.errstate(over="ignore", invalid="ignore"):  # inf - inf, or past max
                agree = np.abs(col[lead[repeat]] - col[repeat]) <= WEIGHT_CLAMP
            if not agree.all():
                return None
        k, plus, minus = k[~repeat], plus[~repeat], minus[~repeat]
    lp = np.zeros(top)
    lm = np.zeros(top)
    lp[k] = plus
    lm[k] = minus
    return lp, lm


def _first_bad_entry(entries: list, n: int, convention: str) -> ValueError:
    """The error for the first entry, in document order, that breaks the weights contract.

    Runs only after :func:`_weight_columns` has rejected the list.
    """
    top = 1 << (n - 1)
    seen: dict[int, tuple[float, float]] = {}
    for pos, entry in enumerate(entries):
        if not isinstance(entry, dict):
            return ValueError(f"field 'weights[{pos}]' must be an object")
        extra = [key for key in entry if key not in ("beta", "plus", "minus")]
        if extra:
            return ValueError(f"unknown field 'weights[{pos}].{extra[0]}'")
        beta = entry.get("beta")
        if not (isinstance(beta, str) and len(beta) == n and not beta.strip("01")):
            return _beta_error(beta, pos, n)
        k = int(beta, 2)
        try:
            plus = _json_number(entry.get("plus", 0.0))
            minus = _json_number(entry.get("minus", 0.0))
        except (TypeError, OverflowError):
            return ValueError(f"field 'weights[{pos}]' plus/minus must be numbers")
        if k & top:
            if convention == "canonical":
                return ValueError(
                    f"field 'weights[{pos}].beta' = {beta!r} is not canonical "
                    "(canonical classes exclude qubit 1)"
                )
            k ^= (top << 1) - 1
        if k not in seen:
            seen[k] = (plus, minus)
            continue
        prev = seen[k]
        # NaN never agrees: a repeat passes only if both differences are <= the clamp
        if not (abs(prev[0] - plus) <= WEIGHT_CLAMP and abs(prev[1] - minus) <= WEIGHT_CLAMP):
            return ValueError(
                f"field 'weights[{pos}].beta' repeats class {format(k, f'0{n}b')} "
                "with conflicting values"
            )
    raise RuntimeError("the weight columns were rejected, but no entry breaks the contract")


def state_from_json_dict(data: dict) -> GhzDiagonalState:
    """Read a state from its JSON form.

    ``convention`` selects the weight bookkeeping: ``canonical`` (default)
    lists each class once under its canonical bit string; ``full`` may
    list any subset, a class and its complement must then agree.  Omitted
    classes default to zero weight.  Any key but ``n``, ``convention`` and
    ``weights``, or in an entry ``beta``, ``plus`` and ``minus``, is an error.
    """
    if not isinstance(data, dict):
        raise ValueError("state JSON must be an object")
    extra = [key for key in data if key not in ("n", "convention", "weights")]
    if extra:
        raise ValueError(f"unknown field '{extra[0]}'")
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
    columns = _weight_columns(entries, n, convention)
    if columns is None:
        raise _first_bad_entry(entries, n, convention)
    return GhzDiagonalState(n, *columns)


def load_state(text: str) -> GhzDiagonalState:
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"malformed JSON: {exc}") from None
    return state_from_json_dict(data)
