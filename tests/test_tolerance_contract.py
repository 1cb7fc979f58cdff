"""The tolerance contract against exact arithmetic.

Both routes compute in floats, so neither can say by itself how far its
verdict is from the verdict for the exact weights a user wrote.  The
reference here reads each document with ``json.loads(parse_float=Fraction)``,
so every weight is exactly the decimal written.  It clamps tiny negatives as
``state._clean_weights`` does and does not renormalise, because the float
path does neither more nor less.  It then takes every cut's minimum block
coefficient M(alpha) = min_j (s[j ^ alpha2] - |d_j|) exactly, in integers
over one common denominator.  It shares that identity with the scan; what it
checks independently is the rounding: the float parse, and the B, C, D, E
formulas in their operation order.

The contract pinned here: |M_float - M_exact| <= BOUND_C * eps * max(s), and
a verdict at tol = 1e-12 or tol = 0 equals the exact verdict unless
|M_exact + tol| is within that bound.  Only the standard library builds the
reference.
"""

import json
import math
import sys
from fractions import Fraction

import pytest

from ghz_reference import mix_with_white_noise
from ghzent.analytic import COEFFICIENT_TOL, classify
from ghzent.state import (
    WEIGHT_CLAMP,
    GhzDiagonalState,
    load_state,
    random_state,
    state_to_json_dict,
)
from test_analytic import dephased_state, ghz_at, quantised_state

EPS = Fraction(sys.float_info.epsilon)

# Measured on the 3444 cuts of the corpus below: at most 1.03, on the near
# maximally mixed n = 8 state.  A first-order worst case is 4: the parse moves
# each of a pair's four weights by eps/2 of itself, and each of the formula's
# three roundings by eps/2 of a partial sum of at most 2 max(s).
BOUND_C = 2


def exact_minima(text: str) -> tuple[list[Fraction], Fraction]:
    """Every cut's exact minimum coefficient, in enumeration order, and max(s)."""
    data = json.loads(text, parse_float=Fraction)
    n = data["n"]
    assert data.get("convention", "canonical") == "canonical"
    top = 1 << (n - 1)
    plus = [Fraction(0)] * top
    minus = [Fraction(0)] * top
    for entry in data["weights"]:
        k = int(entry["beta"], 2)
        plus[k] = _clamped(Fraction(entry.get("plus", 0)))
        minus[k] = _clamped(Fraction(entry.get("minus", 0)))
    den = math.lcm(*(w.denominator for w in plus + minus))
    s = [int((p + m) * den) for p, m in zip(plus, minus)]
    abs_d = [abs(int((p - m) * den)) for p, m in zip(plus, minus)]
    minima = [
        Fraction(min(s[j ^ alpha2] - abs_d[j] for j in range(top)), den)
        for alpha2 in range(top - 1, 0, -1)
    ]
    return minima, Fraction(max(s), den)


def _clamped(w: Fraction) -> Fraction:
    # _clean_weights compares the parsed float with the float WEIGHT_CLAMP
    return Fraction(0) if w < 0 and float(w) >= -WEIGHT_CLAMP else w


def _text(state: GhzDiagonalState) -> str:
    return json.dumps(state_to_json_dict(state))


def _with_clamped_negative(state: GhzDiagonalState) -> str:
    """``state``'s document with its first zero weight written as -5e-13, which the parse clamps."""
    doc = state_to_json_dict(state)
    entry = next(e for e in doc["weights"] if 0.0 in (e["plus"], e["minus"]))
    entry["minus" if entry["minus"] == 0.0 else "plus"] = -5e-13
    return json.dumps(doc)


def corpus(n: int) -> list[str]:
    p_star = (1 << n) / ((1 << n) + 2)
    texts = [_text(random_state(n, seed)) for seed in (200 + n, 210 + n)]
    for delta in (0.0, 1e-15, -1e-15, 1e-12, -1e-12, 3e-12, -3e-12):
        texts.append(_text(ghz_at(n, p_star + delta)))
    texts.append(_text(mix_with_white_noise(random_state(n, 220 + n), 0.995)))
    texts += [_text(quantised_state(n, seed)) for seed in (230 + n, 240 + n)]
    texts.append(_text(dephased_state(n, 250 + n)))
    texts.append(_with_clamped_negative(quantised_state(n, 260 + n)))
    return texts


CORPUS = [(n, i, text) for n in range(3, 9) for i, text in enumerate(corpus(n))]


def _cases():
    for n, i, text in CORPUS:
        minima, max_s = exact_minima(text)
        yield n, i, load_state(text), minima, EPS * max_s


def test_float_minima_are_within_the_bound_of_the_exact_minima():
    worst = Fraction(0)
    cuts = 0
    for n, i, state, minima, unit in _cases():
        values = classify(state).values.tolist()
        assert len(values) == len(minima) == (1 << (n - 1)) - 1
        for value, exact in zip(values, minima):
            worst = max(worst, abs(Fraction(value) - exact) / unit)
        cuts += len(values)
    assert cuts == sum((1 << (n - 1)) - 1 for n, _, _ in CORPUS)
    assert 0 < worst <= BOUND_C, float(worst)


@pytest.mark.parametrize("tol", [COEFFICIENT_TOL, 0.0])
def test_verdicts_are_exact_outside_the_rounding_band(tol):
    exact_tol = Fraction(tol)
    banded = 0
    for n, i, state, minima, unit in _cases():
        ppt = classify(state, tol=tol).ppt.tolist()
        for cut, (verdict, exact) in enumerate(zip(ppt, minima)):
            if abs(exact + exact_tol) <= BOUND_C * unit:
                banded += 1
            else:
                assert verdict == (exact >= -exact_tol), (n, i, cut, float(exact))
    # At tol = 1e-12 no cut of the corpus is in the band, so every verdict is
    # exact.  At tol = 0 GHZ + noise at p* (n = 3..6) and the quantised states
    # put 63 cuts there, with minima 0 or a few ulps from it; 3 verdicts differ.
    assert banded == (63 if tol == 0.0 else 0)


# Two qubits with Bell weights 1/2, 0, 0.09, 0.41: PPT, with minimum exactly 0
# as written, but the float sum 0.09 + 0.41 rounds below 0.5.
BELL_ON_THE_BOUNDARY = (
    '{"n": 2, "weights": [{"beta": "00", "plus": 0.5, "minus": 0.0},'
    ' {"beta": "01", "plus": 0.09, "minus": 0.41}]}'
)


def test_an_exact_zero_minimum_rounds_below_zero():
    (exact,), max_s = exact_minima(BELL_ON_THE_BOUNDARY)
    assert exact == 0
    state = load_state(BELL_ON_THE_BOUNDARY)
    (value,) = classify(state).values.tolist()
    assert value == -2.0**-54
    assert abs(Fraction(value)) <= BOUND_C * EPS * max_s
    # so tol = 0 calls this exactly-PPT state NPT, and the default tolerance does not
    assert classify(state, tol=0.0).full_entangled
    assert not classify(state).full_entangled
