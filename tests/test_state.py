import json
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_reference import (
    enumerate_canonical_betas,
    ghz_vector,
    mix_with_white_noise,
    reference_state_from_json_dict,
    weight,
)
from ghzent.analytic import classify
from ghzent.cli import main
from ghzent.oracle import to_dense
from ghzent.state import (
    GhzDiagonalState,
    load_state,
    random_state,
    state_from_json_dict,
    state_to_json_dict,
)
from ghzent.subsets import SubsetMask, enumerate_bipartitions


def extract_lambda(m: np.ndarray, beta: SubsetMask, sign: int) -> float:
    """Quadratic form of the matrix on a GHZ basis vector.

    For GHZ-diagonal inputs this recovers the stored weight of the class.
    """
    (i, a), (j, b) = ghz_vector(beta, sign).entries
    return float(a * a * m[i, i] + b * b * m[j, j] + 2.0 * a * b * m[i, j])


def test_constructor_checks_normalization():
    GhzDiagonalState(2, [0.5, 0.0], [0.5, 0.0])
    with pytest.raises(ValueError, match="normalization"):
        GhzDiagonalState(2, [0.5, 0.0], [0.6, 0.0])
    with pytest.raises(ValueError):
        GhzDiagonalState(2, [0.5], [0.5])  # wrong length
    with pytest.raises(ValueError):
        GhzDiagonalState(2, [1.1, 0.0], [-0.1, 0.0])  # negative weight


def test_constructor_clamps_float_dust():
    s = GhzDiagonalState(2, [1.0 + 5e-13, -5e-13], [0.0, 0.0])
    assert s.lambda_plus[1] == 0.0
    assert weight(s, SubsetMask(1, 2), +1) == 0.0


def test_qubit_range():
    with pytest.raises(ValueError):
        GhzDiagonalState(1, [1.0], [0.0])
    with pytest.raises(ValueError):
        GhzDiagonalState(25, [1.0], [0.0])


def test_pure_ghz_and_maximally_mixed():
    s = GhzDiagonalState.pure_ghz(3)
    assert weight(s, SubsetMask(0, 3), +1) == 1.0
    assert s.lambda_plus.sum() + s.lambda_minus.sum() == pytest.approx(1.0)
    m = GhzDiagonalState.maximally_mixed(3)
    assert np.allclose(m.lambda_plus, 1 / 8)
    assert np.allclose(m.lambda_minus, 1 / 8)


def test_weights_are_read_only():
    s = random_state(3, 1)
    with pytest.raises(ValueError):
        s.lambda_plus[0] = 0.5


def test_dense_matrix_structure():
    s = random_state(3, 2)
    m = to_dense(s)
    assert m.shape == (8, 8) and m.dtype == np.float64
    assert abs(np.trace(m) - 1.0) < 1e-12
    assert np.array_equal(m, m.T)
    # only the main and anti diagonal are populated
    mask = np.zeros((8, 8), dtype=bool)
    for k in range(8):
        mask[k, k] = mask[k, 7 - k] = True
    assert np.all(m[~mask] == 0.0)
    # diagonal carries the average, the anti diagonal the half difference
    lp, lm = s.lambda_plus, s.lambda_minus
    assert m[0, 0] == pytest.approx((lp[0] + lm[0]) / 2, abs=1e-15)
    assert m[0, 7] == pytest.approx((lp[0] - lm[0]) / 2, abs=1e-15)


def test_dense_equals_projector_sum():
    for seed in range(5):
        s = random_state(3, seed)
        acc = np.zeros((8, 8))
        for beta in enumerate_canonical_betas(3):
            acc += weight(s, beta, +1) * ghz_vector(beta, +1).outer()
            acc += weight(s, beta, -1) * ghz_vector(beta, -1).outer()
        assert np.max(np.abs(acc - to_dense(s))) < 1e-15


def test_extract_lambda_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        s = random_state(n, int(rng.integers(0, 10_000)))
        rho = to_dense(s)
        for beta in enumerate_canonical_betas(n):
            assert extract_lambda(rho, beta, +1) == pytest.approx(
                weight(s, beta, +1), abs=1e-12
            )
            assert extract_lambda(rho, beta, -1) == pytest.approx(
                weight(s, beta, -1), abs=1e-12
            )


def test_random_state_is_deterministic_and_normalized():
    a = random_state(5, 123)
    b = random_state(5, 123)
    c = random_state(5, 124)
    assert a == b
    assert a != c
    total = a.lambda_plus.sum() + a.lambda_minus.sum()
    assert abs(total - 1.0) < 1e-12
    assert np.all(a.lambda_plus >= 0) and np.all(a.lambda_minus >= 0)


def test_random_state_checks_qubit_count_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"qubit count must be in 2\.\.24, got 25"):
            random_state(25, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    for n in (0, 1):
        with pytest.raises(ValueError, match=rf"qubit count must be in 2\.\.24, got {n}"):
            random_state(n, 0)


def test_random_command_rejects_too_many_qubits(capsys):
    assert main(["random", "--n", "25"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: qubit count must be in 2..24, got 25\n"


def test_white_noise_endpoints():
    s = random_state(3, 9)
    assert mix_with_white_noise(s, 0.0) == s
    assert mix_with_white_noise(s, 1.0) == GhzDiagonalState.maximally_mixed(3)
    with pytest.raises(ValueError):
        mix_with_white_noise(s, -0.1)
    with pytest.raises(ValueError):
        mix_with_white_noise(s, 1.1)


def test_white_noise_is_affine():
    s = random_state(3, 10)
    a = mix_with_white_noise(mix_with_white_noise(s, 0.5), 0.6)
    b = mix_with_white_noise(s, 0.5 + 0.6 - 0.5 * 0.6)
    assert np.allclose(a.lambda_plus, b.lambda_plus, atol=1e-15)
    assert np.allclose(a.lambda_minus, b.lambda_minus, atol=1e-15)


def test_json_round_trip():
    for seed in range(10):
        s = random_state(4, seed)
        assert load_state(json.dumps(state_to_json_dict(s), indent=2)) == s


def test_json_omits_zero_classes():
    s = GhzDiagonalState.pure_ghz(3)
    doc = state_to_json_dict(s)
    assert doc["n"] == 3
    assert doc["convention"] == "canonical"
    assert doc["weights"] == [{"beta": "000", "plus": 1.0, "minus": 0.0}]


def _weights_by_loop(state):
    """Reference for the ``weights`` list of ``state_to_json_dict``: one class at a time."""
    weights = []
    for k in range(1 << (state.n - 1)):
        plus = float(state.lambda_plus[k])
        minus = float(state.lambda_minus[k])
        if plus != 0.0 or minus != 0.0:
            weights.append({"beta": format(k, f"0{state.n}b"), "plus": plus, "minus": minus})
    return weights


@pytest.mark.parametrize("n", [2, 3, 8, 12])
def test_json_weights_equal_per_class_loop(n):
    # -0.0 is no weight: its class is omitted, or written as -0.0 beside a weight
    lp = np.full(1 << (n - 1), -0.0)
    lm = lp.copy()
    lp[0] = lm[-1] = 0.5
    for state in (
        random_state(n, n),
        GhzDiagonalState.pure_ghz(n),
        GhzDiagonalState.maximally_mixed(n),
        GhzDiagonalState(n, lp, lm),
    ):
        want = json.dumps(_weights_by_loop(state))
        assert json.dumps(state_to_json_dict(state)["weights"]) == want


def test_json_full_convention_maps_to_complement():
    doc = {
        "n": 3,
        "convention": "full",
        "weights": [{"beta": "111", "plus": 0.4, "minus": 0.6}],
    }
    s = state_from_json_dict(doc)
    assert weight(s, SubsetMask(0, 3), +1) == pytest.approx(0.4)
    assert weight(s, SubsetMask(0, 3), -1) == pytest.approx(0.6)
    # both labels of one class may appear when they agree
    doc["weights"].append({"beta": "000", "plus": 0.4, "minus": 0.6})
    assert state_from_json_dict(doc) == s
    doc["weights"][-1]["plus"] = 0.3
    with pytest.raises(ValueError, match="conflicting"):
        state_from_json_dict(doc)


def test_json_rejects_bad_documents():
    good = {
        "n": 2,
        "convention": "canonical",
        "weights": [{"beta": "00", "plus": 1.0, "minus": 0.0}],
    }
    with pytest.raises(ValueError, match="convention"):
        state_from_json_dict({**good, "convention": "other"})
    with pytest.raises(ValueError, match="n"):
        state_from_json_dict({**good, "n": "two"})
    with pytest.raises(ValueError, match="beta"):
        state_from_json_dict(
            {**good, "weights": [{"beta": "0", "plus": 1.0, "minus": 0.0}]}
        )
    with pytest.raises(ValueError, match="beta"):
        state_from_json_dict(
            {**good, "weights": [{"beta": "10", "plus": 1.0, "minus": 0.0}]}
        )
    with pytest.raises(ValueError):
        state_from_json_dict({**good, "weights": "nope"})
    with pytest.raises(ValueError, match="malformed"):
        load_state("{not json")


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_constructor_rejects_non_finite_weights(bad):
    with pytest.raises(ValueError, match="non-finite"):
        GhzDiagonalState(2, [1.0, bad], [0.0, 0.0])
    with pytest.raises(ValueError, match="non-finite"):
        GhzDiagonalState(2, [1.0, 0.0], [bad, 0.0])


def test_json_rejects_non_finite_weights():
    for literal in ("NaN", "Infinity", "-Infinity"):
        text = (
            '{"n": 2, "weights": [{"beta": "00", "plus": 1.0, "minus": 0.0}, '
            f'{{"beta": "01", "plus": {literal}, "minus": 0.0}}]}}'
        )
        with pytest.raises(ValueError, match="non-finite"):
            load_state(text)


@pytest.mark.parametrize("bad", [3.7, 12.0, "12", True, None, [3]])
def test_json_rejects_non_integer_n(bad):
    doc = {"n": bad, "weights": [{"beta": "000", "plus": 1.0, "minus": 0.0}]}
    with pytest.raises(ValueError, match="field 'n'"):
        state_from_json_dict(doc)


def test_json_rejects_duplicate_class():
    doc = {
        "n": 2,
        "convention": "canonical",
        "weights": [
            {"beta": "00", "plus": 0.5, "minus": 0.0},
            {"beta": "00", "plus": 0.5, "minus": 0.0},
        ],
    }
    with pytest.raises(ValueError):
        state_from_json_dict(doc)


def test_json_output_is_valid_json():
    s = random_state(3, 3)
    doc = json.loads(json.dumps(state_to_json_dict(s), indent=2))
    assert set(doc) == {"n", "convention", "weights"}


def test_state_equality_and_repr():
    s = GhzDiagonalState.pure_ghz(3)
    assert (s == 3) is False
    assert s == GhzDiagonalState.pure_ghz(3)
    assert repr(s) == "GhzDiagonalState(n=3, nonzero_weights=1)"


def test_to_dense_respects_cap():
    with pytest.raises(ValueError, match="dense path supports 1..10 qubits, got 11"):
        to_dense(random_state(11, 0))


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: random_state(3.0, 0), "qubit count must be an integer, got 3.0"),
        (lambda: GhzDiagonalState(3.0, [1, 0, 0, 0], [0] * 4), "qubit count must be an integer"),
        (lambda: GhzDiagonalState(True, [1, 0], [0, 0]), "qubit count must be an integer, got True"),
        (lambda: GhzDiagonalState.pure_ghz(3.0), "qubit count must be an integer, got 3.0"),
        (lambda: enumerate_bipartitions(3.0), "qubit count must be an integer, got 3.0"),
        (lambda: SubsetMask(1.0, 3), "mask must be an integer, got 1.0"),
        (lambda: SubsetMask(True, 3), "mask must be an integer, got True"),
        (lambda: SubsetMask(1, 3.0), "qubit count must be an integer, got 3.0"),
        (lambda: classify(random_state(3, 0), tol=True), "tol must be a finite number >= 0, got True"),
        (lambda: classify(random_state(3, 0), tol=np.True_), "tol must be a finite number >= 0, got True"),
        # numpy integers are taken, and kept as Python ints
        (lambda: json.dumps(state_to_json_dict(random_state(np.int64(3), 0))), None),
        (lambda: json.dumps([p.alpha1.bits for p in enumerate_bipartitions(np.int64(3))]), None),
        (lambda: json.dumps(vars(SubsetMask(np.int64(5), np.uint8(3)))), None),
    ],
    ids=[
        "random_state-float",
        "state-float",
        "state-bool",
        "pure_ghz-float",
        "enumerate-float",
        "mask-float",
        "mask-bool",
        "mask-float-n",
        "classify-bool-tol",
        "classify-numpy-bool-tol",
        "random_state-int64",
        "enumerate-int64",
        "mask-int64",
    ],
)
def test_qubit_counts_masks_and_tolerances_are_checked(call, error):
    # A float or bool used to fail later with a TypeError, or (a bool) pass as 0 or 1.
    if error is None:
        call()
    else:
        with pytest.raises(ValueError, match=re.escape(error)):
            call()


@pytest.mark.parametrize(
    "seed, error",
    [
        (2.5, "seed must be an integer, got 2.5"),
        (True, "seed must be an integer, got True"),
        (np.True_, "seed must be an integer, got "),  # numpy 2 prints np.True_
        ("1", "seed must be an integer, got '1'"),
        (-1, "seed must be >= 0, got -1"),
    ],
    ids=["float", "bool", "numpy-bool", "string", "negative"],
)
def test_random_state_checks_its_seed(seed, error):
    # 2.5 used to raise numpy's TypeError, and True ran as seed 1
    with pytest.raises(ValueError, match=re.escape(error)):
        random_state(3, seed)


def test_random_state_takes_numpy_integer_seeds():
    expected = random_state(3, 5)
    for seed in (np.int64(5), np.uint8(5)):
        drawn = random_state(3, seed)
        assert np.array_equal(drawn.lambda_plus, expected.lambda_plus)
        assert np.array_equal(drawn.lambda_minus, expected.lambda_minus)


NOT_A_BIT_STRING = "error: field 'weights[0].beta' must be an n-digit bit string\n"


@pytest.mark.parametrize(
    "weights, convention, message",
    [
        # int(s, 2) accepts these four; a bit string must not
        ([{"beta": " 01", "plus": 1.0}], "canonical", NOT_A_BIT_STRING),
        ([{"beta": "0_1", "plus": 1.0}], "canonical", NOT_A_BIT_STRING),
        ([{"beta": "+01", "plus": 1.0}], "canonical", NOT_A_BIT_STRING),
        ([{"beta": "0b1", "plus": 1.0}], "full", NOT_A_BIT_STRING),
        (
            [{"beta": "000", "plus": 0.5}, {"beta": "0001", "plus": 0.5}],
            "canonical",
            "error: field 'weights[1].beta' has 4 digits, expected 3\n",
        ),
        ([{"beta": 11, "plus": 1.0}], "canonical", NOT_A_BIT_STRING),
        ([{"plus": 1.0}], "canonical", NOT_A_BIT_STRING),
        (
            [{"beta": "100", "plus": 1.0}],
            "canonical",
            "error: field 'weights[0].beta' = '100' is not canonical "
            "(canonical classes exclude qubit 1)\n",
        ),
        (
            [{"beta": "000", "plus": 0.5}, {"beta": "000", "plus": 0.4}],
            "canonical",
            "error: field 'weights[1].beta' repeats class 000 with conflicting values\n",
        ),
        (
            [{"beta": "000", "plus": 0.5}, {"beta": "111", "plus": 0.4}],
            "full",
            "error: field 'weights[1].beta' repeats class 000 with conflicting values\n",
        ),
        ([{"beta": "", "plus": 1.0}], "canonical", NOT_A_BIT_STRING),
        # digits are counted past the 24-qubit cap too
        (
            [{"beta": "0" * 30, "plus": 1.0}],
            "canonical",
            "error: field 'weights[0].beta' has 30 digits, expected 3\n",
        ),
        (
            [{"beta": "0" * 25, "plus": 1.0}],
            "full",
            "error: field 'weights[0].beta' has 25 digits, expected 3\n",
        ),
    ],
)
def test_bad_beta_entries_exit_two_with_exact_message(capsys, weights, convention, message):
    text = json.dumps({"n": 3, "convention": convention, "weights": weights})
    for command in ("classify", "threshold"):
        assert main([command, "--input", text, "--format", "json"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", message)


NOT_NUMBERS = "error: field 'weights[0]' plus/minus must be numbers\n"


# float() takes the strings and booleans, and overflows on the huge integer
@pytest.mark.parametrize(
    "weight",
    ['" 1e0 "', '"1"', "true", "false", '"nan"', "null", "[1]", '{"v": 1}', "1" + "0" * 400],
)
@pytest.mark.parametrize("field", ["plus", "minus"])
def test_non_number_weights_exit_two_with_exact_message(capsys, field, weight):
    other = "minus" if field == "plus" else "plus"
    text = f'{{"n": 2, "weights": [{{"beta": "00", "{field}": {weight}, "{other}": 1.0}}]}}'
    for command in ("classify", "threshold"):
        assert main([command, "--input", text, "--format", "json"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", NOT_NUMBERS)


@pytest.mark.parametrize(
    "convention, repeat", [("canonical", "00"), ("full", "00"), ("full", "11")]
)
@pytest.mark.parametrize("field", ["plus", "minus"])
def test_nan_in_a_repeated_class_conflicts(capsys, convention, repeat, field):
    # abs(prev - NaN) > clamp is False, so a NaN repeat once passed as agreeing
    first = {"beta": "00", "plus": 1.0, "minus": 0.0}
    second = {**first, "beta": repeat, field: math.nan}
    text = json.dumps({"n": 2, "convention": convention, "weights": [first, second]})
    message = "error: field 'weights[1].beta' repeats class 00 with conflicting values\n"
    for command in ("classify", "threshold"):
        assert main([command, "--input", text, "--format", "json"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", message)


@pytest.mark.parametrize(
    "weights, extra, field",
    [
        ('{"beta": "00", "plus": 1.0, "minsu": 1e-13}', "", "weights[0].minsu"),
        ('{"beta": "00", "plus": 1.0}', ', "extra": 1', "extra"),
        ('{"beta": "00", "plus": 1.0, "minsu": 1e-13}', ', "extra": 1', "extra"),
        (
            '{"beta": "00", "plus": 0.5}, {"beta": "01", "plus": 0.5, "bogus": 3}',
            "",
            "weights[1].bogus",
        ),
    ],
)
def test_unknown_keys_exit_two_naming_the_field(capsys, weights, extra, field):
    # A misspelt "minsu" once dropped its weight silently, and "extra" passed.
    text = f'{{"n": 2, "weights": [{weights}]{extra}}}'
    for command in ("classify", "threshold"):
        assert main([command, "--input", text, "--format", "json"]) == 2
        out = capsys.readouterr()
        assert (out.out, out.err) == ("", f"error: unknown field '{field}'\n")


def test_repeated_keys_are_read_last_wins():
    # json.loads keeps the last value of a repeated key; rejecting repeats
    # would take an object_pairs_hook on every parse.
    text = '{"n": 3, "n": 2, "weights": [{"beta": "00", "plus": 0.5, "plus": 1.0}]}'
    assert load_state(text) == GhzDiagonalState.pure_ghz(2)


def test_integer_weights_are_numbers():
    as_ints = load_state('{"n": 2, "weights": [{"beta": "00", "plus": 1, "minus": 0}]}')
    assert as_ints == GhzDiagonalState.pure_ghz(2)


# Values a weight may take in a generated document: numbers that pass, and
# the JSON and Python values the contract rejects.
ODD_WEIGHTS = (
    0, 1, True, False, "0.5", None, [1], 10**400, math.nan, math.inf, -math.inf, -0.5, -5e-13
)
ODD_BETAS = ("０１", "0b1", "1_0", " 10", "+01", "", 5, None)
NON_DICT_ENTRIES = ("x", 3, None, [], [{"beta": "00"}])
ODD_KEYS = ("minsu", "Plus", "beta ", "", "weights", "n")
EDITS = ("same", "clamp", "conflict", "weight", "drop", "beta", "object", "key")


@st.composite
def weight_documents(draw):
    """Weight lists built around a normalised state, then edited.

    The edits repeat a class (identically, within the clamp, or in
    conflict), swap a weight for an odd value, drop a weight, break a beta,
    insert a non-object entry or add an unknown key to an entry; the
    document itself may get an unknown key too.  Most edited documents are
    rejected, and the first bad entry decides the message.
    """
    n = draw(st.integers(2, 5))
    top = 1 << (n - 1)
    convention = draw(st.sampled_from(["canonical", "full", None]))
    classes = draw(st.lists(st.integers(0, top - 1), unique=True, max_size=top))
    entries = []
    for k in classes:
        if convention == "full" and draw(st.booleans()):
            k ^= (top << 1) - 1
        w = draw(st.sampled_from([0.0, 0.5, 1.0])) / len(classes)
        entries.append({"beta": format(k, f"0{n}b"), "plus": w, "minus": 1.0 / len(classes) - w})
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(EDITS))
        pos = draw(st.integers(0, len(entries)))
        field = draw(st.sampled_from(["plus", "minus"]))
        # the entry an edit copies or changes; inserted non-objects are left alone
        target = entries[pos % len(entries)] if entries else None
        if not isinstance(target, dict):
            target = None
        if edit in ("same", "clamp", "conflict") and target is not None:
            entry = dict(target)
            beta = entry.get("beta")
            if isinstance(beta, str) and beta.strip("01") == "" and draw(st.booleans()):
                entry["beta"] = beta.translate(str.maketrans("01", "10"))
            if edit != "same" and isinstance(entry.get(field), float):
                shift = {"clamp": (5e-13, -5e-13), "conflict": (0.125, math.nan, math.inf)}[edit]
                entry[field] += draw(st.sampled_from(shift))
            entries.insert(pos, entry)
        elif edit == "weight" and target is not None:
            target[field] = draw(st.sampled_from(ODD_WEIGHTS))
        elif edit == "drop" and target is not None:
            target.pop(field, None)
        elif edit == "beta":
            odd = ODD_BETAS + ("0" * (n - 1), "0" * (n + 1), "1" + "0" * (n - 1))
            entry = {"beta": draw(st.sampled_from(odd))} if draw(st.booleans()) else {}
            entries.insert(pos, {**entry, "plus": 1.0})
        elif edit == "object":
            entries.insert(pos, draw(st.sampled_from(NON_DICT_ENTRIES)))
        elif edit == "key" and target is not None:
            target[draw(st.sampled_from(ODD_KEYS))] = 0.0
    doc = {"n": n, "weights": entries}
    if convention is not None:
        doc["convention"] = convention
    if draw(st.integers(0, 9)) == 0:
        doc[draw(st.sampled_from(ODD_KEYS[:4]))] = 1
    return doc


def _parse_outcome(parse, doc):
    try:
        state = parse(doc)
    except ValueError as exc:
        return "error", str(exc)
    return "state", state.lambda_plus.tobytes(), state.lambda_minus.tobytes()


@settings(max_examples=400, deadline=None)
@given(weight_documents())
def test_columnar_parse_equals_per_entry_reference(doc):
    assert _parse_outcome(state_from_json_dict, doc) == _parse_outcome(
        reference_state_from_json_dict, doc
    )


def test_parse_of_n18_document_builds_no_wide_digit_matrix():
    # An int64 matrix of the 2^17 x 18 digits alone would take 18.9 MB.
    doc = state_to_json_dict(random_state(18, 0))
    tracemalloc.start()
    try:
        state = state_from_json_dict(doc)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000
    assert state == random_state(18, 0)
