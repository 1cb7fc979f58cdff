import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ghzent.analytic
import ghzent.cli
from ghz_reference import mix_with_white_noise, reference_split_string
from ghzent.analytic import ClassificationReport, classify, partition_thresholds
from ghzent.cli import BENCH_CSV_HEADER, build_parser, main
from ghzent.state import (
    GhzDiagonalState,
    load_state,
    random_state,
    state_to_json_dict,
)
from ghzent.subsets import Bipartition, enumerate_bipartitions

PURE_GHZ_3 = '{"n":3,"convention":"canonical","weights":[{"beta":"000","plus":1.0,"minus":0.0}]}'
MIXED_2 = (
    '{"n":2,"convention":"canonical","weights":['
    '{"beta":"00","plus":0.25,"minus":0.25},'
    '{"beta":"01","plus":0.25,"minus":0.25}]}'
)


BENCH_ROWS = (
    [("analytic_classify", n) for n in range(8, 17)]
    + [("analytic_classify_flat", n) for n in (12, 14, 16)]
    + [("analytic_classify_dephased", n) for n in (12, 14, 16)]
    + [("analytic_classify_quantised", 12)]
    + [("dense_partition", n) for n in range(4, 9)]
)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_classify_exit_zero_for_fully_entangled(capsys):
    rc, out, _ = run(capsys, "classify", "--input", PURE_GHZ_3)
    assert rc == 0
    assert "fully entangled" in out
    assert "E[000] = -1" in out


def test_classify_exit_one_for_biseparable(capsys):
    rc, out, _ = run(capsys, "classify", "--input", MIXED_2)
    assert rc == 1
    assert "not fully entangled" in out


def test_classify_json_schema(capsys):
    rc, out, _ = run(capsys, "classify", "--input", PURE_GHZ_3, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["n"] == 3
    assert doc["full_entangled"] is True
    assert [p["alpha1"] for p in doc["partitions"]] == ["100", "101", "110"]
    worst = doc["partitions"][0]["worst"]
    assert worst == {"beta": "000", "coeff": "E", "value": -1.0}


def test_classify_exit_two_for_bad_input(capsys):
    rc, _, err = run(capsys, "classify", "--input", '{"n":3}')
    assert rc == 2
    assert "error:" in err
    with pytest.raises(SystemExit) as exc:
        main(["classify"])
    assert exc.value.code == 2
    rc, _, err = run(capsys, "classify", "--input", "/no/such/file.json")
    assert rc == 2


def test_classify_reads_file_and_stdin(tmp_path, capsys, monkeypatch):
    path = tmp_path / "state.json"
    path.write_text(PURE_GHZ_3)
    rc, out, _ = run(capsys, "classify", "--input", str(path))
    assert rc == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(PURE_GHZ_3))
    rc, out, _ = run(capsys, "classify", "--input", "-")
    assert rc == 0


@pytest.mark.parametrize(
    "text, message",
    [
        ("[]", "state JSON must be an object"),
        ("3", "state JSON must be an object"),
        ('{"n": 1, "weights": []}', "field 'n' must be in 2..24, got 1"),
        ('{"n": 25, "weights": []}', "field 'n' must be in 2..24, got 25"),
    ],
)
def test_rejected_document_on_stdin_exits_two(capsys, monkeypatch, text, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    rc, out, err = run(capsys, "classify", "--input", "-")
    assert (rc, out, err) == (2, "", f"error: {message}\n")


def test_cli_import_leaves_statistics_unloaded():
    # statistics pulls in fractions and decimal; only bench uses it.
    code = "import sys, ghzent.cli; print(sorted({'statistics', 'decimal'} & set(sys.modules)))"
    paths = (str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert (result.returncode, result.stdout) == (0, "[]\n"), result.stderr


def test_random_single_state_is_loadable_and_deterministic(capsys):
    rc, out1, _ = run(capsys, "random", "--n", "4", "--seed", "9", "--format", "json")
    assert rc == 0
    rc, out2, _ = run(capsys, "random", "--n", "4", "--seed", "9", "--format", "json")
    assert out1 == out2
    state = load_state(out1)
    assert state.n == 4


def test_random_count_gives_list(capsys):
    rc, out, _ = run(capsys, "random", "--n", "3", "--seed", "0", "--count", "3", "--format", "json")
    assert rc == 0
    docs = json.loads(out)
    assert isinstance(docs, list) and len(docs) == 3
    # table format emits one compact document per line
    rc, out, _ = run(capsys, "random", "--n", "3", "--seed", "0", "--count", "3")
    lines = out.strip().split("\n")
    assert len(lines) == 3
    for line in lines:
        load_state(line)


def test_threshold_reports_closed_form_for_pure_ghz(capsys):
    rc, out, _ = run(capsys, "threshold", "--input", PURE_GHZ_3, "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["full_entanglement_threshold"] == pytest.approx(0.8, abs=1e-12)
    assert doc["ghz_closed_form"] == pytest.approx(0.8, abs=1e-12)
    assert len(doc["partitions"]) == 3
    rc, out, _ = run(capsys, "threshold", "--input", MIXED_2, "--format", "json")
    doc = json.loads(out)
    assert doc["ghz_closed_form"] is None
    assert doc["full_entanglement_threshold"] == 0.0


def test_basis_lists_all_vectors(capsys):
    rc, out, _ = run(capsys, "basis", "--n", "2", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert len(rows) == 4
    assert rows[0]["beta"] == "00" and rows[0]["sign"] == "+"
    assert rows[0]["support"] == [0, 3]
    assert rows[2]["support"] == [1, 2]
    amp = 0.5 ** 0.5
    assert rows[1]["amplitudes"] == pytest.approx([amp, -amp], abs=1e-15)


def test_basis_requires_n(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["basis"])
    assert exc.value.code == 2
    assert "error: the following arguments are required: --n" in capsys.readouterr().err


@pytest.mark.parametrize("n", [0, -3, 1, 25])
def test_basis_rejects_qubit_counts_outside_range(capsys, n):
    rc, out, err = run(capsys, "basis", "--n", str(n))
    assert rc == 2
    assert out == ""
    assert err == f"error: qubit count must be in 2..24, got {n}\n"


def test_oracle_check_agrees(capsys):
    rc, out, _ = run(
        capsys, "oracle-check", "--n", "2", "--count", "10", "--seed", "4", "--format", "json"
    )
    assert rc == 0
    doc = json.loads(out)
    assert doc["mismatches"] == 0
    assert doc["spectrum_deviation"] < 1e-12
    assert 0.0 <= doc["max_residual"] < 1e-12
    rc, out, _ = run(capsys, "oracle-check", "--n", "3", "--count", "2", "--seed", "4")
    assert rc == 0
    assert "mismatches=0 " in out
    assert float(out.split("max_residual=")[1].split()[0]) < 1e-12
    rc, _, err = run(capsys, "oracle-check", "--n", "9", "--count", "1")
    assert rc == 2


def test_bench_emits_csv(capsys):
    rc, out, _ = run(capsys, "bench", "--count", "1", "--seed", "0")
    assert rc == 0
    lines = out.strip().split("\n")
    assert lines[0] == BENCH_CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    # random states at n = 8..16, the tied worst cases (flat, dephased), the
    # quantised case the scan cannot prune, and the dense route
    assert [(r[0], int(r[1])) for r in rows] == BENCH_ROWS
    for path, n, partitions, ms in rows:
        expected = 1 if path == "dense_partition" else (1 << (int(n) - 1)) - 1
        assert int(partitions) == expected
        assert float(ms) > 0.0


@pytest.mark.parametrize(
    "text",
    [
        '{"n":2,"weights":[{"beta":"00","plus":NaN,"minus":0.0}]}',
        '{"n":2,"weights":[{"beta":"00","plus":1.0,"minus":0.0},'
        '{"beta":"01","plus":Infinity,"minus":0.0}]}',
        '{"n":3.7,"weights":[{"beta":"000","plus":1.0,"minus":0.0}]}',
        '{"n":"12","weights":[{"beta":"000000000000","plus":1.0,"minus":0.0}]}',
        '{"n":true,"weights":[{"beta":"00","plus":1.0,"minus":0.0}]}',
    ],
)
@pytest.mark.parametrize("command", ["classify", "threshold"])
def test_non_finite_weights_and_non_integer_n_exit_two(capsys, command, text):
    rc, out, err = run(capsys, command, "--input", text)
    assert rc == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "text, message",
    [
        (
            '{"n":2,"weights":[{"beta":"00","plus":1e308},{"beta":"01","plus":1e308}]}',
            "bad normalization: weights sum to inf, expected 1",
        ),
        (
            '{"n":2,"weights":[{"beta":"00","plus":1e308,"minus":1e308}]}',
            "bad normalization: weights sum to inf, expected 1",
        ),
        (
            '{"n":2,"convention":"full","weights":'
            '[{"beta":"00","plus":1e308},{"beta":"11","plus":-1e308}]}',
            "field 'weights[1].beta' repeats class 00 with conflicting values",
        ),
    ],
)
@pytest.mark.parametrize("command", ["classify", "threshold"])
@pytest.mark.parametrize("fmt", ["json", "table"])
def test_overflowing_weights_exit_two_with_one_error_line(capsys, command, fmt, text, message):
    # Sums and differences past the float range overflow to inf inside
    # numpy; that must reach the user as the error line alone, no warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = run(capsys, command, "--input", text, "--format", fmt)
    assert result == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("command", ["classify", "threshold"])
def test_deeply_nested_json_exits_two(capsys, command):
    # Past the interpreter's recursion limit json.loads raises RecursionError;
    # that is malformed input, not a verdict (exit 1 means "not fully entangled").
    depth = 100_000
    text = '{"n": 3, "weights": ' + "[" * depth + "]" * depth + "}"
    rc, out, err = run(capsys, command, "--input", text)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: malformed JSON")


@pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-12"])
def test_tol_must_be_finite_and_nonnegative(capsys, tol):
    rc, out, err = run(capsys, "classify", "--input", PURE_GHZ_3, f"--tol={tol}")
    assert rc == 2
    assert out == ""
    assert err.startswith("error:") and "--tol" in err
    rc, _, _ = run(capsys, "classify", "--input", PURE_GHZ_3, "--tol", "0")
    assert rc == 0


def test_negative_tol_in_exponent_form_needs_an_equals_sign(capsys):
    rc, out, err = run(capsys, "classify", "--input", PURE_GHZ_3, "--tol=-1e-12")
    assert (rc, out, err) == (2, "", "error: --tol must be a finite number >= 0, got -1e-12\n")
    # argparse reads "-1e-12" after a space as an option, and exits 2 itself
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--input", PURE_GHZ_3, "--tol", "-1e-12"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


# oracle-check --count 3 --seed 7 as the per-cut is_ppt verdicts gave it:
# the JSON summary (printed by json.dumps with indent 2) and the table.
ORACLE_CHECK = {
    2: (
        {"partitions": 1, "mismatches": 0, "worst_boundary_margin": 0.05612656712521377,
         "max_residual": 5.551115123125783e-17, "spectrum_deviation": 5.551115123125783e-17},
        "n=2 states=3 partitions=1 mismatches=0 worst_boundary_margin=5.613e-02 "
        "max_residual=5.551e-17\ntwo-qubit spectrum deviation = 5.551e-17\n",
    ),
    3: (
        {"partitions": 3, "mismatches": 0, "worst_boundary_margin": 0.01864213554762814,
         "max_residual": 8.326672684688674e-17},
        "n=3 states=3 partitions=3 mismatches=0 worst_boundary_margin=1.864e-02 "
        "max_residual=8.327e-17\n",
    ),
    4: (
        {"partitions": 7, "mismatches": 0, "worst_boundary_margin": 0.011616850395205686,
         "max_residual": 1.5265566588595902e-16},
        "n=4 states=3 partitions=7 mismatches=0 worst_boundary_margin=1.162e-02 "
        "max_residual=1.527e-16\n",
    ),
}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_oracle_check_output_is_pinned(capsys, n):
    fields, table = ORACLE_CHECK[n]
    summary = {"n": n, "count": 3, "seed": 7, **fields}
    argv = ["oracle-check", "--n", str(n), "--count", "3", "--seed", "7"]
    json_out = json.dumps(summary, indent=2) + "\n"
    assert run(capsys, *argv, "--format", "json") == (0, json_out, "")
    assert run(capsys, *argv, "--format", "table") == (0, table, "")


def test_count_must_be_positive(capsys):
    rc, _, err = run(capsys, "random", "--n", "3", "--count", "0")
    assert rc == 2
    assert "count" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("random", "--n", "3", "--seed", "-1"),
        ("oracle-check", "--n", "2", "--count", "2", "--seed", "-5"),
        ("bench", "--count", "1", "--seed", "-1"),
    ],
)
def test_negative_seed_names_the_flag(capsys, argv):
    seed = argv[-1]
    assert run(capsys, *argv) == (2, "", f"error: --seed must be >= 0, got {seed}\n")


# A valid value for every CLI flag, and the flags each subcommand reads.
FLAG_VALUES = {
    "n": "3",
    "seed": "1",
    "count": "2",
    "input": PURE_GHZ_3,
    "format": "json",
    "tol": "0.5",
}
FLAGS_READ = {
    "classify": ("input", "format", "tol"),
    "oracle-check": ("n", "seed", "count", "format", "tol"),
    "random": ("n", "seed", "count", "format"),
    "threshold": ("input", "format"),
    "basis": ("n", "format"),
    "bench": ("seed", "count"),
}


# The flags a subcommand cannot run without.
REQUIRED = {
    "classify": ("input",),
    "oracle-check": ("n",),
    "random": ("n",),
    "threshold": ("input",),
    "basis": ("n",),
}


def required_args(command: str) -> list[str]:
    """Valid values for the flags ``command`` cannot run without."""
    return [f"--{f}={FLAG_VALUES[f]}" for f in REQUIRED.get(command, ())]


@pytest.mark.parametrize("command", list(FLAGS_READ))
def test_missing_required_flag_exits_two_and_names_it(capsys, command):
    for flag in REQUIRED.get(command, ()):
        others = [f"--{f}={FLAG_VALUES[f]}" for f in FLAGS_READ[command] if f != flag]
        with pytest.raises(SystemExit) as exc:
            main([command, *others])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.endswith(f"error: the following arguments are required: --{flag}\n")


@pytest.mark.parametrize(
    "command, flag",
    [
        (command, flag)
        for command, read in FLAGS_READ.items()
        for flag in FLAG_VALUES
        if flag not in read
    ],
)
def test_flag_a_subcommand_does_not_read_exits_two(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, *required_args(command), f"--{flag}", FLAG_VALUES[flag]])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: unrecognized arguments: --{flag} " in err


@pytest.mark.parametrize("command", list(FLAGS_READ))
def test_help_lists_exactly_the_flags_read(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    listed = set(re.findall(r"--([a-z]+)", capsys.readouterr().out))
    assert listed == {"help", *FLAGS_READ[command]}


def test_default_counts():
    defaults = {
        command: vars(build_parser().parse_args([command, *required_args(command)])).get("count")
        for command in FLAGS_READ
    }
    assert defaults == {
        "classify": None,
        "oracle-check": 200,
        "random": 1,
        "threshold": None,
        "basis": None,
        "bench": 3,
    }


def test_unknown_command_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def _full_convention(state):
    """The state's JSON with every odd class listed under its complement's label."""
    doc = state_to_json_dict(state)
    flip = (1 << state.n) - 1
    for entry in doc["weights"][1::2]:
        entry["beta"] = format(int(entry["beta"], 2) ^ flip, f"0{state.n}b")
    return {**doc, "convention": "full"}


def _byte_identity_corpus():
    cases = []
    for n in range(2, 11):
        for seed in (0, 1):
            cases.append((f"random-n{n}-s{seed}", state_to_json_dict(random_state(n, seed))))
    for n in (3, 6):
        dim = 1 << n
        p_star = dim / (dim + 2)
        for p in (0.0, p_star - 1e-9, p_star, p_star + 1e-9, 1.0):
            state = mix_with_white_noise(GhzDiagonalState.pure_ghz(n), p)
            cases.append((f"ghz-n{n}-p{p!r}", state_to_json_dict(state)))
    for n in (11, 12):
        cases.append((f"random-n{n}-s3", state_to_json_dict(random_state(n, 3))))
    for n in (4, 12):
        cases.append((f"mixed-n{n}", state_to_json_dict(GhzDiagonalState.maximally_mixed(n))))
    cases.append(("full-n5", _full_convention(random_state(5, 7))))
    return cases


def _classify_dict(report):
    return {
        "n": report.n,
        "full_entangled": report.full_entangled,
        "partitions": [
            {
                "alpha1": v.partition.alpha1.bit_string(),
                "ppt": v.is_ppt,
                "worst": {
                    "beta": v.worst.beta.bit_string(),
                    "coeff": v.worst.coefficient,
                    "value": v.worst.value,
                },
            }
            for v in report.partitions
        ],
    }


def _threshold_dict(state):
    thresholds = partition_thresholds(state)
    dim = 1 << state.n
    pure = state == GhzDiagonalState.pure_ghz(state.n)
    return {
        "n": state.n,
        "full_entanglement_threshold": float(thresholds.min()),
        "ghz_closed_form": dim / (dim + 2) if pure else None,
        "partitions": [
            {"alpha1": p.alpha1.bit_string(), "threshold": t}
            for p, t in zip(enumerate_bipartitions(state.n), thresholds.tolist())
        ],
    }


def _classify_table(report):
    """``classify --format table`` as the per-cut objects render it."""
    total = len(report.partitions)
    ppt_count = sum(v.is_ppt for v in report.partitions)
    lines = [f"n = {report.n}, partitions = {total}"]
    for v in report.partitions:
        w = v.worst
        status = "PPT (biseparable)" if v.is_ppt else "NPT"
        lines.append(
            f"  {reference_split_string(v.partition):>15}  {status:<18} "
            f"worst {w.coefficient}[{w.beta.bit_string()}] = {w.value:+.12g}"
        )
    verdict = "fully entangled" if report.full_entangled else "not fully entangled"
    lines.append(f"verdict: {verdict} ({ppt_count}/{total} partitions PPT)")
    return "\n".join(lines) + "\n"


def _threshold_table(state):
    """``threshold --format table`` as one line per ``Bipartition`` renders it."""
    thresholds = partition_thresholds(state)
    lines = [f"n = {state.n}"]
    for p, t in zip(enumerate_bipartitions(state.n), thresholds.tolist()):
        lines.append(f"  {reference_split_string(p):>15}  threshold = {t:.12g}")
    lines.append(f"full-entanglement threshold = {float(thresholds.min()):.12g}")
    if state == GhzDiagonalState.pure_ghz(state.n):
        dim = 1 << state.n
        lines.append(f"pure GHZ input: closed form 2^n/(2^n+2) = {dim / (dim + 2):.12g}")
    return "\n".join(lines) + "\n"


def assert_json_output_equals_json_dumps(capsys, text):
    state = load_state(text)
    report = classify(state)
    rc, out, err = run(capsys, "classify", "--input", text, "--format", "json")
    assert (rc, err) == (0 if report.full_entangled else 1, "")
    expected = _classify_dict(report)
    assert report.to_json_dict() == expected
    assert out == json.dumps(expected, indent=2) + "\n"
    rc, out, err = run(capsys, "threshold", "--input", text, "--format", "json")
    assert (rc, err) == (0, "")
    assert out == json.dumps(_threshold_dict(state), indent=2) + "\n"


@pytest.mark.parametrize(
    "doc", [pytest.param(doc, id=label) for label, doc in _byte_identity_corpus()]
)
def test_json_output_equals_json_dumps_of_dict_form(capsys, doc):
    assert_json_output_equals_json_dumps(capsys, json.dumps(doc))


@pytest.mark.parametrize(
    "doc", [pytest.param(doc, id=label) for label, doc in _byte_identity_corpus()]
)
def test_table_output_equals_per_cut_rendering(capsys, doc):
    text = json.dumps(doc)
    state = load_state(text)
    for tol_flag, report in (((), classify(state)), (("--tol", "0.5"), classify(state, tol=0.5))):
        expected = (0 if report.full_entangled else 1, _classify_table(report), "")
        assert run(capsys, "classify", "--input", text, "--format", "table", *tol_flag) == expected
    expected = (0, _threshold_table(state), "")
    assert run(capsys, "threshold", "--input", text, "--format", "table") == expected


def test_table_lines_are_pinned(capsys):
    assert run(capsys, "classify", "--input", PURE_GHZ_3) == (
        0,
        "n = 3, partitions = 3\n"
        "             1|23  NPT                worst E[000] = -1\n"
        "             13|2  NPT                worst E[000] = -1\n"
        "             12|3  NPT                worst E[000] = -1\n"
        "verdict: fully entangled (0/3 partitions PPT)\n",
        "",
    )
    # n = 10: the qubit labels switch to commas
    text = json.dumps(state_to_json_dict(random_state(10, 0)))
    rc, out, _ = run(capsys, "classify", "--input", text, "--tol", "0.5")
    lines = out.splitlines()
    assert (rc, len(lines)) == (1, 513)
    assert lines[1] == (
        "  1|2,3,4,5,6,7,8,9,10  PPT (biseparable)  worst B[0010010011] = -0.00692973303341"
    )
    assert lines[-1] == "verdict: not fully entangled (511/511 partitions PPT)"
    rc, out, _ = run(capsys, "threshold", "--input", text)
    lines = out.splitlines()
    assert (rc, len(lines)) == (0, 513)
    assert lines[2] == "  1,10|2,3,4,5,6,7,8,9  threshold = 0.794987548145"
    assert lines[-1] == "full-entanglement threshold = 0.693360731119"


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("command", ["classify", "threshold"])
def test_cli_builds_no_per_cut_objects(capsys, monkeypatch, command, fmt):
    # The CLI writes every output from the report's columns; a per-cut
    # verdict, partition or split-string method must not be reached.
    states = [random_state(10, 0), GhzDiagonalState.maximally_mixed(4)]
    argvs = [
        [command, "--input", json.dumps(state_to_json_dict(state)), "--format", fmt]
        for state in states
    ]
    plain = [run(capsys, *argv) for argv in argvs]

    def refuse(*args):
        raise AssertionError("the CLI built a per-cut object")

    monkeypatch.setattr(ClassificationReport, "partitions", property(refuse))
    monkeypatch.setattr("ghzent.cli.enumerate_bipartitions", refuse)
    monkeypatch.setattr(Bipartition, "split_string", refuse)
    assert [run(capsys, *argv) for argv in argvs] == plain


@st.composite
def cli_states(draw):
    """Random, quantised ({0..3}, normalised) and depolarised states, n = 2..9.

    Quantised weights tie witnesses and reach pure GHZ; depolarised ones
    reach all-PPT reports.
    """
    n = draw(st.integers(2, 9))
    kind = draw(st.sampled_from(("random", "quantised", "depolarised")))
    if kind == "quantised":
        half = 1 << (n - 1)
        levels = st.lists(st.integers(0, 3), min_size=2 * half, max_size=2 * half)
        weights = np.array(draw(levels.filter(any)), dtype=float).reshape(2, half)
        return GhzDiagonalState(n, *(weights / weights.sum()))
    seed = draw(st.integers(0, 2**32 - 1))
    if kind == "random":
        return random_state(n, seed)
    base = draw(st.sampled_from((random_state(n, seed), GhzDiagonalState.pure_ghz(n))))
    return mix_with_white_noise(base, draw(st.floats(0.0, 1.0)))


@settings(
    max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(cli_states())
def test_json_output_equals_json_dumps_on_generated_states(capsys, state):
    # run() drains capsys on every call, so examples cannot see each other's output
    assert_json_output_equals_json_dumps(capsys, json.dumps(state_to_json_dict(state)))


def _weights_doc(n, plus, minus):
    """A canonical-convention document with one entry per class."""
    return json.dumps(
        {
            "n": n,
            "weights": [
                {"beta": format(k, f"0{n}b"), "plus": p, "minus": m}
                for k, (p, m) in enumerate(zip(plus, minus))
            ],
        }
    )


def _pure_ghz_cases():
    """(label, document, whether it is pure GHZ)."""
    for n in range(2, 7):
        yield f"pure-n{n}", json.dumps(state_to_json_dict(GhzDiagonalState.pure_ghz(n))), True
    for n in (3, 5):
        half = 1 << (n - 1)
        zeros = [0.0] * half
        first, second = [1.0] + zeros[1:], [0.0, 1.0] + zeros[2:]
        noisy = mix_with_white_noise(GhzDiagonalState.pure_ghz(n), 1e-15)
        yield f"noise-n{n}", json.dumps(state_to_json_dict(noisy)), False
        yield f"minus-n{n}", _weights_doc(n, zeros, first), False
        yield f"other-class-n{n}", _weights_doc(n, second, zeros), False
        yield f"negative-zero-n{n}", _weights_doc(n, first, [-0.0] * half), True
        # weight 1 on the GHZ vector and 1e-15 elsewhere, within normalisation
        yield f"plus-tail-n{n}", _weights_doc(n, [1.0] + zeros[2:] + [1e-15], zeros), False
        yield f"minus-tail-n{n}", _weights_doc(n, first, zeros[1:] + [1e-15]), False


@pytest.mark.parametrize(
    "text, pure", [pytest.param(t, pure, id=label) for label, t, pure in _pure_ghz_cases()]
)
def test_threshold_closed_form_only_for_pure_ghz(capsys, text, pure):
    state = load_state(text)
    assert (state == GhzDiagonalState.pure_ghz(state.n)) == pure
    dim = 1 << state.n
    rc, out, _ = run(capsys, "threshold", "--input", text, "--format", "json")
    assert rc == 0
    assert json.loads(out)["ghz_closed_form"] == (dim / (dim + 2) if pure else None)
    rc, out, _ = run(capsys, "threshold", "--input", text)
    assert rc == 0
    line = f"pure GHZ input: closed form 2^n/(2^n+2) = {dim / (dim + 2):.12g}\n"
    assert out.endswith(line) == pure
    assert ("pure GHZ" in out) == pure


def test_parser_reuse_carries_nothing_between_calls(capsys):
    doc = state_to_json_dict(random_state(4, 5))
    text = json.dumps(doc)
    alone = run(capsys, "classify", "--input", text, "--format", "json")
    assert alone[0] == 0
    rc, out, _ = run(capsys, "classify", "--input", text, "--tol", "0.5", "--format", "table")
    assert rc == 1 and out.startswith("n = 4")
    assert run(capsys, "classify", "--input", text, "--format", "json") == alone


# -- the CLI keeps the state of its last input text --------------------------------


def _lone(capsys, *argv):
    """``run`` in a process that has kept no state."""
    ghzent.cli._load_text.cache_clear()
    return run(capsys, *argv)


def _count_calls(monkeypatch, module, name):
    calls = []
    fn = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *a: calls.append(1) or fn(*a))
    return calls


def test_classify_then_threshold_parse_and_scan_once(capsys, monkeypatch):
    ghzent.cli._load_text.cache_clear()
    loads = _count_calls(monkeypatch, ghzent.cli, "load_state")
    scans = _count_calls(monkeypatch, ghzent.analytic, "_scan_minima")
    text = json.dumps(state_to_json_dict(random_state(7, 3)))
    for fmt in ("json", "table"):
        run(capsys, "classify", "--input", text, "--format", fmt)
        run(capsys, "threshold", "--input", text, "--format", fmt)
    assert (len(loads), len(scans)) == (1, 1)


@pytest.mark.parametrize(
    "doc", [pytest.param(doc, id=label) for label, doc in _byte_identity_corpus()]
)
def test_kept_state_prints_the_lone_run_bytes(capsys, doc):
    text = json.dumps(doc)
    other = json.dumps(state_to_json_dict(random_state(5, 11)))
    commands = ("classify", "threshold")
    for fmt in ("json", "table"):
        argv = {c: (c, "--input", text, "--format", fmt) for c in commands}
        lone = {c: _lone(capsys, *argv[c]) for c in commands}
        for order in itertools.product(commands, repeat=2):
            ghzent.cli._load_text.cache_clear()
            assert [run(capsys, *argv[c]) for c in order] == [lone[c] for c in order]
        # A, B, A: another document in between
        for first, between in itertools.product(commands, repeat=2):
            ghzent.cli._load_text.cache_clear()
            assert run(capsys, *argv[first]) == lone[first]
            run(capsys, between, "--input", other, "--format", fmt)
            assert run(capsys, *argv[first]) == lone[first]


def test_kept_state_leaves_tol_to_each_call(capsys):
    text = json.dumps(state_to_json_dict(random_state(4, 5)))
    loose = ("classify", "--input", text, "--tol", "0.5", "--format", "json")
    lone = _lone(capsys, *loose)
    assert run(capsys, "classify", "--input", text, "--format", "json")[0] == 0
    assert run(capsys, *loose) == lone
    assert lone[0] == 1 and '"ppt": false' not in lone[1]


@pytest.mark.parametrize("command", ["classify", "threshold"])
def test_errors_are_not_kept(capsys, monkeypatch, command):
    loads = _count_calls(monkeypatch, ghzent.cli, "load_state")
    for text in ('{"n": 3, "weights": [', '{"n":3}'):
        first = run(capsys, command, "--input", text)
        assert first[0] == 2 and first[2].startswith("error: ")
        assert run(capsys, command, "--input", text) == first
    assert len(loads) == 4


def test_text_that_differs_in_whitespace_is_parsed_again(capsys, monkeypatch):
    ghzent.cli._load_text.cache_clear()
    loads = _count_calls(monkeypatch, ghzent.cli, "load_state")
    doc = state_to_json_dict(random_state(6, 1))
    texts = (json.dumps(doc), json.dumps(doc, indent=1))
    outs = [run(capsys, "classify", "--input", t, "--format", "json") for t in texts]
    assert outs[0] == outs[1]
    assert len(loads) == 2


def test_bench_times_a_cold_scan_each_repetition(capsys, monkeypatch):
    scans = _count_calls(monkeypatch, ghzent.analytic, "_scan_minima")
    rc, out, _ = run(capsys, "bench", "--count", "3", "--seed", "0")
    assert rc == 0
    analytic_rows = [row for row in BENCH_ROWS if row[0].startswith("analytic")]
    assert len(scans) == 3 * len(analytic_rows)


def _random_reference(n, seed, count, fmt):
    """``random``'s output as written with every state held at once."""
    docs = [state_to_json_dict(random_state(n, seed + i)) for i in range(count)]
    if fmt == "table":
        return "".join(json.dumps(d) + "\n" for d in docs)
    return json.dumps(docs[0] if count == 1 else docs, indent=2) + "\n"


@pytest.mark.parametrize("fmt", ["json", "table"])
@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("n", range(2, 13))
def test_random_output_is_unchanged(capsys, n, count, fmt):
    argv = ("random", "--n", str(n), "--seed", "5", "--count", str(count), "--format", fmt)
    assert run(capsys, *argv) == (0, _random_reference(n, 5, count, fmt), "")


class _Discard(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_random_holds_one_state_at_a_time(fmt):
    peaks = []
    for count in (1, 8):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_Discard()):
                main(["random", "--n", "14", "--count", str(count), "--format", fmt])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


def test_basis_json_holds_one_chunk_of_rows_at_a_time():
    # basis writes 2048 rows per chunk: n = 11 is one chunk, n = 13 four
    peaks = []
    for n in (11, 13):
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(_Discard()):
                assert main(["basis", "--n", str(n), "--format", "json"]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]
