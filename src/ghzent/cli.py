"""Command-line surface.

Subcommands: classify, oracle-check, random, threshold, basis, bench.
For ``classify`` the exit code carries the physics verdict: 0 means fully
entangled (NPT on every cut), 1 means some partition is PPT (biseparable
there), 2 means the input was rejected.  Every subcommand exits 141
(128 + SIGPIPE) when its reader closes stdout early.  JSON output is byte-deterministic
for fixed inputs, seeds and flags; bench emits CSV timings and is the one
exception.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time

import numpy as np

# noise_threshold and full_entanglement_threshold are not called here; they
# stay importable from this module because the benchmark's tracer wraps them
# by these names (PATCHED in perfbench/tracing.py).
from .analytic import (  # noqa: F401
    COEFFICIENT_NAMES,
    COEFFICIENT_TOL,
    classify,
    full_entanglement_threshold,
    noise_threshold,
    partition_thresholds,
)
from .oracle import _check_dense_qubits, is_ppt_dense, smallest_pt_eigenvalue
from .state import (
    GhzDiagonalState,
    _check_qubit_count,
    load_state,
    random_state,
    state_to_json_dict,
)
from .subsets import (
    bipartition_bit_strings,
    bipartition_split_strings,
    bit_strings,
    enumerate_bipartitions,
)

EXIT_FULL_ENTANGLED = 0
EXIT_NOT_FULL_ENTANGLED = 1
EXIT_INPUT_ERROR = 2
# 128 + SIGPIPE, as a shell reports a process killed by writing to a closed pipe
EXIT_BROKEN_PIPE = 141

BENCH_CSV_HEADER = "path,n,partitions,median_ms"

# The magnitude of both amplitudes of a GHZ vector, as `basis` prints it;
# math.sqrt(0.5) differs from it in the last bit.
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _read_input(source: str) -> str:
    if source == "-":
        return sys.stdin.read()
    if source.lstrip().startswith("{"):
        return source
    try:
        with open(source, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read input file: {exc}") from None


@functools.lru_cache(maxsize=1)
def _load_text(text: str) -> GhzDiagonalState:
    """The state of ``text``, kept with its scan until the next text: one process
    parses and scans a document once for ``classify`` and ``threshold``."""
    return load_state(text)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


def _print_json_list(items, chunk: int) -> None:
    """Print ``json.dumps(list(items), indent=2)`` of a nonempty ``items``, ``chunk`` at a time."""
    items = iter(items)
    opening = "[\n"
    while batch := list(itertools.islice(items, chunk)):
        print(opening + json.dumps(batch, indent=2)[2:-2], end="")
        opening = ",\n"
    print("\n]")


_JSON_BOOL = {True: "true", False: "false"}


def _json_document(fields: str, row: tuple, count: int) -> str:
    """json.dumps(..., indent=2) of a dict of ``fields`` and a "partitions" list.

    ``row`` is one list entry as it is written, with its trailing ",\n":
    literal strings and columns of ``count`` strings, in order.  Each piece
    fills every len(row)-th slot of one list, which is joined once.  The
    callers write floats with repr, as json.dumps writes finite floats, and
    every value they write is finite.
    """
    k = len(row)
    parts = [""] * (k * count + 2)
    parts[0] = f'{{\n{fields},\n  "partitions": [\n'
    for i, piece in enumerate(row):
        parts[1 + i : -1 : k] = [piece] * count if isinstance(piece, str) else piece
    parts[-2] = parts[-2][:-2]  # no comma after the last row
    parts[-1] = "\n  ]\n}"
    return "".join(parts)


def cmd_classify(args) -> int:
    state = _load_text(_read_input(args.input))
    report = classify(state, tol=args.tol)
    n = report.n
    ppt, _, codes, values = report.columns()
    betas = bit_strings(report.classes, n)
    coeffs = list(map(COEFFICIENT_NAMES.__getitem__, codes))
    if args.format == "json":
        fields = f'  "n": {n},\n  "full_entangled": {_JSON_BOOL[report.full_entangled]}'
        row = (
            '    {\n      "alpha1": "',
            bipartition_bit_strings(n),
            '",\n      "ppt": ',
            list(map(_JSON_BOOL.__getitem__, ppt)),
            ',\n      "worst": {\n        "beta": "',
            betas,
            '",\n        "coeff": "',
            coeffs,
            '",\n        "value": ',
            list(map(repr, values)),
            "\n      }\n    },\n",
        )
        print(_json_document(fields, row, len(values)))
    else:
        print(f"n = {n}, partitions = {len(values)}")
        status = map(("NPT", "PPT (biseparable)").__getitem__, ppt)
        line = "  {:>15}  {:<18} worst {}[{}] = {:+.12g}".format
        labels = bipartition_split_strings(n)
        print("\n".join(map(line, labels, status, coeffs, betas, values)))
        verdict = "fully entangled" if report.full_entangled else "not fully entangled"
        print(f"verdict: {verdict} ({sum(ppt)}/{len(values)} partitions PPT)")
    return EXIT_FULL_ENTANGLED if report.full_entangled else EXIT_NOT_FULL_ENTANGLED


def cmd_oracle_check(args) -> int:
    n = args.n
    _check_dense_qubits(n)
    partitions = enumerate_bipartitions(n)
    mismatches = 0
    worst_margin = float("inf")
    max_residual = 0.0
    value_deviation = 0.0
    for i in range(args.count):
        state = random_state(n, args.seed + i)
        ppt, _, _, values = classify(state, tol=args.tol).columns()
        for partition, analytic_verdict, value in zip(partitions, ppt, values):
            low, residual = smallest_pt_eigenvalue(state, partition)
            # partial-transpose eigenvalues are half the block coefficients
            dense_verdict = low >= -args.tol / 2
            if analytic_verdict != dense_verdict:
                mismatches += 1
            worst_margin = min(worst_margin, abs(low))
            max_residual = max(max_residual, residual)
            value_deviation = max(value_deviation, abs(low - value / 2))
    summary = {
        "n": n,
        "count": args.count,
        "seed": args.seed,
        "partitions": len(partitions),
        "mismatches": mismatches,
        "worst_boundary_margin": worst_margin,
        "max_residual": max_residual,
        "value_deviation": value_deviation,
    }
    if args.format == "json":
        _print_json(summary)
    else:
        print(
            f"n={n} states={args.count} partitions={len(partitions)} "
            f"mismatches={mismatches} worst_boundary_margin={worst_margin:.3e} "
            f"max_residual={max_residual:.3e} value_deviation={value_deviation:.3e}"
        )
    return 0 if mismatches == 0 else 1


def cmd_random(args) -> int:
    docs = (state_to_json_dict(random_state(args.n, args.seed + i)) for i in range(args.count))
    if args.format == "json" and args.count > 1:
        _print_json_list(docs, 1)  # one state at a time
    else:
        for doc in docs:
            print(json.dumps(doc, indent=2 if args.format == "json" else None))
    return 0


def cmd_threshold(args) -> int:
    state = _load_text(_read_input(args.input))
    thresholds = partition_thresholds(state)
    overall = float(thresholds.min())
    plus, minus = state.lambda_plus, state.lambda_minus
    ghz_closed_form = None
    # state == GhzDiagonalState.pure_ghz(n), read off the weights in place
    if plus[0] == 1.0 and np.count_nonzero(plus) == 1 and not minus.any():
        dim = 1 << state.n
        ghz_closed_form = dim / (dim + 2)
    if args.format == "json":
        fields = (
            f'  "n": {state.n},\n  "full_entanglement_threshold": {overall!r},\n'
            f'  "ghz_closed_form": {"null" if ghz_closed_form is None else repr(ghz_closed_form)}'
        )
        row = (
            '    {\n      "alpha1": "',
            bipartition_bit_strings(state.n),
            '",\n      "threshold": ',
            list(map(repr, thresholds.tolist())),
            "\n    },\n",
        )
        print(_json_document(fields, row, thresholds.size))
    else:
        print(f"n = {state.n}")
        line = "  {:>15}  threshold = {:.12g}".format
        labels = bipartition_split_strings(state.n)
        print("\n".join(map(line, labels, thresholds.tolist())))
        print(f"full-entanglement threshold = {overall:.12g}")
        if ghz_closed_form is not None:
            print(f"pure GHZ input: closed form 2^n/(2^n+2) = {ghz_closed_form:.12g}")
    return 0


def cmd_basis(args) -> int:
    n = args.n
    _check_qubit_count(n)
    # Class k's two GHZ vectors sit on index k and its complement, +1/sqrt(2)
    # on k (the smaller index) and the sign on the complement.
    full = (1 << n) - 1
    rows = (
        {
            "beta": format(k, f"0{n}b"),
            "sign": label,
            "support": [k, k ^ full],
            "amplitudes": [_INV_SQRT2, sign * _INV_SQRT2],
        }
        for k in range(1 << (n - 1))
        for sign, label in ((+1, "+"), (-1, "-"))
    )
    if args.format == "json":
        # json.dumps keeps every token until it joins them: 118 MB for all rows at n = 16
        _print_json_list(rows, 2048)
    else:
        for row in rows:
            amps = ", ".join(f"{a:+.9f}" for a in row["amplitudes"])
            print(f"  {row['beta']}  {row['sign']}  support={row['support']}  amps=[{amps}]")
    return 0


def _median_ms(fn, repetitions: int, make_input=lambda: None) -> float:
    import statistics  # here, so that classify and threshold never load it
    times = []
    for _ in range(repetitions):
        arg = make_input()
        start = time.perf_counter()
        fn(arg)
        times.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(times)


def _bench_dephased(n: int, seed: int) -> GhzDiagonalState:
    """A random state with lambda_plus = lambda_minus in every class."""
    state = random_state(n, seed)
    half = (state.lambda_plus + state.lambda_minus) / 2
    return GhzDiagonalState(n, half, half)


def _bench_quantised(n: int, seed: int, levels: int = 4) -> GhzDiagonalState:
    """Weights drawn from {0, ..., levels - 1}, normalised: ties in both s and |d|."""
    weights = np.random.default_rng(seed).integers(0, levels, size=(2, 1 << (n - 1)))
    weights = weights / weights.sum()
    return GhzDiagonalState(n, weights[0], weights[1])


def cmd_bench(args) -> int:
    lines = [BENCH_CSV_HEADER]
    cases = [("analytic_classify", n, random_state(n, args.seed)) for n in range(8, 17)]
    cases += [("analytic_classify_flat", n, GhzDiagonalState.maximally_mixed(n)) for n in (12, 14, 16)]
    cases += [("analytic_classify_dephased", n, _bench_dephased(n, args.seed)) for n in (12, 14, 16)]
    cases.append(("analytic_classify_quantised", 12, _bench_quantised(12, args.seed)))
    # two levels: the tied cuts the tie rule settles (_settle_ties in analytic.py)
    cases.append(("analytic_classify_two_level", 14, _bench_quantised(14, args.seed, 2)))
    for path, n, state in cases:
        # A fresh copy each time: a state keeps its scan after the first.
        copy = functools.partial(GhzDiagonalState, n, state.lambda_plus, state.lambda_minus)
        ms = _median_ms(classify, args.count, copy)
        lines.append(f"{path},{n},{(1 << (n - 1)) - 1},{ms:.3f}")
    for n in range(4, 9):
        state = random_state(n, args.seed)
        partition = enumerate_bipartitions(n)[0]
        ms = _median_ms(lambda _: is_ppt_dense(state, partition), args.count)
        lines.append(f"dense_partition,{n},1,{ms:.3f}")
    print("\n".join(lines))
    return 0


# Every flag of the CLI; each subcommand declares the ones it reads, so a
# flag it would ignore is a usage error.
_FLAGS = {
    "n": {"type": int, "required": True, "help": "qubit count"},
    "seed": {"type": int, "default": 0, "help": "random seed"},
    "count": {"type": int, "help": "repetitions / sample count"},
    "input": {"type": str, "required": True, "help": "state JSON: path, inline, or '-'"},
    "format": {"choices": ("json", "table"), "default": "table", "help": "output format"},
    "tol": {
        "type": float,
        "default": COEFFICIENT_TOL,
        "help": "PPT tolerance on block coefficients (PT eigenvalues: half of it)",
    },
}


# name, handler, help, the flags it reads, and its own defaults
_COMMANDS = (
    ("classify", cmd_classify, "classify a state from JSON", ("input", "format", "tol"), {}),
    (
        "oracle-check",
        cmd_oracle_check,
        "compare analytic and dense verdicts on random states",
        ("n", "seed", "count", "format", "tol"),
        {"count": 200},
    ),
    (
        "random",
        cmd_random,
        "generate random GHZ-diagonal states",
        ("n", "seed", "count", "format"),
        {"count": 1},
    ),
    ("threshold", cmd_threshold, "white-noise thresholds per partition", ("input", "format"), {}),
    ("basis", cmd_basis, "print the GHZ basis for n qubits", ("n", "format"), {}),
    (
        "bench",
        cmd_bench,
        "time the analytic and dense paths (CSV)",
        ("seed", "count"),
        {"count": 3},
    ),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="ghzent",
        description=(
            "Decide which bipartitions a GHZ-diagonal state is biseparable "
            "across and whether it is fully N-partite entangled. Fully "
            "entangled means NPT on every cut. That is not genuine multipartite "
            "entanglement: a mixture of states that are each separable across "
            "some cut can still be NPT on every cut."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text, flags, defaults in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(fn=fn, **defaults)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if "count" in args and args.count < 1:
        print("error: --count must be at least 1", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if "seed" in args and args.seed < 0:
        print(f"error: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    if "tol" in args and not (math.isfinite(args.tol) and args.tol >= 0.0):
        print(f"error: --tol must be a finite number >= 0, got {args.tol}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        code = args.fn(args)
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except BrokenPipeError:
        # The reader is gone.  stdout now writes to devnull, so the
        # interpreter's last flush of what is still buffered cannot fail.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
