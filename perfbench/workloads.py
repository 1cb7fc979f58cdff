"""Seeded inputs, the requests that carry them, and the checks on the answers.

Every workload is a closed loop with one client: a request is sent only
after the previous one has finished.  Inputs come in rounds; round ``r``
of seed ``s`` is drawn from ``numpy.random.default_rng([s, r])``, so a run
and its traced replay send identical requests, and a run always ends on a
whole round, which keeps each workload's mix of input kinds exact.  The
program receives only the generated state JSON.
"""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import traceback
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

import reference
import tracing

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "cli_child.py"

# Exact answers are compared at this absolute tolerance.  It only absorbs
# a different order of the same floating-point sums; verdicts are compared
# exactly.
VALUE_TOL = 1e-13
# Offset from a random state's own full-entanglement threshold; moves its
# worst coefficient ~1e-9 off zero, far outside the 1e-12 verdict tolerance.
THRESHOLD_OFFSET = 1e-6
GHZ_DELTAS = (1e-3, 1e-6, 1e-9)


@dataclass(frozen=True)
class Item:
    label: str
    lp: np.ndarray
    lm: np.ndarray
    text: str

    @property
    def n(self) -> int:
        return self.lp.size.bit_length()

    @property
    def partitions(self) -> int:
        return (1 << (self.n - 1)) - 1


def _item(label: str, lp: np.ndarray, lm: np.ndarray) -> Item:
    n = lp.size.bit_length()
    weights = [
        {"beta": format(k, f"0{n}b"), "plus": float(a), "minus": float(b)}
        for k, (a, b) in enumerate(zip(lp, lm))
        if a or b
    ]
    text = json.dumps({"n": n, "convention": "canonical", "weights": weights})
    return Item(label, lp, lm, text)


def flat_dirichlet(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    w = rng.exponential(size=(1 << (n - 1), 2))
    w /= w.sum()
    return w[:, 0].copy(), w[:, 1].copy()


def depolarize(lp: np.ndarray, lm: np.ndarray, p: float) -> tuple[np.ndarray, np.ndarray]:
    p = min(max(p, 0.0), 1.0)
    floor = p / (2 * lp.size)
    return (1.0 - p) * lp + floor, (1.0 - p) * lm + floor


def ghz_with_noise(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    lp = np.zeros(1 << (n - 1))
    lp[0] = 1.0
    return depolarize(lp, np.zeros_like(lp), p)


def near_mixed(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    return depolarize(*flat_dirichlet(rng, n), rng.uniform(0.99, 1.0))


def _ghz_pairs(n: int, deltas) -> list[Item]:
    p_star = reference.ghz_closed_form(n)
    return [
        _item(f"ghz p*{sign}{d:g}", *ghz_with_noise(n, p_star + (d if sign == "+" else -d)))
        for d in deltas
        for sign in "+-"
    ]


def random_round(rng, r):
    yield _item("random", *flat_dirichlet(rng, 12))


def boundary_round(rng, r):
    # The threshold-based inputs come last, so that a fresh process is
    # ready for its first request before it has to compute a threshold.
    yield _item("near-mixed", *near_mixed(rng, 12))
    yield from _ghz_pairs(12, GHZ_DELTAS[r % 3 : r % 3 + 1])
    base = flat_dirichlet(rng, 12)
    t = reference.full_entanglement_threshold(*base)
    yield _item("threshold+", *depolarize(*base, t + THRESHOLD_OFFSET))
    yield _item("threshold-", *depolarize(*base, t - THRESHOLD_OFFSET))


def oracle_round(rng, r):
    yield _item("random", *flat_dirichlet(rng, 7))
    yield _item("near-mixed", *near_mixed(rng, 7))
    yield from _ghz_pairs(7, GHZ_DELTAS)


def cli_round(rng, r):
    for n in range(3, 9):
        yield _item("random", *flat_dirichlet(rng, n))


@dataclass(frozen=True)
class Workload:
    name: str
    mode: str  # "inprocess", "oracle" or "subprocess"
    make_round: object
    # The highest percentile with at least ten samples beyond it in a
    # default-length run at seed; fixed so that runs stay comparable.
    tail: int

    def round(self, seed: int, r: int) -> Iterator[Item]:
        """The inputs of round ``r``, generated as they are consumed."""
        return self.make_round(np.random.default_rng([seed, r]), r)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("random-n12", "inprocess", random_round, 60),
        Workload("boundary-n12", "inprocess", boundary_round, 70),
        Workload("oracle-n7", "oracle", oracle_round, 90),
        Workload("cli-small", "subprocess", cli_round, 75),
    )
}


@dataclass
class Outcome:
    """One request as the client saw it."""

    latency: float
    calls: dict[str, float]
    partitions: int
    problem: str | None = None  # why the request failed, if it did
    incorrect: bool = False  # an answer differs from the reference
    peak_rss_kb: int = 0


def _span(tracer, name):
    return nullcontext() if tracer is None else tracer.span(name)


class Client:
    """Sends one workload's requests to the program and checks the answers."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        sys.path.insert(0, str(ROOT / "src"))
        import ghzent.analytic
        import ghzent.cli
        import ghzent.oracle
        import ghzent.state
        import ghzent.subsets

        self.cli = ghzent.cli
        self.tol = ghzent.analytic.COEFFICIENT_TOL
        self.psd_tol = ghzent.oracle.DEFAULT_ORACLE.psd_tol
        # The public functions an oracle request calls, with their layer names.
        self._oracle_api = {
            "load_state": ("state.load", ghzent.state.load_state),
            "enumerate_bipartitions": ("subsets.enumerate", ghzent.subsets.enumerate_bipartitions),
            "is_ppt": ("analytic.is_ppt", ghzent.analytic.is_ppt),
            "is_ppt_dense": ("oracle.is_ppt_dense", ghzent.oracle.is_ppt_dense),
        }
        self.plain_api = self.api(None)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
        )

    def api(self, tracer):
        """The functions an oracle request calls, each traced if ``tracer`` is set."""
        return SimpleNamespace(
            **{
                key: fn if tracer is None else tracer.wrap(name, fn)
                for key, (name, fn) in self._oracle_api.items()
            }
        )

    def send(self, item: Item, expected, tracer=None, api=None) -> Outcome:
        """One request; ``api`` is the traced oracle API when ``tracer`` is set."""
        mode = self.workload.mode
        try:
            if mode == "oracle":
                return self._oracle(item, expected, tracer, api or self.plain_api)
            return self._cli(item, expected, tracer, mode == "subprocess")
        except Exception:
            # The loop must go on; the failure is counted and its traceback shown.
            return Outcome(float("nan"), {}, 0, problem=traceback.format_exc(), incorrect=True)

    # -- classify then threshold, through the CLI --------------------------------

    def _cli(self, item, expected, tracer, fresh_process: bool) -> Outcome:
        outcome = Outcome(0.0, {}, 2 * item.partitions)
        answers = {}
        start = tracing.clock()
        with _span(tracer, "request"):
            for command in ("classify", "threshold"):
                argv = [command, "--input", item.text, "--format", "json"]
                t0 = tracing.clock()
                if fresh_process:
                    answers[command] = self._spawn(argv, tracer, outcome)
                else:
                    with _span(tracer, f"call.{command}"):
                        answers[command] = self._inprocess(argv)
                outcome.calls[command] = tracing.clock() - t0
        outcome.latency = tracing.clock() - start
        for command, (code, out, err) in answers.items():
            problem = check_cli(command, code, out, expected)
            if problem:
                outcome.problem = f"{command} on {item.label} (n={item.n}): {problem} {err.strip()}"
                outcome.incorrect = True
        return outcome

    def _inprocess(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _spawn(self, argv, tracer, outcome: Outcome):
        program = ["-m", "ghzent.cli"] if tracer is None else [str(CHILD)]
        spawn = tracing.clock()
        proc = subprocess.Popen(
            [sys.executable, *program, *argv],
            cwd=ROOT,
            env=self.env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            out = proc.stdout.read()
            err = proc.stderr.read()
            # wait4 rather than wait: it also returns the child's peak RSS.
            _, status, usage = os.wait4(proc.pid, 0)
            end = tracing.clock()
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
            proc.stderr.close()
        outcome.peak_rss_kb = max(outcome.peak_rss_kb, usage.ru_maxrss)
        err = err.decode()
        if tracer is not None:
            rest, _, last = err.rstrip("\n").rpartition("\n")
            if last.startswith("SPANS "):
                child = json.loads(last[len("SPANS ") :])
                tracer.adopt(f"call.{argv[0]}", spawn, child["entry"], end, child)
                err = rest
        return proc.returncode, out.decode(), err

    # -- is_ppt and is_ppt_dense on every cut of one state ------------------------

    def _oracle(self, item, expected, tracer, api) -> Outcome:
        start = tracing.clock()
        with _span(tracer, "request"):
            state = api.load_state(item.text)
            results = [
                (p, api.is_ppt(state, p), api.is_ppt_dense(state, p))
                for p in api.enumerate_bipartitions(state.n)
            ]
        latency = tracing.clock() - start
        outcome = Outcome(latency, {}, item.partitions)
        problem, mismatches = check_oracle(results, expected, self.psd_tol)
        if tracer is not None:
            tracer.counts["oracle.mismatches"] += mismatches
        if problem:
            outcome.problem = f"{item.label}: {problem}"
            outcome.incorrect = True
        elif mismatches:
            outcome.problem = (
                f"{item.label}: analytic and dense verdicts disagree on "
                f"{mismatches} of {len(results)} cuts"
            )
        return outcome


# -- checks against the reference --------------------------------------------------


def _witness_problem(expected, values, betas, names) -> str | None:
    values = np.asarray(values, dtype=float)
    if np.max(np.abs(values - expected.minima)) > VALUE_TOL:
        return "worst coefficient differs from the reference minimum"
    classes = np.asarray(betas)
    # Canonical classes exclude qubit 1, the top bit.
    if classes.min() < 0 or classes.max() >= 1 << (expected.n - 1):
        return "witness class is not canonical"
    at = reference.coefficient_at(expected.lp, expected.lm, expected.alpha1, classes, names)
    if np.max(np.abs(at - values)) > VALUE_TOL:
        return "witness does not point at the reported coefficient"
    return None


def check_cli(command: str, code: int, out: str, expected) -> str | None:
    want_code = 0 if command == "threshold" or expected.full_entangled else 1
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    try:
        data = json.loads(out)
    except json.JSONDecodeError:
        return "output is not JSON"
    parts = data["partitions"]
    alpha1 = [int(p["alpha1"], 2) for p in parts]
    if data["n"] != expected.n or alpha1 != expected.alpha1.tolist():
        return "partitions differ from the reference"
    if command == "classify":
        if data["full_entangled"] != expected.full_entangled:
            return "full_entangled differs from the reference"
        if [p["ppt"] for p in parts] != expected.ppt.tolist():
            return "PPT verdicts differ from the reference"
        worst = [p["worst"] for p in parts]
        return _witness_problem(
            expected,
            [w["value"] for w in worst],
            [int(w["beta"], 2) for w in worst],
            [w["coeff"] for w in worst],
        )
    if data["ghz_closed_form"] is not None:
        return "ghz_closed_form set for a state that is not pure GHZ"
    got = np.array([p["threshold"] for p in parts], dtype=float)
    if np.max(np.abs(got - expected.thresholds)) > VALUE_TOL:
        return "per-partition thresholds differ from the reference"
    if abs(data["full_entanglement_threshold"] - expected.overall_threshold) > VALUE_TOL:
        return "full-entanglement threshold differs from the reference"
    return None


def check_oracle(results, expected, psd_tol: float) -> tuple[str | None, int]:
    """(problem, number of cuts on which the two routes disagree).

    Each route is held to its own stated contract: the analytic verdict is
    PPT iff the minimum coefficient is >= -COEFFICIENT_TOL, the dense one
    iff the smallest partial-transpose eigenvalue, half that minimum, is
    >= -psd_tol.  Where the contracts differ the routes may disagree while
    both answer as stated; that counts as a failed check, not a wrong answer.
    """
    alpha1 = [p.alpha1.bits for p, _, _ in results]
    if alpha1 != expected.alpha1.tolist():
        return "partitions differ from the reference", 0
    analytic = np.array([ppt for _, (ppt, _), _ in results])
    dense = np.array([d for _, _, d in results])
    mismatches = int((analytic != dense).sum())
    if not np.array_equal(analytic, expected.ppt):
        return "analytic verdicts differ from the reference", mismatches
    if not np.array_equal(dense, expected.minima / 2.0 >= -psd_tol):
        return "dense verdicts differ from the reference", mismatches
    witnesses = [w for _, (_, w), _ in results]
    problem = _witness_problem(
        expected,
        [w.value for w in witnesses],
        [w.beta.bits for w in witnesses],
        [w.coefficient for w in witnesses],
    )
    return problem, mismatches
