"""End-to-end acceptance checks.

Each test prints one PASS or FAIL line (visible with ``pytest -s``) so the
whole gate can be read at a glance.  Tolerances are stated inline; the
random sweeps are fully seeded and deterministic.
"""

import contextlib
import functools
import io
import time

import numpy as np

from ghz_reference import (
    coefficient_table,
    enumerate_canonical_betas,
    ghz_vector,
    mix_with_white_noise,
    phi_vector,
    pt_spectrum_deviation,
    weight,
    xor,
)
from ghzent.analytic import (
    classify,
    full_entanglement_threshold,
    is_ppt,
)
from ghzent.cli import BENCH_CSV_HEADER, main as cli_main
from ghzent.oracle import (
    eigenvalues_symmetric,
    is_ppt_dense,
    partial_transpose,
    to_dense,
)
from ghzent.state import GhzDiagonalState, random_state
from ghzent.subsets import SubsetMask, enumerate_bipartitions
from test_cli import BENCH_ROWS
from test_state import extract_lambda


def criterion(num, desc):
    def wrap(fn):
        @functools.wraps(fn)
        def runner():
            try:
                fn()
            except BaseException:
                print(f"[criterion {num}] FAIL  {desc}")
                raise
            print(f"[criterion {num}] PASS  {desc}")

        return runner

    return wrap


@criterion(1, "analytic and dense verdicts agree on 1200 random states, n = 2..7")
def test_agreement_sweep():
    start = time.perf_counter()
    mismatches = 0
    for n in range(2, 8):
        partitions = enumerate_bipartitions(n)
        for i in range(200):
            state = random_state(n, 1000 * n + i)
            for partition in partitions:
                analytic, _ = is_ppt(state, partition)
                if analytic != is_ppt_dense(state, partition):
                    mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 300.0


@criterion(2, "two-qubit PT spectrum equals the halved coefficients to 1e-9")
def test_two_qubit_spectrum_equivalence():
    partition = enumerate_bipartitions(2)[0]
    for i in range(100):
        state = random_state(2, 2000 + i)
        dense = eigenvalues_symmetric(
            partial_transpose(to_dense(state), partition.alpha1)
        ).eigenvalues
        assert pt_spectrum_deviation(state, partition, dense) <= 1e-9
        assert is_ppt(state, partition)[0] == is_ppt_dense(state, partition)
    # pure Bell state: coefficients (1, 1, 1, -1), minimum eigenvalue -1/2
    bell = GhzDiagonalState.pure_ghz(2)
    b, c, d, e = coefficient_table(bell, partition)
    assert (b[0], c[0], d[0], e[0]) == (1.0, 1.0, 1.0, -1.0)
    low = eigenvalues_symmetric(
        partial_transpose(to_dense(bell), partition.alpha1)
    ).eigenvalues[0]
    assert abs(low - (-0.5)) < 1e-12


@criterion(3, "GHZ noise threshold is 2^n/(2^n+2), matched by dense bisection")
def test_noise_threshold():
    for n in range(2, 11):
        expected = (1 << n) / ((1 << n) + 2)
        got = full_entanglement_threshold(GhzDiagonalState.pure_ghz(n))
        assert abs(got - expected) <= 1e-12
    for n in range(2, 8):
        state = GhzDiagonalState.pure_ghz(n)
        partitions = enumerate_bipartitions(n)
        lo, hi = 0.0, 1.0
        while hi - lo > 2.5e-7:
            mid = 0.5 * (lo + hi)
            mixed = mix_with_white_noise(state, mid)
            if any(is_ppt_dense(mixed, p) for p in partitions):
                hi = mid
            else:
                lo = mid
        estimate = 0.5 * (lo + hi)
        expected = (1 << n) / ((1 << n) + 2)
        assert abs(estimate - expected) <= 1e-6


@criterion(4, "basis is orthonormal to 1e-12 and partner vectors relabel exactly")
def test_basis_integrity():
    for n in range(2, 11):
        dim = 1 << n
        v = np.zeros((dim, dim))
        row = 0
        for beta in enumerate_canonical_betas(n):
            for sign in (+1, -1):
                for idx, amp in ghz_vector(beta, sign).entries:
                    v[row, idx] = amp
                row += 1
        gram = v @ v.T
        assert np.max(np.abs(gram - np.eye(dim))) <= 1e-12
    for n in range(2, 11):
        for beta in enumerate_canonical_betas(n):
            for sign in (+1, -1):
                same = ghz_vector(beta.complement(), sign)
                assert ghz_vector(beta, sign).entries == same.entries
    for n in range(2, 7):
        for partition in enumerate_bipartitions(n):
            for beta in enumerate_canonical_betas(n):
                for sign in (+1, -1):
                    phi = phi_vector(beta, sign, partition)
                    psi = ghz_vector(xor(beta, partition.alpha2), sign)
                    assert phi.entries == psi.entries
                    assert np.array_equal(phi.outer(), psi.outer())


@criterion(5, "dense round trip recovers weights to 1e-12; PT algebra is exact")
def test_dense_round_trip():
    rng = np.random.default_rng(77)
    for _ in range(50):
        n = int(rng.integers(2, 9))
        state = random_state(n, int(rng.integers(0, 1_000_000)))
        rho = to_dense(state)
        for beta in enumerate_canonical_betas(n):
            for sign in (+1, -1):
                got = extract_lambda(rho, beta, sign)
                assert abs(got - weight(state, beta, sign)) <= 1e-12
    for _ in range(20):
        n = int(rng.integers(2, 7))
        a = rng.normal(size=(1 << n, 1 << n))
        rho = (a + a.T) / 2
        bits_a = int(rng.integers(0, 1 << n))
        bits_b = int(rng.integers(0, 1 << n)) & ~bits_a
        mask_a = SubsetMask(bits_a, n)
        mask_b = SubsetMask(bits_b, n)
        twice = partial_transpose(partial_transpose(rho, mask_a), mask_a)
        assert np.array_equal(twice, rho)
        joint = SubsetMask(bits_a | bits_b, n)
        chained = partial_transpose(partial_transpose(rho, mask_a), mask_b)
        assert np.array_equal(chained, partial_transpose(rho, joint))


@criterion(6, "pure GHZ states classify fully entangled with witness E = -1")
def test_pure_ghz_classification():
    for n in range(2, 11):
        report = classify(GhzDiagonalState.pure_ghz(n))
        assert report.full_entangled
        assert len(report.partitions) == (1 << (n - 1)) - 1
        for verdict in report.partitions:
            assert not verdict.is_ppt
            assert verdict.worst.beta == SubsetMask(0, n)
            assert verdict.worst.coefficient == "E"
            assert verdict.worst.value == -1.0


@criterion(7, "n = 12 classification under 2 s; bench CSV well-formed")
def test_performance_and_bench():
    state = random_state(12, 0)
    start = time.perf_counter()
    report = classify(state)
    elapsed = time.perf_counter() - start
    assert len(report.partitions) == (1 << 11) - 1
    assert elapsed < 2.0
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli_main(["bench", "--count", "1", "--seed", "0"])
    assert rc == 0
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == BENCH_CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert [(r[0], int(r[1])) for r in rows] == BENCH_ROWS
    for r in rows:
        assert int(r[2]) >= 1 and float(r[3]) > 0.0
