import time
from dataclasses import dataclass

import ghzent.analytic

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghz_reference import (
    canonical_beta,
    enumerate_canonical_betas,
    ghz_vector,
    mix_with_white_noise,
    phi_vector,
    weight,
    xor,
)
from ghzent.analytic import (
    COEFFICIENT_NAMES,
    classify,
    coefficient_arrays,
    full_entanglement_threshold,
    is_ppt,
    noise_threshold,
    partition_minima,
    partition_thresholds,
    _rank_prefix,
)
from ghzent.oracle import eigenvalues_symmetric, is_ppt_dense, partial_transpose
from ghzent.state import (
    GhzDiagonalState,
    random_state,
    to_dense,
)
from ghzent.subsets import SubsetMask, enumerate_bipartitions


# -- one block at a time: the per-class reference for the vectorized paths -----


@dataclass(frozen=True)
class BlockCoefficients:
    """One block's weights and its four partial-transpose sign coefficients.

    ``b, c, d, e`` are twice the eigenvalues of the block's partial
    transpose; the block is positive under partial transposition iff all
    four are nonnegative.
    """

    lambda_plus: float
    lambda_minus: float
    eta_plus: float
    eta_minus: float
    b: float
    c: float
    d: float
    e: float

    @property
    def block_mass(self) -> float:
        return self.lambda_plus + self.lambda_minus + self.eta_plus + self.eta_minus

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.b, self.c, self.d, self.e)


def eta_pair(state, beta, partition):
    """Weights of the partner class ``beta XOR alpha2``: a plain weight lookup."""
    if partition.n != state.n or beta.n != state.n:
        raise ValueError(f"mixed qubit counts {partition.n}, {beta.n} and {state.n}")
    k = canonical_beta(beta).bits ^ partition.alpha2.bits
    return float(state.lambda_plus[k]), float(state.lambda_minus[k])


def block_coefficients(state, beta, partition):
    """The four signed combinations deciding one block's PPT status."""
    lp = weight(state, beta, +1)
    lm = weight(state, beta, -1)
    ep, em = eta_pair(state, beta, partition)
    return BlockCoefficients(
        lambda_plus=lp,
        lambda_minus=lm,
        eta_plus=ep,
        eta_minus=em,
        b=lp - lm + ep + em,
        c=lp + lm - ep + em,
        d=lp + lm + ep - em,
        e=-lp + lm + ep + em,
    )


def bell_diagonal(lp0, lm0, lp1, lm1):
    return GhzDiagonalState(2, [lp0, lp1], [lm0, lm1])


def test_two_qubit_coefficients_frozen_example():
    s = bell_diagonal(0.5, 0.1, 0.3, 0.1)
    p = enumerate_bipartitions(2)[0]
    co = block_coefficients(s, SubsetMask(0, 2), p)
    assert co.as_tuple() == pytest.approx((0.8, 0.4, 0.8, 0.0), abs=1e-15)
    # halved, these are exactly the partial transpose eigenvalues
    ev = eigenvalues_symmetric(partial_transpose(to_dense(s), p.alpha1)).eigenvalues
    assert ev == pytest.approx([0.0, 0.2, 0.4, 0.4], abs=1e-12)
    ppt, witness = is_ppt(s, p)
    assert ppt  # the zero coefficient sits exactly on the boundary
    assert witness.value == pytest.approx(0.0, abs=1e-15)


def test_pure_bell_state_coefficients():
    s = GhzDiagonalState.pure_ghz(2)
    p = enumerate_bipartitions(2)[0]
    co = block_coefficients(s, SubsetMask(0, 2), p)
    assert co.as_tuple() == (1.0, 1.0, 1.0, -1.0)
    low = eigenvalues_symmetric(partial_transpose(to_dense(s), p.alpha1)).eigenvalues[0]
    assert low == pytest.approx(-0.5, abs=1e-15)


def test_uniform_mixture_coefficients():
    s = GhzDiagonalState.maximally_mixed(2)
    p = enumerate_bipartitions(2)[0]
    co = block_coefficients(s, SubsetMask(0, 2), p)
    assert co.as_tuple() == pytest.approx((0.5, 0.5, 0.5, 0.5), abs=1e-15)


def test_eta_pair_is_partner_quadratic_form():
    rng = np.random.default_rng(61)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        s = random_state(n, int(rng.integers(0, 10_000)))
        rho = to_dense(s).matrix
        parts = enumerate_bipartitions(n)
        p = parts[int(rng.integers(0, len(parts)))]
        beta = SubsetMask(int(rng.integers(0, 1 << (n - 1))), n)
        ep, em = eta_pair(s, beta, p)
        vp = phi_vector(beta, +1, p).to_dense()
        vm = phi_vector(beta, -1, p).to_dense()
        assert ep == pytest.approx(vp @ rho @ vp, abs=1e-12)
        assert em == pytest.approx(vm @ rho @ vm, abs=1e-12)


def test_coefficient_identities():
    rng = np.random.default_rng(71)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        s = random_state(n, int(rng.integers(0, 10_000)))
        parts = enumerate_bipartitions(n)
        p = parts[int(rng.integers(0, len(parts)))]
        mass_total = 0.0
        for beta in enumerate_canonical_betas(n):
            co = block_coefficients(s, beta, p)
            lam = co.lambda_plus + co.lambda_minus
            eta = co.eta_plus + co.eta_minus
            assert co.c + co.d == pytest.approx(2 * lam, abs=1e-14)
            assert co.b + co.e == pytest.approx(2 * eta, abs=1e-14)
            assert sum(co.as_tuple()) == pytest.approx(2 * co.block_mass, abs=1e-14)
            mass_total += co.block_mass
        # every class appears once as itself and once as a partner
        assert mass_total == pytest.approx(2.0, abs=1e-12)


def test_partner_class_permutes_coefficients():
    rng = np.random.default_rng(81)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        s = random_state(n, int(rng.integers(0, 10_000)))
        parts = enumerate_bipartitions(n)
        p = parts[int(rng.integers(0, len(parts)))]
        beta = SubsetMask(int(rng.integers(0, 1 << (n - 1))), n)
        partner = xor(beta, p.alpha2)
        a = block_coefficients(s, beta, p)
        b = block_coefficients(s, partner, p)
        assert (b.b, b.c, b.d, b.e) == pytest.approx(
            (a.d, a.e, a.b, a.c), abs=1e-15
        )


def test_negative_coefficient_can_appear_in_c_or_d():
    # all weight on the partner class of the empty set: C goes to -1 there,
    # so no sign constraint holds for C or D individually
    s = GhzDiagonalState(2, [0.0, 1.0], [0.0, 0.0])
    p = enumerate_bipartitions(2)[0]
    co = block_coefficients(s, SubsetMask(0, 2), p)
    assert co.as_tuple() == (1.0, -1.0, 1.0, 1.0)
    ppt, witness = is_ppt(s, p)
    assert not ppt
    assert witness.coefficient == "C"
    assert witness.value == -1.0


def test_eta_pair_same_through_either_group():
    # XOR with either group's mask lands in the same class, complement apart
    rng = np.random.default_rng(121)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        s = random_state(n, int(rng.integers(0, 10_000)))
        parts = enumerate_bipartitions(n)
        p = parts[int(rng.integers(0, len(parts)))]
        beta = SubsetMask(int(rng.integers(0, 1 << (n - 1))), n)
        via_alpha2 = xor(beta, p.alpha2)
        via_alpha1 = xor(beta, p.alpha1)
        assert via_alpha1 == via_alpha2.complement()
        assert eta_pair(s, beta, p) == (weight(s, via_alpha1, +1), weight(s, via_alpha1, -1))


def test_ppt_is_monotone_in_noise_on_a_grid():
    rng = np.random.default_rng(131)
    for _ in range(5):
        n = int(rng.integers(2, 5))
        s = random_state(n, int(rng.integers(0, 10_000)))
        p = enumerate_bipartitions(n)[0]
        t = noise_threshold(s, p)
        for q in np.linspace(0.0, 1.0, 100):
            if abs(q - t) < 1e-9:
                continue
            assert is_ppt(mix_with_white_noise(s, float(q)), p)[0] == (q > t)


def test_vectorized_arrays_match_per_class_loop():
    rng = np.random.default_rng(91)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        s = random_state(n, int(rng.integers(0, 10_000)))
        for p in enumerate_bipartitions(n):
            b, c, d, e = coefficient_arrays(s, p)
            for k, beta in enumerate(enumerate_canonical_betas(n)):
                co = block_coefficients(s, beta, p)
                assert (b[k], c[k], d[k], e[k]) == co.as_tuple()


def test_witness_is_deterministic():
    s = GhzDiagonalState.pure_ghz(3)
    for p in enumerate_bipartitions(3):
        ppt, witness = is_ppt(s, p)
        assert not ppt
        assert witness.beta == SubsetMask(0, 3)
        assert witness.coefficient == "E"
        assert witness.value == -1.0
    # with all coefficients tied, the first class and the first name win
    m = GhzDiagonalState.maximally_mixed(3)
    ppt, witness = is_ppt(m, enumerate_bipartitions(3)[0])
    assert ppt
    assert witness.beta == SubsetMask(0, 3)
    assert witness.coefficient == "B"
    assert witness.value == pytest.approx(0.25, abs=1e-15)


def test_is_ppt_tolerance_is_adjustable():
    s = GhzDiagonalState.pure_ghz(3)
    p = enumerate_bipartitions(3)[0]
    assert not is_ppt(s, p)[0]
    assert is_ppt(s, p, tol=1.5)[0]


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), float("-inf"), -1e-12])
def test_meaningless_tol_is_rejected(tol):
    # nan and negative values used to call a separable state fully
    # entangled, and inf called every cut PPT
    s = GhzDiagonalState.maximally_mixed(3)
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        classify(s, tol=tol)
    with pytest.raises(ValueError, match="tol must be a finite number >= 0"):
        is_ppt(s, enumerate_bipartitions(3)[0], tol=tol)
    assert not classify(s, tol=0.0).full_entangled


def test_classify_pure_and_mixed_endpoints():
    for n in range(2, 7):
        report = classify(GhzDiagonalState.pure_ghz(n))
        assert report.full_entangled
        assert len(report.partitions) == (1 << (n - 1)) - 1
        assert not report.ppt.any()
        report = classify(GhzDiagonalState.maximally_mixed(n))
        assert not report.full_entangled
        assert report.ppt.all() and report.ppt.size == len(report.partitions)


def test_classify_matches_dense_verdicts():
    rng = np.random.default_rng(101)
    for _ in range(30):
        n = int(rng.integers(2, 6))
        s = random_state(n, int(rng.integers(0, 100_000)))
        report = classify(s)
        for verdict in report.partitions:
            assert verdict.is_ppt == is_ppt_dense(s, verdict.partition)


def test_report_json_schema():
    doc = classify(GhzDiagonalState.pure_ghz(3)).to_json_dict()
    assert set(doc) == {"n", "full_entangled", "partitions"}
    assert doc["n"] == 3
    assert doc["full_entangled"] is True
    assert len(doc["partitions"]) == 3
    entry = doc["partitions"][0]
    assert set(entry) == {"alpha1", "ppt", "worst"}
    assert entry["alpha1"] == "100"
    assert entry["ppt"] is False
    assert entry["worst"] == {"beta": "000", "coeff": "E", "value": -1.0}


def test_ghz_noise_threshold_closed_form():
    for n in range(2, 9):
        s = GhzDiagonalState.pure_ghz(n)
        expected = (1 << n) / ((1 << n) + 2)
        for p in enumerate_bipartitions(n):
            assert noise_threshold(s, p) == pytest.approx(expected, abs=1e-12)
        assert full_entanglement_threshold(s) == pytest.approx(expected, abs=1e-12)


def test_threshold_of_already_separable_state_is_zero():
    m = GhzDiagonalState.maximally_mixed(4)
    for p in enumerate_bipartitions(4):
        assert noise_threshold(m, p) == 0.0
    assert full_entanglement_threshold(m) == 0.0


def test_threshold_shifts_affinely_under_premixing():
    s = GhzDiagonalState.pure_ghz(3)
    p = enumerate_bipartitions(3)[0]
    t = noise_threshold(s, p)
    pre = 0.5
    shifted = noise_threshold(mix_with_white_noise(s, pre), p)
    assert shifted == pytest.approx((t - pre) / (1 - pre), abs=1e-12)


def test_threshold_brackets_the_classification_flip():
    rng = np.random.default_rng(111)
    eps = 1e-6
    for _ in range(20):
        n = int(rng.integers(2, 6))
        s = random_state(n, int(rng.integers(0, 100_000)))
        t = full_entanglement_threshold(s)
        if t <= eps or t >= 1 - eps:
            continue
        assert classify(mix_with_white_noise(s, t - eps)).full_entangled
        assert not classify(mix_with_white_noise(s, t + eps)).full_entangled


def test_boundary_state_is_ppt_within_tolerance():
    s = mix_with_white_noise(GhzDiagonalState.pure_ghz(3), 0.8)
    for p in enumerate_bipartitions(3):
        ppt, witness = is_ppt(s, p)
        assert ppt
        assert abs(witness.value) < 1e-15
        assert noise_threshold(s, p) < 1e-12


def test_mixed_qubit_counts_rejected():
    s = random_state(3, 0)
    p4 = enumerate_bipartitions(4)[0]
    with pytest.raises(ValueError):
        eta_pair(s, SubsetMask(0, 3), p4)
    with pytest.raises(ValueError):
        coefficient_arrays(s, p4)
    with pytest.raises(ValueError):
        block_coefficients(s, SubsetMask(0, 4), enumerate_bipartitions(3)[0])


def test_coefficient_names_order():
    assert COEFFICIENT_NAMES == ("B", "C", "D", "E")


# -- the all-partition scan against its definition ------------------------------


def reference_pair_cut(state, p):
    """One cut of ``partition_minima`` straight from its definition.

    The value is the least term s[k] - |d_j| over classes j, k = j ^ alpha2,
    with s and |d| rounded once per class; the class is the smallest class
    of a pair (j, k) whose term is that value; the code is the first least
    of B, C, D, E in that class's row.
    """
    lp, lm = state.lambda_plus, state.lambda_minus
    j = np.arange(lp.size)
    k = j ^ p.alpha2.bits
    term = (lp + lm)[k] - np.abs(lp - lm)
    value = term.min()
    w = int(np.minimum(j, k)[term == value].min())
    x = w ^ p.alpha2.bits
    row = (
        lp[w] - lm[w] + lp[x] + lm[x],
        lp[w] + lm[w] - lp[x] + lm[x],
        lp[w] + lm[w] + lp[x] - lm[x],
        -lp[w] + lm[w] + lp[x] + lm[x],
    )
    return value, w, int(np.argmin(row))


def reference_pair_minima(state):
    """``reference_pair_cut`` of every cut, as columns."""
    cuts = [reference_pair_cut(state, p) for p in enumerate_bipartitions(state.n)]
    return tuple(map(np.array, zip(*cuts)))


def reference_cut(state, p):
    """Per-cut ``argmin`` over the stacked (B, C, D, E) table of one cut.

    Returns the minimum, its class, its coefficient code and the cut's full
    table, ties resolved by flat index: smallest class, then B, C, D, E.
    Each value is an exact table entry, within a few ulps of the pair
    formula's.
    """
    table = np.stack(coefficient_arrays(state, p), axis=1)
    k, which = divmod(int(np.argmin(table)), 4)
    return table[k, which], k, which, table


def reference_minima(state):
    """``reference_cut`` of every cut, as columns plus the list of tables."""
    cuts = [reference_cut(state, p) for p in enumerate_bipartitions(state.n)]
    values, classes, codes, tables = zip(*cuts)
    return np.array(values), np.array(classes), np.array(codes), list(tables)


def reference_threshold(minimum, n):
    """-M / (2/2^n - M), clamped to [0, 1], for a cut with minimum M < 0; else 0."""
    if not minimum < 0.0:
        return 0.0
    return min(max(-minimum / (2.0 / (1 << n) - minimum), 0.0), 1.0)


def assert_minima_match_reference(state):
    values, classes, codes = partition_minima(state)
    ref_values, ref_classes, ref_codes = reference_pair_minima(state)
    assert np.array_equal(values, ref_values)  # bit-equal, not approximately
    assert np.array_equal(classes, ref_classes)
    assert np.array_equal(codes, ref_codes)


def ghz_at(n, p):
    return mix_with_white_noise(GhzDiagonalState.pure_ghz(n), p)


def from_weights(n, weights):
    """State with ``weights`` (lambda_plus then lambda_minus), normalised."""
    weights = np.asarray(weights, dtype=float)
    weights = weights / weights.sum()
    half = weights.size // 2
    return GhzDiagonalState(n, weights[:half], weights[half:])


def dephased_state(n, seed):
    """Random weights with lambda_plus = lambda_minus in every class: |d| = 0."""
    w = np.random.default_rng(seed).exponential(size=1 << (n - 1))
    return from_weights(n, np.concatenate([w, w]))


def classical_ghz(n):
    """(|0...0><0...0| + |1...1><1...1|) / 2: class 0 has lambda_plus = lambda_minus = 1/2."""
    weights = np.zeros(1 << n)
    weights[[0, 1 << (n - 1)]] = 1.0
    return from_weights(n, weights)


def parity_flat_state(n, seed):
    """Weights set by the sign and the parity of the class: two values each of s and |d|."""
    levels = np.random.default_rng(seed).exponential(size=4)
    parity = np.array([bin(j).count("1") & 1 for j in range(1 << (n - 1))])
    return from_weights(n, np.concatenate([levels[parity], levels[2 + parity]]))


def quantised_state(n, seed):
    """Weights drawn from {0, 1, 2, 3}: ties in both s and |d|."""
    weights = np.random.default_rng(seed).integers(0, 4, size=1 << n)
    weights[0] += weights.sum() == 0
    return from_weights(n, weights)


def sparse_repeated_state(n, seed):
    """A few nonzero weights, each 1 or 2."""
    rng = np.random.default_rng(seed)
    weights = np.zeros(1 << n)
    slots = rng.choice(1 << n, size=min(1 << n, 5), replace=False)
    weights[slots] = rng.choice([1.0, 2.0], size=slots.size)
    return from_weights(n, weights)


def scan_corpus():
    for n in range(2, 12):
        p_star = (1 << n) / ((1 << n) + 2)
        for seed in range(5):
            yield pytest.param(random_state(n, seed), id=f"random-n{n}-seed{seed}")
        for p in (0.0, 0.3, p_star - 1e-9, p_star, p_star + 1e-9, 0.999, 1.0):
            yield pytest.param(ghz_at(n, p), id=f"ghz-n{n}-p{p}")
        yield pytest.param(GhzDiagonalState.maximally_mixed(n), id=f"mixed-n{n}")
        for seed in range(3):
            p = 0.99 + 0.003 * seed
            state = mix_with_white_noise(random_state(n, 50 + seed), p)
            yield pytest.param(state, id=f"near-mixed-n{n}-p{p}")
        yield pytest.param(classical_ghz(n), id=f"classical-ghz-n{n}")
        for seed in range(2):
            yield pytest.param(dephased_state(n, seed), id=f"dephased-n{n}-seed{seed}")
            yield pytest.param(parity_flat_state(n, seed), id=f"parity-flat-n{n}-seed{seed}")
            yield pytest.param(quantised_state(n, seed), id=f"quantised-n{n}-seed{seed}")
            yield pytest.param(sparse_repeated_state(n, seed), id=f"sparse-repeated-n{n}-seed{seed}")
        state = mix_with_white_noise(dephased_state(n, 70), 0.5)
        yield pytest.param(state, id=f"dephased-half-mixed-n{n}")


def large_scan_corpus():
    # The benchmark's size and one past it.  Selection ranks every prefix at
    # every n, but only from here on is a side's prefix a small share of its
    # keys, so runs of tied keys meet the tie fill at the edge key far from
    # the end of the side.
    n = 12
    p_star = (1 << n) / ((1 << n) + 2)
    for seed in range(2):
        yield pytest.param(random_state(n, seed), id=f"random-n{n}-seed{seed}")
        yield pytest.param(quantised_state(n, seed), id=f"quantised-n{n}-seed{seed}")
        yield pytest.param(sparse_repeated_state(n, seed), id=f"sparse-repeated-n{n}-seed{seed}")
    for p in (p_star - 1e-9, p_star, p_star + 1e-9):
        yield pytest.param(ghz_at(n, p), id=f"ghz-n{n}-p{p}")
    yield pytest.param(GhzDiagonalState.maximally_mixed(n), id=f"mixed-n{n}")
    for seed in range(2):
        p = 0.99 + 0.003 * seed
        state = mix_with_white_noise(random_state(n, 50 + seed), p)
        yield pytest.param(state, id=f"near-mixed-n{n}-p{p}")
    yield pytest.param(classical_ghz(n), id=f"classical-ghz-n{n}")
    for seed in range(2):
        yield pytest.param(dephased_state(n, seed), id=f"dephased-n{n}-seed{seed}")
        yield pytest.param(parity_flat_state(n, seed), id=f"parity-flat-n{n}-seed{seed}")
    state = mix_with_white_noise(dephased_state(n, 70), 0.5)
    yield pytest.param(state, id=f"dephased-half-mixed-n{n}")
    yield pytest.param(random_state(13, 0), id="random-n13-seed0")
    yield pytest.param(quantised_state(13, 0), id="quantised-n13-seed0")


@pytest.mark.parametrize("state", [*scan_corpus(), *large_scan_corpus()])
def test_partition_minima_matches_reference(state):
    assert_minima_match_reference(state)


@st.composite
def sparse_states(draw, max_n=8):
    """At most three nonzero weights, often equal, so ties are common."""
    n = draw(st.integers(2, max_n))
    slots = 1 << n
    positions = draw(st.lists(st.integers(0, slots - 1), min_size=1, max_size=3, unique=True))
    values = draw(
        st.lists(
            st.one_of(st.sampled_from([1.0, 0.5, 0.25, 0.1, 1 / 3]), st.floats(1e-9, 1.0)),
            min_size=len(positions),
            max_size=len(positions),
        )
    )
    weights = np.zeros(slots)
    weights[positions] = values
    weights /= weights.sum()
    half = slots // 2
    return GhzDiagonalState(n, weights[:half], weights[half:])


@settings(max_examples=300, deadline=None)
@given(sparse_states())
def test_partition_minima_matches_reference_on_sparse_weights(state):
    assert_minima_match_reference(state)


@st.composite
def quantised_states(draw):
    """Every weight in {0, 1, 2, 3}, normalised: ties in both s and |d|."""
    n = draw(st.integers(2, 8))
    weights = draw(st.lists(st.integers(0, 3), min_size=1 << n, max_size=1 << n))
    if not any(weights):
        weights[draw(st.integers(0, (1 << n) - 1))] = draw(st.integers(1, 3))
    return from_weights(n, weights)


@settings(max_examples=300, deadline=None)
@given(quantised_states())
def test_partition_minima_matches_reference_on_quantised_weights(state):
    assert_minima_match_reference(state)


@pytest.mark.parametrize("size", [1, 2, 3, 7, 64, 65, 100, 1000, 2048, 4095, 4096])
@pytest.mark.parametrize("ties", [False, True], ids=["distinct", "levels"])
@pytest.mark.parametrize("past_end", [False, True], ids=["to-size", "past-size"])
def test_rank_prefix_extends_the_stable_argsort(size, ties, past_end):
    rng = np.random.default_rng(size)
    key = rng.integers(0, 4, size).astype(float) if ties else rng.standard_normal(size)
    stable = np.argsort(key, kind="stable")
    order = np.arange(size)
    # m = 1, 2, 4, ... while short of size, then size itself or twice it
    steps = [1 << b for b in range((size - 1).bit_length())]
    ranked = 0
    for m in [*steps, 2 * size if past_end else size]:
        ranked = _rank_prefix(key, order, ranked, m)
        assert ranked == min(m, size)
        assert np.array_equal(order[:ranked], stable[:ranked])
        assert (np.diff(order[ranked:]) > 0).all()  # the rest in increasing class order
        assert np.array_equal(np.sort(order), np.arange(size))
    assert ranked == size


def test_partition_minima_tie_break_on_flat_weights():
    # every coefficient equals 2/2^n: class 0 and coefficient B win everywhere
    for n in range(2, 9):
        values, classes, codes = partition_minima(GhzDiagonalState.maximally_mixed(n))
        assert (values == 2.0 / (1 << n)).all()
        assert (classes == 0).all()
        assert (codes == COEFFICIENT_NAMES.index("B")).all()


@pytest.mark.parametrize(
    "state",
    [
        pytest.param(GhzDiagonalState.maximally_mixed(14), id="mixed"),
        pytest.param(classical_ghz(14), id="classical-ghz"),
        pytest.param(dephased_state(14, 0), id="dephased"),
    ],
)
def test_classify_settles_tied_states_at_n14_quickly(state):
    # Flat |d| and lambda_plus = lambda_minus tie on every cut; the stop
    # bound and the tie check on smaller classes settle them in a block or two
    # (a few ms) instead of visiting all 8192 classes (about a second).
    # A fresh copy each time: a state keeps its scan, so a repeat would time nothing.
    times = []
    for _ in range(3):
        fresh = GhzDiagonalState(state.n, state.lambda_plus, state.lambda_minus)
        start = time.perf_counter()
        classify(fresh)
        times.append(time.perf_counter() - start)
    assert min(times) < 0.1


@pytest.mark.parametrize("state", scan_corpus())
def test_thresholds_match_per_cut_noise_threshold(state):
    minima = reference_pair_minima(state)[0]
    per_cut = np.array([reference_threshold(m, state.n) for m in minima])
    thresholds = partition_thresholds(state)
    assert np.array_equal(thresholds, per_cut)
    assert full_entanglement_threshold(state) == per_cut.min()


def per_cut_corpus():
    """``scan_corpus()`` and GHZ + noise within 1e-12 of its threshold p*."""
    yield from scan_corpus()
    for n in range(2, 12):
        p_star = (1 << n) / ((1 << n) + 2)
        for p in (p_star - 1e-12, p_star + 1e-12):
            yield pytest.param(ghz_at(n, p), id=f"ghz-n{n}-p{p}")


@pytest.mark.parametrize("state", per_cut_corpus())
def test_per_cut_calls_match_per_cut_reference(state):
    # is_ppt and noise_threshold read the scan; the reference never runs it.
    for p in enumerate_bipartitions(state.n):
        value, k, which = reference_pair_cut(state, p)
        for tol in (1e-12, 0.0):
            ppt, witness = is_ppt(state, p, tol=tol)
            assert ppt is bool(value >= -tol)
            assert witness.value == value  # bit-equal, not approximately
            assert witness.beta == SubsetMask(k, state.n)
            assert witness.coefficient == COEFFICIENT_NAMES[which]
        assert noise_threshold(state, p) == reference_threshold(value, state.n)


def certificate_corpus():
    for n in range(2, 7):
        p_star = (1 << n) / ((1 << n) + 2)
        for seed in range(3):
            yield pytest.param(random_state(n, seed), id=f"random-n{n}-seed{seed}")
        yield pytest.param(ghz_at(n, p_star - 1e-9), id=f"ghz-n{n}-below-p*")
        yield pytest.param(quantised_state(n, 0), id=f"quantised-n{n}")
        yield pytest.param(dephased_state(n, 0), id=f"dephased-n{n}")


@pytest.mark.parametrize("state", certificate_corpus())
def test_witness_is_a_ghz_vector_of_the_partial_transpose(state):
    # The partial transpose of a block is diagonal in its four GHZ vectors:
    # across cut alpha, with witness class j and k = j ^ alpha2, B is
    # 2 <G_k+|rho^T|G_k+>, C of G_j-, D of G_j+ and E of G_k-.  So the reported
    # witness names a vector G with <G|rho^T|G> = value / 2, and a negative
    # value certifies NPT across the cut.
    n = state.n
    report = classify(state)
    for p, value, j, code in zip(
        enumerate_bipartitions(n), report.values, report.classes, report.codes
    ):
        k = int(j) ^ p.alpha2.bits
        beta, sign = ((k, +1), (j, -1), (j, +1), (k, -1))[code]
        g = ghz_vector(SubsetMask(int(beta), n), sign).to_dense()
        pt = partial_transpose(to_dense(state), p.alpha1).matrix
        assert abs(g @ pt @ g - value / 2) <= 1e-14


# -- the scan is kept on the state ------------------------------------------------


def _count_scans(monkeypatch):
    calls = []
    scan = ghzent.analytic._scan_minima
    monkeypatch.setattr(ghzent.analytic, "_scan_minima", lambda *a: calls.append(1) or scan(*a))
    return calls


def test_a_state_is_scanned_once(monkeypatch):
    calls = _count_scans(monkeypatch)
    state = random_state(9, 4)
    report = classify(state)
    thresholds = partition_thresholds(state)
    overall = full_entanglement_threshold(state)
    assert len(calls) == 1
    minima = partition_minima(state)
    assert all(a is b for a, b in zip(minima, (report.values, report.classes, report.codes)))
    assert len(calls) == 1
    # a copy of the weights is a new state, scanned afresh to the same figures
    copy = GhzDiagonalState(state.n, state.lambda_plus, state.lambda_minus)
    assert np.array_equal(partition_thresholds(copy), thresholds)
    assert full_entanglement_threshold(copy) == overall
    assert len(calls) == 2


def test_per_cut_calls_scan_a_state_once(monkeypatch):
    calls = _count_scans(monkeypatch)
    state = random_state(8, 3)
    for p in enumerate_bipartitions(state.n):
        is_ppt(state, p)
        is_ppt(state, p, tol=0.0)
        noise_threshold(state, p)
    assert len(calls) == 1
    fresh = GhzDiagonalState(state.n, state.lambda_plus, state.lambda_minus)
    noise_threshold(fresh, enumerate_bipartitions(fresh.n)[-1])
    assert len(calls) == 2


def test_kept_minima_are_read_only():
    state = random_state(6, 2)
    report = classify(state)
    for column in (report.values, report.classes, report.codes, *partition_minima(state)):
        with pytest.raises(ValueError):
            column[0] = 0
    assert classify(state).values[0] == report.values[0]


def test_tol_is_applied_on_every_call(monkeypatch):
    calls = _count_scans(monkeypatch)
    state = random_state(4, 5)
    strict, loose = classify(state), classify(state, tol=0.5)
    assert len(calls) == 1
    assert strict.full_entangled and not loose.full_entangled
    assert np.array_equal(loose.ppt, strict.values >= -0.5)
    assert np.array_equal(classify(state).ppt, strict.ppt)
