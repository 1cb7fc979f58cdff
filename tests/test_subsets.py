import numpy as np
import pytest

from ghz_reference import (
    canonical_beta,
    enumerate_canonical_betas,
    mask_from_qubits,
    qubits,
    reference_split_string,
    xor,
)
from ghzent import subsets
from ghzent.subsets import (
    MAX_QUBITS,
    Bipartition,
    SubsetMask,
    bipartition_bit_strings,
    bipartition_split_strings,
    bit_strings,
    enumerate_bipartitions,
    split_strings,
)


def l_of_beta(beta: SubsetMask) -> int:
    """Basis index of a subset: sum of 2^(n-m) over contained qubits m."""
    return sum(1 << (beta.n - m) for m in qubits(beta))


def test_mask_construction_bounds():
    SubsetMask(0, 1)
    SubsetMask((1 << MAX_QUBITS) - 1, MAX_QUBITS)
    with pytest.raises(ValueError):
        SubsetMask(0, 0)
    with pytest.raises(ValueError):
        SubsetMask(0, MAX_QUBITS + 1)
    with pytest.raises(ValueError):
        SubsetMask(-1, 3)
    with pytest.raises(ValueError):
        SubsetMask(8, 3)


def test_qubit_one_is_most_significant_bit():
    # qubit m maps to bit n - m, so qubit 1 owns the top bit
    m = mask_from_qubits([1], 3)
    assert m.bits == 4
    assert m.bit_string() == "100"
    m = mask_from_qubits([3], 3)
    assert m.bits == 1
    assert mask_from_qubits([1, 3], 3).bits == 5


def test_from_qubits_round_trip():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 13))
        chosen = sorted(
            int(q) for q in rng.choice(np.arange(1, n + 1), size=rng.integers(0, n + 1), replace=False)
        )
        m = mask_from_qubits(chosen, n)
        assert list(qubits(m)) == chosen
        for q in range(1, n + 1):
            assert m.contains(q) == (q in chosen)


def test_bit_string_round_trip():
    rng = np.random.default_rng(21)
    for _ in range(100):
        n = int(rng.integers(1, 16))
        bits = int(rng.integers(0, 1 << n))
        m = SubsetMask(bits, n)
        s = m.bit_string()
        assert len(s) == n
        assert int(s, 2) == bits


def test_complement_and_xor():
    rng = np.random.default_rng(31)
    for _ in range(200):
        n = int(rng.integers(1, 16))
        a = SubsetMask(int(rng.integers(0, 1 << n)), n)
        b = SubsetMask(int(rng.integers(0, 1 << n)), n)
        assert a.complement().complement() == a
        assert xor(a, a) == SubsetMask(0, n)
        assert xor(a, SubsetMask(0, n)) == a
        assert xor(a, b) == xor(b, a)
        assert xor(a, a.complement()) == SubsetMask((1 << n) - 1, n)
    with pytest.raises(ValueError):
        xor(SubsetMask(0, 2), SubsetMask(0, 3))


def test_empty_full_flags():
    e = SubsetMask(0, 4)
    f = SubsetMask(15, 4)
    assert e.is_empty and not e.is_full
    assert f.is_full and not f.is_empty
    assert e.complement() == f
    assert qubits(e) == () and qubits(f) == (1, 2, 3, 4)


def test_basis_index_is_mask_value():
    for n in range(1, 8):
        for bits in range(1 << n):
            assert l_of_beta(SubsetMask(bits, n)) == bits


def test_canonical_beta_excludes_qubit_one():
    rng = np.random.default_rng(41)
    for _ in range(200):
        n = int(rng.integers(2, 14))
        m = SubsetMask(int(rng.integers(0, 1 << n)), n)
        c = canonical_beta(m)
        assert not c.contains(1)
        assert c == m or c == m.complement()
        assert canonical_beta(c) == c


def test_enumerate_canonical_betas():
    for n in range(2, 9):
        betas = enumerate_canonical_betas(n)
        assert len(betas) == 1 << (n - 1)
        assert [b.bits for b in betas] == list(range(1 << (n - 1)))
        assert all(not b.contains(1) for b in betas)


def test_contains_rejects_qubits_outside_range():
    mask = SubsetMask(1, 3)
    assert mask.contains(3) and not mask.contains(1)
    for qubit in (0, 4):
        with pytest.raises(ValueError, match=f"qubit {qubit} out of range 1..3"):
            mask.contains(qubit)


def test_reprs():
    assert repr(SubsetMask(3, 3)) == "SubsetMask('011')"
    assert repr(Bipartition(SubsetMask(4, 3))) == "Bipartition('1|23')"


def test_bipartition_rejects_trivial_cuts():
    with pytest.raises(ValueError):
        Bipartition(SubsetMask(0, 3))
    with pytest.raises(ValueError):
        Bipartition(SubsetMask(7, 3))


def test_bipartition_canonicalizes_to_group_with_qubit_one():
    p = Bipartition(mask_from_qubits([2, 3], 3))
    assert p.alpha1 == mask_from_qubits([1], 3)
    assert p.alpha2 == mask_from_qubits([2, 3], 3)
    q = Bipartition(mask_from_qubits([1], 3))
    assert p == q
    assert xor(p.alpha1, p.alpha2).is_full


def test_split_string():
    assert Bipartition(mask_from_qubits([1], 3)).split_string() == "1|23"
    assert Bipartition(mask_from_qubits([1, 3], 3)).split_string() == "13|2"
    assert Bipartition(mask_from_qubits([1, 2], 3)).split_string() == "12|3"
    # double digit labels switch to comma separation
    s = Bipartition(mask_from_qubits([1, 10], 10)).split_string()
    assert s == "1,10|2,3,4,5,6,7,8,9"


@pytest.mark.parametrize("n", range(2, 17))
def test_split_string_matches_per_qubit_reference(n):
    partitions = enumerate_bipartitions(n)
    expected = [reference_split_string(p) for p in partitions]
    assert bipartition_split_strings(n) == expected
    # every cut up to 12 qubits; past that the one-mask-per-call method is sampled
    step = 1 if n <= 12 else len(partitions) // 256
    assert [p.split_string() for p in partitions[::step]] == expected[::step]


def test_split_strings_across_blocks(monkeypatch):
    # blocks of 5 masks: 127 cuts at n = 8 end in a partial block
    monkeypatch.setattr(subsets, "_SPLIT_BLOCK", 5)
    expected = [reference_split_string(p) for p in enumerate_bipartitions(8)]
    assert bipartition_split_strings(8) == expected
    assert split_strings([], 8) == []


@pytest.mark.parametrize("n", range(17, MAX_QUBITS + 1))
def test_split_strings_past_16_qubits(n):
    # the top bit, the top bit and the last qubit, all but the last, and 64 seeded masks
    top = 1 << (n - 1)
    masks = [top, top | 1, (1 << n) - 2]
    masks += (top | np.random.default_rng(n).integers(0, top - 1, size=64)).tolist()
    expected = [reference_split_string(Bipartition(SubsetMask(m, n))) for m in masks]
    assert split_strings(np.array(masks), n) == expected


def test_enumerate_bipartitions():
    for n in range(2, 10):
        parts = enumerate_bipartitions(n)
        assert len(parts) == (1 << (n - 1)) - 1
        assert len(set(parts)) == len(parts)
        for p in parts:
            assert p.alpha1.contains(1)
            assert not p.alpha1.is_full
    with pytest.raises(ValueError):
        enumerate_bipartitions(1)


def test_two_qubit_single_cut():
    parts = enumerate_bipartitions(2)
    assert len(parts) == 1
    assert parts[0].split_string() == "1|2"


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_bit_strings_match_format(n):
    if n <= 14:
        masks = np.arange(1 << n)
    else:
        # 0, 1, the top bit, all ones, and 64 seeded random masks
        edges = [0, 1, 1 << (n - 1), (1 << n) - 1]
        masks = np.concatenate([edges, np.random.default_rng(n).integers(0, 1 << n, size=64)])
    assert bit_strings(masks, n) == [format(m, f"0{n}b") for m in masks.tolist()]
    assert bit_strings(np.array([], dtype=np.int64), n) == []
    top = (1 << n) - 1
    assert bit_strings(np.array([0, top, 0]), n) == ["0" * n, "1" * n, "0" * n]


@pytest.mark.parametrize("n", range(2, 13))
def test_bipartition_bit_strings_follow_enumeration(n):
    assert bipartition_bit_strings(n) == [p.alpha1.bit_string() for p in enumerate_bipartitions(n)]
