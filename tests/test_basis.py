import json

import numpy as np
import pytest

from ghz_reference import (
    INV_SQRT2,
    SparseStateVector,
    enumerate_canonical_betas,
    ghz_vector,
    mask_from_qubits,
    phi_vector,
    xor,
)
from ghzent.cli import main
from ghzent.subsets import Bipartition, SubsetMask, enumerate_bipartitions


def amplitude(vec: SparseStateVector, idx: int) -> float:
    return dict(vec.entries).get(idx, 0.0)


def inner_product(a: SparseStateVector, b: SparseStateVector) -> float:
    """Real inner product <a|b> over the shared support."""
    if a.n != b.n:
        raise ValueError(f"mixed qubit counts {a.n} and {b.n}")
    amps = dict(b.entries)
    return sum(amp * amps[idx] for idx, amp in a.entries if idx in amps)


def test_vector_support_and_amplitudes():
    beta = SubsetMask(0b011, 3)
    plus = ghz_vector(beta, +1)
    minus = ghz_vector(beta, -1)
    assert plus.support == (3, 4)
    assert minus.support == (3, 4)
    # plus sign sits on the smaller index, the label sign on the larger
    assert amplitude(plus, 3) == pytest.approx(INV_SQRT2, abs=1e-15)
    assert amplitude(plus, 4) == pytest.approx(INV_SQRT2, abs=1e-15)
    assert amplitude(minus, 3) == pytest.approx(INV_SQRT2, abs=1e-15)
    assert amplitude(minus, 4) == pytest.approx(-INV_SQRT2, abs=1e-15)
    assert amplitude(plus, 0) == 0.0


def test_vector_is_normalized():
    for n in range(2, 9):
        for beta in enumerate_canonical_betas(n):
            for sign in (+1, -1):
                dense = ghz_vector(beta, sign).to_dense()
                assert abs(np.dot(dense, dense) - 1.0) < 1e-14


def test_complement_class_gives_same_vector():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(2, 10))
        beta = SubsetMask(int(rng.integers(0, 1 << n)), n)
        for sign in (+1, -1):
            a = ghz_vector(beta, sign)
            b = ghz_vector(beta.complement(), sign)
            assert a.entries == b.entries


def test_basis_orthonormality_small():
    for n in range(2, 6):
        vectors = []
        for beta in enumerate_canonical_betas(n):
            vectors.append(ghz_vector(beta, +1))
            vectors.append(ghz_vector(beta, -1))
        assert len(vectors) == 1 << n
        gram = np.array([[inner_product(a, b) for b in vectors] for a in vectors])
        assert np.max(np.abs(gram - np.eye(1 << n))) < 1e-14


def test_partner_vector_is_relabeled_basis_vector():
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(2, 10))
        parts = enumerate_bipartitions(n)
        partition = parts[int(rng.integers(0, len(parts)))]
        beta = SubsetMask(int(rng.integers(0, 1 << (n - 1))), n)
        for sign in (+1, -1):
            phi = phi_vector(beta, sign, partition)
            psi = ghz_vector(xor(beta, partition.alpha2), sign)
            assert phi.entries == psi.entries


def test_partner_projector_matches_exactly():
    partition = Bipartition(mask_from_qubits([1, 3], 3))
    for k in range(4):
        beta = SubsetMask(k, 3)
        for sign in (+1, -1):
            phi = phi_vector(beta, sign, partition)
            psi = ghz_vector(xor(beta, partition.alpha2), sign)
            assert np.array_equal(phi.outer(), psi.outer())


def test_outer_is_rank_one_projector():
    v = ghz_vector(SubsetMask(0b010, 3), -1)
    proj = v.outer()
    assert np.allclose(proj @ proj, proj, atol=1e-15)
    assert abs(np.trace(proj) - 1.0) < 1e-14
    assert np.array_equal(proj, proj.T)


def test_invalid_sign_rejected():
    beta = SubsetMask(0, 2)
    with pytest.raises(ValueError):
        ghz_vector(beta, 0)
    with pytest.raises(ValueError):
        ghz_vector(beta, 2)


def test_sparse_vector_validation():
    with pytest.raises(ValueError):
        SparseStateVector(2, ((0, 1.0), (0, 0.5)))  # duplicate index
    with pytest.raises(ValueError):
        SparseStateVector(2, ((3, 1.0), (1, 0.5)))  # not increasing
    with pytest.raises(ValueError):
        SparseStateVector(2, ((0, 1.0), (4, 0.5)))  # out of range
    with pytest.raises(ValueError):
        SparseStateVector(2, ((0, 1.0), (1, 1.0)))  # not normalized


def test_inner_product_mismatched_sizes():
    a = ghz_vector(SubsetMask(0, 2), +1)
    b = ghz_vector(SubsetMask(0, 3), +1)
    with pytest.raises(ValueError):
        inner_product(a, b)


def _reference_basis_rows(n: int) -> list[dict]:
    return [
        {
            "beta": beta.bit_string(),
            "sign": label,
            "support": list(vec.support),
            "amplitudes": [amp for _, amp in vec.entries],
        }
        for beta in enumerate_canonical_betas(n)
        for sign, label in ((+1, "+"), (-1, "-"))
        for vec in (ghz_vector(beta, sign),)
    ]


@pytest.mark.parametrize("n", range(2, 9))
def test_basis_command_prints_the_reference_vectors(capsys, n):
    rows = _reference_basis_rows(n)
    assert main(["basis", "--n", str(n), "--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(rows, indent=2) + "\n"
    assert main(["basis", "--n", str(n)]) == 0
    lines = [
        f"  {r['beta']}  {r['sign']}  support={r['support']}  "
        f"amps=[{', '.join(f'{a:+.9f}' for a in r['amplitudes'])}]"
        for r in rows
    ]
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
