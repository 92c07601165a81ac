import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditwitness import (BLOCH, PROJECTORS, SETTINGS, TRANSFORM, collective_R_minimal,
                          collective_R_pauli, fef_from_collective, fef_witness, pi_matrix,
                          singlet_projector_op)
from quditwitness.witness import PAULI, _t_matrix
from conftest import random_density, two_copy_moments_reference, two_qubit

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def test_singlet_projector_spectrum_and_action():
    s = singlet_projector_op()
    assert_allclose(s, s.conj().T, atol=1e-15)
    assert_allclose(np.sort(np.linalg.eigvalsh(s)), [-3, 1, 1, 1], atol=1e-12)
    assert abs(np.trace(s)) <= 1e-12
    triplet = np.array([1, 0, 0, 0], dtype=complex)
    assert abs(triplet.conj() @ s @ triplet - 1.0) <= 1e-12
    assert abs(PSI_MINUS.conj() @ s @ PSI_MINUS - (-3.0)) <= 1e-12


def test_singlet_projector_equals_pauli_sum():
    expect = sum(np.kron(PAULI[k], PAULI[k]) for k in range(3))
    assert_allclose(singlet_projector_op(), expect, atol=1e-14)


def test_minimal_basis_geometry():
    assert PROJECTORS.shape == (4, 2, 2) and BLOCH.shape == (4, 3)
    assert_allclose(sum(PROJECTORS), 2 * np.eye(2), atol=1e-14)
    for i in range(4):
        assert_allclose(np.linalg.norm(BLOCH[i]), 1.0, atol=1e-14)
        for j in range(i + 1, 4):
            overlap = np.trace(PROJECTORS[i] @ PROJECTORS[j]).real
            assert abs(overlap - 1 / 3) <= 1e-12
    # even sign products on every Bloch vector
    assert np.all(np.prod(np.sign(BLOCH), axis=1) > 0)


def test_transformation_matrix_rows():
    assert TRANSFORM.shape == (4, 4)
    assert_allclose(TRANSFORM[:, 0], 1.0)
    assert_allclose(np.abs(TRANSFORM[:, 1:]), 1 / np.sqrt(3))
    assert np.array_equal(TRANSFORM[:, 1:], BLOCH)  # the rows (1, b_i), from BLOCH itself


@pytest.mark.parametrize("const", [BLOCH, PROJECTORS, TRANSFORM],
                         ids=["BLOCH", "PROJECTORS", "TRANSFORM"])
def test_basis_constants_are_read_only(const):
    before = const.copy()
    with pytest.raises(ValueError, match="read-only"):
        const[0] = 0
    with pytest.raises(ValueError, match="read-only"):
        const *= 2
    assert np.array_equal(const, before)


def test_collective_r_examples():
    assert_allclose(collective_R_pauli(two_qubit(np.eye(4) / 4)), np.zeros((3, 3)), atol=1e-12)
    assert_allclose(collective_R_pauli(two_qubit(np.outer(BELL, BELL))), np.eye(3), atol=1e-12)
    werner = 0.6 * np.outer(PSI_MINUS, PSI_MINUS.conj()) + 0.4 * np.eye(4) / 4
    assert_allclose(collective_R_pauli(two_qubit(werner)), 0.36 * np.eye(3), atol=1e-12)
    assert_allclose(collective_R_minimal(two_qubit(np.eye(4) / 4)), np.zeros((3, 3)), atol=1e-12)
    assert_allclose(collective_R_minimal(two_qubit(np.outer(BELL, BELL))), np.eye(3), atol=1e-12)


def test_methods_agree_and_r_is_gram_of_t(rng):
    for _ in range(30):
        rho = random_density(rng, 2, 2)
        r_pauli = collective_R_pauli(rho)
        r_min = collective_R_minimal(rho)
        assert np.abs(r_min - r_pauli).max() <= 1e-10
        t = _t_matrix(rho.mat)
        assert np.abs(r_pauli - t @ t.T).max() <= 1e-10
        assert np.abs(r_pauli - r_pauli.T).max() <= 1e-10
        assert np.linalg.eigvalsh(r_pauli).min() >= -1e-10


def test_ten_settings_and_symmetry(rng):
    assert SETTINGS == 10
    pi = pi_matrix(random_density(rng, 2, 2))
    assert pi.shape == (4, 4)
    # the 10 upper-triangle moments determine all 16: pi is mirrored, so symmetric exactly
    assert np.array_equal(pi, pi.T)


def test_moments_match_explicit_kron_traces(rng):
    for _ in range(20):
        rho = random_density(rng, 2, 2)
        assert_allclose(collective_R_pauli(rho), two_copy_moments_reference(rho.mat, PAULI),
                        rtol=0, atol=1e-12)
        assert_allclose(pi_matrix(rho), two_copy_moments_reference(rho.mat, PROJECTORS),
                        rtol=0, atol=1e-12)


def test_fef_from_collective_examples():
    out = fef_from_collective(two_qubit(np.outer(BELL, BELL)))
    assert abs(out.score - 2.0) <= 1e-9
    product = np.zeros((4, 4), dtype=complex)
    product[0, 0] = 1.0
    assert not fef_from_collective(two_qubit(product)).detected
    werner = 0.6 * np.outer(PSI_MINUS, PSI_MINUS.conj()) + 0.4 * np.eye(4) / 4
    assert abs(fef_from_collective(two_qubit(werner)).score - 0.8) <= 1e-9


def test_fef_from_collective_matches_direct(rng):
    worst = 0.0
    for _ in range(200):
        rho = random_density(rng, 2, 2)
        worst = max(worst, abs(fef_from_collective(rho).score - fef_witness(rho).score))
    assert worst <= 1e-9


def test_trace_sqrt_r_equals_singular_value_sum(rng):
    for _ in range(100):
        rho = random_density(rng, 2, 2)
        r = collective_R_pauli(rho)
        tr_sqrt = np.sqrt(np.clip(np.linalg.eigvalsh(r), 0, None)).sum()
        sv_sum = np.linalg.svd(_t_matrix(rho.mat), compute_uv=False).sum()
        assert abs(tr_sqrt - sv_sum) <= 1e-9
