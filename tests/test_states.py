import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from quditwitness import (DensityMatrix, IcpsParams, InvalidParamsError, InvalidStateError,
                          QuasiPureParams, apply_white_noise, is_npt, make_icps,
                          make_quasi_pure, maximally_mixed, random_product_mixture, substream)
from quditwitness.states import schmidt_vector


def test_icps_isotropic_case():
    # r = d with alpha = 1/sqrt(d) is the maximally-entangled-plus-noise state
    d, v = 3, 0.7
    rho = make_icps(IcpsParams(d, d, 1 / np.sqrt(d), v))
    phi = np.zeros(d * d, dtype=complex)
    phi[::d + 1] = 1 / np.sqrt(d)
    expect = v * np.outer(phi, phi.conj()) + (1 - v) / d ** 2 * np.eye(d * d)
    assert_allclose(rho.mat, expect, atol=1e-12)


def test_icps_zero_visibility_is_maximally_mixed():
    rho = make_icps(IcpsParams(4, 2, 0.6, 0.0))
    assert_allclose(rho.mat, np.eye(16) / 16, atol=1e-15)


def test_icps_pure_rank2_spectrum():
    rho = make_icps(IcpsParams(3, 2, 1 / np.sqrt(2), 1.0))
    eigs = np.linalg.eigvalsh(rho.mat)
    assert_allclose(eigs, [0] * 8 + [1], atol=1e-12)


def test_icps_schmidt_support():
    p = IcpsParams(5, 3, 0.4, 1.0)
    vec = schmidt_vector(p.schmidt_coefficients(), 5)
    assert_array_equal(make_icps(p).mat, np.outer(vec, vec.conj()))
    psi = vec.reshape(5, 5)
    off_diag = psi - np.diag(np.diag(psi))
    assert np.abs(off_diag).max() == 0.0
    assert np.abs(np.diag(psi)[p.r:]).max() == 0.0
    assert_allclose(np.diag(psi)[:p.r - 1].real, p.alpha)


def test_icps_invariants_and_validation(rng):
    for _ in range(20):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(2, d + 1))
        alpha = rng.uniform(0, 1 / np.sqrt(r - 1))
        p = IcpsParams(d, r, alpha, rng.uniform(0, 1))
        make_icps(p).validate()


def test_icps_params_rejects_bad_alpha():
    with pytest.raises(InvalidParamsError):
        IcpsParams(3, 3, 0.9, 0.5)  # above 1/sqrt(2)
    with pytest.raises(InvalidParamsError):
        IcpsParams(3, 2, -0.1, 0.5)
    with pytest.raises(InvalidParamsError):
        IcpsParams(3, 4, 0.3, 0.5)  # r > d
    with pytest.raises(InvalidParamsError):
        IcpsParams(3, 2, 0.3, 1.5)  # v out of range


def test_quasi_pure_purity():
    # Tr rho^2 = v^2 + (1 - v^2)/d^2 for a pure state mixed with white noise
    for d in (2, 3):
        for v in (0.0, 0.3, 0.8, 1.0):
            rho = make_quasi_pure(QuasiPureParams(d, v), substream(5, d, int(v * 10)))
            rho.validate()
            assert abs(np.vdot(rho.mat, rho.mat).real - (v ** 2 + (1 - v ** 2) / d ** 2)) <= 1e-10


def test_quasi_pure_examples():
    rho = make_quasi_pure(QuasiPureParams(3, 1.0), substream(1, 0))
    assert abs(np.vdot(rho.mat, rho.mat).real - 1.0) <= 1e-10
    rho = make_quasi_pure(QuasiPureParams(3, 0.0), substream(1, 1))
    assert abs(np.vdot(rho.mat, rho.mat).real - 1 / 9) <= 1e-10
    rho = make_quasi_pure(QuasiPureParams(3, 0.8), substream(1, 2))
    assert abs(np.vdot(rho.mat, rho.mat).real - 0.68) <= 1e-10


def test_white_noise_examples():
    bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    rho = DensityMatrix.from_pure(bell, 2, 2)
    assert_allclose(apply_white_noise(rho, 1.0).mat, rho.mat, atol=1e-15)
    assert_allclose(apply_white_noise(rho, 0.0).mat, np.eye(4) / 4, atol=1e-15)
    eigs = np.linalg.eigvalsh(apply_white_noise(rho, 0.5).mat)
    assert_allclose(np.sort(eigs), [0.125, 0.125, 0.125, 0.625], atol=1e-12)


def test_white_noise_composes_visibility():
    rho = make_icps(IcpsParams(3, 2, 0.5, 0.8))
    noisy = apply_white_noise(rho, 0.5)
    vec = schmidt_vector(IcpsParams(3, 2, 0.5, 0.4).schmidt_coefficients(), 3)
    assert_allclose(noisy.mat, 0.4 * np.outer(vec, vec.conj()) + 0.6 / 9 * np.eye(9), atol=1e-15)
    direct = make_icps(IcpsParams(3, 2, 0.5, 0.4))
    assert_allclose(noisy.mat, direct.mat, atol=1e-12)


def test_white_noise_dense_path(rng):
    from conftest import random_density
    rho = random_density(rng, 2, 2)
    noisy = apply_white_noise(rho, 0.3)
    assert_allclose(noisy.mat, 0.3 * rho.mat + 0.7 * np.eye(4) / 4, atol=1e-14)


def test_density_matrix_validation_messages():
    with pytest.raises(InvalidStateError, match="trace"):
        DensityMatrix.from_matrix(np.eye(4) * 0.9 / 4, 2, 2)
    with pytest.raises(InvalidStateError, match="Hermitian"):
        mat = np.eye(4) / 4
        mat = mat.astype(complex)
        mat[0, 1] = 0.1
        DensityMatrix.from_matrix(mat, 2, 2)
    with pytest.raises(InvalidStateError, match="positive"):
        DensityMatrix.from_matrix(np.diag([0.7, 0.5, -0.1, -0.1]).astype(complex), 2, 2)
    with pytest.raises(InvalidStateError, match="shape"):
        DensityMatrix(2, 2, np.eye(3, dtype=complex) / 3)
    with pytest.raises(InvalidStateError, match="dims must be positive"):
        DensityMatrix.from_matrix(np.ones((1, 1)), -1, -1)
    with pytest.raises(InvalidStateError, match="dims must be positive"):
        DensityMatrix.from_matrix(np.zeros((0, 0)), 0, 3)


def test_states_compare_and_hash_by_identity():
    a, b = maximally_mixed(2, 2), maximally_mixed(2, 2)
    assert a == a
    assert a != b  # equal matrices, distinct states
    assert len({a, b, a}) == 2


def test_schmidt_vector_layout():
    psi = schmidt_vector(np.array([0.6, 0.8]), 3)
    assert psi[0] == 0.6 and psi[4] == 0.8
    assert np.abs(np.delete(psi, [0, 4])).max() == 0.0


def test_maximally_mixed_and_product_mixture(rng):
    maximally_mixed(3, 3).validate()
    rho = random_product_mixture(3, 5, rng)
    rho.validate()
    assert not is_npt(rho)  # separable by construction
