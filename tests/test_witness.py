import numpy as np
from numpy.testing import assert_allclose

from quditwitness import (WITNESS_TOL, ZERO_PROB_TOL, fef_witness, haar_unitary, is_npt,
                          substream)
from quditwitness.witness import (PAULI, PAULI_KRON, _correlations, _t_matrix, pure_noise_detected,
                                  scores_from_submatrices, score_from_t)
from conftest import random_density, two_qubit

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
PSI_MINUS = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def test_decompose_maximally_mixed():
    assert_allclose(_t_matrix(np.eye(4) / 4), 0, atol=1e-14)


def test_decompose_bell():
    assert_allclose(_t_matrix(np.outer(BELL, BELL)), np.diag([1.0, -1.0, 1.0]), atol=1e-12)


def test_decompose_product_zero_state():
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0
    assert_allclose(_t_matrix(mat), np.diag([0.0, 0.0, 1.0]), atol=1e-12)


def test_fef_bell():
    out = fef_witness(two_qubit(np.outer(BELL, BELL)))
    assert abs(out.score - 2.0) <= 1e-12
    assert abs(out.fef_w - 1.0) <= 1e-12
    assert out.detected


def test_fef_product_state_not_detected():
    mat = np.zeros((4, 4), dtype=complex)
    mat[0, 0] = 1.0
    out = fef_witness(two_qubit(mat))
    assert abs(out.score) <= 1e-12
    assert out.fef_w == 0.0
    assert not out.detected


def test_fef_werner():
    rho = 0.6 * np.outer(PSI_MINUS, PSI_MINUS.conj()) + 0.4 * np.eye(4) / 4
    out = fef_witness(two_qubit(rho))
    assert abs(out.score - 0.8) <= 1e-12
    assert out.detected


def test_soundness_against_ppt_oracle(rng):
    # a detection must imply NPT: zero false positives over random mixed states
    false_positives = 0
    for _ in range(10_000):
        rho = random_density(rng, 2, 2)
        if fef_witness(rho).detected and not is_npt(rho):
            false_positives += 1
    assert false_positives == 0


def test_local_unitary_invariance(rng):
    for _ in range(20):
        rho = random_density(rng, 2, 2)
        u = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
        rotated = two_qubit(u @ rho.mat @ u.conj().T)
        assert abs(fef_witness(rotated).score - fef_witness(rho).score) <= 1e-9


def test_pure_schmidt_state_scores():
    # cos(t)|00> + sin(t)|11>: singular values (sin 2t, sin 2t, 1), score 2 sin 2t
    for theta in np.linspace(0.05, np.pi / 2 - 0.05, 15):
        psi = np.array([np.cos(theta), 0, 0, np.sin(theta)], dtype=complex)
        sv = np.sort(np.linalg.svd(_t_matrix(np.outer(psi, psi.conj())), compute_uv=False))
        expect = np.sort([np.sin(2 * theta), np.sin(2 * theta), 1.0])
        assert_allclose(sv, expect, atol=1e-10)
        assert abs(fef_witness(two_qubit(np.outer(psi, psi.conj()))).score
                   - 2 * np.sin(2 * theta)) <= 1e-10


def _det(m):
    return np.abs(m[:, 0] * m[:, 3] - m[:, 1] * m[:, 2])


def _margin_and_weight(m, v, total_dim):
    # score = 4 margin / weight for the block v m m^dag + (1-v)/D I
    noise = (1 - v) / total_dim
    return v * _det(m) - noise, v * np.einsum("ni,ni->n", m.conj(), m).real + 4 * noise


def test_batch_amplitude_kernel_matches_scalar(rng):
    d, n = 4, 64
    total = d * d
    amps = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    vis = rng.uniform(0, 1, n)
    flags = pure_noise_detected(_det(amps), vis, total)
    margin, weights = _margin_and_weight(amps, vis, total)
    for i in range(n):
        block = vis[i] * np.outer(amps[i], amps[i].conj()) + (1 - vis[i]) / total * np.eye(4)
        t = block.trace().real
        scalar = fef_witness(two_qubit(block / t))
        assert flags[i] == scalar.detected
        assert abs(4 * margin[i] / weights[i] - scalar.score) <= 1e-12
        assert abs(weights[i] - t) <= 1e-12
    assert 0 < flags.sum() < n


def test_batch_submatrix_kernel_matches_scalar(rng):
    blocks = []
    for _ in range(32):
        rho = random_density(rng, 2, 2)
        blocks.append(rho.mat * rng.uniform(0.1, 1.0))
    blocks = np.array(blocks)
    scores, weights = scores_from_submatrices(blocks)
    for i, block in enumerate(blocks):
        t = block.trace().real
        assert abs(scores[i] - fef_witness(two_qubit(block / t)).score) <= 1e-12
        assert abs(weights[i] - t) <= 1e-12


def test_correlations_equal_the_pauli_einsum_bit_for_bit(rng):
    # the einsum over PAULI_KRON is the reference for the four-term sums; a row's
    # T must not depend on the stack it sits in (the oracle re-scores open rows)
    for n in (1, 2, 3, 7, 64, 1000):
        g = rng.standard_normal((n, 4, 4)) + 1j * rng.standard_normal((n, 4, 4))
        blocks = (g @ g.conj().transpose(0, 2, 1)) * rng.choice([1.0, 1e-10, 1e5], size=(n, 1, 1))
        t, weight, ok = _correlations(blocks)
        ref = np.einsum("nij,abji->nab", blocks, PAULI_KRON).real / weight[:, None, None]
        assert ok.all()
        assert np.array_equal(t, ref)
        rows = rng.permutation(n)[: (n + 1) // 2]
        assert np.array_equal(_correlations(blocks[rows])[0], t[rows])


def test_zero_weight_amplitudes_never_detect():
    # weight 0, and weight 2e-16 < ZERO_PROB_TOL, where the SVD path scores -1
    amps = np.array([np.zeros(4), 1e-8 * BELL])
    for total_dim in (4, 9):
        assert not pure_noise_detected(_det(amps), np.ones(2), total_dim).any()
        _, weights = _margin_and_weight(amps, np.ones(2), total_dim)
        assert weights.max() < ZERO_PROB_TOL


def _pure_plus_noise_blocks(m, v, total_dim):
    noise = (1 - v) / total_dim
    return (v[:, None, None] * np.einsum("ni,nj->nij", m, m.conj())
            + noise[:, None, None] * np.eye(4))


def test_closed_form_scores_match_svd_reference():
    # the detection rule against the SVD score on the same 4x4 blocks
    # v m m^dag + (1-v)/D I, at several D, plus edge rows; score = 4 margin / weight
    rng = substream(2025, 3)
    n = 100_000
    m = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
    m *= rng.uniform(0, 1, n)[:, None] / np.linalg.norm(m, axis=1, keepdims=True)
    v = rng.uniform(0, 1, n)
    bell = np.array([1, 0, 0, 1]) / np.sqrt(2)
    product = np.kron([0.6, 0.8j], [1, -1] / np.sqrt(2))
    edges = [
        (np.zeros(4), 0.7),          # all-zero m
        (0.9 * product, 0.95),       # product m, det 0
        (product, 1.0),              # pure product reduction, score 0
        (bell, 0.5),                 # maximally entangled m
        (bell, 1.0),                 # v = 1
        (m[0], 0.0),                 # v = 0
        (m[1], 1.0),                 # v = 1
        (1e-8 * bell, 1.0),          # weight 2e-16 < ZERO_PROB_TOL
    ]
    m = np.vstack([m, [e[0] for e in edges]]).astype(complex)
    v = np.concatenate([v, [e[1] for e in edges]])
    for total_dim in (4, 9, 25, 81):
        flags = pure_noise_detected(_det(m), v, total_dim)
        ref, ref_weights = scores_from_submatrices(_pure_plus_noise_blocks(m, v, total_dim))
        margin, weights = _margin_and_weight(m, v, total_dim)
        ok = weights > ZERO_PROB_TOL
        assert np.abs(4 * margin[ok] / weights[ok] - ref[ok]).max() <= 1e-12
        assert np.abs(weights - ref_weights).max() <= 1e-12
        assert np.array_equal(flags, ref > WITNESS_TOL)  # a subset in general; equal here
        assert not flags[-1] and ref[-1] == -1.0 and weights[-1] < ZERO_PROB_TOL
        assert not flags[n + 2] and flags[n + 3] and flags[n + 4]
    assert abs(ref[n + 4] - 2.0) <= 1e-12


def test_score_from_t_matches_pauli_expectation(rng):
    for _ in range(10):
        rho = random_density(rng, 2, 2)
        t = np.array([[np.trace(rho.mat @ np.kron(PAULI[m], PAULI[n])).real
                       for n in range(3)] for m in range(3)])
        assert abs(score_from_t(t) - fef_witness(rho).score) <= 1e-12
