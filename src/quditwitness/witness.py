"""Pauli decomposition of two-qubit states and the fully-entangled-fraction witness.

The witness statistic is score = Tr sqrt(T^T T) - 1 = (sum of singular values
of the correlation matrix T) - 1; a strictly positive score certifies
entanglement of the two-qubit state.  The score is exposed alongside
fef_w = max(0, score)/2 because closed-form analyses work at the score level.
fef_witness and scores_from_submatrices take the SVD of T.  The sweeps compute
no score: for pure-plus-noise blocks, pure_noise_detected decides detection
from |det M| against the noise floor, with no SVD.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import WITNESS_TOL, ZERO_PROB_TOL
from .states import DensityMatrix
from .transforms import LevelSelection, LutKind

PAULI = np.array([
    [[0, 1], [1, 0]],
    [[0, -1j], [1j, 0]],
    [[1, 0], [0, -1]],
], dtype=complex)

# PAULI_KRON[m, n] = sigma_m (x) sigma_n
PAULI_KRON = np.einsum("mij,nkl->mnikjl", PAULI, PAULI).reshape(3, 3, 4, 4)


@dataclass(frozen=True)
class PauliDecomposition:
    """Bloch vectors and correlation matrix of a two-qubit state."""

    a_vec: np.ndarray
    b_vec: np.ndarray
    t_matrix: np.ndarray

    def reconstruct(self) -> np.ndarray:
        """Rebuild the 4x4 density matrix from the decomposition."""
        rho = np.eye(4, dtype=complex)
        for m in range(3):
            rho += self.a_vec[m] * np.kron(PAULI[m], np.eye(2))
            rho += self.b_vec[m] * np.kron(np.eye(2), PAULI[m])
            for n in range(3):
                rho += self.t_matrix[m, n] * PAULI_KRON[m, n]
        return rho / 4.0


@dataclass(frozen=True)
class WitnessOutcome:
    """Result of one witness evaluation.

    detected <=> score > WITNESS_TOL; fef_w = max(0, score)/2.  selection and
    strategy identify the trial that produced the reduction, when known.
    """

    score: float
    fef_w: float
    detected: bool
    selection: LevelSelection | None = None
    strategy: LutKind | None = None


def _as_matrix(rho2) -> np.ndarray:
    mat = rho2.mat if isinstance(rho2, DensityMatrix) else np.asarray(rho2)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a two-qubit (4x4) state, got shape {mat.shape}")
    return mat


def pauli_decompose(rho2) -> PauliDecomposition:
    """Coefficients a_m, b_n, T_mn of the two-qubit Pauli expansion."""
    mat = _as_matrix(rho2)
    a = np.array([np.trace(mat @ np.kron(PAULI[m], np.eye(2))).real for m in range(3)])
    b = np.array([np.trace(mat @ np.kron(np.eye(2), PAULI[n])).real for n in range(3)])
    t = np.einsum("ij,mnji->mn", mat, PAULI_KRON).real
    return PauliDecomposition(a, b, t)


def score_from_t(t: np.ndarray) -> float:
    """Witness score from a correlation matrix: sum of singular values minus 1."""
    return float(np.linalg.svd(t, compute_uv=False).sum() - 1.0)


def outcome_from_score(score: float, selection: LevelSelection | None = None,
                       strategy: LutKind | None = None) -> WitnessOutcome:
    return WitnessOutcome(score=score, fef_w=max(0.0, score) / 2.0,
                          detected=score > WITNESS_TOL, selection=selection, strategy=strategy)


def fef_witness(rho2, selection: LevelSelection | None = None,
                strategy: LutKind | None = None) -> WitnessOutcome:
    """Evaluate the fully-entangled-fraction witness on a two-qubit state."""
    return outcome_from_score(score_from_t(pauli_decompose(rho2).t_matrix), selection, strategy)


def pure_noise_detected(det: np.ndarray, visibility, total_dim: int) -> np.ndarray:
    """Detection flags of pure-plus-noise blocks v|m><m| + (1-v)/D I from det = |det M|.

    M = [[m0, m1], [m2, m3]] holds the selected amplitudes (a0b0, a0b1, a1b0,
    a1b1) of the pure part, N = |m|^2 and D = total_dim.  T has singular values
    (v/W) N {1, C, C}, with weight W = vN + 4(1-v)/D and concurrence
    C = 2|det M|/N (Wootters, PRL 80, 2245 (1998)), so score = 4 margin/W with
    margin = v|det M| - (1-v)/D.  Detection is margin > WITNESS_TOL/4: W <= 1
    (N <= 1, D >= 4), so it implies score > WITNESS_TOL; and v|det M| <= vN/2
    <= W/2, so no zero-weight block is flagged.  The rule is monotone in det,
    so a detection on any of several level pairs is the rule at their max det.
    """
    v = np.asarray(visibility, dtype=float)
    return v * det - (1.0 - v) / total_dim > WITNESS_TOL / 4


def scores_from_submatrices(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Witness scores and weights of a stack of unnormalised (possibly mixed) 4x4
    blocks, by SVD.  Blocks of weight below ZERO_PROB_TOL get score -1 (no
    correlations), so they never count as detections."""
    weight = np.trace(blocks, axis1=1, axis2=2).real
    ok = weight > ZERO_PROB_TOL
    safe = np.where(ok, weight, 1.0)
    t = np.einsum("nij,abji->nab", blocks, PAULI_KRON).real / safe[:, None, None]
    scores = np.linalg.svd(t, compute_uv=False).sum(axis=1) - 1.0
    return np.where(ok, scores, -1.0), weight
