"""Pauli decomposition of two-qubit states and the fully-entangled-fraction witness.

The witness statistic is score = Tr sqrt(T^T T) - 1 = (sum of singular values
of the correlation matrix T) - 1; a strictly positive score certifies
entanglement of the two-qubit state.  The score is exposed alongside
fef_w = max(0, score)/2 because closed-form analyses work at the score level.
fef_witness and scores_from_submatrices take the SVD of T; the sweep kernel
scores_from_amplitudes uses a closed form valid for pure-plus-noise blocks.
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


# Vectorised kernels.  Both return the raw scores together with the
# post-selection weights; entries whose weight falls below ZERO_PROB_TOL get
# score -1 (a correlation-free reduction) and are therefore never counted as
# detections.

def scores_from_amplitudes(amps: np.ndarray, visibility: np.ndarray, total_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Witness scores for reductions of pure-plus-noise states, in closed form.

    amps: (n, 4) complex amplitudes m of the pure component on the selected
    levels, ordered (a0b0, a0b1, a1b0, a1b1); visibility: (n,) mixing weights v;
    total_dim: dimension D of the full product space (sets the noise floor).
    The block v|m><m| + (1-v)/D I has T singular values (v/weight) N {1, C, C},
    with N = |m|^2, concurrence C = 2|det M|/N for M = [[m0, m1], [m2, m3]]
    (Wootters, PRL 80, 2245 (1998)) and weight = vN + 4(1-v)/D.  Hence
    score = v (N + 4|det M|)/weight - 1, with no SVD.
    """
    v = np.asarray(visibility, dtype=float)
    norm2 = np.einsum("ni,ni->n", amps.conj(), amps).real
    weight = v * norm2 + 4.0 * ((1.0 - v) / total_dim)
    ok = weight > ZERO_PROB_TOL
    det = np.abs(amps[:, 0] * amps[:, 3] - amps[:, 1] * amps[:, 2])
    scores = v * (norm2 + 4.0 * det) / np.where(ok, weight, 1.0) - 1.0
    return np.where(ok, scores, -1.0), weight


def scores_from_submatrices(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Witness scores for a stack of unnormalised (possibly mixed) 4x4 blocks, by SVD."""
    weight = np.trace(blocks, axis1=1, axis2=2).real
    ok = weight > ZERO_PROB_TOL
    safe = np.where(ok, weight, 1.0)
    t = np.einsum("nij,abji->nab", blocks, PAULI_KRON).real / safe[:, None, None]
    scores = np.linalg.svd(t, compute_uv=False).sum(axis=1) - 1.0
    return np.where(ok, scores, -1.0), weight
