"""Two-copy collective extraction of the correlation matrix R with 10 settings.

Two copies of a two-qubit state are arranged as (a, b, a', b'); the (b, b')
pair is projected onto the singlet observable S = 1 - 4 |Psi-><Psi-| while
(a, a') sees either Pauli operators or the minimal tetrahedral basis.  As the
copies are identical, pi_ij = pi_ji, so the minimal-basis route needs only
SETTINGS = 10 settings, for any qudit dimension.  The resulting R equals T T^T;
the witness uses only its eigenvalues, which match those of T^T T.  Both routes
take every moment from one einsum over the two copies (_two_copy_moments), with
no 16x16 operator built, and stay separate computations.
"""
from __future__ import annotations

import numpy as np

from .witness import PAULI, WitnessOutcome, _as_matrix, outcome_from_score

# pi = (1/4) M G M^T, with G the (1, sigma) x (1, sigma) two-copy correlation
# block; inverting the congruence therefore carries a factor 4.
CALIBRATION = 4.0

# Read-only: the unit tetrahedral Bloch vectors b_i (even sign products), the projectors
# (1 + b_i . sigma)/2, and M, whose rows (1, b_i) give pi = (1/4) M G M^T exactly.
BLOCH = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3.0)
PROJECTORS = (np.eye(2) + sum(BLOCH[:, k, None, None] * PAULI[k] for k in range(3))) / 2.0
TRANSFORM = np.hstack([np.ones((4, 1)), BLOCH])
for _const in (BLOCH, PROJECTORS, TRANSFORM):
    _const.setflags(write=False)
SETTINGS = len(np.triu_indices(4)[0])  # the independent moments pi_ij, i <= j


def singlet_projector_op() -> np.ndarray:
    """S = 1 - 4 |Psi-><Psi-|; Hermitian with eigenvalues {1, 1, 1, -3}."""
    psi_minus = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2.0)
    return np.eye(4, dtype=complex) - 4.0 * np.outer(psi_minus, psi_minus.conj())


def _two_copy_moments(rho2, ops: np.ndarray) -> np.ndarray:
    """m_ij = Tr[rho x rho . S_bb' (ops[i] x ops[j])_aa'] in the (a, b, a', b') order.

    One einsum over the tensor rho_{ab,ce} rho_{a'b',c'e'} of the two copies,
    with S = sum_k sigma_k x sigma_k, the Pauli expansion of the singlet
    observable.
    """
    m = _as_matrix(rho2).reshape(2, 2, 2, 2)
    return np.einsum("abce,pqsu,ica,jsp,keb,kuq->ij", m, m, ops, ops, PAULI, PAULI).real


def collective_R_pauli(rho2) -> np.ndarray:
    """R_ij from two-copy expectations with Pauli settings on (a, a')."""
    return _two_copy_moments(rho2, PAULI)


def pi_matrix(rho2) -> np.ndarray:
    """The (4, 4) two-copy moments of the minimal-basis settings: the SETTINGS
    moments i <= j, mirrored so that pi is exactly symmetric."""
    moments = _two_copy_moments(rho2, PROJECTORS)
    i, j = np.triu_indices(4)
    pi = np.empty((4, 4))
    pi[i, j] = pi[j, i] = moments[i, j]
    return pi


def collective_R_minimal(rho2) -> np.ndarray:
    """R recovered from the minimal-basis moments via the congruence inverse.

    The identity component sits in row/column 0 of the recovered block; R is
    its lower-right 3x3 part.
    """
    m_inv = np.linalg.inv(TRANSFORM)
    g = CALIBRATION * m_inv @ pi_matrix(rho2) @ m_inv.T
    return g[1:, 1:]


def fef_from_collective(rho2) -> WitnessOutcome:
    """Witness outcome computed from the 10-setting collective R."""
    r = collective_R_minimal(rho2)
    eig = np.clip(np.linalg.eigvalsh(r), 0.0, None)
    return outcome_from_score(float(np.sqrt(eig).sum() - 1.0))
