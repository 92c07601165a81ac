"""The fully-entangled-fraction witness of two-qubit states.

The witness statistic is score = Tr sqrt(T^T T) - 1 = (sum of singular values
of the correlation matrix T_mn = tr(rho sigma_m x sigma_n)) - 1; a strictly
positive score certifies entanglement of the two-qubit state.  The score is
exposed alongside fef_w = max(0, score)/2 because closed-form analyses work at
the score level.  fef_witness (T from one einsum, _t_matrix) and
scores_from_submatrices (T of a stack, _correlations) take the SVD of T.
bounded_detections settles most blocks of a stack from invariants of T (bounds
on sigma^2 from |T|_F^2 and e2 of T^T T, compared squared, never through
sqrt(e2), with a rounding slack), so the enumeration oracle takes the SVD only
of the blocks it leaves open.  The sweeps compute no score: for pure-plus-noise
blocks, pure_noise_detected decides detection from |det M| against the noise
floor, with no SVD.
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

# T_mn = Re tr(rho PAULI_KRON[m, n]) = sum_ij Re(rho_ij PAULI_KRON[m, n, j, i]).
# Each PAULI_KRON[m, n] has four nonzero entries, all +-1 or all +-i, so T_mn sums
# four terms, each +-Re or +-Im of one entry of rho.  With rho viewed as 32 floats
# (Re rho_ij, Im rho_ij in row-major order), _T_COEF[k, 3m + n] is float k's
# coefficient, _T_TERMS (4, 9) the positions of the nonzero ones in ascending
# order and _T_SIGNS their values.  Summing the terms in that order repeats, bit
# for bit, the einsum "nij,abji->nab" over PAULI_KRON, and each row's T depends
# on that row alone; a BLAS matmul against _T_COEF rounds by batch size.
_T_COEF = np.stack([PAULI_KRON.real, -PAULI_KRON.imag], axis=-1).transpose(3, 2, 4, 0, 1)
_T_COEF = _T_COEF.reshape(32, 9)
_T_TERMS = np.argsort(_T_COEF == 0, axis=0, kind="stable")[:4]
_T_SIGNS = np.take_along_axis(_T_COEF, _T_TERMS, axis=0)


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


def _t_matrix(mat: np.ndarray) -> np.ndarray:
    """T_mn = tr(rho sigma_m x sigma_n) of one 4x4 matrix."""
    return np.einsum("ij,mnji->mn", mat, PAULI_KRON).real


def score_from_t(t: np.ndarray) -> float:
    """Witness score from a correlation matrix: sum of singular values minus 1."""
    return float(np.linalg.svd(t, compute_uv=False).sum() - 1.0)


def outcome_from_score(score: float, selection: LevelSelection | None = None,
                       strategy: LutKind | None = None) -> WitnessOutcome:
    return WitnessOutcome(score=score, fef_w=max(0.0, score) / 2.0,
                          detected=score > WITNESS_TOL, selection=selection, strategy=strategy)


def fef_witness(rho2, selection: LevelSelection | None = None,
                strategy: LutKind | None = None) -> WitnessOutcome:
    """Evaluate the fully-entangled-fraction witness on a two-qubit state.

    T comes from _t_matrix, not from _correlations, so this scalar path stays
    an independent check of the vectorised T.
    """
    return outcome_from_score(score_from_t(_t_matrix(_as_matrix(rho2))), selection, strategy)


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


def _correlations(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Correlation matrices T (n, 3, 3) of a stack of unnormalised 4x4 blocks,
    their weights (traces), and the mask of weights above ZERO_PROB_TOL.  Blocks
    below it are divided by 1 instead of their weight."""
    weight = np.trace(blocks, axis1=1, axis2=2).real
    ok = weight > ZERO_PROB_TOL
    safe = np.where(ok, weight, 1.0)
    flat = np.ascontiguousarray(blocks, dtype=complex).reshape(len(blocks), 16).view(float)
    t = flat[:, _T_TERMS[0]] * _T_SIGNS[0]
    for k in range(1, 4):
        t += flat[:, _T_TERMS[k]] * _T_SIGNS[k]
    t /= safe[:, None]
    return t.reshape(-1, 3, 3), weight, ok


def scores_from_submatrices(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Witness scores and weights of a stack of unnormalised (possibly mixed) 4x4
    blocks, by SVD.  Blocks of weight below ZERO_PROB_TOL get score -1 (no
    correlations), so they never count as detections."""
    t, weight, ok = _correlations(blocks)
    scores = np.linalg.svd(t, compute_uv=False).sum(axis=1) - 1.0
    return np.where(ok, scores, -1.0), weight


def bounded_detections(blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Detection flags of a stack of 4x4 blocks from invariants of T, and the
    rows the invariants leave open: (hit, open_rows).

    Off open_rows, hit equals scores_from_submatrices(blocks)[0] > WITNESS_TOL;
    on open_rows it is False, and the caller decides those rows by the SVD.

    With s_i the singular values of T and sigma = s_1 + s_2 + s_3, the score is
    sigma - 1 and sigma^2 = e1 + 2 tau, where e1 = |T|_F^2 and tau is the sum of
    the pairwise products s_i s_j.  e2 = sum_{i<j} s_i^2 s_j^2 is
    ((tr G)^2 - |G|_F^2) / 2 with G = T^T T and tr G = e1, and e2 <= tau^2 <= 3 e2
    (tau^2 = e2 + 2 s_1 s_2 s_3 sigma, and Cauchy-Schwarz over three terms).
    With gap = (1 + WITNESS_TOL)^2 - e1, a block is detected iff 2 tau > gap, so
    4 e2 > gap |gap| settles a hit, and gap > 0 with 12 e2 < gap^2 a miss.

    The bounds are compared squared.  sqrt(e2) would magnify e2's rounding: a
    rank-1 product block has sigma = 1 and e2 = 0, but e2 rounds to about
    1e-16, and its sqrt of 1e-8 would flag the block.

    Slack: e1, a sum of nine squares, rounds within about 10 eps e1; e2, a
    difference of terms of size e1^2, within about 10 eps e1^2.  The bounds
    take s1 = 64 eps (1 + e1) off e1 in the direction that weakens them, and
    s2 = 64 eps (1 + e1)^2 off e2.  Half of s1 covers e1's rounding, so a
    settled block's exact sigma^2 lies at least s1/2 from the threshold; that
    margin exceeds the SVD's rounding of sigma^2 (a few eps e1), so the SVD
    reaches the same flag.  T comes from the same helper as in
    scores_from_submatrices, so both see the same T.  Blocks of weight below
    ZERO_PROB_TOL are settled misses, as their score is -1.
    """
    t, _, ok = _correlations(blocks)
    e1 = (t * t).sum(axis=(1, 2))
    g = np.einsum("nki,nkj->nij", t, t)
    e2 = (e1 * e1 - (g * g).sum(axis=(1, 2))) / 2
    eps = np.finfo(float).eps
    s1 = 64 * eps * (1.0 + e1)
    s2 = s1 * (1.0 + e1)
    target = (1.0 + WITNESS_TOL) ** 2
    gap_hit = target - (e1 - s1)
    gap_miss = target - (e1 + s1)
    hit = ok & (4 * (e2 - s2) > gap_hit * np.abs(gap_hit))
    miss = ~ok | ((gap_miss > 0) & (12 * (e2 + s2) < gap_miss ** 2))
    return hit, ~(hit | miss)
