"""Ground-truth oracles: PPT test, exact thresholds (visibility_thresholds, and
conditioning_threshold, the one function per conditioning rule), closed-form
scores and exhaustive selection enumeration, which evaluates one block per
unordered selection class and counts it for all four orders of its levels.

These routines are deliberately independent of the sampling pipeline so that
Monte Carlo results can be checked against them.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .constants import NPT_TOL, WITNESS_TOL
from .states import DensityMatrix, IcpsParams, InvalidParamsError, last_schmidt_coefficient
from .transforms import LevelSelection, LutStrategy, apply_lut, block_indices
from .witness import bounded_detections, scores_from_submatrices


class Scenario(Enum):
    """Reduction classes of a Schmidt-form state under a level selection.

    BOTH_IN_CORE: matched selection with both levels among the r-1 repeated
    Schmidt levels.  CORE_AND_EDGE: matched selection pairing one repeated
    level with the last Schmidt level r-1.  The VIOLATED classes are the
    non-matched (or out-of-support) selections, split by whether the A-side
    pair stays inside the repeated-level core.
    """

    BOTH_IN_CORE = "both_in_core"
    CORE_AND_EDGE = "core_and_edge"
    VIOLATED_CORE = "violated_core"
    VIOLATED_EDGE = "violated_edge"


class InvalidScenarioError(ValueError):
    """Raised when a closed form is requested for a non-detecting scenario."""


def partial_transpose(mat: np.ndarray, dim_a: int, dim_b: int) -> np.ndarray:
    """Partial transpose of a bipartite matrix over subsystem b."""
    t = np.asarray(mat).reshape(dim_a, dim_b, dim_a, dim_b)
    return t.transpose(0, 3, 2, 1).reshape(dim_a * dim_b, dim_a * dim_b)


def is_npt(rho: DensityMatrix) -> bool:
    """True iff the partial transpose has an eigenvalue below -NPT_TOL."""
    eig_min = np.linalg.eigvalsh(partial_transpose(rho.mat, rho.dim_a, rho.dim_b)).min()
    return bool(eig_min < -NPT_TOL)


def visibility_thresholds(d: int, r: int, alpha):
    """The two visibility thresholds (v_a, v_b) for a float or an array alpha.

    v_a = 1/(1 + d^2 alpha^2) is the boundary for matched core-core
    selections; v_b = 1/(1 + d^2 alpha alpha_r) for matched core-edge
    selections.  Every threshold in the package is derived from these two.
    A float alpha stays a float: Python's float ** 2 can differ from numpy's
    array square in the last bit, and the scalar API keeps the float result.
    """
    alpha_r = last_schmidt_coefficient(r, alpha)
    return 1.0 / (1.0 + d * d * alpha ** 2), 1.0 / (1.0 + d * d * alpha * alpha_r)


class IcpsGroundTruth(str, Enum):
    """Conditioning rule: which sampled Schmidt-form states count as entangled.

    NPT: the exact entanglement boundary.  RANK2: the rank-2 boundary
    min(v_a, v_b) at r = 2, applied at every rank; it also counts some PPT
    states (alpha > 1/sqrt(2) at r = 2, more for r >= 3).  RANK2 reproduces
    the reference sensitivity tables, so it is the sweeps' default.
    """

    NPT = "npt"
    RANK2 = "rank2"


def conditioning_threshold(d: int, r: int, alpha, rule: IcpsGroundTruth):
    """Threshold in v above which a state counts as entangled under rule.

    For a float or an array alpha.  NPT, the exact boundary, sets the noise
    floor (1-v)/d^2 against the largest product of two distinct Schmidt
    coefficients: min(v_a, v_b) for r >= 3, and v_b for r = 2, where only
    the core-edge pair exists.  RANK2 is min(v_a, v_b) at r = 2.
    """
    npt = IcpsGroundTruth(rule) is IcpsGroundTruth.NPT
    v_a, v_b = visibility_thresholds(d, r if npt else 2, alpha)
    return v_b if npt and r == 2 else np.minimum(v_a, v_b)


def classify_selection(sel: LevelSelection, r: int) -> Scenario:
    """Total classification of a selection for a rank-r Schmidt-form state; r < 2
    raises InvalidParamsError, and r <= d is the caller's check (brute_force_counts')."""
    if r < 2:
        raise InvalidParamsError(f"r must be >= 2, got r={r}")
    matched = (sel.a0, sel.a1) in ((sel.b0, sel.b1), (sel.b1, sel.b0))
    a_levels = {sel.a0, sel.a1}
    core = a_levels <= set(range(r - 1))
    edge_pair = (r - 1) in a_levels and len(a_levels & set(range(r - 1))) == 1
    if matched and core:
        return Scenario.BOTH_IN_CORE
    if matched and edge_pair:
        return Scenario.CORE_AND_EDGE
    return Scenario.VIOLATED_CORE if core else Scenario.VIOLATED_EDGE


def analytic_fef_score(p: IcpsParams, scenario: Scenario) -> float:
    """Closed-form witness score of the two detecting reduction classes.

    Normalisation note: these are scores (Tr sqrt(R) - 1), not the clipped and
    halved witness value; a pure maximally entangled reduction scores 2.
    Positivity is equivalent to v exceeding the matching threshold from
    visibility_thresholds.
    """
    d2 = p.d * p.d
    a2 = p.alpha ** 2
    v = p.v
    if scenario is Scenario.BOTH_IN_CORE:
        if p.r < 3:
            raise InvalidScenarioError("core-core selections require r >= 3")
        return 3.0 * d2 * v * a2 / (2.0 + v * (d2 * a2 - 2.0)) - 1.0
    if scenario is Scenario.CORE_AND_EDGE:
        num = d2 * v * (4.0 * p.alpha * p.alpha_r + 1.0 - (p.r - 2) * a2)
        den = 4.0 + v * ((d2 - 4.0) - (p.r - 2) * d2 * a2)
        return num / den - 1.0
    raise InvalidScenarioError(f"no closed form for scenario {scenario.value}: it never detects")


@lru_cache(maxsize=16)
def _selection_table(d: int) -> tuple[np.ndarray, np.ndarray]:
    """(m, 4) rows (a0, a1, b0, b1) of the m = d^2 (d-1)^2 / 4 unordered classes
    (a0 < a1, b0 < b1), lexicographic, and the (m, 16) positions of their 4x4
    blocks in the raveled d^2 x d^2 matrix.  Cached per d, so both are read-only."""
    pairs = np.stack(np.nonzero(np.triu(np.ones((d, d), dtype=bool), 1)), axis=1)
    m = len(pairs)
    table = np.concatenate([np.repeat(pairs, m, axis=0), np.tile(pairs, (m, 1))], axis=1)
    idx = block_indices(table, d)
    flat = (idx[:, :, None] * (d * d) + idx[:, None, :]).reshape(-1, 16)
    table.setflags(write=False)
    flat.setflags(write=False)
    return table, flat


@dataclass(frozen=True)
class BruteForceCounts:
    """Exhaustive enumeration result: detections per scenario class."""

    total: int
    detected: int
    by_scenario: dict | None = None

    @property
    def sensitivity(self) -> float:
        return self.detected / self.total


def brute_force_counts(rho: DensityMatrix, lut: LutStrategy,
                       r: int | None = None) -> BruteForceCounts:
    """Evaluate the witness on every selection class after the given unitary.

    A class is detected iff scores_from_submatrices scores its block above
    WITNESS_TOL.  Only the d^2 (d-1)^2 / 4 classes with a0 < a1 and b0 < b1
    are evaluated; each detection, and each by_scenario tally, counts four
    times, as the three other orders of a class get the same flag.  Swapping
    a0 <-> a1 conjugates the block by X (x) I, which maps T to
    diag(1, -1, -1) T; swapping b0 <-> b1 maps T to T diag(1, -1, -1).
    Neither changes the weight (the block's trace) or the singular values of
    T (R. & M. Horodecki, PRA 54, 1838 (1996)), so the score is the same, and
    classify_selection gives the same answer under both.  In floating point a
    swapped T agrees with the sign-flipped one to rounding, so only a class
    scored within rounding of WITNESS_TOL could be split by an ordered
    enumeration.  total stays d^2 (d-1)^2.

    bounded_detections settles most classes from invariants of the correlation
    matrix T (|T|_F^2 and the second elementary symmetric function of the
    eigenvalues of T^T T, compared squared with a rounding slack); only the
    classes it leaves open go to scores_from_submatrices, so a traced run's
    witness.sub_rows counts only those.  When r is given (2 <= r <= d, else
    InvalidParamsError), detections are additionally tallied per Scenario.
    This is the per-state sensitivity oracle; it needs d >= 2.
    """
    if rho.dim_a != rho.dim_b:
        raise ValueError("selection enumeration assumes equal local dimensions")
    d = rho.dim_a
    if d < 2:
        raise ValueError(f"selection enumeration needs d >= 2, got d = {d}")
    if r is not None:
        IcpsParams(d, r, 0.0, 0.0)  # raises InvalidParamsError unless 2 <= r <= d
    transformed = apply_lut(rho, lut)
    table, flat = _selection_table(d)
    blocks = transformed.mat.ravel().take(flat).reshape(-1, 4, 4)
    hits, open_rows = bounded_detections(blocks)
    if open_rows.any():
        hits[open_rows] = scores_from_submatrices(blocks[open_rows])[0] > WITNESS_TOL
    by_scenario = None
    if r is not None:
        by_scenario = {sc: 0 for sc in Scenario}
        for row in table[hits].tolist():
            by_scenario[classify_selection(LevelSelection(*row), r)] += 4
    return BruteForceCounts(total=4 * len(table), detected=4 * int(hits.sum()),
                            by_scenario=by_scenario)


@dataclass(frozen=True)
class AnalyticSensitivity:
    """Exact per-scenario detection fractions for an entangled rank-r state.

    Fractions count ordered selection classes over the d^2 (d-1)^2 total.
    scenario_ii_unordered records the alternative normalisation that counts
    each unordered core-edge level pair once (r-1 pairs); it is NOT consistent
    with the ordered-class enumeration, which finds 4 (r-1) classes, and is
    kept so the discrepancy can be reported rather than silently resolved.
    """

    scenario_i: Fraction
    scenario_ii: Fraction
    scenario_ii_unordered: Fraction
    combined: Fraction
    total_classes: int


def analytic_sensitivity(d: int, r: int) -> AnalyticSensitivity:
    """Detection fractions when v lies above both thresholds (identity map)."""
    IcpsParams(d, r, 0.0, 0.0)  # raises InvalidParamsError unless 2 <= r <= d
    total = d * d * (d - 1) * (d - 1)
    return AnalyticSensitivity(
        scenario_i=Fraction(2 * (r - 1) * (r - 2), total),
        scenario_ii=Fraction(4 * (r - 1), total),
        scenario_ii_unordered=Fraction(r - 1, total),
        combined=Fraction(2 * r * (r - 1), total),
        total_classes=total,
    )
