from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from numpy.testing import assert_allclose

from quditwitness import (IcpsGroundTruth, IcpsParams, InvalidParamsError, InvalidScenarioError,
                          LevelSelection, LutStrategy, QuasiPureParams, Scenario,
                          analytic_fef_score, analytic_sensitivity, brute_force_counts,
                          classify_selection, conditioning_threshold, fef_witness, haar_unitary,
                          is_npt, make_icps, make_quasi_pure, maximally_mixed, partial_transpose,
                          reduce_to_two_qubits, visibility_thresholds)
from quditwitness.cli import main
from quditwitness.constants import WITNESS_TOL
from quditwitness.oracles import _selection_table
from quditwitness.states import DensityMatrix
from quditwitness.transforms import apply_lut
from quditwitness.witness import _correlations, scores_from_submatrices
from conftest import ordered_classes, random_density

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def test_partial_transpose_bell_spectrum():
    pt = partial_transpose(np.outer(BELL, BELL), 2, 2)
    assert_allclose(np.sort(np.linalg.eigvalsh(pt)), [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


def test_is_npt_examples():
    assert not is_npt(maximally_mixed(3, 3))
    assert is_npt(DensityMatrix(2, 2, np.outer(BELL, BELL)))
    assert not is_npt(make_icps(IcpsParams(3, 3, 1 / np.sqrt(3), 0.24)))
    assert is_npt(make_icps(IcpsParams(3, 3, 1 / np.sqrt(3), 0.26)))


def test_thresholds_isotropic():
    for d in range(2, 7):
        v_a, v_b = visibility_thresholds(d, d, 1 / np.sqrt(d))
        assert abs(v_a - 1 / (1 + d)) <= 1e-12
        assert abs(v_b - 1 / (1 + d)) <= 1e-12


def test_threshold_product_limit():
    _, v_b = visibility_thresholds(4, 2, 1e-9)
    assert v_b > 1 - 1e-6


def test_scalar_thresholds_are_python_float_arithmetic(capsys):
    # at this alpha Python's alpha ** 2 and numpy's array square differ in
    # the last bit; `analytic --alpha` must print the Python float result
    alpha = 0.7454248080083349
    assert visibility_thresholds(11, 2, np.array([alpha]))[0][0] != 0.014655313875233644
    assert main(["analytic", "--d", "11", "--r", "2", "--alpha", repr(alpha)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == (
        f"alpha={alpha!r} v_a=0.014655313875233644 v_b=0.016360187389642677 "
        "entanglement_threshold=0.016360187389642677")


def test_threshold_d4_value_and_sign_change():
    _, v_b = visibility_thresholds(4, 4, 0.3)
    assert abs(v_b - 1 / (1 + 16 * 0.3 * np.sqrt(1 - 3 * 0.09))) <= 1e-12
    sel = LevelSelection(0, 3, 0, 3)  # core-edge pair carries the lowest threshold here
    for v, positive in ((v_b + 1e-3, True), (v_b - 1e-3, False)):
        rho = make_icps(IcpsParams(4, 4, 0.3, v))
        score = fef_witness(reduce_to_two_qubits(rho, sel)[0]).score
        assert (score > 0) == positive


def test_entanglement_threshold_matches_npt():
    for d, r in [(3, 2), (3, 3), (4, 2), (4, 3), (4, 4)]:
        for alpha_frac in (0.15, 0.5, 0.85):
            alpha = alpha_frac / np.sqrt(r - 1)
            thr = conditioning_threshold(d, r, alpha, IcpsGroundTruth.NPT)
            for v in np.linspace(0.02, 0.98, 25):
                if abs(v - thr) < 1e-6:
                    continue
                p = IcpsParams(d, r, alpha, v)
                assert (v > thr) == is_npt(make_icps(p))


def test_rank2_regime_distinction():
    # for r=2 above alpha = 1/sqrt(2) the core-core formula sits below the true
    # boundary; states in between are PPT
    v_a, v_b = visibility_thresholds(3, 2, 0.9)
    assert v_a < v_b
    assert conditioning_threshold(3, 2, 0.9, IcpsGroundTruth.NPT) == v_b
    mid = (v_a + v_b) / 2
    assert not is_npt(make_icps(IcpsParams(3, 2, 0.9, mid)))


def test_analytic_score_maximally_entangled():
    for d in (3, 4, 5):
        p = IcpsParams(d, d, 1 / np.sqrt(d), 1.0)
        assert abs(analytic_fef_score(p, Scenario.BOTH_IN_CORE) - 2.0) <= 1e-12


def test_analytic_score_zero_at_threshold():
    v_a, v_b = visibility_thresholds(5, 4, 0.4)
    assert abs(analytic_fef_score(IcpsParams(5, 4, 0.4, v_a), Scenario.BOTH_IN_CORE)) <= 1e-10
    assert abs(analytic_fef_score(IcpsParams(5, 4, 0.4, v_b), Scenario.CORE_AND_EDGE)) <= 1e-10


def test_analytic_score_matches_numeric_reduction():
    p = IcpsParams(5, 5, 0.35, 0.5)
    rho = make_icps(p)
    num_core = fef_witness(reduce_to_two_qubits(rho, LevelSelection(0, 1, 0, 1))[0]).score
    num_edge = fef_witness(reduce_to_two_qubits(rho, LevelSelection(0, 4, 0, 4))[0]).score
    assert abs(analytic_fef_score(p, Scenario.BOTH_IN_CORE) - num_core) <= 1e-10
    assert abs(analytic_fef_score(p, Scenario.CORE_AND_EDGE) - num_edge) <= 1e-10


def test_analytic_score_invalid_scenarios():
    p = IcpsParams(4, 3, 0.4, 0.8)
    with pytest.raises(InvalidScenarioError):
        analytic_fef_score(p, Scenario.VIOLATED_CORE)
    with pytest.raises(InvalidScenarioError):
        analytic_fef_score(IcpsParams(4, 2, 0.4, 0.8), Scenario.BOTH_IN_CORE)


def test_classify_selection_examples():
    assert classify_selection(LevelSelection(0, 1, 0, 1), 3) is Scenario.BOTH_IN_CORE
    assert classify_selection(LevelSelection(0, 2, 2, 0), 3) is Scenario.CORE_AND_EDGE
    assert classify_selection(LevelSelection(0, 1, 0, 2), 3) is Scenario.VIOLATED_CORE
    assert classify_selection(LevelSelection(0, 2, 0, 1), 3) is Scenario.VIOLATED_EDGE
    assert classify_selection(LevelSelection(3, 4, 3, 4), 3) is Scenario.VIOLATED_EDGE


@pytest.mark.parametrize("r", [-3, 0, 1])
def test_classify_selection_rejects_rank_below_two(r):
    # a matched core pair used to be filed under VIOLATED_EDGE for these r
    with pytest.raises(InvalidParamsError, match="r must be >= 2"):
        classify_selection(LevelSelection(0, 1, 0, 1), r)


def test_selection_table_matches_loop_enumeration():
    # the cached unordered table and its flat block positions against explicit
    # loops over every ordered class
    for d in range(2, 6):
        loop = ordered_classes(d)
        unordered = [row for row in loop if row[0] < row[1] and row[2] < row[3]]
        # each ordered class is one of the four level-swapped versions of one unordered row
        assert Counter((min(a0, a1), max(a0, a1), min(b0, b1), max(b0, b1))
                       for a0, a1, b0, b1 in loop) == dict.fromkeys(unordered, 4)
        table, flat = _selection_table(d)
        assert [tuple(row) for row in table.tolist()] == unordered
        blocks = [[a0 * d + b0, a0 * d + b1, a1 * d + b0, a1 * d + b1]
                  for a0, a1, b0, b1 in unordered]
        assert [list(LevelSelection(*row).indices(d)) for row in table] == blocks
        assert flat.tolist() == [[i * d * d + j for i in b for j in b] for b in blocks]
        assert not table.flags.writeable and not flat.flags.writeable


def test_level_swaps_flip_correlation_signs(rng):
    # swapping a0 <-> a1 conjugates a block by X (x) I and maps T to diag(1, -1, -1) T;
    # swapping b0 <-> b1 conjugates it by I (x) X and maps T to T diag(1, -1, -1)
    blocks = np.array([random_density(rng, 2, 2).mat * rng.uniform(0.01, 1.0) for _ in range(500)])
    t = _correlations(blocks)[0]
    flip = np.diag([1.0, -1.0, -1.0])
    swap_a, swap_b = [2, 3, 0, 1], [1, 0, 3, 2]
    t_a = _correlations(blocks[:, swap_a][:, :, swap_a])[0]
    t_b = _correlations(blocks[:, swap_b][:, :, swap_b])[0]
    assert_allclose(t_a, flip @ t, rtol=0, atol=1e-15)
    assert_allclose(t_b, t @ flip, rtol=0, atol=1e-15)


def reference_counts(rho: DensityMatrix, lut: LutStrategy, r: int):
    """(total, detected, by_scenario) over every ordered class, each block scored
    directly by scores_from_submatrices."""
    d = rho.dim_a
    mat = apply_lut(rho, lut).mat
    rows = ordered_classes(d)
    idx = np.array([[a0 * d + b0, a0 * d + b1, a1 * d + b0, a1 * d + b1]
                    for a0, a1, b0, b1 in rows])
    hits = scores_from_submatrices(mat[idx[:, :, None], idx[:, None, :]])[0] > WITNESS_TOL
    tally = Counter(classify_selection(LevelSelection(*row), r)
                    for row, hit in zip(rows, hits) if hit)
    return len(rows), int(hits.sum()), {sc: tally[sc] for sc in Scenario}


def oracle_reference_states(d: int, rng):
    """(state, r) pairs: Ginibre mixed states, Schmidt-form states below the NPT
    threshold, 1e-9 above it and well above it, and noisy Haar pure states."""
    for _ in range(2):
        yield random_density(rng, d, d), int(rng.integers(2, d + 1))
    for half in ("ppt", "edge", "entangled"):
        r = int(rng.integers(2, d + 1))
        alpha = float(rng.uniform(0.1, 0.9) / np.sqrt(r - 1))
        thr = float(conditioning_threshold(d, r, alpha, IcpsGroundTruth.NPT))
        v = {"ppt": thr * rng.uniform(0.0, 0.999), "edge": thr + 1e-9,
             "entangled": thr + (1.0 - thr) * rng.uniform(0.01, 1.0)}[half]
        yield make_icps(IcpsParams(d, r, alpha, float(v))), r
    for v in (0.3, 0.9):
        yield make_quasi_pure(QuasiPureParams(d, v), rng), int(rng.integers(2, d + 1))


@pytest.mark.parametrize("d", range(2, 7))
def test_brute_force_matches_ordered_reference(d, rng):
    detected = 0
    for rho, r in oracle_reference_states(d, rng):
        for lut in (LutStrategy.identity(), LutStrategy.hadamard_b(), LutStrategy.hadamard_both(),
                    LutStrategy.random_both(haar_unitary(d, rng), haar_unitary(d, rng))):
            counts = brute_force_counts(rho, lut, r=r)
            got = (counts.total, counts.detected, counts.by_scenario)
            assert got == reference_counts(rho, lut, r)
            detected += counts.detected
    assert detected > 0


@pytest.mark.parametrize("r", [0, 1, 5, 7])
def test_brute_force_rejects_r_outside_2_to_d(r):
    # at d = 4 and Schmidt rank 3, r = 3 tallies 4 core-core and 8 core-edge
    # detections; other ranks used to misfile all 12 under one violated or core class
    rho = make_icps(IcpsParams(4, 3, 0.5, 1.0))
    counts = brute_force_counts(rho, LutStrategy.identity(), r=3)
    assert counts.by_scenario == {Scenario.BOTH_IN_CORE: 4, Scenario.CORE_AND_EDGE: 8,
                                  Scenario.VIOLATED_CORE: 0, Scenario.VIOLATED_EDGE: 0}
    with pytest.raises(InvalidParamsError, match=r"r must be in \[2, d\]"):
        brute_force_counts(rho, LutStrategy.identity(), r=r)


def test_brute_force_rank2():
    rho = make_icps(IcpsParams(3, 2, 1 / np.sqrt(2), 1.0))
    counts = brute_force_counts(rho, LutStrategy.identity(), r=2)
    assert counts.total == 36
    assert counts.detected == 4
    assert counts.by_scenario[Scenario.CORE_AND_EDGE] == 4
    assert counts.by_scenario[Scenario.BOTH_IN_CORE] == 0
    assert abs(counts.sensitivity - 1 / 9) <= 1e-15


def test_brute_force_maximally_mixed():
    assert brute_force_counts(maximally_mixed(4, 4), LutStrategy.identity()).sensitivity == 0.0


@pytest.mark.parametrize("lut", [LutStrategy.identity(), LutStrategy.hadamard_b()])
def test_brute_force_rejects_d_below_2(lut):
    # d = 1 has no selection class; it used to return total = 0 (identity) or
    # fail inside the Hadamard build (hadamard_b)
    with pytest.raises(ValueError, match="d >= 2"):
        brute_force_counts(maximally_mixed(1, 1), lut)


def test_brute_force_full_rank_case():
    rho = make_icps(IcpsParams(4, 4, 0.4, 1.0))
    counts = brute_force_counts(rho, LutStrategy.identity(), r=4)
    assert counts.total == 144
    assert counts.detected == 24
    assert counts.by_scenario[Scenario.BOTH_IN_CORE] == 12
    assert counts.by_scenario[Scenario.CORE_AND_EDGE] == 12
    assert abs(counts.sensitivity - 1 / 6) <= 1e-15


def test_brute_force_single_scenario_band():
    # between the two thresholds only one scenario class detects
    v_a, v_b = visibility_thresholds(5, 4, 0.25)  # alpha < 1/sqrt(r): v_b < v_a
    assert v_b < v_a
    rho = make_icps(IcpsParams(5, 4, 0.25, (v_a + v_b) / 2))
    counts = brute_force_counts(rho, LutStrategy.identity(), r=4)
    assert counts.by_scenario[Scenario.BOTH_IN_CORE] == 0
    assert counts.detected == counts.by_scenario[Scenario.CORE_AND_EDGE] == 4 * 3


def test_brute_force_hadamard_perfect_detection():
    # prime d, uniform coefficients, one-sided Hadamard: every selection detects
    rho = make_icps(IcpsParams(5, 5, 1 / np.sqrt(5), 1.0))
    assert brute_force_counts(rho, LutStrategy.hadamard_b()).sensitivity == 1.0


def test_brute_force_with_pinned_random_unitaries(rng):
    rho = make_icps(IcpsParams(3, 3, 0.5, 0.9))
    lut = LutStrategy.random_both(u_a=haar_unitary(3, rng), v_b=haar_unitary(3, rng))
    s = brute_force_counts(rho, lut).sensitivity
    assert 0.0 <= s <= 1.0


def test_analytic_sensitivity_values():
    sens = analytic_sensitivity(3, 2)
    assert sens.combined == Fraction(1, 9)
    assert sens.scenario_i == 0
    assert sens.scenario_ii == Fraction(4, 36)
    assert sens.scenario_ii_unordered == Fraction(1, 36)
    for d in range(2, 10):
        assert analytic_sensitivity(d, d).combined == Fraction(2, d * (d - 1))
    sens = analytic_sensitivity(5, 5)
    assert sens.scenario_i == Fraction(24, 400)
    assert float(sens.scenario_i) == 0.06


def test_analytic_sensitivity_internal_consistency():
    # the ordered scenario counts add up to the combined count; the unordered
    # normalisation of scenario (ii) does not
    for d in range(2, 8):
        for r in range(2, d + 1):
            s = analytic_sensitivity(d, r)
            assert s.scenario_i + s.scenario_ii == s.combined
            if r > 1:
                assert s.scenario_ii == 4 * s.scenario_ii_unordered


def test_brute_force_matches_analytic_above_both_thresholds():
    for d, r in [(3, 2), (3, 3), (4, 3), (5, 2), (5, 4)]:
        alpha = 0.6 / np.sqrt(r - 1)
        v_a, v_b = visibility_thresholds(d, r, alpha)
        v = min(1.0, max(v_a, v_b) + 0.7 * (1 - max(v_a, v_b)))
        rho = make_icps(IcpsParams(d, r, alpha, v))
        counts = brute_force_counts(rho, LutStrategy.identity(), r=r)
        sens = analytic_sensitivity(d, r)
        assert Fraction(counts.detected, counts.total) == sens.combined
        assert counts.by_scenario[Scenario.BOTH_IN_CORE] == sens.scenario_i * counts.total
        assert counts.by_scenario[Scenario.CORE_AND_EDGE] == sens.scenario_ii * counts.total
