import numpy as np
import pytest

from quditwitness import (DEFAULT_STRATEGIES, CombinedSelection, IcpsParams, LevelSelection,
                          LutKind, Mode, evaluate_selection, haar_unitary, make_icps,
                          maximally_mixed, run_trial, substream)
from quditwitness.transforms import LutStrategy, random_selections


def test_maximally_mixed_never_detected():
    rho = maximally_mixed(4, 4)
    rng = substream(0, 0)
    for _ in range(50):
        assert not run_trial(rho, rng, mode=Mode.SINGLE).detected
        assert not run_trial(rho, rng, mode=Mode.PARALLEL).detected


def test_forced_bell_selection_detects():
    rho = make_icps(IcpsParams(3, 2, 1 / np.sqrt(2), 1.0))
    out = evaluate_selection(rho, LevelSelection(0, 1, 0, 1), LutStrategy.identity())
    assert out.detected
    assert abs(out.fef_w - 1.0) <= 1e-12
    assert out.selection == LevelSelection(0, 1, 0, 1)


def test_zero_probability_counts_as_not_detected():
    rho = make_icps(IcpsParams(3, 2, 1 / np.sqrt(2), 1.0))
    out = evaluate_selection(rho, LevelSelection(1, 2, 0, 2))
    assert not out.detected
    assert out.score == -1.0


def test_single_trial_rate_matches_enumeration():
    # pure isotropic d=5: identity-strategy detection probability is exactly 0.1
    rho = make_icps(IcpsParams(5, 5, 1 / np.sqrt(5), 1.0))
    rng = substream(3, 0)
    n = 4000
    hits = sum(run_trial(rho, rng, strategies=(LutStrategy.identity(),)).detected for _ in range(n))
    assert abs(hits / n - 0.1) <= 0.02  # > 4 sigma


def test_trial_detected_is_or_of_outcomes():
    rho = make_icps(IcpsParams(4, 3, 0.5, 0.95))
    rng = substream(5, 0)
    for _ in range(40):
        res = run_trial(rho, rng, mode=Mode.PARALLEL)
        assert res.detected == any(o.detected for o in res.outcomes)


def test_parallel_d2_equals_single():
    # floor(2/2) = 1 pair covering both levels: same statistics as single mode
    rho = make_icps(IcpsParams(2, 2, 0.5, 0.9))
    rng = substream(29, 0)
    n = 3000
    ident = (LutStrategy.identity(),)
    ps = sum(run_trial(rho, rng, ident, Mode.SINGLE).detected for _ in range(n)) / n
    res = [run_trial(rho, rng, ident, Mode.PARALLEL) for _ in range(n)]
    assert all(len(t.outcomes) == 1 for t in res)
    pp = sum(t.detected for t in res) / n
    sigma = np.sqrt(ps * (1 - ps) / n + pp * (1 - pp) / n)
    assert abs(ps - pp) <= max(2.5 * sigma, 0.01)


def test_parallel_d3_has_single_pair_per_strategy():
    rho = make_icps(IcpsParams(3, 3, 0.5, 0.9))
    res = run_trial(rho, substream(7, 0), mode=Mode.PARALLEL)
    assert len(res.outcomes) == 3  # floor(3/2) = 1 pair for each of 3 strategies


def test_run_trial_outcomes_per_strategy():
    # one selection per strategy in single mode, floor(5/2) = 2 in parallel mode
    rho = make_icps(IcpsParams(5, 3, 0.5, 0.9))
    for combined in CombinedSelection:
        for mode, per_strategy in ((Mode.SINGLE, 1), (Mode.PARALLEL, 2)):
            res = run_trial(rho, substream(19, 0), mode=mode, combined_selection=combined)
            kinds = [o.strategy for o in res.outcomes]
            assert kinds == [k for k in DEFAULT_STRATEGIES for _ in range(per_strategy)]


def test_disjoint_selections_partition_levels():
    rng = substream(11, 0)
    for d in (4, 5, 9):
        sel = random_selections(rng, d, 200, "parallel")
        assert sel.shape == (200, d // 2, 4)
        for levels in (sel[..., :2], sel[..., 2:]):  # side A, side B: every row's pairs are disjoint
            levels = np.sort(levels.reshape(200, -1), axis=1)
            assert (np.diff(levels, axis=1) > 0).all()


def test_parallel_dominates_single():
    rho = make_icps(IcpsParams(4, 4, 1 / 2, 0.9))
    ident = (LutStrategy.identity(),)
    rng = substream(13, 0)
    n = 3000
    ps = sum(run_trial(rho, rng, ident, Mode.SINGLE).detected for _ in range(n)) / n
    pp = sum(run_trial(rho, rng, ident, Mode.PARALLEL).detected for _ in range(n)) / n
    sigma = np.sqrt(ps * (1 - ps) / n + pp * (1 - pp) / n)
    assert pp >= ps - 2 * sigma


def test_shared_selection_bounded_by_fresh():
    rho = make_icps(IcpsParams(3, 2, 0.6, 0.9))
    rng = substream(17, 0)
    n = 4000
    fresh, shared = CombinedSelection.FRESH, CombinedSelection.SHARED
    pf = sum(run_trial(rho, rng, combined_selection=fresh).detected for _ in range(n)) / n
    psh = sum(run_trial(rho, rng, combined_selection=shared).detected for _ in range(n)) / n
    sigma = np.sqrt(pf * (1 - pf) / n + psh * (1 - psh) / n)
    assert psh <= pf + 2 * sigma


def test_trials_deterministic_under_seed():
    rho = make_icps(IcpsParams(5, 3, 0.4, 0.8))
    r1 = [run_trial(rho, substream(23, i), mode=Mode.PARALLEL).detected for i in range(50)]
    r2 = [run_trial(rho, substream(23, i), mode=Mode.PARALLEL).detected for i in range(50)]
    assert r1 == r2


def test_config_string_values_act_as_the_enums():
    rho = make_icps(IcpsParams(5, 3, 0.4, 0.8))
    for mode in Mode:
        for combined in CombinedSelection:
            by_enum = run_trial(rho, substream(29, 0), mode=mode, combined_selection=combined)
            by_value = run_trial(rho, substream(29, 0), mode=mode.value,
                                 combined_selection=combined.value)
            assert by_value == by_enum
    with pytest.raises(ValueError):
        run_trial(rho, substream(29, 0), mode="bogus")
    with pytest.raises(ValueError):
        run_trial(rho, substream(29, 0), combined_selection="bogus")
    with pytest.raises(ValueError):
        run_trial(rho, substream(29, 0), strategies=["identity", "bogus"])


def test_strategies_as_kinds_names_and_values_give_one_trial():
    # a pinned random_both draws nothing, so it sits anywhere in the list; the
    # unpinned kinds then draw the same unitaries and selections in every spelling
    rho = make_icps(IcpsParams(4, 3, 0.5, 0.9))
    rng = substream(31, 0)
    pinned = LutStrategy.random_both(haar_unitary(4, rng), haar_unitary(4, rng))
    kinds = list(LutKind)
    spellings = (kinds, [k.value for k in kinds], [LutStrategy(k) for k in kinds])
    for mode in Mode:
        for combined in CombinedSelection:
            for i in range(10):
                results = [run_trial(rho, substream(37, i), [*strategies, pinned], mode, combined)
                           for strategies in spellings]
                assert results[0] == results[1] == results[2]
                assert [o.strategy for o in results[0].outcomes][-1] is LutKind.RANDOM_BOTH
