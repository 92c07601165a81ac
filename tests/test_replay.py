"""Sample-exact replay of the sweep kernels against the scalar protocol.

Each replay test redraws a chunk's randomness in the documented order with
the engine's own draw helpers (substream, _local_unitaries,
random_selections), builds every sample's density matrix, applies its local
unitaries through apply_lut (pinned as random_both), runs
detection.evaluate_selection on each level pair and takes the ground truth
from conditioning_threshold or is_npt.  The engine's flags must equal these
sample by sample.  test_one_sample_chunks_are_run_trial_calls goes one step
further: run_trial makes the kernel's draws in the kernel's order, so a
chunk of one sample must give the flags of one run_trial call on the same
substream (for random-sweep, the chunk's selection stream).  A flag decided
within NEAR of its threshold could differ by rounding alone; such samples
are counted and the count must be 0, so the seeds below exercise no
tolerance.

Two kinds of change cannot fail these tests.  Swapping a0/a1 (or b0/b1, or
transposing a 2x2 block) leaves |det M| and the witness unchanged.  A change
inside random_selections or _local_unitaries, or inside block_indices where
both sides use it, is invisible, since the reference uses those helpers too;
test_transforms pins random_selections against its stack-and-concatenate
construction, draws and generator state alike.
"""
import numpy as np
import pytest
from numpy.testing import assert_array_equal

from quditwitness import (CombinedSelection, DensityMatrix, IcpsGroundTruth, IcpsParams,
                          LevelSelection, LutKind, LutStrategy, apply_lut,
                          conditioning_threshold, engine, evaluate_selection, is_npt, make_icps,
                          partial_transpose, random_selections, run_trial)
from quditwitness.constants import NPT_TOL, WITNESS_TOL
from quditwitness.linalg import ginibre, haar_state
from quditwitness.rng import substream
from quditwitness.transforms import _local_unitaries

N = 60
NEAR = 1e-9
MODES = ("single", "parallel")
KINDS = tuple(LutKind)


def _pinned(w, i: int) -> np.ndarray:
    """Sample i's unitary from _local_unitaries' output ((d, d) or (n, d, d))."""
    return w[i] if w.ndim == 3 else w


def _witness(rho: DensityMatrix, sel_rows: np.ndarray) -> tuple[bool, int]:
    """Scalar detection over a sample's level pairs, and how many scores lie within NEAR."""
    outcomes = [evaluate_selection(rho, LevelSelection(*map(int, s))) for s in sel_rows]
    near = sum(abs(o.score - WITNESS_TOL) < NEAR for o in outcomes)
    return any(o.detected for o in outcomes), near


def reference_hits(rng, states, d: int, mode: str, shared: bool) -> tuple[np.ndarray, int]:
    """Flags (strategies + 1, n) of the scalar protocol on the draws that follow in rng."""
    n = len(states)
    shared_sel = random_selections(rng, d, n, mode) if shared else None
    hit = np.zeros((len(KINDS) + 1, n), dtype=bool)
    near = 0
    for k, kind in enumerate(KINDS):
        u, v = _local_unitaries(d, LutStrategy(kind), rng, size=n)
        sel = shared_sel if shared else random_selections(rng, d, n, mode)
        for i, rho in enumerate(states):
            pinned = LutStrategy.random_both(_pinned(u, i), _pinned(v, i))
            hit[k, i], close = _witness(apply_lut(rho, pinned), sel[i])
            near += close
    hit[-1] = hit[:-1].any(axis=0)
    return hit, near


def _icps_draws(seed: int, r: int):
    """A chunk's generator right after its (alpha, v) draw, and that draw."""
    rng = substream(seed, engine._TAG_ICPS, 0)
    alpha = rng.uniform(0.0, 1.0 / np.sqrt(r - 1), N)
    return rng, alpha, rng.uniform(0.0, 1.0, N)


@pytest.mark.parametrize("shared", [False, True], ids=["fresh", "shared"])
@pytest.mark.parametrize("d, r", [(d, r) for d in range(2, 6) for r in range(2, d + 1)])
def test_icps_flags_replay_the_scalar_protocol(d, r, shared):
    seed = 1000 * d + 10 * r + shared
    for mode in MODES:
        # every mode's chunk draws (alpha, v) and then its own selections and unitaries
        flags = {gt: engine._icps_flags(seed, 0, N, d, r, KINDS, mode, shared, gt)
                 for gt in IcpsGroundTruth}
        hit = flags[IcpsGroundTruth.NPT][2]
        assert_array_equal(flags[IcpsGroundTruth.RANK2][2], hit)
        rng, alpha, vis = _icps_draws(seed, r)
        states = [make_icps(IcpsParams(d, r, float(a), float(v))) for a, v in zip(alpha, vis)]
        expected, near = reference_hits(rng, states, d, mode, shared)
        assert near == 0
        assert_array_equal(hit, expected)
        for gt in IcpsGroundTruth:
            threshold = np.array([conditioning_threshold(d, r, float(a), gt) for a in alpha])
            assert np.sum(np.abs(vis - threshold) < NEAR) == 0
            assert_array_equal(flags[gt][1], vis > threshold)


@pytest.mark.parametrize("mode, shared", [("single", False), ("parallel", True)])
def test_grid_flags_replay_the_scalar_protocol(mode, shared):
    # a run of three cells, each on its own state: every member's flags are those
    # of its own scalar replay on its own substream
    d, r, seed, chunk = 5, 4, 77, 1
    cells, alphas, vis = (3, 4, 9), (0.4, 0.5, 0.3), (0.6, 0.7, 0.8)
    rows, ent, hit = engine._grid_flags(seed, cells, chunk, N, d, r, alphas, vis, KINDS, mode,
                                        shared)
    assert rows == len(cells) * N and hit.shape == (len(cells), len(KINDS) + 1, N)
    for cell, alpha, v, member in zip(cells, alphas, vis, hit):
        rng = substream(seed, engine._TAG_GRID, cell, chunk)
        expected, near = reference_hits(rng, [make_icps(IcpsParams(d, r, alpha, v))] * N, d,
                                        mode, shared)
        assert ent is True and near == 0
        assert_array_equal(member, expected)
        assert 0 < expected.sum() < expected.size  # the cell is neither always nor never detected


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_quasi_flags_replay_the_scalar_protocol(d):
    seed, noises = 500 + d, (0.7, 0.2, 0.5)  # not sorted, so a reordering shows
    _, ent, hit = engine._quasi_flags(seed, 0, N, d, noises, MODES)
    assert ent.shape == (len(noises), 1, N) and hit.shape == (len(noises), len(MODES), N)
    # the states from the chunk's stream, one Ginibre matrix per state; each mode's
    # selections from the start of the chunk's second stream
    z = ginibre(d, substream(seed, engine._TAG_QUASI, 0), size=N)
    z /= np.linalg.norm(z, axis=(1, 2), keepdims=True)
    for j, mode in enumerate(MODES):
        sel = random_selections(substream(seed, engine._TAG_QUASI, 0, 1), d, N, mode)
        for n_idx, noise in enumerate(noises):
            for i in range(N):
                rho = DensityMatrix.from_pure(z[i].reshape(d * d), d, d, visibility=1.0 - noise)
                detected, near = _witness(rho, sel[i])
                assert near == 0 and hit[n_idx, j, i] == detected
                if j == 0:
                    eig = np.linalg.eigvalsh(partial_transpose(rho.mat, d, d)).min()
                    assert abs(eig + NPT_TOL) >= NEAR and ent[n_idx, 0, i] == is_npt(rho)


def _trial_flags(rho: DensityMatrix, strategies: tuple[LutKind, ...], mode: str, shared: bool,
                 rng) -> tuple[np.ndarray, int]:
    """One run_trial call's flags (strategies + 1,): per strategy the OR over its level
    pairs, then res.detected; and how many of its scores lie within NEAR."""
    combined = CombinedSelection.SHARED if shared else CombinedSelection.FRESH
    res = run_trial(rho, rng, strategies, mode, combined)
    per_strategy = np.array([o.detected for o in res.outcomes]).reshape(len(strategies), -1)
    near = sum(abs(o.score - WITNESS_TOL) < NEAR for o in res.outcomes)
    return np.append(per_strategy.any(axis=1), res.detected), near


@pytest.mark.parametrize("d", range(2, 7))
def test_one_sample_chunks_are_run_trial_calls(d):
    near, seen = 0, set()
    draw = np.random.default_rng(d)  # the grid cells' (alpha, v)
    for r in range(2, d + 1):
        for shared in (False, True):
            for c in range(20):
                seed = 10_000 * d + 100 * r + c
                alpha = draw.uniform(0.0, 1.0 / np.sqrt(r - 1))
                vis = draw.uniform(0.0, 1.0)
                rho = make_icps(IcpsParams(d, r, alpha, vis))
                for mode in MODES:
                    _, _, hit = engine._grid_flags(seed, [c], 0, 1, d, r, [alpha], [vis], KINDS,
                                                   mode, shared)
                    rng = substream(seed, engine._TAG_GRID, c, 0)
                    expected, close = _trial_flags(rho, KINDS, mode, shared, rng)
                    near += close
                    seen.update(expected.tolist())
                    assert_array_equal(hit[0, :, 0], expected)

                for mode in MODES:
                    _, _, hit = engine._icps_flags(seed, c, 1, d, r, KINDS, mode, shared,
                                                   IcpsGroundTruth.NPT)
                    rng = substream(seed, engine._TAG_ICPS, c)
                    alpha = rng.uniform(0.0, 1.0 / np.sqrt(r - 1), 1)[0]
                    vis = rng.uniform(0.0, 1.0, 1)[0]
                    rho = make_icps(IcpsParams(d, r, alpha, vis))
                    expected, close = _trial_flags(rho, KINDS, mode, shared, rng)
                    near += close
                    assert_array_equal(hit[:, 0], expected)

    seed, noises = 500 + d, (0.7, 0.2, 0.5)
    for c in range(40):
        _, _, hit = engine._quasi_flags(seed, c, 1, d, noises, MODES)
        z = haar_state(d * d, substream(seed, engine._TAG_QUASI, c), size=1)[0]
        rng = substream(seed, engine._TAG_QUASI, c, 1)  # the selection stream
        start = rng.bit_generator.state
        for i, noise in enumerate(noises):
            rho = DensityMatrix.from_pure(z, d, d, visibility=1.0 - noise)
            for j, mode in enumerate(MODES):
                rng.bit_generator.state = start
                expected, close = _trial_flags(rho, (LutKind.IDENTITY,), mode, False, rng)
                near += close
                seen.add(bool(expected[-1]))
                assert hit[i, j, 0] == expected[-1]
    assert near == 0 and seen == {False, True}
