import os
import signal
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from quditwitness import (COMBINED_KEY, DEFAULT_STRATEGIES, CombinedSelection, GridSpec,
                          IcpsGroundTruth, IcpsParams, InvalidParamsError, LutKind, LutStrategy, Mode,
                          SensitivityEstimate, brute_force_counts, conditioning_threshold, is_npt,
                          make_icps, sweep_icps, sweep_icps_grid, sweep_quasi_pure,
                          wilson_halfwidth)
from quditwitness import engine, haar_unitary, linalg, transforms
from quditwitness.states import last_schmidt_coefficient
from quditwitness.transforms import _local_unitaries, random_selections
from conftest import (assert_no_child_left, explicit_max_det, needs_fork, schmidt_amplitude_matrices,
                      set_usable_cpus)


def test_wilson_halfwidth_value():
    # hand-computed: p=0.5, n=100, z=1.96
    assert abs(wilson_halfwidth(50, 100) - 0.09617) <= 1e-4
    assert wilson_halfwidth(0, 0) == 0.0
    assert wilson_halfwidth(0, 50) > 0.0


def test_estimate_fields_and_counts():
    est = sweep_icps(3, 2, [Mode.SINGLE], n_samples=5000, seed=1)[0]
    assert set(est) == {"identity", "hadamard_b", "hadamard_both", COMBINED_KEY}
    for e in est.values():
        assert 0 <= e.detected <= e.entangled <= e.sampled == 5000
        assert 0.0 <= e.value <= 1.0
    assert est[COMBINED_KEY].detected >= max(e.detected for k, e in est.items() if k != COMBINED_KEY)


def test_sensitivity_estimate_rejects_bad_counts():
    with pytest.raises(ValueError):
        SensitivityEstimate(detected=5, entangled=3, sampled=10)


def test_reproducible_across_worker_counts():
    kwargs = dict(n_samples=40_000, seed=7)
    a = sweep_icps(3, 2, [Mode.SINGLE], workers=1, **kwargs)[0]
    b = sweep_icps(3, 2, [Mode.SINGLE], workers=2, **kwargs)[0]
    assert {k: (e.detected, e.entangled) for k, e in a.items()} == \
           {k: (e.detected, e.entangled) for k, e in b.items()}
    qa = sweep_quasi_pure(3, [0.4], [Mode.SINGLE], n_samples=40_000, seed=9, workers=1)[0][0]
    qb = sweep_quasi_pure(3, [0.4], [Mode.SINGLE], n_samples=40_000, seed=9, workers=2)[0][0]
    assert (qa.detected, qa.entangled) == (qb.detected, qb.entangled)


def test_quasi_pure_sweep_equals_per_pair_estimates():
    # unsorted, repeated noises; odd d; two chunks, so workers=2 splits them
    noises, modes = (0.6, 0.2, 0.6), (Mode.PARALLEL, Mode.SINGLE)
    kwargs = dict(n_samples=17_000, seed=10)
    tables = [sweep_quasi_pure(5, noises, modes, workers=w, **kwargs) for w in (1, 2)]
    assert tables[0] == tables[1]
    for noise, row in zip(noises, tables[0]):
        for mode, est in zip(modes, row):
            assert est == sweep_quasi_pure(5, [noise], [mode], **kwargs)[0][0]
    assert tables[0][0] == tables[0][2]


def test_quasi_pure_sweep_rejects_any_bad_noise():
    with pytest.raises(InvalidParamsError):
        sweep_quasi_pure(3, [0.2, 1.5], [Mode.SINGLE], n_samples=100)


def test_ground_truth_denominators_ordered():
    # the rank-2 rule counts extra PPT states as entangled for r >= 3
    npt, rank2 = (sweep_icps(4, 4, [Mode.SINGLE], n_samples=20_000, seed=3, ground_truth=rule)[0]
                  for rule in (IcpsGroundTruth.NPT, IcpsGroundTruth.RANK2))
    assert rank2["identity"].entangled > npt["identity"].entangled
    # detections are identical; only the conditioning changes
    assert rank2["identity"].detected == npt["identity"].detected


def test_single_equals_parallel_at_d3():
    a = sweep_icps(3, 3, [Mode.SINGLE], n_samples=40_000, seed=5)[0]
    b = sweep_icps(3, 3, [Mode.PARALLEL], n_samples=40_000, seed=6)[0]
    for key in a:
        pa, pb = a[key].value, b[key].value
        sigma = np.sqrt(pa * (1 - pa) / a[key].entangled + pb * (1 - pb) / b[key].entangled)
        assert abs(pa - pb) <= max(2 * sigma, 0.01)


def test_shared_selection_mode_runs():
    est = sweep_icps(3, 2, [Mode.SINGLE], combined_selection=CombinedSelection.SHARED,
                     n_samples=5000, seed=2)[0]
    assert est[COMBINED_KEY].entangled > 0


def test_quasi_pure_d2_pure_states_always_detected():
    est = sweep_quasi_pure(2, [0.0], [Mode.SINGLE], n_samples=5000, seed=4)[0][0]
    assert est.value == 1.0
    assert est.entangled > 4900  # almost all Haar states of two qubits are NPT


def test_grid_cells_and_separable_flags():
    cells = sweep_icps_grid(3, 2, GridSpec(4, 5, 300), seed=11)
    assert len(cells) == 20
    alphas = sorted({c.alpha for c in cells})
    assert len(alphas) == 4
    for cell in cells:
        if cell.separable:
            for est in cell.estimates.values():
                assert est.detected == 0
    # high-visibility entangled cells must exist and detect under the combined row
    hot = [c for c in cells if not c.separable and c.v > 0.85]
    assert hot and any(c.estimates[COMBINED_KEY].detected > 0 for c in hot)


@pytest.mark.parametrize("d, r", [(3, 2), (4, 3)])
def test_grid_separable_flag_is_exact_ppt(d, r):
    # the flag against the exact oracle, the partial transpose of each cell
    # centre state; the rank-2 rule would misflag 12 cells at (3, 2), 5 at (4, 3)
    cells = sweep_icps_grid(d, r, GridSpec(20, 20, 1), seed=16)
    boundary = [conditioning_threshold(d, r, c.alpha, IcpsGroundTruth.NPT) for c in cells]
    checked = [c for c, thr in zip(cells, boundary) if abs(c.v - thr) > 1e-6]
    assert len(checked) > 390 and any(c.separable for c in checked)
    for cell in checked:
        assert cell.separable == (not is_npt(make_icps(IcpsParams(d, r, cell.alpha, cell.v))))


@pytest.mark.parametrize("chunk", [engine.CHUNK, 512], ids=["one-chunk-cells", "cells-span-chunks"])
@pytest.mark.parametrize("mode", ["single", "parallel"])
@pytest.mark.parametrize("selection", ["fresh", "shared"])
def test_run_budget_does_not_change_a_count(monkeypatch, chunk, mode, selection):
    # a run holds one chunk's rows (engine.CHUNK at d = 4): six cells of 1000 trials as
    # one-cell tasks (1000-row chunks), in runs of three, of two and as one run (the default
    # chunk), each with another kernel row slice (RUN_ROWS): the same counts for every
    # strategy; with 512-row chunks each cell spans 2 chunks and is a one-cell run per chunk
    run_tasks, tasks = engine.run_tasks, []

    def counted(flags_fn, batch, workers):
        tasks.append(len(batch))
        return run_tasks(flags_fn, batch, workers)
    monkeypatch.setattr(engine, "run_tasks", counted)
    grids = []
    budgets = ((1000, 3 * 1000 + 1, 2 * 1000, engine.CHUNK) if chunk == engine.CHUNK
               else (chunk,) * 4)
    for budget, slice_rows in zip(budgets, (333, 3 * 1000 + 1, engine.RUN_ROWS, 6 * 1000)):
        monkeypatch.setattr(engine, "CHUNK", budget)
        monkeypatch.setattr(engine, "RUN_ROWS", slice_rows)
        grids.append(sweep_icps_grid(4, 3, GridSpec(2, 3, 1000), mode, tuple(LutKind), selection,
                                     seed=17))
    assert all(grid == grids[0] for grid in grids[1:])
    assert tasks == ([12] * 4 if chunk == 512 else [6, 2, 3, 1])
    detected = [e.detected for cell in grids[0] for e in cell.estimates.values()]
    assert sum(detected) > 0 and min(detected) < 1000


def test_grid_monotone_in_v():
    cells = sweep_icps_grid(3, 3, GridSpec(1, 8, 1500), strategies=[LutKind.IDENTITY], seed=12)
    cells.sort(key=lambda c: c.v)
    values = [c.estimates["identity"].value for c in cells]
    ns = [c.estimates["identity"].entangled for c in cells]
    for (v1, n1), (v2, n2) in zip(zip(values, ns), zip(values[1:], ns[1:])):
        sigma = np.sqrt(max(v1 * (1 - v1) / n1, 1e-9) + max(v2 * (1 - v2) / n2, 1e-9))
        assert v2 >= v1 - 2 * sigma


def test_grid_cell_matches_enumeration_oracle():
    # cell probability for a fixed state equals the enumeration fraction
    d = r = 5
    spec = GridSpec(25, 10, 4000)
    cells = sweep_icps_grid(d, r, spec, strategies=[LutKind.IDENTITY], seed=13)
    target = min(cells, key=lambda c: abs(c.alpha - 1 / np.sqrt(5)) + abs(c.v - 0.95))
    exact = brute_force_counts(make_icps(IcpsParams(d, r, target.alpha, target.v)),
                               LutStrategy.identity()).sensitivity
    est = target.estimates["identity"]
    assert abs(est.value - exact) <= 4 * np.sqrt(exact * (1 - exact) / est.entangled + 1e-9)


def test_grid_one_sided_hadamard_reaches_perfect_detection():
    # near the uniform-coefficient, high-visibility corner the one-sided
    # Hadamard detects on every selection (enumeration gives exactly 1.0)
    d = r = 5
    cells = sweep_icps_grid(d, r, GridSpec(25, 10, 2000), strategies=[LutKind.HADAMARD_B],
                            seed=14)
    target = min(cells, key=lambda c: abs(c.alpha - 1 / np.sqrt(5)) + abs(c.v - 0.95))
    exact = brute_force_counts(make_icps(IcpsParams(d, r, target.alpha, target.v)),
                               LutStrategy.hadamard_b()).sensitivity
    assert exact == 1.0
    assert target.estimates["hadamard_b"].value == 1.0


def test_wilson_coverage_on_known_probability():
    # exact per-trial probability from the enumeration oracle; 99% Wilson
    # intervals must cover it in almost all repeated small-sample runs
    d, r = 3, 3
    alpha, v = 0.45, 0.9
    rho = make_icps(IcpsParams(d, r, alpha, v))
    exact = brute_force_counts(rho, LutStrategy.identity()).sensitivity
    n, reps, z = 300, 200, 2.5758
    covered = 0
    for rep in range(reps):
        _, _, hit = engine._grid_flags(1000 + rep, [0], 0, n, d, r, [alpha], [v],
                                       (LutKind.IDENTITY,), "single", False)
        k = int(hit[0, 0].sum())
        p_hat = k / n
        if abs(p_hat - exact) <= wilson_halfwidth(k, n, z=z):
            covered += 1
    assert covered / reps >= 0.96


def test_engine_chunk_sizes():
    # CHUNK-row chunks up to d = 16, then rows * d^2 <= CHUNK_ENTRIES
    chunk = engine.CHUNK
    for d in range(2, 17):
        assert engine.chunk_sizes(2 * chunk + 5, d) == [chunk, chunk, 5]
        assert engine.chunk_sizes(2 * chunk, d) == [chunk, chunk]
        assert engine.chunk_sizes(5, d) == [5]
    assert sum(engine.chunk_sizes(100_000, 9)) == 100_000
    for d in (17, 32, 64, 181, 1000, 3000):
        sizes = engine.chunk_sizes(3 * chunk + 7, d)
        assert sum(sizes) == 3 * chunk + 7 and min(sizes) >= 1
        assert max(sizes) * d * d <= engine.CHUNK_ENTRIES or max(sizes) == 1
    assert engine.CHUNK_ENTRIES * 16 <= 2 ** 26  # a complex (rows, d, d) stack fits in 64 MiB


# three entries of four samples each; task i marks its first i % 5 samples entangled
STAND_IN_HIT = np.array([[1, 1, 0, 1], [0, 1, 1, 1], [0, 0, 0, 0]], dtype=bool)
# [n, entangled per entry..., detected per entry...] for i % 5 = 0..4
STAND_IN_COUNTS = [[4, 0, 0, 0, 0, 0, 0], [4, 1, 1, 1, 1, 0, 0], [4, 2, 2, 2, 2, 1, 0],
                   [4, 3, 3, 3, 2, 2, 0], [4, 4, 4, 4, 3, 3, 0]]


def stand_in_flags(i):
    """A hand-built (rows, ent, hit): ent (4,) broadcasts against hit (3, 4)."""
    return 4, np.arange(4) < i % 5, STAND_IN_HIT


@pytest.mark.parametrize("workers, tasks, cpus, pool", [
    (5000, 4, 2, 2), (5000, 4, 64, 4), (3, 10, 64, 3), (8, 10, None, None), (5000, 1, 64, None)])
@needs_fork
def test_run_tasks_pool_capped_by_tasks_and_cpus(monkeypatch, forks, workers, tasks, cpus, pool):
    set_usable_cpus(monkeypatch, cpus)  # None: unknown, so serial
    out = engine.run_tasks(stand_in_flags, [(i,) for i in range(tasks)], workers)
    assert [list(row) for row in out] == [STAND_IN_COUNTS[i % 5] for i in range(tasks)]
    assert len(forks) == (0 if pool is None else pool)
    assert_no_child_left()


@needs_fork
def test_sweep_on_one_usable_cpu_forks_nothing(monkeypatch, forks):
    # a host with many CPUs whose affinity set allows one: 3 chunks run serially
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    set_usable_cpus(monkeypatch, 1)
    one = sweep_icps(3, 2, [Mode.SINGLE], n_samples=40_000, seed=3, workers=8)
    assert forks == []
    set_usable_cpus(monkeypatch, 2)
    assert sweep_icps(3, 2, [Mode.SINGLE], n_samples=40_000, seed=3, workers=8) == one
    assert len(forks) == 2


def failing_flags(i):
    """stand_in_flags, but task 2 raises."""
    if i == 2:
        raise InvalidParamsError(f"task {i} is out of range")
    return stand_in_flags(i)


def killed_flags(i):
    """stand_in_flags, but the child holding task 1 ends by SIGKILL."""
    if i == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return stand_in_flags(i)


@needs_fork
def test_run_tasks_reraises_a_child_exception(monkeypatch, forks):
    set_usable_cpus(monkeypatch, 2)
    with pytest.raises(InvalidParamsError, match="^task 2 is out of range$"):
        engine.run_tasks(failing_flags, [(i,) for i in range(4)], 2)
    assert len(forks) == 2
    assert_no_child_left()


@needs_fork
def test_run_tasks_killed_child_is_child_process_error(monkeypatch, forks):
    set_usable_cpus(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match=f"killed by signal {int(signal.SIGKILL)}"):
        engine.run_tasks(killed_flags, [(i,) for i in range(4)], 2)
    assert len(forks) == 2
    assert_no_child_left()


def blocking_flags(i):
    """Outlasts the test, so only a kill ends the child in time; bounded, so a
    child that escapes the kill still ends."""
    time.sleep(60)


@needs_fork
def test_run_tasks_parent_exception_kills_and_reaps_children(monkeypatch, forks):
    # a timer interrupts the parent while it waits on the first child's pipe,
    # as Ctrl-C would; the children never finish, so only a kill ends them
    set_usable_cpus(monkeypatch, 2)

    def interrupt(signum, frame):
        raise KeyboardInterrupt
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        with pytest.raises(KeyboardInterrupt):
            engine.run_tasks(blocking_flags, [(i,) for i in range(4)], 2)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("d", [2, 3, 5])
def test_schmidt_amps_match_local_unitary_product(d, rng):
    # the kernel's per-sample max |det M| (class table and row einsum) equals
    # that of the 2x2 blocks of U diag(s) V^T for the unitaries that
    # transforms._local_unitaries hands out, at every rank and for alpha up to
    # and at 1/sqrt(r-1); random_both's per-sample stacks have non-symmetric U and V
    n = 40
    pairs = [(kind, *_local_unitaries(d, LutStrategy(kind), rng, size=n)) for kind in LutKind]
    for r in range(2, d + 1):
        alpha = rng.uniform(0, 1 / np.sqrt(r - 1), n)
        alpha[0] = 1 / np.sqrt(r - 1)
        alpha_r = last_schmidt_coefficient(r, alpha)
        for kind, u, v in pairs:
            m = schmidt_amplitude_matrices(alpha, r, d, u, v)
            for mode in ("single", "parallel"):
                sel = random_selections(rng, d, n, mode)
                got = engine._schmidt_dets(sel, kind, u, v, alpha, alpha_r, d, r)
                assert got.shape == (n,)
                assert_allclose(got, explicit_max_det(m, sel), atol=1e-14)


FIXED_KINDS = (LutKind.IDENTITY, LutKind.HADAMARD_B, LutKind.HADAMARD_BOTH)


@pytest.mark.parametrize("d", range(2, 7))
def test_class_table_counts_equal_enumeration_oracle(d):
    # class k detects iff v > 1/(1 + d^2 |det M_k|), with |det M_k| from the
    # table's (a_k, c_k); at visibilities at least 1e-9 from every threshold the
    # number of such classes is brute_force_counts' detection count
    a0, a1, b0, b1 = np.indices((d,) * 4).reshape(4, -1)
    valid = (a0 != a1) & (b0 != b1)
    for r in range(2, d + 1):
        amax = 1 / np.sqrt(r - 1)
        for alpha in (0.2 * amax, 0.55 * amax, 0.9 * amax, amax):
            alpha_r = last_schmidt_coefficient(r, alpha)
            for kind in FIXED_KINDS:
                a, c = engine._fixed_terms(d, r, kind)(a0, a1, b0, b1)
                det = alpha * np.abs(alpha * a + alpha_r * c)[valid]
                threshold = 1 / (1 + d * d * det)
                edges = np.unique(np.concatenate([[0.0, 1.0], threshold]))
                vis = (edges[:-1] + edges[1:]) / 2
                vis = vis[np.abs(vis[:, None] - threshold).min(axis=1) >= 1e-9]
                assert len(vis) > 0
                for v in vis[np.linspace(0, len(vis) - 1, min(len(vis), 6)).astype(int)]:
                    counts = brute_force_counts(make_icps(IcpsParams(d, r, alpha, v)),
                                                LutStrategy(kind))
                    assert counts.total == valid.sum()
                    assert counts.detected == np.sum(v > threshold)


@pytest.mark.parametrize("d", [5, 9, 16])
def test_class_table_equals_drawn_classes(d, rng, monkeypatch):
    # the table path and the drawn-class path evaluate the same expressions, so
    # they give the same |det M| bit for bit; each path builds one evaluator per
    # (r, kind), and the cache is cleared around the patch so no drawn-class
    # evaluator outlives it
    n = 500
    ranks = sorted({2, 3, d // 2, d})
    cases = []
    for r in ranks:
        alpha = rng.uniform(0, 1 / np.sqrt(r - 1), n)
        alpha[0] = 1 / np.sqrt(r - 1)
        alpha_r = last_schmidt_coefficient(r, alpha)
        for kind in FIXED_KINDS:
            u, v = _local_unitaries(d, LutStrategy(kind), None)
            cases += [(random_selections(rng, d, n, mode), kind, u, v, alpha, alpha_r, d, r)
                      for mode in ("single", "parallel")]
    engine._fixed_terms.cache_clear()
    table = [engine._schmidt_dets(*case) for case in cases]
    assert engine._fixed_terms.cache_info().misses == len(ranks) * len(FIXED_KINDS)
    engine._fixed_terms.cache_clear()
    try:
        with monkeypatch.context() as patch:
            patch.setattr(engine, "TABLE_MAX_D", d - 1)
            for case, want in zip(cases, table):
                assert_array_equal(engine._schmidt_dets(*case), want)
        assert engine._fixed_terms.cache_info().misses == len(ranks) * len(FIXED_KINDS)
    finally:
        engine._fixed_terms.cache_clear()


@pytest.mark.parametrize("d", [9, 20])
def test_level_pair_block_size_changes_no_bit(d, rng, monkeypatch):
    # _pair_max walks the level pairs in blocks of CHUNK // (4 rows): one pair per block, a
    # partial last block (3, ..., 3, rest) and all pairs in one block give the same maxima
    # for every kind, on the class table (d = 9) and on the drawn classes (d = 20); every
    # kind's (k, rows) |det M| blocks are C-ordered, so each max over pairs runs over whole rows
    n, r, pairs = 60, 3, d // 2
    alpha = rng.uniform(0, 1 / np.sqrt(r - 1), n)
    alpha_r = last_schmidt_coefficient(r, alpha)
    stacks = [(kind, *_local_unitaries(d, LutStrategy(kind), rng, size=n)) for kind in LutKind]
    sels = {mode: random_selections(rng, d, n, mode) for mode in ("single", "parallel")}
    pair_max, blocks = engine._pair_max, []

    def spied_det(det, block):
        dets = det(block)
        assert dets.shape == (block.shape[1], n)
        blocks.append((block.shape[1], dets.flags.c_contiguous))
        return dets
    monkeypatch.setattr(engine, "_pair_max", lambda det, sel: pair_max(partial(spied_det, det), sel))
    results = []
    for step in (1, 3, pairs):
        monkeypatch.setattr(engine, "CHUNK", 4 * step * n)
        widths = [step] * (pairs // step) + [pairs % step] * (pairs % step > 0)
        results.append([])
        for kind, u, v in stacks:
            blocks.clear()
            results[-1] += [engine._schmidt_dets(sels[mode], kind, u, v, alpha, alpha_r, d, r)
                            for mode in sels]
            assert [k for k, _ in blocks] == [1] + widths  # single mode, then parallel
            assert all(c_order for _, c_order in blocks)
    for got in results[1:]:
        for a, b in zip(got, results[0]):
            assert_array_equal(a, b)


@pytest.mark.parametrize("d, kinds", [(16, tuple(LutKind)), (17, tuple(LutKind))] +
                         [(d, (LutKind.IDENTITY, LutKind.HADAMARD_B)) for d in (255, 256, 257)])
def test_narrow_selections_equal_intp_selections(d, kinds, rng):
    # random_selections stores levels in one byte up to d = 256 and two bytes above it:
    # every index made from them (the class index up to 65535 at d = 16, a0 d + b0 on the
    # drawn classes, past 2^16 at d = 257) must be the one made from intp levels; the
    # first two rows hold the largest levels, so a product taken in the levels' dtype wraps
    # (hadamard_b, whose K entries are all nonzero, reads a wrapped index as a wrong value)
    n, r = 40, 3
    alpha = rng.uniform(0, 1 / np.sqrt(r - 1), n)
    alpha_r = last_schmidt_coefficient(r, alpha)
    for mode in ("single", "parallel"):
        sel = random_selections(rng, d, n, mode)
        assert sel.dtype == (np.uint8 if d <= 256 else np.uint16)
        sel[0, 0], sel[1, 0] = (d - 1, d - 2, d - 1, d - 2), (d - 2, d - 1, d - 1, d - 2)
        for kind in kinds:
            u, v = _local_unitaries(d, LutStrategy(kind), rng, size=n)
            assert_array_equal(engine._schmidt_dets(sel, kind, u, v, alpha, alpha_r, d, r),
                               engine._schmidt_dets(sel.astype(np.intp), kind, u, v, alpha,
                                                    alpha_r, d, r))


def test_random_sweep_gathers_narrow_selections_as_intp(monkeypatch):
    # at d = 17 random-sweep's gather index a d + b reaches 288, past uint8: the chunk's
    # flags must equal those of the same draws widened to intp
    d, draws = 17, []

    def recorded(*args):
        draws.append(random_selections(*args))
        return draws[-1]
    task = (3, 0, 300, d, (0.3, 0.6), ("single", "parallel"))
    monkeypatch.setattr(engine, "random_selections", recorded)
    narrow = engine._quasi_flags(*task)
    assert [s.dtype for s in draws] == [np.uint8] * 2
    assert max(transforms.block_indices(s, d).max() for s in draws) == d * d - 1
    monkeypatch.setattr(engine, "random_selections",
                        lambda *args: random_selections(*args).astype(np.intp))
    for got, want in zip(narrow, engine._quasi_flags(*task)):
        assert_array_equal(got, want)


def test_drawn_classes_above_table_cap_match_local_unitary_product(rng, monkeypatch):
    # d = 17 has no class table: (a, c) come from the drawn classes alone, so every
    # _class_terms evaluation is at a block's (k, rows) levels, never at all d^4 classes
    d, n = 17, 200
    assert d > engine.TABLE_MAX_D
    terms, shapes = engine._class_terms, set()
    monkeypatch.setattr(engine, "_class_terms", lambda *args: shapes.add(np.shape(args[3]))
                        or terms(*args))
    engine._fixed_terms.cache_clear()  # the evaluators below bind the spy
    try:
        for r in (2, 3, 9, 17):
            alpha = rng.uniform(0, 1 / np.sqrt(r - 1), n)
            alpha[0] = 1 / np.sqrt(r - 1)
            alpha_r = last_schmidt_coefficient(r, alpha)
            for kind in FIXED_KINDS:
                u, v = _local_unitaries(d, LutStrategy(kind), None)
                m = schmidt_amplitude_matrices(alpha, r, d, u, v)
                for mode in ("single", "parallel"):
                    sel = random_selections(rng, d, n, mode)
                    got = engine._schmidt_dets(sel, kind, u, v, alpha, alpha_r, d, r)
                    assert_allclose(got, explicit_max_det(m, sel), atol=1e-14)
    finally:
        engine._fixed_terms.cache_clear()
    assert shapes == {(1, n), (d // 2, n)}  # single mode's pair and parallel mode's block


@pytest.mark.parametrize("d, r", [(5, 2), (9, 3), (9, 9), (20, 7), (32, 2)])
def test_random_both_first_r_columns_equal_full_contraction(d, r, rng):
    # s is zero past column r - 1, so contracting the drawn rows of U and V over
    # their first r columns adds the same terms as the d-column einsum with the
    # d-wide s, less exact zeros: the maxima agree bit for bit (at d = 32 in
    # parallel mode, one block holds all 16 pairs)
    n = 64
    u, v = _local_unitaries(d, LutStrategy(LutKind.RANDOM_BOTH), rng, size=n)
    alpha = rng.uniform(0, 1 / np.sqrt(r - 1), n)
    alpha[:2] = 0, 1 / np.sqrt(r - 1)
    alpha_r = last_schmidt_coefficient(r, alpha)
    levels = np.arange(d)
    s = alpha[:, None] * (levels < r - 1) + alpha_r[:, None] * (levels == r - 1)
    rows = np.arange(n)[:, None, None]
    for mode in ("single", "parallel"):
        sel = random_selections(rng, d, n, mode)
        m = np.einsum("nyqk,nk,nypk->nyqp", u[rows, sel[..., :2]], s, v[rows, sel[..., 2:]])
        full = np.abs(m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]).max(axis=1)
        got = engine._schmidt_dets(sel, LutKind.RANDOM_BOTH, u, v, alpha, alpha_r, d, r)
        assert_array_equal(got, full)


def test_hits_computes_schmidt_weights_once_per_task(monkeypatch, rng):
    # alpha_r is a function of the task's states alone, so every strategy of a
    # _hits call, in either mode, reads the one vector computed at its start
    calls = []
    weights = engine.last_schmidt_coefficient
    monkeypatch.setattr(engine, "last_schmidt_coefficient",
                        lambda r, alpha: calls.append(r) or weights(r, alpha))
    d, r, n = 5, 3, 100
    alpha = rng.uniform(0, 1 / np.sqrt(r - 1), n)
    for mode in ("single", "parallel"):
        calls.clear()
        hit = engine._hits([np.random.default_rng(1)], n, alpha, rng.uniform(0, 1, n), d, r,
                           DEFAULT_STRATEGIES, mode, False)
        assert hit.shape == (len(DEFAULT_STRATEGIES) + 1, n)
        assert calls == [r]


@pytest.mark.parametrize("d", [5, 17])
def test_fixed_kinds_build_unitaries_once_per_process(monkeypatch, d):
    # once engine._fixed_terms has built a fixed kind's terms (a class table up to
    # TABLE_MAX_D, the (K0, K1) tables above it), a chunk reads no fixed-kind
    # unitary, so it builds none
    tasks = [(5, 0, 300, d, 3, tuple(LutKind), mode, False, IcpsGroundTruth.NPT)
             for mode in ("single", "parallel")]
    first = [engine._counts(engine._icps_flags, *task) for task in tasks]
    monkeypatch.setattr(transforms, "qudit_hadamard", None)  # a Hadamard build would fail
    for task, counts in zip(tasks, first):
        assert_array_equal(engine._counts(engine._icps_flags, *task), counts)


def icps_chunk_peak(d: int, r: int) -> int:
    """tracemalloc's largest peak over one full icps chunk at d in each mode (three
    strategies), after a first chunk has built the fixed kinds' terms, as each process does
    once."""
    peaks = []
    for mode in ("single", "parallel"):
        task = (11, 0, engine.chunk_sizes(engine.CHUNK, d)[0], d, r, DEFAULT_STRATEGIES, mode,
                False, IcpsGroundTruth.RANK2)
        engine._icps_flags(*task[:2], 10, *task[3:])
        tracemalloc.start()
        try:
            engine._icps_flags(*task)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return max(peaks)


def test_icps_chunk_holds_one_draw_at_a_time():
    # an icps-table chunk (d = 9): each strategy's one-byte selections are freed before
    # the next are drawn, the parallel-mode permutations share one buffer and the
    # level-pair kernel works on RUN_ROWS rows at a time; numpy reports its allocations
    # to tracemalloc (intp selections and whole-chunk kernel temporaries peaked at 4.0 MiB)
    assert icps_chunk_peak(9, 9) <= 3 * 2 ** 20


def test_icps_chunk_above_table_cap_holds_one_draw_at_a_time():
    # the same bound for a 14513-row chunk on the drawn classes (d = 17), whose (rows, 17)
    # permutation buffer alone is 1.9 MiB (intp selections peaked at 5.9 MiB)
    assert icps_chunk_peak(17, 3) <= 3 * 2 ** 20


@pytest.mark.parametrize("d, noises", [(3, (0.2, 0.5, 0.8)), (9, (0.8, 0.9))])
def test_npt_masks_do_not_depend_on_slice_size(monkeypatch, d, noises):
    # a random-sweep chunk drawn, classified and gathered one row per slice and
    # as one slice gives the same flags, on noise levels where the bounds leave
    # rows to the SVD
    n = 600
    svd, svd_rows = np.linalg.svd, []

    def counted_svd(a, *args, **kwargs):
        svd_rows.append(len(a))
        return svd(a, *args, **kwargs)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    flags = []
    for cap in (1, n * d * d):
        monkeypatch.setattr(linalg, "SLICE_ENTRIES", cap)
        flags.append(engine._quasi_flags(d, 0, n, d, noises, ("single", "parallel")))
    assert sum(svd_rows) > 0
    for one_row, whole in zip(*flags):
        assert_array_equal(one_row, whole)


def test_quasi_chunk_streams_its_states():
    # a random-table chunk (d = 9, three noise levels, both modes) holds one
    # slice of its Haar states at a time, not a (rows, d^2) array (20.25 MiB),
    # and one-byte selections (intp ones peaked at 4.6 MiB); numpy reports its
    # allocations to tracemalloc
    task = (12, 0, engine.CHUNK, 9, (0.2, 0.4, 0.6), ("single", "parallel"))
    tracemalloc.start()
    try:
        engine._quasi_flags(*task)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2 ** 20


@pytest.mark.parametrize("d, n, noises, modes", [
    (9, 2048, (0.2, 0.4, 0.6), ("single", "parallel")), (64, 16, (0.5,), ("single",))])
def test_random_sweep_slices_allocate_no_slice_arrays(monkeypatch, d, n, noises, modes):
    # a chunk allocates its slice arrays (states, scratch, Gram matrices) before its first
    # slice; each later slice's draw, ground truth and gathers allocate less than one of them
    # (row vectors, level-pair blocks, numpy's ufunc buffer), where a slice that allocated
    # its own arrays took over 1 MiB; numpy reports its allocations to tracemalloc
    marks, npt_masks = [], engine._npt_masks

    def traced(*args):  # called once per slice, after its draw
        marks.append(tracemalloc.get_traced_memory())
        tracemalloc.reset_peak()
        return npt_masks(*args)
    monkeypatch.setattr(engine, "_npt_masks", traced)
    tracemalloc.start()
    try:
        engine._quasi_flags(3, 0, n, d, noises, modes)
    finally:
        tracemalloc.stop()
    grown = [peak - before for (before, _), (_, peak) in zip(marks, marks[1:])]
    assert len(grown) >= 3
    assert max(grown) < linalg.SLICE_ENTRIES * 16  # bytes of one slice's complex entries


def test_npt_masks_skip_the_svd_when_the_bounds_settle_every_row(monkeypatch):
    # random-table's noise levels at d = 9: the Cauchy-Binet bounds settle every row of
    # every slice, so no SVD runs, not even on an empty stack
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs: calls.append(len(a))
                        or svd(a, *args, **kwargs))
    engine._quasi_flags(1, 0, 4096, 9, (0.2, 0.4, 0.6), ("single",))
    assert calls == []


@pytest.mark.parametrize("shared", [False, True])
def test_icps_sweep_equals_per_mode_estimates(monkeypatch, shared):
    # modes in reversed order; 17000 samples span two chunks, so workers=2 splits the
    # four tasks, one per (mode, chunk)
    run_tasks, tasks = engine.run_tasks, []

    def counted(flags_fn, batch, workers):
        tasks.append([(task[1], task[6]) for task in batch])  # (chunk, mode)
        return run_tasks(flags_fn, batch, workers)
    monkeypatch.setattr(engine, "run_tasks", counted)
    modes = (Mode.PARALLEL, Mode.SINGLE)
    combined = CombinedSelection.SHARED if shared else CombinedSelection.FRESH
    kwargs = dict(strategies=tuple(LutKind), combined_selection=combined, n_samples=17_000,
                  seed=15, ground_truth=IcpsGroundTruth.NPT)
    tables = [sweep_icps(5, 3, modes, workers=w, **kwargs) for w in (1, 2)]
    assert tables[0] == tables[1]
    per_mode = [(c, mode.value) for mode in modes for c in range(2)]
    assert tasks == [per_mode, per_mode]
    for mode, est in zip(modes, tables[0]):
        assert est == sweep_icps(5, 3, [mode], **kwargs)[0]
    assert tables[0][0] != tables[0][1]


def test_entry_points_reject_zero_samples(monkeypatch):
    monkeypatch.setattr(engine, "run_tasks", None)  # fails if any work starts
    with pytest.raises(InvalidParamsError):
        sweep_icps(3, 2, [Mode.SINGLE], n_samples=0)
    with pytest.raises(InvalidParamsError):
        sweep_icps_grid(3, 2, GridSpec(1, 1, 0))
    with pytest.raises(InvalidParamsError):
        sweep_quasi_pure(3, [0.2], [Mode.SINGLE], n_samples=0)
    with pytest.raises(InvalidParamsError):
        sweep_quasi_pure(3, [0.2], [Mode.SINGLE], n_samples=-1)


def test_entry_points_reject_empty_mode_and_noise_lists(monkeypatch):
    monkeypatch.setattr(engine, "run_tasks", None)  # fails if any work starts
    with pytest.raises(InvalidParamsError, match="strategy"):
        sweep_icps(3, 2, [Mode.SINGLE], strategies=[])
    with pytest.raises(InvalidParamsError, match="strategy"):
        sweep_icps_grid(3, 2, GridSpec(1, 1, 10), strategies=[])
    with pytest.raises(InvalidParamsError, match="mode"):
        sweep_icps(3, 2, [])
    with pytest.raises(InvalidParamsError, match="mode"):
        sweep_quasi_pure(3, [0.2], [])
    with pytest.raises(InvalidParamsError, match="noise level"):
        sweep_quasi_pure(3, [], [Mode.SINGLE])


def test_pinned_unitaries_rejected_in_sweeps(monkeypatch, rng):
    # the sweeps draw fresh unitaries per sample, so they take no pinned ones
    monkeypatch.setattr(engine, "run_tasks", None)  # fails if any work starts
    pinned = [LutStrategy.random_both(u_a=haar_unitary(3, rng), v_b=haar_unitary(3, rng))]
    message = "^pinned unitaries belong to detection.run_trial"
    with pytest.raises(InvalidParamsError, match=message):
        sweep_icps(3, 2, [Mode.SINGLE], strategies=pinned, n_samples=100, seed=0)
    with pytest.raises(InvalidParamsError, match=message):
        sweep_icps_grid(3, 2, GridSpec(1, 1, 10), strategies=pinned)
    with pytest.raises(InvalidParamsError, match=message):  # one pinned side is enough
        sweep_icps(3, 2, [Mode.SINGLE], strategies=[LutStrategy.random_both(u_a=pinned[0].u_a)])


@pytest.mark.parametrize("kind", list(LutKind))
def test_unpinned_strategies_act_as_their_kinds_in_sweeps(kind):
    # an unpinned LutStrategy is its kind, as in run_trial
    modes, grid = ["single", "parallel"], GridSpec(2, 2, 40)
    assert (sweep_icps(4, 3, modes, strategies=[LutStrategy(kind)], n_samples=300, seed=2)
            == sweep_icps(4, 3, modes, strategies=[kind], n_samples=300, seed=2))
    assert (sweep_icps_grid(4, 3, grid, strategies=[LutStrategy(kind)], seed=2)
            == sweep_icps_grid(4, 3, grid, strategies=[kind], seed=2))


def test_repeated_strategies_rejected_in_sweeps(monkeypatch):
    # estimates are keyed by strategy name, so a repeat would lose a row
    monkeypatch.setattr(engine, "run_tasks", None)  # fails if any work starts
    kinds = [LutKind.IDENTITY, LutKind.HADAMARD_B, LutKind.IDENTITY]
    with pytest.raises(InvalidParamsError, match="repeated strategy"):
        sweep_icps(3, 2, [Mode.SINGLE], kinds, n_samples=100)
    with pytest.raises(InvalidParamsError, match="repeated strategy"):
        sweep_icps_grid(3, 2, GridSpec(1, 1, 10), strategies=kinds)


def test_removed_piecewise_rule_rejected_before_work(monkeypatch):
    monkeypatch.setattr(engine, "run_tasks", None)  # fails if any work starts
    assert [g.value for g in IcpsGroundTruth] == ["npt", "rank2"]
    with pytest.raises(ValueError, match="piecewise"):
        sweep_icps(3, 2, [Mode.SINGLE], n_samples=100, ground_truth="piecewise")


def test_no_entangled_sample_gives_empty_sensitivity():
    # at noise 1.0 every state is maximally mixed, so nothing is entangled
    est = sweep_quasi_pure(3, [1.0], [Mode.SINGLE], n_samples=200, seed=1)[0][0]
    assert (est.entangled, est.detected, est.value, est.ci95) == (0, 0, None, None)
    assert SensitivityEstimate(0, 0, 5).value is None
    assert SensitivityEstimate(0, 1, 5).value == 0.0
    assert SensitivityEstimate(0, 1, 5).ci95 > 0.0
