"""Acceptance suite: the eight exit criteria, one printed PASS/FAIL line each.

Heavy criteria run 1e5-sample ensembles; the whole module took 24 s on a
2-core Intel Xeon VM (Python 3.11, numpy 2.4).  Reference sensitivity
percentages are reproduced within +-1.5 percentage points at the pinned seeds.
"""
import numpy as np

from quditwitness import (SETTINGS, IcpsGroundTruth, IcpsParams, LevelSelection, LutStrategy,
                          Mode, Scenario, analytic_fef_score, analytic_sensitivity,
                          brute_force_counts, conditioning_threshold, engine, fef_from_collective,
                          fef_witness, haar_unitary, make_icps, random_product_mixture,
                          reduce_to_two_qubits, substream, sweep_icps, sweep_quasi_pure,
                          visibility_thresholds)
from quditwitness.cli import main
from quditwitness.states import DensityMatrix, schmidt_vector
from conftest import random_density

TOL_PP = 1.5  # percentage points
N_TABLE = 100_000
SEED_TABLE = 13

# reference sensitivity tables (percent); rows: identity, hadamard_b,
# hadamard_both, combined
TABLE_ICPS = {
    "single": {
        (3, 2): (10.8, 27.2, 64.7, 73.4),
        (3, 3): (28.5, 68.2, 55.2, 81.4),
        (5, 5): (7.7, 50.1, 32.6, 60.7),
        (9, 2): (0.1, 2.1, 37.2, 38.4),
        (9, 9): (2.1, 36.7, 19.6, 45.3),
    },
    "parallel": {
        (3, 2): (10.8, 27.2, 64.7, 73.4),
        (3, 3): (28.5, 68.2, 55.2, 81.4),
        (5, 5): (13.3, 62.6, 41.0, 70.9),
        (9, 2): (0.3, 8.6, 48.7, 52.1),
        (9, 9): (7.7, 59.8, 42.1, 66.2),
    },
}
ROW_KEYS = ("identity", "hadamard_b", "hadamard_both", "combined")

# reference quasi-pure sensitivities (percent) by (d, noise)
TABLE_QUASI = {
    "single": {(3, 0.2): 96.0, (3, 0.4): 75.9, (3, 0.6): 28.6,
               (5, 0.2): 95.0, (5, 0.4): 72.5, (5, 0.6): 28.1,
               (9, 0.2): 94.6, (9, 0.4): 71.3, (9, 0.6): 27.9},
    "parallel": {(3, 0.2): 96.0, (3, 0.4): 75.9, (3, 0.6): 28.6,
                 (5, 0.2): 99.8, (5, 0.4): 93.2, (5, 0.6): 49.5,
                 (9, 0.2): 100.0, (9, 0.4): 99.5, (9, 0.6): 74.0},
}


def check(name: str, ok: bool, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] {name}" + (f"  {detail}" if detail else ""))
    return ok


def test_criterion_1_icps_table():
    print()
    ok = True
    modes = tuple(TABLE_ICPS)
    # one sweep per (d, r): its counts equal per-mode estimates at the same seed
    tables = {dr: dict(zip(modes, sweep_icps(*dr, [Mode(m) for m in modes],
                                             n_samples=N_TABLE, seed=SEED_TABLE)))
              for dr in TABLE_ICPS["single"]}
    for mode in modes:
        for (d, r), refs in TABLE_ICPS[mode].items():
            est = tables[d, r][mode]
            got = [100 * est[k].value for k in ROW_KEYS]
            dev = max(abs(g - ref) for g, ref in zip(got, refs))
            ok &= check(f"criterion 1: sensitivity table d={d} r={r} {mode}",
                        dev <= TOL_PP,
                        "got " + "/".join(f"{g:.1f}" for g in got) +
                        f"  expected {'/'.join(str(x) for x in refs)}  maxdev {dev:.2f}pp")
    assert ok


def test_criterion_2_quasi_pure_table():
    print()
    ok = True
    modes = tuple(TABLE_QUASI)
    # one sweep per d: its counts equal per-(noise, mode) estimates at the same seed
    for d in dict.fromkeys(d for d, _ in TABLE_QUASI["single"]):
        noises = [noise for dd, noise in TABLE_QUASI["single"] if dd == d]
        table = sweep_quasi_pure(d, noises, [Mode(m) for m in modes],
                                 n_samples=N_TABLE, seed=SEED_TABLE + 1)
        for noise, row in zip(noises, table):
            for mode, est in zip(modes, row):
                ref = TABLE_QUASI[mode][(d, noise)]
                got = 100 * est.value
                ok &= check(f"criterion 2: quasi-pure d={d} noise={noise:.0%} {mode}",
                            abs(got - ref) <= TOL_PP,
                            f"got {got:.1f}  expected {ref}  dev {abs(got - ref):.2f}pp")
    assert ok


def test_criterion_3_analytic_identities():
    print()
    worst = 0.0
    for d in range(2, 7):
        for r in range(2, d + 1):
            amax = 1 / np.sqrt(r - 1)
            for ia in range(20):
                alpha = (ia + 0.5) / 20 * amax
                for iv in range(20):
                    v = (iv + 0.5) / 20
                    p = IcpsParams(d, r, alpha, v)
                    rho = make_icps(p)
                    num = fef_witness(reduce_to_two_qubits(rho, LevelSelection(0, r - 1, 0, r - 1))[0]).score
                    worst = max(worst, abs(analytic_fef_score(p, Scenario.CORE_AND_EDGE) - num))
                    if r >= 3:
                        num = fef_witness(reduce_to_two_qubits(rho, LevelSelection(0, 1, 0, 1))[0]).score
                        worst = max(worst, abs(analytic_fef_score(p, Scenario.BOTH_IN_CORE) - num))
    ok = check("criterion 3: closed forms equal numeric scores on 20x20 grids, d<=6",
               worst <= 1e-10, f"max |analytic - numeric| = {worst:.2e}")

    step = 1e-4
    worst_flip = 0.0
    for d in range(2, 7):
        for r in range(2, d + 1):
            amax = 1 / np.sqrt(r - 1)
            probes = [0.5 / np.sqrt(r)]  # core-edge regime
            if r >= 3:
                probes.append((1 / np.sqrt(r) + amax) / 2)  # core-core regime
            for alpha in probes:
                thr = conditioning_threshold(d, r, alpha, IcpsGroundTruth.NPT)
                sels = [LevelSelection(0, r - 1, 0, r - 1)]
                if r >= 3:
                    sels.append(LevelSelection(0, 1, 0, 1))
                flip = None
                for v in np.arange(max(step, thr - 0.02), min(1.0, thr + 0.02), step):
                    rho = make_icps(IcpsParams(d, r, alpha, v))
                    best = max(fef_witness(reduce_to_two_qubits(rho, s)[0]).score for s in sels)
                    if best > 0:
                        flip = v
                        break
                assert flip is not None
                worst_flip = max(worst_flip, abs(flip - thr))
    ok &= check("criterion 3: numeric detection boundary at the threshold",
                worst_flip <= 1.5 * step, f"max |flip - threshold| = {worst_flip:.2e}")
    assert ok


def test_criterion_4_counting_oracle():
    print()
    ok = True
    for d in range(2, 7):
        for r in range(2, d + 1):
            alpha = 0.6 / np.sqrt(r - 1)
            v_a, v_b = visibility_thresholds(d, r, alpha)
            v = (max(v_a, v_b) + 1.0) / 2
            counts = brute_force_counts(make_icps(IcpsParams(d, r, alpha, v)),
                                        LutStrategy.identity(), r=r)
            sens = analytic_sensitivity(d, r)
            expect_total = 2 * r * (r - 1)
            expect_i = 2 * (r - 1) * (r - 2)
            ok &= check(f"criterion 4: exact detection counts d={d} r={r}",
                        counts.detected == expect_total
                        and counts.by_scenario[Scenario.BOTH_IN_CORE] == expect_i
                        and counts.total == sens.total_classes,
                        f"detected {counts.detected}/{counts.total}")
            ii = counts.by_scenario[Scenario.CORE_AND_EDGE]
            ok &= check(f"criterion 4: core-edge count verdict d={d} r={r}",
                        ii == 4 * (r - 1),
                        f"enumerated {ii}; ordered-class value 4(r-1)={4 * (r - 1)} confirmed, "
                        f"unordered value r-1={r - 1} inconsistent with the combined count")
    assert ok


def test_criterion_5_soundness_on_ppt_states():
    print()
    rng = substream(101, 0)
    strategies = [LutStrategy.identity(), LutStrategy.hadamard_b(), LutStrategy.hadamard_both()]
    detections = 0
    checked = 0

    # separable-region Schmidt-form states, exhaustive over selections
    for _ in range(6000):
        d = int(rng.integers(2, 6))
        r = int(rng.integers(2, d + 1))
        amax = 1 / np.sqrt(r - 1)
        alpha = float(rng.uniform(0.05 * amax, 0.95 * amax))
        thr = conditioning_threshold(d, r, alpha, IcpsGroundTruth.NPT)
        v = float(rng.uniform(0.0, 0.999 * thr))
        rho = make_icps(IcpsParams(d, r, alpha, v))
        pinned = LutStrategy.random_both(u_a=haar_unitary(d, rng), v_b=haar_unitary(d, rng))
        for strat in strategies + [pinned]:
            detections += brute_force_counts(rho, strat).detected
        checked += 1

    # random separable product mixtures, exhaustive over selections
    for _ in range(4000):
        d = int(rng.integers(2, 4))
        rho = random_product_mixture(d, int(rng.integers(1, 9)), rng)
        pinned = LutStrategy.random_both(u_a=haar_unitary(d, rng), v_b=haar_unitary(d, rng))
        for strat in strategies + [pinned]:
            detections += brute_force_counts(rho, strat).detected
        checked += 1

    ok = check("criterion 5: zero detections across 10^4 PPT states, all selections/strategies",
               checked == 10_000 and detections == 0,
               f"states {checked}, detections {detections}")

    # explicit parallel-mode trials on a subsample (each disjoint pair is one
    # of the enumerated selections, so this cannot add detections)
    from quditwitness import run_trial
    par_hits = 0
    for _ in range(500):
        d = int(rng.integers(2, 6))
        r = int(rng.integers(2, d + 1))
        alpha = float(rng.uniform(0.1, 0.9) / np.sqrt(r - 1))
        thr = conditioning_threshold(d, r, alpha, IcpsGroundTruth.NPT)
        rho = make_icps(IcpsParams(d, r, alpha, float(rng.uniform(0, 0.999 * thr))))
        par_hits += run_trial(rho, rng, mode=Mode.PARALLEL).detected
    ok &= check("criterion 5: parallel-mode trials on PPT states", par_hits == 0,
                f"detections {par_hits}/500")
    assert ok


def test_criterion_6_pure_state_completeness():
    print()
    rng = substream(202, 0)
    found = 0
    n = 1000
    for _ in range(n):
        d = int(rng.integers(2, 7))
        r = int(rng.integers(2, d + 1))
        while True:
            probs = rng.dirichlet(np.ones(r))
            if probs.min() > 1e-6:
                break
        psi = schmidt_vector(np.sqrt(probs), d)
        rho = DensityMatrix.from_pure(psi, d, d)
        if brute_force_counts(rho, LutStrategy.identity()).detected > 0:
            found += 1
    assert check("criterion 6: every pure Schmidt-rank>=2 state has a detecting selection",
                 found == n, f"{found}/{n} detected")


def test_criterion_7_collective_equivalence(rng):
    print()
    worst = 0.0
    for _ in range(1000):
        rho = random_density(rng, 2, 2)
        worst = max(worst, abs(fef_from_collective(rho).score - fef_witness(rho).score))
    assert check("criterion 7: 10-setting collective witness equals direct witness",
                 worst <= 1e-9 and SETTINGS == 10,
                 f"max |delta score| = {worst:.2e}, settings = {SETTINGS}")


def test_criterion_8_determinism_across_workers(tmp_path):
    print()
    ok = True
    # (args, name, tasks): run_tasks caps the pool at the task count, so a
    # one-task job runs serially at every --workers and would check nothing
    jobs = [
        (["icps-sweep", "--d", "4", "--r", "3", "--mode", "both",
          "--samples", "17000", "--seed", "99"], "icps-sweep", len(engine.chunk_sizes(17000, 4))),
        (["random-sweep", "--d", "3", "--noise", "0.4", "--mode", "both",
          "--samples", "17000", "--seed", "99"], "random-sweep", len(engine.chunk_sizes(17000, 3))),
        (["grid", "--d", "3", "--r", "2", "--alpha-steps", "2", "--v-steps", "3",
          "--trials", "500", "--strategy", "all", "--seed", "99"], "grid",
         2 * 3 * len(engine.chunk_sizes(500, 3))),
    ]
    for args, name, tasks in jobs:
        assert tasks >= 2, f"{name} runs as one task"
        blobs = []
        for i, workers in enumerate((1, 2, 1)):
            out = tmp_path / f"{name}-{i}.csv"
            assert main(args + ["--workers", str(workers), "--out", str(out)]) == 0
            blobs.append(out.read_bytes())
        ok &= check(f"criterion 8: byte-identical {name} output for worker counts 1/2",
                    blobs[0] == blobs[1] == blobs[2], f"{len(blobs[0])} bytes, {tasks} tasks")
    assert ok
