"""Pinned outputs: the data rows of small sweeps, and the enumeration oracle's
counts on a seeded batch, must not change.

pinned_cli_rows.json holds, per run, every line below the '#' header lines of
the CSV written by the commands in RUNS.  The numbers were recorded once and
are compared verbatim, so any change to the RNG draw order, the chunking, the
detection rule or the ground-truth rules shows up as a failing run.  Criterion 8
of the acceptance suite only compares worker counts against each other; this
test compares against the recorded bytes.
"""
import json
from pathlib import Path

import numpy as np
import pytest

from quditwitness import (IcpsGroundTruth, IcpsParams, LutStrategy, brute_force_counts,
                          conditioning_threshold, haar_unitary, make_icps,
                          random_product_mixture)
from quditwitness.cli import main

PINNED = Path(__file__).with_name("pinned_cli_rows.json")

ALL4 = ["--strategies", "identity", "hadamard_b", "hadamard_both", "random_both"]

# 17000 samples span a full 16384-row chunk and a short one.
RUNS = {
    **{f"icps-d5r3-{sel}-{gt}": ["icps-sweep", "--d", "5", "--r", "3", *ALL4, "--mode", "both",
                                 "--combined-selection", sel, "--ground-truth", gt,
                                 "--samples", "17000", "--seed", "21"]
       for sel in ("fresh", "shared") for gt in ("npt", "rank2")},
    **{f"icps-d4r2-fresh-{gt}": ["icps-sweep", "--d", "4", "--r", "2", *ALL4, "--mode", "both",
                                 "--ground-truth", gt, "--samples", "3000", "--seed", "22"]
       for gt in ("npt", "rank2")},
    # two full chunks and a short one, both modes from one draw per chunk
    "icps-d5r3-all4-both-shared-npt-40000": ["icps-sweep", "--d", "5", "--r", "3", *ALL4,
                                             "--mode", "both", "--combined-selection", "shared",
                                             "--ground-truth", "npt", "--samples", "40000",
                                             "--seed", "25"],
    # d = 2: the Hadamard is 2x2 and every selection takes both levels
    "icps-d2r2-all4-both": ["icps-sweep", "--d", "2", "--r", "2", *ALL4, "--mode", "both",
                            "--samples", "17000", "--seed", "23"],
    "grid-d4r3-all-single": ["grid", "--d", "4", "--r", "3", "--alpha-steps", "3",
                             "--v-steps", "3", "--trials", "300", "--strategy", "all",
                             "--mode", "single", "--seed", "4"],
    "grid-d4r3-all-parallel-shared": ["grid", "--d", "4", "--r", "3", "--alpha-steps", "3",
                                      "--v-steps", "3", "--trials", "300", "--strategy", "all",
                                      "--mode", "parallel", "--combined-selection", "shared",
                                      "--seed", "4"],
    "grid-d3r2-all-parallel": ["grid", "--d", "3", "--r", "2", "--alpha-steps", "2",
                               "--v-steps", "3", "--trials", "400", "--strategy", "all",
                               "--mode", "parallel", "--seed", "5"],
    "grid-d5r4-random-single-shared": ["grid", "--d", "5", "--r", "4", "--alpha-steps", "2",
                                       "--v-steps", "2", "--trials", "500",
                                       "--strategy", "random_both", "--mode", "single",
                                       "--combined-selection", "shared", "--seed", "6"],
    "grid-d5r4-random-parallel": ["grid", "--d", "5", "--r", "4", "--alpha-steps", "2",
                                  "--v-steps", "2", "--trials", "500",
                                  "--strategy", "random_both", "--mode", "parallel",
                                  "--seed", "6"],
    "random-d4": ["random-sweep", "--d", "4", "--noise", "0.1", "0.5", "0.9", "--mode", "both",
                  "--samples", "17000", "--seed", "6"],
    "random-d3": ["random-sweep", "--d", "3", "--noise", "0.3", "--mode", "both",
                  "--samples", "2000", "--seed", "7"],
    # odd d leaves a level out of every permutation; unsorted, repeated noises
    "random-d5-parallel-unsorted-repeat": ["random-sweep", "--d", "5", "--noise", "0.6", "0.2",
                                           "0.6", "--mode", "parallel", "--samples", "17000",
                                           "--seed", "8"],
    "random-d4-single-17000": ["random-sweep", "--d", "4", "--noise", "0.3", "--mode", "single",
                               "--samples", "17000", "--seed", "9"],
    # d = 9: the Cauchy-Binet bounds settle every row at noise 0.2 and none at 0.9,
    # so the second noise level takes each row's NPT flag from the SVD
    "random-d9-settled-and-undecided": ["random-sweep", "--d", "9", "--noise", "0.2", "0.9",
                                        "--mode", "both", "--samples", "17000", "--seed", "41"],
    # CI's runs above the class table's d <= 16 cap: drawn classes in three chunks of
    # 14513 rows, and the per-process (K0, K1) tables in 20 chunks of 1024 rows
    "icps17": ["icps-sweep", "--d", "17", "--r", "3", "--mode", "both", "--samples", "30000",
               "--seed", "1"],
    "icps64": ["icps-sweep", "--d", "64", "--r", "5", "--strategies", "hadamard_b",
               "hadamard_both", "--mode", "both", "--samples", "20000", "--seed", "1"],
    # CI's Haar-state run above the cap, streamed inside chunks of 14513, 14513 and 974 rows
    "random17": ["random-sweep", "--d", "17", "--noise", "0.6", "--mode", "both",
                 "--samples", "30000", "--seed", "1"],
    # random_both's per-sample Haar stacks at d = 32: chunks of 4096 rows and 1 row
    "rb32-4097": ["icps-sweep", "--d", "32", "--r", "2", "--strategies", "random_both",
                  "--mode", "single", "--samples", "4097", "--seed", "1"],
    # CI's grid runs: the class table at d = 3 and at odd d = 9 in parallel mode, and a
    # selection shared by the strategies
    "grid": ["grid", "--d", "3", "--r", "2", "--alpha-steps", "2", "--v-steps", "2",
             "--trials", "50", "--seed", "1"],
    "grid9": ["grid", "--d", "9", "--r", "4", "--mode", "parallel", "--alpha-steps", "2",
              "--v-steps", "2", "--trials", "50", "--seed", "1"],
    "gridshared": ["grid", "--d", "3", "--r", "3", "--combined-selection", "shared",
                   "--alpha-steps", "2", "--v-steps", "2", "--trials", "50", "--seed", "1"],
    # above the cap: each cell spans chunks of 14513 and 487 rows on the drawn-class path
    "grid17": ["grid", "--d", "17", "--r", "3", "--alpha-steps", "1", "--v-steps", "2",
               "--trials", "15000", "--seed", "1"],
    # CI's other loop runs: random_both stacks with a shared selection, Haar states at d = 4
    # and at d = 9, where the SVD fallback scores most rows, and the NPT ground truth
    "icps": ["icps-sweep", "--d", "5", "--r", "3", "--strategies", "random_both", "hadamard_b",
             "--combined-selection", "shared", "--mode", "both", "--samples", "17000",
             "--seed", "1"],
    "random": ["random-sweep", "--d", "4", "--noise", "0.6", "0.2", "0.6", "--mode", "both",
               "--samples", "17000", "--seed", "1"],
    "random9": ["random-sweep", "--d", "9", "--noise", "0.8", "0.9", "--mode", "both",
                "--samples", "17000", "--seed", "1"],
    "npt": ["icps-sweep", "--d", "4", "--r", "3", "--ground-truth", "npt", "--mode", "both",
            "--samples", "17000", "--seed", "1"],
    # level pairs in blocks of CHUNK // (4 rows) per RUN_ROWS slice: a 2621-row chunk as 2048
    # rows in ten blocks of 2 of its 20 pairs and 573 rows in blocks of 7, 7 and 6, then a
    # 379-row chunk in two blocks of 10; random_both's 16 pairs in eight blocks of 2
    "icps40": ["icps-sweep", "--d", "40", "--r", "7", "--mode", "parallel", "--samples", "3000",
               "--seed", "1"],
    "rb32par": ["icps-sweep", "--d", "32", "--r", "4", "--strategies", "random_both",
                "--mode", "parallel", "--samples", "1500", "--seed", "1"],
    # the benchmark's icps-table, random-table and grid-cells commands (bench/workloads.py)
    "bench-icps-table": ["icps-sweep", "--d", "9", "--r", "9", "--mode", "both",
                         "--samples", "65536", "--seed", "5"],
    "bench-random-table": ["random-sweep", "--d", "9", "--noise", "0.2", "0.4", "0.6",
                           "--mode", "both", "--samples", "32768", "--seed", "5"],
    "bench-grid-cells": ["grid", "--d", "5", "--r", "5", "--alpha-steps", "20", "--v-steps", "20",
                         "--trials", "1000", "--strategy", "all", "--mode", "single",
                         "--seed", "5"],
}


def data_rows(argv: list[str], out: Path) -> list[str]:
    assert main(argv + ["--workers", "1", "--out", str(out)]) == 0
    return [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]


@pytest.fixture(scope="module")
def pinned() -> dict:
    return json.loads(PINNED.read_text())


def test_pinned_runs_cover_every_command(pinned):
    assert set(pinned) == set(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_pinned_cli_rows(name, pinned, tmp_path):
    assert data_rows(RUNS[name], tmp_path / "out.csv") == pinned[name]


def oracle_batch():
    """(label, state, strategies) of a seeded batch for the enumeration oracle.

    Per d in 2..9, three Schmidt-form states: below the NPT threshold (ppt),
    1e-9 above it (edge) and well above it (entangled).  Then random product
    mixtures at d = 2 and 3.  Each state runs under identity, hadamard_b,
    hadamard_both and a pinned random_both pair.
    """
    rng = np.random.default_rng(31)

    def strategies(d):
        return (LutStrategy.identity(), LutStrategy.hadamard_b(), LutStrategy.hadamard_both(),
                LutStrategy.random_both(haar_unitary(d, rng), haar_unitary(d, rng)))

    for d in range(2, 10):
        for half in ("ppt", "edge", "entangled"):
            r = int(rng.integers(2, d + 1))
            alpha = float(rng.uniform(0.1, 0.9) / np.sqrt(r - 1))
            thr = float(conditioning_threshold(d, r, alpha, IcpsGroundTruth.NPT))
            v = {"ppt": thr * rng.uniform(0.0, 0.999), "edge": thr + 1e-9,
                 "entangled": thr + (1.0 - thr) * rng.uniform(0.01, 1.0)}[half]
            yield f"d{d}r{r}-{half}", make_icps(IcpsParams(d, r, alpha, float(v))), strategies(d)
    for d in (2, 3):
        yield f"product-d{d}", random_product_mixture(d, 4, rng), strategies(d)


# brute_force_counts(...).detected per strategy, recorded before the oracle
# settled classes from invariant bounds (every class then took an SVD)
PINNED_ORACLE = {
    "d2r2-ppt": [0, 0, 0, 0],
    "d2r2-edge": [4, 4, 4, 4],
    "d2r2-entangled": [4, 4, 4, 4],
    "d3r3-ppt": [0, 0, 0, 0],
    "d3r3-edge": [8, 0, 0, 0],
    "d3r2-entangled": [4, 12, 36, 36],
    "d4r3-ppt": [0, 0, 0, 0],
    "d4r4-edge": [12, 0, 0, 0],
    "d4r4-entangled": [12, 64, 24, 40],
    "d5r3-ppt": [0, 0, 0, 0],
    "d5r4-edge": [12, 0, 0, 0],
    "d5r5-entangled": [40, 400, 280, 380],
    "d6r3-ppt": [0, 0, 0, 0],
    "d6r6-edge": [20, 0, 0, 0],
    "d6r4-entangled": [24, 144, 660, 448],
    "d7r3-ppt": [0, 0, 0, 0],
    "d7r2-edge": [4, 0, 0, 0],
    "d7r4-entangled": [24, 252, 1316, 880],
    "d8r2-ppt": [0, 0, 0, 0],
    "d8r3-edge": [8, 0, 0, 0],
    "d8r3-entangled": [12, 288, 2944, 2256],
    "d9r3-ppt": [0, 0, 0, 0],
    "d9r6-edge": [20, 0, 0, 0],
    "d9r8-entangled": [112, 576, 144, 272],
    "product-d2": [0, 0, 0, 0],
    "product-d3": [0, 0, 0, 0],
}


def test_pinned_oracle_counts():
    counts = {label: [brute_force_counts(rho, s).detected for s in strats]
              for label, rho, strats in oracle_batch()}
    assert counts == PINNED_ORACLE
