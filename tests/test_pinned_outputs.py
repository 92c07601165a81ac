"""Pinned CLI outputs: the data rows of small sweeps must not change.

pinned_cli_rows.json holds, per run, every line below the '#' header lines of
the CSV written by the commands in RUNS.  The numbers were recorded once and
are compared verbatim, so any change to the RNG draw order, the chunking, the
detection rule or the ground-truth rules shows up as a failing run.  Criterion 8
of the acceptance suite only compares worker counts against each other; this
test compares against the recorded bytes.
"""
import json
from pathlib import Path

import pytest

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
