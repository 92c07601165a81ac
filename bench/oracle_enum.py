"""Library driver for the oracle-enum workload: exhaustive selection enumeration.

Builds a seeded batch of Schmidt-form states, the same number for each d in
3..9 (so the enumerated work does not depend on the seed), with r drawn from
2..d.  Even-numbered states of each d sit below the exact entanglement
threshold (PPT); odd ones sit above max(v_a, v_b).  Every state is enumerated
with ``brute_force_counts`` under identity, hadamard_b, hadamard_both and a
pinned random_both pair.  The run bypasses the process pool and the amplitude
kernel; it exercises oracles, transforms, states, linalg and the submatrix
witness kernel.

The package functions are called through their module attributes
(``states.make_icps`` and so on), so a tracer can rebind them.

    PYTHONPATH=src python3 bench/oracle_enum.py --seed 1 --per-d 6 --out enum.csv
"""
from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from quditwitness import __version__, linalg, oracles, states
from quditwitness.transforms import LutStrategy

D_RANGE = range(3, 10)
STRATEGIES = ("identity", "hadamard_b", "hadamard_both", "random_both")
HEADER = "state,d,r,alpha,v,half," + ",".join(STRATEGIES) + ",classes"


def make_batch(seed: int, per_d: int) -> list[tuple[int, int, float, float, str]]:
    """(d, r, alpha, v, half) per state, from the benchmark's own generator.

    Thresholds are the closed forms v_a = 1/(1 + d^2 a^2) and
    v_b = 1/(1 + d^2 a a_r); the entanglement boundary is min(v_a, v_b) for
    r >= 3 and v_b for r = 2.  alpha stays inside (0, 1/sqrt(r-1)) so both
    thresholds lie strictly below 1.
    """
    rng = np.random.default_rng(seed)
    batch, seen = [], Counter()
    for d in rng.permutation(np.repeat(np.array(D_RANGE), per_d)):
        d = int(d)
        seen[d] += 1
        r = int(rng.integers(2, d + 1))
        alpha = float(rng.uniform(0.1, 0.9) / np.sqrt(r - 1))
        alpha_r = np.sqrt(1.0 - (r - 1) * alpha ** 2)
        v_a = 1.0 / (1.0 + d * d * alpha ** 2)
        v_b = 1.0 / (1.0 + d * d * alpha * alpha_r)
        boundary = min(v_a, v_b) if r >= 3 else v_b
        if seen[d] % 2:
            batch.append((d, r, alpha, float(boundary * rng.uniform(0.0, 0.9)), "ppt"))
        else:
            top = max(v_a, v_b)
            batch.append((d, r, alpha, float(top + (1.0 - top) * rng.uniform(0.1, 1.0)),
                          "entangled"))
    return batch


def run(seed: int, per_d: int) -> str:
    """Enumerate every state of the batch; returns the result table as text."""
    rng = np.random.default_rng([seed, 1])
    lines = [HEADER]
    for i, (d, r, alpha, v, half) in enumerate(make_batch(seed, per_d)):
        rho = states.make_icps(states.IcpsParams(d, r, alpha, v))
        pinned = LutStrategy.random_both(linalg.haar_unitary(d, rng), linalg.haar_unitary(d, rng))
        luts = (LutStrategy.identity(), LutStrategy.hadamard_b(), LutStrategy.hadamard_both(),
                pinned)
        counts = [oracles.brute_force_counts(rho, lut) for lut in luts]
        lines.append(f"{i},{d},{r},{alpha!r},{v!r},{half}," +
                     ",".join(str(c.detected) for c in counts) + f",{counts[0].total}")
    return "\n".join(lines) + "\n"


def classes(per_d: int) -> int:
    """Selection classes one run enumerates: d^2 (d-1)^2 per state and strategy."""
    return per_d * len(STRATEGIES) * sum(d * d * (d - 1) ** 2 for d in D_RANGE)


def check(text: str, seed: int, per_d: int) -> list[str]:
    """Zero detections on PPT states; identity finds 2r(r-1) classes when entangled."""
    rows = [line.split(",") for line in text.splitlines()]
    if not rows or ",".join(rows[0]) != HEADER:
        return ["oracle-enum: missing or wrong header"]
    problems = []
    expected = make_batch(seed, per_d)
    if len(rows) - 1 != len(expected):
        problems.append(f"oracle-enum: {len(rows) - 1} states, expected {len(expected)}")
    for row, (d, r, _, _, half) in zip(rows[1:], expected):
        if len(row) != len(rows[0]):
            problems.append(f"oracle-enum: malformed row {row}")
            continue
        hits = [int(x) for x in row[6:10]]
        if int(row[10]) != d * d * (d - 1) ** 2:
            problems.append(f"oracle-enum state {row[0]}: {row[10]} classes for d={d}")
        if half == "ppt" and any(hits):
            problems.append(f"oracle-enum state {row[0]}: PPT state detected {hits}")
        if half == "entangled" and hits[0] != 2 * r * (r - 1):
            problems.append(f"oracle-enum state {row[0]}: identity found {hits[0]} "
                            f"classes, expected 2r(r-1) = {2 * r * (r - 1)}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"quditwitness {__version__}")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--per-d", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    Path(args.out).write_text(run(args.seed, args.per_d))
    return 0


if __name__ == "__main__":
    sys.exit(main())
