"""The four benchmark workloads: what each runs, its work units and its output check.

Why these four (each stresses a different layer):
- icps-table: the paper's headline sensitivity table, icps-sweep d=9 r=9 in
  both modes.  Large 16384-row chunks, so the witness amplitude kernel
  dominates.
- random-table: random-sweep d=9 at three noise levels in both modes.  The
  Ginibre draws and the ground-truth SVD in engine dominate, and it starts six
  pools; a witness-only change should move it little.
- grid-cells: a 20x20 (alpha, v) grid at d=5 with 1000 trials per cell.  Same
  kernel as icps-table but in 400 small tasks, so it measures per-call and
  per-task overhead.
- oracle-enum: exhaustive selection enumeration (bench/oracle_enum.py).  The
  only workload that measures oracles; it bypasses the pool and the amplitude
  kernel.

Sample counts are multiples of the engine's 16384-row chunk so both workers of
a two-process pool get equal work.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable

import numpy as np

import oracle_enum

# d=9 rows of the reference tables (percent) that the acceptance suite checks
# within 1.5 pp at 1e5 samples; keys are (strategy, mode) and (v, mode).
TABLE_ICPS_D9_R9 = {
    ("identity", "single"): 2.1, ("hadamard_b", "single"): 36.7,
    ("hadamard_both", "single"): 19.6, ("combined", "single"): 45.3,
    ("identity", "parallel"): 7.7, ("hadamard_b", "parallel"): 59.8,
    ("hadamard_both", "parallel"): 42.1, ("combined", "parallel"): 66.2,
}
TABLE_QUASI_D9 = {
    (0.8, "single"): 94.6, (0.6, "single"): 71.3, (0.4, "single"): 27.9,
    (0.8, "parallel"): 100.0, (0.6, "parallel"): 99.5, (0.4, "parallel"): 74.0,
}
TOL_PP = 1.5
# Added to TOL_PP in units of the binomial standard error at the run's count.
SAMPLING_Z = 4.0
# Two-sided exact binomial tail probability below which a grid cell fails.
GRID_PVALUE = 1e-9

ICPS_SAMPLES = 4 * 16384
QUASI_SAMPLES = 2 * 16384
NOISES = (0.2, 0.4, 0.6)
GRID = dict(d=5, r=5, steps=20, trials=1000)
ENUM_PER_D = 6


@dataclass(frozen=True)
class Workload:
    name: str
    units: int          # work units per run, for samples_per_s
    unit_doc: str
    cli_args: list      # CLI arguments without --workers/--out; None for oracle-enum
    check: Callable[[str], list]   # output text -> list of problems


def read_rows(text: str) -> list[dict]:
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    if not lines:
        return []
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def _table_check(name: str, text: str, key: Callable[[dict], tuple], table: dict,
                 samples: int) -> list[str]:
    rows = {key(row): row for row in read_rows(text)}
    problems = []
    for k, ref in table.items():
        row = rows.get(k)
        if row is None:
            problems.append(f"{name}: no row for {k}")
            continue
        det, ent, n = int(row["detected"]), int(row["entangled"]), int(row["samples"])
        if n != samples or not 0 < ent <= n or not 0 <= det <= ent:
            problems.append(f"{name} {k}: inconsistent counts {det}/{ent}/{n}")
            continue
        p = det / ent
        tol = TOL_PP + SAMPLING_Z * 100 * math.sqrt(max(p * (1 - p), 1e-12) / ent)
        if abs(100 * p - ref) > tol:
            problems.append(f"{name} {k}: {100 * p:.2f}% vs reference {ref}% "
                            f"(tolerance {tol:.2f} pp)")
    return problems


def check_icps(text: str) -> list[str]:
    return _table_check("icps-table", text, lambda r: (r["strategy"], r["mode"]),
                        TABLE_ICPS_D9_R9, ICPS_SAMPLES)


def check_quasi(text: str) -> list[str]:
    return _table_check("random-table", text, lambda r: (float(r["v"]), r["mode"]),
                        TABLE_QUASI_D9, QUASI_SAMPLES)


def _grid_exact() -> dict:
    """Exact per-strategy detection probability at each cell centre, by enumeration."""
    from quditwitness import IcpsParams, LutStrategy, brute_force_counts, make_icps
    d, r, steps = GRID["d"], GRID["r"], GRID["steps"]
    amax = 1.0 / math.sqrt(r - 1)
    luts = {"identity": LutStrategy.identity(), "hadamard_b": LutStrategy.hadamard_b(),
            "hadamard_both": LutStrategy.hadamard_both()}
    exact = {}
    for ia in range(steps):
        for iv in range(steps):
            alpha, v = (ia + 0.5) / steps * amax, (iv + 0.5) / steps
            rho = make_icps(IcpsParams(d, r, alpha, v))
            probs = {k: brute_force_counts(rho, lut).sensitivity for k, lut in luts.items()}
            probs["combined"] = 1.0 - math.prod(1.0 - p for p in probs.values())
            exact[(ia, iv)] = probs
    return exact


def binomial_pvalues(k: np.ndarray, n: int, p: np.ndarray) -> np.ndarray:
    """Two-sided exact binomial tail probabilities, 2 min(P[X<=k], P[X>=k])."""
    ks = np.arange(n + 1)
    log_comb = (math.lgamma(n + 1) - np.array([math.lgamma(x + 1) for x in ks])
                - np.array([math.lgamma(n - x + 1) for x in ks]))
    inner = (p > 0) & (p < 1)
    pc = np.where(inner, p, 0.5)[:, None]
    pmf = np.exp(log_comb + ks * np.log(pc) + (n - ks) * np.log1p(-pc))
    rows = np.arange(len(k))
    lower = np.cumsum(pmf, axis=1)[rows, k]
    upper = np.cumsum(pmf[:, ::-1], axis=1)[:, ::-1][rows, k]
    out = np.minimum(1.0, 2.0 * np.minimum(lower, upper))
    # degenerate p: the count must be exactly 0 (p = 0) or n (p = 1)
    return np.where(inner, out, np.where((p <= 0) & (k == 0) | (p >= 1) & (k == n), 1.0, 0.0))


class GridCheck:
    """Each cell and strategy against its exact probability; built once per process."""

    def __init__(self):
        self._exact = None

    def __call__(self, text: str) -> list[str]:
        if self._exact is None:
            self._exact = _grid_exact()
        r, steps, trials = GRID["r"], GRID["steps"], GRID["trials"]
        amax = 1.0 / math.sqrt(r - 1)
        rows = read_rows(text)
        expected = len(self._exact) * 4
        if len(rows) != expected:
            return [f"grid-cells: {len(rows)} rows, expected {expected}"]
        problems, ks, ps, labels = [], [], [], []
        for row in rows:
            alpha, v = float(row["alpha"]), float(row["v"])
            ia, iv = round(alpha / amax * steps - 0.5), round(v * steps - 0.5)
            exact = self._exact.get((ia, iv), {}).get(row["strategy"])
            if (exact is None or abs(alpha - (ia + 0.5) / steps * amax) > 1e-12
                    or abs(v - (iv + 0.5) / steps) > 1e-12 or int(row["samples"]) != trials):
                problems.append(f"grid-cells: unexpected row {row}")
                continue
            ks.append(int(row["detected"]))
            ps.append(exact)
            labels.append(f"alpha={alpha:.4f} v={v:.3f} {row['strategy']}")
        if problems:
            return problems[:5]
        pvals = binomial_pvalues(np.array(ks), trials, np.array(ps))
        for i in np.flatnonzero(pvals < GRID_PVALUE)[:5]:
            problems.append(f"grid-cells {labels[i]}: {ks[i]}/{trials} detected, exact "
                            f"p={ps[i]:.6f}, binomial tail {pvals[i]:.2e}")
        return problems


def make(name: str, seed: int) -> Workload:
    if name == "icps-table":
        args = ["icps-sweep", "--d", "9", "--r", "9", "--mode", "both",
                "--samples", str(ICPS_SAMPLES), "--seed", str(seed)]
        return Workload(name, ICPS_SAMPLES * 2, f"samples x modes ({ICPS_SAMPLES} x 2)",
                        args, check_icps)
    if name == "random-table":
        args = ["random-sweep", "--d", "9", "--noise", *map(str, NOISES), "--mode", "both",
                "--samples", str(QUASI_SAMPLES), "--seed", str(seed)]
        return Workload(name, QUASI_SAMPLES * len(NOISES) * 2,
                        f"samples x noise levels x modes ({QUASI_SAMPLES} x {len(NOISES)} x 2)",
                        args, check_quasi)
    if name == "grid-cells":
        g = GRID
        args = ["grid", "--d", str(g["d"]), "--r", str(g["r"]), "--alpha-steps", str(g["steps"]),
                "--v-steps", str(g["steps"]), "--trials", str(g["trials"]), "--strategy", "all",
                "--mode", "single", "--seed", str(seed)]
        return Workload(name, g["steps"] ** 2 * g["trials"],
                        f"cells x trials ({g['steps'] ** 2} x {g['trials']})", args, GridCheck())
    if name == "oracle-enum":
        return Workload(name, oracle_enum.classes(ENUM_PER_D),
                        f"selection classes enumerated ({len(oracle_enum.D_RANGE) * ENUM_PER_D} "
                        f"states x {len(oracle_enum.STRATEGIES)} strategies)", None,
                        lambda text: oracle_enum.check(text, seed, ENUM_PER_D))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("icps-table", "random-table", "grid-cells", "oracle-enum")


def subprocess_argv(w: Workload, seed: int, workers: int, out: str) -> list[str]:
    """A fresh process running the workload, as a user would start it."""
    if w.cli_args is None:
        return [sys.executable, oracle_enum.__file__, "--seed", str(seed),
                "--per-d", str(ENUM_PER_D), "--out", out]
    return [sys.executable, "-m", "quditwitness", *w.cli_args,
            "--workers", str(workers), "--out", out]


def probe_argv(w: Workload) -> list[str]:
    """Start-up probe: interpreter start, package import and argument parsing."""
    if w.cli_args is None:
        return [sys.executable, oracle_enum.__file__, "--version"]
    return [sys.executable, "-m", "quditwitness", "--version"]


def run_inprocess(w: Workload, seed: int, workers: int, out: str) -> None:
    if w.cli_args is None:
        with open(out, "w") as fh:
            fh.write(oracle_enum.run(seed, ENUM_PER_D))
        return
    from quditwitness import cli
    code = cli.main([*w.cli_args, "--workers", str(workers), "--out", out])
    if code != 0:
        raise RuntimeError(f"{w.name}: quditwitness exited {code}")
