"""quditwitness benchmark: end-to-end metrics per workload, or a traced run per layer.

    python3 bench/run.py --workload icps-table --seed 1 --seconds 15 --trace 0

Run from a source checkout; the package is imported from ``src/`` (nothing is
installed).  Workloads and their output checks are in workloads.py.

--trace 0 (end to end, tracing off):
  setup_s        median wall time of a fresh ``python3 -m quditwitness --version``
                 (the oracle-enum driver's ``--version`` for oracle-enum):
                 interpreter start, package import and argument parsing.
  wall_s         median wall time of one workload run in a fresh process at
                 --workers (default min(2, nproc)), from start to exit.
  cpu_s          median user+system CPU time of the run's process tree, from
                 wait4 rusage (pool workers included once reaped).
  samples_per_s  median work units per wall second; the unit is stated per
                 workload in the output.
  peak_rss_mb    median of the largest peak RSS of any process in the run's
                 tree (wait4 ru_maxrss covers the process and its reaped
                 children as a maximum, not a sum).  Children are started by
                 spawn.py so the benchmark's own memory does not leak in.
  Runs repeat until --seconds have passed.  A run fails when it exits
  nonzero, when its CSV differs from the first run's (same seed) or when that
  CSV fails the workload's check.  error_rate = failed / attempted is printed;
  it is 0 when all pass, so it reaches the result through "failed" rather than
  as a metric.

--trace 1 (per layer): one in-process run at --workers, then alternating
  untraced and traced in-process --workers 1 runs until --seconds have passed.
  Every CSV must be byte-identical and pass the workload's check.  Layers are
  timed from this directory by rebinding the names each calling module looks
  up (tracing.py); src/quditwitness is not modified.  Times are medians over
  the traced runs; counts must repeat exactly between them.  A layer off a
  workload's path reads 0 (the CLI sweeps never call linalg.haar_unitary,
  oracles or states; oracle-enum never calls engine, montecarlo or cli).
  *_self_s is a span's time minus its child spans; the layer self-times plus
  trace.unattributed_s (time outside every span) add up to trace.wall_s.
  *_bytes_per_row is computed from the kernel's argument and result array
  sizes, not measured.  engine.pool_starts counts ProcessPoolExecutor
  constructions in the --workers run; engine.pool_efficiency is the serial
  run_tasks time of the untraced runs over --workers x run_tasks time at
  --workers; engine.pool_startup_s is run_tasks at --workers on two one-row
  tasks; trace.overhead_frac compares traced and untraced wall times.  Spans
  go to .bench_build/bench/<workload>-seed<n>-trace1.json.

The last line of stdout is the JSON result.  Exit status 2 when the program
cannot be found or the arguments are invalid.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORD_DIR = ROOT / ".bench_build" / "bench"
SPAWN = Path(__file__).resolve().with_name("spawn.py")

SETUP_PROBES = 9
POOL_PROBES = 3
CHILD_TIMEOUT_S = 150.0
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("samples_per_s", "1/s"), ("peak_rss_mb", "MB"))

AMP = "witness.scores_from_amplitudes"
SUB = "witness.scores_from_submatrices"
RUN_TASKS = "engine.run_tasks"
POOL = "engine.pool"
HAAR = "linalg.haar_unitary"
HADAMARD = "transforms.qudit_hadamard"

# name -> unit; the order is the output order
PER_LAYER = {
    "witness.amp_s": "s", "witness.amp_calls": "count", "witness.amp_rows": "count",
    "witness.amp_ns_per_row": "ns/row", "witness.amp_bytes_per_row": "B/row",
    "witness.sub_s": "s", "witness.sub_rows": "count",
    "witness.sub_ns_per_row": "ns/row", "witness.sub_bytes_per_row": "B/row",
    "engine.self_s": "s", "engine.chunks": "count", "engine.rows": "count",
    "engine.pool_starts": "count", "engine.pool_startup_s": "s",
    "engine.pool_efficiency": "fraction",
    "rng.substream_s": "s", "rng.substreams": "count",
    "transforms.qudit_hadamard_s": "s", "transforms.apply_lut_s": "s",
    "linalg.haar_s": "s", "linalg.haar_calls": "count",
    "oracles.enum_self_s": "s", "oracles.all_selections_s": "s", "oracles.classes": "count",
    "states.make_icps_s": "s",
    "montecarlo.self_s": "s",
    "cli.self_s": "s", "cli.csv_bytes": "B",
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.overhead_frac": "fraction",
}


def summary(values: list[float]) -> dict:
    if len(values) > 1:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def git_revision() -> str | None:
    """HEAD of the checkout, read from .git without running git (None if absent)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(nproc: int, workers: int, seed: int) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": nproc, "workers": workers, "seed": seed,
            "python": platform.python_version(), "numpy": np.__version__, "blas": blas,
            "blas_thread_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
            "platform": platform.platform(), "machine": platform.machine(),
            "git_revision": git_revision()}


def run_child(argv: list[str], env: dict, errfile: Path) -> dict:
    """Run argv to completion through spawn.py: wall time and its tree's rusage."""
    out = subprocess.run([sys.executable, str(SPAWN), str(CHILD_TIMEOUT_S), str(errfile), *argv],
                         cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


# -- end to end ---------------------------------------------------------------

def measure_end_to_end(w, seed: int, workers: int, seconds: float, tmp: Path, env: dict):
    """Start-up probes, then fresh-process runs of the workload until `seconds` pass.

    A run fails when it exits nonzero or when its CSV differs from the first
    run's (same seed, so it must not); every run fails when that CSV fails the
    workload's check or a start-up probe fails.
    """
    import workloads

    probe = workloads.probe_argv(w)
    run_child(probe, env, tmp / "err")  # warm-up, not recorded
    setup, probe_problems = [], []
    for _ in range(SETUP_PROBES):
        r = run_child(probe, env, tmp / "err")
        if r["code"] != 0:
            probe_problems.append(f"setup probe exited {r['code']}: "
                                  f"{(tmp / 'err').read_text()[-300:]}")
        setup.append(r["wall_s"])

    problems, runs, outputs = [], [], []
    out = tmp / "run.csv"
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        out.unlink(missing_ok=True)
        r = run_child(workloads.subprocess_argv(w, seed, workers, str(out)), env, tmp / "err")
        if r["code"] != 0 or not out.is_file():
            problems.append(f"run {len(runs)} exited {r['code']}: "
                            f"{(tmp / 'err').read_text()[-300:]}")
        outputs.append(out.read_bytes() if r["code"] == 0 and out.is_file() else None)
        r["samples_per_s"] = w.units / r["wall_s"]
        runs.append(r)

    ref = next((o for o in outputs if o is not None), None)
    fails_all = probe_problems + (w.check(ref.decode()) if ref is not None else [])
    problems += fails_all
    for i, o in enumerate(outputs):
        if o is not None and o != ref:
            problems.append(f"run {i}: CSV differs from the first run at the same seed")
    failed = sum(bool(fails_all) or o is None or o != ref for o in outputs)
    samples = {"setup_s": setup, **{k: [r[k] for r in runs] for k, _ in END_TO_END[1:]}}
    return samples, len(runs), failed, problems


# -- traced -------------------------------------------------------------------

def _kernel_counts(args, kwargs, result):
    import numpy as np
    arrays = [a for a in (*args, *kwargs.values(), *result) if isinstance(a, np.ndarray)]
    return {"rows": int(arrays[0].shape[0]), "bytes": int(sum(a.nbytes for a in arrays))}


def _task_counts(args, kwargs, result):
    return {"chunks": len(result), "rows": int(sum(int(r[0]) for r in result))}


def _enum_counts(args, kwargs, result):
    return {"classes": int(result.total)}


def install_layers(tr) -> None:
    """Wrap every layer boundary on the sweep and oracle paths."""
    from quditwitness import cli, engine, linalg, oracles, states, transforms
    tr.wrap(cli, "main", "cli.main")
    for fn in ("estimate_icps_sensitivity", "estimate_quasi_pure_sensitivity",
               "sweep_icps_grid"):
        tr.wrap(cli, fn, f"montecarlo.{fn}")
    tr.wrap(engine, "run_tasks", RUN_TASKS, _task_counts)
    tr.wrap(engine, "scores_from_amplitudes", AMP, _kernel_counts)
    tr.wrap(engine, "substream", "rng.substream")
    tr.wrap(engine, "haar_unitary", HAAR)
    tr.wrap(engine, "qudit_hadamard", HADAMARD)
    tr.wrap(oracles, "brute_force_counts", "oracles.brute_force_counts", _enum_counts)
    tr.wrap(oracles, "all_selections", "oracles.all_selections")
    tr.wrap(oracles, "apply_lut", "transforms.apply_lut")
    tr.wrap(oracles, "scores_from_submatrices", SUB, _kernel_counts)
    tr.wrap(transforms, "qudit_hadamard", HADAMARD)
    tr.wrap(transforms, "haar_unitary", HAAR)
    tr.wrap(linalg, "haar_unitary", HAAR)
    tr.wrap(states, "make_icps", "states.make_icps")


def install_pool_timer(tr) -> None:
    """Only run_tasks and pool construction: a handful of spans per run."""
    from quditwitness import engine
    tr.wrap(engine, "run_tasks", RUN_TASKS)
    tr.wrap(engine, "ProcessPoolExecutor", POOL)


def layer_values(tr, wall: float, csv_bytes: int) -> dict:
    """Per-layer times and counts of one traced run."""
    amp_rows, sub_rows = tr.total(AMP, "rows"), tr.total(SUB, "rows")
    layers = tr.layer_self_s()
    return {
        "witness.amp_s": tr.total(AMP), "witness.amp_calls": tr.calls(AMP),
        "witness.amp_rows": amp_rows,
        "witness.amp_ns_per_row": 1e9 * tr.total(AMP) / amp_rows if amp_rows else 0.0,
        "witness.amp_bytes_per_row": tr.total(AMP, "bytes") / amp_rows if amp_rows else 0.0,
        "witness.sub_s": tr.total(SUB), "witness.sub_rows": sub_rows,
        "witness.sub_ns_per_row": 1e9 * tr.total(SUB) / sub_rows if sub_rows else 0.0,
        "witness.sub_bytes_per_row": tr.total(SUB, "bytes") / sub_rows if sub_rows else 0.0,
        "engine.self_s": tr.self_total(RUN_TASKS),
        "engine.chunks": tr.total(RUN_TASKS, "chunks"), "engine.rows": tr.total(RUN_TASKS, "rows"),
        "rng.substream_s": tr.total("rng.substream"), "rng.substreams": tr.calls("rng.substream"),
        "transforms.qudit_hadamard_s": tr.total(HADAMARD),
        "transforms.apply_lut_s": tr.self_total("transforms.apply_lut"),
        "linalg.haar_s": tr.total(HAAR), "linalg.haar_calls": tr.calls(HAAR),
        "oracles.enum_self_s": tr.self_total("oracles.brute_force_counts"),
        "oracles.all_selections_s": tr.total("oracles.all_selections"),
        "oracles.classes": tr.total("oracles.brute_force_counts", "classes"),
        "states.make_icps_s": tr.total("states.make_icps"),
        "montecarlo.self_s": layers.get("montecarlo", 0.0),
        "cli.self_s": layers.get("cli", 0.0), "cli.csv_bytes": csv_bytes,
        "trace.wall_s": wall, "trace.unattributed_s": wall - tr.root_s(),
    }


COUNT_KEYS = tuple(k for k, unit in PER_LAYER.items() if unit in ("count", "B", "B/row"))


def pool_startup(workers: int) -> float:
    """run_tasks at --workers on two one-row tasks (a 1x2 grid with one trial)."""
    from quditwitness import GridSpec, sweep_icps_grid
    from tracing import Tracer
    with Tracer() as tr:
        install_pool_timer(tr)
        sweep_icps_grid(3, 2, GridSpec(1, 2, 1), workers=workers)
    return tr.total(RUN_TASKS)


def measure_layers(w, seed: int, workers: int, seconds: float, tmp: Path):
    import workloads
    from tracing import Tracer

    problems = []
    startup = [pool_startup(workers) for _ in range(POOL_PROBES)]
    # the --workers run goes first and also warms the process for the timed pairs
    out = tmp / "parallel.csv"
    with Tracer() as par:
        install_pool_timer(par)
        workloads.run_inprocess(w, seed, workers, str(out))
    csvs = [out.read_bytes()]
    untraced, traced, serial = [], [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        out = tmp / f"untraced{len(untraced)}.csv"
        with Tracer() as light:
            install_pool_timer(light)
            t0 = time.perf_counter()
            workloads.run_inprocess(w, seed, 1, str(out))
            untraced.append(time.perf_counter() - t0)
        serial.append(light.total(RUN_TASKS))
        csvs.append(out.read_bytes())

        out = tmp / f"traced{len(traced)}.csv"
        with Tracer() as tr:
            install_layers(tr)
            t0 = time.perf_counter()
            workloads.run_inprocess(w, seed, 1, str(out))
            wall = time.perf_counter() - t0
        csv = out.read_bytes()
        csvs.append(csv)
        traced.append(layer_values(tr, wall, len(csv) if w.cli_args else 0))

    if any(c != csvs[0] for c in csvs):
        problems.append(f"CSVs differ between untraced, traced and --workers {workers} runs")
    problems += w.check(csvs[0].decode())
    for k in COUNT_KEYS:
        if len({t.get(k) for t in traced}) > 1:
            problems.append(f"{k} differs between traced runs: {[t[k] for t in traced]}")

    values = {k: traced[0][k] if k in COUNT_KEYS else statistics.median(t[k] for t in traced)
              for k in traced[0]}
    values["engine.pool_starts"] = par.calls(POOL)
    values["engine.pool_startup_s"] = statistics.median(startup)
    par_s = par.total(RUN_TASKS)
    values["engine.pool_efficiency"] = (statistics.median(serial) / (workers * par_s)
                                        if par_s else 0.0)
    values["trace.overhead_frac"] = (statistics.median(t["trace.wall_s"] for t in traced)
                                     / statistics.median(untraced) - 1.0)
    attempted = len(untraced) + len(traced) + 1
    failed = attempted if problems else 0
    # the last traced run, whose layer self-times plus the unattributed remainder
    # (time outside every span) add up to its wall time
    last = {"layer_self_s": tr.layer_self_s(), "wall_s": traced[-1]["trace.wall_s"],
            "unattributed_s": traced[-1]["trace.unattributed_s"]}
    detail = {"untraced_wall_s": untraced, "traced": traced, "serial_run_tasks_s": serial,
              "parallel_run_tasks_s": par_s, "pool_startup_s": startup,
              "last_traced_run": last, "spans": tr.to_records()}
    return {k: values[k] for k in PER_LAYER}, attempted, failed, problems, detail


# -- main ---------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="quditwitness benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workers", type=int, default=None,
                        help="pool size for the timed runs (default: min(2, nproc))")
    args = parser.parse_args(argv)

    if not (SRC / "quditwitness" / "__init__.py").is_file():
        print(f"error: no quditwitness sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import quditwitness
    if Path(quditwitness.__file__).resolve().parent != SRC / "quditwitness":
        print(f"error: imported quditwitness from {quditwitness.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.NAMES}",
              file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    workers = args.workers if args.workers is not None else min(2, nproc)
    if not 1 <= workers <= nproc:
        print(f"error: --workers {workers} outside 1..nproc={nproc}", file=sys.stderr)
        return 2

    env = environment(nproc, workers, args.seed)
    child_env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    w = workloads.make(args.workload, args.seed)
    RECORD_DIR.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RECORD_DIR) as tmp:
        if args.trace:
            metrics, attempted, failed, problems, detail = measure_layers(
                w, args.seed, workers, args.seconds, Path(tmp))
            units = PER_LAYER
            record = {"values": metrics, **detail}
        else:
            samples, attempted, failed, problems = measure_end_to_end(
                w, args.seed, workers, args.seconds, Path(tmp), child_env)
            units = dict(END_TO_END)
            stats = {k: summary(v) for k, v in samples.items()}
            metrics = {k: stats[k]["median"] for k in units}
            record = {"summary": stats, "samples": samples}

    print(f"env {json.dumps(env)}")
    print(f"workload {w.name}: work unit = {w.unit_doc}, {w.units} per run")
    if args.trace:
        for k, v in metrics.items():
            print(f"{w.name} {k} = {v!r} {units[k]}")
        last = record["last_traced_run"]
        print(f"{w.name} last traced run, layer self-times (s): "
              f"{json.dumps(last['layer_self_s'])} + unattributed {last['unattributed_s']!r} "
              f"= traced wall {last['wall_s']!r}")
    else:
        for k, s in record["summary"].items():
            print(f"{w.name} {k} = {s['median']!r} {units[k]} "
                  f"(q1 {s['q1']!r}, q3 {s['q3']!r}, n={s['n']})")
    print(f"{w.name} error_rate = {failed / attempted!r} fraction ({failed}/{attempted} runs failed)")
    for p in problems:
        print(f"{w.name} check failed: {p}")

    record.update(workload=w.name, trace=args.trace, env=env, attempted=attempted,
                  failed=failed, problems=problems)
    (RECORD_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
