"""Command-line front end.

Subcommands: fef (witness one serialized state), icps-sweep and random-sweep
(sensitivity tables), grid (alpha-v sensitivity grids), analytic (exact
thresholds and detection fractions), collective-verify (cross-method identity
check).  Every output file starts with comment lines recording the version,
the command and every option but --workers and --out; re-running with the
same seed produces byte-identical files for any worker count.  Tables are
streamed: each row is written to --out or stdout as soon as it is formatted,
so no command holds its table's text.

Exit codes: 0 success, 2 usage error, 3 parse/validation or I/O error (a
sweep worker killed by a signal included), 4 numeric failure; the console
script exits 128 + N on signal N: 130 on SIGINT, 143 on SIGTERM, 129 on SIGHUP.

The console script runs without OpenSSL: before any work it marks _hashlib
unavailable (_console_setup), so hashlib and hmac take CPython's built-in
hashes, their documented path on builds without OpenSSL: a sweep worker's
first draw imports numpy.random, which reaches hmac through secrets for
entropy the seeded sweeps never draw.  Importing the package or calling main
changes none of this.
"""
from __future__ import annotations

import argparse
import errno
import gc
import os
import signal
import sys
from collections.abc import Iterable
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from .detection import DEFAULT_STRATEGIES, CombinedSelection
from .engine import usable_cpus
from .linalg import ginibre
from .montecarlo import (COMBINED_KEY, DEFAULT_SAMPLES, GridSpec, sweep_icps, sweep_icps_grid,
                         sweep_quasi_pure)
from .collective import SETTINGS, fef_from_collective
from .oracles import (IcpsGroundTruth, analytic_sensitivity, conditioning_threshold,
                      visibility_thresholds)
from .rng import substream
from .states import DensityMatrix, IcpsParams, InvalidParamsError, InvalidStateError
from .serialize import ParseError, load_density
from .transforms import LutKind, ZeroProbabilityError
from .witness import fef_witness

STRATEGY_CHOICES = [k.value for k in LutKind]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


COLUMNS = ["d", "r", "alpha", "v", "strategy", "mode", "samples", "entangled",
           "detected", "sensitivity", "ci95", "seed"]

# The `# params:` record is every option of the subcommand but these, in parser
# order: argparse sets each option's default in that order before parsing.
_UNRECORDED = ("command", "func", "workers", "out")


def _cell(value) -> str:
    kind = type(value)  # a table's common cells first: str, then float and int
    if kind is str:
        return value
    if kind is float:
        return repr(value)
    if kind is int:
        return str(value)
    if isinstance(value, list):
        return "+".join(_cell(x) for x in value)
    return "" if value is None else repr(value) if isinstance(value, float) else str(value)


def _write_table(args, rows: Iterable[list], columns: list[str] = COLUMNS) -> None:
    """The header, then each row of rows (a generator, for a grid) written as soon as it
    is formatted, to --out or stdout: no table, line list or joined text is held."""
    params = " ".join(f"{k}={_cell(v)}" for k, v in vars(args).items() if k not in _UNRECORDED)
    with nullcontext(sys.stdout) if args.out is None else open(args.out, "w") as out:
        out.write(f"# quditwitness {__version__}\n# command: {args.command}\n"
                  f"# params: {params}\n{','.join(columns)}\n")
        for row in rows:
            out.write(",".join(map(_cell, row)) + "\n")


def _check_out(path: str) -> None:
    """Fail before any work where --out cannot be written: it names a
    directory, or sits in a missing one.  Creates and truncates nothing."""
    out = Path(path)
    if out.is_dir():
        raise IsADirectoryError(errno.EISDIR, "--out names a directory", path)
    if not out.parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, "--out is in a missing directory", path)


def _row(args, label: str, mode: str, e, alpha=None, v=None) -> list:
    return [args.d, getattr(args, "r", None), alpha, v, label, mode, e.sampled,
            e.entangled, e.detected, e.value, e.ci95, args.seed]


def _modes(args) -> list[str]:
    return ["single", "parallel"] if args.mode == "both" else [args.mode]


def cmd_fef(args) -> int:
    rho = load_density(args.state_file)
    if (rho.dim_a, rho.dim_b) != (2, 2):
        raise InvalidStateError(f"fef expects a two-qubit state, got {rho.dim_a}x{rho.dim_b}")
    out = fef_witness(rho)
    print(f"score={out.score:.6f} fef_w={out.fef_w:.6f} detected={str(out.detected).lower()}")
    return 0


def cmd_icps_sweep(args) -> int:
    modes = _modes(args)
    table = sweep_icps(args.d, args.r, modes, args.strategies, args.combined_selection,
                       args.samples, args.seed, args.workers, args.ground_truth)
    _write_table(args, [_row(args, label, mode, e)
                        for mode, est in zip(modes, table) for label, e in est.items()])
    return 0


def cmd_random_sweep(args) -> int:
    modes = _modes(args)
    table = sweep_quasi_pure(args.d, args.noise, modes, args.samples, args.seed, args.workers)
    _write_table(args, [_row(args, LutKind.IDENTITY.value, mode, e, v=1.0 - noise)
                        for noise, ests in zip(args.noise, table)
                        for mode, e in zip(modes, ests)])
    return 0


def cmd_grid(args) -> int:
    strategies = DEFAULT_STRATEGIES if args.strategy == "all" else [args.strategy]
    cells = sweep_icps_grid(args.d, args.r, GridSpec(args.alpha_steps, args.v_steps, args.trials),
                            args.mode, strategies, args.combined_selection, args.seed,
                            args.workers)
    _write_table(args, (_row(args, label, args.mode, e, cell.alpha, cell.v)
                        + [str(cell.separable).lower()]
                        for cell in cells for label, e in cell.estimates.items()
                        # combined duplicates the single requested strategy
                        if args.strategy == "all" or label != COMBINED_KEY),
                 COLUMNS + ["separable"])
    return 0


def cmd_analytic(args) -> int:
    sens = analytic_sensitivity(args.d, args.r)
    # validate --alpha before printing anything
    p = None if args.alpha is None else IcpsParams(args.d, args.r, args.alpha, 1.0)
    print(f"d={args.d} r={args.r} selection_classes={sens.total_classes}")
    for name, frac in [("scenario_i", sens.scenario_i),
                       ("scenario_ii", sens.scenario_ii),
                       ("scenario_ii_unordered", sens.scenario_ii_unordered),
                       ("combined", sens.combined)]:
        print(f"{name} = {frac} = {float(frac):.10f}")
    if p is not None:
        v_a, v_b = visibility_thresholds(p.d, p.r, p.alpha)
        npt = conditioning_threshold(p.d, p.r, p.alpha, IcpsGroundTruth.NPT)
        print(f"alpha={args.alpha!r} v_a={float(v_a)!r} v_b={float(v_b)!r} "
              f"entanglement_threshold={float(npt)!r}")
    return 0


def cmd_collective_verify(args) -> int:
    rng = substream(args.seed, 99)
    worst = 0.0
    for _ in range(args.n):
        g = ginibre(4, rng)
        mat = g @ g.conj().T
        rho = DensityMatrix(2, 2, mat / mat.trace())
        direct = fef_witness(rho).score
        collective = fef_from_collective(rho).score
        worst = max(worst, abs(direct - collective))
    print(f"states={args.n} settings={SETTINGS} max|score_collective - score_direct|={worst:.3e}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quditwitness",
                                     description="Entanglement detection in two-qudit states "
                                                 "via random two-qubit reductions")
    parser.add_argument("--version", action="version", version=f"quditwitness {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fef", help="evaluate the witness on a serialized two-qubit state")
    p.add_argument("state_file")
    p.set_defaults(func=cmd_fef)

    def run_options(p):
        p.add_argument("--seed", type=_nonnegative_int, default=0)
        p.add_argument("--workers", type=_positive_int, default=usable_cpus(),
                       help="worker processes (default: the CPUs this process may use)")
        p.add_argument("--out", default=None, help="output CSV path (default: stdout)")

    p = sub.add_parser("icps-sweep", help="sensitivity table over the Schmidt-form ensemble")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--r", type=_positive_int, required=True)
    p.add_argument("--mode", choices=["single", "parallel", "both"], default="both")
    p.add_argument("--strategies", nargs="+", choices=STRATEGY_CHOICES,
                   default=[k.value for k in DEFAULT_STRATEGIES])
    p.add_argument("--combined-selection", choices=[c.value for c in CombinedSelection],
                   default=CombinedSelection.FRESH.value)
    p.add_argument("--ground-truth", choices=[g.value for g in IcpsGroundTruth],
                   default=IcpsGroundTruth.RANK2.value)
    p.add_argument("--samples", type=_positive_int, default=DEFAULT_SAMPLES)
    run_options(p)
    p.set_defaults(func=cmd_icps_sweep)

    p = sub.add_parser("random-sweep", help="sensitivity on Haar-random noisy pure states")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--noise", type=float, nargs="+", required=True)
    p.add_argument("--mode", choices=["single", "parallel", "both"], default="both")
    p.add_argument("--samples", type=_positive_int, default=DEFAULT_SAMPLES)
    run_options(p)
    p.set_defaults(func=cmd_random_sweep)

    p = sub.add_parser("grid", help="alpha-v sensitivity grid for fixed (d, r)")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--r", type=_positive_int, required=True)
    p.add_argument("--alpha-steps", type=_positive_int, default=50)
    p.add_argument("--v-steps", type=_positive_int, default=50)
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--strategy", choices=STRATEGY_CHOICES + ["all"], default="all")
    p.add_argument("--mode", choices=["single", "parallel"], default="single")
    p.add_argument("--combined-selection", choices=[c.value for c in CombinedSelection],
                   default=CombinedSelection.FRESH.value)
    run_options(p)
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("analytic", help="exact thresholds and detection fractions")
    p.add_argument("--d", type=_positive_int, required=True)
    p.add_argument("--r", type=_positive_int, required=True)
    p.add_argument("--alpha", type=float, default=None)
    p.set_defaults(func=cmd_analytic)

    p = sub.add_parser("collective-verify",
                       help="check the 10-setting collective witness against direct evaluation")
    p.add_argument("--n", type=_positive_int, default=1000)
    p.add_argument("--seed", type=_nonnegative_int, default=0)
    p.set_defaults(func=cmd_collective_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None) is not None:
            _check_out(args.out)
        return args.func(args)
    except (ParseError, InvalidStateError, InvalidParamsError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (np.linalg.LinAlgError, ZeroProbabilityError, ArithmeticError, MemoryError) as exc:
        print(f"numeric failure: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 4


class Terminated(BaseException):
    """SIGTERM or SIGHUP, raised where the main thread is, like KeyboardInterrupt:
    it unwinds through engine.run_tasks, which kills and reaps its workers."""


def _terminate(signum, frame):
    raise Terminated(signum)


def _console_setup() -> None:
    """The console script's process-wide set-up, before main: no OpenSSL (an _hashlib
    already imported stays), the import-time objects frozen (no collection walks them, so a
    forked sweep worker copies none of their pages), SIGTERM and SIGHUP raising Terminated."""
    sys.modules.setdefault("_hashlib", None)
    gc.freeze()
    for name in ("SIGTERM", "SIGHUP"):
        if hasattr(signal, name):
            signal.signal(getattr(signal, name), _terminate)


def cli_entry() -> None:
    # every exit flushes stdout and stderr, then skips teardown
    _console_setup()
    try:
        code = main()
    except SystemExit as exc:  # argparse: 2 on a usage error, 0 after --help or --version
        code = exc.code or 0
    except (KeyboardInterrupt, Terminated) as exc:
        signum = exc.args[0] if isinstance(exc, Terminated) else signal.SIGINT
        print(f"interrupted: {signal.Signals(signum).name}", file=sys.stderr)
        code = 128 + signum
    try:
        sys.stdout.flush()
    except OSError as exc:  # stdout's reader is gone: an I/O error, unless main failed first
        if code == 0:
            print(f"error: {exc}", file=sys.stderr)
            code = 3
    sys.stderr.flush()
    os._exit(code)
