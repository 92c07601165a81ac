"""Ensemble sensitivity estimation: sensitivity tables and (alpha, v) grids.

Sensitivity is the conditional probability of detecting entanglement given
that the sampled state is entangled.  There is one entry per ensemble:
sweep_icps (Schmidt-form states, under the conditioning rule
oracles.IcpsGroundTruth), sweep_quasi_pure (Haar-random states, under the NPT
criterion, the only notion the witness can ever certify) and sweep_icps_grid
(fixed states on an (alpha, v) grid).  The Schmidt-form sweeps take
strategies as LutKinds, their names or unpinned LutStrategys (default
DEFAULT_STRATEGIES); pinned unitaries belong to detection.run_trial.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import engine
from .detection import DEFAULT_STRATEGIES, CombinedSelection, _nonempty
from .states import IcpsParams, InvalidParamsError, QuasiPureParams
from .oracles import IcpsGroundTruth, conditioning_threshold
from .transforms import LutKind, LutStrategy, Mode

DEFAULT_SAMPLES = 100_000

COMBINED_KEY = "combined"


def wilson_halfwidth(k: int, n: int, z: float = 1.96) -> float:
    """Half-width of the Wilson score interval for k successes out of n."""
    if n == 0:
        return 0.0
    p = k / n
    return z * math.sqrt(p * (1.0 - p) / n + z * z / (4.0 * n * n)) / (1.0 + z * z / n)


@dataclass(frozen=True)
class SensitivityEstimate:
    """Detection counts conditioned on ground-truth entanglement."""

    detected: int
    entangled: int
    sampled: int

    def __post_init__(self):
        if not 0 <= self.detected <= self.entangled <= self.sampled:
            raise ValueError("counts must satisfy detected <= entangled <= sampled")

    @property
    def value(self) -> float | None:
        """detected / entangled; None when no sample is entangled."""
        return self.detected / self.entangled if self.entangled else None

    @property
    def ci95(self) -> float | None:
        return wilson_halfwidth(self.detected, self.entangled) if self.entangled else None


@dataclass(frozen=True)
class GridSpec:
    alpha_steps: int
    v_steps: int
    trials_per_cell: int

    def __post_init__(self):
        if min(self.alpha_steps, self.v_steps, self.trials_per_cell) < 1:
            raise InvalidParamsError("grid steps and trials must be >= 1")


@dataclass(frozen=True)
class GridCell:
    """Per-cell detection estimates at the cell-centre state (alpha, v).

    For grid cells the denominator is the trial count; 'separable' flags
    cells whose centre state is not entangled (their sensitivity is zero).
    """

    alpha: float
    v: float
    separable: bool
    estimates: dict


def _sweep_kind(s: LutKind | str | LutStrategy) -> LutKind:
    """The kind of a sweep strategy: a LutKind, its name or an unpinned LutStrategy."""
    if not isinstance(s, LutStrategy):
        return LutKind(s)
    if s.u_a is not None or s.v_b is not None:
        raise InvalidParamsError("pinned unitaries belong to detection.run_trial; "
                                 "a sweep draws random_both's unitaries per sample")
    return s.kind


def _icps_setup(d: int, r: int, strategies: Sequence[LutKind | str | LutStrategy],
                combined_selection: CombinedSelection) -> tuple[tuple[LutKind, ...], bool]:
    """Validate (d, r) and the strategies; the strategy kinds and shared flag of a sweep."""
    IcpsParams(d, r, 0.0, 0.0)
    kinds = _nonempty("strategy", tuple(map(_sweep_kind, strategies)))
    if len(set(kinds)) < len(kinds):  # results are keyed by strategy name
        raise InvalidParamsError(f"repeated strategy in {[k.value for k in kinds]}")
    return kinds, CombinedSelection(combined_selection) is CombinedSelection.SHARED


def _estimates(total: np.ndarray, width: int) -> list[list[SensitivityEstimate]]:
    """Estimates from the sum over chunks of engine._counts' vectors
    [rows, entangled per entry..., detected per entry...], in rows of width entries."""
    entangled, detected = np.reshape(total[1:], (2, -1, width))
    return [[SensitivityEstimate(int(k), int(e), int(total[0])) for e, k in zip(*row)]
            for row in zip(entangled, detected)]


def _by_strategy(kinds: tuple[LutKind, ...], total: np.ndarray) -> list[dict]:
    """Per row of _estimates, each strategy's estimate and then the combined one."""
    labels = [kind.value for kind in kinds] + [COMBINED_KEY]
    return [dict(zip(labels, row)) for row in _estimates(total, len(labels))]


def sweep_icps(d: int, r: int, modes: Sequence[Mode],
               strategies: Sequence[LutKind | str | LutStrategy] = DEFAULT_STRATEGIES,
               combined_selection: CombinedSelection = CombinedSelection.FRESH,
               n_samples: int = DEFAULT_SAMPLES, seed: int = 0, workers: int = 1,
               ground_truth: IcpsGroundTruth = IcpsGroundTruth.RANK2,
               ) -> list[dict[str, SensitivityEstimate]]:
    """Per-strategy and combined sensitivity over the (alpha, v) ensemble, per mode.

    alpha is uniform on [0, 1/sqrt(r-1)], v uniform on [0, 1]; only states
    entangled per ground_truth enter the denominator.  The combined entry is
    the OR over the strategies within each sample.  Returns one estimate
    dict per entry of modes; each equals a one-mode sweep at the same seed.
    Every chunk draws its (alpha, v) samples once for all modes, and one
    set of forked workers serves the whole run.
    """
    kinds, shared = _icps_setup(d, r, strategies, combined_selection)
    mode_names = _nonempty("mode", tuple(Mode(m).value for m in modes))
    tasks = [(seed, c, size, d, r, kinds, mode_names, shared, IcpsGroundTruth(ground_truth))
             for c, size in enumerate(engine.chunk_sizes(n_samples, d))]
    total = np.sum(engine.run_tasks(engine._icps_flags, tasks, workers), axis=0)
    return _by_strategy(kinds, total)


def sweep_quasi_pure(d: int, noise_levels: Sequence[float], modes: Sequence[Mode],
                     n_samples: int = DEFAULT_SAMPLES, seed: int = 0,
                     workers: int = 1) -> list[list[SensitivityEstimate]]:
    """Sensitivity on Haar-random pure states mixed with white noise, per (noise, mode).

    Ground truth is the NPT criterion; no local unitaries are applied since
    the Haar ensemble is invariant under them.  Returns out[i][j] for
    noise_levels[i] and modes[j]; each entry equals a one-pair sweep at the
    same seed.  Every chunk draws its Haar states once for all pairs, one
    slice at a time from its state stream, and each mode's level selections
    from a second stream (engine._quasi_flags); one set of forked workers
    serves the whole table.
    """
    noises = _nonempty("noise level", tuple(noise_levels))
    mode_names = _nonempty("mode", tuple(Mode(m).value for m in modes))
    for noise in noises:
        if not 0.0 <= noise <= 1.0:
            raise InvalidParamsError(f"noise level must be in [0, 1], got {noise}")
    QuasiPureParams(d, 1.0)  # validates d
    tasks = [(seed, c, size, d, noises, mode_names)
             for c, size in enumerate(engine.chunk_sizes(n_samples, d))]
    total = np.sum(engine.run_tasks(engine._quasi_flags, tasks, workers), axis=0)
    return _estimates(total, len(mode_names))


def sweep_icps_grid(d: int, r: int, grid: GridSpec, mode: Mode = Mode.SINGLE,
                    strategies: Sequence[LutKind | str | LutStrategy] = DEFAULT_STRATEGIES,
                    combined_selection: CombinedSelection = CombinedSelection.FRESH,
                    seed: int = 0, workers: int = 1) -> list[GridCell]:
    """Detection-probability estimates on a grid of (alpha, v) cell centres, alpha-major.

    Each trial draws fresh selections per strategy (or one shared selection, per
    combined_selection); the workers take runs of whole cells (engine._grid_flags).
    The separable flag uses the exact (NPT) entanglement boundary.
    """
    kinds, shared = _icps_setup(d, r, strategies, combined_selection)
    mode = Mode(mode).value
    amax = 1.0 / math.sqrt(r - 1)
    cells = [((ia + 0.5) / grid.alpha_steps * amax, (iv + 0.5) / grid.v_steps)
             for ia in range(grid.alpha_steps) for iv in range(grid.v_steps)]
    sizes = engine.chunk_sizes(grid.trials_per_cell, d)
    # a task: a run of one-chunk cells holding one chunk's rows at most, or a chunk of a larger cell
    per_run = max(1, engine.chunk_sizes(engine.CHUNK, d)[0] // sizes[0])
    runs = [range(len(cells))[i:i + per_run] for i in range(0, len(cells), per_run)]
    tasks = [(seed, run, c, size, d, r, *zip(*cells[run.start:run.stop]), kinds, mode, shared)
             for run in runs for c, size in enumerate(sizes)]
    counts = np.zeros((len(cells), 2, len(kinds) + 1), dtype=np.int64)  # entangled, detected
    for (_, run, *_), result in zip(tasks, engine.run_tasks(engine._grid_flags, tasks, workers)):
        counts[run.start:run.stop] += result[1:].reshape(2, len(run), -1).swapaxes(0, 1)
    labels = [kind.value for kind in kinds] + [COMBINED_KEY]
    thresholds = {alpha: conditioning_threshold(d, r, alpha, IcpsGroundTruth.NPT)
                  for alpha, _ in cells[::grid.v_steps]}
    return [GridCell(alpha, v, separable=not v > thresholds[alpha],
                     estimates={label: SensitivityEstimate(k, e, grid.trials_per_cell)
                                for label, e, k in zip(labels, *count)})
            for (alpha, v), count in zip(cells, counts.tolist())]
