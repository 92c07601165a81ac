"""The end-to-end detection protocol on a single state copy.

A trial applies each configured local-unitary strategy, picks levels at
random, reduces to two qubits and evaluates the witness.  Parallel mode
partitions the levels of each subsystem into floor(d/2) disjoint pairs and
evaluates all of them in one shot; one global unitary per strategy precedes
the partitioning.  The draws are the sweep kernel's, in its order, so a
one-sample chunk's flags are one run_trial call's on the same substream; the
witness maths is the independent part.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .states import DensityMatrix
from .transforms import (LevelSelection, LutKind, LutStrategy, ZeroProbabilityError,
                         apply_lut, random_selections, reduce_to_two_qubits)
from .witness import WitnessOutcome, fef_witness, outcome_from_score


class Mode(str, Enum):
    SINGLE = "single"
    PARALLEL = "parallel"


class CombinedSelection(str, Enum):
    """Whether strategies within one trial share the level selection."""

    FRESH = "fresh"
    SHARED = "shared"


# the fixed default order: identity, one-sided Hadamard, two-sided Hadamard
DEFAULT_STRATEGIES = (LutKind.IDENTITY, LutKind.HADAMARD_B, LutKind.HADAMARD_BOTH)


@dataclass(frozen=True)
class DetectionConfig:
    strategies: tuple[LutStrategy, ...] = tuple(map(LutStrategy, DEFAULT_STRATEGIES))
    mode: Mode = Mode.SINGLE
    combined_selection: CombinedSelection = CombinedSelection.FRESH

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        object.__setattr__(self, "combined_selection", CombinedSelection(self.combined_selection))
        if not self.strategies:
            raise ValueError("at least one strategy is required")


@dataclass(frozen=True)
class TrialResult:
    """detected is the OR over all outcomes of the trial."""

    detected: bool
    outcomes: tuple[WitnessOutcome, ...]


def evaluate_selection(rho: DensityMatrix, sel: LevelSelection,
                       strategy: LutStrategy | None = None) -> WitnessOutcome:
    """Reduce on one selection and run the witness.

    Zero-probability selections count as not detected: they carry no
    correlations, so the outcome is recorded with the minimal score -1.
    """
    kind = strategy.kind if strategy is not None else None
    try:
        rho2, _ = reduce_to_two_qubits(rho, sel)
    except ZeroProbabilityError:
        return outcome_from_score(-1.0, selection=sel, strategy=kind)
    return fef_witness(rho2, selection=sel, strategy=kind)


def run_trial(rho: DensityMatrix, cfg: DetectionConfig, rng: np.random.Generator) -> TrialResult:
    """One protocol round: per strategy, one local unitary and a witness call per selection.

    cfg.mode picks the selections: one random pair, or floor(d/2) disjoint
    pairs.  Draw order: the shared selections (if shared), then per strategy
    its local unitary and its own selections (if fresh).
    """
    def draw() -> list[LevelSelection]:
        return [LevelSelection(*row) for row in random_selections(rng, rho.dim_a, 1, cfg.mode)[0].tolist()]
    shared = draw() if cfg.combined_selection is CombinedSelection.SHARED else None
    outcomes = []
    for strat in cfg.strategies:
        transformed = apply_lut(rho, strat, rng)
        sels = shared if shared is not None else draw()
        outcomes.extend(evaluate_selection(transformed, sel, strat) for sel in sels)
    return TrialResult(detected=any(o.detected for o in outcomes), outcomes=tuple(outcomes))
