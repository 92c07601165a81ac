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

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .states import DensityMatrix, InvalidParamsError
from .transforms import (LevelSelection, LutKind, LutStrategy, Mode, ZeroProbabilityError,
                         apply_lut, random_selections, reduce_to_two_qubits)
from .witness import WitnessOutcome, fef_witness, outcome_from_score


class CombinedSelection(str, Enum):
    """Whether strategies within one trial share the level selection."""

    FRESH = "fresh"
    SHARED = "shared"


# the fixed default order: identity, one-sided Hadamard, two-sided Hadamard
DEFAULT_STRATEGIES = (LutKind.IDENTITY, LutKind.HADAMARD_B, LutKind.HADAMARD_BOTH)


def _nonempty(what: str, values: tuple) -> tuple:
    """values, or InvalidParamsError before any work when there are none."""
    if not values:
        raise InvalidParamsError(f"at least one {what} is required")
    return values


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


def run_trial(rho: DensityMatrix, rng: np.random.Generator,
              strategies: Sequence[LutKind | str | LutStrategy] = DEFAULT_STRATEGIES,
              mode: Mode = Mode.SINGLE,
              combined_selection: CombinedSelection = CombinedSelection.FRESH) -> TrialResult:
    """One protocol round: per strategy, one local unitary and a witness call per selection.

    The sweeps' arguments; a strategy may also be a LutStrategy, the one way to
    pin random_both's unitaries.  Draw order: the shared selections (if shared),
    then per strategy its local unitary and its own selections (if fresh).
    """
    strats = _nonempty("strategy", tuple(s if isinstance(s, LutStrategy) else LutStrategy(s)
                                         for s in strategies))
    mode = Mode(mode)

    def draw() -> list[LevelSelection]:
        return [LevelSelection(*row) for row in random_selections(rng, rho.dim_a, 1, mode)[0].tolist()]
    shared = draw() if CombinedSelection(combined_selection) is CombinedSelection.SHARED else None
    outcomes = []
    for strat in strats:
        transformed = apply_lut(rho, strat, rng)
        sels = shared if shared is not None else draw()
        outcomes.extend(evaluate_selection(transformed, sel, strat) for sel in sels)
    return TrialResult(detected=any(o.detected for o in outcomes), outcomes=tuple(outcomes))
