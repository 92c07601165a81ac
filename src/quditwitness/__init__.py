"""Entanglement detection in bipartite qudit states via random two-qubit
reductions and the fully-entangled-fraction witness."""

__version__ = "0.1.0"

import os

# One BLAS thread per process, set before numpy loads BLAS: every matrix here is
# at most d x d, and the forked sweep workers are the parallelism.  An explicit setting wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .constants import HERMITICITY_TOL, NPT_TOL, WITNESS_TOL, ZERO_PROB_TOL
from .linalg import ginibre, haar_state, haar_unitary
from .rng import substream
from .states import (DensityMatrix, IcpsParams, InvalidParamsError, InvalidStateError,
                     QuasiPureParams, apply_white_noise, make_icps, make_quasi_pure,
                     maximally_mixed, random_product_mixture)
from .transforms import (LevelSelection, LutKind, LutStrategy, Mode, ZeroProbabilityError,
                         apply_lut, qudit_hadamard, random_selections, reduce_to_two_qubits)
from .witness import WitnessOutcome, fef_witness
from .oracles import (AnalyticSensitivity, BruteForceCounts, IcpsGroundTruth, InvalidScenarioError,
                      Scenario, analytic_fef_score, analytic_sensitivity, brute_force_counts,
                      classify_selection, conditioning_threshold, is_npt, partial_transpose,
                      visibility_thresholds)
from .detection import (DEFAULT_STRATEGIES, CombinedSelection, TrialResult, evaluate_selection,
                        run_trial)
from .montecarlo import (COMBINED_KEY, DEFAULT_SAMPLES, GridCell, GridSpec, SensitivityEstimate,
                         sweep_icps, sweep_icps_grid, sweep_quasi_pure, wilson_halfwidth)
from .collective import (BLOCH, PROJECTORS, SETTINGS, TRANSFORM, collective_R_minimal,
                         collective_R_pauli, fef_from_collective, pi_matrix, singlet_projector_op)
from .serialize import ParseError, load_density, save_density
