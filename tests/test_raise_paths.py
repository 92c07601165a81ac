"""Documented raise paths across the package, one case each."""
import numpy as np
import pytest

from quditwitness import (InvalidParamsError, LutStrategy, ParseError, QuasiPureParams,
                          apply_lut, apply_white_noise, brute_force_counts, fef_witness,
                          maximally_mixed, qudit_hadamard, run_trial, substream, sweep_icps)
from quditwitness.serialize import density_from_csv

RECT = maximally_mixed(2, 3)

CASES = {  # id -> (call, exception, message)
    "csv-non-integer-dims": (lambda: density_from_csv("# dimA=x dimB=2\n0.25,0.0\n"),
                             ParseError, "malformed density-matrix CSV"),
    "no-strategies": (lambda: run_trial(maximally_mixed(2, 2), substream(0, 0), strategies=()),
                      InvalidParamsError, "^at least one strategy is required$"),
    "sweep-no-strategies": (lambda: sweep_icps(3, 2, ["single"], strategies=[]),
                            InvalidParamsError, "^at least one strategy is required$"),
    "white-noise-above-one": (lambda: apply_white_noise(maximally_mixed(2, 2), 1.5),
                              InvalidParamsError, "v must be in"),
    "quasi-pure-v-above-one": (lambda: QuasiPureParams(3, 1.5), InvalidParamsError, "v must be in"),
    "hadamard-d1": (lambda: qudit_hadamard(1), ValueError, "d must be >= 2"),
    "apply-lut-2x3": (lambda: apply_lut(RECT, LutStrategy.hadamard_b()), ValueError,
                      "equal local dimensions"),
    "enumeration-2x3": (lambda: brute_force_counts(RECT, LutStrategy.identity()), ValueError,
                        "equal local dimensions"),
    "fef-3x3": (lambda: fef_witness(np.eye(9) / 9), ValueError, "two-qubit"),
}


@pytest.mark.parametrize("case", CASES)
def test_documented_raise_paths(case):
    call, exc, message = CASES[case]
    with pytest.raises(exc, match=message):
        call()
