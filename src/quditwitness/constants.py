"""Numerical tolerances shared across the package.

All tolerance constants live here so that every module draws the same line
between "zero" and "signal".
"""

# Maximum |M - M^dag| entry for a matrix to count as Hermitian.
HERMITICITY_TOL = 1e-10

# Witness scores must exceed this to count as a detection; keeps numerically
# zero scores of separable states from being reported as entanglement.
WITNESS_TOL = 1e-12

# Reductions with post-selection probability below this carry no statistical
# weight; normalising them would only amplify rounding noise.
ZERO_PROB_TOL = 1e-14

# A partial-transpose eigenvalue below -NPT_TOL certifies an NPT state.
NPT_TOL = 1e-10
