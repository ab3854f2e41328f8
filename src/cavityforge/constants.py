"""Physical constants (CODATA 2018).

The values are fixed: no configuration overrides them, so every
computation in a process uses the same constants.
"""

import math

C = 2.99792458e8  # speed of light, m/s (exact)
HBAR = 1.054571817e-34  # reduced Planck constant, J s
EPS0 = 8.8541878128e-12  # vacuum permittivity, F/m
E_CHARGE = 1.602176634e-19  # elementary charge, C (exact)

# a Gaussian's FWHM is 2 sqrt(2 ln 2) sigma; a beam's intensity FWHM is
# sqrt(2 ln 2) w0
SQRT_2LN2 = math.sqrt(2.0 * math.log(2.0))
