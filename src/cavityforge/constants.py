"""Physical constants (CODATA 2018) as an immutable value object.

The values are fixed: no configuration overrides them, so every
computation in a process uses the same constants.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class PhysicalConstants:
    c: float = 2.99792458e8        # speed of light, m/s (exact)
    hbar: float = 1.054571817e-34  # reduced Planck constant, J s
    eps0: float = 8.8541878128e-12  # vacuum permittivity, F/m
    e_charge: float = 1.602176634e-19  # elementary charge, C (exact)


CONSTANTS = PhysicalConstants()
