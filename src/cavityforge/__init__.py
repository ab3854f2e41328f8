"""cavityforge: diamond-membrane open-microcavity simulation and analysis.

Transfer-matrix spectra and field profiles, Gaussian-mode vacuum-field
normalization, emitter-cavity figure-of-merit algebra, measurement fits
and forward design sweeps.  Library use imports from the submodules
(cavityforge.tmm, .cqed, .fits, ...); the command line is cavityforge.cli.
"""

__version__ = "0.1.0"
