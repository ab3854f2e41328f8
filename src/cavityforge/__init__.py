"""cavityforge: diamond-membrane open-microcavity simulation and analysis.

Transfer-matrix spectra and field profiles, Gaussian-mode vacuum-field
normalization, emitter-cavity figure-of-merit algebra, measurement fits
and forward design sweeps.
"""

from .constants import CONSTANTS, PhysicalConstants
from .stack import (CavityAssembly, EmitterSpec, GeometryError, Layer,
                    MirrorSpec, assemble_cavity, build_dbr, emitter_rates)
from .tmm import (BranchSample, FieldProfile, ModeBranch, ResonanceError,
                  StackResponse, characteristic_matrix, diamond_energy_fraction,
                  dispersion_map, field_profile, find_resonances,
                  stack_response, transmission_spectrum)
from .gaussian import (ModeVolumeReport, TransverseMode, beam_waist,
                       effective_area, transverse_offsets, vacuum_field,
                       waist_from_fwhm)
from .cqed import (CouplingReport, DomainError, RatesMeasurement, coupling_rate,
                   coupling_report, debye_waller_inversion, dipole_from_lifetime,
                   linewidth_conversions, purcell_zpl_theory, rates_algebra,
                   transform_limit)
from .fits import (DecayHistogram, FitError, FitResult, XYSeries,
                   exp_gauss_decay, fit_gaussian, fit_lifetime, fit_lorentzian,
                   fit_voigt, g2_pulse_areas, gaussian, lorentzian,
                   voigt_profile)
from .design import (DesignPoint, SweepResult, cavity_mode, design_mirrors,
                     evaluate_design, pareto_indices, sweep)
from .config import ConfigError, RunConfig, load_config, paper_baseline_dict, parse_config

__version__ = "0.1.0"
