"""Seeded synthetic datasets mirroring the published fit results.

Raw measurement data are not available; these generators produce
deterministic stand-ins parameterized by the published fit parameters
(resonance linewidths, decay times, g2(0)).
"""

from __future__ import annotations

import numpy as np

from .config import paper_baseline_dict
from .fits import IRF_SIGMA_NS, XYSeries, exp_gauss_decay, gaussian, lorentzian, voigt_profile
from .stack import EmitterSpec

# the published fits: the resonance's Lorentzian FWHM (pm) and the decay
# rates (per s) on and off resonance
_VOIGT_FWHM_L_PM, _RATE_PEAK, _RATE_BASE = (
    paper_baseline_dict()["measured"][k] for k in ("Gamma_L_pm", "gamma_on_per_s",
                                                   "gamma_off_per_s"))
# cavity-length-tuned resonance: Gaussian FWHM (pm), counts
_VOIGT_FWHM_G_PM, _VOIGT_AMPLITUDE, _VOIGT_OFFSET, _VOIGT_POINTS = 30.0, 1000.0, 20.0, 241
# decay rate against spectral (nm) and lateral (um) detuning
_RATE_FWHM_NM, _RATE_FWHM_UM, _RATE_POINTS = 0.32, 0.80, 121
# pulsed-excitation decay histogram, blurred by the IRF the fit assumes
_DECAY_AMPLITUDE, _DECAY_BASELINE, _DECAY_T_MAX_NS, _DECAY_BIN_NS = 1e4, 5.0, 80.0, 0.05
# pulsed HBT coincidence histogram
_G2_ZERO, _G2_PERIOD_NS, _G2_BIN_NS = 0.27, 100.0, 0.2
_G2_PEAK_SIGMA_NS, _G2_PEAK_AREA = 2.0, 2000.0


def _noisy(y: np.ndarray, noise_frac: float, seed: int) -> np.ndarray:
    """y with seeded multiplicative Gaussian noise of relative size noise_frac."""
    if not (np.isfinite(noise_frac) and noise_frac >= 0):
        raise ValueError(f"noise_frac must be finite and >= 0, got {noise_frac}")
    if noise_frac > 0:
        y = y * (1.0 + noise_frac * np.random.default_rng(seed).standard_normal(y.size))
    return y


def voigt_resonance(noise_frac: float = 0.0, seed: int = 0) -> XYSeries:
    """Cavity-length-tuned resonance profile (x in pm detuning)."""
    span = 6.0 * (_VOIGT_FWHM_L_PM + _VOIGT_FWHM_G_PM)
    x = np.linspace(-span, span, _VOIGT_POINTS)
    y = voigt_profile(x, 0.0, _VOIGT_AMPLITUDE, _VOIGT_FWHM_G_PM, _VOIGT_FWHM_L_PM, _VOIGT_OFFSET)
    return XYSeries(x, _noisy(y, noise_frac, seed), x_unit="delta_l_pm", y_unit="counts")


def lorentzian_rate_curve(noise_frac: float = 0.0, seed: int = 0) -> XYSeries:
    """Decay rate vs spectral detuning (x in nm)."""
    x = np.linspace(-4.0 * _RATE_FWHM_NM, 4.0 * _RATE_FWHM_NM, _RATE_POINTS)
    y = lorentzian(x, 0.0, _RATE_FWHM_NM, _RATE_PEAK - _RATE_BASE, _RATE_BASE)
    return XYSeries(x, _noisy(y, noise_frac, seed), x_unit="delta_lambda_nm", y_unit="rate_per_s")


def gaussian_rate_curve(noise_frac: float = 0.0, seed: int = 0) -> XYSeries:
    """Decay rate vs lateral detuning (x in um)."""
    x = np.linspace(-3.0 * _RATE_FWHM_UM, 3.0 * _RATE_FWHM_UM, _RATE_POINTS)
    y = gaussian(x, 0.0, _RATE_FWHM_UM, _RATE_PEAK - _RATE_BASE, _RATE_BASE)
    return XYSeries(x, _noisy(y, noise_frac, seed), x_unit="delta_x_um", y_unit="rate_per_s")


def decay_histogram(tau_ns: float = EmitterSpec.bulk_lifetime_ns, fast_tau_ns: float = 0.0,
                    fast_amplitude: float = 0.0, poisson: bool = False,
                    seed: int = 0) -> XYSeries:
    """Pulsed-excitation decay histogram, optionally with a fast background
    component (rejected by the fit window) and Poisson counting noise."""
    t = np.arange(0.0, _DECAY_T_MAX_NS + _DECAY_BIN_NS / 2, _DECAY_BIN_NS)
    y = exp_gauss_decay(t, tau_ns, _DECAY_AMPLITUDE, _DECAY_BASELINE, IRF_SIGMA_NS)
    if fast_amplitude > 0 and fast_tau_ns > 0:
        y = y + exp_gauss_decay(t, fast_tau_ns, fast_amplitude, 0.0, IRF_SIGMA_NS)
    if poisson:
        y = np.random.default_rng(seed).poisson(y).astype(float)
    return XYSeries(t, y, x_unit="t_ns", y_unit="counts")


def g2_histogram(n_side_peaks: int = 10, poisson: bool = False, seed: int = 0) -> XYSeries:
    """Pulsed HBT coincidence histogram with the zero-delay peak suppressed."""
    t_max = (n_side_peaks + 0.5) * _G2_PERIOD_NS
    t = np.arange(-t_max, t_max + _G2_BIN_NS / 2, _G2_BIN_NS)
    y = np.zeros_like(t)
    for k in range(-n_side_peaks, n_side_peaks + 1):
        area = _G2_PEAK_AREA * (_G2_ZERO if k == 0 else 1.0)
        y += area * _G2_BIN_NS / (_G2_PEAK_SIGMA_NS * np.sqrt(2 * np.pi)) * \
            np.exp(-((t - k * _G2_PERIOD_NS) ** 2) / (2 * _G2_PEAK_SIGMA_NS ** 2))
    if poisson:
        y = np.random.default_rng(seed).poisson(y).astype(float)
    return XYSeries(t, y, x_unit="delay_ns", y_unit="coincidences")
