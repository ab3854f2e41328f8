"""Seeded synthetic datasets mirroring the published fit results.

Raw measurement data are not available; these generators produce
deterministic stand-ins parameterized by the published fit parameters
(resonance linewidths, decay times, g2(0)).
"""

from __future__ import annotations

import numpy as np

from .fits import DecayHistogram, XYSeries, exp_gauss_decay, gaussian, lorentzian, voigt_profile


def voigt_resonance(center_nm: float = 637.0, fwhm_l_pm: float = 60.6,
                    fwhm_g_pm: float = 30.0, amplitude: float = 1000.0,
                    offset: float = 20.0, n_points: int = 241,
                    noise_frac: float = 0.0, seed: int = 0) -> XYSeries:
    """Cavity-length-tuned resonance profile (x in pm detuning)."""
    span = 6.0 * (fwhm_l_pm + fwhm_g_pm)
    x = np.linspace(-span, span, n_points)
    y = voigt_profile(x, 0.0, amplitude, fwhm_g_pm, fwhm_l_pm, offset)
    if noise_frac > 0:
        rng = np.random.default_rng(seed)
        y = y * (1.0 + noise_frac * rng.standard_normal(x.size))
    return XYSeries(x, y, x_unit="delta_l_pm", y_unit="counts")


def lorentzian_rate_curve(fwhm_nm: float = 0.32, peak_rate: float = 158e6,
                          baseline: float = 88.2e6, n_points: int = 121,
                          noise_frac: float = 0.0, seed: int = 0) -> XYSeries:
    """Decay rate vs spectral detuning (x in nm)."""
    x = np.linspace(-4.0 * fwhm_nm, 4.0 * fwhm_nm, n_points)
    y = lorentzian(x, 0.0, fwhm_nm, peak_rate - baseline, baseline)
    if noise_frac > 0:
        rng = np.random.default_rng(seed)
        y = y * (1.0 + noise_frac * rng.standard_normal(x.size))
    return XYSeries(x, y, x_unit="delta_lambda_nm", y_unit="rate_per_s")


def gaussian_rate_curve(fwhm_um: float = 0.80, peak_rate: float = 158e6,
                        baseline: float = 88.2e6, n_points: int = 121,
                        noise_frac: float = 0.0, seed: int = 0) -> XYSeries:
    """Decay rate vs lateral detuning (x in um)."""
    x = np.linspace(-3.0 * fwhm_um, 3.0 * fwhm_um, n_points)
    y = gaussian(x, 0.0, fwhm_um, peak_rate - baseline, baseline)
    if noise_frac > 0:
        rng = np.random.default_rng(seed)
        y = y * (1.0 + noise_frac * rng.standard_normal(x.size))
    return XYSeries(x, y, x_unit="delta_x_um", y_unit="rate_per_s")


def decay_histogram(tau_ns: float = 12.6, irf_sigma_ns: float = 0.2,
                    amplitude: float = 1e4, baseline: float = 5.0,
                    fast_tau_ns: float = 0.0, fast_amplitude: float = 0.0,
                    t_max_ns: float = 80.0, bin_ns: float = 0.05,
                    poisson: bool = False, seed: int = 0,
                    fit_window_start_ns: float = 3.0) -> DecayHistogram:
    """Pulsed-excitation decay histogram, optionally with a fast background
    component (rejected by the fit window) and Poisson counting noise."""
    t = np.arange(0.0, t_max_ns + bin_ns / 2, bin_ns)
    y = exp_gauss_decay(t, tau_ns, amplitude, baseline, irf_sigma_ns)
    if fast_amplitude > 0 and fast_tau_ns > 0:
        y = y + exp_gauss_decay(t, fast_tau_ns, fast_amplitude, 0.0, irf_sigma_ns)
    if poisson:
        rng = np.random.default_rng(seed)
        y = rng.poisson(y).astype(float)
    return DecayHistogram(t, y, irf_sigma_ns=irf_sigma_ns,
                          fit_window_start_ns=fit_window_start_ns)


def g2_histogram(g2_zero: float = 0.27, pulse_period_ns: float = 100.0,
                 n_side_peaks: int = 10, peak_sigma_ns: float = 2.0,
                 peak_area: float = 2000.0, bin_ns: float = 0.2,
                 poisson: bool = False, seed: int = 0) -> XYSeries:
    """Pulsed HBT coincidence histogram with the zero-delay peak suppressed."""
    t_max = (n_side_peaks + 0.5) * pulse_period_ns
    t = np.arange(-t_max, t_max + bin_ns / 2, bin_ns)
    y = np.zeros_like(t)
    for k in range(-n_side_peaks, n_side_peaks + 1):
        area = peak_area * (g2_zero if k == 0 else 1.0)
        y += area * bin_ns / (peak_sigma_ns * np.sqrt(2 * np.pi)) * \
            np.exp(-((t - k * pulse_period_ns) ** 2) / (2 * peak_sigma_ns ** 2))
    if poisson:
        rng = np.random.default_rng(seed)
        y = rng.poisson(y).astype(float)
    return XYSeries(t, y, x_unit="delay_ns", y_unit="coincidences")

