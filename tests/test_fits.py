import pathlib

import numpy as np
import pytest

from cavityforge import fits, synthetic
from cavityforge.fits import (FitError, XYSeries, exp_gauss_decay,
                              fit_gaussian, fit_lifetime, fit_lorentzian,
                              fit_voigt, g2_pulse_areas, gaussian, lorentzian,
                              voigt_profile)

DATA = pathlib.Path(__file__).resolve().parent.parent / "data"

# ------------------------------------------------------------- data objects


def test_xyseries_requires_increasing_x():
    with pytest.raises(ValueError):
        XYSeries(np.array([0.0, 1.0, 1.0]), np.zeros(3))


def test_decay_histogram_requires_uniform_bins():
    with pytest.raises(ValueError):
        fit_lifetime(XYSeries(np.array([0.0, 1.0, 3.0]), np.zeros(3)))
    with pytest.raises(ValueError):
        fit_lifetime(XYSeries(np.array([0.0, 1.0, 2.0]), np.array([1.0, -1.0, 0.0])))


# ------------------------------------------------------------ profile models


def test_voigt_limits():
    x = np.linspace(-5, 5, 201)
    # vanishing Gaussian width -> Lorentzian
    v = voigt_profile(x, 0.0, 1.0, 0.0, 2.0, 0.0)
    l = lorentzian(x, 0.0, 2.0, 1.0, 0.0)
    assert np.allclose(v, l, atol=1e-6)
    # peak value equals amplitude + offset
    assert voigt_profile(np.array([0.3]), 0.3, 2.5, 1.0, 1.0, 0.5)[0] == \
        pytest.approx(3.0, rel=1e-12)


@pytest.mark.parametrize("z", [
    np.linspace(-50.0, 50.0, 20001) + 0j,                  # real axis
    np.linspace(-1e4, 1e4, 20001) + 0j,
    *(np.linspace(-50.0, 50.0, 2001) + 1j * y for y in np.logspace(-8, 4, 13)),
    (np.linspace(-5.0, 5.0, 201) + 1j) * 1e12,              # Lorentzian limit
], ids=["real", "real-wide", *(f"im{e}" for e in range(-8, 5)), "lorentzian"])
def test_faddeeva_matches_wofz(z):
    from scipy.special import wofz
    ref = wofz(z)
    assert np.max(np.abs(fits._faddeeva(z) - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_exp_gauss_decay_reduces_to_exponential():
    t = np.linspace(0.1, 50.0, 500)  # clear of the t=0 step midpoint
    a = exp_gauss_decay(t, 12.6, 1.0, 0.0, 1e-9)
    b = np.exp(-t / 12.6)
    assert np.allclose(a, b, rtol=1e-6)


@pytest.mark.parametrize("tau", [1e-3 * 0.2, 0.027, 12.6])
def test_exp_gauss_decay_matches_scipy(tau):
    # e^{a} erfc(v) = 2 e^{a + log_ndtr(-sqrt(2) v)} overflows nowhere; the
    # sum in the exponent cancels to ~1e-10 relative at tau << sigma
    from scipy.special import log_ndtr
    sigma = 0.2
    t = np.arange(-2.0, 80.0, 0.05)
    v = (sigma / tau - t / sigma) / np.sqrt(2.0)
    a = sigma ** 2 / (2.0 * tau ** 2) - t / tau
    ref = 1e4 * np.exp(a + log_ndtr(-np.sqrt(2.0) * v))
    np.testing.assert_allclose(exp_gauss_decay(t, tau, 1e4, 0.0, sigma), ref,
                               rtol=1e-9, atol=1e-300)  # subnormals round coarser


# -------------------------------------------------- noiseless round trips


def test_voigt_roundtrip_noiseless():
    s = synthetic.voigt_resonance(noise_frac=0.0)
    out = fit_voigt(s)
    assert out.converged
    assert out.params["fwhm_l"] == pytest.approx(60.6, rel=1e-4)
    assert out.params["fwhm_g"] == pytest.approx(30.0, rel=1e-3)
    assert out.params["center"] == pytest.approx(0.0, abs=1e-4)


def test_lorentzian_roundtrip_noiseless():
    s = synthetic.lorentzian_rate_curve(noise_frac=0.0)
    out = fit_lorentzian(s)
    assert out.converged
    assert out.params["fwhm"] == pytest.approx(0.32, rel=1e-4)
    assert out.params["offset"] == pytest.approx(88.2e6, rel=1e-4)


def test_gaussian_roundtrip_noiseless():
    s = synthetic.gaussian_rate_curve(noise_frac=0.0)
    out = fit_gaussian(s)
    assert out.converged
    assert out.params["fwhm"] == pytest.approx(0.80, rel=1e-4)


def test_lifetime_roundtrip_noiseless():
    h = synthetic.decay_histogram(tau_ns=12.6, poisson=False)
    out = fit_lifetime(h)
    assert out.converged
    assert out.params["tau_ns"] == pytest.approx(12.6, rel=1e-4)


def test_lifetime_window_rejects_fast_component():
    # a 0.3 ns background decay dies out before the 3 ns window opens
    h = synthetic.decay_histogram(tau_ns=12.6, fast_tau_ns=0.3,
                                  fast_amplitude=5e4, poisson=False)
    out = fit_lifetime(h)
    assert out.params["tau_ns"] == pytest.approx(12.6, rel=1e-3)


def test_g2_noiseless():
    s = synthetic.g2_histogram(poisson=False)
    out = g2_pulse_areas(s, 100.0, 20.0)
    assert out["g2_zero"] == pytest.approx(0.27, abs=1e-4)


def test_g2_normalization_delay_excludes_near_peaks():
    s = synthetic.g2_histogram(poisson=False)
    out = g2_pulse_areas(s, 100.0, 20.0, normalization_delay_ns=300.0)
    assert out["g2_zero"] == pytest.approx(0.27, abs=1e-4)


def test_g2_requires_enough_span():
    s = synthetic.g2_histogram(n_side_peaks=2)
    with pytest.raises(ValueError):
        g2_pulse_areas(s, 100.0, 20.0)


# ----------------------------------------------------------- noisy recovery


@pytest.mark.parametrize("seed", range(10))
def test_voigt_noisy_recovery(seed):
    s = synthetic.voigt_resonance(noise_frac=0.02, seed=seed)
    out = fit_voigt(s)
    assert out.converged
    assert out.params["fwhm_l"] == pytest.approx(60.6, rel=0.07)


@pytest.mark.parametrize("seed", range(10))
def test_lifetime_noisy_recovery(seed):
    h = synthetic.decay_histogram(tau_ns=12.6, poisson=True, seed=seed)
    out = fit_lifetime(h)
    assert out.converged
    assert out.params["tau_ns"] == pytest.approx(12.6, rel=0.02)


# ------------------------------------------------------------- edge cases


def test_flat_data_flags_degenerate():
    x = np.linspace(-1, 1, 51)
    y = np.full_like(x, 7.0)
    for fit in (fit_voigt, fit_lorentzian, fit_gaussian):
        out = fit(XYSeries(x, y))
        assert out.degenerate, fit.__name__
        assert out.notes == ["amplitude consistent with zero; peak not identifiable"]


@pytest.mark.parametrize("fit, kwargs, params", [
    (fit_voigt, {}, 5), (fit_lorentzian, {}, 4), (fit_gaussian, {}, 4),
    (fit_lifetime, {"window_start_ns": 0.0}, 3)],
    ids=["voigt", "lorentzian", "gaussian", "lifetime"])
def test_no_more_points_than_parameters_raises(fit, kwargs, params):
    # n = p fits any data exactly, with a reduced chi2 of 0/0
    x = np.arange(float(params))
    with pytest.raises(FitError, match=f"more points than the {params} fit parameters"):
        fit(XYSeries(x, 1.0 + np.exp(-x)), **kwargs)


def test_voigt_fits_one_point_more_than_its_parameters():
    s = synthetic.voigt_resonance()
    i = np.linspace(100, 140, 6).astype(int)
    out = fit_voigt(XYSeries(s.x[i], s.y[i]))
    assert out.converged and not out.degenerate
    assert np.isfinite(out.reduced_chi2)


def test_lifetime_empty_window_raises():
    h = XYSeries(np.linspace(0.0, 2.0, 21), np.ones(21))
    with pytest.raises(FitError):
        fit_lifetime(h, window_start_ns=3.0)


@pytest.mark.parametrize("center, fwhm, pinned", [(0.4, 0.3, "amplitude"),
                                                   (0.1, 0.15, "fwhm")])
def test_dip_pins_a_peak_parameter_at_zero(center, fwhm, pinned):
    # a dip is no peak: the steps drive the amplitude or the width negative,
    # the bound holds it at 0 and the fit is flagged degenerate
    x = np.linspace(-1, 1, 101)
    y = 100.0 - 10.0 / (1.0 + (2.0 * (x - center) / fwhm) ** 2)
    out = fit_lorentzian(XYSeries(x, y))
    assert out.params[pinned] == 0.0
    assert out.degenerate


def test_lifetime_pinned_tau_is_not_converged():
    # every count above background in the first bin: the decay is faster
    # than a bin and tau runs onto its lower bound
    t = np.arange(0.0, 20.0, 0.05)
    c = np.full_like(t, 5.0)
    c[0] = 1e4
    out = fit_lifetime(XYSeries(t, c), irf_sigma_ns=0.0, window_start_ns=0.0)
    # the floor is 1e-3 of the bin width when there is no IRF
    assert out.params["tau_ns"] == 1e-3 * float(np.mean(np.diff(t)))
    assert "tau far below the time resolution; not identifiable" in out.notes
    assert out.degenerate
    assert not out.converged


@pytest.mark.parametrize("sigma", [-0.2, np.nan, np.inf])
def test_decay_histogram_rejects_bad_irf_sigma(sigma):
    t = np.arange(0.0, 20.0, 0.05)
    with pytest.raises(ValueError, match="irf_sigma_ns"):
        fit_lifetime(XYSeries(t, np.ones_like(t)), irf_sigma_ns=sigma)


def test_lifetime_of_one_bin_raises():
    # one bin has no width to bound tau by
    with pytest.raises(ValueError, match="at least two bins"):
        fit_lifetime(XYSeries([5.0], [100.0]))


@pytest.mark.parametrize("start", [np.nan, np.inf, -np.inf])
def test_lifetime_rejects_a_window_start_that_is_not_finite(start):
    t = np.arange(0.0, 20.0, 0.05)
    with pytest.raises(ValueError, match="window_start_ns must be finite"):
        fit_lifetime(XYSeries(t, np.ones_like(t)), window_start_ns=start)


def test_nonfinite_data_raises():
    x = np.linspace(-1, 1, 51)
    y = np.ones_like(x)
    y[10] = np.nan
    with pytest.raises(FitError):
        fit_lorentzian(XYSeries(x, y))


# ---------------------------------------------------- parity with scipy TRF

_PARITY_FITS = {
    "lorentzian": lambda seed: fit_lorentzian(
        synthetic.lorentzian_rate_curve(noise_frac=0.02, seed=seed)),
    "gaussian": lambda seed: fit_gaussian(
        synthetic.gaussian_rate_curve(noise_frac=0.02, seed=seed)),
    "lifetime": lambda seed: fit_lifetime(
        synthetic.decay_histogram(poisson=True, seed=seed)),
    "voigt": lambda seed: fit_voigt(
        synthetic.voigt_resonance(noise_frac=0.02, seed=seed)),
}


def test_uncertainties_survive_bad_column_scaling():
    # amplitude ~7e7 beside a width ~0.8: the sigmas must match the exact
    # inverse of the column-scaled normal matrix at the fitted point
    x, y = np.loadtxt(DATA / "zpl6_lateral.csv", delimiter=",", skiprows=1,
                      unpack=True)
    out = fit_gaussian(XYSeries(x, y))
    p = np.array([out.params[k] for k in ("center", "fwhm", "amplitude", "offset")])

    def resid(q):
        return gaussian(x, *q) - y

    f = resid(p)
    J = fits._jacobian(resid, p, f, np.full(4, -np.inf), np.full(4, np.inf))
    d = np.linalg.norm(J, axis=0)
    r_inv = np.linalg.inv(np.linalg.qr(J / d, mode="r"))
    want = np.sqrt(np.sum(r_inv ** 2, axis=1) * out.reduced_chi2) / d
    got = np.array([out.uncertainties[k] for k in ("center", "fwhm", "amplitude", "offset")])
    np.testing.assert_allclose(got, want, rtol=1e-6)


@pytest.mark.parametrize("kind", sorted(_PARITY_FITS))
def test_solver_matches_scipy_trf(kind, monkeypatch):
    from scipy.optimize import least_squares

    def trf(fun, x0, lo, hi):
        sol = least_squares(fun, x0, bounds=(lo, hi), method="trf",
                            max_nfev=fits.MAX_ITER * (x0.size + 1),
                            xtol=fits.REL_TOL, ftol=fits.REL_TOL, gtol=fits.REL_TOL)
        return sol.x, sol.fun, sol.jac, sol.nfev, bool(sol.success)

    fit = _PARITY_FITS[kind]
    for seed in range(10):
        own = fit(seed)
        with monkeypatch.context() as m:
            m.setattr(fits, "_levenberg_marquardt", trf)
            ref = fit(seed)
        assert own.converged == ref.converged
        for name, want in ref.params.items():
            # Both solvers stop on the same 1e-10 ftol.  A peak centre is the
            # last parameter to settle (its forward-difference column carries
            # the most rounding), so the two stopping points differ there by
            # up to ~1e-5 of sigma; every other parameter agrees within 1e-6.
            tol = 2e-5 if name == "center" else 1e-6
            scale = max(abs(want), ref.uncertainties[name])
            assert abs(own.params[name] - want) <= tol * scale, (seed, name)


def test_lifetime_far_below_the_resolution_is_degenerate():
    # a bare IRF peak holds no decay: tau runs down to its floor, 1e-3 of
    # the larger of the bin width and the IRF width, where it is not
    # identifiable, well inside the evaluation budget
    t = np.arange(0.0, 20.0, 0.05)
    c = 5.0 + 1e4 * np.exp(-t ** 2 / 0.08)
    out = fit_lifetime(XYSeries(t, c), irf_sigma_ns=0.2, window_start_ns=0.0)
    assert out.params["tau_ns"] == 1e-3 * 0.2
    assert out.iterations < fits.MAX_ITER * (3 + 1)   # the budget of a 3-parameter fit
    assert out.degenerate
    assert "tau far below the time resolution; not identifiable" in out.notes
    assert not out.converged
