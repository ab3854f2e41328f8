"""Nonlinear least-squares analysis of resonance, lifetime and g2 data.

Voigt/Lorentzian/Gaussian profile fits, IRF-convolved exponential decay
fits (closed exGaussian form) and pulsed-autocorrelation peak-area
normalization.  Initial guesses come from moment estimates.

The bounded fits share one numpy Levenberg-Marquardt core (Marquardt
1963; More 1978):

- it refuses data with no more points than parameters (FitError);
- each step solves (J^T J + mu diag J^T J) dx = -J^T f.  With this
  Marquardt scaling mu is dimensionless, so amplitudes of ~1e8 and
  widths of ~0.3 are damped alike.  mu starts at 1e-3 and follows
  Nielsen's gain-ratio update;
- trial points are clipped to the bounds, and a parameter on a bound
  that the gradient pushes outward stays there;
- J is a forward difference with the usual 2-point step
  sqrt(eps) max(1, |x|), stepped inward at a bound;
- a fit converges when the gradient of the free parameters is below
  REL_TOL (gtol), when the actual and the predicted reduction of the sum
  of squares are both below REL_TOL of it (ftol, as in MINPACK), or when
  every step component satisfies |dx_i| <= REL_TOL (REL_TOL + |x_i|)
  (xtol).  It fails after MAX_ITER (n + 1) residual evaluations.

The Voigt profile evaluates the Faddeeva function with Weideman's
rational series (J. A. C. Weideman, SIAM J. Numer. Anal. 31, 1497
(1994)) at N = 40 terms; the IRF-convolved decay reads erfcx from the same
series.  So the fits run on numpy's core and the standard library alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .constants import SQRT_2LN2

MAX_ITER = 500
REL_TOL = 1e-10
# fit_lifetime's defaults: the Gaussian IRF's sigma and the start of the fit window
IRF_SIGMA_NS = 0.2
FIT_WINDOW_START_NS = 3.0
_FD_STEP = np.sqrt(np.finfo(float).eps)

# Weideman's N = 40 series: 40 real coefficients, the cosine sum of
# f(t_k) = exp(-t_k^2) (L^2 + t_k^2), t_k = L tan(pi k / 4N), over |k| < 2N,
# divided by 4N.  f is even in k, so k > 0 counts twice, and n k is reduced
# mod 4N, one period of the cosine, before it is scaled to an angle.  Built
# with math: numpy's tan, cos and exp loops would page about 1 MB of code
# into every command at import.  Every call shares the array, so it is
# read-only, and the list of f goes once it is built.
_W_N = 40
_W_L = math.sqrt(_W_N / math.sqrt(2.0))
_W_F = [math.exp(-t * t) * (_W_L ** 2 + t * t)
        for t in (_W_L * math.tan(math.pi * k / (4 * _W_N)) for k in range(2 * _W_N))]
_W_COEF = np.array([
    math.fsum([_W_F[0]] + [2.0 * f * math.cos(math.pi * (n * k % (4 * _W_N)) / (2 * _W_N))
                           for k, f in enumerate(_W_F) if k])
    for n in range(1, _W_N + 1)]) / (4 * _W_N)
_W_COEF.flags.writeable = False
del _W_F


class FitError(RuntimeError):
    pass


@dataclass(frozen=True)
class XYSeries:
    x: np.ndarray
    y: np.ndarray
    x_unit: str = ""
    y_unit: str = ""

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        if x.shape != y.shape:
            raise ValueError("x and y lengths differ")
        if not np.all(np.diff(x) > 0):
            raise ValueError("x must be strictly increasing")


def _check_counts(y: np.ndarray):
    """Raise unless every bin of a histogram holds at least zero counts."""
    if np.any(y < 0):
        raise ValueError("counts must be non-negative")


@dataclass
class FitResult:
    params: dict
    uncertainties: dict
    reduced_chi2: float
    converged: bool
    iterations: int
    degenerate: bool = False
    notes: list = field(default_factory=list)


def _jacobian(fun: Callable, x: np.ndarray, f: np.ndarray,
              lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Forward differences with the 2-point step, turned inward at a bound."""
    h = _FD_STEP * np.where(x >= 0, 1.0, -1.0) * np.maximum(1.0, np.abs(x))
    h = np.where((x + h > hi) | (x + h < lo), -h, h)
    J = np.empty((f.size, x.size))
    for i in range(x.size):
        xi = x.copy()
        xi[i] += h[i]
        J[:, i] = (fun(xi) - f) / (xi[i] - x[i])
    return J


def _levenberg_marquardt(fun: Callable, x0: np.ndarray, lo: np.ndarray,
                         hi: np.ndarray):
    """Bounded Levenberg-Marquardt; returns (x, f, J, nfev, converged).

    ``nfev`` counts the residual evaluations outside the Jacobian.
    """
    budget = MAX_ITER * (x0.size + 1)
    x = np.clip(x0, lo, hi)
    f = fun(x)
    nfev = 1
    if f.size <= x.size:
        raise FitError(f"need more points than the {x.size} fit parameters, got {f.size}")
    if not np.all(np.isfinite(f)):
        raise FitError("residuals are not finite at the initial guess")
    cost = f @ f
    J = _jacobian(fun, x, f, lo, hi)
    mu, nu = 1e-3, 2.0
    while True:
        g = J.T @ f
        # a parameter on a bound that the gradient pushes outward stays there
        free = ~(((x <= lo) & (g > 0)) | ((x >= hi) & (g < 0)))
        if np.max(np.abs(g[free]), initial=0.0) < REL_TOL:
            return x, f, J, nfev, True
        if nfev >= budget:
            return x, f, J, nfev, False
        # (A + mu diag A) step = -g, solved in columns scaled to unit diagonal
        A = J[:, free].T @ J[:, free]
        d = np.sqrt(np.diag(A))
        d[d == 0] = 1.0
        step = np.zeros_like(x)
        step[free] = np.linalg.solve(A / np.outer(d, d) + mu * np.eye(d.size),
                                     -g[free] / d) / d
        x_new = np.clip(x + step, lo, hi)
        f_new = fun(x_new)
        nfev += 1
        cost_new = f_new @ f_new
        actual = cost - cost_new
        predicted = cost - np.sum((f + J @ (x_new - x)) ** 2)
        # MINPACK's tests: both reductions relatively small and the linear
        # model not badly off, or a step small in every component
        done = ((abs(actual) <= REL_TOL * cost and predicted <= REL_TOL * cost
                 and actual <= 2.0 * predicted)
                or np.all(np.abs(x_new - x) <= REL_TOL * (REL_TOL + np.abs(x))))
        if not actual > 0:  # a failed step, non-finite residuals included
            if done:
                return x, f, J, nfev, True
            mu, nu = mu * nu, 2.0 * nu
            continue
        x, f, cost = x_new, f_new, cost_new
        J = _jacobian(fun, x, f, lo, hi)
        if done:
            return x, f, J, nfev, True
        rho = actual / predicted
        mu, nu = mu * max(1.0 / 3.0, 1.0 - (2.0 * rho - 1.0) ** 3), 2.0


def _solve(residual_fn: Callable, p0: np.ndarray, names: list[str],
           bounds) -> FitResult:
    lo, hi = (np.broadcast_to(np.asarray(b, dtype=float), p0.shape) for b in bounds)
    # a trial point on a bound can make a model singular; the solver
    # rejects the non-finite residuals that follow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x, res, J, nfev, converged = _levenberg_marquardt(residual_fn, p0, lo, hi)
    chi2 = float(res @ res) / (res.size - len(p0))
    # 1-sigma from the Jacobian, scaled by the residual variance; columns
    # go to unit norm first, as amplitudes of ~1e8 beside widths of ~0.3
    # would put the amplitude direction below pinv's cutoff
    d = np.linalg.norm(J, axis=0)
    d[d == 0] = 1.0
    Js = J / d
    try:
        cov = np.linalg.pinv(Js.T @ Js) / np.outer(d, d) * chi2
        sig = np.sqrt(np.clip(np.diag(cov), 0.0, np.inf))
    except np.linalg.LinAlgError:
        sig = np.full(len(p0), np.nan)
    return FitResult(
        params=dict(zip(names, (float(v) for v in x))),
        uncertainties=dict(zip(names, (float(s) for s in sig))),
        reduced_chi2=chi2,
        converged=converged,
        iterations=nfev,
    )


def _peak_moments(x: np.ndarray, y: np.ndarray):
    off = float(np.min(y))
    amp = float(np.max(y) - off)
    center = float(x[np.argmax(y)])
    above = y - off > amp / 2.0
    if above.any():
        width = float(x[above][-1] - x[above][0])
    else:
        width = float(x[-1] - x[0]) / 4.0
    width = max(width, float(np.mean(np.diff(x))))
    return center, amp, width, off


def _faddeeva(z):
    """Faddeeva function w(z) = exp(-z^2) erfc(-i z) for Im z >= 0.

    Weideman's series w = 2 p(Z) / (L - i z)^2 + (1/sqrt(pi)) / (L - i z)
    with Z = (L + i z) / (L - i z) and p the Horner sum of _W_COEF.
    """
    iz = 1j * z
    Z = (_W_L + iz) / (_W_L - iz)
    p = _W_COEF[-1]
    for c in _W_COEF[-2::-1]:
        p = p * Z + c
    return 2.0 * p / (_W_L - iz) ** 2 + (1.0 / np.sqrt(np.pi)) / (_W_L - iz)


def voigt_profile(x, center, amplitude, fwhm_g, fwhm_l, offset):
    """Voigt peak with unit-amplitude normalization at the center.

    Evaluated with _faddeeva, within 1e-14 of max |w| over the real axis,
    0 < Im z <= 1e4 and |z| ~ 1e12.  A vanishing Gaussian component
    collapses to the Lorentzian limit.
    """
    sigma = max(fwhm_g, 1e-12 * max(fwhm_l, 1.0)) / (2.0 * SQRT_2LN2)
    gamma = fwhm_l / 2.0
    z = ((x - center) + 1j * gamma) / (sigma * np.sqrt(2.0))
    z0 = (1j * gamma) / (sigma * np.sqrt(2.0))
    return offset + amplitude * np.real(_faddeeva(z)) / np.real(_faddeeva(z0))


def lorentzian(x, center, fwhm, amplitude, offset):
    return offset + amplitude / (1.0 + (2.0 * (x - center) / fwhm) ** 2)


def gaussian(x, center, fwhm, amplitude, offset):
    sigma = fwhm / (2.0 * SQRT_2LN2)
    return offset + amplitude * np.exp(-((x - center) ** 2) / (2.0 * sigma ** 2))


def _fit_peak(data: XYSeries, model, names) -> FitResult:
    """Fit model(x, *params) to data; names are its parameters in order.

    The start comes from _peak_moments, with the Voigt's two widths at half
    the peak's.  The centre lies within one x span of the data, widths and
    amplitude are >= 0, and the offset is free."""
    x, y = data.x, data.y
    c0, a0, w0, off0 = _peak_moments(x, y)
    start = {"center": c0, "amplitude": a0, "offset": off0,
             "fwhm": w0, "fwhm_g": w0 / 2.0, "fwhm_l": w0 / 2.0}
    span = x[-1] - x[0]
    lo = [x[0] - span if k == "center" else -np.inf if k == "offset" else 0.0 for k in names]
    hi = [x[-1] + span if k == "center" else np.inf for k in names]

    def resid(p):
        return model(x, *p) - y

    out = _solve(resid, np.array([start[k] for k in names]), names, bounds=(lo, hi))
    p = out.params
    if np.ptp(y) <= 0 or p["amplitude"] < 1e-6 * max(abs(p["offset"]), 1.0):
        out.degenerate, note = True, "amplitude consistent with zero; peak not identifiable"
    elif max(p[k] for k in names if k.startswith("fwhm")) <= 0:
        out.degenerate, note = True, "width pinned at zero; peak not identifiable"
    elif "fwhm_g" in p and p["fwhm_g"] < 1e-3 * p["fwhm_l"]:
        note = "Gaussian component negligible; effectively Lorentzian"
    else:
        return out
    out.notes.append(note)
    return out


def fit_voigt(data: XYSeries) -> FitResult:
    """Fit a Voigt peak; Gaussian and Lorentzian FWHMs reported separately."""
    return _fit_peak(data, voigt_profile, ["center", "amplitude", "fwhm_g", "fwhm_l", "offset"])


def fit_lorentzian(data: XYSeries) -> FitResult:
    return _fit_peak(data, lorentzian, ["center", "fwhm", "amplitude", "offset"])


def fit_gaussian(data: XYSeries) -> FitResult:
    return _fit_peak(data, gaussian, ["center", "fwhm", "amplitude", "offset"])


def exp_gauss_decay(t, tau, amplitude, baseline, sigma):
    """Single exponential starting at t = 0 convolved with a Gaussian IRF.

    Closed form: A/2 e^{a} erfc(v), a = sigma^2/(2 tau^2) - t/tau,
    v = (sigma/tau - t/sigma)/sqrt(2).  Since v^2 = a + t^2/(2 sigma^2), it
    is evaluated as A/2 e^{-t^2/(2 sigma^2)} erfcx(v) for v >= 0 and
    A/2 (2 e^{a} - e^{-t^2/(2 sigma^2)} erfcx(-v)) for v < 0, where a < 0,
    with erfcx(y) = w(i y) from _faddeeva: no exponent overflows and no
    erfc cancels.  sigma -> 0 reduces to a step exponential.
    """
    if sigma <= 0:
        return baseline + amplitude * np.where(t >= 0, np.exp(-t / np.maximum(tau, 1e-12)), 0.0)
    v = (sigma / tau - t / sigma) / np.sqrt(2.0)
    g = np.exp(-t ** 2 / (2.0 * sigma ** 2)) * np.real(_faddeeva(1j * np.abs(v)))
    a = sigma ** 2 / (2.0 * tau ** 2) - t / tau
    return baseline + 0.5 * amplitude * np.where(v >= 0, g,
                                                 2.0 * np.exp(np.minimum(a, 0.0)) - g)


def fit_lifetime(h: XYSeries, irf_sigma_ns: float = IRF_SIGMA_NS,
                 window_start_ns: float = FIT_WINDOW_START_NS) -> FitResult:
    """Poisson-weighted exGaussian fit of the bins h.x >= window_start_ns of
    a histogram of at least two uniform bins.

    tau is bounded below by 1e-3 max(bin width, IRF sigma); a fit that ends
    there is degenerate and not converged."""
    widths = np.diff(h.x)
    if not widths.size:
        raise ValueError("need at least two bins to read the bin width")
    if not np.allclose(widths, widths[0], rtol=1e-6):
        raise ValueError("bin width must be uniform")
    bin_ns = float(np.mean(widths))
    _check_counts(h.y)
    if not (np.isfinite(irf_sigma_ns) and irf_sigma_ns >= 0):
        raise ValueError(f"irf_sigma_ns must be finite and >= 0, got {irf_sigma_ns}")
    if not np.isfinite(window_start_ns):
        raise ValueError(f"window_start_ns must be finite, got {window_start_ns}")
    mask = h.x >= window_start_ns
    if not mask.any():
        raise FitError("fit window excludes all bins")
    t, c = h.x[mask], h.y[mask]
    if not np.any(c > 0):
        raise FitError("no counts inside the fit window")
    w = 1.0 / np.sqrt(np.maximum(c, 1.0))
    # median of the last tenth, written out: np.median imports numpy.ma
    tail = np.sort(c[-max(c.size // 10, 1):])
    mid = tail.size // 2
    base0 = float(tail[mid] if tail.size % 2 else (tail[mid - 1] + tail[mid]) / 2)
    amp0 = float(max(c.max() - base0, 1.0))
    # crude tau from the 1/e point of the decaying part
    above = c - base0 > amp0 / np.e
    tau0 = float(t[above][-1] - t[0]) if above.any() else float(t[-1] - t[0]) / 3.0
    tau0 = max(tau0, bin_ns)
    # tau's lower bound, the resolution floor: a decay far faster than both
    # a bin and the IRF is not identifiable
    floor = 1e-3 * max(bin_ns, irf_sigma_ns)

    def resid(p):
        tau, amp, base = p
        return w * (exp_gauss_decay(t, tau, amp, base, irf_sigma_ns) - c)

    out = _solve(resid, np.array([tau0, amp0, base0]),
                 ["tau_ns", "amplitude", "baseline"],
                 bounds=([floor, 0.0, 0.0], [np.inf, np.inf, np.inf]))
    if out.params["tau_ns"] <= floor:
        out.degenerate = True
        out.converged = False
        out.notes.append("tau far below the time resolution; not identifiable")
    return out


def g2_pulse_areas(histogram: XYSeries, pulse_period_ns: float, window_ns: float,
                   normalization_delay_ns: float = 0.0) -> dict:
    """Pulsed-autocorrelation peak areas and g2(0).

    Counts are integrated in a window centered on each expected peak
    position (integer multiples of the pulse period) whose window the
    histogram covers; it must cover the zero-delay peak and at least 3
    peaks on each side of it.  g2(0) is the zero-delay area over the mean
    area of the nonzero delays at |delay| >= normalization_delay_ns (by
    default all of them), which must hold coincidences.
    """
    if not (pulse_period_ns > window_ns > 0):
        raise ValueError("need pulse_period > window > 0")
    t, y = histogram.x, histogram.y
    _check_counts(y)
    span_lo = int(np.ceil((t[0] + window_ns / 2) / pulse_period_ns))
    span_hi = int(np.floor((t[-1] - window_ns / 2) / pulse_period_ns))
    if span_lo > -3 or span_hi < 3:
        raise ValueError("histogram must span at least 3 pulse periods on each side")
    areas = {}
    for k in range(span_lo, span_hi + 1):
        center = k * pulse_period_ns
        m = np.abs(t - center) <= window_ns / 2.0
        areas[k] = float(np.sum(y[m]))
    norm_keys = [k for k in areas
                 if k != 0 and abs(k * pulse_period_ns) >= normalization_delay_ns]
    if not norm_keys:
        raise ValueError("empty normalization set")
    norm = float(np.mean([areas[k] for k in norm_keys]))
    if norm == 0:
        raise ValueError("no coincidences in the normalization peaks")
    return {"areas": areas, "g2_zero": areas[0] / norm, "normalization_area": norm}
