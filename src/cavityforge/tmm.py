"""One-dimensional transfer-matrix solver at normal incidence.

Spectra, resonance finding, mode dispersion lambda_res(L) and
intracavity standing-wave field profiles.  Scalar (polarization-
degenerate) treatment; wavelengths in nm.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .stack import CavityAssembly, Layer


@dataclass(frozen=True)
class StackResponse:
    wavelength: float
    r: complex
    t: complex
    R_power: float
    T_power: float


@dataclass
class BranchSample:
    L: float
    lambda_res: float
    slope: float = np.nan         # d(lambda)/dL, filled by dispersion_map
    diamond_fraction: float = np.nan


@dataclass
class ModeBranch:
    samples: list[BranchSample]
    character: str = "mixed"       # "air-like" | "diamond-like" | "mixed"

    @property
    def L_values(self) -> np.ndarray:
        return np.array([s.L for s in self.samples])

    @property
    def lambda_values(self) -> np.ndarray:
        return np.array([s.lambda_res for s in self.samples])

    def slope_at(self, lam: float) -> float:
        """Local slope of the branch at the sample closest to wavelength lam."""
        i = int(np.argmin(np.abs(self.lambda_values - lam)))
        return self.samples[i].slope


@dataclass
class FieldProfile:
    z: np.ndarray                  # nm, from the bottom substrate interface
    amplitude: np.ndarray          # |E(z)|, relative units
    eps_r: np.ndarray              # relative permittivity at each sample
    resonant_wavelength: float
    layer_edges: np.ndarray        # interface positions, nm
    layer_names: list[str]
    antinodes: np.ndarray          # nm
    nodes: np.ndarray              # nm

    def mask_for_layer(self, name: str) -> np.ndarray:
        mask = np.zeros_like(self.z, dtype=bool)
        for i, nm_ in enumerate(self.layer_names):
            if nm_ == name:
                mask |= (self.z >= self.layer_edges[i]) & (self.z <= self.layer_edges[i + 1])
        return mask


class ResonanceError(RuntimeError):
    """Raised when an operation requires a resonance that cannot be found."""


def _layer_entries(n: complex, thickness, lam):
    """Entries (cos d, i sin d / n, i n sin d) of a layer's characteristic
    matrix, d = 2 pi n thickness / lam; thickness or lam may be arrays."""
    delta = 2.0 * np.pi * n * thickness / lam
    c, s = np.cos(delta), np.sin(delta)
    return c, 1j * s / n, 1j * n * s


def characteristic_matrix(layer: Layer, lam: float) -> np.ndarray:
    """2x2 characteristic matrix of a single layer at wavelength lam (nm)."""
    if lam <= 0:
        raise ValueError("wavelength must be positive")
    c, a, b = _layer_entries(layer.n, layer.thickness, lam)
    return np.array([[c, a], [b, c]])


def _stack_matrices(layers: Sequence[Layer], lams: np.ndarray) -> np.ndarray:
    """Composed characteristic matrices, vectorized over wavelength.

    Returns an array of shape (len(lams), 2, 2).
    """
    lams = np.asarray(lams, dtype=float)
    M = np.zeros((lams.size, 2, 2), dtype=complex)
    M[:, 0, 0] = 1.0
    M[:, 1, 1] = 1.0
    for layer in layers:
        if layer.thickness == 0.0:
            continue
        c, a, b = _layer_entries(layer.n, layer.thickness, lams)
        m00 = M[:, 0, 0] * c + M[:, 0, 1] * b
        m01 = M[:, 0, 0] * a + M[:, 0, 1] * c
        m10 = M[:, 1, 0] * c + M[:, 1, 1] * b
        m11 = M[:, 1, 0] * a + M[:, 1, 1] * c
        M[:, 0, 0], M[:, 0, 1], M[:, 1, 0], M[:, 1, 1] = m00, m01, m10, m11
    return M


def _exit_vector(M: np.ndarray, n_out: complex):
    """[B, C] = M @ [1, n_out]: the fields at the entry face for a unit
    transmitted wave in the exit medium."""
    return M[..., 0, 0] + M[..., 0, 1] * n_out, M[..., 1, 0] + M[..., 1, 1] * n_out


def _rt_from_matrix(M: np.ndarray, n_in: complex, n_out: complex):
    B, C = _exit_vector(M, n_out)
    denom = n_in * B + C
    r = (n_in * B - C) / denom
    t = 2.0 * n_in / denom
    return r, t


def _transmittance(B, C, n_in: complex, n_out: complex):
    t = 2.0 * n_in / (n_in * B + C)
    return np.real(n_out) / np.real(n_in) * np.abs(t) ** 2


def stack_response(layers: Sequence[Layer], n_in: complex, n_out: complex,
                   lam: float) -> StackResponse:
    """Amplitude and power coefficients of a layer stack at one wavelength."""
    if len(layers) < 1:
        raise ValueError("need at least one layer")
    M = _stack_matrices(layers, np.array([lam]))
    r, t = _rt_from_matrix(M[0], complex(n_in), complex(n_out))
    R = float(np.abs(r) ** 2)
    T = float(np.real(n_out) / np.real(n_in) * np.abs(t) ** 2)
    return StackResponse(lam, complex(r), complex(t), R, T)


def transmission_spectrum(layers: Sequence[Layer], n_in: complex, n_out: complex,
                          lams: np.ndarray) -> np.ndarray:
    n_out = complex(n_out)
    B, C = _exit_vector(_stack_matrices(layers, lams), n_out)
    return _transmittance(B, C, complex(n_in), n_out)


def _gap_spectrum(assembly: CavityAssembly, lams: np.ndarray):
    """T(lams) of the assembly as a function of its air-gap layer.

    Only the gap depends on L.  The product P of the layers below it
    (bottom DBR, diamond) and the top DBR's exit vector Q @ [1, n_out] are
    computed here once; each call applies the gap layer and then P, as two
    2-vector updates, so no per-gap matrix stack is kept.
    """
    layers = assembly.layers()
    i = next(k for k, ly in enumerate(layers) if ly is assembly.air_gap)
    n_in, n_out = assembly.n_in, assembly.n_out
    P = _stack_matrices(layers[:i], lams)
    v0, v1 = _exit_vector(_stack_matrices(layers[i + 1:], lams), n_out)

    def spectrum(gap: Layer) -> np.ndarray:
        c, a, b = _layer_entries(gap.n, gap.thickness, lams)
        w0, w1 = c * v0 + a * v1, b * v0 + c * v1
        return _transmittance(P[:, 0, 0] * w0 + P[:, 0, 1] * w1,
                              P[:, 1, 0] * w0 + P[:, 1, 1] * w1, n_in, n_out)
    return spectrum


_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, a: np.ndarray, b: np.ndarray, tol: float) -> np.ndarray:
    """Golden-section maxima of f on the brackets [a_k, b_k].

    The brackets advance in lock-step: each step is one call of f over the
    brackets still wider than tol, and each bracket takes exactly the steps
    it would take alone.
    """
    a, b = np.array(a, dtype=float), np.array(b, dtype=float)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = np.split(f(np.concatenate([c, d])), 2)
    live = np.flatnonzero((b - a) > tol)
    while live.size:
        left = fc[live] > fd[live]
        lo, hi = live[left], live[~left]
        b[lo], d[lo], fd[lo] = d[lo], c[lo], fc[lo]
        c[lo] = b[lo] - _INVPHI * (b[lo] - a[lo])
        a[hi], c[hi], fc[hi] = c[hi], d[hi], fd[hi]
        d[hi] = a[hi] + _INVPHI * (b[hi] - a[hi])
        fc[lo], fd[hi] = np.split(f(np.concatenate([c[lo], d[hi]])), [lo.size])
        live = live[(b[live] - a[live]) > tol]
    return 0.5 * (a + b)


def _lorentzian_fwhm(f, lam0: np.ndarray, T0: np.ndarray) -> np.ndarray:
    """Cold linewidths from local Lorentzian fits of the transmission peaks
    at lam0 (peak values T0); one call of f serves every peak's fit grid.

    Survives 1e-5-level peak transmissions where half-max bracketing on a
    coarse grid would fail.
    """
    # bracket each half-max point by doubling an offset
    d = np.full(lam0.size, 1e-5)  # nm
    live = np.arange(lam0.size)
    while live.size:
        above = f(lam0[live] + d[live]) > 0.5 * T0[live]
        live = live[above & (d[live] < 50.0)]
        d[live] *= 2.0
    offsets = [np.linspace(-3.0 * dk, 3.0 * dk, 61) for dk in d]
    Ts = f(np.concatenate([l0 + o for l0, o in zip(lam0, offsets)]))
    fwhm = np.empty(lam0.size)
    for k, (o, T) in enumerate(zip(offsets, np.split(Ts, lam0.size))):
        # 1/T of a Lorentzian is quadratic in detuning: fit T0/T = 1 + (2x/w)^2
        y = T0[k] / np.maximum(T, 1e-300) - 1.0
        coef = np.polyfit(o, y, 2)
        fwhm[k] = 2.0 / np.sqrt(max(coef[0], 1e-300))
    return fwhm


def _scan_grid(lam_window: tuple[float, float], scan_step: float) -> np.ndarray:
    lo, hi = lam_window
    return np.arange(lo, hi + scan_step, scan_step)


def _refine_peaks(assembly: CavityAssembly, lams: np.ndarray, T: np.ndarray,
                  lam_window: tuple[float, float]) -> list[dict]:
    """Resonances from a scan T(lams) of the assembly: pick the local maxima
    above a floor, then refine them all in lock-step on the full stack."""
    floor = max(T.max() * 1e-6, 1e-12)
    mid = T[1:-1]
    peaks = np.flatnonzero((mid > T[:-2]) & (mid >= T[2:]) & (mid > floor)) + 1
    if not peaks.size:
        return []

    layers = assembly.layers()

    def f(lam):
        return transmission_spectrum(layers, assembly.n_in, assembly.n_out, lam)

    lam_res = _golden_max(f, lams[peaks - 1], lams[peaks + 1], tol=1e-6)
    T0 = f(lam_res)
    fwhm = _lorentzian_fwhm(f, lam_res, T0)
    lo, hi = lam_window
    out = []
    for i, lam, w, t0 in zip(peaks, lam_res, fwhm, T0):
        if (i <= 1 or i >= lams.size - 2
                or lam - lo < 5.0 * w or hi - lam < 5.0 * w):
            warnings.warn(f"transmission peak at {lam:.3f} nm abuts the window edge")
        out.append({
            "lambda_res": float(lam),
            "cold_linewidth_nm": float(w),
            "Q_cold": float(lam / w),
            "peak_transmission": float(t0),
        })
    out.sort(key=lambda d: d["lambda_res"])
    return out


def find_resonances(assembly: CavityAssembly, lam_window: tuple[float, float],
                    scan_step: float = 0.001) -> list[dict]:
    """Transmission peaks of the assembly inside lam_window.

    Scans T on a scan_step grid, picks its local maxima, then refines all of
    them in lock-step: a golden-section search to 1e-6 nm on one bracket of
    two grid steps per peak, and a Lorentzian fit of 1/T on a 61-point grid
    spanning +-3 half-max offsets for the cold linewidth.  Each step is one
    vectorised TMM call over every peak still refining.

    Returns one dict per resonance: lambda_res (nm), cold_linewidth_nm,
    Q_cold.  Empty list when no peak lies in the window.
    """
    lams = _scan_grid(lam_window, scan_step)
    T = transmission_spectrum(assembly.layers(), assembly.n_in, assembly.n_out, lams)
    return _refine_peaks(assembly, lams, T, lam_window)


def field_profile(assembly: CavityAssembly, lam_res: float,
                  min_samples: int = 2000) -> FieldProfile:
    """Standing-wave |E(z)| through the stack at a resonant wavelength.

    Unit-amplitude illumination from the bottom substrate; amplitudes are
    relative.  Rejects wavelengths more than one cold linewidth away from
    the nearest transmission peak.
    """
    layers = [ly for ly in assembly.layers() if ly.thickness > 0]
    n_in, n_out = assembly.n_in, assembly.n_out

    # on-resonance check within one cold linewidth
    near = find_resonances(assembly, (lam_res - 0.5, lam_res + 0.5))
    if not near:
        raise ResonanceError(f"no resonance within 0.5 nm of {lam_res} nm")
    best = min(near, key=lambda d: abs(d["lambda_res"] - lam_res))
    if abs(best["lambda_res"] - lam_res) > best["cold_linewidth_nm"]:
        raise ResonanceError(
            f"{lam_res} nm is {abs(best['lambda_res'] - lam_res):.4g} nm from the "
            f"nearest resonance ({best['lambda_res']:.6f} nm), more than one "
            f"linewidth ({best['cold_linewidth_nm']:.4g} nm)")

    resp = stack_response(layers, n_in, n_out, lam_res)
    total = sum(ly.thickness for ly in layers)
    edges = np.concatenate([[0.0], np.cumsum([ly.thickness for ly in layers])])

    # [E; H] at the top (exit) interface: transmitted forward wave only
    EH_top = np.array([resp.t, n_out * resp.t], dtype=complex)

    zs, amps, eps = [], [], []
    # walk from the top layer downward; inside each layer
    # [E(z); H(z)] = M(thickness from z to layer top) @ [E; H]_layer_top
    EH_upper = EH_top
    for idx in range(len(layers) - 1, -1, -1):
        ly = layers[idx]
        dz = min(lam_res / (20.0 * ly.n.real), total / min_samples)
        npts = max(int(np.ceil(ly.thickness / dz)) + 1, 8)
        z_local = np.linspace(0.0, ly.thickness, npts)  # from layer bottom
        c, a, b = _layer_entries(ly.n, ly.thickness - z_local, lam_res)
        E = c * EH_upper[0] + a * EH_upper[1]
        H = b * EH_upper[0] + c * EH_upper[1]
        zs.append(edges[idx] + z_local)
        amps.append(np.abs(E))
        eps.append(np.full(npts, (ly.n ** 2).real))
        EH_upper = np.array([E[0], H[0]])

    z = np.concatenate(zs[::-1])
    amp = np.concatenate(amps[::-1])
    eps_r = np.concatenate(eps[::-1])
    order = np.argsort(z, kind="stable")
    z, amp, eps_r = z[order], amp[order], eps_r[order]

    anti, node = _extrema(z, amp)
    return FieldProfile(z, amp, eps_r, lam_res, edges,
                        [ly.name for ly in layers], anti, node)


def _extrema(z: np.ndarray, amp: np.ndarray):
    antinodes, nodes = [], []
    for i in range(1, z.size - 1):
        if amp[i] >= amp[i - 1] and amp[i] > amp[i + 1]:
            antinodes.append(z[i])
        if amp[i] <= amp[i - 1] and amp[i] < amp[i + 1]:
            nodes.append(z[i])
    return np.array(antinodes), np.array(nodes)


def diamond_energy_fraction(profile: FieldProfile) -> float:
    """Fraction of eps_r |E|^2 energy residing in the diamond layer."""
    w = profile.eps_r * profile.amplitude ** 2
    total = np.trapezoid(w, profile.z)
    mask = profile.mask_for_layer("diamond")
    if not mask.any():
        return 0.0
    return float(np.trapezoid(w[mask], profile.z[mask]) / total)


def dispersion_map(assembly: CavityAssembly, L_values: np.ndarray,
                   lam_window: tuple[float, float],
                   scan_step: float = 0.002) -> list[ModeBranch]:
    """Track resonances across an air-gap scan into continuous branches.

    The resonances at each L are those find_resonances(assembly.with_air_gap(L),
    lam_window, scan_step) returns, found by the same pick-and-refine step.
    Only the scan is cheaper: the layers below and above the gap do not
    depend on L, so their parts of the stack are computed once on the
    wavelength grid and each L applies only the gap layer.  One L is held at
    a time.

    Branch association is nearest-neighbor in (L, lambda) with slope
    extrapolation; slopes are centered differences along each branch.
    """
    L_values = np.asarray(L_values, dtype=float)
    if not np.all(np.diff(L_values) > 0):
        raise ValueError("L grid must be strictly increasing")

    grid = _scan_grid(lam_window, scan_step)
    spectrum = _gap_spectrum(assembly, grid)
    open_branches: list[list[BranchSample]] = []
    closed: list[list[BranchSample]] = []
    for L in L_values:
        cavity = assembly.with_air_gap(L)
        res = _refine_peaks(cavity, grid, spectrum(cavity.air_gap), lam_window)
        lams = [r["lambda_res"] for r in res]
        matched = set()
        next_open = []
        for br in open_branches:
            dL = L - br[-1].L
            slope = 0.5
            if len(br) >= 2:
                slope = (br[-1].lambda_res - br[-2].lambda_res) / (br[-1].L - br[-2].L)
            pred = br[-1].lambda_res + slope * dL
            cand = [(abs(lam - pred), j) for j, lam in enumerate(lams) if j not in matched]
            tol = max(3.0 * scan_step, 0.6 * dL)
            if cand and min(cand)[0] < tol:
                _, j = min(cand)
                matched.add(j)
                br.append(BranchSample(L, lams[j]))
                next_open.append(br)
            else:
                closed.append(br)
        for j, lam in enumerate(lams):
            if j not in matched:
                next_open.append([BranchSample(L, lam)])
        open_branches = next_open
    closed.extend(open_branches)

    branches = []
    for samples in closed:
        if len(samples) < 2:
            continue
        Ls = np.array([s.L for s in samples])
        lams_ = np.array([s.lambda_res for s in samples])
        slopes = np.gradient(lams_, Ls)
        for s, sl in zip(samples, slopes):
            s.slope = float(sl)
        br = ModeBranch(samples)
        _classify_branch(assembly, br)
        branches.append(br)
    branches.sort(key=lambda b: (b.samples[0].L, b.samples[0].lambda_res))
    return branches


def _classify_branch(assembly: CavityAssembly, branch: ModeBranch) -> None:
    fracs = []
    idxs = {0, len(branch.samples) // 2, len(branch.samples) - 1}
    for i in sorted(idxs):
        s = branch.samples[i]
        try:
            prof = field_profile(assembly.with_air_gap(s.L), s.lambda_res)
        except ResonanceError:
            continue
        frac = diamond_energy_fraction(prof)
        s.diamond_fraction = frac
        fracs.append(frac)
    if not fracs:
        return
    if max(fracs) < 0.25:
        branch.character = "air-like"
    elif min(fracs) > 0.75:
        branch.character = "diamond-like"
    else:
        branch.character = "mixed"
