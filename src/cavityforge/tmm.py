"""One-dimensional transfer-matrix solver at normal incidence.

Spectra, resonances (roots of the round-trip phase closure), mode
dispersion lambda_res(L) and intracavity standing-wave field profiles.
Scalar (polarization-degenerate) treatment; wavelengths in nm.  A 2x2
characteristic matrix is held as the tuple of its entries
(m00, m01, m10, m11), each a scalar or an array over wavelength; _mul is
the one product and _rt the one reflection/transmission formula.

The standing wave comes from one walk, _walk: it steps [E, H] down the
stack from a unit transmitted wave at the exit face, for many (air gap,
wavelength) samples at once, and scales by the amplitude transmission t.
field_profile samples |E| inside each layer from the fields at its top
face, and keeps those face fields, from which design reads the interface
field exactly.  _layer_energies integrates E = A e^{iks} + B e^{-iks} over
each layer in closed form, so int eps_r |E|^2 dz is exact.  The diamond
share of every dispersion_map root and the integrals behind
diamond_energy_fraction and the vacuum field all come from those energies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .stack import CavityAssembly, Layer, MirrorSpec, build_dbr


@dataclass(frozen=True)
class StackResponse:
    wavelength: float
    r: complex
    t: complex
    R_power: float
    T_power: float


@dataclass
class FieldProfile:
    z: np.ndarray                  # nm, from the bottom substrate interface
    amplitude: np.ndarray          # |E(z)|, relative units
    resonant_wavelength: float
    layer_edges: np.ndarray        # interface positions, nm
    layer_names: list[str]
    layer_eps_r: np.ndarray        # relative permittivity of each layer
    layer_energy: np.ndarray       # exact int eps_r |E|^2 dz of each layer, nm
    faces: np.ndarray              # [E, H] at each layer's top face, (layer, 2)


class ResonanceError(RuntimeError):
    """Raised when an operation requires a resonance that cannot be found."""


def _layer_entries(n: complex, thickness, lam):
    """Entries (cos d, -i sin d / n, -i n sin d, cos d) of a layer's
    characteristic matrix, d = 2 pi n thickness / lam; thickness or lam may
    be arrays.

    The -i signs belong to fields ~ exp(i(kz - wt)), so Im n > 0 absorbs,
    as Layer documents (Born & Wolf, Principles of Optics, 1.6).
    """
    delta = 2.0 * np.pi * n * thickness / lam
    c, s = np.cos(delta), np.sin(delta)
    return c, -1j * s / n, -1j * n * s, c


def characteristic_matrix(layer: Layer, lam: float) -> np.ndarray:
    """2x2 characteristic matrix of a single layer at wavelength lam (nm)."""
    if lam <= 0:
        raise ValueError("wavelength must be positive")
    return np.array(_layer_entries(layer.n, layer.thickness, lam)).reshape(2, 2)


def _mul(m, k):
    """Product m k of two 2x2 matrices held as entry tuples (m00, m01, m10, m11)."""
    return (m[0] * k[0] + m[1] * k[2], m[0] * k[1] + m[1] * k[3],
            m[2] * k[0] + m[3] * k[2], m[2] * k[1] + m[3] * k[3])


def _rt(m, n_in: complex, n_out: complex):
    """Amplitude r and t of a stack with entries m between n_in and n_out.

    [B, C] = m [1, n_out] are the entry-face fields of a unit transmitted
    wave in the exit medium.
    """
    B, C = m[0] + m[1] * n_out, m[2] + m[3] * n_out
    denom = n_in * B + C
    return (n_in * B - C) / denom, 2.0 * n_in / denom


def _stack_entries(layers: Sequence[Layer], lams: np.ndarray):
    """Entries of the stack's composed characteristic matrix at every lams."""
    lams = np.asarray(lams, dtype=float)
    one, zero = np.ones(lams.shape, complex), np.zeros(lams.shape, complex)
    m = (one, zero, zero, one)
    for layer in layers:
        if layer.thickness != 0.0:
            m = _mul(m, _layer_entries(layer.n, layer.thickness, lams))
    return m


def stack_response(layers: Sequence[Layer], n_in: complex, n_out: complex,
                   lam: float) -> StackResponse:
    """Amplitude and power coefficients of a layer stack at one wavelength."""
    if len(layers) < 1:
        raise ValueError("need at least one layer")
    m = tuple(e[0] for e in _stack_entries(layers, np.array([lam])))
    r, t = _rt(m, complex(n_in), complex(n_out))
    R = float(np.abs(r) ** 2)
    T = float(np.real(n_out) / np.real(n_in) * np.abs(t) ** 2)
    return StackResponse(lam, complex(r), complex(t), R, T)


def transmission_spectrum(layers: Sequence[Layer], n_in: complex, n_out: complex,
                          lams: np.ndarray) -> np.ndarray:
    t = _rt(_stack_entries(layers, lams), complex(n_in), complex(n_out))[1]
    return np.real(n_out) / np.real(n_in) * np.abs(t) ** 2


def _dbr_entries(spec: MirrorSpec, lams: np.ndarray):
    """Characteristic-matrix entries of a quarter-wave DBR, cavity side
    first.

    For the pair matrix P (det P = 1) the N-period product is
    P^N = U_{N-1}(x) P - U_{N-2}(x) I, x = tr(P) / 2, with U the Chebyshev
    polynomials of the second kind (Abeles; Born & Wolf 1.6.5).
    """
    first, second = build_dbr(spec)[:2]
    p = _mul(_layer_entries(first.n, first.thickness, lams),
             _layer_entries(second.n, second.thickness, lams))
    two_x = p[0] + p[3]
    u_prev, u = np.zeros_like(p[0]), np.ones_like(p[0])
    for _ in range(spec.pairs - 1):
        u_prev, u = u, two_x * u - u_prev
    return u * p[0] - u_prev, u * p[1], u * p[2], u * p[3] - u_prev


def _round_trip(assembly: CavityAssembly, lams: np.ndarray) -> np.ndarray:
    """Mirror product z = r_b r_t at lams, with r_b (diamond plus bottom
    DBR) and r_t (top DBR) seen from the air gap; z does not depend on the
    gap length L.  A mode closes the round-trip phase:
    phi(lam; L) = 4 pi L / lam + arg z(lam) = 2 pi m.
    """
    lams = np.asarray(lams, dtype=float)
    m = _dbr_entries(assembly.bottom_mirror, lams)
    d = assembly.diamond
    if d.thickness > 0:
        m = _mul(_layer_entries(d.n, d.thickness, lams), m)
    return (_rt(m, 1.0 + 0j, assembly.n_in)[0]
            * _rt(_dbr_entries(assembly.top_mirror, lams), 1.0 + 0j, assembly.n_out)[0])


def _fwhm_phase(assembly: CavityAssembly, z):
    """Cold FWHM of the Airy peak in round-trip phase, 2 (1 - rho) / sqrt(rho),
    where rho = |z| sqrt((1 - l_b)(1 - l_t)) counts the mirrors' lumped losses.
    Behind thick lossless mirrors rho rounds above 1; the width is then 0."""
    rho = np.abs(z) * np.sqrt((1.0 - assembly.bottom_mirror.lumped_loss)
                              * (1.0 - assembly.top_mirror.lumped_loss))
    return 2.0 * np.maximum(1.0 - rho, 0.0) / np.sqrt(rho)


_SCAN_STEP = 0.005  # nm, the lattice that brackets the phase roots
_DLAM = 1e-4  # nm, central-difference step of the mirror phase slope


def _scan_grid(lam_window: tuple[float, float]) -> np.ndarray:
    """The window's ends and every multiple of _SCAN_STEP strictly between
    them: no bracket leaves the window or depends on where it starts."""
    lo, hi = lam_window
    k = np.arange(np.floor(lo / _SCAN_STEP) + 1.0, np.ceil(hi / _SCAN_STEP)) * _SCAN_STEP
    return np.concatenate([[lo], k[(k > lo) & (k < hi)], [hi]])


def _phase_roots(assembly: CavityAssembly, lam_window: tuple[float, float],
                 L_values: np.ndarray):
    """Resonances of the assembly at every air gap in L_values: the roots
    in lambda of phi(lam; L) = 2 pi m in lam_window, in order of L, then
    of lambda, as arrays (index into L_values, lambda in nm, mode order m
    counted from the grid's first point, cold FWHM in nm).

    The mirror product z comes once, on the _scan_grid lattice, far finer
    than a free spectral range.  Each L brackets its 2 pi m crossings
    between adjacent grid points; then Newton steps on the exact mirror
    matrices refine all roots in lock-step, each until its step stops
    shrinking (a fixed point).  A root's iteration reads only its own
    bracket, so it does not depend on the window, and a root next to the
    window's edge is as exact as any other.
    """
    grid = _scan_grid(lam_window)
    z_grid = _round_trip(assembly, grid)
    wrapped = np.angle(z_grid)
    theta = np.unwrap(wrapped)
    # whole turns the unwrapping added at each grid point
    turns = np.rint((theta - wrapped) / (2.0 * np.pi))
    k = 4.0 * np.pi / grid
    index, j, order = [], [], []
    for i, L in enumerate(L_values):
        o = np.floor((L * k + theta) / (2.0 * np.pi))
        jj = np.flatnonzero(o[1:] != o[:-1])
        index.append(np.full(jj.size, i))
        j.append(jj)
        order.append(np.maximum(o[jj], o[jj + 1]))
    index, j, order = (np.concatenate(a) for a in (index, j, order))
    L = np.asarray(L_values, dtype=float)[index]

    # phase relative to the bracket's first grid point: f = 0 at the root
    z_ref = z_grid[j].conj()
    target = 2.0 * np.pi * (order - turns[j]) - wrapped[j]
    f_lo = L * k[j] - target
    f_hi = L * k[j + 1] + np.angle(z_grid[j + 1] * z_ref) - target
    lam = grid[j] + (grid[j + 1] - grid[j]) * f_lo / (f_lo - f_hi)

    z, slope = np.empty(lam.size, complex), np.empty(lam.size)
    last = np.full(lam.size, np.inf)
    live = np.arange(lam.size)
    for _ in range(50):  # a guard only: roots settle within a few steps
        if not live.size:
            break
        x = lam[live]
        z0, zp, zm = np.split(
            _round_trip(assembly, np.concatenate([x, x + _DLAM, x - _DLAM])), 3)
        f = 4.0 * np.pi * L[live] / x + np.angle(z0 * z_ref[live]) - target[live]
        d = (-4.0 * np.pi * L[live] / x ** 2
             + np.angle(zp * zm.conj()) / (2.0 * _DLAM))
        z[live], slope[live] = z0, d
        step = f / d
        go = np.abs(step) < last[live]
        live, step = live[go], step[go]
        lam[live] -= step
        last[live] = np.abs(step)
        live = live[step != 0.0]
    return index, lam, order, _fwhm_phase(assembly, z) / np.abs(slope)


def find_resonances(assembly: CavityAssembly, lam_window: tuple[float, float]) -> list[dict]:
    """Resonances of the assembly inside lam_window.

    A resonance is a root of the round-trip phase closure
    phi(lam) = 4 pi L / lam + arg(r_b r_t) = 2 pi m, with r_b (diamond plus
    bottom DBR) and r_t (top DBR) seen from the air gap, found by
    _phase_roots.  The cold linewidth is the closed-form Airy FWHM
    2 (1 - rho) / (sqrt(rho) |dphi/dlam|), rho = |r_b r_t| times the
    mirrors' lumped-loss factor sqrt((1 - l_b)(1 - l_t)).

    Returns one dict per resonance: lambda_res (nm), cold_linewidth_nm,
    Q_cold (inf at a width of 0), peak_transmission.  Empty list when no
    root lies in the window.
    """
    _, lams, _, widths = _phase_roots(assembly, lam_window, np.array([assembly.L]))
    T0 = transmission_spectrum(assembly.layers(), assembly.n_in, assembly.n_out, lams)
    with np.errstate(divide="ignore"):  # a width of 0 has an infinite Q
        Q = lams / widths
    return [{"lambda_res": float(lam),
             "cold_linewidth_nm": float(w),
             "Q_cold": float(q),
             "peak_transmission": float(t0)}
            for lam, w, q, t0 in zip(lams, widths, Q, T0)]


_MIN_SAMPLES = 2000  # lower bound on field_profile's sample count over the stack


def field_profile(assembly: CavityAssembly, lam_res: float) -> FieldProfile:
    """Standing-wave |E(z)| through the stack at a resonant wavelength.

    Unit-amplitude illumination from the bottom substrate; amplitudes are
    relative, and so are the fields [E, H] the profile keeps at each
    layer's top face.  Rejects wavelengths more than one cold linewidth
    away from resonance, judged by the round-trip phase at lam_res.
    """
    # a one-sample array, so that the energies round as _layer_energies' do
    lam = np.array([lam_res])
    _check_resonant(assembly, np.array([assembly.L]), lam)
    faces, t = _walk(assembly, assembly.L, lam)
    faces = [f for f in faces if f[1] > 0]
    edges = np.concatenate([[0.0], np.cumsum([d for _, d, _, _ in faces])])

    zs, amps, energy = [], [], []
    # inside a layer, [E(z); H(z)] = M(distance from z up to the top face) [E; H]_top
    for (ly, d, E, H), z0 in zip(faces, edges):
        dz = min(lam_res / (20.0 * ly.n.real), edges[-1] / _MIN_SAMPLES)
        z_local = np.linspace(0.0, d, max(int(np.ceil(d / dz)) + 1, 8))
        c, a, _, _ = _layer_entries(ly.n, d - z_local, lam_res)
        zs.append(z0 + z_local)
        amps.append(np.abs(t * (c * E + a * H)))
        energy.append(_layer_energy(ly.n, d, lam, t * E, t * H))

    # bottom first, so z is already in order; interfaces carry two samples
    return FieldProfile(np.concatenate(zs), np.concatenate(amps), lam_res, edges,
                        [ly.name for ly, _, _, _ in faces],
                        np.array([(ly.n ** 2).real for ly, _, _, _ in faces]),
                        np.array(energy)[:, 0],
                        t[0] * np.array([[E[0], H[0]] for _, _, E, H in faces]))


_PHASE_ULPS = 32  # rounding floor of _check_resonant, in units of np.spacing(4 pi L / lam)


def _check_resonant(assembly: CavityAssembly, L: np.ndarray, lam: np.ndarray) -> None:
    """Raise ResonanceError unless each (air gap L, wavelength lam) is on
    resonance: its round-trip phase within one cold linewidth of 2 pi m.

    The tolerance is never below _PHASE_ULPS ulps of 4 pi L / lam.  Behind
    thick mirrors the linewidth falls below the rounding of that phase,
    which _phase_roots' roots carry too (measured: up to 10 ulps)."""
    z = _round_trip(assembly, lam)
    phase = 4.0 * np.pi * L / lam
    miss = np.abs(np.angle(z * np.exp(1j * phase)))
    tol = np.maximum(_fwhm_phase(assembly, z), _PHASE_ULPS * np.spacing(phase))
    bad = np.flatnonzero(miss > tol)
    if bad.size:
        i = bad[0]
        raise ResonanceError(
            f"{float(lam[i])} nm is off resonance: its round-trip phase misses "
            f"2 pi m by {miss[i]:.4g} rad, more than one linewidth or the phase's "
            f"rounding ({tol[i]:.4g} rad)")


def _layer_energy(n: complex, d, lam, E, H):
    """Exact int eps_r |E|^2 over a layer of index n and thickness d at
    wavelength lam, from the fields [E, H] at its top face (scalars or
    arrays of one shape).

    At depth s below the top face, E(s) = A e^{iks} + B e^{-iks} with
    A, B = (E - H / n) / 2 and k = 2 pi n / lam = k' + i kappa (Born & Wolf
    1.6), so

        int_0^d |E|^2 ds = |A|^2 (1 - e^{-2 kappa d}) / 2 kappa
                           + |B|^2 (e^{2 kappa d} - 1) / 2 kappa
                           + Re[A B* (e^{2ik'd} - 1) / (i k')],

    where each of the first two terms is |.|^2 d for kappa = 0.
    """
    A, B = (E - H / n) / 2.0, (E + H / n) / 2.0
    k = 2.0 * np.pi * n / lam
    cross = (A * B.conj() * np.expm1(2j * k.real * d) / (1j * k.real)).real
    if n.imag > 0:
        two_kappa = 2.0 * k.imag
        e = (np.abs(B) ** 2 * np.expm1(two_kappa * d)
             - np.abs(A) ** 2 * np.expm1(-two_kappa * d)) / two_kappa
    else:
        e = (np.abs(A) ** 2 + np.abs(B) ** 2) * d
    return (n * n).real * (e + cross)


def _walk(assembly: CavityAssembly, L, lam):
    """[E, H] stepped down assembly.layers() from a unit transmitted wave,
    [1, n_out] at the exit face, with the air gap L thick, at wavelength
    lam (scalars or equal-shape arrays).

    Returns (faces, t): (layer, thickness, E, H) at the top face of every
    layer, bottom first, and t = 2 n_in / (n_in E + H) from the entry-face
    fields.  Unit illumination from the bottom substrate gives t times
    these fields.
    """
    E = np.ones(np.shape(lam), complex)
    H = assembly.n_out * E
    faces = []
    for ly in reversed(assembly.layers()):
        d = L if ly is assembly.air_gap else ly.thickness
        faces.append((ly, d, E, H))
        c, a, b, _ = _layer_entries(ly.n, d, lam)
        E, H = c * E + a * H, b * E + c * H
    return faces[::-1], 2.0 * assembly.n_in / (assembly.n_in * E + H)


def _layer_energies(assembly: CavityAssembly, L: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """_layer_energy of every layer of assembly.layers(), with the air gap
    L thick, at wavelength lam: an array (layer, sample) over the samples
    of the equal-shape arrays L and lam, in field_profile's units (unit
    illumination from the bottom substrate, z in nm).
    """
    faces, t = _walk(assembly, L, lam)
    # scaled by t before squaring: behind a thick mirror E and H alone
    # overflow when squared, while t E stays of the order of the field
    return np.array([_layer_energy(ly.n, d, lam, t * E, t * H) for ly, d, E, H in faces])


def _diamond_fraction(names: Sequence[str], energy: np.ndarray):
    """Share of the energy (layer, ...) held by the layers named diamond."""
    diamond = [i for i, name in enumerate(names) if name == "diamond"]
    return energy[diamond].sum(axis=0) / energy.sum(axis=0)


def diamond_energy_fraction(profile: FieldProfile) -> float:
    """Fraction of the eps_r |E|^2 energy residing in the diamond layer,
    from the profile's exact layer energies."""
    return float(_diamond_fraction(profile.layer_names, profile.layer_energy))


def dispersion_map(assembly: CavityAssembly, L_values: np.ndarray,
                   lam_window: tuple[float, float]) -> dict:
    """Resonances across an air-gap scan, as columns: one 1-D array per
    field, one entry per root, sorted by (L, branch id).

    L_nm, lambda_nm: the air gap and its resonance (the phase roots
    find_resonances returns, found together for all L); dlambda_dL: the
    slope, np.gradient along the root's branch; order: its mode order m of
    phi(lam; L) = 2 pi m, counted from the window's start; branch_id; and
    diamond_fraction: the exact share of int eps_r |E|^2 dz held by the
    diamond at the root, all roots in one _layer_energies call.

    A branch holds the roots of one mode order, one per L.  Past the
    mirrors' stop band phi need not be monotone in lambda, and one order
    can close twice at one L (a fold pair): a root then joins the branch of
    its rank in lambda among its order's roots at that L.  Branches with
    fewer than two roots are dropped, and the rest are numbered by their
    first (L, lambda).
    """
    L_values = np.asarray(L_values, dtype=float)
    if not np.all(np.diff(L_values) > 0):
        raise ValueError("L grid must be strictly increasing")

    index, lams, order, _ = _phase_roots(assembly, lam_window, L_values)
    # rank of each root in lambda among its order's roots at its L (the
    # roots come in order of L, then of lambda, and lexsort is stable)
    at = np.lexsort((order, index))
    rows = np.arange(at.size)
    rank = np.empty(at.size, int)
    rank[at] = rows - np.maximum.accumulate(
        np.where(_run_starts(index[at], order[at]), rows, 0))

    # a branch: one (order, rank), its roots in order of L
    at = np.lexsort((index, rank, order))
    group = np.cumsum(_run_starts(order[at], rank[at])) - 1
    keep = at[np.bincount(group)[group] >= 2]
    L, lams, order = L_values[index[keep]], lams[keep], order[keep]
    first = np.flatnonzero(_run_starts(order, rank[keep]))
    bounds = np.r_[first, L.size]
    slope = np.empty(L.size)
    for a, b in zip(bounds[:-1], bounds[1:]):
        slope[a:b] = np.gradient(lams[a:b], L[a:b])
    _check_resonant(assembly, L, lams)
    fraction = _diamond_fraction([ly.name for ly in assembly.layers()],
                                 _layer_energies(assembly, L, lams))

    # number the branches by their first (L, lambda)
    branch_id = np.empty(first.size, int)
    branch_id[np.lexsort((lams[first], L[first]))] = np.arange(first.size)
    branch_id = np.repeat(branch_id, np.diff(bounds))
    at = np.lexsort((branch_id, L))
    return {"L_nm": L[at], "lambda_nm": lams[at], "dlambda_dL": slope[at],
            "order": order[at].astype(int), "branch_id": branch_id[at],
            "diamond_fraction": fraction[at]}


def _run_starts(*keys: np.ndarray) -> np.ndarray:
    """True where a run of equal keys begins, in rows sorted by those keys."""
    new = np.zeros(keys[0].size, bool)
    new[:1] = True
    for k in keys:
        new[1:] |= k[1:] != k[:-1]
    return new
