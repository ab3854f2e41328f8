"""Forward design evaluation and sweeps over membrane/air-gap geometry.

Chains the transfer-matrix field solver, Gaussian-mode normalization and
the coupling algebra to score candidate cavities by ZPL emission
probability and required Q-factor.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .constants import CONSTANTS
from .cqed import coupling_rate, dipole_from_lifetime, purcell_zpl_theory, transform_limit
from .gaussian import beam_waist, effective_area, vacuum_field
from .stack import (TERMINATIONS, CavityAssembly, EmitterSpec, GeometryError, MirrorSpec,
                    assemble_cavity, emitter_rates)
from .tmm import ResonanceError, _round_trip, field_profile

# ZPL branching fraction at which eta_zpl is scored: the paper's 2.0 %
ETA_DEBYE_WALLER = 0.020

# improved-mirror geometry for proposed cavities (shallow ablated dimple)
DESIGN_RADIUS_UM = 5.5

# the thinnest air gap tuned to
MIN_AIR_GAP_NM = 50.0


def design_mirrors(center_wavelength: float = EmitterSpec.zpl_wavelength):
    """Low-index-terminated DBRs (15 pairs below, 14 above) place field
    antinodes at both mirror surfaces, matching the proposed node/antinode
    membrane designs."""
    bottom = MirrorSpec(15, center_wavelength, terminal_high_index=False)
    top = MirrorSpec(14, center_wavelength, terminal_high_index=False)
    return bottom, top


@dataclass
class DesignPoint:
    t_d_nm: float
    L_nm: float
    termination: str                     # one of TERMINATIONS
    # derived
    valid: bool = False
    reason: str = ""
    L_tuned_nm: float = np.nan
    lambda_res_nm: float = np.nan
    E_vac_diamond_V_per_m: float = np.nan
    E_vac_global_V_per_m: float = np.nan
    g_rad_per_s: float = np.nan
    kappa_per_s: float = np.nan
    F_P_zpl: float = np.nan
    Q_required: float = np.nan
    eta_zpl: float = np.nan
    transform_limit_hz: float = np.nan
    termination_consistent: bool = False  # a node (antinode) within lambda/40 of the interface
    interface_field_ratio: float = np.nan  # |E| there over the sampled maximum of |E|


def _tune_air_gap(assembly: CavityAssembly, lam: float) -> CavityAssembly:
    """The assembly with the air gap nearest its own L, among those of at
    least MIN_AIR_GAP_NM, whose resonance sits at lam.

    Closes the round-trip phase of the gap, 4 pi L / lam + arg r_b + arg r_t
    = 2 pi m, with r_b (diamond plus bottom DBR) and r_t (top DBR) the
    reflection coefficients seen from the air.  The candidate gaps are
    spaced by lam / 2, so one always lies at or above the floor.
    """
    offset = -np.angle(_round_trip(assembly, np.array([lam]))[0]) * lam / (4.0 * np.pi)
    period = lam / 2.0
    order = max(np.rint((assembly.L - offset) / period),
                np.ceil((MIN_AIR_GAP_NM - offset) / period))
    return assembly.with_air_gap(float(offset + period * order))


def cavity_mode(assembly: CavityAssembly, lam: float):
    """The resonant mode at lam: the assembly with its air gap tuned
    nearest its own L, its standing wave, the Gaussian waist and the
    vacuum field.

    Returns (assembly, profile, waist w0 in um, vacuum_field's dict).  The
    assembly's measured intensity FWHM, when set, sets the waist.  Raises
    ResonanceError or GeometryError, the latter also for a cavity with no
    diamond, whose diamond maximum is undefined.
    """
    asm = _tune_air_gap(assembly, lam)
    prof = field_profile(asm, lam)
    w0 = beam_waist(asm.curvature_radius_um, asm.geometric_length_um(), lam,
                    asm.transverse_waist_fwhm_um)
    return asm, prof, w0, vacuum_field(prof, effective_area(w0))


def _near_interface(asm: CavityAssembly, E: complex, H: complex, lam: float) -> dict:
    """Whether a node, and an antinode, of |E| lies within lam/40 of the
    diamond-air interface, whose fields are E and H, in the (lossless)
    diamond below it or air gap above it.  At depth s below the interface
    a layer of index n carries E(s) = A e^{iks} + B e^{-iks} with
    A, B = (E -+ H / n) / 2, so |E(s)|^2 peaks where 2 k s + arg(A B*) is a
    multiple of 2 pi and dips half a period off."""
    near = dict.fromkeys(TERMINATIONS, False)
    for n, side, depth in ((asm.diamond.n.real, 1.0, asm.t_d),
                           (asm.air_gap.n.real, -1.0, asm.L)):
        phase = np.angle((E - H / n) * np.conj(E + H / n))
        for term, target in (("node", np.pi), ("antinode", 0.0)):
            # distance from the interface to the nearest mark on this side
            dist = np.mod(side * (target - phase), 2.0 * np.pi) * lam / (4.0 * np.pi * n)
            near[term] |= bool(dist <= depth and dist < lam / 40.0)
    return near


def evaluate_design(t_d_nm: float, L_nm: float, terminations, e: EmitterSpec,
                    R_um: float = DESIGN_RADIUS_UM) -> list[DesignPoint]:
    """The design points of one membrane and air gap, one per termination,
    from one solve: field, vacuum field, g, kappa, Purcell, eta.

    The points differ only in termination and termination_consistent.  The
    cavity uses design_mirrors at the emitter's ZPL, a membrane of the
    emitter's host_index and the waist of the mirror geometry.  kappa is
    2 g at every point (eta_zpl alone only falls as kappa grows, so it sets
    no optimum of its own); eta_zpl is scored at ETA_DEBYE_WALLER and the
    transform limit at the emitter's own debye_waller.  A geometry without
    a resonant mode (no resonance, unstable, no diamond) gives invalid
    points with the reason.  An unknown termination raises ValueError
    before any solve.
    """
    for term in terminations:
        if term not in TERMINATIONS:
            raise ValueError(f"unknown termination {term!r}")
    lam = e.zpl_wavelength
    bottom, top = design_mirrors(lam)
    try:
        asm, prof, _, vac = cavity_mode(
            assemble_cavity(bottom, t_d_nm, L_nm, top, R_um, n_d=e.host_index), lam)
    except (ResonanceError, GeometryError) as exc:
        return [DesignPoint(t_d_nm, L_nm, term, reason=f"{type(exc).__name__}: {exc}")
                for term in terminations]

    rates = emitter_rates(e)
    gamma = rates["gamma_bulk"]
    g = coupling_rate(dipole_from_lifetime(gamma, lam, e.host_index),
                      vac["E_vac_max_diamond_V_per_m"], e.dipole_orientation_factor)
    kappa = 2.0 * g      # the 2 g rule, at every design point
    F = purcell_zpl_theory(g, kappa, gamma)
    g0 = ETA_DEBYE_WALLER * gamma
    E, H = prof.faces[prof.layer_names.index("diamond")]
    point = DesignPoint(
        t_d_nm, L_nm, "", valid=True, reason="ok", L_tuned_nm=asm.L, lambda_res_nm=lam,
        E_vac_diamond_V_per_m=vac["E_vac_max_diamond_V_per_m"],
        E_vac_global_V_per_m=vac["E_vac_global_max_V_per_m"],
        g_rad_per_s=g, kappa_per_s=kappa, F_P_zpl=F,
        Q_required=2.0 * np.pi * CONSTANTS.c / (lam * 1e-9) / kappa,
        eta_zpl=F * g0 / (gamma - g0 + F * g0),
        transform_limit_hz=transform_limit(F, rates["gamma_zpl"], rates["gamma_psb"]),
        interface_field_ratio=float(abs(E) / prof.amplitude.max()))
    near = _near_interface(asm, E, H, lam)
    return [replace(point, termination=term, termination_consistent=near[term])
            for term in terminations]


def pareto_indices(points: list) -> list:
    """Non-dominated valid points: eta_zpl maximized, Q_required minimized."""
    valid = [p for p in points if p.valid]

    def dominated(pi):
        return any(pj.eta_zpl >= pi.eta_zpl and pj.Q_required <= pi.Q_required
                   and (pj.eta_zpl > pi.eta_zpl or pj.Q_required < pi.Q_required)
                   for pj in valid)
    return [i for i, p in enumerate(points) if p.valid and not dominated(p)]


def sweep(t_d_values, L_values, terminations, emitter: EmitterSpec,
          R_um: float = DESIGN_RADIUS_UM) -> tuple[list, list, dict]:
    """Evaluate the full grid in deterministic order (t_d, then L, then
    termination), one evaluate_design solve per (t_d, L); invalid
    geometries are kept with their reason.

    Returns (points, pareto, provenance): the DesignPoints, pareto_indices
    of them, and the grid and emitter they came from.  Raises
    ResonanceError, with the first point's reason, when no point is valid."""
    t_d_values = list(t_d_values)
    L_values = list(L_values)
    terminations = list(terminations)
    if not (t_d_values and L_values and terminations):
        raise ValueError("grids must be non-empty")
    points = []
    for t_d in t_d_values:
        for L in L_values:
            points += evaluate_design(t_d, L, terminations, emitter, R_um)
    if not any(p.valid for p in points):
        raise ResonanceError(f"no valid design point in the sweep grid: {points[0].reason}")
    return points, pareto_indices(points), {
        "t_d_nm": t_d_values,
        "L_nm": L_values,
        "terminations": terminations,
        "R_um": R_um,
        "emitter": {
            "zpl_wavelength_nm": emitter.zpl_wavelength,
            "bulk_lifetime_ns": emitter.bulk_lifetime_ns,
            "host_index": emitter.host_index,
            "debye_waller": emitter.debye_waller,
        },
    }
