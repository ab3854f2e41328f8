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
from .stack import (CavityAssembly, EmitterSpec, GeometryError, MirrorSpec,
                    assemble_cavity, emitter_rates)
from .tmm import ResonanceError, _round_trip, field_profile

# ZPL branching fraction at which eta_zpl is scored: the paper's 2.0 %
ETA_DEBYE_WALLER = 0.020

# improved-mirror geometry for proposed cavities (shallow ablated dimple)
DESIGN_RADIUS_UM = 5.5


# air gaps farther than this from the nominal one are not tuned to
SEARCH_HALFWIDTH_NM = 170.0


def design_mirrors(center_wavelength: float = 637.0):
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
    termination: str                     # "node" | "antinode" at diamond-air interface
    # derived
    valid: bool = False
    reason: str = ""
    L_tuned_nm: float = np.nan
    lambda_res_nm: float = np.nan
    E_vac_diamond: float = np.nan        # V/m
    E_vac_global: float = np.nan
    g_rad_s: float = np.nan
    kappa_applied_s: float = np.nan
    F_P_zpl: float = np.nan
    Q_required: float = np.nan
    eta_zpl: float = np.nan
    transform_limit_hz: float = np.nan
    termination_consistent: bool = False
    interface_field_ratio: float = np.nan


@dataclass
class SweepResult:
    points: list
    pareto: list            # indices into points, non-dominated in (eta max, Q min)
    provenance: dict


def _tune_air_gap(assembly: CavityAssembly, lam: float) -> CavityAssembly:
    """The assembly with the air gap nearest its own L whose resonance sits
    at lam.

    Closes the round-trip phase of the gap, 4 pi L / lam + arg r_b + arg r_t
    = 2 pi m, with r_b (diamond plus bottom DBR) and r_t (top DBR) the
    reflection coefficients seen from the air.  The candidate gaps are
    spaced by lam / 2.
    """
    L_nominal = assembly.L
    offset = -np.angle(_round_trip(assembly, np.array([lam]))[0]) * lam / (4.0 * np.pi)
    period = lam / 2.0
    lo = max(L_nominal - SEARCH_HALFWIDTH_NM, 50.0)
    hi = L_nominal + SEARCH_HALFWIDTH_NM
    orders = np.arange(np.ceil((lo - offset) / period),
                       np.floor((hi - offset) / period) + 1)
    if not orders.size:
        raise ResonanceError(
            f"no resonance at {lam} nm within {SEARCH_HALFWIDTH_NM} nm of L={L_nominal} nm")
    gaps = offset + period * orders
    return assembly.with_air_gap(float(gaps[np.argmin(np.abs(gaps - L_nominal))]))


def cavity_mode(assembly: CavityAssembly, lam: float):
    """The resonant mode at lam: the assembly with its air gap tuned
    nearest its own L, its standing wave, the Gaussian transverse mode and
    the vacuum field.

    Returns (assembly, profile, transverse mode, ModeVolumeReport).  The
    assembly's measured intensity FWHM, when set, sets the waist.  Raises
    ResonanceError or GeometryError, the latter also for a cavity with no
    diamond, whose diamond maximum is undefined.
    """
    asm = _tune_air_gap(assembly, lam)
    prof = field_profile(asm, lam)
    mode = beam_waist(asm.curvature_radius_um, asm.geometric_length_um(), lam,
                      asm.transverse_waist_fwhm_um)
    return asm, prof, mode, vacuum_field(prof, effective_area(mode))


def evaluate_design(p: DesignPoint, e: EmitterSpec,
                    R_um: float = DESIGN_RADIUS_UM) -> DesignPoint:
    """Complete a design point: field, vacuum field, g, kappa, Purcell, eta.

    The cavity uses design_mirrors at the emitter's ZPL and the waist of
    the mirror geometry.  kappa is 2 g at every point (eta_zpl alone only
    falls as kappa grows, so it sets no optimum of its own); eta_zpl is
    scored at ETA_DEBYE_WALLER and the transform limit at the emitter's
    own debye_waller.  A geometry without a resonant mode (no
    resonance, unstable, no diamond) returns invalid with the reason.
    """
    p = replace(p)
    lam = e.zpl_wavelength
    bottom, top = design_mirrors(lam)
    try:
        asm, prof, _, rep = cavity_mode(
            assemble_cavity(bottom, p.t_d_nm, p.L_nm, top, R_um), lam)
    except (ResonanceError, GeometryError) as exc:
        p.valid = False
        p.reason = f"{type(exc).__name__}: {exc}"
        return p

    p.L_tuned_nm = asm.L
    p.lambda_res_nm = lam

    iface = float(prof.layer_edges[prof.layer_names.index("diamond") + 1])
    amp_iface = float(np.interp(iface, prof.z, prof.amplitude))
    p.interface_field_ratio = amp_iface / float(prof.amplitude.max())
    # termination check: nearest node (antinode) within lambda/40 of the interface
    marks = {"node": prof.nodes, "antinode": prof.antinodes}.get(p.termination)
    if marks is None:
        raise ValueError(f"unknown termination {p.termination!r}")
    p.termination_consistent = bool(marks.size
                                    and np.min(np.abs(marks - iface)) < lam / 40.0)

    p.E_vac_diamond = rep.E_vac_max_diamond
    p.E_vac_global = rep.E_vac_global_max

    rates = emitter_rates(e)
    d = dipole_from_lifetime(rates["gamma_bulk"], lam, e.host_index)
    g = coupling_rate(d, p.E_vac_diamond, e.dipole_orientation_factor)
    p.g_rad_s = g

    w = 2.0 * np.pi * CONSTANTS.c / (lam * 1e-9)
    kappa = 2.0 * g      # the 2 g rule, at every design point
    p.kappa_applied_s = kappa
    p.Q_required = w / kappa
    F = purcell_zpl_theory(g, kappa, rates["gamma_bulk"])
    p.F_P_zpl = F

    g0 = ETA_DEBYE_WALLER * rates["gamma_bulk"]
    p.eta_zpl = F * g0 / (rates["gamma_bulk"] - g0 + F * g0)
    p.transform_limit_hz = transform_limit(F, rates["gamma_zpl"], rates["gamma_psb"])
    p.valid = True
    p.reason = "ok"
    return p


def pareto_indices(points: list) -> list:
    """Non-dominated valid points: eta_zpl maximized, Q_required minimized."""
    valid = [p for p in points if p.valid]

    def dominated(pi):
        return any(pj.eta_zpl >= pi.eta_zpl and pj.Q_required <= pi.Q_required
                   and (pj.eta_zpl > pi.eta_zpl or pj.Q_required < pi.Q_required)
                   for pj in valid)
    return [i for i, p in enumerate(points) if p.valid and not dominated(p)]


def sweep(t_d_values, L_values, terminations, emitter: EmitterSpec,
          R_um: float = DESIGN_RADIUS_UM) -> SweepResult:
    """Evaluate the full grid with evaluate_design in deterministic order
    (t_d, then L, then termination); invalid geometries are kept with
    their reason.  Raises ResonanceError when no point is valid."""
    t_d_values = list(t_d_values)
    L_values = list(L_values)
    terminations = list(terminations)
    if not (t_d_values and L_values and terminations):
        raise ValueError("grids must be non-empty")
    points = []
    for t_d in t_d_values:
        for L in L_values:
            for term in terminations:
                p = DesignPoint(t_d_nm=t_d, L_nm=L, termination=term)
                points.append(evaluate_design(p, emitter, R_um))
    if not any(p.valid for p in points):
        raise ResonanceError("no valid design point in the sweep grid")
    return SweepResult(
        points=points,
        pareto=pareto_indices(points),
        provenance={
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
        },
    )
