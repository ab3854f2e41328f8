"""Emitter-cavity figure-of-merit algebra.

Dipole moments, coupling rates, linewidth/Q/finesse conversions,
Purcell factors, ZPL emission probability and transform-limited
linewidths.  All rates in s^-1 (g in rad/s), linewidths in the units
stated per function.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .constants import C, E_CHARGE, EPS0, HBAR


class DomainError(ValueError):
    """A rate or figure of merit outside its physical domain."""


@dataclass(frozen=True)
class RatesMeasurement:
    gamma_on: float      # total decay rate on resonance, s^-1
    gamma_off: float     # total decay rate far detuned, s^-1
    gamma_bulk: float    # bulk (no top mirror) decay rate, s^-1
    dw_assumed: float    # Debye-Waller fraction the rates algebra assumes

    def __post_init__(self):
        if not (self.gamma_on > self.gamma_off > 0):
            raise DomainError("need gamma_on > gamma_off > 0")


def dipole_from_lifetime(gamma_bulk: float, lam_nm: float, n_host: float) -> float:
    """Optical dipole moment (C m) from the bulk spontaneous-emission rate.

    Inverts gamma = n w^3 d^2 / (3 pi eps0 hbar c^3), assuming unity
    internal quantum efficiency.
    """
    if gamma_bulk <= 0 or lam_nm <= 0 or n_host <= 0:
        raise DomainError("inputs must be positive")
    w = 2.0 * np.pi * C / (lam_nm * 1e-9)
    d2 = 3.0 * np.pi * EPS0 * HBAR * C ** 3 * gamma_bulk / (n_host * w ** 3)
    return float(np.sqrt(d2))


def coupling_rate(dipole_Cm: float, E_vac: float, xi: float = 1.0) -> float:
    """Emitter-vacuum-field coupling g = xi d E_vac / hbar, in rad/s."""
    if dipole_Cm < 0 or E_vac < 0 or not (0 < xi <= 1):
        raise DomainError("bad inputs")
    return xi * dipole_Cm * E_vac / HBAR


def linewidth_conversions(Gamma_L_pm: float, dlambda_dL: float, lam_nm: float) -> dict:
    """Length-tuned linewidth -> wavelength/frequency linewidths, Q, finesse, kappa.

    Gamma_lambda = Gamma_L d(lambda)/dL; Q = lambda/Gamma_lambda;
    finesse = lambda/(2 Gamma_L); Gamma_f = c Gamma_lambda / lambda^2;
    kappa = 2 pi Gamma_f = w/Q.
    """
    if Gamma_L_pm <= 0 or dlambda_dL <= 0 or lam_nm <= 0:
        raise DomainError("inputs must be positive")
    Gamma_lambda_pm = Gamma_L_pm * dlambda_dL
    Q = lam_nm * 1e3 / Gamma_lambda_pm
    finesse = lam_nm * 1e3 / (2.0 * Gamma_L_pm)
    Gamma_f_hz = C * (Gamma_lambda_pm * 1e-12) / (lam_nm * 1e-9) ** 2
    kappa = 2.0 * np.pi * Gamma_f_hz
    return {
        "Gamma_lambda_pm": Gamma_lambda_pm,
        "Gamma_f_hz": Gamma_f_hz,
        "Q": Q,
        "finesse": finesse,
        "kappa_per_s": kappa,
    }


def purcell_zpl_theory(g: float, kappa: float, gamma_bulk: float) -> float:
    """Resonant ZPL Purcell factor 4 g^2 / (kappa gamma_bulk)."""
    if g <= 0 or kappa <= 0 or gamma_bulk <= 0:
        raise DomainError("inputs must be positive")
    if g >= kappa:
        warnings.warn(f"g={g:.3g} >= kappa={kappa:.3g}: outside the weak-coupling regime")
    return 4.0 * g ** 2 / (kappa * gamma_bulk)


def rates_algebra(m: RatesMeasurement) -> dict:
    """Purcell factors and ZPL emission probability from measured rates.

    F_P_total = gamma_on / gamma_bulk; gamma_zpl = DW gamma_bulk;
    F_P_zpl = (gamma_on - gamma_off + gamma_zpl) / gamma_zpl;
    eta_zpl = F_P_zpl gamma_zpl / gamma_on.
    """
    if not (0.0 < m.dw_assumed < 1.0):
        raise DomainError(f"DW must be in (0, 1), got {m.dw_assumed}")
    gamma_zpl = m.dw_assumed * m.gamma_bulk
    F_zpl = (m.gamma_on - m.gamma_off + gamma_zpl) / gamma_zpl
    return {
        "F_P_total": m.gamma_on / m.gamma_bulk,
        "F_P_zpl_measured": F_zpl,
        "eta_zpl": F_zpl * gamma_zpl / m.gamma_on,
        "gamma_zpl": gamma_zpl,
    }


def debye_waller_inversion(gamma_on: float, gamma_off: float, gamma_bulk: float,
                           F_theory: float) -> dict:
    """Debye-Waller fraction implied by a theoretical ZPL Purcell factor.

    gamma_zpl = (gamma_on - gamma_off)/(F_theory - 1); DW = gamma_zpl/gamma_bulk.
    """
    if F_theory <= 1:
        raise DomainError("F_theory must exceed 1")
    degenerate = gamma_on <= gamma_off
    gamma_zpl = 0.0 if degenerate else (gamma_on - gamma_off) / (F_theory - 1.0)
    return {
        "debye_waller": gamma_zpl / gamma_bulk,
        "gamma_zpl": gamma_zpl,
        "degenerate": degenerate,
    }


def transform_limit(F_zpl: float, gamma_zpl: float, gamma_psb: float) -> float:
    """Transform-limited emission linewidth (gamma_psb + F gamma_zpl)/(2 pi), Hz."""
    if F_zpl <= 0 or gamma_zpl <= 0 or gamma_psb < 0:
        raise DomainError("inputs must be positive")
    return (gamma_psb + F_zpl * gamma_zpl) / (2.0 * np.pi)


def coupling_report(gamma_bulk: float, lam_nm: float, n_host: float,
                    E_vac: float, Gamma_L_pm: float, dlambda_dL: float,
                    xi: float = 1.0,
                    rates: Optional[RatesMeasurement] = None) -> dict:
    """Full chain: dipole -> g, linewidth conversions -> kappa, Purcell, eta,
    as the nested dict report writes (F_P_total, eta_zpl and
    transform_limit_hz are None without rates)."""
    d = dipole_from_lifetime(gamma_bulk, lam_nm, n_host)
    g = coupling_rate(d, E_vac, xi)
    conv = linewidth_conversions(Gamma_L_pm, dlambda_dL, lam_nm)
    F_theory = purcell_zpl_theory(g, conv["kappa_per_s"], gamma_bulk)
    F_total = eta = gamma_tf = None
    if rates is not None:
        alg = rates_algebra(rates)
        F_total = alg["F_P_total"]
        eta = alg["eta_zpl"]
        gamma_tf = transform_limit(alg["F_P_zpl_measured"], alg["gamma_zpl"],
                                   rates.gamma_bulk - alg["gamma_zpl"])
    return {
        "dipole": {"value_Cm": d, "d_over_e_nm": d / E_CHARGE * 1e9},
        "g_rad_per_s": g,
        "kappa_per_s": conv["kappa_per_s"],
        "Q": conv["Q"],
        "finesse": conv["finesse"],
        "F_P_zpl_theory": F_theory,
        "F_P_total": F_total,
        "eta_zpl": eta,
        "transform_limit_hz": gamma_tf,
        "inputs": {
            "gamma_bulk_per_s": gamma_bulk,
            "wavelength_nm": lam_nm,
            "host_index": n_host,
            "E_vac_V_per_m": E_vac,
            "Gamma_L_pm": Gamma_L_pm,
            "dlambda_dL": dlambda_dL,
            "xi": xi,
        },
    }
