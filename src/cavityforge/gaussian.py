"""Transverse Gaussian-mode analysis and vacuum-field normalization.

Waist and Gouy formulas use the plano-concave geometry with the
*geometric* mirror separation (physical L + t_d, not optical path).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .constants import C, EPS0, HBAR, SQRT_2LN2
from .stack import GeometryError
from .tmm import FieldProfile


def waist_from_fwhm(fwhm_um: float) -> float:
    return fwhm_um / SQRT_2LN2


def beam_waist(R_um: float, geometric_length_um: float, lam_nm: float,
               waist_fwhm_override_um: Optional[float] = None) -> float:
    """Fundamental-mode waist w0 (1/e^2 amplitude radius, um) of the
    plano-concave resonator.

    w0^2 = (lambda/pi) sqrt(Lg (R - Lg)).  A measured intensity-FWHM
    override takes precedence when provided.
    """
    if waist_fwhm_override_um is not None:
        return waist_from_fwhm(waist_fwhm_override_um)
    Lg = geometric_length_um
    if not (0.0 < Lg < R_um):
        raise GeometryError(f"unstable: need 0 < Lg={Lg} < R={R_um} um")
    lam_um = lam_nm * 1e-3
    return float(np.sqrt((lam_um / np.pi) * np.sqrt(Lg * (R_um - Lg))))


def transverse_offsets(R_um: float, geometric_length_um: float, lam_nm: float,
                       max_order: int) -> np.ndarray:
    """Resonance shift (in mirror-travel nm) per transverse order m+n, an
    array (order, ...) over the equal-shape geometric_length_um and lam_nm.

    Offset_k = k (lambda / 2 pi) arccos(sqrt(1 - Lg/R)); equally spaced
    in the combined order.
    """
    Lg = np.asarray(geometric_length_um)
    unstable = np.flatnonzero(~((0.0 < Lg) & (Lg < R_um)))
    if unstable.size:
        raise GeometryError(f"unstable: need 0 < Lg={Lg.flat[unstable[0]]} < R={R_um} um")
    step = (lam_nm / (2.0 * np.pi)) * np.arccos(np.sqrt(1.0 - Lg / R_um))
    return np.multiply.outer(np.arange(max_order + 1), step)


def effective_area(w0: float) -> float:
    """Transverse mode area in um^2 of the waist w0 (um): integral of
    exp(-2 r^2/w0^2) -> pi w0^2 / 2."""
    if w0 <= 0:
        raise ValueError("waist must be positive")
    return np.pi * w0 ** 2 / 2.0


def vacuum_field(profile: FieldProfile, A_eff_um2: float) -> dict:
    """Vacuum-field normalization of a resonant standing-wave profile, as
    the dict report writes under "cavity": A_eff_um2, V_eff_um3,
    E_vac_max_diamond_V_per_m (at the diamond-internal field maximum),
    E_vac_global_max_V_per_m (at the global maximum), z_max_diamond_nm and
    z_max_global_nm.

    With U = int eps_r |f|^2 dz, the profile's exact layer energies summed,
    V_eff = A_eff U / (eps_r(z*) |f(z*)|^2) and E_vac(z*) = sqrt(hbar w /
    (2 eps0 eps_r(z*) V_eff)), so eps_r(z*) cancels and at every z
    E_vac(z) = |f(z)| sqrt(hbar w / (2 eps0 A_eff U)) (van Dam et al.,
    NJP 20, 115004 (2018)).  The maxima are read from the profile's
    samples: the diamond's over the samples between its layer edges, the
    global one over all.  V_eff is reported at the diamond maximum, with
    the diamond's permittivity; one past the float range raises
    GeometryError.
    """
    if "diamond" not in profile.layer_names:
        raise GeometryError("profile has no diamond layer; diamond-maximum undefined")
    k = profile.layer_names.index("diamond")
    z, amp = profile.z, profile.amplitude
    inside = np.flatnonzero((z >= profile.layer_edges[k]) & (z <= profile.layer_edges[k + 1]))
    i_d = int(inside[np.argmax(amp[inside])])
    i_g = int(np.argmax(amp))
    energy = float(profile.layer_energy.sum())  # nm, in eps_r |f|^2 units
    with np.errstate(all="ignore"):  # behind a thick bottom mirror amp[i_d] ** 2 underflows
        V_eff_um3 = A_eff_um2 * (energy * 1e-3) / (profile.layer_eps_r[k] * amp[i_d] ** 2)
    if not np.isfinite(V_eff_um3):
        raise GeometryError(f"V_eff is not finite: the diamond's field maximum is {amp[i_d]:.3g}")
    w = 2.0 * np.pi * C / (profile.resonant_wavelength * 1e-9)
    scale = np.sqrt(HBAR * w / (2.0 * EPS0 * (A_eff_um2 * 1e-12) * (energy * 1e-9)))
    return {
        "A_eff_um2": float(A_eff_um2),
        "V_eff_um3": float(V_eff_um3),
        "E_vac_max_diamond_V_per_m": float(scale * amp[i_d]),
        "E_vac_global_max_V_per_m": float(scale * amp[i_g]),
        "z_max_diamond_nm": float(z[i_d]),
        "z_max_global_nm": float(z[i_g]),
    }
