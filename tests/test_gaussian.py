import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cavityforge.constants import C, EPS0, HBAR, SQRT_2LN2
from cavityforge.gaussian import (beam_waist, effective_area,
                                  transverse_offsets, vacuum_field, waist_from_fwhm)
from cavityforge.stack import GeometryError, MirrorSpec, assemble_cavity
from cavityforge.tmm import FieldProfile, field_profile, find_resonances

# ------------------------------------------------------------------- waists


def test_fwhm_waist_conversion_exact():
    fwhm = 1.0 * SQRT_2LN2
    assert fwhm == pytest.approx(np.sqrt(2 * np.log(2)), rel=1e-14)
    assert waist_from_fwhm(fwhm) == pytest.approx(1.0, rel=1e-14)


def test_plano_concave_waist_formula():
    w0 = beam_waist(16.0, 2.73, 637.0)
    lam_um = 0.637
    want = np.sqrt((lam_um / np.pi) * np.sqrt(2.73 * (16.0 - 2.73)))
    assert w0 == pytest.approx(want, rel=1e-12)
    assert w0 == pytest.approx(1.10, abs=0.01)
    assert w0 * SQRT_2LN2 == pytest.approx(1.30, abs=0.01)


def test_waist_override_takes_precedence():
    w0 = beam_waist(16.0, 2.73, 637.0, waist_fwhm_override_um=0.83)
    assert w0 == pytest.approx(0.705, abs=0.001)


def test_waist_stability_guard():
    with pytest.raises(GeometryError):
        beam_waist(16.0, 16.0, 637.0)
    with pytest.raises(GeometryError):
        beam_waist(16.0, 17.0, 637.0)


# -------------------------------------------------------------- Gouy offsets


def test_transverse_offsets_fundamental_zero():
    offs = transverse_offsets(16.0, 2.73, 637.0, 3)
    assert offs[0] == 0.0


def test_transverse_offsets_value_and_spacing():
    offs = transverse_offsets(16.0, 2.73, 637.0, 3)
    step = (637.0 / (2 * np.pi)) * np.arccos(np.sqrt(1 - 2.73 / 16.0))
    assert offs[1] == pytest.approx(step, rel=1e-12)
    assert offs[1] == pytest.approx(42.8, rel=0.01)
    diffs = np.diff(offs)
    assert np.allclose(diffs, diffs[0], rtol=1e-12)
    assert np.all(diffs > 0)


# ------------------------------------------------------------ effective area


def test_effective_area_values():
    assert effective_area(1.0) == pytest.approx(np.pi / 2)
    assert effective_area(0.705) == pytest.approx(0.781, abs=0.002)
    a1 = effective_area(0.7)
    a2 = effective_area(1.4)
    assert a2 == pytest.approx(4 * a1)
    with pytest.raises(ValueError):
        effective_area(0.0)


# ------------------------------------------------------- vacuum normalization


def _sine_profile(L_nm=955.5, lam=637.0, n_samples=20001):
    z = np.linspace(0.0, L_nm, n_samples)
    amp = np.abs(np.sin(np.pi * 3 * z / L_nm))  # q = 3 standing wave
    return FieldProfile(
        z=z, amplitude=amp, resonant_wavelength=lam,
        layer_edges=np.array([0.0, L_nm]), layer_names=["diamond"],
        layer_eps_r=np.array([1.0]),
        layer_energy=np.array([L_nm / 2]),  # int sin^2 over three half-waves
        faces=np.zeros((1, 2), complex),    # vacuum_field reads no face fields
    )


def test_uniform_cavity_closed_form():
    # for a sine mode in a uniform cavity: E_vac = sqrt(hbar w / (eps0 A L))
    prof = _sine_profile()
    A_um2 = np.pi / 2
    rep = vacuum_field(prof, A_um2)
    w = 2 * np.pi * C / (637.0e-9)
    expected = np.sqrt(HBAR * w /
                       (EPS0 * A_um2 * 1e-12 * 955.5e-9))
    assert rep["E_vac_max_diamond_V_per_m"] == pytest.approx(expected, rel=1e-6)
    assert rep["E_vac_global_max_V_per_m"] == pytest.approx(expected, rel=1e-6)


def test_vacuum_energy_is_half_quantum():
    # eps0 * int eps_r E(z)^2 A dz == hbar w / 2 with E scaled to E_vac at z*
    prof = _sine_profile()
    A_um2 = 0.781
    rep = vacuum_field(prof, A_um2)
    i_star = int(np.argmin(np.abs(prof.z - rep["z_max_diamond_nm"])))
    E = rep["E_vac_max_diamond_V_per_m"] * prof.amplitude / prof.amplitude[i_star]
    energy = EPS0 * np.trapezoid(prof.layer_eps_r[0] * E ** 2, prof.z * 1e-9) \
        * A_um2 * 1e-12
    w = 2 * np.pi * C / 637.0e-9
    assert energy == pytest.approx(HBAR * w / 2.0, rel=1e-6)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=0.2, max_value=5.0))
def test_vacuum_field_scales_inverse_sqrt_area(scale):
    prof = _sine_profile(n_samples=4001)
    base = vacuum_field(prof, 1.0)["E_vac_max_diamond_V_per_m"]
    scaled = vacuum_field(prof, scale)["E_vac_max_diamond_V_per_m"]
    assert scaled == pytest.approx(base / np.sqrt(scale), rel=1e-9)


def test_vacuum_field_requires_diamond_layer():
    prof = _sine_profile()
    prof.layer_names[0] = "air"
    with pytest.raises(ValueError):
        vacuum_field(prof, 1.0)


def test_maximum_on_the_diamond_air_face_keeps_the_diamond_permittivity():
    # a diamond (eps 5.8) under an air gap, its field largest on their shared
    # face, where the air-side duplicate sample is 1 ulp above the diamond's
    eps_d, lam, A_um2 = 2.41 ** 2, 637.0, 0.781
    z = np.array([0.0, 50.0, 100.0, 100.0, 150.0, 200.0])
    f_face = 0.9
    amp = np.array([0.2, 0.5, f_face, np.nextafter(f_face, 2.0), 0.6, 0.3])
    energy = np.array([40.0, 30.0])
    prof = FieldProfile(
        z=z, amplitude=amp, resonant_wavelength=lam,
        layer_edges=np.array([0.0, 100.0, 200.0]), layer_names=["diamond", "air"],
        layer_eps_r=np.array([eps_d, 1.0]), layer_energy=energy,
        faces=np.zeros((2, 2), complex))
    rep = vacuum_field(prof, A_um2)
    w = 2 * np.pi * C / (lam * 1e-9)
    scale = np.sqrt(HBAR * w / (2 * EPS0 * A_um2 * 1e-12
                                          * energy.sum() * 1e-9))
    assert rep["z_max_diamond_nm"] == rep["z_max_global_nm"] == 100.0
    assert rep["E_vac_max_diamond_V_per_m"] == pytest.approx(scale * amp.max(), rel=1e-15)
    assert rep["E_vac_global_max_V_per_m"] == rep["E_vac_max_diamond_V_per_m"]
    assert rep["V_eff_um3"] == pytest.approx(
        A_um2 * energy.sum() * 1e-3 / (eps_d * f_face ** 2), rel=1e-15)


def test_global_max_at_least_diamond_max():
    m = MirrorSpec(pairs=12, center_wavelength=637.0)
    asm = assemble_cavity(m, t_d=770.0, L=1960.0, top=m, R_um=16.0)
    res = find_resonances(asm, (630.0, 645.0))
    lam = min(res, key=lambda d: abs(d["lambda_res"] - 637.0))["lambda_res"]
    prof = field_profile(asm, lam)
    rep = vacuum_field(prof, 0.781)
    assert rep["E_vac_global_max_V_per_m"] >= rep["E_vac_max_diamond_V_per_m"] > 0


def test_vacuum_field_keys_are_the_report_cavity_keys():
    # report writes vacuum_field's dict under "cavity", after its own six keys
    golden = pathlib.Path(__file__).resolve().parent / "golden" / "report_paper_baseline.json"
    cavity = json.loads(golden.read_text())["cavity"]
    own = {"L_tuned_nm", "t_d_nm", "lambda_res_nm", "waist_um", "waist_intensity_fwhm_um",
           "waist_source"}
    assert set(vacuum_field(_sine_profile(), 0.781)) == set(cavity) - own
