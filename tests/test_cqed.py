import numpy as np
import pytest

from cavityforge.constants import C, E_CHARGE
from cavityforge.cqed import (RatesMeasurement, coupling_rate, coupling_report,
                              debye_waller_inversion, dipole_from_lifetime,
                              linewidth_conversions, purcell_zpl_theory,
                              rates_algebra, transform_limit)

GAMMA_BULK = 1.0 / 12.6e-9  # 79.365e6 s^-1


def test_dipole_headline_value():
    d = dipole_from_lifetime(79.4e6, 637.0, 2.41)
    assert d / E_CHARGE * 1e9 == pytest.approx(0.108, rel=0.01)


def test_dipole_sqrt_scaling():
    d1 = dipole_from_lifetime(79.4e6, 637.0, 2.41)
    d4 = dipole_from_lifetime(4 * 79.4e6, 637.0, 2.41)
    assert d4 == pytest.approx(2 * d1, rel=1e-12)


def test_dipole_index_scaling():
    d_n = dipole_from_lifetime(79.4e6, 637.0, 2.41)
    d_1 = dipole_from_lifetime(79.4e6, 637.0, 1.0)
    assert d_1 == pytest.approx(d_n * np.sqrt(2.41), rel=1e-12)


def test_dipole_validation():
    with pytest.raises(ValueError):
        dipole_from_lifetime(-1.0, 637.0, 2.41)


def test_coupling_rate_headline():
    d = dipole_from_lifetime(GAMMA_BULK, 637.0, 2.41)
    g = coupling_rate(d, 36.2e3)
    assert g == pytest.approx(5.97e9, rel=0.02)


def test_coupling_rate_linear_in_field_and_xi():
    d = dipole_from_lifetime(GAMMA_BULK, 637.0, 2.41)
    g1 = coupling_rate(d, 36.2e3, xi=1.0)
    assert coupling_rate(d, 2 * 36.2e3, xi=1.0) == pytest.approx(2 * g1)
    assert coupling_rate(d, 36.2e3, xi=0.5) == pytest.approx(g1 / 2)
    with pytest.raises(ValueError):
        coupling_rate(d, 36.2e3, xi=1.5)


def test_linewidth_conversions_headline():
    conv = linewidth_conversions(60.6, 0.18, 637.0)
    assert conv["finesse"] == pytest.approx(5260, rel=0.005)
    assert conv["Q"] == pytest.approx(58500, rel=0.005)
    assert conv["Gamma_f_hz"] == pytest.approx(8.0e9, rel=0.01)
    assert conv["kappa_per_s"] == pytest.approx(5.06e10, rel=0.01)
    # internal identity: kappa = w / Q
    w = 2 * np.pi * C / 637e-9
    assert conv["kappa_per_s"] == pytest.approx(w / conv["Q"], rel=1e-9)


def test_purcell_theory_headline():
    d = dipole_from_lifetime(GAMMA_BULK, 637.0, 2.41)
    g = coupling_rate(d, 36.2e3)
    kappa = linewidth_conversions(60.6, 0.18, 637.0)["kappa_per_s"]
    assert purcell_zpl_theory(g, kappa, GAMMA_BULK) == pytest.approx(35.5, rel=0.01)


def test_purcell_warns_outside_weak_coupling():
    with pytest.warns(UserWarning):
        purcell_zpl_theory(1e10, 1e9, GAMMA_BULK)


def test_rates_algebra_both_dw():
    m24 = RatesMeasurement(158e6, 88.2e6, 79.4e6, dw_assumed=0.024)
    out = rates_algebra(m24)
    assert out["F_P_zpl_measured"] == pytest.approx(37.7, rel=0.005)
    assert out["eta_zpl"] == pytest.approx(0.454, abs=0.002)
    assert out["F_P_total"] == pytest.approx(2.0, rel=0.01)
    m50 = RatesMeasurement(158e6, 88.2e6, 79.4e6, dw_assumed=0.05)
    out = rates_algebra(m50)
    assert out["F_P_zpl_measured"] == pytest.approx(18.6, rel=0.005)
    assert out["eta_zpl"] == pytest.approx(0.467, abs=0.002)


def test_rates_measurement_validation():
    with pytest.raises(ValueError):
        RatesMeasurement(88.2e6, 158e6, 79.4e6, dw_assumed=0.024)


def test_debye_waller_inversion():
    out = debye_waller_inversion(158e6, 88.2e6, 79.4e6, F_theory=35.5)
    assert out["debye_waller"] == pytest.approx(0.0255, abs=0.0005)
    assert not out["degenerate"]


def test_debye_waller_inversion_degenerate():
    out = debye_waller_inversion(88.2e6, 88.2e6 + 1.0, 79.4e6, F_theory=35.5)
    assert out["degenerate"]
    assert out["gamma_zpl"] == 0.0


def test_transform_limit_values():
    gamma0 = 0.0255 * GAMMA_BULK
    gamma1 = GAMMA_BULK - gamma0
    assert transform_limit(356.0, gamma0, gamma1) == pytest.approx(127e6, rel=0.01)
    assert transform_limit(527.0, gamma0, gamma1) == pytest.approx(182e6, rel=0.01)
    # F = 1 recovers the bare-emitter limit gamma_bulk / 2 pi
    assert transform_limit(1.0, gamma0, gamma1) == pytest.approx(
        GAMMA_BULK / (2 * np.pi), rel=1e-12)


def test_coupling_report_chain_consistency():
    rep = coupling_report(GAMMA_BULK, 637.0, 2.41, 36.2e3, 60.6, 0.18,
                          rates=RatesMeasurement(158e6, 88.2e6, GAMMA_BULK,
                                                 dw_assumed=0.024))
    assert rep["F_P_zpl_theory"] == pytest.approx(
        4 * rep["g_rad_per_s"] ** 2 / (rep["kappa_per_s"] * GAMMA_BULK), rel=1e-12)
    assert 0 < rep["eta_zpl"] < 1
    assert rep["dipole"]["d_over_e_nm"] == pytest.approx(0.108, rel=0.01)
    assert rep["Q"] == pytest.approx(58500, rel=0.005)
    assert rep["inputs"]["xi"] == 1.0
