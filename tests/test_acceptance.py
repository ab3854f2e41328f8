"""Acceptance suite: one test (and one printed pass/fail line) per criterion.

Each criterion asserts published figures of merit at pinned tolerances;
fit criteria run on seeded synthetic data parameterized by the published
fit results, since the raw measurement data are not available.
"""

import pathlib
import sys

import numpy as np
import pytest

from cavityforge import synthetic, tmm
from cavityforge.constants import C, E_CHARGE, EPS0, HBAR
from cavityforge.cqed import (RatesMeasurement, coupling_rate,
                              debye_waller_inversion, dipole_from_lifetime,
                              linewidth_conversions, purcell_zpl_theory,
                              rates_algebra, transform_limit)
from cavityforge.design import evaluate_design
from cavityforge.fits import (XYSeries, fit_gaussian, fit_lifetime,
                              fit_lorentzian, fit_voigt, g2_pulse_areas)
from cavityforge.gaussian import beam_waist, effective_area, vacuum_field
from cavityforge.stack import EmitterSpec, MirrorSpec, assemble_cavity
from cavityforge.tmm import dispersion_map, field_profile, find_resonances, \
    stack_response

GAMMA_BULK = 1.0 / 12.6e-9
DATA = pathlib.Path(__file__).resolve().parent.parent / "data"


def _verdict(num: int, desc: str, checks: list):
    """checks: list of (label, ok, detail).  Prints one line, then asserts."""
    failed = [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    status = "PASS" if not failed else "FAIL"
    line = f"CRITERION {num} ({desc}): {status}"
    if failed:
        line += " — " + "; ".join(failed)
    print(line)
    # bypass pytest's capture so every criterion line shows in the run log
    print(line, file=sys.__stdout__)
    assert not failed, line


def _within(got, want, rel=None, abs_=None):
    tol = abs_ if abs_ is not None else rel * abs(want)
    return abs(got - want) <= tol, f"got {got:.6g}, want {want:.6g} ± {tol:.3g}"


# --------------------------------------------------------------- criterion 1


def test_criterion_1_finesse_q_conversions():
    conv = linewidth_conversions(60.6, 0.18, 637.0)
    checks = []
    for label, got, want, rel in [
            ("finesse", conv["finesse"], 5260.0, 0.005),
            ("Q", conv["Q"], 58500.0, 0.005),
            ("Gamma_f", conv["Gamma_f_hz"], 8.0e9, 0.01),
            ("kappa", conv["kappa_per_s"], 5.06e10, 0.01)]:
        ok, det = _within(got, want, rel=rel)
        checks.append((label, ok, det))
    _verdict(1, "finesse/Q conversions", checks)


# --------------------------------------------------------------- criterion 2


def test_criterion_2_dipole_and_coupling():
    d = dipole_from_lifetime(GAMMA_BULK, 637.0, 2.41)
    g = coupling_rate(d, 36.2e3)
    ok_d, det_d = _within(d / E_CHARGE * 1e9, 0.108, rel=0.01)
    ok_g, det_g = _within(g, 5.97e9, rel=0.02)
    _verdict(2, "dipole and coupling rate", [("d/e", ok_d, det_d),
                                             ("g", ok_g, det_g)])


# --------------------------------------------------------------- criterion 3


def test_criterion_3_purcell_theory():
    d = dipole_from_lifetime(GAMMA_BULK, 637.0, 2.41)
    g = coupling_rate(d, 36.2e3)
    kappa = linewidth_conversions(60.6, 0.18, 637.0)["kappa_per_s"]
    F = purcell_zpl_theory(g, kappa, GAMMA_BULK)
    ok, det = _within(F, 35.5, rel=0.01)
    _verdict(3, "resonant ZPL Purcell factor", [("F_P_zpl", ok, det)])


# --------------------------------------------------------------- criterion 4


def test_criterion_4_rates_algebra():
    checks = []
    for dw, F_want, eta_want in [(0.024, 37.7, 0.454), (0.05, 18.6, 0.467)]:
        out = rates_algebra(RatesMeasurement(158e6, 88.2e6, 79.4e6,
                                             dw_assumed=dw))
        ok, det = _within(out["F_P_zpl_measured"], F_want, rel=0.005)
        checks.append((f"F_P_zpl@DW={dw}", ok, det))
        ok, det = _within(out["eta_zpl"], eta_want, abs_=0.002)
        checks.append((f"eta_zpl@DW={dw}", ok, det))
    out = rates_algebra(RatesMeasurement(158e6, 88.2e6, 79.4e6, dw_assumed=0.024))
    ok, det = _within(out["F_P_total"], 2.0, rel=0.01)
    checks.append(("F_P_total", ok, det))
    inv = debye_waller_inversion(158e6, 88.2e6, 79.4e6, F_theory=35.5)
    ok, det = _within(inv["debye_waller"], 0.0255, abs_=0.0005)
    checks.append(("DW inversion", ok, det))
    _verdict(4, "measured-rates Purcell algebra", checks)


# --------------------------------------------------------------- criterion 5


@pytest.fixture(scope="module")
def baseline_chain():
    bottom = MirrorSpec(pairs=15, center_wavelength=637.0)
    top = MirrorSpec(pairs=14, center_wavelength=637.0)
    base = assemble_cavity(bottom, t_d=770.0, L=1960.0, top=top, R_um=16.0,
                           waist_fwhm_um=0.83)
    # tune the air gap nearest nominal so the mode sits at 637.0 nm
    from cavityforge.design import _tune_air_gap
    asm = _tune_air_gap(base, 637.0)
    prof = field_profile(asm, 637.0)
    w0 = beam_waist(16.0, asm.geometric_length_um(), 637.0, waist_fwhm_override_um=0.83)
    rep = vacuum_field(prof, effective_area(w0))
    return asm, prof, rep


def test_criterion_5_vacuum_field_full_chain(baseline_chain):
    asm, prof, rep = baseline_chain
    iface = float(prof.layer_edges[prof.layer_names.index("diamond") + 1])
    amp_iface = float(np.interp(iface, prof.z, prof.amplitude))
    ratio = amp_iface / float(prof.amplitude.max())
    ok_e, det_e = _within(rep["E_vac_max_diamond_V_per_m"], 36.2e3, rel=0.05)
    checks = [
        ("E_vac_diamond", ok_e, det_e),
        ("interface node |E|/|E_max| < 0.1", ratio < 0.1, f"got {ratio:.3f}"),
    ]
    _verdict(5, "vacuum field from the full chain", checks)


# --------------------------------------------------------------- criterion 6


@pytest.fixture(scope="module")
def baseline_dispersion():
    bottom = MirrorSpec(pairs=15, center_wavelength=637.0)
    top = MirrorSpec(pairs=14, center_wavelength=637.0)
    asm = assemble_cavity(bottom, t_d=770.0, L=1960.0, top=top, R_um=16.0)
    L_values = np.arange(1500.0, 4501.0, 50.0)
    return asm, dispersion_map(asm, L_values, (600.0, 700.0))


def test_criterion_6_dispersion_map(baseline_dispersion):
    asm, cols = baseline_dispersion
    n_branches = np.unique(cols["branch_id"]).size
    checks = [("anticrossing branch structure", n_branches >= 3,
               f"{n_branches} branches")]
    # operating-branch slope at the sample closest to (637 nm, L ~ 1.95 um)
    cost = np.abs(cols["lambda_nm"] - 637.0) + 0.01 * np.abs(cols["L_nm"] - 1950.0)
    best = int(np.argmin(cost))
    L_op, lam_op, slope_op = (cols[k][best] for k in ("L_nm", "lambda_nm", "dlambda_dL"))
    ok, det = _within(slope_op, 0.18, abs_=0.02)
    checks.append((f"dlambda/dL at L={L_op:.0f} nm", ok, det))
    # hybridization: slopes across the map span air-like and diamond-like values
    slopes = cols["dlambda_dL"]
    checks.append(("slope range spans hybridized branches",
                   slopes.max() / slopes.min() > 2.0,
                   f"min {slopes.min():.3f}, max {slopes.max():.3f}"))
    # grid-halving stability of the resonance position at the operating point
    def nearest(step):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(tmm, "_SCAN_STEP", step)
            res = find_resonances(asm.with_air_gap(L_op), (630.0, 645.0))
        return min(res, key=lambda d: abs(d["lambda_res"] - lam_op))["lambda_res"]

    lam_coarse, lam_fine = nearest(0.004), nearest(0.002)
    checks.append(("stability under grid halving", abs(lam_fine - lam_coarse) < 1e-4,
                   f"delta {abs(lam_fine - lam_coarse):.2e} nm"))
    _verdict(6, "mode dispersion map", checks)


# --------------------------------------------------------------- criterion 7


@pytest.fixture(scope="module")
def design_points():
    e = EmitterSpec()
    [node] = evaluate_design(198.0, 478.0, ["node"], e)
    [anti] = evaluate_design(132.0, 637.0, ["antinode"], e)
    return node, anti


def test_criterion_7_design_predictions(design_points):
    node, anti = design_points
    checks = [("node design valid", node.valid, node.reason),
              ("antinode design valid", anti.valid, anti.reason)]
    for name, p, e_want, f_want, eta_want in [
            ("node", node, 85.7e3, 356.0, 0.879),
            ("antinode", anti, 127e3, 527.0, 0.915)]:
        ok, det = _within(p.E_vac_diamond_V_per_m, e_want, rel=0.10)
        checks.append((f"{name} E_vac", ok, det))
        ok, det = _within(p.F_P_zpl, f_want, rel=0.10)
        checks.append((f"{name} F_P_zpl", ok, det))
        ok, det = _within(p.eta_zpl, eta_want, abs_=0.03)
        checks.append((f"{name} eta_zpl", ok, det))
        checks.append((f"{name} termination consistent",
                       p.termination_consistent,
                       f"interface |E|/|E_max| = {p.interface_field_ratio:.3f}"))
    # transform limits at the published Purcell factors, DW = 2.55 %
    gamma0 = 0.0255 * GAMMA_BULK
    gamma1 = GAMMA_BULK - gamma0
    ok, det = _within(transform_limit(356.0, gamma0, gamma1), 127e6, rel=0.05)
    checks.append(("node transform limit", ok, det))
    ok, det = _within(transform_limit(527.0, gamma0, gamma1), 182e6, rel=0.05)
    checks.append(("antinode transform limit", ok, det))
    # the required-Q comparison is reported, not gated (known ~1.22x ambiguity)
    print(f"  [not gated] Q_required: node {node.Q_required:.0f}, "
          f"antinode {anti.Q_required:.0f}")
    _verdict(7, "forward design predictions", checks)


# --------------------------------------------------------------- criterion 8


def _random_lossless_stack(rng):
    n_layers = rng.integers(1, 9)
    return [
        __import__("cavityforge.stack", fromlist=["Layer"]).Layer(
            "x", complex(rng.uniform(1.0, 3.5)), float(rng.uniform(1.0, 900.0)))
        for _ in range(n_layers)
    ]


def test_criterion_8a_tmm_properties():
    rng = np.random.default_rng(2024)
    worst_cons = worst_recip = worst_det = 0.0
    for _ in range(10_000):
        layers = _random_lossless_stack(rng)
        n_in = float(rng.uniform(1.0, 3.5))
        n_out = float(rng.uniform(1.0, 3.5))
        lam = float(rng.uniform(400.0, 900.0))
        fwd = stack_response(layers, n_in, n_out, lam)
        worst_cons = max(worst_cons, abs(fwd["R"] + fwd["T"] - 1.0))
        bwd = stack_response(list(reversed(layers)), n_out, n_in, lam)
        worst_recip = max(worst_recip, abs(fwd["T"] - bwd["T"]))
        from cavityforge.tmm import _stack_entries
        M = np.array([e[0] for e in _stack_entries(layers, np.array([lam]))])
        det = np.linalg.det(M.reshape(2, 2))
        worst_det = max(worst_det, abs(det - 1.0))
    checks = [
        ("energy conservation (1e4 stacks)", worst_cons < 1e-10,
         f"worst {worst_cons:.2e}"),
        ("reciprocity", worst_recip < 1e-10, f"worst {worst_recip:.2e}"),
        ("unimodularity", worst_det < 1e-10, f"worst {worst_det:.2e}"),
    ]
    _verdict(8, "TMM property battery", checks)


def test_criterion_8b_vacuum_normalization_half_quantum():
    z = np.linspace(0.0, 955.5, 20001)
    amp = np.abs(np.sin(np.pi * 3 * z / 955.5))
    from cavityforge.tmm import FieldProfile
    prof = FieldProfile(z=z, amplitude=amp, resonant_wavelength=637.0,
                        layer_edges=np.array([0.0, 955.5]), layer_names=["diamond"],
                        layer_eps_r=np.array([1.0]), layer_energy=np.array([955.5 / 2]),
                        faces=np.zeros((1, 2), complex))
    rep = vacuum_field(prof, 0.781)
    i_star = int(np.argmin(np.abs(prof.z - rep["z_max_diamond_nm"])))
    E = rep["E_vac_max_diamond_V_per_m"] * amp / amp[i_star]
    energy = EPS0 * np.trapezoid(E ** 2, z * 1e-9) * 0.781e-12
    w = 2 * np.pi * C / 637.0e-9
    ok = abs(energy / (HBAR * w / 2.0) - 1.0) < 1e-6
    _verdict(8, "vacuum normalization returns hbar*w/2",
             [("mode energy", ok, f"ratio {energy / (HBAR * w / 2):.8f}")])


def test_criterion_8c_fitters_noiseless_roundtrip():
    checks = []
    out = fit_voigt(synthetic.voigt_resonance(noise_frac=0.0))
    ok, det = _within(out.params["fwhm_l"], 60.6, rel=1e-4)
    checks.append(("voigt fwhm_l", ok, det))
    out = fit_lorentzian(synthetic.lorentzian_rate_curve(noise_frac=0.0))
    ok, det = _within(out.params["fwhm"], 0.32, rel=1e-4)
    checks.append(("lorentzian fwhm", ok, det))
    out = fit_gaussian(synthetic.gaussian_rate_curve(noise_frac=0.0))
    ok, det = _within(out.params["fwhm"], 0.80, rel=1e-4)
    checks.append(("gaussian fwhm", ok, det))
    out = fit_lifetime(synthetic.decay_histogram(tau_ns=12.6, poisson=False))
    ok, det = _within(out.params["tau_ns"], 12.6, rel=1e-4)
    checks.append(("lifetime tau", ok, det))
    g2 = g2_pulse_areas(synthetic.g2_histogram(poisson=False),
                        100.0, 20.0)
    ok, det = _within(g2["g2_zero"], 0.27, abs_=1e-4)
    checks.append(("g2 zero", ok, det))
    _verdict(8, "noiseless fit round-trips at 1e-4", checks)


def test_criterion_8d_fitters_noisy_recovery_100_seeds():
    n_seeds = 100
    errs = {"voigt": [], "lorentzian": [], "gaussian": [],
            "tau_7.06": [], "tau_12.6": [], "g2": []}
    for seed in range(n_seeds):
        out = fit_voigt(synthetic.voigt_resonance(noise_frac=0.02, seed=seed))
        errs["voigt"].append(abs(out.params["fwhm_l"] / 60.6 - 1.0))
        out = fit_lorentzian(synthetic.lorentzian_rate_curve(noise_frac=0.02,
                                                             seed=seed))
        errs["lorentzian"].append(abs(out.params["fwhm"] / 0.32 - 1.0))
        out = fit_gaussian(synthetic.gaussian_rate_curve(noise_frac=0.02,
                                                         seed=seed))
        errs["gaussian"].append(abs(out.params["fwhm"] / 0.80 - 1.0))
        for tau, key in [(7.06, "tau_7.06"), (12.6, "tau_12.6")]:
            out = fit_lifetime(synthetic.decay_histogram(tau_ns=tau,
                                                         poisson=True, seed=seed))
            errs[key].append(abs(out.params["tau_ns"] / tau - 1.0))
        g2 = g2_pulse_areas(synthetic.g2_histogram(poisson=True, seed=seed),
                            100.0, 20.0)
        errs["g2"].append(abs(g2["g2_zero"] - 0.27))
    tols = {"voigt": 0.10, "lorentzian": 0.08, "gaussian": 0.05,
            "tau_7.06": 0.02, "tau_12.6": 0.02, "g2": 0.05}
    checks = []
    for key, tol in tols.items():
        worst = max(errs[key])
        checks.append((f"{key} over {n_seeds} seeds", worst <= tol,
                       f"worst |err| {worst:.4f} vs tol {tol}"))
    _verdict(8, "noisy-fit recovery over 100 seeds", checks)


# --------------------------------------------------------------- criterion 9


def test_criterion_9_no_raw_data_only_seeded_synthetics(tmp_path):
    # raw measurement data are not available; bundled datasets must be the
    # deterministic output of the seeded generators (no hidden measurements)
    from cavityforge.cli import main
    regen = tmp_path / "resonance.csv"
    assert main(["synth", "resonance", "--seed", "1", "--noise-frac", "0.02",
                 "-o", str(regen)]) == 0
    ok_r = regen.read_bytes() == (DATA / "zpl2_resonance.csv").read_bytes()
    regen2 = tmp_path / "lateral.csv"
    assert main(["synth", "lateral", "--seed", "2", "--noise-frac", "0.02",
                 "-o", str(regen2)]) == 0
    ok_l = regen2.read_bytes() == (DATA / "zpl6_lateral.csv").read_bytes()
    extra = sorted(p.name for p in DATA.iterdir()
                   if p.name not in {"zpl2_resonance.csv", "zpl6_lateral.csv"})
    _verdict(9, "fit data are seeded synthetics only", [
        ("zpl2_resonance.csv regenerates byte-identically", ok_r, "mismatch"),
        ("zpl6_lateral.csv regenerates byte-identically", ok_l, "mismatch"),
        ("no other data files bundled", not extra, f"found {extra}"),
    ])
