import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cavityforge import tmm
from cavityforge.design import _tune_air_gap
from cavityforge.gaussian import vacuum_field
from cavityforge.stack import Layer, MirrorSpec, assemble_cavity
from cavityforge.tmm import (ResonanceError, _layer_energies, characteristic_matrix,
                             diamond_energy_fraction, dispersion_map,
                             field_profile, find_resonances, stack_response,
                             transmission_spectrum)

# ---------------------------------------------------------- single matrices


def test_unimodularity_lossless():
    m = characteristic_matrix(Layer("a", 1.7 + 0j, 123.4), 637.0)
    assert abs(np.linalg.det(m) - 1.0) < 1e-12


def test_quarter_wave_diagonal_zero():
    n = 2.06
    m = characteristic_matrix(Layer("q", complex(n), 637.0 / (4 * n)), 637.0)
    assert abs(m[0, 0]) < 1e-12 and abs(m[1, 1]) < 1e-12


def test_half_wave_is_minus_identity():
    n = 1.46
    m = characteristic_matrix(Layer("h", complex(n), 637.0 / (2 * n)), 637.0)
    assert np.allclose(m, -np.eye(2), atol=1e-12)


def test_wavelength_must_be_positive():
    with pytest.raises(ValueError):
        characteristic_matrix(Layer("a", 1.5 + 0j, 100.0), 0.0)


# ------------------------------------------------------------ stack response


def test_single_quarter_wave_film_reflectance():
    # analytic: R = ((n0 ns - n1^2)/(n0 ns + n1^2))^2 for a quarter-wave film
    n1 = 2.06
    layer = Layer("f", complex(n1), 637.0 / (4 * n1))
    resp = stack_response([layer], 1.0, 1.46, 637.0)
    expected = ((1.0 * 1.46 - n1 ** 2) / (1.0 * 1.46 + n1 ** 2)) ** 2
    assert resp.R_power == pytest.approx(expected, abs=1e-10)
    assert resp.R_power == pytest.approx(0.2382, abs=5e-4)


def test_zero_thickness_layer_is_identity():
    layer = Layer("f", 2.06 + 0j, 637.0 / (4 * 2.06))
    dummy = Layer("d", 1.8 + 0j, 0.0)
    a = stack_response([layer], 1.0, 1.46, 637.0)
    b = stack_response([dummy, layer, dummy], 1.0, 1.46, 637.0)
    assert a.r == pytest.approx(b.r, abs=1e-14)
    assert a.t == pytest.approx(b.t, abs=1e-14)


def test_dbr_stopband_transmission():
    from cavityforge.stack import build_dbr
    layers = build_dbr(MirrorSpec(pairs=15, center_wavelength=637.0))
    resp = stack_response(layers, 1.0, 1.46, 637.0)
    assert resp.T_power < 1e-4
    # analytic quarter-wave stack estimate T ~ 4 (n0/ns) (nL/nH)^(2N)
    approx = 4.0 * (1.0 / 1.46) * (1.46 / 2.06) ** (2 * 15)
    assert resp.T_power == pytest.approx(approx, rel=0.5)


def test_empty_stack_rejected():
    with pytest.raises(ValueError):
        stack_response([], 1.0, 1.0, 637.0)


# ------------------------------------------------------ property: lossless TMM

_layer = st.tuples(
    st.floats(min_value=1.0, max_value=3.5),
    st.floats(min_value=1.0, max_value=900.0),
).map(lambda p: Layer("x", complex(p[0]), p[1]))

_stack = st.lists(_layer, min_size=1, max_size=8)
_indices = st.tuples(st.floats(min_value=1.0, max_value=3.5),
                     st.floats(min_value=1.0, max_value=3.5))
_wavelength = st.floats(min_value=400.0, max_value=900.0)


@settings(max_examples=150, deadline=None)
@given(_stack, _indices, _wavelength)
def test_energy_conservation_lossless(layers, nio, lam):
    n_in, n_out = nio
    resp = stack_response(layers, n_in, n_out, lam)
    assert abs(resp.R_power + resp.T_power - 1.0) < 1e-10


@settings(max_examples=150, deadline=None)
@given(_stack, _indices, _wavelength)
def test_reciprocity_lossless(layers, nio, lam):
    n_in, n_out = nio
    fwd = stack_response(layers, n_in, n_out, lam)
    bwd = stack_response(list(reversed(layers)), n_out, n_in, lam)
    assert fwd.T_power == pytest.approx(bwd.T_power, abs=1e-10)


@settings(max_examples=150, deadline=None)
@given(_stack, _wavelength)
def test_composition_matches_matrix_product(layers, lam):
    from cavityforge.tmm import _stack_entries
    M_all = np.array([e[0] for e in _stack_entries(layers, np.array([lam]))]).reshape(2, 2)
    M_prod = np.eye(2, dtype=complex)
    for lay in layers:
        M_prod = M_prod @ characteristic_matrix(lay, lam)
    assert np.allclose(M_all, M_prod, rtol=1e-12, atol=1e-12)
    assert abs(np.linalg.det(M_all) - 1.0) < 1e-9


# --------------------------------------------- property: absorbing layers

_lossy_layer = st.tuples(
    st.floats(min_value=1.0, max_value=3.5),
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=1.0, max_value=900.0),
).map(lambda p: Layer("x", complex(p[0], p[1]), p[2]))


def test_absorbing_slab_attenuates():
    # Im n > 0 is loss: a 1000 nm slab with kappa = 0.1 passes less than
    # its single-pass Beer-Lambert factor exp(-4 pi kappa d / lam)
    resp = stack_response([Layer("a", 1.5 + 0.1j, 1000.0)], 1.0, 1.0, 637.0)
    assert resp.T_power < np.exp(-4.0 * np.pi * 0.1 * 1000.0 / 637.0)
    assert resp.R_power + resp.T_power < 1.0


@settings(max_examples=150, deadline=None)
@given(st.lists(_lossy_layer, min_size=1, max_size=8), _indices, _wavelength)
def test_absorbing_stacks_never_gain(layers, nio, lam):
    n_in, n_out = nio
    resp = stack_response(layers, n_in, n_out, lam)
    assert resp.R_power + resp.T_power <= 1.0 + 1e-10


@settings(max_examples=100, deadline=None)
@given(st.lists(_lossy_layer.filter(lambda ly: ly.n.imag < 0.05), min_size=1,
                max_size=8), _indices, _wavelength)
def test_tangential_fields_continuous_at_every_interface(layers, nio, lam):
    # [E, H] at each interface, walked down from the transmitted wave in
    # the exit medium and up from the incident plus reflected wave in the
    # entry medium, must be one and the same pair
    n_in, n_out = nio
    resp = stack_response(layers, n_in, n_out, lam)
    down = [np.array([resp.t, n_out * resp.t])]
    for ly in reversed(layers):
        down.append(characteristic_matrix(ly, lam) @ down[-1])
    up = [np.array([1.0 + resp.r, n_in * (1.0 - resp.r)])]
    for ly in layers:
        up.append(np.linalg.solve(characteristic_matrix(ly, lam), up[-1]))
    for a, b in zip(down[::-1], up):
        assert np.allclose(a, b, rtol=1e-8, atol=1e-8)


# -------------------------------------------------------- resonance finding


@pytest.fixture(scope="module")
def ideal_air_cavity():
    # high-index-terminated DBRs at the design wavelength reflect with phase
    # pi, so the bare cavity resonates exactly at L = q lambda / 2
    m = MirrorSpec(pairs=12, center_wavelength=637.0)
    return assemble_cavity(m, t_d=0.0, L=955.5, top=m, R_um=16.0)


def test_ideal_cavity_resonance_at_637(ideal_air_cavity):
    res = find_resonances(ideal_air_cavity, (630.0, 645.0))
    assert len(res) == 1
    assert res[0]["lambda_res"] == pytest.approx(637.0, abs=1e-3)
    assert res[0]["Q_cold"] > 1e4


def test_empty_window_returns_empty_list(ideal_air_cavity):
    assert find_resonances(ideal_air_cavity, (650.0, 660.0)) == []


def test_edge_root_is_exact_and_silent(ideal_air_cavity):
    # the 637 nm root, 0.01 nm inside the window's edge, is the root a wide
    # window finds, bit for bit, and raises no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        edge = find_resonances(ideal_air_cavity, (636.99, 637.5))
    wide = [r for r in find_resonances(ideal_air_cavity, (630.0, 645.0))
            if 636.99 <= r["lambda_res"] <= 637.5]
    assert len(edge) == 1
    assert edge == wide


def test_qcold_consistent_with_finesse_route(ideal_air_cavity):
    # Q from the transmission FWHM must agree with lambda/Gamma_lambda
    res = find_resonances(ideal_air_cavity, (630.0, 645.0))[0]
    q_direct = res["lambda_res"] / res["cold_linewidth_nm"]
    assert res["Q_cold"] == pytest.approx(q_direct, rel=1e-6)


# ------------------------------------------------------------ field profiles


@pytest.fixture(scope="module")
def baseline_assembly():
    m_bot = MirrorSpec(pairs=15, center_wavelength=637.0)
    m_top = MirrorSpec(pairs=14, center_wavelength=637.0)
    return assemble_cavity(m_bot, t_d=770.0, L=1960.0, top=m_top, R_um=16.0,
                           waist_fwhm_um=0.83)


@pytest.fixture(scope="module")
def baseline_resonant(baseline_assembly):
    res = find_resonances(baseline_assembly, (630.0, 645.0))
    assert res, "baseline cavity must resonate near 637 nm"
    lam = min(res, key=lambda d: abs(d["lambda_res"] - 637.0))["lambda_res"]
    return baseline_assembly, lam


def test_baseline_resonates_near_637(baseline_resonant):
    _, lam = baseline_resonant
    assert lam == pytest.approx(637.0, abs=5.0)


def test_field_continuity_across_interfaces(baseline_resonant):
    asm, lam = baseline_resonant
    prof = field_profile(asm, lam)
    # duplicate samples at each interface must agree (tangential E continuity)
    dz = np.diff(prof.z)
    pairs = np.flatnonzero(dz == 0.0)
    assert pairs.size >= len(prof.layer_names) - 1
    jumps = np.abs(prof.amplitude[pairs + 1] - prof.amplitude[pairs])
    assert np.max(jumps) < 1e-9 * np.max(prof.amplitude)


def test_field_profile_rejects_detuned_wavelength(baseline_resonant):
    asm, lam = baseline_resonant
    with pytest.raises(ResonanceError):
        field_profile(asm, lam + 1.0)


def test_field_profile_resonance_check_is_one_linewidth(baseline_assembly):
    res = find_resonances(baseline_assembly, (630.0, 645.0))[0]
    lam, w = res["lambda_res"], res["cold_linewidth_nm"]
    field_profile(baseline_assembly, lam + 0.9 * w)
    with pytest.raises(ResonanceError):
        field_profile(baseline_assembly, lam - 1.1 * w)


def test_resonance_check_floor_is_the_phase_rounding():
    # behind 54 pairs per mirror the cold linewidth in phase (~4e-16 rad) is
    # below the rounding of 4 pi L / lam (~7e-15 rad at 38 rad): the check
    # accepts every root the solver finds and still rejects a wavelength
    # 1e-10 nm off, ~6e-12 rad or ~26 times its rounding floor.  |r_b r_t|
    # rounds above 1 there, and the width stays at 0, not below it
    m = MirrorSpec(pairs=54, center_wavelength=637.0)
    asm = assemble_cavity(m, t_d=770.0, L=1936.0, top=m, R_um=16.0, waist_fwhm_um=0.83)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = find_resonances(asm, (630.0, 645.0))
    assert res and all(0.0 <= r["cold_linewidth_nm"] < 1e-13 for r in res)
    assert all(r["Q_cold"] > 0 for r in res)
    for r in res:
        field_profile(asm, r["lambda_res"])
        for off in (-1e-10, 1e-10):
            with pytest.raises(ResonanceError, match="is off resonance"):
                field_profile(asm, r["lambda_res"] + off)


def test_diamond_energy_fraction_bounds(baseline_resonant):
    asm, lam = baseline_resonant
    prof = field_profile(asm, lam)
    frac = diamond_energy_fraction(prof)
    assert 0.0 < frac < 1.0


# ----------------------------------------------------- exact layer energies


def _trapezoid_energies(asm, lam, samples=64000):
    # reference: walk [E, H] down with the 2x2 matrices from the transmitted
    # wave and integrate eps_r |E|^2 by the trapezoid rule in each layer
    resp = stack_response(asm.layers(), asm.n_in, asm.n_out, lam)
    EH = np.array([resp.t, asm.n_out * resp.t])
    out = []
    for ly in reversed(asm.layers()):
        s = np.linspace(0.0, ly.thickness, samples)   # depth below the top face
        delta = 2.0 * np.pi * ly.n * s / lam
        E = np.cos(delta) * EH[0] - 1j * np.sin(delta) / ly.n * EH[1]
        out.append((ly.n ** 2).real * np.trapezoid(np.abs(E) ** 2, s))
        EH = characteristic_matrix(ly, lam) @ EH
    return np.array(out[::-1])


@settings(max_examples=8, deadline=None)
@given(st.floats(min_value=50.0, max_value=1000.0),
       st.floats(min_value=500.0, max_value=4000.0),
       st.sampled_from([0.0, 2e-3]))
def test_layer_energies_match_fine_trapezoid(t_d, L, kappa_d):
    # one absorbing layer when kappa_d > 0: the diamond
    m_bot = MirrorSpec(pairs=15, center_wavelength=637.0)
    m_top = MirrorSpec(pairs=14, center_wavelength=637.0)
    lam = 637.0
    asm = _tune_air_gap(assemble_cavity(m_bot, t_d, L, m_top, R_um=16.0,
                                        n_d=2.41 + kappa_d * 1j), lam)
    exact = _layer_energies(asm, np.array([asm.L]), np.array([lam]))[:, 0]
    np.testing.assert_allclose(exact, _trapezoid_energies(asm, lam), rtol=1e-8, atol=0)


def test_batched_energies_equal_one_sample_walk(paper_cavity):
    cols = dispersion_map(paper_cavity, np.arange(1500.0, 1801.0, 20.0), (600.0, 700.0))
    L, lam = cols["L_nm"], cols["lambda_nm"]
    batched = _layer_energies(paper_cavity, L, lam)
    for i in range(L.size):
        one = _layer_energies(paper_cavity, L[i:i + 1], lam[i:i + 1])[:, 0]
        np.testing.assert_allclose(batched[:, i], one, rtol=1e-14, atol=0)
    # field_profile reads its energies from the same walk
    prof = field_profile(paper_cavity.with_air_gap(L[0]), lam[0])
    np.testing.assert_array_equal(prof.layer_energy, batched[:, 0])


def _reference_faces(asm, lam):
    # reference: [E, H] at each layer's top face from stack_response's t and
    # the 2x2 matrices walked down from the exit face
    resp = stack_response(asm.layers(), asm.n_in, asm.n_out, lam)
    EH = np.array([resp.t, asm.n_out * resp.t])
    tops = []
    for ly in reversed(asm.layers()):
        tops.append(EH)
        EH = characteristic_matrix(ly, lam) @ EH
    return np.array(tops[::-1])


def _reference_amplitude(asm, lam, prof):
    # reference: |E| at each of the profile's samples from _reference_faces
    tops = _reference_faces(asm, lam)
    edges = prof.layer_edges
    i = np.clip(np.searchsorted(edges, prof.z, side="right") - 1, 0, len(tops) - 1)
    n = np.array([ly.n for ly in asm.layers()])[i]
    delta = 2.0 * np.pi * n * (edges[i + 1] - prof.z) / lam   # depth below the top face
    return np.abs(np.cos(delta) * tops[i, 0] - 1j * np.sin(delta) / n * tops[i, 1])


@settings(max_examples=8, deadline=None)
@given(st.floats(min_value=50.0, max_value=1000.0),
       st.floats(min_value=500.0, max_value=4000.0),
       st.sampled_from([0.0, 2e-3]))
# inputs at which the walks once differed by more than 1e-12 of max |faces|
@example(916.5, 2079.0, 0.0)
@example(386.0, 1763.0, 0.0)
@example(812.5, 1731.0, 0.0)
@example(778.27, 2404.0, 0.0)
@example(389.80, 3351.0, 2e-3)
def test_field_profile_matches_reference_walk(t_d, L, kappa_d):
    m_bot = MirrorSpec(pairs=15, center_wavelength=637.0)
    m_top = MirrorSpec(pairs=14, center_wavelength=637.0)
    lam = 637.0
    asm = _tune_air_gap(assemble_cavity(m_bot, t_d, L, m_top, R_um=16.0,
                                        n_d=2.41 + kappa_d * 1j), lam)
    prof = field_profile(asm, lam)
    ref = _reference_amplitude(asm, lam, prof)
    # 1e-12 of the sample, or of the peak near a node, where |E| is itself
    # a cancellation and both walks carry rounding of the peak's size
    np.testing.assert_allclose(prof.amplitude, ref, rtol=1e-12, atol=1e-12 * ref.max())
    # Error model for faces: both walks use the same rounded layer entries and
    # differ only in how they round the products, a few eps each.  t, which
    # scales every face, is read at the entry face.  Down the bottom mirror
    # the field decays by G = (n_high / n_low)^pairs, while a rounding error
    # made at its cavity side grows along the mirror's growing Bloch mode by
    # G, so t, and with it every face, carries up to ~G^2 eps of max |faces|
    # per walk (the bottom mirror's G, the larger one here: 15 pairs against
    # 14).  Two walks then differ by at most 2 G^2 eps, 1.4e-11; over 1 000
    # random geometries they differed by up to 0.33 G^2 eps.
    faces = _reference_faces(asm, lam)
    G = (m_bot.n_high / m_bot.n_low) ** m_bot.pairs
    np.testing.assert_allclose(prof.faces, faces, rtol=0,
                               atol=2.0 * G ** 2 * np.finfo(float).eps * np.abs(faces).max())


@settings(max_examples=6, deadline=None)
@given(st.sampled_from([200, 500, 1000, 4000, 16000]))
def test_energies_do_not_depend_on_sample_count(baseline_resonant, samples):
    asm, lam = baseline_resonant

    def readings():
        prof = field_profile(asm, lam)
        rep = vacuum_field(prof, 0.781)
        # the integral vacuum_field used, undone from V_eff and the sampled maximum
        k = prof.layer_names.index("diamond")
        inside = (prof.z >= prof.layer_edges[k]) & (prof.z <= prof.layer_edges[k + 1])
        peak = prof.layer_eps_r[k] * prof.amplitude[inside].max() ** 2
        return diamond_energy_fraction(prof), rep["V_eff_um3"] * peak / (0.781 * 1e-3)

    frac0, integral0 = readings()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tmm, "_MIN_SAMPLES", samples)
        frac, integral = readings()
    assert frac == frac0
    assert integral == pytest.approx(integral0, rel=1e-13)


# ------------------------------------------------------------ dispersion map


def test_dispersion_branches_monotone(baseline_assembly):
    L_values = np.arange(1900.0, 2101.0, 25.0)
    cols = dispersion_map(baseline_assembly, L_values, (600.0, 700.0))
    branches = np.unique(cols["branch_id"])
    assert branches.size
    # one branch per mode order of the round-trip phase
    assert np.unique(cols["order"]).size == branches.size
    for b in branches:
        on = cols["branch_id"] == b
        lam = cols["lambda_nm"][on]
        assert np.all(np.diff(lam) > 0)  # lambda_res strictly increases with L
        slopes = cols["dlambda_dL"][on]
        assert np.all((slopes > 0.0) & (slopes < 1.0))
        share = cols["diamond_fraction"][on]
        assert np.all((share > 0.0) & (share < 1.0))


@pytest.fixture(scope="module")
def paper_cavity():
    from cavityforge.config import paper_baseline_dict, parse_config
    return parse_config(paper_baseline_dict()).cavity


def _half_max_width(lams, T):
    """FWHM of the single peak of T(lams), half-max points interpolated."""
    half = 0.5 * T.max()
    i, k = np.flatnonzero(T >= half)[[0, -1]]
    lo = np.interp(half, T[i - 1:i + 1], lams[i - 1:i + 1])
    hi = np.interp(half, T[k:k + 2][::-1], lams[k:k + 2][::-1])
    return hi - lo


@pytest.mark.parametrize("L_values", [[1500.0, 1520.0, 1540.0],
                                      [4460.0, 4480.0, 4500.0]])
def test_phase_roots_match_transmission_peaks(paper_cavity, L_values):
    # resonances are roots of the round-trip phase: each must sit on a
    # transmission maximum of the full stack, found on a dense grid, with
    # the closed-form linewidth of that peak; dispersion_map must find
    # exactly the roots find_resonances finds at each L
    window, step = (600.0, 700.0), 0.005
    grid = np.arange(window[0], window[1] + step, step)
    found = {}
    for L in L_values:
        cav = paper_cavity.with_air_gap(L)
        found[L] = find_resonances(cav, window)

        def T(lams):
            return transmission_spectrum(cav.layers(), cav.n_in, cav.n_out, lams)

        Tg = T(grid)
        scan_peaks = np.flatnonzero((Tg[1:-1] > Tg[:-2]) & (Tg[1:-1] >= Tg[2:]))
        assert len(found[L]) == scan_peaks.size >= 2
        for r in found[L]:
            lam, w = r["lambda_res"], r["cold_linewidth_nm"]
            dense = lam + np.linspace(-2e-4, 2e-4, 4001)
            i = int(np.argmax(T(dense)))
            assert 0 < i < dense.size - 1
            assert abs(dense[i] - lam) < 1e-5
            wide = lam + np.linspace(-1.5 * w, 1.5 * w, 3001)
            assert w == pytest.approx(_half_max_width(wide, T(wide)), rel=1e-5)
    cols = dispersion_map(paper_cavity, np.array(L_values), window)
    assert cols["L_nm"].size
    for L, lam in zip(cols["L_nm"], cols["lambda_nm"]):
        assert lam in [r["lambda_res"] for r in found[L]]


def test_lockstep_refinement_is_independent_per_peak(paper_cavity):
    # the bracket lattice is fixed multiples of _SCAN_STEP, so a narrow
    # window, whatever its start, brackets each root between the same two
    # wavelengths as the wide one does, and Newton iterates each root to its
    # own fixed point
    cav = paper_cavity.with_air_gap(4400.0)
    wide = find_resonances(cav, (600.0, 700.0))
    assert len(wide) >= 3
    for peak in wide:
        for offset in (1.0, 1.3, 0.7071, 1.98765):
            lo = float(np.floor(peak["lambda_res"])) - offset
            alone = find_resonances(cav, (lo, lo + 3.0))
            assert len(alone) == 1
            assert alone[0]["lambda_res"] == peak["lambda_res"]
            assert alone[0]["cold_linewidth_nm"] == peak["cold_linewidth_nm"]


def test_lumped_loss_lowers_q_cold(paper_cavity):
    from dataclasses import replace
    cav = paper_cavity.with_air_gap(1960.0)
    window = (630.0, 645.0)
    base = find_resonances(cav, window)
    assert base
    zero = replace(cav, top_mirror=replace(cav.top_mirror, lumped_loss=0.0),
                   bottom_mirror=replace(cav.bottom_mirror, lumped_loss=0.0))
    assert find_resonances(zero, window) == base
    lossy = replace(cav, top_mirror=replace(cav.top_mirror, lumped_loss=1e-4))
    got = find_resonances(lossy, window)
    assert [r["lambda_res"] for r in got] == [r["lambda_res"] for r in base]
    for g, b in zip(got, base):
        assert g["Q_cold"] < b["Q_cold"]


@settings(max_examples=12, deadline=None)
@given(st.floats(min_value=450.0, max_value=990.0),
       st.floats(min_value=5.0, max_value=60.0),
       st.floats(min_value=300.0, max_value=6000.0),
       st.sampled_from([0.0, 770.0]))
def test_roots_do_not_depend_on_the_bracket_lattice(paper_cavity, lo, width, L, t_d):
    # windows inside and outside the DBR stop band (~568-706 nm), with and
    # without a membrane: the 5 pm lattice only brackets the phase roots, so
    # a 1 pm lattice finds the same ones, and none lies outside the window
    cav = assemble_cavity(paper_cavity.bottom_mirror, t_d, L, paper_cavity.top_mirror,
                          R_um=16.0)
    window = (lo, lo + width)

    def roots():
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return np.array([r["lambda_res"] for r in find_resonances(cav, window)])

    coarse = roots()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tmm, "_SCAN_STEP", 0.001)
        fine = roots()
    assert coarse.size == fine.size
    np.testing.assert_allclose(coarse, fine, rtol=0.0, atol=1e-9)
    assert np.all((coarse >= window[0]) & (coarse <= window[1]))


_MAP_L = np.arange(1500.0, 4501.0, 20.0)


@settings(max_examples=15, deadline=None)
@given(st.integers(0, _MAP_L.size - 2).flatmap(
    lambda i: st.tuples(st.just(i), st.integers(i + 2, _MAP_L.size))))
def test_dispersion_columns_hold_whole_branches_in_order(paper_cavity, span):
    cols = dispersion_map(paper_cavity, _MAP_L[span[0]:span[1]], (600.0, 700.0))
    L, bid = cols["L_nm"], cols["branch_id"]
    assert {k: v.shape for k, v in cols.items()} == dict.fromkeys(cols, L.shape)
    for b in np.unique(bid):
        on = bid == b
        assert np.unique(cols["order"][on]).size == 1
        assert on.sum() >= 2
        assert np.all(np.diff(L[on]) > 0)
    # rows sorted by (L, branch id), one root per branch at each L
    dL, dbid = np.diff(L), np.diff(bid)
    assert np.all((dL > 0) | ((dL == 0) & (dbid > 0)))


@pytest.fixture(scope="module")
def full_map_shares(paper_cavity):
    cols = dispersion_map(paper_cavity, _MAP_L, (600.0, 700.0))
    return dict(zip(zip(cols["L_nm"], cols["lambda_nm"]), cols["diamond_fraction"]))


@settings(max_examples=15, deadline=None)
@given(st.integers(0, _MAP_L.size - 2).flatmap(
    lambda i: st.tuples(st.just(i), st.integers(i + 2, _MAP_L.size))))
@example((45, 51))  # L 2400-2500 nm: the root at 609.37634 nm holds 0.2468
def test_diamond_fraction_is_each_roots_exact_share(paper_cavity, full_map_shares, span):
    cols = dispersion_map(paper_cavity, _MAP_L[span[0]:span[1]], (600.0, 700.0))
    share = cols["diamond_fraction"]
    assert np.all((share >= 0.0) & (share <= 1.0))
    # a root's share is its own: the same float as in the full map
    for L, lam, f in zip(cols["L_nm"], cols["lambda_nm"], share):
        assert full_map_shares[L, lam] == f
    # and the share of the root's field profile, at a few sampled rows
    for i in np.linspace(0, share.size - 1, 3).astype(int):
        prof = field_profile(paper_cavity.with_air_gap(cols["L_nm"][i]), cols["lambda_nm"][i])
        assert abs(share[i] - diamond_energy_fraction(prof)) <= 1e-12


def test_fold_pairs_split_into_branches(paper_cavity):
    # past the stop band one order can close twice at one L; each branch
    # must still hold one root per L, so every slope is finite
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)    # window-edge peaks
        warnings.simplefilter("error", RuntimeWarning)  # np.gradient over a repeated L
        cols = dispersion_map(paper_cavity, np.arange(1500.0, 2201.0, 20.0),
                              (560.0, 760.0))
    branches = np.unique(cols["branch_id"])
    assert branches.size > np.unique(cols["order"]).size  # some order folds
    for b in branches:
        L = cols["L_nm"][cols["branch_id"] == b]
        assert L.size >= 2 and np.all(np.diff(L) > 0)
    assert np.all(np.isfinite(cols["lambda_nm"]))
    assert np.all(np.isfinite(cols["dlambda_dL"]))
