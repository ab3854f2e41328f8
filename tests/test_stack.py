import pytest

from cavityforge.stack import (CavityAssembly, EmitterSpec, GeometryError, Layer,
                               MirrorSpec, assemble_cavity, build_dbr, emitter_rates)


def test_layer_rejects_negative_thickness():
    with pytest.raises(GeometryError):
        Layer("bad", 1.5 + 0j, -1.0)


@pytest.mark.parametrize("thickness", [float("nan"), float("inf"), -float("inf")])
def test_layer_rejects_non_finite_thickness(thickness):
    with pytest.raises(GeometryError):
        Layer("bad", 1.5 + 0j, thickness)


def test_layer_rejects_subunity_index():
    with pytest.raises(GeometryError):
        Layer("bad", 0.9 + 0j, 100.0)


def test_layer_rejects_gain_medium():
    with pytest.raises(GeometryError):
        Layer("bad", 1.5 - 0.1j, 100.0)


def test_dbr_quarter_wave_thicknesses():
    spec = MirrorSpec(pairs=15, center_wavelength=637.0)
    layers = build_dbr(spec)
    assert len(layers) == 30
    assert layers[0].n.real == pytest.approx(2.06)  # high-index next to cavity
    for lay in layers:
        assert lay.optical_thickness == pytest.approx(637.0 / 4.0, rel=1e-12)


def test_dbr_low_index_termination():
    spec = MirrorSpec(pairs=3, center_wavelength=637.0, terminal_high_index=False)
    layers = build_dbr(spec)
    assert layers[0].n.real == pytest.approx(1.46)
    assert layers[1].n.real == pytest.approx(2.06)


def test_mirror_validation():
    with pytest.raises(GeometryError):
        MirrorSpec(pairs=0, center_wavelength=637.0)
    with pytest.raises(GeometryError):
        MirrorSpec(pairs=5, center_wavelength=637.0, lumped_loss=1.5)


def test_assembly_layer_order():
    bottom = MirrorSpec(pairs=2, center_wavelength=637.0)
    top = MirrorSpec(pairs=3, center_wavelength=637.0)
    asm = assemble_cavity(bottom, t_d=770.0, L=1960.0, top=top, R_um=16.0)
    layers = asm.layers()
    # bottom DBR reversed (substrate side first), diamond, air, top DBR
    assert len(layers) == 4 + 1 + 1 + 6
    assert layers[0].name == "dbr_low"     # reversed hi-terminated pair
    assert layers[3].name == "dbr_high"    # cavity-side layer of the bottom DBR
    assert layers[4].name == "diamond"
    assert layers[5].name == "air"
    assert layers[6].name == "dbr_high"


def test_bare_cavity_drops_diamond_layer():
    bottom = MirrorSpec(pairs=2, center_wavelength=637.0)
    asm = assemble_cavity(bottom, t_d=0.0, L=955.5, top=bottom, R_um=16.0)
    assert all(l.name != "diamond" or l.thickness > 0 for l in asm.layers())
    assert "diamond" not in [l.name for l in asm.layers()]


def test_assembly_stability_guard():
    bottom = MirrorSpec(pairs=2, center_wavelength=637.0)
    with pytest.raises(GeometryError):
        assemble_cavity(bottom, t_d=770.0, L=16_000.0, top=bottom, R_um=16.0)


def test_with_air_gap_replaces_only_the_gap():
    bottom = MirrorSpec(pairs=2, center_wavelength=637.0)
    asm = assemble_cavity(bottom, t_d=770.0, L=1960.0, top=bottom, R_um=16.0)
    asm2 = asm.with_air_gap(2000.0)
    assert asm2.L == 2000.0
    assert asm2.t_d == asm.t_d
    assert asm.L == 1960.0  # original untouched


def test_geometric_length():
    bottom = MirrorSpec(pairs=2, center_wavelength=637.0)
    asm = assemble_cavity(bottom, t_d=770.0, L=1960.0, top=bottom, R_um=16.0)
    assert asm.geometric_length_um() == pytest.approx(2.73)


def test_emitter_validation():
    with pytest.raises(ValueError):
        EmitterSpec(debye_waller=0.0)
    with pytest.raises(ValueError):
        EmitterSpec(bulk_lifetime_ns=-1.0)
    with pytest.raises(ValueError):
        EmitterSpec(dipole_orientation_factor=1.5)


def test_emitter_rates_partition():
    e = EmitterSpec(bulk_lifetime_ns=12.6, debye_waller=0.024)
    r = emitter_rates(e)
    assert r["gamma_bulk"] == pytest.approx(1.0 / 12.6e-9)
    assert r["gamma_zpl"] + r["gamma_psb"] == pytest.approx(r["gamma_bulk"])
    assert r["gamma_zpl"] == pytest.approx(0.024 * r["gamma_bulk"])
