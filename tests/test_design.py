from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cavityforge import design, tmm
from cavityforge.design import (DesignPoint, _tune_air_gap, design_mirrors,
                                evaluate_design, pareto_indices, sweep)
from cavityforge.stack import EmitterSpec, MirrorSpec, assemble_cavity
from cavityforge.tmm import (ResonanceError, characteristic_matrix, field_profile,
                             find_resonances, stack_response)

EMITTER = EmitterSpec()


def test_design_mirrors_low_index_terminated():
    bottom, top = design_mirrors()
    assert not bottom.terminal_high_index
    assert not top.terminal_high_index
    assert bottom.pairs == 15 and top.pairs == 14


@pytest.mark.parametrize("mirrors, t_d, L, R_um", [
    ((MirrorSpec(15, 637.0), MirrorSpec(14, 637.0)), 770.0, 1960.0, 16.0),
    (design_mirrors(), 198.0, 478.0, 5.5),
    (design_mirrors(), 132.0, 637.0, 5.5),
    # the nearest resonant gap lies below the 50 nm floor: both starts take
    # the first one above it, ~343 nm
    (design_mirrors(), 260.0, 60.0, 5.5),
])
def test_tune_air_gap_is_exact_and_independent_of_start(mirrors, t_d, L, R_um):
    bottom, top = mirrors
    base = assemble_cavity(bottom, t_d, L, top, R_um)
    asm = _tune_air_gap(base, 637.0)
    for start in (L - 30.0, L + 30.0):
        assert _tune_air_gap(base.with_air_gap(start), 637.0).L == asm.L
    peaks = [r["lambda_res"] for r in find_resonances(asm, (636.0, 638.0))]
    assert min(abs(lam - 637.0) for lam in peaks) < 1e-6


def test_evaluate_design_invalid_geometry_keeps_reason():
    # L + t_d beyond the mirror curvature is unstable
    [p] = evaluate_design(198.0, 6000.0, ["node"], EMITTER)
    assert not p.valid
    assert p.reason


def test_evaluate_design_unknown_termination_rejected(monkeypatch):
    # before any solve
    monkeypatch.setattr(design, "cavity_mode", None)
    with pytest.raises(ValueError, match="unknown termination 'sideways'"):
        evaluate_design(198.0, 478.0, ["node", "sideways"], EMITTER)


def _point(eta, q):
    p = DesignPoint(t_d_nm=0, L_nm=0, termination="node")
    p.valid = True
    p.eta_zpl = eta
    p.Q_required = q
    return p


def test_pareto_exhaustive_bruteforce():
    rng = np.random.default_rng(7)
    points = [_point(e, q) for e, q in zip(rng.uniform(0, 1, 40),
                                           rng.uniform(1e4, 1e6, 40))]
    points[3].valid = False
    got = set(pareto_indices(points))
    # brute force: i is Pareto iff no j has eta >= and Q <= with one strict
    expect = set()
    valid = [i for i, p in enumerate(points) if p.valid]
    for i in valid:
        if not any((points[j].eta_zpl >= points[i].eta_zpl
                    and points[j].Q_required <= points[i].Q_required
                    and (points[j].eta_zpl > points[i].eta_zpl
                         or points[j].Q_required < points[i].Q_required))
                   for j in valid if j != i):
            expect.add(i)
    assert got == expect
    assert 3 not in got


def test_sweep_empty_grid_rejected():
    with pytest.raises(ValueError):
        sweep([], [478.0], ["node"], EMITTER)


def test_termination_verdicts_read_true_extrema():
    # |E| is continuous through the interface; only the true antinode,
    # a few nm above it, may count
    node, anti = evaluate_design(264.0, 637.0, ["node", "antinode"], EMITTER)
    assert node.valid and anti.valid
    assert not node.termination_consistent
    assert anti.termination_consistent


def test_sweep_keeps_membraneless_point_with_reason():
    (bare, membrane), pareto, _ = sweep([0.0, 132.0], [637.0], ["antinode"], EMITTER)
    assert not bare.valid
    assert bare.reason.startswith("GeometryError")
    assert membrane.valid
    assert pareto == [1]


def test_transform_limit_follows_emitter_debye_waller():
    [base] = evaluate_design(132.0, 637.0, ["antinode"], EMITTER)
    [other] = evaluate_design(132.0, 637.0, ["antinode"], EmitterSpec(debye_waller=0.03))
    assert other.eta_zpl == base.eta_zpl   # scored at the fixed 2.0 %
    assert other.transform_limit_hz != base.transform_limit_hz


def test_sweep_all_invalid_raises():
    with pytest.raises(ResonanceError, match="GeometryError: unstable"):
        sweep([198.0], [6000.0], ["node"], EMITTER)


def test_sweep_solves_each_geometry_once(monkeypatch):
    calls = []

    def counting(asm, lam):
        calls.append(asm.t_d)
        return field_profile(asm, lam)

    monkeypatch.setattr(design, "field_profile", counting)
    points, _, _ = sweep([132.0, 198.0], [478.0, 637.0], ["node", "antinode"], EMITTER)
    assert calls == [132.0, 132.0, 198.0, 198.0]
    # the two rows of a geometry differ in the termination and its verdict only
    for node, anti in zip(points[::2], points[1::2]):
        assert (node.termination, anti.termination) == ("node", "antinode")
        np.testing.assert_equal(
            asdict(replace(node, termination="", termination_consistent=False)),
            asdict(replace(anti, termination="", termination_consistent=False)))


LAM = EMITTER.zpl_wavelength


def _dense_marks(asm, step=0.005, reach=LAM / 40.0 + 2.0):
    # reference: |E| sampled every step nm within reach of the diamond-air
    # interface (from stack_response's t and the 2x2 matrices walked down
    # from the exit face), and the distance from the interface to the
    # nearest sampled node and antinode
    resp = stack_response(asm.layers(), asm.n_in, asm.n_out, LAM)
    EH = np.array([resp["t"], asm.n_out * resp["t"]])
    for ly in reversed(asm.layers()):
        if ly is asm.diamond:
            break
        EH = characteristic_matrix(ly, LAM) @ EH
    u = np.arange(-min(asm.t_d, reach), min(asm.L, reach), step)  # height above
    n = np.where(u < 0, asm.diamond.n.real, asm.air_gap.n.real)
    delta = -2.0 * np.pi * n * u / LAM
    amp = np.abs(np.cos(delta) * EH[0] - 1j * np.sin(delta) / n * EH[1])
    mid, below, above = amp[1:-1], amp[:-2], amp[2:]
    z = np.abs(u[1:-1])
    return (z[(mid < below) & (mid < above)].min(initial=np.inf),
            z[(mid > below) & (mid > above)].min(initial=np.inf))


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=50.0, max_value=600.0),
       st.floats(min_value=300.0, max_value=3000.0))
def test_termination_verdict_matches_dense_sampling(t_d, L):
    node, anti = evaluate_design(t_d, L, ["node", "antinode"], EMITTER)
    assume(node.valid)
    bottom, top = design_mirrors(LAM)
    asm = assemble_cavity(bottom, t_d, L, top, design.DESIGN_RADIUS_UM)
    dist = _dense_marks(_tune_air_gap(asm, LAM))
    # the sampled marks sit within step of the true ones
    assume(all(abs(d - LAM / 40.0) >= 0.5 for d in dist))
    assert (node.termination_consistent, anti.termination_consistent) == \
        tuple(d < LAM / 40.0 for d in dist)


@pytest.mark.parametrize("t_d, L", [(198.0, 478.0), (132.0, 637.0), (264.0, 637.0)])
def test_interface_reads_do_not_depend_on_sample_count(t_d, L):
    bottom, top = design_mirrors(LAM)
    asm = _tune_air_gap(assemble_cavity(bottom, t_d, L, top, design.DESIGN_RADIUS_UM), LAM)

    def readings():
        prof = field_profile(asm, LAM)
        verdicts = [p.termination_consistent
                    for p in evaluate_design(t_d, L, ["node", "antinode"], EMITTER)]
        return verdicts, abs(prof.faces[prof.layer_names.index("diamond"), 0])

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tmm, "_MIN_SAMPLES", 200)
        coarse = readings()
        mp.setattr(tmm, "_MIN_SAMPLES", 16000)
        assert readings() == coarse
