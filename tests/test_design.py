import numpy as np
import pytest

from cavityforge.design import (DesignPoint, _tune_air_gap, design_mirrors,
                                evaluate_design, pareto_indices, sweep)
from cavityforge.stack import EmitterSpec, MirrorSpec, assemble_cavity
from cavityforge.tmm import ResonanceError, find_resonances

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
    p = evaluate_design(DesignPoint(t_d_nm=198.0, L_nm=6000.0,
                                    termination="node"), EMITTER)
    assert not p.valid
    assert p.reason


def test_evaluate_design_unknown_termination_rejected():
    with pytest.raises(ValueError):
        evaluate_design(DesignPoint(t_d_nm=198.0, L_nm=478.0,
                                    termination="sideways"), EMITTER)


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
    node, anti = (evaluate_design(DesignPoint(t_d_nm=264.0, L_nm=637.0,
                                              termination=term), EMITTER)
                  for term in ("node", "antinode"))
    assert node.valid and anti.valid
    assert not node.termination_consistent
    assert anti.termination_consistent


def test_sweep_keeps_membraneless_point_with_reason():
    res = sweep([0.0, 132.0], [637.0], ["antinode"], EMITTER)
    bare, membrane = res.points
    assert not bare.valid
    assert bare.reason.startswith("GeometryError")
    assert membrane.valid
    assert res.pareto == [1]


def test_transform_limit_follows_emitter_debye_waller():
    p = DesignPoint(t_d_nm=132.0, L_nm=637.0, termination="antinode")
    base = evaluate_design(p, EMITTER)
    other = evaluate_design(p, EmitterSpec(debye_waller=0.03))
    assert other.eta_zpl == base.eta_zpl   # scored at the fixed 2.0 %
    assert other.transform_limit_hz != base.transform_limit_hz


def test_sweep_all_invalid_raises():
    with pytest.raises(ResonanceError):
        sweep([198.0], [6000.0], ["node"], EMITTER)
