"""Byte-for-byte comparison of CLI outputs with recorded golden files.

The files under tests/golden/ hold the exact output of each command, and
the bundled datasets under data/ that of the synth command that wrote
them.  A change that moves a digit on purpose re-records the file it moves
(run the command with ``-o tests/golden/<file>``) and lists the change in
CHANGES.md.
"""

import pathlib

import pytest

from cavityforge.cli import main

REPO = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = REPO / "tests" / "golden"

CASES = {
    "report_paper_baseline.json": ["report", "--paper-baseline"],
    # the baseline behind a 30-pair bottom mirror (its config sits beside it)
    "report_bottom30_top14.json": ["report", "--config",
                                   str(GOLDEN / "config_bottom30_top14.json")],
    "design_single_132_637.csv": ["design", "--single", "t_d_nm=132", "L_nm=637"],
    "design_single_198_478.csv": ["design", "--single", "t_d_nm=198", "L_nm=478"],
    "design_sweep_3x3x2.csv": ["design", "--t-d-nm", "132", "198", "264",
                               "--l-nm", "478", "637", "800",
                               "--terminations", "node", "antinode"],
    "dispersion_paper_baseline_1.5_1.8.csv": [
        "dispersion", "--paper-baseline", "--l-min-um", "1.5", "--l-max-um", "1.8",
        "--max-transverse-order", "2"],
    # the full map: diamond shares from 0.137 to 0.560 across its 409 roots
    "dispersion_paper_baseline_1.5_4.5.csv": [
        "dispersion", "--paper-baseline", "--max-transverse-order", "2"],
    "fit_voigt_zpl2_resonance.json": ["fit", "voigt", str(REPO / "data" / "zpl2_resonance.csv")],
    "fit_gaussian_zpl6_lateral.json": ["fit", "gaussian",
                                       str(REPO / "data" / "zpl6_lateral.csv")],
    # the bundled datasets, as scripts/make_synthetic_data.py writes them
    "zpl2_resonance.csv": ["synth", "resonance", "--seed", "1", "--noise-frac", "0.02"],
    "zpl6_lateral.csv": ["synth", "lateral", "--seed", "2", "--noise-frac", "0.02"],
}
# cases whose recorded output is a bundled dataset, not a file in tests/golden/
IN_DATA = {"zpl2_resonance.csv", "zpl6_lateral.csv"}
# commands that also write a --pareto-json file
PARETO = {"design_sweep_3x3x2.csv": "design_sweep_3x3x2_pareto.json"}


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path):
    written = {name: tmp_path / name}
    argv = [*CASES[name], "-o", str(written[name])]
    if name in PARETO:
        written[PARETO[name]] = tmp_path / PARETO[name]
        argv += ["--pareto-json", str(written[PARETO[name]])]
    assert main(argv) == 0
    for golden, path in written.items():
        recorded = (REPO / "data" if golden in IN_DATA else GOLDEN) / golden
        assert path.read_bytes() == recorded.read_bytes(), golden
