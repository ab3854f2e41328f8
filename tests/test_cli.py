import json
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from cavityforge import cli
from cavityforge.cli import main
from cavityforge.tmm import ResonanceError

REPO = pathlib.Path(__file__).resolve().parent.parent
DATA = REPO / "data"
GOLDEN = REPO / "tests" / "golden"


def _run(args):
    return main(args)


# ----------------------------------------------------------------------- fit


def test_fit_bundled_resonance(tmp_path):
    out = tmp_path / "fit.json"
    rc = _run(["fit", "voigt", str(DATA / "zpl2_resonance.csv"), "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["converged"]
    assert doc["params"]["fwhm_l"] == pytest.approx(60.6, rel=0.05)
    assert doc["x_unit"] == "delta_l_pm"


def test_fit_bundled_lateral(tmp_path):
    out = tmp_path / "fit.json"
    rc = _run(["fit", "gaussian", str(DATA / "zpl6_lateral.csv"), "-o", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["fwhm"] == pytest.approx(0.80, rel=0.05)


def test_fit_header_without_units_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x,y\n0,1\n1,2\n2,1\n")
    assert _run(["fit", "lorentzian", str(bad)]) == 2


def test_fit_numeric_header_exits_2(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("0.0,1.0\n1,2\n2,1\n")
    assert _run(["fit", "lorentzian", str(bad)]) == 2


@pytest.mark.parametrize("rows", ["0,1,7\n1,2,7\n2,1,7\n",   # a third value in every row
                                  "0,1\n1,2,7\n2,1\n"])       # ragged
def test_fit_rows_not_two_wide_exit_2(rows, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("x_nm,y_per_s\n" + rows)
    assert _run(["fit", "lorentzian", str(bad)]) == 2


def test_fit_skips_blank_whitespace_and_comma_only_lines(tmp_path):
    clean = tmp_path / "clean.csv"
    assert _run(["synth", "lorentzian", "--seed", "3", "-o", str(clean)]) == 0
    lines = clean.read_text().splitlines()
    padded = tmp_path / "padded.csv"
    padded.write_text("\n   \n" + lines[0] + "\n\t\n" + "\n , \n".join(lines[1:]) + "\n,\n\n")
    out_clean, out_padded = tmp_path / "a.json", tmp_path / "b.json"
    assert _run(["fit", "lorentzian", str(clean), "-o", str(out_clean)]) == 0
    assert _run(["fit", "lorentzian", str(padded), "-o", str(out_padded)]) == 0
    assert out_padded.read_bytes() == out_clean.read_bytes()


@pytest.mark.parametrize("rows, message", [
    ("0,1\n1,abc\n2,1\n", "non-numeric or ragged"),
    ("0,1\n1,\n2,1\n", "non-numeric or ragged"),           # empty cell
    ("0,1\n1,2 3\n2,1\n", "non-numeric or ragged"),        # two numbers in one cell
    ("0,1\n1\n2,1\n", "non-numeric or ragged"),            # one row short
    ("0\n1\n2\n", "two values per data row, got 1"),
    ("0,1\n", "at least two data rows"),
    ("\n  \n", "at least two data rows"),
])
def test_fit_bad_data_rows_exit_2(rows, message, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("x_nm,y_per_s\n" + rows)
    assert _run(["fit", "lorentzian", str(bad)]) == 2
    assert message in capsys.readouterr().err


def test_fit_missing_file_exits_2(tmp_path):
    assert _run(["fit", "voigt", str(tmp_path / "nope.csv")]) == 2


def test_fit_g2_synthetic(tmp_path):
    csv = tmp_path / "g2.csv"
    out = tmp_path / "g2.json"
    assert _run(["synth", "g2", "--seed", "3", "-o", str(csv)]) == 0
    assert _run(["fit", "g2", str(csv), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["g2_zero"] == pytest.approx(0.27, abs=0.01)


def test_fit_lifetime_synthetic(tmp_path):
    csv = tmp_path / "lt.csv"
    out = tmp_path / "lt.json"
    assert _run(["synth", "lifetime", "--seed", "4", "-o", str(csv)]) == 0
    assert _run(["fit", "lifetime", str(csv), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["tau_ns"] == pytest.approx(12.6, rel=0.01)


def test_fit_exhausted_budget_exits_4(tmp_path, monkeypatch):
    from cavityforge import fits
    csv = tmp_path / "lor.csv"
    out = tmp_path / "lor.json"
    assert _run(["synth", "lorentzian", "--seed", "2", "-o", str(csv)]) == 0
    monkeypatch.setattr(fits, "MAX_ITER", 0)
    assert _run(["fit", "lorentzian", str(csv), "-o", str(out)]) == 4
    doc = json.loads(out.read_text())
    assert doc["converged"] is False
    assert doc["iterations"] == 1   # the initial evaluation spends the budget


@pytest.mark.parametrize("sigma", ["-0.2", "nan", "inf"])
def test_fit_lifetime_bad_irf_sigma_exits_2(sigma, tmp_path, capsys):
    csv = tmp_path / "lt.csv"
    assert _run(["synth", "lifetime", "--seed", "4", "-o", str(csv)]) == 0
    assert _run(["fit", "lifetime", str(csv), "--irf-sigma-ns", sigma,
                 "-o", str(tmp_path / "lt.json")]) == 2
    assert "irf_sigma_ns must be finite and >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("start", ["nan", "inf", "-inf"])
def test_fit_lifetime_window_start_not_finite_exits_2(start, tmp_path, capsys):
    csv = tmp_path / "lt.csv"
    assert _run(["synth", "lifetime", "--seed", "4", "-o", str(csv)]) == 0
    # the = form, as argparse reads a bare -inf as a flag
    assert _run(["fit", "lifetime", str(csv), f"--window-start-ns={start}",
                 "-o", str(tmp_path / "lt.json")]) == 2
    assert "window_start_ns must be finite" in capsys.readouterr().err


def test_fit_lifetime_on_a_backwards_time_axis_exits_2(tmp_path, capsys):
    # uniform bins running backwards are still no time axis
    csv = tmp_path / "lt.csv"
    assert _run(["synth", "lifetime", "--seed", "4", "-o", str(csv)]) == 0
    header, *rows = csv.read_text().splitlines()
    csv.write_text("\n".join([header, *reversed(rows)]) + "\n")
    assert _run(["fit", "lifetime", str(csv), "-o", str(tmp_path / "lt.json")]) == 2
    assert "x must be strictly increasing" in capsys.readouterr().err


def test_fit_g2_negative_count_exits_2(tmp_path, capsys):
    csv = tmp_path / "g2.csv"
    assert _run(["synth", "g2", "--seed", "3", "-o", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    lines[100] = lines[100].split(",")[0] + ",-1"
    csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "g2.json"
    assert _run(["fit", "g2", str(csv), "-o", str(out)]) == 2
    assert "counts must be non-negative" in capsys.readouterr().err
    assert not out.exists()


def _write_g2(path, t, counts):
    path.write_text("delay_ns,coincidences\n" + "".join(f"{x:.9g},{counts}\n" for x in t))


@pytest.mark.parametrize("lo_ns", [200.0, -150.0])
def test_fit_g2_without_three_peaks_on_each_side_exits_2(lo_ns, tmp_path, capsys):
    # 200-1100 ns covers peaks 3-10 and no zero-delay peak; -150-1100 ns
    # covers one peak below zero delay
    csv = tmp_path / "g2.csv"
    _write_g2(csv, np.arange(lo_ns, 1100.0 + 0.1, 0.2), 1)
    out = tmp_path / "g2.json"
    assert _run(["fit", "g2", str(csv), "-o", str(out)]) == 2
    assert "at least 3 pulse periods on each side" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("delay", ["-5", "nan", "inf"])
def test_fit_g2_normalization_delay_outside_its_domain_exits_2(delay, tmp_path, capsys):
    csv = tmp_path / "g2.csv"
    assert _run(["synth", "g2", "--poisson", "--seed", "3", "-o", str(csv)]) == 0
    out = tmp_path / "g2.json"
    assert _run(["fit", "g2", str(csv), "--norm-delay-ns", delay, "-o", str(out)]) == 2
    assert "normalization_delay_ns must be finite and >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_fit_g2_normalization_delay_in_its_domain(tmp_path):
    from cavityforge.fits import g2_pulse_areas
    csv = tmp_path / "g2.csv"
    assert _run(["synth", "g2", "--poisson", "--seed", "3", "-o", str(csv)]) == 0
    written = {}
    for name, flags in {"unset": [], "0": ["--norm-delay-ns", "0"],
                        "250": ["--norm-delay-ns", "250"]}.items():
        written[name] = tmp_path / f"g2-{name}.json"
        assert _run(["fit", "g2", str(csv), *flags, "-o", str(written[name])]) == 0
    assert written["unset"].read_bytes() == written["0"].read_bytes()
    assert json.loads(written["250"].read_text())["g2_zero"] == \
        g2_pulse_areas(cli._read_csv(str(csv)), 100.0, 20.0, 250.0)["g2_zero"]


def test_fit_g2_without_coincidences_exits_2(tmp_path, capsys):
    csv = tmp_path / "g2.csv"
    _write_g2(csv, np.arange(-1050.0, 1050.0 + 0.1, 0.2), 0)
    out = tmp_path / "g2.json"
    assert _run(["fit", "g2", str(csv), "-o", str(out)]) == 2
    assert "no coincidences in the normalization peaks" in capsys.readouterr().err
    assert not out.exists()


def test_fit_lifetime_window_of_one_bin_writes_only_its_error(tmp_path, capsys):
    csv = tmp_path / "lt.csv"
    assert _run(["synth", "lifetime", "--seed", "4", "-o", str(csv)]) == 0
    capsys.readouterr()
    assert _run(["fit", "lifetime", str(csv), "--window-start-ns", "80",
                 "-o", str(tmp_path / "lt.json")]) == 2
    assert capsys.readouterr().err == "error: need more points than the 3 fit parameters, got 1\n"


def test_fit_voigt_on_flat_data_is_degenerate(tmp_path):
    csv = tmp_path / "flat.csv"
    csv.write_text("delta_l_pm,counts\n" + "".join(f"{x},7\n" for x in range(-20, 21)))
    out = tmp_path / "f.json"
    assert _run(["fit", "voigt", str(csv), "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["degenerate"] is True
    assert doc["notes"] == ["amplitude consistent with zero; peak not identifiable"]


@pytest.mark.parametrize("kind", ["lorentzian", "gaussian"])
def test_fit_peak_on_three_points_exits_2(kind, tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("delta_lambda_nm,rate_per_s\n0,1\n1,3\n2,1\n")
    out = tmp_path / "f.json"
    assert _run(["fit", kind, str(csv), "-o", str(out)]) == 2
    assert "need more points than the 4 fit parameters, got 3" in capsys.readouterr().err
    assert not out.exists()


def test_fit_lifetime_window_of_three_bins_exits_2(tmp_path, capsys):
    # the 0-80 ns histogram of 0.05 ns bins holds 79.9, 79.95 and 80 ns past
    # the window start: three bins for tau, amplitude and baseline
    csv = tmp_path / "lt.csv"
    assert _run(["synth", "lifetime", "--seed", "4", "-o", str(csv)]) == 0
    assert _run(["fit", "lifetime", str(csv), "--window-start-ns", "79.9",
                 "-o", str(tmp_path / "lt.json")]) == 2
    assert "need more points than the 3 fit parameters, got 3" in capsys.readouterr().err


def test_fit_voigt_on_six_points_exits_0(tmp_path):
    csv = tmp_path / "v.csv"
    assert _run(["synth", "resonance", "-o", str(csv)]) == 0
    header, *rows = csv.read_text().splitlines()
    csv.write_text("\n".join([header, *rows[100:141:8]]) + "\n")
    out = tmp_path / "v.json"
    assert _run(["fit", "voigt", str(csv), "-o", str(out)]) == 0
    assert json.loads(out.read_text())["converged"] is True


# the synth kind that writes a dataset of each fit kind
_SYNTH_OF_FIT = {"voigt": "resonance", "lorentzian": "lorentzian", "gaussian": "lateral",
                 "lifetime": "lifetime", "g2": "g2"}


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("kind", sorted(_SYNTH_OF_FIT))
def test_fit_non_finite_cell_exits_2_naming_its_row(kind, value, tmp_path, capsys):
    # np.loadtxt parses nan and inf; the reader rejects them before any fit
    csv = tmp_path / "d.csv"
    assert _run(["synth", _SYNTH_OF_FIT[kind], "-o", str(csv)]) == 0
    lines = csv.read_text().splitlines()
    lines[5] = lines[5].split(",")[0] + "," + value
    csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "f.json"
    assert _run(["fit", kind, str(csv), "-o", str(out)]) == 2
    assert ("data row 5 holds a value that is not finite: "
            f"'{lines[5]}'") in capsys.readouterr().err
    assert not out.exists()


# --------------------------------------------------------------- dispersion


def test_dispersion_csv_schema_and_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["dispersion", "--paper-baseline", "--l-min-um", "1.93",
            "--l-max-um", "1.97", "--l-step-nm", "20",
            "--lambda-min-nm", "630", "--lambda-max-nm", "645",
            "-o"]
    assert _run(args + [str(a)]) == 0
    assert _run(args + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == ("L_nm,branch_id,lambda_nm,dlambda_dL,diamond_fraction,"
                        "transverse_order")
    assert len(lines) > 1


def _dispersion_rows(path):
    return [r.split(",") for r in path.read_text().splitlines()[1:]]


def test_dispersion_share_does_not_depend_on_the_l_range(tmp_path):
    # each root's diamond share is the one the full map gives it; the root
    # at (2400 nm, 609.37634 nm) holds 0.2468, near where a label would flip
    out = tmp_path / "x.csv"
    assert _run(["dispersion", "--paper-baseline", "--l-min-um", "2.4",
                 "--l-max-um", "2.5", "-o", str(out)]) == 0
    full = {(r[0], r[2]): r[4]
            for r in _dispersion_rows(GOLDEN / "dispersion_paper_baseline_1.5_4.5.csv")}
    rows = _dispersion_rows(out)
    assert ["2400", "609.37634"] in [[r[0], r[2]] for r in rows]
    for r in rows:
        assert full[r[0], r[2]] == r[4]


def test_dispersion_transverse_rows_repeat_their_roots_share(tmp_path):
    out = tmp_path / "x.csv"
    assert _run(["dispersion", "--paper-baseline", "--l-min-um", "1.9",
                 "--l-max-um", "2.0", "--max-transverse-order", "2", "-o", str(out)]) == 0
    rows = _dispersion_rows(out)
    assert [r[5] for r in rows] == ["0", "1", "2"] * (len(rows) // 3)
    for root, *transverse in zip(rows[::3], rows[1::3], rows[2::3]):
        assert [r[4] for r in transverse] == [root[4], root[4]]
        assert [r[:2] for r in transverse] == [root[:2], root[:2]]


_NO_BRANCH = "error: no resonance branch spans two L samples in the requested window\n"


def test_dispersion_empty_window_exits_3(tmp_path, capsys):
    rc = _run(["dispersion", "--paper-baseline", "--l-min-um", "1.90",
               "--l-max-um", "1.92", "--l-step-nm", "20",
               "--lambda-min-nm", "650", "--lambda-max-nm", "652",
               "-o", str(tmp_path / "x.csv")])
    assert rc == 3
    assert capsys.readouterr().err == _NO_BRANCH


def test_dispersion_single_root_branch_is_dropped_and_exits_3(tmp_path, capsys):
    # the window holds one root, 634.06 nm at L = 1920 nm; a branch of one
    # root is dropped, so the map is empty
    from cavityforge.config import paper_baseline_dict, parse_config
    from cavityforge.tmm import _phase_roots, dispersion_map
    cavity = parse_config(paper_baseline_dict()).cavity
    L, window = np.array([1900.0, 1920.0]), (633.0, 635.0)
    index, lams, _, _ = _phase_roots(cavity, window, L)
    assert index.tolist() == [1] and lams == pytest.approx([634.06], abs=0.01)
    cols = dispersion_map(cavity, L, window)
    assert len(cols) == 6 and {v.shape for v in cols.values()} == {(0,)}
    assert _run(["dispersion", "--paper-baseline", "--l-min-um", "1.9",
                 "--l-max-um", "1.92", "--lambda-min-nm", "633", "--lambda-max-nm", "635",
                 "-o", str(tmp_path / "x.csv")]) == 3
    assert capsys.readouterr().err == _NO_BRANCH


@pytest.mark.parametrize("flags", [
    # 3e15 L samples, and 2e16 bracket wavelengths: numpy refuses both outright
    ["--l-step-nm", "1e-12"],
    ["--l-min-um", "1.5", "--l-max-um", "1.6", "--lambda-max-nm", "1e14"],
])
def test_dispersion_grid_too_large_to_allocate_exits_2(flags, tmp_path, capsys):
    assert _run(["dispersion", "--paper-baseline", *flags,
                 "-o", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


def test_dispersion_needs_a_config():
    assert _run(["dispersion"]) == 2


def test_dispersion_past_the_stop_band_writes_finite_rows(tmp_path, capsys):
    # fold pairs past the stop band: every row finite
    out = tmp_path / "x.csv"
    assert _run(["dispersion", "--paper-baseline", "--lambda-min-nm", "560",
                 "--lambda-max-nm", "760", "--l-min-um", "1.5", "--l-max-um", "2.2",
                 "--max-transverse-order", "1", "-o", str(out)]) == 0
    rows = out.read_text().splitlines()[1:]
    assert rows and not [r for r in rows if "inf" in r or "nan" in r]
    # a root next to the window edge is as exact as any other: no warning
    assert capsys.readouterr().err == ""


def test_warnings_print_one_line_each_before_a_failure(monkeypatch, capsys):
    def failing(args):
        warnings.warn("first")
        warnings.warn("second", RuntimeWarning)
        raise ResonanceError("no mode")

    monkeypatch.setattr(cli, "cmd_report", failing)
    assert _run(["report", "--paper-baseline"]) == 3
    assert capsys.readouterr().err == "warning: first\nwarning: second\nerror: no mode\n"


@pytest.mark.parametrize("flags, message", [
    (["--l-step-nm", "0"], "must be positive"),
    (["--lambda-min-nm", "0"], "must be positive"),
    (["--lambda-min-nm", "700", "--lambda-max-nm", "600"], "must be below"),
    (["--max-transverse-order", "-3"], "must not be negative"),
])
def test_dispersion_bad_steps_and_window_exit_2(flags, message, capsys):
    assert _run(["dispersion", "--paper-baseline", *flags]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flags, message", [
    (["--l-min-um", "-0.3", "--l-max-um", "0.1"], "--l-min-um must be positive and finite, got -0.3"),
    (["--l-min-um", "0"], "--l-min-um must be positive and finite, got 0.0"),
    (["--l-min-um", "nan"], "--l-min-um must be positive and finite, got nan"),
    (["--l-max-um", "nan"], "--l-max-um must be positive and finite, got nan"),
    (["--l-max-um", "inf"], "--l-max-um must be positive and finite, got inf"),
    (["--l-step-nm", "inf"], "--l-step-nm must be positive and finite, got inf"),
    (["--lambda-min-nm", "nan"], "--lambda-min-nm must be positive and finite, got nan"),
    (["--lambda-max-nm", "inf"], "--lambda-max-nm must be positive and finite, got inf"),
])
def test_dispersion_non_finite_or_non_positive_value_exits_2(flags, message, tmp_path, capsys):
    assert _run(["dispersion", "--paper-baseline", *flags, "-o", str(tmp_path / "x.csv")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


def test_config_and_baseline_are_exclusive(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text("{}")
    assert _run(["report", "--config", str(cfg), "--paper-baseline"]) == 2


@pytest.mark.parametrize("argv", [
    ["report", "--paper-baseline", "--threads", "2"],
    ["synth", "g2", "--config", "/nonexistent.json"],
    ["fit", "voigt", str(DATA / "zpl2_resonance.csv"), "--paper-baseline"],
    ["dispersion", "--paper-baseline", "--scan-step-nm", "0.005"],
    # each fit kind takes only its own flags
    ["fit", "voigt", str(DATA / "zpl2_resonance.csv"), "--irf-sigma-ns", "0.3"],
    ["fit", "lorentzian", str(DATA / "zpl2_resonance.csv"), "--period-ns", "50"],
    ["fit", "g2", str(DATA / "zpl2_resonance.csv"), "--window-start-ns", "3"],
    ["fit", "lifetime", str(DATA / "zpl2_resonance.csv"), "--norm-delay-ns", "5"],
    # the histograms take Poisson noise, the curves a noise fraction
    ["synth", "lifetime", "--seed", "3", "--noise-frac", "0.02"],
    ["synth", "g2", "--seed", "3", "--noise-frac", "0.9"],
    ["synth", "resonance", "--poisson"],
    # design reads a config's emitter and sweep, which the baseline leaves out
    ["design", "--paper-baseline", "--single", "t_d_nm=132", "L_nm=637"],
])
def test_unhonoured_flags_rejected(argv):
    with pytest.raises(SystemExit) as exc:
        _run(argv)
    assert exc.value.code == 2


def test_config_fit_block_rejected(tmp_path):
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    doc["fit"] = {"irf_sigma_ns": 0.2}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert _run(["report", "--config", str(cfg)]) == 2


# ------------------------------------------------------------------- report


@pytest.mark.parametrize("argv", [["fit", "gaussian", DATA / "zpl6_lateral.csv"],
                                  ["report", "--config", GOLDEN / "config_bottom30_top14.json"]],
                         ids=["fit-csv", "report-config"])
def test_input_with_a_byte_order_mark_reads_as_without(argv, tmp_path, capsys):
    # spreadsheet exports start with a UTF-8 BOM, and RFC 8259 lets a JSON
    # reader skip it
    *flags, plain = argv
    bom = tmp_path / plain.name
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for path in (plain, bom):
        assert _run([*flags, str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[1] == outputs[0]


def test_report_baseline(tmp_path):
    out = tmp_path / "report.json"
    assert _run(["report", "--paper-baseline", "-o", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["Q"] == pytest.approx(58500, rel=0.005)
    assert doc["finesse"] == pytest.approx(5260, rel=0.005)
    assert doc["dipole"]["d_over_e_nm"] == pytest.approx(0.108, rel=0.01)
    assert doc["eta_zpl"] == pytest.approx(0.454, abs=0.002)
    assert doc["cavity"]["waist_source"] == "override"


def test_report_missing_emitter_exits_2(tmp_path):
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    del doc["emitter"]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert _run(["report", "--config", str(cfg)]) == 2


def test_report_honours_membrane_index(tmp_path):
    # the air gap is tuned for the emitter's host_index, the one diamond index
    from cavityforge.config import paper_baseline_dict, parse_config
    from cavityforge.tmm import find_resonances
    doc = paper_baseline_dict()
    doc["emitter"]["host_index"] = 2.0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    out, base = tmp_path / "r.json", tmp_path / "base.json"
    assert _run(["report", "--config", str(cfg), "-o", str(out)]) == 0
    assert _run(["report", "--paper-baseline", "-o", str(base)]) == 0
    L = json.loads(out.read_text())["cavity"]["L_tuned_nm"]
    assert L != json.loads(base.read_text())["cavity"]["L_tuned_nm"]
    asm = parse_config(doc).cavity.with_air_gap(L)
    assert asm.diamond.n == 2.0
    peaks = [r["lambda_res"] for r in find_resonances(asm, (636.0, 638.0))]
    assert min(abs(lam - 637.0) for lam in peaks) < 1e-6


def test_design_honours_membrane_index(tmp_path):
    # design builds its membrane at the emitter's host_index too
    import csv
    from cavityforge.config import paper_baseline_dict
    from cavityforge.design import DESIGN_RADIUS_UM, design_mirrors
    from cavityforge.stack import assemble_cavity
    from cavityforge.tmm import find_resonances
    doc = paper_baseline_dict()
    doc["emitter"]["host_index"] = 2.0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    single = ["--single", "t_d_nm=132", "L_nm=640.43"]
    out, base = tmp_path / "d.csv", tmp_path / "base.csv"
    assert _run(["design", "--config", str(cfg), *single, "-o", str(out)]) == 0
    assert _run(["design", *single, "-o", str(base)]) == 0
    row, = csv.DictReader(out.open())
    L = float(row["L_tuned_nm"])
    assert L != float(next(csv.DictReader(base.open()))["L_tuned_nm"])
    bottom, top = design_mirrors(637.0)
    asm = assemble_cavity(bottom, 132.0, L, top, DESIGN_RADIUS_UM, n_d=2.0)
    peaks = [r["lambda_res"] for r in find_resonances(asm, (636.0, 638.0))]
    assert min(abs(lam - 637.0) for lam in peaks) < 1e-5


def test_config_membrane_index_key_is_gone(tmp_path, capsys):
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    doc["cavity"]["n_d"] = 2.41
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert _run(["report", "--config", str(cfg), "-o", str(tmp_path / "r.json")]) == 2
    assert "cavity: unknown keys ['n_d']" in capsys.readouterr().err


def test_report_rates_outside_domain_exit_3(tmp_path):
    # measured gamma_on below gamma_off is a physics-domain failure
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    doc["measured"]["gamma_on_per_s"] = 0.5 * doc["measured"]["gamma_off_per_s"]
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert _run(["report", "--config", str(cfg), "-o", str(tmp_path / "r.json")]) == 3


@pytest.mark.parametrize("keys, missing", [
    (["gamma_on_per_s"], "gamma_off_per_s"),
    (["gamma_off_per_s"], "gamma_on_per_s"),
    (["dw_assumed"], "gamma_on_per_s"),
    (["gamma_on_per_s", "dw_assumed"], "gamma_off_per_s"),
], ids=["on", "off", "dw", "on-dw"])
def test_report_rates_without_both_rates_exit_2(keys, missing, tmp_path, capsys):
    # the rates algebra takes both rates; a part of them is not ignored
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    rates = {"gamma_on_per_s": 158e6, "gamma_off_per_s": 88.2e6, "dw_assumed": 0.5}
    doc["measured"] = {k: rates[k] for k in keys}
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert _run(["report", "--config", str(cfg), "-o", str(tmp_path / "r.json")]) == 2
    assert f"error: measured: missing required key {missing!r}" in capsys.readouterr().err


def test_report_bare_cavity_exits_3(tmp_path):
    # no diamond layer: the vacuum field at the diamond maximum is undefined,
    # a physics-domain failure rather than an input error
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    doc["cavity"]["t_d_nm"] = 0
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert _run(["report", "--config", str(cfg), "-o", str(tmp_path / "r.json")]) == 3


# ------------------------------------------------------------------- design


def test_design_single_row(tmp_path):
    out = tmp_path / "d.csv"
    rc = _run(["design", "--single", "t_d_nm=132", "L_nm=637",
               "-o", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 2  # header + one row
    assert lines[1].split(",")[2] == "antinode"  # inferred from the membrane


def test_design_config_needs_no_cavity_block(tmp_path):
    # design reads only a config's emitter and sweep blocks
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"emitter": {}, "sweep": {"t_d_nm": [132], "L_nm": [637],
                                                        "terminations": ["antinode"]}}))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(["design", "--config", str(cfg), "-o", str(a)]) == 0
    assert _run(["design", "--single", "t_d_nm=132", "L_nm=637", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("command", ["report", "dispersion"])
def test_config_without_cavity_block_exits_2_for_the_commands_that_read_it(command, tmp_path,
                                                                            capsys):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"emitter": {}}))
    assert _run([command, "--config", str(cfg), "-o", str(tmp_path / "x")]) == 2
    assert "config: missing required 'cavity' block" in capsys.readouterr().err


def test_design_single_bad_key_exits_2(tmp_path):
    assert _run(["design", "--single", "thickness=132", "L_nm=637",
                 "-o", str(tmp_path / "d.csv")]) == 2


def test_design_single_unstable_exits_3(tmp_path):
    assert _run(["design", "--single", "t_d_nm=132", "L_nm=9000",
                 "-o", str(tmp_path / "d.csv")]) == 3


def test_design_single_without_membrane_exits_3(tmp_path, capsys):
    assert _run(["design", "--single", "t_d_nm=0", "L_nm=637",
                 "-o", str(tmp_path / "d.csv")]) == 3
    assert "no diamond layer" in capsys.readouterr().err


def test_design_single_gap_below_the_floor_tunes_to_the_first_gap_above_it(tmp_path, capsys):
    # the nearest resonant gap to 60 nm lies under the 50 nm floor; the
    # point tunes to the next one, ~343 nm, and exits 0
    out = tmp_path / "d.csv"
    assert _run(["design", "--single", "t_d_nm=260", "L_nm=60", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    row = dict(zip(*(line.split(",") for line in out.read_text().splitlines())))
    assert row["valid"] == "true"
    assert float(row["L_tuned_nm"]) == pytest.approx(343.15, abs=0.01)


def test_design_single_negative_gap_exits_3(tmp_path, capsys):
    assert _run(["design", "--single", "t_d_nm=198", "L_nm=-5",
                 "-o", str(tmp_path / "d.csv")]) == 3
    assert "GeometryError" in capsys.readouterr().err


@pytest.mark.parametrize("point, message", [
    (["t_d_nm=198", "L_nm=nan"], "L_nm must be finite, got nan"),
    (["t_d_nm=198", "L_nm=inf"], "L_nm must be finite, got inf"),
    (["t_d_nm=-inf", "L_nm=478"], "t_d_nm must be finite, got -inf"),
    (["t_d_nm=198", "L_nm=far"], "L_nm must be a number, got 'far'"),
])
def test_design_single_rejects_non_finite_values(point, message, tmp_path, capsys):
    assert _run(["design", "--single", *point, "-o", str(tmp_path / "d.csv")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--t-d-nm", "--l-nm"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_design_grid_rejects_non_finite_values(flag, value, tmp_path, capsys):
    # a grid flag passes the check of a config's sweep block, alone or
    # among finite values
    grid = {"--t-d-nm": ["198"], "--l-nm": ["478"]}
    grid[flag] = ["100", value]
    argv = [x for f, v in grid.items() for x in (f, *v)]
    assert _run(["design", *argv, "-o", str(tmp_path / "d.csv")]) == 2
    assert (f"{flag}[1] must be a finite number, got {float(value)!r}"
            in capsys.readouterr().err)


def test_design_sweep_keeps_negative_gap_as_invalid_row(tmp_path):
    out = tmp_path / "d.csv"
    assert _run(["design", "--t-d-nm", "198", "--l-nm", "-5", "478",
                 "--terminations", "node", "-o", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [r[3] for r in rows] == ["false", "true"]
    assert rows[0][4].startswith("GeometryError")


def test_design_single_unknown_termination_exits_2_before_solving(tmp_path, capsys,
                                                                  monkeypatch):
    from cavityforge import design
    monkeypatch.setattr(design, "cavity_mode", None)
    assert _run(["design", "--single", "t_d_nm=198", "L_nm=5400", "termination=foo",
                 "--r-um", "5.5", "-o", str(tmp_path / "d.csv")]) == 2
    assert "termination must be node or antinode, got 'foo'" in capsys.readouterr().err


@pytest.mark.parametrize("grid", [["--t-d-nm", "100"], ["--l-nm", "500"],
                                  ["--terminations", "node"]])
def test_design_single_rejects_grid_flags_before_solving(grid, tmp_path, capsys,
                                                         monkeypatch):
    from cavityforge import design
    monkeypatch.setattr(design, "sweep", None)
    assert _run(["design", "--single", "t_d_nm=198", "L_nm=478", *grid,
                 "-o", str(tmp_path / "d.csv")]) == 2
    assert f"--single takes no grid flags, got {grid[0]}" in capsys.readouterr().err


def test_design_single_pareto_json_has_sweep_provenance(tmp_path):
    pareto = tmp_path / "p.json"
    assert _run(["design", "--single", "t_d_nm=132", "L_nm=637",
                 "-o", str(tmp_path / "d.csv"), "--pareto-json", str(pareto)]) == 0
    doc = json.loads(pareto.read_text())
    assert doc["provenance"]["t_d_nm"] == [132.0]
    assert doc["provenance"]["terminations"] == ["antinode"]
    assert doc["provenance"]["emitter"]["zpl_wavelength_nm"] == 637.0
    assert [e["index"] for e in doc["pareto"]] == [0]


@pytest.mark.parametrize("command, block, key, value", [
    ("report", "measured", "Gamma_L_pm", None),
    ("report", "measured", "gamma_on_per_s", [1]),
    ("design", "sweep", "t_d_nm", 132),
    ("design", "sweep", "R_um", None),
    ("design", "sweep", "terminations", "node"),
])
def test_config_value_of_the_wrong_type_exits_2(command, block, key, value, tmp_path, capsys):
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    doc["sweep"] = {"t_d_nm": [198], "L_nm": [478]}
    doc[block][key] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert _run([command, "--config", str(cfg), "-o", str(tmp_path / "out")]) == 2
    assert f"{block}.{key} must be" in capsys.readouterr().err


_MIRROR_NUMBERS = ("pairs", "center_wavelength_nm", "n_high", "n_low", "substrate_index",
                   "lumped_loss")
_NUMERIC_KEYS = [("cavity", "bottom_mirror", k) for k in _MIRROR_NUMBERS] + \
    [("cavity", "top_mirror", k) for k in _MIRROR_NUMBERS] + \
    [("cavity", k) for k in ("t_d_nm", "L_nm", "R_um", "waist_fwhm_um")] + \
    [("emitter", k) for k in ("zpl_wavelength_nm", "bulk_lifetime_ns", "host_index",
                              "debye_waller", "depth_nm", "dipole_orientation_factor")]


@pytest.mark.parametrize("path", _NUMERIC_KEYS, ids=".".join)
@pytest.mark.parametrize("value", [True, "1", float("nan"), float("inf")],
                         ids=["true", "string", "nan", "inf"])
def test_config_number_that_is_not_a_finite_number_exits_2(path, value, tmp_path, capsys):
    # every number of the mirror, cavity and emitter blocks is read strictly
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    assert _run(["report", "--config", str(cfg), "-o", str(tmp_path / "r.json")]) == 2
    assert f"error: {'.'.join(path)} must be a " in capsys.readouterr().err


@pytest.mark.parametrize("path, value, message", [
    (("cavity", "top_mirror", "n_high"), 0.5, "n_high must be >= 1, got 0.5"),
    (("cavity", "bottom_mirror", "n_low"), -1.46, "n_low must be >= 1, got -1.46"),
    (("cavity", "top_mirror", "substrate_index"), 0.5, "substrate_index must be >= 1"),
    (("cavity", "top_mirror", "pairs"), 1e6, "1000000 mirror pairs grow the mirror's matrix"),
    (("emitter", "zpl_wavelength_nm"), 0, "zpl_wavelength must be positive, got 0.0"),
    (("emitter", "zpl_wavelength_nm"), -637, "zpl_wavelength must be positive"),
], ids=["n_high", "n_low", "substrate_index", "pairs", "zpl_zero", "zpl_negative"])
def test_config_value_outside_its_domain_exits_2_naming_its_block(path, value, message,
                                                                  tmp_path, capsys):
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    block = doc
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    for command in ("report", "dispersion"):
        assert _run([command, "--config", str(cfg), "-o", str(tmp_path / "out")]) == 2
        assert f"error: {'.'.join(path[:-1])}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("path, value, message", [
    (("measured", "Gamma_L_pm"), -1, "must be positive, got -1.0"),
    (("measured", "dlambda_dL"), 0, "must be positive, got 0.0"),
    (("measured", "gamma_on_per_s"), -158e6, "must be positive, got -158000000.0"),
    (("measured", "gamma_off_per_s"), 0, "must be positive, got 0.0"),
    (("measured", "dw_assumed"), 1.0, "must lie in (0, 1), got 1.0"),
    (("measured", "dw_assumed"), 0, "must lie in (0, 1), got 0.0"),
    (("cavity", "waist_fwhm_um"), 0, "must be positive, got 0.0"),
    (("cavity", "waist_fwhm_um"), -1, "must be positive, got -1.0"),
], ids=["Gamma_L", "dlambda_dL", "gamma_on", "gamma_off", "dw_one", "dw_zero", "waist_zero",
        "waist_negative"])
def test_config_value_outside_its_domain_exits_2_naming_its_key(path, value, message,
                                                                tmp_path, capsys):
    # checked at parse time, so every command that reads a config rejects it
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    doc[path[0]][path[1]] = value
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps(doc))
    for command in (["report"], ["dispersion"], ["design", "--single", "t_d_nm=132", "L_nm=637"]):
        assert _run([*command, "--config", str(cfg), "-o", str(tmp_path / "out")]) == 2
        assert f"error: {'.'.join(path)} {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["report"],
                                     ["dispersion", "--l-min-um", "1.9", "--l-max-um", "1.96"]])
def test_only_a_configured_depth_must_fit_the_membrane(command, tmp_path, capsys):
    # the 68 nm depth default does not reject a thinner membrane; a depth
    # the config sets still must lie within it
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    doc["cavity"]["t_d_nm"] = 50.0
    cfg, out = tmp_path / "c.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    assert _run([*command, "--config", str(cfg), "-o", str(out)]) == 0
    doc["emitter"]["depth_nm"] = 60.0
    cfg.write_text(json.dumps(doc))
    assert _run([*command, "--config", str(cfg), "-o", str(out)]) == 2
    assert "emitter: depth_nm must lie within the diamond thickness" in capsys.readouterr().err


@pytest.mark.parametrize("pairs", [1019, 1030, 2059])
def test_thick_top_mirror_up_to_the_pairs_bound_gives_finite_fields(pairs, tmp_path, capsys):
    # behind the top mirror the walk's fields grow as (n_high / n_low)^pairs;
    # the layer energies square t E, which stays of the order of the field,
    # so E_vac is that of any opaque top mirror
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    doc["cavity"]["top_mirror"]["pairs"] = pairs
    cfg, out = tmp_path / "c.json", tmp_path / "r.json"
    cfg.write_text(json.dumps(doc))
    assert _run(["report", "--config", str(cfg), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    cavity = json.loads(out.read_text())["cavity"]
    assert cavity["E_vac_max_diamond_V_per_m"] == pytest.approx(53175.2234815, rel=1e-12)


@pytest.mark.parametrize("pairs", [1100, 2059])
def test_thick_bottom_mirror_with_an_underflowing_diamond_field_exits_3(pairs, tmp_path, capsys):
    # the mode is the field of unit illumination from the bottom substrate;
    # behind ~1063 pairs its square at the diamond underflows, so V_eff has
    # no float value and report stops before it writes any
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    doc["cavity"]["bottom_mirror"]["pairs"] = pairs
    cfg, out = tmp_path / "c.json", tmp_path / "r.json"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["report", "--config", str(cfg), "-o", str(out)]) == 3
    assert capsys.readouterr().err.startswith("error: V_eff is not finite")
    assert not out.exists()


@pytest.mark.parametrize("pairs", [54, 200])
@pytest.mark.parametrize("command", [
    ["dispersion", "--l-min-um", "1.9", "--l-max-um", "1.96"],
    ["report"],
])
def test_thick_mirrors_on_both_sides_keep_their_own_roots(command, pairs, tmp_path, capsys):
    # the cold linewidth in phase falls below the rounding of 4 pi L / lam,
    # and the resonance check must still accept the roots the solver found
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    doc["cavity"]["bottom_mirror"]["pairs"] = doc["cavity"]["top_mirror"]["pairs"] = pairs
    cfg, out = tmp_path / "c.json", tmp_path / "out"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run([*command, "--config", str(cfg), "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text()


@pytest.mark.parametrize("mirror", ["bottom_mirror", "top_mirror"])
def test_dispersion_with_either_mirror_at_the_pairs_bound_runs_clean(mirror, tmp_path, capsys):
    # at the bound each mirror's matrix nears the largest float, and the
    # phase roots and the walk behind their energies stay finite
    from cavityforge.config import paper_baseline_dict
    doc = paper_baseline_dict()
    doc["cavity"][mirror]["pairs"] = 2059
    cfg, out = tmp_path / "c.json", tmp_path / "d.csv"
    cfg.write_text(json.dumps(doc))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["dispersion", "--config", str(cfg), "--l-min-um", "1.9",
                     "--l-max-um", "1.96", "-o", str(out)]) == 0
    assert capsys.readouterr().err == ""
    rows = out.read_text().splitlines()[1:]
    assert rows and not [r for r in rows if "inf" in r or "nan" in r]


@pytest.mark.parametrize("grid", [
    ["--single", "t_d_nm=198", "L_nm=478"],
    ["--t-d-nm", "198", "--l-nm", "478", "--terminations", "node"],
])
@pytest.mark.parametrize("r_um", ["nan", "inf", "0", "-5.5"])
def test_design_bad_radius_exits_2(grid, r_um, tmp_path, capsys):
    assert _run(["design", *grid, "--r-um", r_um, "-o", str(tmp_path / "d.csv")]) == 2
    assert f"R_um must be positive and finite, got {float(r_um)}" in capsys.readouterr().err


# -------------------------------------------------------------------- synth


def _synth(tmp_path, *argv):
    out = tmp_path / "s.csv"
    assert _run(["synth", *argv, "-o", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("kind", ["resonance", "lorentzian", "lateral"])
def test_synth_noise_frac_sets_the_noise(kind, tmp_path):
    clean = _synth(tmp_path, kind, "--seed", "3")
    small = _synth(tmp_path, kind, "--seed", "3", "--noise-frac", "0.02")
    large = _synth(tmp_path, kind, "--seed", "3", "--noise-frac", "0.9")
    assert len({clean, small, large}) == 3
    assert _synth(tmp_path, kind, "--seed", "3", "--noise-frac", "0") == clean


@pytest.mark.parametrize("kind", ["lifetime", "g2"])
def test_synth_poisson_draws_seeded_counts(kind, tmp_path):
    clean = _synth(tmp_path, kind, "--seed", "3")
    noisy = _synth(tmp_path, kind, "--seed", "3", "--poisson")
    assert noisy != clean
    assert _synth(tmp_path, kind, "--seed", "3", "--poisson") == noisy
    assert _synth(tmp_path, kind, "--seed", "4", "--poisson") != noisy


@pytest.mark.parametrize("kind", ["resonance", "lorentzian", "lateral"])
@pytest.mark.parametrize("value", ["-1", "-0.02", "nan", "inf"])
def test_synth_bad_noise_frac_exits_2(kind, value, tmp_path, capsys):
    assert _run(["synth", kind, "--noise-frac", value, "-o", str(tmp_path / "s.csv")]) == 2
    assert (f"noise_frac must be finite and >= 0, got {float(value)}"
            in capsys.readouterr().err)


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(["synth", "resonance", "--seed", "9", "--noise-frac", "0.02",
                 "-o", str(a)]) == 0
    assert _run(["synth", "resonance", "--seed", "9", "--noise-frac", "0.02",
                 "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# -------------------------------------------------------------------- import


# the command shapes of the benchmark workloads; a fit row names the synth
# kind that writes its input
_SHAPES = {
    "report": ["report", "--paper-baseline"],
    "design-single": ["design", "--single", "t_d_nm=132", "L_nm=637"],
    "design-sweep": ["design", "--t-d-nm", "198", "--l-nm", "478",
                     "--terminations", "node", "antinode"],
    "design-unstable": ["design", "--single", "t_d_nm=198", "L_nm=5400",
                        "--r-um", "5.5"],
    "dispersion": ["dispersion", "--paper-baseline", "--l-min-um", "1.5",
                   "--l-max-um", "1.56"],
    "dispersion-transverse": ["dispersion", "--paper-baseline", "--l-min-um", "1.5",
                              "--l-max-um", "1.56", "--max-transverse-order", "2"],
    "fit-voigt": ["fit", "voigt", "resonance"],
    "fit-gaussian": ["fit", "gaussian", "lateral"],
    "fit-lorentzian": ["fit", "lorentzian", "lorentzian"],
    "fit-lifetime": ["fit", "lifetime", "lifetime"],
    "fit-g2": ["fit", "g2", "g2"],
}


@pytest.mark.parametrize("shape", sorted(_SHAPES))
def test_command_runs_on_numpy_core(shape, tmp_path):
    # every command runs on numpy's core and the standard library: no scipy,
    # no numpy.ma
    argv = list(_SHAPES[shape])
    if argv[0] == "fit":
        csv = tmp_path / "data.csv"
        assert _run(["synth", argv[2], "--seed", "4", "-o", str(csv)]) == 0
        argv[2] = str(csv)
    want = 3 if shape == "design-unstable" else 0
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    code = ("import sys\n"
            "from cavityforge.cli import main\n"
            f"assert main({argv + ['-o', str(tmp_path / 'out')]!r}) == {want}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'\n"
            "             or m == 'numpy.ma' or m.startswith('numpy.ma.')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
