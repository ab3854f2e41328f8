"""Command-line front end: dispersion maps, coupling reports, data fits,
design sweeps and synthetic-data generation.

Exit codes: 0 success, 2 input error (also a grid too large to allocate),
3 physics-domain failure, 4 fit non-convergence (result still written),
141 (128 + SIGPIPE) when the reader of stdout closed it early.
All output is deterministic: fixed inputs give byte-identical files ('.'
decimal separator, UTF-8, Unix newlines).  CSV outputs write floats at 9
significant digits; JSON outputs (report, fit, --pareto-json) write
json.dump's shortest round-trip floats.

main(argv) runs one command in the calling process; run() is the entry of
a process that runs one command and exits (``python -m cavityforge.cli``
and the installed ``cavityforge`` command).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import gc
import json
import os
import sys
import warnings
from typing import Optional

if __name__ == "__main__":
    # the command's own process: no cyclic collections while numpy loads (see run)
    gc.disable()

import numpy as np

from . import design as design_mod
from . import synthetic
from .config import ConfigError, RunConfig, _numbers, load_config, paper_baseline_dict, \
    parse_config
from .constants import SQRT_2LN2
from .cqed import DomainError, RatesMeasurement, coupling_report
from .fits import FIT_WINDOW_START_NS, IRF_SIGMA_NS, FitError, XYSeries, fit_gaussian, \
    fit_lifetime, fit_lorentzian, fit_voigt, g2_pulse_areas
from .gaussian import transverse_offsets
from .stack import TERMINATIONS, EmitterSpec, GeometryError, _paraxial_length_um, emitter_rates
from .tmm import ResonanceError, dispersion_map

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PHYSICS = 3
EXIT_NOCONV = 4
EXIT_PIPE = 141

_UNIT_SUFFIXES = ("_pm", "_nm", "_um", "_mm", "_ns", "_us", "_ms", "_s",
                  "_per_s", "_hz", "_mhz", "_ghz")
_UNITLESS_COLUMNS = frozenset({"counts", "coincidences"})


def _fmt(v) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    f = float(v)
    if np.isnan(f):
        return "nan"
    return format(f, ".9g")


@contextlib.contextmanager
def _output(path: Optional[str]):
    """The stream an output goes to: stdout for None or '-', else the file
    at path, closed on exit."""
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            yield fh


def _write_json(doc: dict, path: Optional[str]):
    with _output(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=True)
        fh.write("\n")


def _load_run_config(args) -> RunConfig:
    if args.paper_baseline and args.config:
        raise ConfigError("give either --config or --paper-baseline, not both")
    if args.paper_baseline:
        return parse_config(paper_baseline_dict())
    if not args.config:
        raise ConfigError("a config is required: --config FILE or --paper-baseline")
    return load_config(args.config)


# ---------------------------------------------------------------- dispersion

def cmd_dispersion(args) -> int:
    for name in ("l_min_um", "l_max_um", "l_step_nm", "lambda_min_nm", "lambda_max_nm"):
        v = getattr(args, name)
        if not (np.isfinite(v) and v > 0):
            raise ConfigError(f"--{name.replace('_', '-')} must be positive and finite, got {v}")
    if args.max_transverse_order < 0:
        raise ConfigError("--max-transverse-order must not be negative")
    if not args.lambda_min_nm < args.lambda_max_nm:
        raise ConfigError("--lambda-min-nm must be below --lambda-max-nm")
    cfg = _load_run_config(args)
    L_values = np.arange(args.l_min_um * 1e3, args.l_max_um * 1e3 + args.l_step_nm / 2,
                         args.l_step_nm)
    if L_values.size < 2:
        raise ConfigError("L range must contain at least two samples")
    cols = dispersion_map(cfg.cavity, L_values, (args.lambda_min_nm, args.lambda_max_nm))
    if not cols["L_nm"].size:
        raise ResonanceError("no resonance branch spans two L samples in the requested window")

    L, lam, slope = cols["L_nm"], cols["lambda_nm"], cols["dlambda_dL"]
    lam_k = lam[None, :]
    if args.max_transverse_order > 0:
        # higher lateral modes: resonance reached after extra mirror travel
        # set by the Gouy phase, so at fixed L the line sits at
        # lambda_0 - slope * delta_L_k
        dL = transverse_offsets(cfg.cavity.curvature_radius_um,
                                _paraxial_length_um(cfg.cavity.t_d, L), lam,
                                args.max_transverse_order)
        lam_k = np.vstack([lam, lam - slope * dL[1:]])
    with _output(args.output) as fh:
        fh.write("L_nm,branch_id,lambda_nm,dlambda_dL,diamond_fraction,transverse_order\n")
        # sorted by (L, branch id); a root's transverse rows follow it and repeat its share
        share = [_fmt(f) for f in cols["diamond_fraction"]]
        for i, bid in enumerate(cols["branch_id"]):
            for k, lam_ik in enumerate(lam_k[:, i]):
                fh.write(f"{_fmt(L[i])},{bid},{_fmt(lam_ik)},{_fmt(slope[i])},{share[i]},{k}\n")
    return EXIT_OK


# -------------------------------------------------------------------- report

def cmd_report(args) -> int:
    cfg = _load_run_config(args)
    e = cfg.emitter
    lam = e.zpl_wavelength
    asm, _, w0, vac = design_mod.cavity_mode(cfg.cavity, lam)

    m = cfg.measured
    paper = paper_baseline_dict()["measured"]
    gamma_bulk = emitter_rates(e)["gamma_bulk"]
    rates = None
    if "gamma_on_per_s" in m:  # the config holds both rates or neither
        rates = RatesMeasurement(m["gamma_on_per_s"], m["gamma_off_per_s"], gamma_bulk,
                                 m.get("dw_assumed", e.debye_waller))
    doc = coupling_report(
        gamma_bulk=gamma_bulk,
        lam_nm=lam,
        n_host=e.host_index,
        E_vac=vac["E_vac_max_diamond_V_per_m"],
        Gamma_L_pm=m.get("Gamma_L_pm", paper["Gamma_L_pm"]),
        dlambda_dL=m.get("dlambda_dL", paper["dlambda_dL"]),
        xi=e.dipole_orientation_factor,
        rates=rates,
    )
    doc["cavity"] = {
        "L_tuned_nm": asm.L,
        "t_d_nm": asm.t_d,
        "lambda_res_nm": lam,
        "waist_um": w0,
        "waist_intensity_fwhm_um": w0 * SQRT_2LN2,
        "waist_source": ("override" if asm.transverse_waist_fwhm_um is not None
                         else "formula"),
        **vac,
    }
    _write_json(doc, args.output)
    return EXIT_OK


# ----------------------------------------------------------------------- fit

def _read_csv(path: str) -> XYSeries:
    """The checked two-column series of a fit CSV, in its header's units."""
    try:
        with open(path, encoding="utf-8-sig") as fh:  # a BOM is no part of the header
            # lines of only whitespace and commas hold no cell; skip them
            lines = [ln for ln in fh.read().splitlines() if ln.replace(",", "").strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    if len(lines) < 3:
        raise ConfigError(f"{path}: need a header and at least two data rows")
    header = [c.strip() for c in next(csv.reader(lines[:1]))]
    if len(header) != 2:
        raise ConfigError(f"{path}: expected exactly two columns, got {len(header)}")
    for name in header:
        # no number ends in a unit suffix, so a missing header row fails here too
        if not (name in _UNITLESS_COLUMNS or name.endswith(_UNIT_SUFFIXES)):
            raise ConfigError(
                f"{path}: column {name!r} does not declare a unit "
                f"(suffixes {', '.join(_UNIT_SUFFIXES)} or {sorted(_UNITLESS_COLUMNS)})")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2, comments=None,
                          quotechar='"')
    except ValueError as exc:
        raise ConfigError(f"{path}: non-numeric or ragged data row: {exc}") from exc
    if data.shape[1] != 2:
        raise ConfigError(f"{path}: expected two values per data row, got {data.shape[1]}")
    finite = np.isfinite(data).all(axis=1)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ConfigError(f"{path}: data row {i + 1} holds a value that is not finite: "
                          f"{lines[i + 1].strip()!r}")
    return XYSeries(data[:, 0], data[:, 1], x_unit=header[0], y_unit=header[1])


def cmd_fit(args) -> int:
    """Write the fit of args.data as JSON; exit 4 when it did not converge."""
    data = _read_csv(args.data)
    if args.kind == "g2":
        # peak-area normalization, no iterative solve
        out = g2_pulse_areas(data, args.period_ns, args.window_ns, args.norm_delay_ns)
        doc = {
            "g2_zero": out["g2_zero"],
            "normalization_area": out["normalization_area"],
            "pulse_period_ns": args.period_ns,
            "window_ns": args.window_ns,
            "areas": {str(k): v for k, v in sorted(out["areas"].items())},
        }
    elif args.kind == "lifetime":
        fit = fit_lifetime(data, args.irf_sigma_ns, args.window_start_ns)
        doc = {**dataclasses.asdict(fit), "irf_sigma_ns": args.irf_sigma_ns,
               "fit_window_start_ns": args.window_start_ns}
    else:
        fit = {"voigt": fit_voigt, "lorentzian": fit_lorentzian,
               "gaussian": fit_gaussian}[args.kind]
        doc = dataclasses.asdict(fit(data))
    doc["kind"] = args.kind
    doc["x_unit"], doc["y_unit"] = data.x_unit, data.y_unit
    _write_json(doc, args.output)
    return EXIT_OK if doc.get("converged", True) else EXIT_NOCONV


# -------------------------------------------------------------------- design

# the DesignPoint fields each --pareto-json entry repeats
_PARETO_FIELDS = ("t_d_nm", "L_nm", "termination", "eta_zpl", "Q_required", "F_P_zpl",
                  "transform_limit_hz")


def _parse_single(tokens: list, emitter) -> tuple:
    """--single's key=value tokens as the one-point grid ([t_d_nm], [L_nm],
    [termination]), t_d_nm and L_nm finite floats.  Without a termination,
    the membrane's nearest quarter-wave count sets it: even -> antinode at
    the diamond-air interface, odd -> node."""
    out = {}
    for tok in tokens:
        if "=" not in tok:
            raise ConfigError(f"--single expects key=value, got {tok!r}")
        k, v = tok.split("=", 1)
        if k not in {"t_d_nm", "L_nm", "termination"}:
            raise ConfigError(f"--single: unknown key {k!r}")
        out[k] = v
    for req in ("t_d_nm", "L_nm"):
        if req not in out:
            raise ConfigError(f"--single requires {req}=...")
        try:
            out[req] = float(out[req])
        except ValueError:
            raise ConfigError(f"--single: {req} must be a number, got {out[req]!r}") from None
        if not np.isfinite(out[req]):
            raise ConfigError(f"--single: {req} must be finite, got {out[req]}")
    term = out.get("termination")
    if term is None:
        quarters = round(emitter.host_index * out["t_d_nm"] / (emitter.zpl_wavelength / 4.0))
        term = "antinode" if quarters % 2 == 0 else "node"
    elif term not in TERMINATIONS:
        raise ConfigError(f"--single: termination must be node or antinode, got {term!r}")
    return [out["t_d_nm"]], [out["L_nm"]], [term]


def cmd_design(args) -> int:
    """Write the design table; --single is a one-point sweep."""
    grid_flags = [flag for flag, v in (("--t-d-nm", args.t_d_nm), ("--l-nm", args.l_nm),
                                       ("--terminations", args.terminations))
                  if v is not None]
    if args.single and grid_flags:
        raise ConfigError(f"--single takes no grid flags, got {' '.join(grid_flags)}")
    cfg = load_config(args.config, needs_cavity=False) if args.config else None
    emitter = cfg.emitter if cfg else EmitterSpec()
    sweep_cfg = cfg.sweep if cfg else {}
    R_um = args.r_um if args.r_um is not None else sweep_cfg.get(
        "R_um", design_mod.DESIGN_RADIUS_UM)
    if not (np.isfinite(R_um) and R_um > 0):
        raise ConfigError(f"R_um must be positive and finite, got {R_um}")

    if args.single:
        t_d_values, L_values, terminations = _parse_single(args.single, emitter)
    else:
        # a grid flag passes the check of a config's sweep block
        t_d_values = _numbers(args.t_d_nm, "--t-d-nm") if args.t_d_nm else sweep_cfg.get("t_d_nm")
        L_values = _numbers(args.l_nm, "--l-nm") if args.l_nm else sweep_cfg.get("L_nm")
        terminations = args.terminations or sweep_cfg.get(
            "terminations", list(TERMINATIONS))
        if not t_d_values or not L_values:
            raise ConfigError("sweep needs --t-d-nm and --l-nm grids "
                              "(or a config 'sweep' block)")
    points, pareto, provenance = design_mod.sweep(t_d_values, L_values, terminations,
                                                  emitter, R_um=R_um)

    columns = [f.name for f in dataclasses.fields(design_mod.DesignPoint)]
    with _output(args.output) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for p in points:
            writer.writerow([_fmt(getattr(p, c)) for c in columns])

    if args.pareto_json:
        _write_json({
            "provenance": provenance,
            "pareto": [{"index": i, **{k: getattr(points[i], k) for k in _PARETO_FIELDS}}
                       for i in pareto],
        }, args.pareto_json)
    return EXIT_OK


# --------------------------------------------------------------------- synth

def cmd_synth(args) -> int:
    if args.kind == "lifetime":
        s = synthetic.decay_histogram(poisson=args.poisson, seed=args.seed)
    elif args.kind == "g2":
        s = synthetic.g2_histogram(poisson=args.poisson, seed=args.seed)
    else:
        curve = {"resonance": synthetic.voigt_resonance,
                 "lorentzian": synthetic.lorentzian_rate_curve,
                 "lateral": synthetic.gaussian_rate_curve}[args.kind]
        s = curve(noise_frac=args.noise_frac, seed=args.seed)
    with _output(args.output) as fh:
        fh.write(f"{s.x_unit},{s.y_unit}\n")
        for xi, yi in zip(s.x, s.y):
            fh.write(f"{_fmt(xi)},{_fmt(yi)}\n")
    return EXIT_OK


# ---------------------------------------------------------------------- main

def _add_output_arg(p):
    p.add_argument("-o", "--output", default=None, help="output file (default stdout)")


def _add_config_args(p):
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--paper-baseline", action="store_true",
                   help="use the built-in measured-device configuration")
    _add_output_arg(p)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cavityforge",
        description="Diamond-membrane microcavity simulation and analysis")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dispersion", help="mode dispersion map lambda_res(L) as CSV")
    _add_config_args(p)
    p.add_argument("--l-min-um", type=float, default=1.5)
    p.add_argument("--l-max-um", type=float, default=4.5)
    p.add_argument("--l-step-nm", type=float, default=20.0)
    p.add_argument("--lambda-min-nm", type=float, default=600.0)
    p.add_argument("--lambda-max-nm", type=float, default=700.0)
    p.add_argument("--max-transverse-order", type=int, default=0)
    p.set_defaults(func=cmd_dispersion)

    p = sub.add_parser("report", help="full coupling report at the ZPL-resonant length")
    _add_config_args(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("fit", help="fit a CSV dataset")
    p.set_defaults(func=cmd_fit)
    kinds = p.add_subparsers(dest="kind", required=True)
    fit_kinds = {}
    for kind in ("voigt", "lorentzian", "gaussian", "lifetime", "g2"):
        fit_kinds[kind] = k = kinds.add_parser(kind)
        k.add_argument("data", help="two-column CSV with unit-declaring header")
        _add_output_arg(k)
    k = fit_kinds["lifetime"]
    k.add_argument("--irf-sigma-ns", type=float, default=IRF_SIGMA_NS)
    k.add_argument("--window-start-ns", type=float, default=FIT_WINDOW_START_NS)
    k = fit_kinds["g2"]
    k.add_argument("--period-ns", type=float, default=100.0)
    k.add_argument("--window-ns", type=float, default=20.0)
    k.add_argument("--norm-delay-ns", type=float, default=0.0)

    p = sub.add_parser("design", help="evaluate membrane/air-gap design points")
    p.add_argument("--config", help="JSON run configuration (its emitter and sweep)")
    _add_output_arg(p)
    p.add_argument("--single", nargs="+", metavar="KEY=VALUE",
                   help="one design point, e.g. --single t_d_nm=132 L_nm=637")
    p.add_argument("--t-d-nm", type=float, nargs="+", default=None)
    p.add_argument("--l-nm", type=float, nargs="+", default=None)
    p.add_argument("--terminations", nargs="+", default=None,
                   choices=TERMINATIONS)
    p.add_argument("--r-um", type=float, default=None)
    p.add_argument("--pareto-json", default=None,
                   help="also write the non-dominated set as JSON")
    p.set_defaults(func=cmd_design)

    p = sub.add_parser("synth", help="generate seeded synthetic datasets")
    p.set_defaults(func=cmd_synth)
    kinds = p.add_subparsers(dest="kind", required=True)
    for kind in ("resonance", "lorentzian", "lateral", "lifetime", "g2"):
        k = kinds.add_parser(kind)
        k.add_argument("--seed", type=int, default=0)
        _add_output_arg(k)
        if kind in ("lifetime", "g2"):  # seeded Poisson counting noise
            k.add_argument("--poisson", action="store_true")
        else:  # relative size of seeded multiplicative Gaussian noise
            k.add_argument("--noise-frac", type=float, default=0.0)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # each warning of the command as one line, as the errors are
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            return args.func(args)
        except (ResonanceError, GeometryError, DomainError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_PHYSICS
        except (ConfigError, FitError, ValueError, MemoryError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT


def run() -> int:
    """Entry of a process that runs one command and exits: main() with the
    cyclic garbage collector off, and everything alive at the end frozen
    so that the collection at interpreter shutdown skips it.  The process
    ends right after, so no cycle it leaves needs collecting; main() itself
    leaves the collector as it finds it.

    A reader that closed stdout early ends the command with EXIT_PIPE, the
    status a shell gives a filter whose reader left; main() leaves that
    error to its caller."""
    gc.disable()
    try:
        code = main()
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: let that write go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(run())
