"""Strict JSON run configuration.

Unknown keys are rejected; every length key carries an explicit unit
suffix.  The paper-baseline configuration (measured cavity and emitter)
is available as a built-in.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .design import TERMINATIONS
from .stack import CavityAssembly, EmitterSpec, GeometryError, MirrorSpec, assemble_cavity


class ConfigError(ValueError):
    pass


_MIRROR_KEYS = {"pairs", "center_wavelength_nm", "n_high", "n_low",
                "terminal_high_index", "substrate_index", "lumped_loss"}
_CAVITY_KEYS = {"bottom_mirror", "top_mirror", "t_d_nm", "L_nm", "n_d",
                "R_um", "waist_fwhm_um"}
_EMITTER_KEYS = {"zpl_wavelength_nm", "bulk_lifetime_ns", "host_index",
                 "debye_waller", "depth_nm", "dipole_orientation_factor"}
_MEASURED_KEYS = {"Gamma_L_pm", "dlambda_dL", "gamma_on_per_s",
                  "gamma_off_per_s", "dw_assumed"}
_TOP_KEYS = {"cavity", "emitter", "measured", "sweep"}


def _finite(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{where} must be a finite number, got {v!r}")
    return float(v)


def _numbers(v, where: str) -> list:
    if not (isinstance(v, list) and v):
        raise ConfigError(f"{where} must be a non-empty list of numbers, got {v!r}")
    return [_finite(x, f"{where}[{i}]") for i, x in enumerate(v)]


def _terminations(v, where: str) -> list:
    if not (isinstance(v, list) and v and all(t in TERMINATIONS for t in v)):
        raise ConfigError(f"{where} must be a non-empty list of node and antinode, got {v!r}")
    return v


# the check, and the conversion, each key of the sweep block passes
_SWEEP_CHECKS = {"t_d_nm": _numbers, "L_nm": _numbers, "terminations": _terminations,
                 "R_um": _finite}


def _check_keys(d: dict, allowed: set, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(d) - allowed
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _mirror(d: dict, where: str) -> MirrorSpec:
    _check_keys(d, _MIRROR_KEYS, where)
    pairs, high = d.get("pairs", 15), d.get("terminal_high_index", True)
    whole = isinstance(pairs, int) or isinstance(pairs, float) and pairs.is_integer()
    if isinstance(pairs, bool) or not whole:
        raise ConfigError(f"{where}: pairs must be a whole number, got {pairs!r}")
    if not isinstance(high, bool):
        raise ConfigError(f"{where}: terminal_high_index must be true or false, got {high!r}")
    try:
        return MirrorSpec(
            pairs=int(pairs),
            center_wavelength=float(d.get("center_wavelength_nm", 637.0)),
            n_high=float(d.get("n_high", 2.06)),
            n_low=float(d.get("n_low", 1.46)),
            terminal_high_index=high,
            substrate_index=float(d.get("substrate_index", 1.46)),
            lumped_loss=float(d.get("lumped_loss", 0.0)),
        )
    except (TypeError, ValueError, GeometryError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@dataclass
class RunConfig:
    cavity: CavityAssembly
    emitter: EmitterSpec
    measured: dict
    sweep: dict


def paper_baseline_dict() -> dict:
    """Measured-cavity configuration of the demonstrated device."""
    return {
        "cavity": {
            "bottom_mirror": {"pairs": 15, "center_wavelength_nm": 637.0,
                              "terminal_high_index": True},
            "top_mirror": {"pairs": 14, "center_wavelength_nm": 637.0,
                           "terminal_high_index": True},
            "t_d_nm": 770.0,
            "L_nm": 1960.0,
            "n_d": 2.41,
            "R_um": 16.0,
            "waist_fwhm_um": 0.83,
        },
        "emitter": {
            "zpl_wavelength_nm": 637.0,
            "bulk_lifetime_ns": 12.6,
            "host_index": 2.41,
            "debye_waller": 0.0255,
            "depth_nm": 68.0,
            "dipole_orientation_factor": 1.0,
        },
        "measured": {
            "Gamma_L_pm": 60.6,
            "dlambda_dL": 0.18,
            "gamma_on_per_s": 158e6,
            "gamma_off_per_s": 88.2e6,
            "dw_assumed": 0.024,
        },
    }


def parse_config(doc: dict) -> RunConfig:
    _check_keys(doc, _TOP_KEYS, "config")
    if "cavity" not in doc:
        raise ConfigError("config: missing required 'cavity' block")
    if "emitter" not in doc:
        raise ConfigError("config: missing required 'emitter' block")

    cav = doc["cavity"]
    _check_keys(cav, _CAVITY_KEYS, "cavity")
    bottom = _mirror(cav.get("bottom_mirror", {}), "cavity.bottom_mirror")
    top = _mirror(cav.get("top_mirror", {}), "cavity.top_mirror")
    try:
        assembly = assemble_cavity(
            bottom,
            t_d=float(cav.get("t_d_nm", 0.0)),
            L=float(cav["L_nm"]),
            top=top,
            R_um=float(cav.get("R_um", 16.0)),
            n_d=float(cav.get("n_d", 2.41)),
            waist_fwhm_um=(float(cav["waist_fwhm_um"])
                           if cav.get("waist_fwhm_um") is not None else None),
        )
    except KeyError as exc:
        raise ConfigError(f"cavity: missing required key {exc}") from exc
    except (TypeError, ValueError, GeometryError) as exc:
        raise ConfigError(f"cavity: {exc}") from exc

    emi = doc["emitter"]
    _check_keys(emi, _EMITTER_KEYS, "emitter")
    try:
        emitter = EmitterSpec(
            zpl_wavelength=float(emi.get("zpl_wavelength_nm", 637.0)),
            bulk_lifetime_ns=float(emi.get("bulk_lifetime_ns", 12.6)),
            host_index=float(emi.get("host_index", 2.41)),
            debye_waller=float(emi.get("debye_waller", 0.0255)),
            depth_below_surface=float(emi.get("depth_nm", 68.0)),
            dipole_orientation_factor=float(emi.get("dipole_orientation_factor", 1.0)),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"emitter: {exc}") from exc
    if assembly.t_d > 0 and not (0 < emitter.depth_below_surface <= assembly.t_d):
        raise ConfigError("emitter: depth_nm must lie within the diamond thickness")

    measured = doc.get("measured", {})
    _check_keys(measured, _MEASURED_KEYS, "measured")
    sweep = doc.get("sweep", {})
    _check_keys(sweep, set(_SWEEP_CHECKS), "sweep")
    return RunConfig(assembly, emitter,
                     {k: _finite(v, f"measured.{k}") for k, v in measured.items()},
                     {k: _SWEEP_CHECKS[k](v, f"sweep.{k}") for k, v in sweep.items()})


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc)

