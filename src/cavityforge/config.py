"""Strict JSON run configuration.

Unknown keys are rejected; every length key carries an explicit unit
suffix, and every number must be a finite JSON number.  A key left out
takes the default of the object it fills; the built-in paper baseline
is those defaults plus the demonstrated device's geometry and measurements.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass
from functools import partial
from types import MappingProxyType
from typing import Optional

from .stack import TERMINATIONS, CavityAssembly, EmitterSpec, MirrorSpec, assemble_cavity


class ConfigError(ValueError):
    pass


def _finite(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
        raise ConfigError(f"{where} must be a finite number, got {v!r}")
    return float(v)


def _positive(v, where: str) -> float:
    v = _finite(v, where)
    if not v > 0:
        raise ConfigError(f"{where} must be positive, got {v!r}")
    return v


def _fraction(v, where: str) -> float:
    v = _finite(v, where)
    if not 0 < v < 1:
        raise ConfigError(f"{where} must lie in (0, 1), got {v!r}")
    return v


def _whole(v, where: str) -> int:
    if isinstance(v, bool) or not (isinstance(v, int)
                                   or isinstance(v, float) and v.is_integer()):
        raise ConfigError(f"{where} must be a whole number, got {v!r}")
    return int(v)


def _flag(v, where: str) -> bool:
    if not isinstance(v, bool):
        raise ConfigError(f"{where} must be true or false, got {v!r}")
    return v


def _numbers(v, where: str) -> list:
    if not (isinstance(v, list) and v):
        raise ConfigError(f"{where} must be a non-empty list of numbers, got {v!r}")
    return [_finite(x, f"{where}[{i}]") for i, x in enumerate(v)]


def _terminations(v, where: str) -> list:
    if not (isinstance(v, list) and v and all(t in TERMINATIONS for t in v)):
        raise ConfigError(f"{where} must be a non-empty list of node and antinode, got {v!r}")
    return v


def _check_keys(d, allowed, where: str):
    if not isinstance(d, dict):
        raise ConfigError(f"{where}: expected an object")
    unknown = set(d) - set(allowed)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")


def _build(table: Mapping, make, defaults: Mapping, block, where: str, **fixed):
    """make(**fixed, **keywords) from a config block: each key of the block,
    and each of the defaults it leaves out, fills the keyword its table entry
    names after passing the entry's check.  A keyword no key fills takes
    make's own default."""
    _check_keys(block, table, where)
    for key, v in {**defaults, **block}.items():
        keyword, check = table[key]
        fixed[keyword] = check(v, f"{where}.{key}")
    try:
        return make(**fixed)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# config key -> (keyword it fills, check its value passes), one table per block
_MIRROR = MappingProxyType({
    "pairs": ("pairs", _whole), "center_wavelength_nm": ("center_wavelength", _finite),
    "n_high": ("n_high", _finite), "n_low": ("n_low", _finite),
    "terminal_high_index": ("terminal_high_index", _flag),
    "substrate_index": ("substrate_index", _finite), "lumped_loss": ("lumped_loss", _finite)})
_EMITTER = MappingProxyType({
    "zpl_wavelength_nm": ("zpl_wavelength", _finite),
    "bulk_lifetime_ns": ("bulk_lifetime_ns", _finite),
    "host_index": ("host_index", _finite), "debye_waller": ("debye_waller", _finite),
    "depth_nm": ("depth_below_surface", _finite),
    "dipole_orientation_factor": ("dipole_orientation_factor", _finite)})
_MEASURED = MappingProxyType({
    **{k: (k, _positive) for k in ("Gamma_L_pm", "dlambda_dL", "gamma_on_per_s",
                                   "gamma_off_per_s")},
    "dw_assumed": ("dw_assumed", _fraction)})
_SWEEP = MappingProxyType({
    "t_d_nm": ("t_d_nm", _numbers), "L_nm": ("L_nm", _numbers),
    "terminations": ("terminations", _terminations), "R_um": ("R_um", _finite)})


# the check of a cavity block's mirror key builds its MirrorSpec, which has
# no default of its own for pairs and center_wavelength
_read_mirror = partial(_build, _MIRROR, MirrorSpec, MappingProxyType(
    {"pairs": 15, "center_wavelength_nm": EmitterSpec.zpl_wavelength}))
_CAVITY = MappingProxyType({
    "bottom_mirror": ("bottom", _read_mirror), "top_mirror": ("top", _read_mirror),
    "t_d_nm": ("t_d", _finite), "L_nm": ("L", _finite), "R_um": ("R_um", _finite),
    "waist_fwhm_um": ("waist_fwhm_um", _positive)})
_TOP_KEYS = frozenset({"cavity", "emitter", "measured", "sweep"})


@dataclass
class RunConfig:
    cavity: Optional[CavityAssembly]
    emitter: EmitterSpec
    measured: dict
    sweep: dict


def paper_baseline_dict() -> dict:
    """The demonstrated device's configuration: what differs from the
    defaults of the blocks it fills, which hold its mirrors and emitter."""
    return {
        "cavity": {
            "bottom_mirror": {},
            "top_mirror": {"pairs": 14},
            "t_d_nm": 770.0,
            "L_nm": 1960.0,
            "waist_fwhm_um": 0.83,
        },
        "emitter": {},
        "measured": {
            "Gamma_L_pm": 60.6,
            "dlambda_dL": 0.18,
            "gamma_on_per_s": 158e6,
            "gamma_off_per_s": 88.2e6,
            "dw_assumed": 0.024,
        },
    }


def parse_config(doc: dict, needs_cavity: bool = True) -> RunConfig:
    """The checked run configuration.  The membrane has the emitter's
    host_index, the one diamond index of a run.  A command that reads no
    cavity passes needs_cavity=False and gets cavity None when the block is
    left out; a cavity block that is present is checked all the same."""
    _check_keys(doc, _TOP_KEYS, "config")
    for block in ("cavity", "emitter") if needs_cavity else ("emitter",):
        if block not in doc:
            raise ConfigError(f"config: missing required {block!r} block")
    emitter = _build(_EMITTER, EmitterSpec, {}, doc["emitter"], "emitter")
    cavity = None
    if "cavity" in doc:
        if isinstance(doc["cavity"], dict) and "L_nm" not in doc["cavity"]:
            raise ConfigError("cavity: missing required key 'L_nm'")
        cavity = _build(_CAVITY, assemble_cavity,
                        {"bottom_mirror": {}, "top_mirror": {}, "t_d_nm": 0.0, "R_um": 16.0},
                        doc["cavity"], "cavity", n_d=emitter.host_index)
        # the depth default is the paper's emitter, so only a depth the config
        # sets must fit the config's membrane
        if ("depth_nm" in doc["emitter"] and cavity.t_d > 0
                and not 0 < emitter.depth_below_surface <= cavity.t_d):
            raise ConfigError("emitter: depth_nm must lie within the diamond thickness")
    measured = _build(_MEASURED, dict, {}, doc.get("measured", {}), "measured")
    # the rates algebra takes both rates, and dw_assumed only with them
    missing = [k for k in ("gamma_on_per_s", "gamma_off_per_s") if k not in measured]
    if missing and measured.keys() & {"gamma_on_per_s", "gamma_off_per_s", "dw_assumed"}:
        raise ConfigError(f"measured: missing required key {missing[0]!r}")
    return RunConfig(cavity, emitter, measured,
                     _build(_SWEEP, dict, {}, doc.get("sweep", {}), "sweep"))


def load_config(path: str, needs_cavity: bool = True) -> RunConfig:
    try:
        with open(path, encoding="utf-8-sig") as fh:  # RFC 8259 lets a reader skip a BOM
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(doc, needs_cavity)
