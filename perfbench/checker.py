"""Checks each CLI output against the reference recorded for its operation.

Tolerances, from the benchmark's definition:
  resonance wavelength 1e-4 nm (about 4 % of the 2.7 pm cold linewidth),
  tuned air gap 1e-3 nm, cold linewidth and Q 1 %, other derived figures
  of merit 1e-3 relative, fit parameters 1e-4 relative (relative to the
  larger of the value and its reference uncertainty, so that parameters
  near zero are judged on their own scale).
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

REFS_DIR = Path(__file__).resolve().parent / "refs"

LAMBDA_ABS_NM = 1e-4
L_TUNED_ABS_NM = 1e-3
LINEWIDTH_Q_REL = 1e-2
DERIVED_REL = 1e-3
FIT_REL = 1e-4

_EXACT_DESIGN_COLUMNS = {"t_d_nm", "termination", "valid", "reason",
                         "termination_consistent"}


def load_refs(workload: str) -> dict:
    return json.loads((REFS_DIR / f"{workload}.json").read_text(encoding="utf-8"))


def _num(s):
    try:
        return float(s)
    except (TypeError, ValueError):
        return None


def _close(got, want, abs_tol=0.0, rel_tol=0.0) -> bool:
    g, w = _num(got), _num(want)
    if g is None or w is None:
        return got == want
    if math.isnan(w):
        return math.isnan(g)
    return abs(g - w) <= max(abs_tol, rel_tol * abs(w))


def _flatten(doc, prefix=""):
    if isinstance(doc, dict):
        out = {}
        for k, v in doc.items():
            out.update(_flatten(v, f"{prefix}{k}."))
        return out
    if isinstance(doc, list):
        out = {}
        for i, v in enumerate(doc):
            out.update(_flatten(v, f"{prefix}{i}."))
        return out
    return {prefix[:-1]: doc}


def _report_tol(key: str) -> dict:
    leaf = key.rsplit(".", 1)[-1]
    if leaf == "lambda_res_nm":
        return {"abs_tol": LAMBDA_ABS_NM}
    if leaf == "L_tuned_nm":
        return {"abs_tol": L_TUNED_ABS_NM}
    if leaf in ("Q", "finesse"):
        return {"rel_tol": LINEWIDTH_Q_REL}
    return {"rel_tol": DERIVED_REL}


def _check_report(got: str, want: str, op) -> list:
    g, w = _flatten(json.loads(got)), _flatten(json.loads(want))
    if g.keys() != w.keys():
        return [f"report keys differ: {sorted(g.keys() ^ w.keys())}"]
    return [f"{k}: {g[k]!r} != {w[k]!r}" for k in sorted(w)
            if not _close(g[k], w[k], **_report_tol(k))]


def _design_tol(col: str) -> dict:
    if col == "lambda_res_nm":
        return {"abs_tol": LAMBDA_ABS_NM}
    if col == "L_tuned_nm":
        return {"abs_tol": L_TUNED_ABS_NM}
    return {"rel_tol": DERIVED_REL}


def _check_design(got: str, want: str, op) -> list:
    g = list(csv.DictReader(io.StringIO(got)))
    w = list(csv.DictReader(io.StringIO(want)))
    if len(g) != len(w) or (g and g[0].keys() != w[0].keys()):
        return [f"design table shape differs: {len(g)} rows, want {len(w)}"]
    bad = []
    for i, (rg, rw) in enumerate(zip(g, w)):
        for col, want_v in rw.items():
            if col in op.echo:
                ok = rg[col] == op.echo[col]
                want_v = op.echo[col]
            elif col in _EXACT_DESIGN_COLUMNS:
                ok = rg[col] == want_v
            else:
                ok = _close(rg[col], want_v, **_design_tol(col))
            if not ok:
                bad.append(f"row {i} {col}: {rg[col]!r} != {want_v!r}")
    return bad


def _dispersion_set(text: str) -> dict:
    out = {}
    for r in csv.DictReader(io.StringIO(text)):
        key = (r["L_nm"], r["transverse_order"])
        out.setdefault(key, []).append(float(r["lambda_nm"]))
    return {k: sorted(v) for k, v in out.items()}


def _check_dispersion(got: str, want: str, op) -> list:
    g, w = _dispersion_set(got), _dispersion_set(want)
    if "--max-transverse-order" not in op.argv:
        # references hold the order-2 output; its order-0 rows are the same
        w = {k: v for k, v in w.items() if k[1] == "0"}
    if g.keys() != w.keys():
        return [f"(L, order) keys differ: {sorted(g.keys() ^ w.keys())}"]
    bad = []
    for k in sorted(w):
        if len(g[k]) != len(w[k]):
            bad.append(f"{k}: {len(g[k])} resonances, want {len(w[k])}")
            continue
        bad += [f"{k}: lambda {a!r} != {b!r}" for a, b in zip(g[k], w[k])
                if abs(a - b) > LAMBDA_ABS_NM]
    return bad


def _check_fit(got: str, want: str, op) -> list:
    g, w = json.loads(got), json.loads(want)
    bad = [f"{k}: {g.get(k)!r} != {w[k]!r}" for k in ("kind", "converged")
           if k in w and g.get(k) != w[k]]
    if "params" in w:
        if g.get("params", {}).keys() != w["params"].keys():
            return bad + ["fit parameter names differ"]
        for name, want_v in w["params"].items():
            scale = max(abs(want_v), abs(w["uncertainties"].get(name, 0.0)))
            if abs(g["params"][name] - want_v) > FIT_REL * scale:
                bad.append(f"param {name}: {g['params'][name]!r} != {want_v!r}")
        return bad
    gf, wf = _flatten(g), _flatten(w)
    if gf.keys() != wf.keys():
        return bad + ["g2 result keys differ"]
    return bad + [f"{k}: {gf[k]!r} != {wf[k]!r}" for k in sorted(wf)
                  if not _close(gf[k], wf[k], rel_tol=FIT_REL)]


_CHECKS = {"report": _check_report, "design": _check_design,
           "dispersion": _check_dispersion, "fit": _check_fit}


def check(op, exit_code: int, stdout: str, refs: dict) -> list:
    """Reasons the output of ``op`` misses its reference; empty when it
    matches.  Malformed output counts as a miss, never as a crash."""
    if exit_code != op.exit:
        return [f"exit code {exit_code}, want {op.exit}"]
    ref = refs.get(op.ref)
    if ref is None:
        return [f"no reference for {op.ref}"]
    if ref["exit"] != op.exit:
        return [f"reference exit {ref['exit']} != expected {op.exit}"]
    if op.exit != 0:
        return []
    try:
        return _CHECKS[op.argv[0]](stdout, ref["stdout"], op)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
