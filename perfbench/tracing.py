"""Traced CLI runner and the per-layer metrics computed from its spans.

Run as a script, it stands in for ``python -m cavityforge.cli``:

    python3 perfbench/tracing.py --spans FILE --op N -- report --paper-baseline

It imports ``cavityforge.cli``, wraps every public function of the package
(plus the two private ones the per-layer metrics name) at every module
attribute that binds it, calls ``cavityforge.cli.main(argv)`` and, at exit,
writes the spans it kept in memory to FILE.  A span is
``[name, parent index, start, end, attrs]``; all spans of one file share
the operation id N.  The program's own output is untouched.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import statistics
import sys
import time

PRIVATE_TRACED = {"_tune_air_gap", "_read_csv"}

# Bytes of the per-wavelength 2x2 complex128 layer product rewritten once
# per layer: computed from array sizes, not measured.
BYTES_PER_LAYER_EVAL = 4 * 16

FIT_KINDS = {"fits.fit_voigt": "voigt", "fits.fit_lorentzian": "lorentzian",
             "fits.fit_gaussian": "gaussian", "fits.fit_lifetime": "lifetime",
             "fits.g2_pulse_areas": "g2"}

# (name, unit, better).  Values are totals over one pass of the workload's
# command cycle, medians over the traced passes of a run.
PER_LAYER = [
    ("cli.import_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli._read_csv.time_s", "s", "lower"),
    ("design._tune_air_gap.calls", "count", "lower"),
    ("design._tune_air_gap.time_s", "s", "lower"),
    ("design.tune.find_per_tune", "1", "lower"),
    ("design.evaluate_design.calls", "count", "lower"),
    ("design.evaluate_design.time_s", "s", "lower"),
    ("tmm.transmission_spectrum.calls", "count", "lower"),
    ("tmm.transmission_spectrum.scalar_calls", "count", "lower"),
    ("tmm.transmission_spectrum.scalar_time_s", "s", "lower"),
    ("tmm.transmission_spectrum.time_s", "s", "lower"),
    ("tmm.transmission_spectrum.lambda_points", "count", "lower"),
    ("tmm.transmission_spectrum.layer_evals", "count", "lower"),
    ("tmm.transmission_spectrum.bytes_computed", "B", "lower"),
    ("tmm.find_resonances.calls", "count", "lower"),
    ("tmm.find_resonances.time_s", "s", "lower"),
    ("tmm.find_resonances.self_s", "s", "lower"),
    ("tmm.find_resonances.resonances_found", "count", "higher"),
    ("tmm.find_resonances.empty_calls", "count", "lower"),
    ("tmm.field_profile.calls", "count", "lower"),
    ("tmm.field_profile.self_s", "s", "lower"),
    ("tmm.field_profile.samples", "count", "lower"),
    ("tmm.field_profile.refind_calls", "count", "lower"),
    ("tmm.dispersion_map.time_s", "s", "lower"),
    ("gaussian.vacuum_field.time_s", "s", "lower"),
    ("cqed.coupling_report.time_s", "s", "lower"),
    *[(f"fits.{k}.{stat}", unit, "lower") for k in FIT_KINDS.values()
      for stat, unit in (("calls", "count"), ("time_s", "s"))],
    ("fits.nfev", "count", "lower"),
    ("fits.converged_ratio", "1", "higher"),
    ("trace.overhead_s", "s", "lower"),
]


# ------------------------------------------------------------ child side

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _spectrum_attrs(args, kwargs, out):
    layers = _arg(args, kwargs, 0, "layers")
    lams = _arg(args, kwargs, 3, "lams")
    return [int(getattr(lams, "size", 1)),
            sum(1 for ly in layers if ly.thickness != 0.0)]


def _fit_attrs(args, kwargs, out):
    return [int(out.iterations), bool(out.converged)]


HOOKS = {
    "tmm.transmission_spectrum": _spectrum_attrs,
    "tmm.find_resonances": lambda a, k, out: len(out),
    "tmm.field_profile": lambda a, k, out: int(out.z.size),
    **{name: _fit_attrs for name in FIT_KINDS if name != "fits.g2_pulse_areas"},
}


class Tracer:
    """Keeps spans in memory; single-threaded, like the program it traces."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, fn):
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        hook = HOOKS.get(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if hook is not None:
                rec[4] = hook(args, kwargs, out)
            return out
        return traced

    def install(self, package: str = "cavityforge") -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        targets = {}
        for mod in modules:
            for obj in vars(mod).values():
                if (inspect.isfunction(obj) and obj.__module__.startswith(package)
                        and (not obj.__name__.startswith("_")
                             or obj.__name__ in PRIVATE_TRACED)):
                    targets[id(obj)] = obj
        wrappers = {key: self.wrap(fn) for key, fn in targets.items()}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers:
                    setattr(mod, attr, wrappers[id(obj)])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--spans", required=True)
    ap.add_argument("--op", type=int, required=True)
    ap.add_argument("argv", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    t0 = time.perf_counter()
    import cavityforge.cli as cli
    import_s = time.perf_counter() - t0
    tracer = Tracer()
    tracer.install()
    rc = 1
    try:
        rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(args.spans, "w", encoding="utf-8") as fh:
            json.dump({"op": args.op, "import_s": import_s, "spans": tracer.spans}, fh)
    return rc


# ----------------------------------------------------------- parent side

def _op_totals(doc: dict) -> dict:
    """Per-layer totals of one traced operation."""
    spans = doc["spans"]
    dur = [s[3] - s[2] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[1] >= 0:
            child[s[1]] += dur[i]

    def under(i, name):
        p = spans[i][1]
        while p >= 0:
            if spans[p][0] == name:
                return True
            p = spans[p][1]
        return False

    t = {name: 0.0 for name, _, _ in PER_LAYER}
    t["cli.import_s"] = doc["import_s"]
    fits_run = fits_converged = 0
    for i, (name, parent, _, _, attrs) in enumerate(spans):
        self_s = dur[i] - child[i]
        if name == "cli._read_csv":
            t["cli._read_csv.time_s"] += dur[i]
        elif name.startswith("cli."):
            # the CLI layer's own work: parsing, dispatch, output formatting
            t["cli.main.self_s"] += self_s
        elif name in ("design._tune_air_gap", "design.evaluate_design"):
            t[f"{name}.calls"] += 1
            t[f"{name}.time_s"] += dur[i]
        elif name == "tmm.transmission_spectrum":
            points, layers = attrs
            t[f"{name}.calls"] += 1
            t[f"{name}.time_s"] += dur[i]
            t[f"{name}.lambda_points"] += points
            t[f"{name}.layer_evals"] += points * layers
            t[f"{name}.bytes_computed"] += points * layers * BYTES_PER_LAYER_EVAL
            if points == 1:
                t[f"{name}.scalar_calls"] += 1
                t[f"{name}.scalar_time_s"] += dur[i]
        elif name == "tmm.find_resonances":
            t[f"{name}.calls"] += 1
            t[f"{name}.time_s"] += dur[i]
            t[f"{name}.self_s"] += self_s
            t[f"{name}.resonances_found"] += attrs
            t[f"{name}.empty_calls"] += attrs == 0
            if under(i, "design._tune_air_gap"):
                t["design.tune.find_per_tune"] += 1   # normalised below
            if parent >= 0 and spans[parent][0] == "tmm.field_profile":
                t["tmm.field_profile.refind_calls"] += 1
        elif name == "tmm.field_profile":
            t[f"{name}.calls"] += 1
            t[f"{name}.self_s"] += self_s
            t[f"{name}.samples"] += attrs
        elif name in ("tmm.dispersion_map", "gaussian.vacuum_field",
                      "cqed.coupling_report"):
            t[f"{name}.time_s"] += dur[i]
        elif name in FIT_KINDS:
            t[f"fits.{FIT_KINDS[name]}.calls"] += 1
            t[f"fits.{FIT_KINDS[name]}.time_s"] += dur[i]
            if attrs is not None:
                t["fits.nfev"] += attrs[0]
                fits_run += 1
                fits_converged += attrs[1]
    t["_fits_run"], t["_fits_converged"] = fits_run, fits_converged
    return t


def cycle_metrics(docs: list) -> dict:
    """Per-layer metrics of one traced pass over the command cycle."""
    total = {}
    for doc in docs:
        for k, v in _op_totals(doc).items():
            total[k] = total.get(k, 0) + v
    tunes = total["design._tune_air_gap.calls"]
    total["design.tune.find_per_tune"] = (
        total["design.tune.find_per_tune"] / tunes if tunes else 0.0)
    fits_run = total.pop("_fits_run")
    converged = total.pop("_fits_converged")
    total["fits.converged_ratio"] = converged / fits_run if fits_run else 0.0
    return total


def run_metrics(cycles: list, overhead_s: float) -> dict:
    """Median of each per-layer metric over the traced cycles of a run."""
    out = {name: {"value": statistics.median(c[name] for c in cycles), "unit": unit}
           for name, unit, _ in PER_LAYER if name != "trace.overhead_s"}
    out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out


if __name__ == "__main__":
    sys.exit(main())
