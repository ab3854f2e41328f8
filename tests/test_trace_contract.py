"""The benchmark's tracer still sees the package's work.

perfbench/tracing.py wraps the package's functions by name and reads a
few return values (field_profile's sample count, the fits' evaluation
count).  A refactor that renames, inlines or reshapes one of them leaves
every CLI output unchanged but starves a per-layer counter.  This test
runs the tracer over one command of each kind, and over each fit kind,
and requires those counters to be nonzero.  It reads perfbench/ and
changes nothing there.
"""

import json
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))

import tracing  # noqa: E402
from cavityforge.cli import main  # noqa: E402

COMMANDS = [
    ["report", "--paper-baseline"],
    ["dispersion", "--paper-baseline", "--l-min-um", "1.5", "--l-max-um", "1.8"],
    ["design", "--single", "t_d_nm=198", "L_nm=478"],
    ["fit", "voigt", "data/zpl2_resonance.csv"],
    ["fit", "gaussian", "data/zpl6_lateral.csv"],
]
# fit kinds with no bundled dataset: each fits what synth writes of its kind
SYNTH_FITS = ("lorentzian", "lifetime", "g2")

NONZERO = ["tmm.field_profile.samples", "tmm.dispersion_map.time_s",
           "gaussian.vacuum_field.time_s", "cqed.coupling_report.time_s",
           "design.evaluate_design.calls", "design._tune_air_gap.calls", "fits.nfev",
           *(f"fits.{kind}.calls" for kind in ("voigt", "gaussian", *SYNTH_FITS))]


def test_traced_commands_feed_the_per_layer_counters(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"),
                                                      env.get("PYTHONPATH")]))
    commands = list(COMMANDS)
    for kind in SYNTH_FITS:
        data = tmp_path / f"{kind}.csv"
        assert main(["synth", kind, "-o", str(data)]) == 0
        commands.append(["fit", kind, str(data)])
    total = {}
    for op, argv in enumerate(commands):
        spans = tmp_path / f"spans-{op}.json"
        run = subprocess.run([sys.executable, str(REPO / "perfbench" / "tracing.py"),
                              "--spans", str(spans), "--op", str(op), "--", *argv],
                             cwd=REPO, env=env, capture_output=True, text=True)
        assert run.returncode == 0, (argv, run.stderr)
        for name, value in tracing._op_totals(json.loads(spans.read_text())).items():
            total[name] = total.get(name, 0) + value
    assert {name: total[name] for name in NONZERO if not total[name] > 0} == {}
