"""Tests of the benchmark itself (not part of the tier-1 suite):

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import checker  # noqa: E402
import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _op(workload, ref):
    return next(op for op in workloads.all_ops() if op.ref == ref)


def test_benchmark_json_names_the_metrics_the_code_reports():
    assert [m["name"] for m in SPEC["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [tuple(x) for x in tracing.PER_LAYER]
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_references_cover_every_seed():
    for name in workloads.WORKLOADS:
        refs = checker.load_refs(name)
        for seed in [*range(40), workloads.HELD_OUT_SEED]:
            for op in workloads.build(name, seed):
                assert op.ref in refs, (name, seed, op.ref)
                assert refs[op.ref]["exit"] == op.exit


def test_traced_and_untraced_report_are_byte_identical(tmp_path):
    op = _op("device-chain", "report")
    env = run.child_env()
    plain = run.spawn(run.untraced_argv(op), env, tmp_path / "plain")
    spans = tmp_path / "spans.json"
    traced = run.spawn(run.traced_argv(op, spans, 0), env, tmp_path / "traced")
    assert plain.exit == traced.exit == 0
    assert plain.stdout.encode() == traced.stdout.encode()
    names = {s[0] for s in json.loads(spans.read_text())["spans"]}
    assert {"cli.main", "design._tune_air_gap", "tmm.field_profile"} <= names


def test_checker_flags_perturbed_resonance_and_exit_code():
    refs = checker.load_refs("device-chain")
    op = _op("device-chain", "report")
    doc = json.loads(refs["report"]["stdout"])
    assert checker.check(op, 0, refs["report"]["stdout"], refs) == []
    doc["cavity"]["lambda_res_nm"] += 5e-5
    assert checker.check(op, 0, json.dumps(doc), refs) == []
    doc["cavity"]["lambda_res_nm"] += 2e-4
    assert any("lambda_res_nm" in p for p in checker.check(op, 0, json.dumps(doc), refs))
    assert checker.check(op, 3, refs["report"]["stdout"], refs) == ["exit code 3, want 0"]
    assert checker.check(_op("device-chain", "unstable"), 0, "", refs) == \
        ["exit code 0, want 3"]
    assert checker.check(op, 0, "not json", refs)

    disp = checker.load_refs("dispersion-map")
    dop = workloads.dispersion_op(1500, 2)
    text = disp[dop.ref]["stdout"]
    assert checker.check(dop, 0, text, disp) == []
    # an order-0 command is held to the order-0 rows only
    order0 = "".join(ln + "\n" for ln in text.splitlines() if not ln.endswith((",1", ",2")))
    assert checker.check(workloads.dispersion_op(1500, 0), 0, order0, disp) == []
    assert checker.check(dop, 0, order0, disp)
    lines = text.splitlines()
    cols = lines[1].split(",")
    cols[2] = format(float(cols[2]) + 3e-4, ".9g")
    bad = "\n".join([lines[0], ",".join(cols), *lines[2:]]) + "\n"
    assert checker.check(dop, 0, bad, disp)


def test_checker_checks_design_echo_column():
    refs = checker.load_refs("device-chain")
    op = replace(_op("device-chain", "design-198"), echo={"L_nm": "470.5"})
    assert any("L_nm" in p for p in checker.check(op, 0, refs["design-198"]["stdout"], refs))


@pytest.mark.parametrize("parent, change, better, bound, want", [
    ([10.0] * 5 + [10.1] * 5, [8.0] * 10, "lower", 0.1, "improved"),
    ([10.0, 10.1] * 5, [10.2, 10.3] * 5, "lower", 0.1, "within bound"),
    ([10.0, 10.1] * 5, [12.0, 12.1] * 5, "lower", 0.1, "worse"),
    ([5.0, 10.0, 15.0, 20.0] * 3, [10.0, 12.0] * 6, "lower", 0.1, "unresolved"),
    # spread wider than the bound, but every change run beats every parent run
    ([5.0, 10.0, 15.0, 20.0] * 3, [1.0, 2.0] * 6, "lower", 0.1, "within bound"),
    ([1.0, 1.02] * 5, [1.3, 1.32] * 5, "higher", 0.1, "improved"),
    ([1.0, 1.02] * 5, [0.7, 0.72] * 5, "higher", 0.1, "worse"),
    ([3, 3, 3], [2, 2, 2], "lower", None, "improved"),
    ([3, 3, 3], [3, 3, 3], "lower", None, "no change shown"),
    ([3, 3, 3], [4, 4, 4], "lower", None, "worse"),
])
def test_compare_verdicts(parent, change, better, bound, want):
    assert compare.verdict(parent, change, better, bound) == want


def test_compare_improvement_needs_nine_tenths_of_pairs():
    parent = [10.0] * 10
    change = [8.0] * 8 + [10.5] * 2      # wins 8 of 10 pairs
    assert compare.verdict(parent, change, "lower", 0.1) != "improved"


def _traced_run(workload, seconds):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", "3", "--seconds", str(seconds), "--trace", "1"],
                          cwd=BENCH.parent, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result_file = next(ln.split(": ", 1)[1] for ln in lines if ln.startswith("result file:"))
    return json.loads(lines[-1]), json.loads((BENCH.parent / result_file).read_text())


COUNTS = ("calls", "scalar_calls", "lambda_points", "layer_evals",
          "resonances_found", "refind_calls", "nfev")


@pytest.mark.parametrize("workload, nonzero, zero", [
    ("device-chain", ["design._tune_air_gap.calls", "tmm.field_profile.refind_calls",
                      "design.tune.find_per_tune", "cqed.coupling_report.time_s"],
     ["fits.nfev", "tmm.dispersion_map.time_s"]),
    ("dispersion-map", ["tmm.dispersion_map.time_s", "tmm.transmission_spectrum.scalar_calls",
                        "tmm.field_profile.samples"],
     ["design._tune_air_gap.calls", "fits.nfev"]),
    ("fit-batch", ["fits.nfev", "fits.g2.calls", "cli._read_csv.time_s"],
     ["tmm.transmission_spectrum.calls", "design.evaluate_design.calls"]),
])
def test_traced_run_reports_every_per_layer_metric(workload, nonzero, zero):
    # fit-batch is cheap enough for two traced passes, to check that counts repeat
    summary, record = _traced_run(workload, 1 if workload != "fit-batch" else 30)
    assert summary["correct"] and summary["failed"] == 0
    assert list(summary["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for name in nonzero:
        assert summary["metrics"][name]["value"] > 0, name
    for name in zero:
        assert summary["metrics"][name]["value"] == 0, name
    cycles = record["traced_cycle_metrics"]
    assert len(cycles) >= (2 if workload == "fit-batch" else 1)
    for cyc in cycles[1:]:
        for name, value in cyc.items():
            if name.rsplit(".", 1)[-1] in COUNTS:
                assert value == cycles[0][name], name


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero without
    printing a result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit-batch",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
