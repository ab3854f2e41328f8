"""Closed-loop benchmark of the cavityforge command-line interface.

    python3 perfbench/run.py --workload device-chain --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40

One client runs the workload's command cycle (see ``workloads.py``) again
and again, each command a fresh ``python -m cavityforge.cli`` process
started only after the previous one ended, because a user runs one
command and waits for it.  Only whole cycles are run, so every run mixes
the commands in the same proportion.  Each command is timed from outside;
CPU time and peak memory come from ``os.wait4`` for that child alone.
Each output is checked against ``refs/`` after its command ends, outside
the command's timed span.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs each
command of the cycle untraced and then through ``tracing.py`` and reports
the per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object; a fuller record with provenance is written
under ``perfbench/.work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

import checker
import tracing
import workloads
from workloads import BENCH_DIR, ROOT, WORK_DIR

SETUP_REPEATS = 7
# Fixed environment of every child; --threads is never passed (it has no effect).
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "LC_ALL": "C.UTF-8",
}

END_TO_END = [
    ("setup_s", "s"), ("op_p50_s", "s"), ("units_per_s", "1/s"),
    ("cpu_per_unit_s", "s"), ("peak_rss_mb", "MB"), ("verified_frac", "1"),
]


@dataclass
class Result:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit: int
    stdout: str
    stderr: str


def child_env() -> dict:
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "PYTHONPATH": str(ROOT / "src")}
    env.update(CHILD_ENV)
    return env


def untraced_argv(op) -> list:
    return [sys.executable, "-m", "cavityforge.cli", *op.argv]


def traced_argv(op, spans: Path, op_id: int) -> list:
    return [sys.executable, str(BENCH_DIR / "tracing.py"), "--spans", str(spans),
            "--op", str(op_id), "--", *op.argv]


def spawn(argv: list, env: dict, scratch: Path) -> Result:
    """Run one child to completion with stdout and stderr in files; time it
    from spawn to reap and take its own rusage."""
    scratch.mkdir(parents=True, exist_ok=True)
    out, err = scratch / "stdout", scratch / "stderr"
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, str(out), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err), flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return Result(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss,
                  os.waitstatus_to_exitcode(status),
                  out.read_text(encoding="utf-8", errors="replace"),
                  err.read_text(encoding="utf-8", errors="replace"))


def run_cycle(ops, env, refs, failures, spans_dir=None) -> list:
    """One pass over the cycle; with ``spans_dir``, an untraced and a traced
    pass, each command run untraced and then traced back to back so that
    both see the same machine state.  A pass's wall time is the sum of its
    commands' times.  A miss against the reference is recorded in
    ``failures``, never raised."""
    passes = [{"traced": d is not None, "spans_dir": d, "wall_s": 0.0, "results": []}
              for d in ([None] if spans_dir is None else [None, spans_dir])]
    for i, op in enumerate(ops):
        for p in passes:
            if p["traced"]:
                argv = traced_argv(op, spans_dir / f"{i}.json", i)
            else:
                argv = untraced_argv(op)
            res = spawn(argv, env, WORK_DIR / "child")
            problems = checker.check(op, res.exit, res.stdout, refs)
            if problems:
                failures.append({"op": op.ref, "argv": list(op.argv), "traced": p["traced"],
                                 "problems": problems[:5], "stderr": res.stderr[-500:]})
            p["wall_s"] += res.wall_s
            p["results"].append((op, res, not problems))
    return passes


def closed_loop(ops, seconds, env, refs, failures, traced=False) -> list:
    """Whole cycles, the first always, each further one only if it is
    expected to end within ``seconds``."""
    passes = []
    t_start = time.perf_counter()
    while True:
        spans_dir = None
        if traced:
            spans_dir = WORK_DIR / "spans" / str(len(passes))
            spans_dir.mkdir(parents=True, exist_ok=True)
        passes += run_cycle(ops, env, refs, failures, spans_dir)
        elapsed = time.perf_counter() - t_start
        rounds = len(passes) // (2 if traced else 1)
        if elapsed + elapsed / rounds > seconds:
            return passes


def end_to_end(setup: list, passes: list) -> tuple:
    """Throughput and CPU per unit are medians over the run's cycles."""
    results = [r for p in passes for r in p["results"]]
    units = sum(op.units for op, _, _ in results)
    walls = [res.wall_s for _, res, _ in results]
    ok_ops = sum(ok for _, _, ok in results)
    metrics = {
        "setup_s": statistics.median(setup),
        "op_p50_s": statistics.median(walls),
        "units_per_s": statistics.median(
            sum(op.units for op, _, ok in p["results"] if ok) / p["wall_s"] for p in passes),
        "cpu_per_unit_s": statistics.median(
            sum(r.cpu_s for _, r, _ in p["results"]) / sum(op.units for op, _, _ in p["results"])
            for p in passes),
        "peak_rss_mb": max(res.maxrss_kb for _, res, _ in results) * 1024 / 1e6,
        "verified_frac": ok_ops / len(results),
    }
    samples = {"setup_s": len(setup), "op_p50_s": len(walls), "units_per_s": len(passes),
               "cpu_per_unit_s": len(passes), "units": units, "peak_rss_mb": len(results),
               "verified_frac": len(results)}
    return {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}, samples


def per_layer(passes: list) -> tuple:
    cycles = []
    for p in passes:
        if p["traced"]:
            docs = [json.loads((p["spans_dir"] / f"{i}.json").read_text())
                    for i in range(len(p["results"]))]
            cycles.append(tracing.cycle_metrics(docs))
    overhead = statistics.median(t["wall_s"] - u["wall_s"]
                                 for u, t in zip(passes[::2], passes[1::2]))
    return tracing.run_metrics(cycles, overhead), {"traced_cycles": len(cycles)}, cycles


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def provenance(seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=10,
                                 check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    model = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                  if line.startswith("model name")), platform.processor())
    caches = {}
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")) if cache_dir.exists() else []:
        level, kind = _read(idx / "level").strip(), _read(idx / "type").strip()
        caches[f"L{level}-{kind}"] = _read(idx / "size").strip()

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {"git_sha": sha, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)), "cpu_model": model,
            "caches": caches, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"), "seed": seed,
            "child_env": CHILD_ENV}


def run_workload(workload: str, seed: int, seconds: float, trace: int):
    """Run one workload, print its metrics and write its result file.
    Returns the summary, or None when the warm-up command fails."""
    ops = workloads.build(workload, seed)
    refs = checker.load_refs(workload)
    env = child_env()
    failures = []

    # untimed warm-up: imports every module, so both commits run with
    # bytecode caches
    warm = spawn([sys.executable, "-m", "cavityforge.cli", "--help"], env, WORK_DIR / "child")
    if warm.exit != 0:
        print(f"error: warm-up exited {warm.exit}\n{warm.stderr}", file=sys.stderr)
        return None

    if trace:
        passes = closed_loop(ops, seconds, env, refs, failures, traced=True)
        metrics, samples, cycles = per_layer(passes)
    else:
        import_argv = [sys.executable, "-c", "import cavityforge.cli"]
        setup = [spawn(import_argv, env, WORK_DIR / "child").wall_s
                 for _ in range(SETUP_REPEATS)]
        passes = closed_loop(ops, seconds, env, refs, failures)
        metrics, samples = end_to_end(setup, passes)
        cycles = None

    attempted = sum(len(p["results"]) for p in passes)
    failed = sum(not ok for p in passes for _, _, ok in p["results"])
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "time_unix": time.time(), "provenance": provenance(seed),
        "cycle": [list(op.argv) for op in ops],
        "passes": [{"traced": p["traced"], "wall_s": p["wall_s"],
                    "ops": [{"ref": op.ref, "wall_s": r.wall_s, "cpu_s": r.cpu_s,
                             "maxrss_kb": r.maxrss_kb, "exit": r.exit, "ok": ok}
                            for op, r, ok in p["results"]]} for p in passes],
        "samples": samples, "traced_cycle_metrics": cycles, "failures": failures,
        **summary,
    }
    out_dir = WORK_DIR / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out = out_dir / f"{workload}-s{seed}-t{trace}-{time.time_ns()}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for f in failures:
        print(f"MISS {f['op']}: {'; '.join(f['problems'])}")
    for name, m in metrics.items():
        n = samples.get(name, samples.get("traced_cycles"))
        print(f"{workload:15s} {name:45s} {m['value']:.6g} {m['unit']}  (n={n})")
    print(f"result file: {out.relative_to(ROOT)}")
    return summary


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"),
                    help="one workload, or all of them in turn")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)

    missing = [p for p in (ROOT / "src" / "cavityforge" / "cli.py",
                           *(checker.REFS_DIR / f"{w}.json" for w in names))
               if not p.exists()]
    if missing:
        print(f"error: not a cavityforge checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    os.chdir(ROOT)

    summaries = {}
    for w in names:
        summaries[w] = run_workload(w, args.seed, args.seconds, args.trace)
        if summaries[w] is None:
            return 1
    if len(names) == 1:
        print(json.dumps(summaries[names[0]]))
    else:
        print(json.dumps({
            "correct": all(s["correct"] for s in summaries.values()),
            "attempted": sum(s["attempted"] for s in summaries.values()),
            "failed": sum(s["failed"] for s in summaries.values()),
            "metrics": {f"{w}.{k}": m for w, s in summaries.items()
                        for k, m in s["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
