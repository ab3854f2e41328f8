"""Record the reference output of every operation any seed can produce.

Run once at the commit that defines the benchmark:

    python3 perfbench/record.py

It writes ``perfbench/refs/<workload>.json`` with, per operation, the exit
code and standard output of the untraced CLI.  Later commits are checked
against these files; re-recording them hides a change in results.
"""

from __future__ import annotations

import json
import sys

import checker
import run
import workloads


def main() -> int:
    ops = workloads.all_ops()
    for op in ops:
        if op.generated:
            workloads.write_fit_input(*op.generated)
    env = run.child_env()
    by_workload = {w: {} for w in workloads.WORKLOADS}
    group = {"report": "device-chain", "design": "device-chain",
             "dispersion": "dispersion-map", "fit": "fit-batch"}
    for i, op in enumerate(ops):
        res = run.spawn(run.untraced_argv(op), env, run.WORK_DIR / "record")
        if res.exit != op.exit:
            print(f"{op.ref}: exit {res.exit}, want {op.exit}\n{res.stderr}",
                  file=sys.stderr)
            return 1
        by_workload[group[op.argv[0]]][op.ref] = {"argv": list(op.argv),
                                                  "exit": res.exit,
                                                  "stdout": res.stdout}
        print(f"[{i + 1}/{len(ops)}] {op.ref} {res.wall_s:.2f} s", flush=True)
    checker.REFS_DIR.mkdir(exist_ok=True)
    for name, refs in by_workload.items():
        (checker.REFS_DIR / f"{name}.json").write_text(
            json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
