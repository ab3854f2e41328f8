"""Compare the benchmark results of two commits.

    python3 perfbench/compare.py PARENT CHANGE

PARENT and CHANGE are result files written by ``run.py`` (under
``perfbench/.work/results/``) or directories holding them.  For every
(workload, metric) pair it prints both sides' median and quartiles and a
verdict, by the rules of choosing-metrics sections 6 and 8:

  improved      the change wins at least 9/10 of the pairs (ties count for
                neither) and the medians differ, in the better direction, by
                more than the parent's interquartile range;
  unresolved    the run-to-run spread (interquartile range over median, the
                larger of the two sides) exceeds the metric's bound, unless
                every change run reads better than every parent run;
  worse         the change's median is worse than the parent's by more than
                the bound;
  within bound  otherwise.

Per-layer metrics have no bound: they are improved, worse (the same
pair rule in the other direction) or "no change shown".  Runs are paired
by seed where both sides have it, otherwise in file order.  Exit code 1
when any end-to-end metric is worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else (0.0 if q3 == q1 else float("inf"))


def verdict(parent: list, change: list, better: str, bound=None, pairs=None) -> str:
    """Verdict for one metric; ``pairs`` defaults to the runs zipped in order."""
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change)) if pairs is None else pairs
    q1, pm, q3 = quartiles(parent)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    wins = sum(sign * (c - p) > 0 for p, c in pairs)
    losses = sum(sign * (c - p) < 0 for p, c in pairs)
    if pairs and wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    if bound is None:
        if pairs and losses >= 0.9 * len(pairs) and -gain > q3 - q1:
            return "worse"
        return "no change shown"
    if max(_spread(parent), _spread(change)) > bound:
        best_parent = max(sign * p for p in parent)
        if min(sign * c for c in change) > best_parent:
            return "within bound"
        return "unresolved"
    if -gain > bound * abs(pm):
        return "worse"
    return "within bound"


def load(path: Path) -> list:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def _series(records: list) -> dict:
    """{(workload, metric): [(seed, value), ...]} in file order."""
    out = {}
    for r in records:
        for name, m in r["metrics"].items():
            out.setdefault((r["workload"], name), []).append((r["seed"], m["value"]))
    return out


def _pairs(p: list, c: list) -> list:
    cs = dict(c)
    by_seed = [(v, cs[s]) for s, v in p if s in cs]
    if len(by_seed) == min(len(p), len(c)):
        return by_seed
    return [(a[1], b[1]) for a, b in zip(p, c)]


def compare(parent: list, change: list, spec: dict) -> list:
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    bounds.update({m["name"]: (m["better"], None) for m in spec["per_layer"]})
    ps, cs = _series(parent), _series(change)
    rows = []
    for key in sorted(ps.keys() & cs.keys()):
        if key[1] not in bounds:
            continue
        better, bound = bounds[key[1]]
        p = [v for _, v in ps[key]]
        c = [v for _, v in cs[key]]
        rows.append({"workload": key[0], "metric": key[1], "bound": bound,
                     "parent": quartiles(p), "change": quartiles(c),
                     "n": (len(p), len(c)),
                     "verdict": verdict(p, c, better, bound, _pairs(ps[key], cs[key]))})
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args()
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    rows = compare(load(args.parent), load(args.change), spec)
    print(f"{'workload':15s} {'metric':42s} {'parent q1/med/q3':>34s} "
          f"{'change q1/med/q3':>34s}  n      verdict")
    for r in rows:
        fmt = " ".join(f"{v:10.4g}" for v in r["parent"])
        fmt_c = " ".join(f"{v:10.4g}" for v in r["change"])
        print(f"{r['workload']:15s} {r['metric']:42s} {fmt:>34s} {fmt_c:>34s} "
              f"{r['n'][0]}/{r['n'][1]:<4d} {r['verdict']}")
    return 1 if any(r["verdict"] == "worse" and r["bound"] is not None for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
