#!/usr/bin/env python3
"""A/B runs of the benchmark: a parent checkout against a change.

    python3 tools/abtest.py ../parent . --workload urq-refute --seed 17 --pairs 10

PARENT and CHANGE are source checkouts, each with its own perfbench/run.py
and src/xorcert; each side's run measures its own sources.  Pair i runs
`perfbench/run.py --workload W --seed S --seconds T` in both, the parent
first when i is even and the change first when it is odd.  Each run's
end-to-end metrics are printed as it finishes, then a table: per metric,
each side's median and quartiles (exclusive method), the pairs the change
won (ties count for neither side), the median change, and a verdict:

- `gain`: the change won at least nine tenths of the pairs and its median
  beats the parent's by more than the parent's interquartile range;
- `worse`: its median is worse than the parent's by more than the metric's
  bound in this checkout's BENCHMARK.json;
- `-`: neither.

Each metric's better direction and bound come from BENCHMARK.json; this
script only calls perfbench and changes nothing in either checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(checkout, args) -> dict:
    """The metrics of one perfbench run in `checkout`, name -> value."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds)]
    run = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = run.stdout.strip().splitlines()
    if run.returncode or not lines:
        sys.exit(f"error: perfbench in {checkout} exited {run.returncode}: "
                 f"{run.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if result["failed"]:
        print(f"# {checkout}: {result['failed']} of {result['attempted']} instances failed",
              file=sys.stderr)
    return {k: m["value"] for k, m in result["metrics"].items()}


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0]
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return q1, q3


def verdict(parent, change, better, bound):
    """(change wins, verdict) for one metric's per-pair values."""
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    pm, cm = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    if wins >= 0.9 * len(parent) and sign * (pm - cm) > q3 - q1:
        return wins, "gain"
    if bound is not None and sign * (cm - pm) > bound * abs(pm):
        return wins, "worse"
    return wins, "-"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    args = ap.parse_args(argv)
    sides = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    for path in sides.values():
        if not os.path.isfile(os.path.join(path, "perfbench", "run.py")):
            ap.error(f"{path} has no perfbench/run.py")
    spec = {}
    bench_json = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(bench_json):
        with open(bench_json) as fh:
            spec = {m["name"]: m for m in json.load(fh)["end_to_end"]}

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            values = run_bench(sides[side], args)
            runs[side].append(values)
            print(f"# pair {i + 1} {side}: " + " ".join(
                f"{k}={v:.4g}" for k, v in values.items()), flush=True)

    print(f"{'metric':<14} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'wins':>6} {'change':>8}  verdict")
    for name in runs["parent"][0]:
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        m = spec.get(name, {})
        wins, word = verdict(parent, change, m.get("better", "lower"), m.get("bound"))
        pm, cm = statistics.median(parent), statistics.median(change)
        cells = []
        for xs, med in ((parent, pm), (change, cm)):
            q1, q3 = quartiles(xs)
            cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
        rel = f"{(cm - pm) / pm:+.1%}" if pm else "-"
        print(f"{name:<14} {cells[0]:>30} {cells[1]:>30} {wins:>3}/{args.pairs:<2} "
              f"{rel:>8}  {word}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
