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

- `worse`: the change's median is worse than the parent's by more than
  the metric's bound;
- `unresolved`: otherwise, when the parent's interquartile range is wider
  than the metric's bound (relative to the parent's median), so the runs
  spread too widely to tell, unless every change run beats every parent
  run;
- `gain`: the change won at least nine tenths of the pairs and its median
  beats the parent's by more than the parent's interquartile range;
- `-`: none of these.

Each metric's better direction and bound come from this checkout's
BENCHMARK.json; a metric it does not list has no bound and is never
`worse` or `unresolved`.  --out FILE also writes the table as one JSON
object: workload, seed, pairs and seconds; each side's commit and source
digest (`src_sha256`, which tells an uncommitted tree from its commit) and
the machine, as perfbench's `# meta` line reports them; and per metric its
better direction, bound, wins, verdict, and each side's median, quartiles
and per-pair runs.  This script only calls perfbench and changes nothing in
either checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_bench(checkout, args):
    """(metrics, meta) of one perfbench run in `checkout`: metric name ->
    value, and the run's `# meta` object ({} if it printed none)."""
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
    meta = next((json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta ")), {})
    return {k: m["value"] for k, m in result["metrics"].items()}, meta


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
    if bound is not None and sign * (cm - pm) > bound * abs(pm):
        return wins, "worse"
    beats_all = all(sign * (p - c) > 0 for p in parent for c in change)
    if bound is not None and q3 - q1 > bound * abs(pm) and not beats_all:
        return wins, "unresolved"
    if wins >= 0.9 * len(parent) and sign * (pm - cm) > q3 - q1:
        return wins, "gain"
    return wins, "-"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--out", metavar="FILE", help="also write the table here as JSON")
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
    metas = {}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            values, metas[side] = run_bench(sides[side], args)
            runs[side].append(values)
            print(f"# pair {i + 1} {side}: " + " ".join(
                f"{k}={v:.4g}" for k, v in values.items()), flush=True)

    print(f"{'metric':<14} {'parent median [q1, q3]':>30} {'change median [q1, q3]':>30} "
          f"{'wins':>6} {'change':>8}  verdict")
    metrics = {}
    for name in runs["parent"][0]:
        m = spec.get(name, {})
        row = metrics[name] = {"better": m.get("better", "lower"), "bound": m.get("bound")}
        cells = []
        for side in ("parent", "change"):
            xs = [r[name] for r in runs[side]]
            q1, q3 = quartiles(xs)
            row[side] = {"median": statistics.median(xs), "q1": q1, "q3": q3, "runs": xs}
            cells.append(f"{row[side]['median']:.4g} [{q1:.4g}, {q3:.4g}]")
        row["wins"], row["verdict"] = verdict(row["parent"]["runs"], row["change"]["runs"],
                                              row["better"], row["bound"])
        pm, cm = row["parent"]["median"], row["change"]["median"]
        rel = f"{(cm - pm) / pm:+.1%}" if pm else "-"
        print(f"{name:<14} {cells[0]:>30} {cells[1]:>30} {row['wins']:>3}/{args.pairs:<2} "
              f"{rel:>8}  {row['verdict']}")
    if args.out:
        first = metas.get("parent", {})
        doc = {
            "workload": args.workload,
            "seed": args.seed,
            "pairs": args.pairs,
            "seconds": args.seconds,
            **{side: {k: metas.get(side, {}).get(k) for k in ("commit", "src_sha256")}
               for side in ("parent", "change")},
            "machine": {k: first.get(k) for k in ("cpu", "nproc", "python")},
            "metrics": metrics,
        }
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
