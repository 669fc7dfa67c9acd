#!/usr/bin/env python3
"""Seeded solve -> proof -> check benchmark for xorcert.

    python3 perfbench/run.py --workload urq-refute --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program under test is the
checkout's own `src/xorcert`.  Every instance of the workload is generated
from --seed, solved by `xorcert solve` in a child process with a proof
file, and each UNSAT verdict is checked by `xorcert check` in another
child.  Every verdict is compared with an oracle and every SAT model is
re-checked against the clauses here.

With --trace 0, rounds over the instance set repeat while another round
fits in --seconds, and the end-to-end metrics are medians over rounds.
Set-up (generation, oracle verdicts, file writing) is timed once before the
first child and repeated between children, and setup_s is the median.
With --trace 1, each instance runs once through the children and then once
more in this process with spans around each module's entry points, which
gives the per-layer metrics.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import harness
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

E2E = [
    ("par2_s", "s"),
    ("solve_s", "s"),
    ("check_s", "s"),
    ("proof_adds", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]
# After the first set-up, repeats run between children whenever set-up has
# taken less than SETUP_SHARE of the time since the first child, and at
# least SETUP_REPEATS builds are timed.  Spread over the whole run, their
# median follows the machine's speed as the children's times do; builds
# packed into one moment swing with that moment's speed.
SETUP_SHARE = 0.05
SETUP_REPEATS = 5
# No instance starts later than this after the first child (or than
# --seconds, if that is longer).  One instance may still need two killed
# children, 2 * (T + KILL_GRACE_S) = 70 s, so a run ends within 180 s.
RUN_DEADLINE_S = 90.0
INCORRECT = ("wrong", "rejected", "bad-model")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--instance",
        action="append",
        help="run only FAMILY:SIZE:SEED[:sat|unsat] (repeatable), e.g. urq:8:8",
    )
    return ap.parse_args(argv)


def machine_info(args, limits):
    commit = "unknown"  # a checkout without .git records only the source digest
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "xorcert")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest()[:16],
        "python": sys.version.split()[0],
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "T_s": limits.timeout_s,
        "B_adds": limits.max_proof_clauses,
        "M_mb": limits.mem_mb,
    }


def setup(specs, workdir):
    """Build the instances and write their files; returns them and the time taken."""
    import workloads  # imports xorcert, which main has put on the path

    t0 = time.perf_counter()
    instances = [workloads.build(s) for s in specs]
    workloads.write_instances(instances, workdir)
    return instances, time.perf_counter() - t0


def run_round(runner, instances, deadline, first):
    """One pass over the instances.  In the first round, instances the
    deadline leaves unstarted are charged as limit failures; a later round
    that meets the deadline is dropped (None)."""
    out = []
    for inst in instances:
        if time.perf_counter() > deadline:
            if not first:
                return None
            out.append(runner.skipped(inst, "run deadline passed before start"))
        else:
            out.append(runner.run(inst))
    return out


def print_round(outcomes):
    print(f"{'instance':<26} {'want':<5} {'exit':>4} {'solve_s':>8} {'check_s':>8} "
          f"{'adds':>8} {'rss_mb':>7}  failure")
    for o in outcomes:
        s, c = o.solve, o.check
        print(
            f"{o.name:<26} {o.expected:<5} {s.code if s else '-':>4} "
            f"{s.wall_s if s else 0:8.3f} {c.wall_s if c else 0:8.3f} "
            f"{o.report.get('proof_adds', '-'):>8} "
            f"{max(s.rss_mb, c.rss_mb if c else 0) if s else 0:7.1f}  "
            f"{': '.join(o.failure) if o.failure else ''}"
        )


def summary(outcomes, meta):
    failed = [o for o in outcomes if o.failure]
    for o in failed:
        print(f"FAILED {o.name}: {o.failure[0]}: {o.failure[1]}")
    meta["fail_frac"] = len(failed) / len(outcomes)
    print(f"fail_frac = {len(failed)}/{len(outcomes)} = {meta['fail_frac']:.3f}")
    print("# meta " + json.dumps(meta))
    return {
        "correct": not any(o.failure[0] in INCORRECT for o in failed),
        "attempted": len(outcomes),
        "failed": len(failed),
    }


def report(out, metrics, values):
    out["metrics"] = {}
    for name, unit in metrics:
        print(f"{name:<32} {values[name]:16.6f} {unit}")
        out["metrics"][name] = {"value": values[name], "unit": unit}
    return out


def untraced_run(args, wl, specs, limits, workdir, meta):
    instances, first_setup = setup(specs, workdir)
    setups = [first_setup]
    spare = os.path.join(workdir, "setup")  # repeat builds write here
    os.makedirs(spare)

    def repeat_setup():
        while sum(setups) < SETUP_SHARE * (time.perf_counter() - start):
            setups.append(setup(specs, spare)[1])

    runner = harness.Runner(sys.executable, SRC, workdir, limits, wl.use_xor, repeat_setup)
    start = time.perf_counter()
    deadline = start + max(RUN_DEADLINE_S, args.seconds)
    rounds = [run_round(runner, instances, deadline, first=True)]
    while True:
        spent = time.perf_counter() - start
        if spent + spent / len(rounds) > args.seconds:
            break
        r = run_round(runner, instances, deadline, first=False)
        if r is None:
            break
        rounds.append(r)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup(specs, spare)[1])
    print_round(rounds[0])
    costs = [harness.round_cost(r, limits) for r in rounds]
    values = {k: statistics.median(c[k] for c in costs) for k in harness.COST_METRICS}
    values["setup_s"] = statistics.median(setups)
    meta["rounds"] = len(rounds)
    meta["setup_builds"] = len(setups)
    meta["instances"] = len(instances)
    return report(summary([o for r in rounds for o in r], meta), E2E, values)


def traced_run(args, wl, specs, limits, workdir, meta):
    import layers  # imports xorcert, which main has put on the path

    tracer = spans.Tracer()
    layers.install(tracer)
    try:
        instances, _ = setup(specs, workdir)
        runner = harness.Runner(sys.executable, SRC, workdir, limits, wl.use_xor)
        start = time.perf_counter()
        deadline = start + max(RUN_DEADLINE_S, args.seconds)
        outcomes, pairs, mismatches, skipped = [], [], [], 0
        # each instance's child and traced runs follow each other, so a slow
        # spell of the machine hits both and the overhead estimate holds
        for inst in instances:
            if time.perf_counter() > deadline:
                outcomes.append(runner.skipped(inst, "run deadline passed before start"))
                skipped += 1
                continue
            o = runner.run(inst, hash_proof=True)
            outcomes.append(o)
            if time.perf_counter() > deadline:
                print(f"TRACE SKIPPED {inst.name}: run deadline passed")
                skipped += 1
                continue
            run = layers.traced_instance(
                inst, wl.use_xor, limits, runner.proof_path(inst) + ".traced"
            )
            pairs.append((o, run))
            diff = layers.mismatch(o, run)
            if diff is not None:
                mismatches.append(inst.name)
                print(f"TRACE MISMATCH {inst.name}: {diff}")
        print_round(outcomes)
    finally:
        tracer.restore()
    values = layers.layer_metrics(tracer, pairs, mismatches, skipped)
    meta["traced_run_s"] = round(time.perf_counter() - start, 3)
    meta["instances"] = len(instances)
    per_layer = [(name, unit) for name, unit, _ in layers.PER_LAYER]
    return report(summary(outcomes, meta), per_layer, values)


def main(argv=None) -> int:
    args = parse_args(argv)
    # a terminated run still kills its child and removes its files
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "xorcert", "__init__.py")):
        print(f"error: no xorcert sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import xorcert

    if not os.path.abspath(xorcert.__file__).startswith(SRC + os.sep):
        print(f"error: imported xorcert from {xorcert.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    limits = harness.Limits()
    meta = machine_info(args, limits)
    if args.instance:
        specs = [workloads.parse_spec(s) for s in args.instance]
    else:
        specs = workloads.specs(wl.family, args.seed, wl.use_xor)
    workroot = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(workroot, f"{wl.name}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        run = traced_run if args.trace else untraced_run
        result = run(args, wl, specs, limits, workdir, meta)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(workroot)
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
