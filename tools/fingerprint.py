#!/usr/bin/env python3
"""Per-instance fingerprints of xorcert's search and proofs, for claims that
two versions of the solver search and prove alike.

    python3 tools/fingerprint.py > after.txt
    python3 tools/fingerprint.py --src ../parent/src > before.txt
    diff before.txt after.txt

Each instance is solved, and an UNSAT proof checked, by perfbench's child
runner, `harness.Runner`, from the sources in --src (default: this
checkout's), under LIMITS, which no default-set instance reaches.  One line
per instance gives its name, the report's search and proof counters
(proof_deletes counts the ids deleted; ext_vars counts the BDD nodes
created, each one extension variable), the check's verdict, the size in
bytes and the sha256 of the proof file, and an add-step digest: the sha256
of the add steps alone, as `lrat.iter_proof` reads them, their ids
renumbered consecutively after the input clauses and their hints remapped
to match.  Delete steps take ids too, so a change that moves only
deletions changes the proof's sha256 but keeps its add-step digest.  A SAT
line ends with the sha256 of the solver's `v` line, the model.

The default set is the 55 instances of the benchmark's three workloads at
workload seed 1, each solved as perfbench solves it (with --var-order where
the instance has an order, with --no-xor on lpn-clausal), then five
default-order xor-mode solves: lpn n=6 seed 8, n=14 seed 77 and n=16
seed 2, urq m=8 seed 8, and lpn n=12 seed 2, whose at-most-(k-1) bound is
satisfiable.  Instances come from perfbench/workloads.py, which this
script, like perfbench/harness.py, only imports.  --workload NAME
(repeatable) keeps only the named workloads' lines of the default set.
--instance FAMILY:SIZE:SEED[:unsat] (repeatable) runs those default-order
xor-mode solves instead.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import harness, workloads  # noqa: E402
from xorcert import lrat  # noqa: E402

SEED = 1
DEFAULT_ORDER = ("lpn:6:8:unsat", "lpn:14:77:unsat", "lpn:16:2:unsat", "urq:8:8",
                 "lpn:12:2:unsat")
FIELDS = (
    "status", "conflicts", "decisions", "propagations", "parity_propagations",
    "proof_adds", "proof_deletes", "justifications", "ext_vars", "peak_bdd_nodes",
    "gc_collections",
)
# 600 s a child, the solver's own proof budget and a 1 EiB address-space cap
LIMITS = harness.Limits(timeout_s=600, max_proof_clauses=lrat.DEFAULT_MAX_PROOF_CLAUSES,
                        mem_mb=1 << 40)


def add_digest(proof: bytes, num_inputs: int) -> str:
    """sha256 of the add steps of an LRAT proof, with the k-th add step
    renumbered num_inputs + k and every hint remapped to match."""
    renum: dict[int, int] = {}
    h = hashlib.sha256()
    for step in lrat.iter_proof(proof.splitlines()):
        if isinstance(step, lrat.AddStep):
            new = renum[step.id] = num_inputs + 1 + len(renum)
            hints = [renum.get(x, x) for x in step.hints]
            h.update(" ".join(map(str, (new, *step.lits, 0, *hints, 0))).encode() + b"\n")
    return h.hexdigest()


def default_runs(names=None):
    """(label, instance, use_xor) for the default set, instances unwritten;
    only the lines of the workloads in `names` when it is given."""
    runs = []
    for wl in workloads.WORKLOADS.values():
        if names is None or wl.name in names:
            for spec in workloads.specs(wl.family, SEED, wl.use_xor):
                runs.append((wl.name, workloads.build(spec), wl.use_xor))
    return runs if names is not None else runs + spec_runs(DEFAULT_ORDER)


def spec_runs(texts):
    """Default-order xor-mode runs of the instances named by `texts`."""
    runs = []
    for text in texts:
        inst = workloads.build(workloads.parse_spec(text))
        inst.var_order = None
        runs.append(("default-order", inst, True))
    return runs


def fingerprint(label, inst, use_xor, src, workdir) -> str:
    """Solve (and check) one written instance; returns its line."""
    runner = harness.Runner(sys.executable, src, workdir, LIMITS, use_xor)
    o = runner.run(inst)
    verdict = "-"
    if o.check is not None:
        verdict = "verified" if o.check.code == 0 else f"exit-{o.check.code}"
    with open(runner.proof_path(inst), "rb") as fh:
        data = fh.read()
    counters = " ".join(f"{k}={o.report[k]}" for k in FIELDS)
    line = (f"{label}/{inst.name} {counters} check={verdict} "
            f"proof_bytes={len(data)} proof_sha256={hashlib.sha256(data).hexdigest()} "
            f"add_digest={add_digest(data, inst.formula.num_clauses)}")
    if o.report["status"] == "SAT":
        (model,) = [l for l in o.solve.stdout.splitlines() if l.startswith("v ")]
        line += f" model_sha256={hashlib.sha256(model.encode()).hexdigest()}"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", default=os.path.join(ROOT, "src"),
                    help="directory holding the xorcert package to run")
    ap.add_argument("--instance", action="append",
                    help="run only this default-order xor-mode solve (repeatable), "
                         "e.g. urq:8:8 or lpn:14:77:unsat")
    ap.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS),
                    help="keep only this workload's lines of the default set (repeatable)")
    args = ap.parse_args(argv)
    src = os.path.abspath(args.src)
    runs = spec_runs(args.instance) if args.instance else default_runs(args.workload)
    with tempfile.TemporaryDirectory() as workdir:
        for label, inst, use_xor in runs:
            workloads.write_instances([inst], workdir)
            print(fingerprint(label, inst, use_xor, src, workdir), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
