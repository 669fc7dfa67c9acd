"""Seeded instance sets for the benchmark's workloads.

Every instance is a pure function of the workload seed.  Candidate j of
size s has instance seed `seed + s + 1000 * j`; candidate 0 is the seed
`xorcert bench` would use.  Each instance's expected verdict comes from an
oracle in `xorcert.benchgen` that shares no code with the solver.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from xorcert import benchgen
from xorcert.formula import write_dimacs

# urq: Urquhart-style parity formulas, refuted before search by one greedy
# parity sum.  Cost is set by m and barely moves with the seed; at m=9 the
# BDD passes the 50,000-node collection threshold, so garbage collection runs.
URQ_SIZES = (5, 8, 9)

# lpn: noisy parity at n=12 under the at-most-(k-1) bound.  Keeping only
# candidates with exactly k corrupted rows that the oracle proves UNSAT holds
# the search effort per instance to a narrow band (conflicts vary by about a
# third), so a sum over a few dozen instances is steady from seed to seed.
LPN_N = 12
LPN_K = 4
LPN_INSTANCES = {True: 20, False: 32}  # xor mode, clausal mode
LPN_MAX_CANDIDATES = 4000


@dataclass(frozen=True)
class Workload:
    name: str
    family: str
    use_xor: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "urq-refute",
            "urq",
            True,
            "Urquhart m=5,8,9 refuted before search by greedy parity sums: tbdd, bdd "
            "and LRAT emission and checking do all the work, the CDCL loop none",
        ),
        Workload(
            "lpn-xor",
            "lpn",
            True,
            "20 noisy-parity refutations (n=12, 4 corrupted rows) in xor mode: search "
            "with Gauss-Jordan watches and a BDD justification per parity propagation",
        ),
        Workload(
            "lpn-clausal",
            "lpn",
            False,
            "the 20 lpn-xor instances and 12 more, with --no-xor: the clausal CDCL core "
            "alone, bypassing tbdd, gauss and parity justification",
        ),
    )
}


@dataclass
class Instance:
    name: str
    expected: str  # "SAT" or "UNSAT", from the oracle
    formula: object
    var_order: list | None = None
    cnf_path: str = ""
    order_path: str | None = None


@dataclass(frozen=True)
class Spec:
    """Generator settings of one instance."""

    family: str
    size: int
    seed: int
    unsat: bool = True  # lpn: the at-most-(k-1) bound


def instance_seed(seed: int, size: int, j: int) -> int:
    return seed + size + 1000 * j


def build(spec: Spec) -> Instance:
    """Generate the instance and ask the oracle for its verdict."""
    if spec.family == "urq":
        inst = benchgen.gen_urquhart(benchgen.UrqConfig(m=spec.size, seed=spec.seed))
        verdict = "UNSAT" if benchgen.parity_system_unsat(inst.constraints) else "SAT"
        return Instance(f"urq-m{spec.size}-s{spec.seed}", verdict, inst.formula)
    inst = benchgen.gen_lpn(
        benchgen.LpnConfig(n=spec.size, bound_offset=spec.unsat, seed=spec.seed)
    )
    kind = "unsat" if spec.unsat else "sat"
    return Instance(
        f"lpn-n{spec.size}-{kind}-s{spec.seed}",
        benchgen.lpn_oracle(inst),
        inst.formula,
        inst.var_order,
    )


def specs(family: str, seed: int, use_xor: bool) -> list[Spec]:
    """The workload's instances for this seed.  For lpn this scans candidate
    seeds, generating each and checking the UNSAT ones with the oracle.  How
    long the scan takes depends on the seed's luck, so it stays outside the
    timed set-up, which builds only the chosen instances."""
    if family == "urq":
        return [Spec("urq", m, instance_seed(seed, m, 0)) for m in URQ_SIZES]
    want = LPN_INSTANCES[use_xor]
    out = []
    for j in range(LPN_MAX_CANDIDATES):
        spec = Spec("lpn", LPN_N, instance_seed(seed, LPN_N, j))
        cfg = benchgen.LpnConfig(n=spec.size, bound_offset=spec.unsat, seed=spec.seed)
        inst = benchgen.gen_lpn(cfg)
        if inst.k == LPN_K and benchgen.lpn_oracle(inst) == "UNSAT":
            out.append(spec)
            if len(out) == want:
                return out
    raise RuntimeError(f"only {len(out)} lpn instances in {LPN_MAX_CANDIDATES} candidates")


def parse_spec(text: str) -> Spec:
    """FAMILY:SIZE:SEED[:sat|unsat], e.g. urq:8:8 or lpn:14:14:unsat."""
    parts = text.split(":")
    if len(parts) not in (3, 4) or parts[0] not in ("urq", "lpn"):
        raise ValueError(f"bad instance spec {text!r}")
    return Spec(parts[0], int(parts[1]), int(parts[2]), parts[3:] == ["unsat"])


def write_instances(instances, workdir: str):
    for inst in instances:
        inst.cnf_path = os.path.join(workdir, inst.name + ".cnf")
        with open(inst.cnf_path, "w") as fh:
            fh.write(write_dimacs(inst.formula))
        if inst.var_order is not None:
            inst.order_path = os.path.join(workdir, inst.name + ".order")
            with open(inst.order_path, "w") as fh:
                fh.write(" ".join(map(str, inst.var_order)) + "\n")
