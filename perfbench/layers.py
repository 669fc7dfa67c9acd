"""The traced in-process pass and the per-layer metrics it yields.

The pass repeats what the untraced children did (parse, solve with a proof
file, parse and check the proof) inside this process, with spans wrapped
around the public entry points of each xorcert module.  Per instance, its
status, conflicts, proof adds and proof hash are compared with the
untraced child; a difference is counted, printed and never hidden.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass

from xorcert import bdd, benchgen, formula, gauss, lrat, solver, tbdd

from harness import file_sha256
from proofstats import ProofStats, proof_stats

# (name, unit, better): every per-layer metric, in report order
PER_LAYER = [
    ("benchgen.gen_s", "s", "lower"),
    ("benchgen.oracle_s", "s", "lower"),
    ("formula.parse_s", "s", "lower"),
    ("formula.extract_s", "s", "lower"),
    ("formula.xors", "count", "higher"),
    ("bdd.nodes_created", "count", "lower"),
    ("bdd.peak_nodes", "count", "lower"),
    ("bdd.gc_s", "s", "lower"),
    ("bdd.gc_calls", "count", "lower"),
    ("tbdd.from_clause_s", "s", "lower"),
    ("tbdd.and_s", "s", "lower"),
    ("tbdd.and_calls", "count", "lower"),
    ("tbdd.upgrade_s", "s", "lower"),
    ("tbdd.xor_sum_s", "s", "lower"),
    ("tbdd.xor_sum_calls", "count", "lower"),
    ("tbdd.greedy_sum_s", "s", "lower"),
    ("tbdd.greedy_sum_calls", "count", "lower"),
    ("tbdd.greedy_sum_inputs", "count", "lower"),
    ("tbdd.justify_s", "s", "lower"),
    ("tbdd.justify_calls", "count", "lower"),
    ("gauss.full_reduce_s", "s", "lower"),
    ("gauss.on_assign_s", "s", "lower"),
    ("gauss.on_assign_calls", "count", "lower"),
    ("gauss.records", "count", "higher"),
    ("gauss.records_per_assign", "ratio", "higher"),
    ("solver.solve_s", "s", "lower"),
    ("solver.self_s", "s", "lower"),
    ("solver.conflicts", "count", "lower"),
    ("solver.decisions", "count", "lower"),
    ("solver.props", "count", "lower"),
    ("solver.parity_props", "count", "higher"),
    ("solver.props_per_s", "1/s", "higher"),
    ("solver.justify_per_parity_prop", "ratio", "lower"),
    ("lrat.emit_s", "s", "lower"),
    ("lrat.add_calls", "count", "lower"),
    ("lrat.proof_mb", "MB", "lower"),
    ("lrat.emit_mb_per_s", "MB/s", "higher"),
    ("lrat.def_steps", "count", "lower"),
    ("lrat.rup_steps", "count", "lower"),
    ("lrat.deleted_ids", "count", "higher"),
    ("lrat.parse_s", "s", "lower"),
    ("lrat.check_s", "s", "lower"),
    ("lrat.hint_visits", "count", "lower"),
    ("lrat.visits_per_s", "1/s", "higher"),
    ("lrat.core_frac", "ratio", "higher"),
    ("cli.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.mismatches", "count", "lower"),
    ("trace.skipped", "count", "lower"),
]


def install(tracer):
    """Wrap each module's public entry points; undo with tracer.restore()."""
    w = tracer.wrap
    w(benchgen, "gen_urquhart", "benchgen.gen")
    w(benchgen, "gen_lpn", "benchgen.gen")
    w(benchgen, "parity_system_unsat", "benchgen.oracle")
    w(benchgen, "lpn_oracle", "benchgen.oracle")
    w(formula, "parse_dimacs", "formula.parse")
    # the solver calls extract_xors through its own module namespace
    w(solver, "extract_xors", "formula.extract",
      on_result=lambda xs: tracer.count("formula.xors", len(xs)))
    w(bdd.Bdd, "garbage_collect", "bdd.gc")
    eng = tbdd.TbddEngine
    w(eng, "tbdd_from_clause", "tbdd.from_clause")
    w(eng, "tbdd_and", "tbdd.and")
    w(eng, "tbdd_upgrade", "tbdd.upgrade")
    w(eng, "tbdd_xor_sum", "tbdd.xor_sum")
    w(eng, "greedy_sum", "tbdd.greedy_sum",
      on_args=lambda _self, items: tracer.count("tbdd.greedy_sum_inputs", len(items)))
    w(eng, "tbdd_justify_clause", "tbdd.justify")
    w(gauss.ParityEngine, "full_reduce", "gauss.full_reduce")
    w(gauss.ParityEngine, "on_assign", "gauss.on_assign", hot=True,
      on_result=lambda recs: tracer.count("gauss.records", len(recs)))
    w(solver.Solver, "solve", "solver.solve")
    w(lrat.ProofWriter, "add", "lrat.add", hot=True)
    w(lrat.ProofWriter, "delete", "lrat.delete", hot=True)
    w(lrat, "parse_proof", "lrat.parse")
    w(lrat, "check", "lrat.check")


@dataclass
class TracedRun:
    status: str  # SAT / UNSAT / LIMIT, or the exception name of a crash
    conflicts: int = 0
    proof_adds: int = 0
    proof_sha: str = ""
    proof_bytes: int = 0
    solve_s: float = 0.0  # wall time of Solver.solve, wrappers included
    result: object = None  # SolveResult
    hint_visits: int = 0
    stats: ProofStats | None = None


def traced_instance(inst, use_xor, limits, proof_path) -> TracedRun:
    with open(inst.cnf_path) as fh:
        f = formula.parse_dimacs(fh.read())
    t0 = time.perf_counter()
    try:
        with open(proof_path, "w") as sink:
            res = solver.Solver(
                f,
                use_xor=use_xor,
                proof_sink=sink,
                max_proof_clauses=limits.max_proof_clauses,
                var_order=inst.var_order,
                timeout=limits.timeout_s,
            ).solve()
    except Exception as e:  # a crash is a result here, compared with the child's
        run = TracedRun(type(e).__name__)
    else:
        run = TracedRun(res.status, res.conflicts, res.proof_adds, result=res)
    run.solve_s = time.perf_counter() - t0
    run.proof_sha = file_sha256(proof_path)
    run.proof_bytes = os.path.getsize(proof_path)
    if run.status == solver.UNSAT:
        with open(proof_path) as fh:
            steps = lrat.parse_proof(fh.read())
        verdict = lrat.check(f, steps)
        run.hint_visits = getattr(verdict, "hint_literal_visits", 0)
        run.stats = proof_stats(steps)
    return run


def mismatch(outcome, run: TracedRun) -> str | None:
    """How the traced run differs from the untraced child, or None."""
    rep = outcome.report
    if not rep:
        # the child left no report: it crashed or was killed
        child = (outcome.failure or ("", ""))[1].split(":")[0]
        return None if child == run.status else f"child {child!r}, traced {run.status!r}"
    want = (rep["status"], rep["conflicts"], rep["proof_adds"], outcome.proof_sha)
    got = (run.status, run.conflicts, run.proof_adds, run.proof_sha)
    if want == got:
        return None
    return f"child {want[:3]}, traced {got[:3]}, same proof bytes: {want[3] == got[3]}"


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, pairs, mismatches, skipped) -> dict:
    """pairs: (untraced Outcome, TracedRun) of each instance that has both;
    figures that compare the two cover these instances only."""
    tot = tracer.totals()
    runs = [run for _, run in pairs]

    def self_s(name):
        return tot.get(name, (0.0, 0.0, 0))[0]

    def calls(name):
        return tot.get(name, (0.0, 0.0, 0))[2]

    results = [r.result for r in runs if r.result is not None]
    stats = ProofStats()
    for r in runs:
        if r.stats is not None:
            stats += r.stats
    m = {
        "benchgen.gen_s": self_s("benchgen.gen"),
        "benchgen.oracle_s": self_s("benchgen.oracle"),
        "formula.parse_s": self_s("formula.parse"),
        "formula.extract_s": self_s("formula.extract"),
        "formula.xors": tracer.counts["formula.xors"],
        "bdd.nodes_created": sum(r.ext_vars for r in results),
        "bdd.peak_nodes": max((r.peak_bdd_nodes for r in results), default=0),
        "bdd.gc_s": self_s("bdd.gc"),
        "bdd.gc_calls": calls("bdd.gc"),
        "tbdd.from_clause_s": self_s("tbdd.from_clause"),
        "tbdd.and_s": self_s("tbdd.and"),
        "tbdd.and_calls": calls("tbdd.and"),
        "tbdd.upgrade_s": self_s("tbdd.upgrade"),
        "tbdd.xor_sum_s": self_s("tbdd.xor_sum"),
        "tbdd.xor_sum_calls": calls("tbdd.xor_sum"),
        "tbdd.greedy_sum_s": self_s("tbdd.greedy_sum"),
        "tbdd.greedy_sum_calls": calls("tbdd.greedy_sum"),
        "tbdd.greedy_sum_inputs": tracer.counts["tbdd.greedy_sum_inputs"],
        "tbdd.justify_s": self_s("tbdd.justify"),
        "tbdd.justify_calls": calls("tbdd.justify"),
        "gauss.full_reduce_s": self_s("gauss.full_reduce"),
        "gauss.on_assign_s": self_s("gauss.on_assign"),
        "gauss.on_assign_calls": calls("gauss.on_assign"),
        "gauss.records": tracer.counts["gauss.records"],
        "solver.solve_s": tot.get("solver.solve", (0.0, 0.0, 0))[1],
        "solver.self_s": self_s("solver.solve"),
        "solver.conflicts": sum(r.conflicts for r in results),
        "solver.decisions": sum(r.decisions for r in results),
        "solver.props": sum(r.propagations for r in results),
        "solver.parity_props": sum(r.parity_propagations for r in results),
        "lrat.emit_s": self_s("lrat.add") + self_s("lrat.delete"),
        "lrat.add_calls": calls("lrat.add") + calls("lrat.delete"),
        "lrat.proof_mb": sum(r.proof_bytes for r in runs) / 1e6,
        "lrat.def_steps": stats.def_steps,
        "lrat.rup_steps": stats.rup_steps,
        "lrat.deleted_ids": stats.deleted_ids,
        "lrat.parse_s": self_s("lrat.parse"),
        "lrat.check_s": self_s("lrat.check"),
        "lrat.hint_visits": sum(r.hint_visits for r in runs),
        "lrat.core_frac": _ratio(stats.core_rup_steps, stats.rup_steps),
        "trace.mismatches": len(mismatches),
        "trace.skipped": skipped,
    }
    m["gauss.records_per_assign"] = _ratio(m["gauss.records"], m["gauss.on_assign_calls"])
    m["solver.props_per_s"] = _ratio(m["solver.props"], m["solver.self_s"])
    m["solver.justify_per_parity_prop"] = _ratio(m["tbdd.justify_calls"], m["solver.parity_props"])
    m["lrat.emit_mb_per_s"] = _ratio(m["lrat.proof_mb"], m["lrat.emit_s"])
    m["lrat.visits_per_s"] = _ratio(m["lrat.hint_visits"], m["lrat.check_s"])
    solved = [(o, run) for o, run in pairs if o.report]
    m["cli.overhead_s"] = sum(o.solve.wall_s - o.report["wall_time"] for o, _ in solved)
    # traced against untraced solve time, both without interpreter start-up
    child_solve = sum(o.report["wall_time"] for o, _ in solved)
    traced_solve = sum(run.solve_s for _, run in solved)
    m["trace.overhead_frac"] = _ratio(traced_solve, child_solve) - 1.0 if child_solve else 0.0
    return m
