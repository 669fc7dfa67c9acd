"""The benchmark's traced pass (perfbench/layers.py) wraps xorcert's entry
points by module and name.  This runs that pass on two small instances, so
a change that renames or removes a wrapped entry point, or that passes
keywords to a hot wrapper (positional arguments only), fails here rather
than in a benchmark run.

A solve proves each recovered XOR's BDD straight from its encoding clauses
and no longer reaches `tbdd_from_clause`, `tbdd_and` or `tbdd_upgrade`.
With the tracer installed, the test also builds one XOR's BDD through those
three, the conjunction path that tests/test_tbdd.py keeps as its oracle, so
their wrappers are still seen to install and record."""

import os

from xorcert import lrat
from xorcert.formula import ParityConstraint

from test_tbdd import constraint_tbdd, xor_bench

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

# every span the wrapped entry points record on these instances; bdd.gc
# comes from the sum that closes the urq refutation, which collects with
# no floor
SPANS = [
    "benchgen.gen", "benchgen.oracle", "formula.parse", "formula.extract", "bdd.gc",
    "tbdd.from_clause", "tbdd.and", "tbdd.upgrade", "tbdd.xor_sum",
    "tbdd.greedy_sum", "tbdd.justify", "gauss.full_reduce", "gauss.on_assign",
    "solver.solve", "lrat.add", "lrat.delete", "lrat.parse", "lrat.check",
]


def test_traced_pass_solves_and_checks(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(PERFBENCH)
    import harness
    import layers
    import spans
    import workloads

    add = lrat.ProofWriter.add
    tracer = spans.Tracer()
    runs = []
    try:
        layers.install(tracer)
        for spec in ("urq:3:1", "lpn:8:3:unsat"):
            inst = workloads.build(workloads.parse_spec(spec))
            workloads.write_instances([inst], str(tmp_path))
            proof = str(tmp_path / (inst.name + ".lrat"))
            runs.append(layers.traced_instance(inst, True, harness.Limits(), proof))
        p = ParityConstraint((1, 2, 3), 1)
        bench = xor_bench(p, 3)
        constraint_tbdd(bench, p, 1)
        bench.verify()
    finally:
        tracer.restore()
    assert lrat.ProofWriter.add is add
    # a crash inside the solve shows as its exception name
    assert [r.status for r in runs] == ["UNSAT", "UNSAT"]
    assert all(r.hint_visits > 0 for r in runs)
    # clauses set every literal of lpn:8:3 before the parity engine could
    # force it, though `gauss.on_assign` runs (SPANS below)
    assert runs[1].result.parity_propagations == 0
    totals = tracer.totals()
    assert [name for name in SPANS if totals.get(name, (0, 0, 0))[2] == 0] == []
