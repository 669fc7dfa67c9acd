"""Tests of the benchmark harness itself.

    python3 -m pytest -q perfbench/tests

They feed the harness synthetic spans, proofs and child exits, and assert
nothing about counts the solver produces, so proof size and search stay
free to change.
"""

import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

from harness import ChildExit, Limits, Outcome, classify, cost, model_satisfies, round_cost
from layers import TracedRun, layer_metrics
from proofstats import proof_stats
from run import run_round
from spans import Tracer, self_times, summarize
from xorcert.lrat import parse_proof

LIMITS = Limits(timeout_s=10.0, max_proof_clauses=1000, mem_mb=256)


def ok_unsat(name="a", solve_s=1.0, check_s=0.5, adds=40, rss=(30.0, 20.0)):
    return Outcome(
        name,
        "UNSAT",
        solve=ChildExit(20, solve_s, rss[0]),
        check=ChildExit(0, check_s, rss[1]),
        report={"proof_adds": adds},
    )


# -- penalty arithmetic --------------------------------------------------------


def test_failed_instance_is_charged_twice_each_limit():
    o = Outcome("f", "UNSAT", solve=ChildExit(1, 3.0, 50.0), failure=("crash", "boom"))
    assert cost(o, LIMITS) == {
        "par2_s": 20.0,
        "solve_s": 20.0,
        "check_s": 20.0,
        "proof_adds": 2000,
        "peak_rss_mb": 512.0,
    }


def test_round_sums_costs_and_averages_peak_rss():
    good = ok_unsat(solve_s=1.0, check_s=0.5, adds=40, rss=(30.0, 35.0))
    sat = Outcome("s", "SAT", solve=ChildExit(10, 2.0, 25.0), report={"proof_adds": 7})
    bad = Outcome("f", "UNSAT", failure=("limit", "timeout"))
    r = round_cost([good, sat, bad], LIMITS)
    assert r["solve_s"] == 1.0 + 2.0 + 20.0
    assert r["check_s"] == 0.5 + 0.0 + 20.0
    assert r["par2_s"] == 1.5 + 2.0 + 20.0
    assert r["proof_adds"] == 40 + 7 + 2000
    assert r["peak_rss_mb"] == (35.0 + 25.0 + 512.0) / 3
    assert round_cost([good, sat], LIMITS)["peak_rss_mb"] == 30.0


class FakeRunner:
    def run(self, inst):
        return Outcome(inst, "UNSAT", solve=ChildExit(20, 1.0, 1.0))

    def skipped(self, inst, why):
        return Outcome(inst, "UNSAT", failure=("limit", why))


def test_first_round_charges_unstarted_instances_and_later_rounds_are_dropped():
    past = 0.0  # every instance meets the deadline
    first = run_round(FakeRunner(), ["a", "b"], past, first=True)
    assert [o.failure[0] for o in first] == ["limit", "limit"]
    assert run_round(FakeRunner(), ["a", "b"], past, first=False) is None
    done = run_round(FakeRunner(), ["a"], float("inf"), first=False)
    assert done[0].failure is None


def test_child_comparisons_cover_traced_instances_only():
    o = ok_unsat(solve_s=2.0)
    o.report["wall_time"] = 1.5
    m = layer_metrics(Tracer(), [(o, TracedRun("UNSAT", solve_s=1.8))], [], skipped=1)
    assert m["cli.overhead_s"] == 0.5
    assert m["trace.overhead_frac"] == pytest.approx(0.2)
    assert m["trace.skipped"] == 1
    empty = layer_metrics(Tracer(), [], [], skipped=2)
    assert empty["cli.overhead_s"] == 0 and empty["trace.overhead_frac"] == 0.0


# -- self time -----------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["solve", -1, 10.0, 1],
        ["and", 0, 4.0, 1],
        ["add", 1, 1.5, 300],  # aggregate of hot calls under "and"
        ["add", 0, 2.0, 500],
        ["check", -1, 3.0, 1],
    ]
    assert self_times(spans) == [4.0, 2.5, 1.5, 2.0, 3.0]
    tot = summarize(spans)
    assert tot["add"] == (3.5, 3.5, 800)
    assert tot["solve"] == (4.0, 10.0, 1)


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class Engine:
    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.t += 1.0
        self.inner()
        self.hot()
        self.hot()
        self.clock.t += 1.0

    def inner(self):
        self.clock.t += 2.0
        self.hot()

    def hot(self):
        self.clock.t += 0.25


def test_tracer_nests_spans_and_aggregates_hot_calls():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    tr.wrap(Engine, "outer", "outer")
    tr.wrap(Engine, "inner", "inner")
    tr.wrap(Engine, "hot", "hot", hot=True)
    try:
        Engine(clock).outer()
    finally:
        tr.restore()
    tot = tr.totals()
    assert tot["outer"] == (2.0, 4.75, 1)
    assert tot["inner"] == (2.0, 2.25, 1)
    assert tot["hot"] == (0.75, 0.75, 3)
    # one aggregate span per parent: under inner and under outer
    assert sum(1 for s in tr.spans if s[0] == "hot") == 2
    assert "traced" not in Engine.__dict__["outer"].__qualname__


# -- core fraction -------------------------------------------------------------

# input clauses are ids 1..4; 5 is a definition, 6, 7 and 9 are hinted,
# 8 deletes 7, and the empty clause 9 rests on 6, which rests on 5
PROOF = """\
5 -9 1 0 0
6 1 2 0 5 1 2 0
7 3 0 3 4 0
8 d 7 0
9 0 6 4 0
"""


def test_core_fraction_walks_hints_back_from_the_empty_clause():
    st = proof_stats(parse_proof(PROOF))
    assert (st.def_steps, st.rup_steps, st.deleted_ids) == (1, 3, 1)
    assert st.core_rup_steps == 2  # 9 and 6; 7 is not used


def test_proof_without_empty_clause_has_empty_core():
    st = proof_stats(parse_proof(PROOF.rsplit("9 0", 1)[0]))
    assert st.core_rup_steps == 0 and st.rup_steps == 2


# -- failure classification ----------------------------------------------------

TRACEBACK = """Traceback (most recent call last):
  File "tbdd.py", line 230, in _and_j
RecursionError: maximum recursion depth exceeded
"""


def test_traceback_exit_is_a_crash_with_its_last_line():
    kind, detail = classify("UNSAT", ChildExit(1, 62.0, 900.0, stderr=TRACEBACK), None, None)
    assert kind == "crash"
    assert detail == "RecursionError: maximum recursion depth exceeded"


def test_exit_30_is_a_limit():
    solve = ChildExit(30, 10.0, 40.0, stdout="s UNKNOWN\n")
    assert classify("UNSAT", solve, None, None)[0] == "limit"


def test_killed_child_is_a_limit():
    assert classify("SAT", ChildExit(-9, 15.0, 40.0, killed=True), None, None)[0] == "limit"


def test_signal_is_a_crash():
    assert classify("SAT", ChildExit(-11, 1.0, 40.0), None, None)[0] == "crash"


def test_check_exit_2_is_rejected():
    check = ChildExit(2, 0.5, 30.0, stdout="Rejected at step 77: bad hint\n")
    kind, detail = classify("UNSAT", ChildExit(20, 1.0, 40.0), check, None)
    assert kind == "rejected" and "step 77" in detail


def test_verdict_against_the_oracle_is_wrong():
    assert classify("UNSAT", ChildExit(10, 1.0, 40.0), None, True)[0] == "wrong"
    assert classify("SAT", ChildExit(20, 1.0, 40.0), ChildExit(0, 1.0, 1.0), None)[0] == "wrong"


def test_sat_model_is_rechecked():
    clauses = [(1, 2), (-1, 3), (-2, -3)]
    assert model_satisfies("s SATISFIABLE\nv 1 -2 3 0\n", clauses)
    assert not model_satisfies("s SATISFIABLE\nv 1 2 3 0\n", clauses)
    assert not model_satisfies("s SATISFIABLE\nv 1 0\n", clauses)
    assert not model_satisfies("v 1 -1 3 -2 0\n", clauses)
    assert classify("SAT", ChildExit(10, 1.0, 40.0), None, False)[0] == "bad-model"


def test_success_is_no_failure():
    assert classify("UNSAT", ChildExit(20, 1.0, 40.0), ChildExit(0, 1.0, 30.0), None) is None
    assert classify("SAT", ChildExit(10, 1.0, 40.0), None, True) is None
