"""Solver behaviour against independent oracles, with every proof checked."""

import random
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from xorcert import solver, tbdd
from xorcert.benchgen import LpnConfig, UrqConfig, gen_lpn, gen_urquhart
from xorcert.formula import CnfFormula, ParityConstraint, xor_encoding_clauses
from xorcert.gauss import ReasonRecord
from xorcert.lrat import check, parse_proof
from xorcert.solver import LIMIT, SAT, UNSAT, Solver, luby

from test_gauss import row_constraint


def solve_formula(f: CnfFormula, **kw):
    return Solver(f, **kw).solve()


# -- oracles ----------------------------------------------------------------


def brute_sat(f: CnfFormula):
    """Exhaustive satisfiability check, usable up to ~16 variables."""
    n = f.num_vars
    for bits in range(1 << n):
        asg = {v: bool(bits >> (v - 1) & 1) for v in range(1, n + 1)}
        if all(any(asg[abs(l)] == (l > 0) for l in cl) for cl in f.clauses):
            return asg
    return None


def model_satisfies(f: CnfFormula, model):
    asg = {abs(l): l > 0 for l in model}
    return all(any(asg[abs(l)] == (l > 0) for l in cl) for cl in f.clauses)


def random_instance(rng, n, mode):
    clauses = []
    if mode != "cnf":
        for _ in range(rng.randint(1, n)):
            k = rng.randint(1, min(4, n))
            vs = tuple(sorted(rng.sample(range(1, n + 1), k)))
            clauses += xor_encoding_clauses(ParityConstraint(vs, rng.randint(0, 1)))
    if mode != "xor":
        for _ in range(rng.randint(1, 3 * n)):
            k = rng.randint(1, 3)
            vs = rng.sample(range(1, n + 1), k)
            clauses.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
    return CnfFormula(n, clauses)


def assert_verified(f, text, refutation=True):
    res = check(f, parse_proof(text), refutation=refutation)
    assert res.ok, res
    return res


# -- fuzz against the oracle ------------------------------------------------


class TestFuzzAgainstBruteForce:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["cnf", "xor", "mixed"]))
    def test_status_model_and_proof(self, seed, mode):
        rng = random.Random(seed)
        f = random_instance(rng, rng.randint(3, 9), mode)
        want = brute_sat(f)
        for use_xor in (True, False):
            sink = StringIO()
            r = Solver(f, use_xor=use_xor, proof_sink=sink).solve()
            if want is None:
                assert r.status == UNSAT
                assert_verified(f, sink.getvalue())
            else:
                assert r.status == SAT
                assert model_satisfies(f, r.model)
                assert_verified(f, sink.getvalue(), refutation=False)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_no_proof_mode_agrees(self, seed):
        rng = random.Random(seed)
        f = random_instance(rng, rng.randint(3, 8), "mixed")
        want = brute_sat(f)
        r = solve_formula(f)
        assert r.status == (SAT if want is not None else UNSAT)


# -- targeted behaviour -----------------------------------------------------


class TestBasics:
    def test_empty_formula_is_sat(self):
        r = solve_formula(CnfFormula(2, []))
        assert r.status == SAT
        assert sorted(abs(l) for l in r.model) == [1, 2]

    def test_empty_clause_is_unsat_with_proof(self):
        f = CnfFormula(1, [(1,), ()])
        sink = StringIO()
        r = Solver(f, proof_sink=sink).solve()
        assert r.status == UNSAT
        assert_verified(f, sink.getvalue())

    def test_contradictory_units(self):
        f = CnfFormula(1, [(1,), (-1,)])
        sink = StringIO()
        r = Solver(f, proof_sink=sink).solve()
        assert r.status == UNSAT
        assert_verified(f, sink.getvalue())

    def test_unit_propagation_only(self):
        f = CnfFormula(3, [(1,), (-1, 2), (-2, 3)])
        r = solve_formula(f)
        assert r.status == SAT
        assert r.model == [1, 2, 3]
        assert r.decisions == 0

    def test_var_order_must_be_permutation(self):
        with pytest.raises(ValueError):
            Solver(CnfFormula(2, [(1,)]), var_order=[1, 1])


class TestFlatStateBoundaries:
    """`lval` has 2n+1 slots, so literal -n (slot n+1) and literal n (slot n)
    never share one.  Here variable n is assigned first, by a unit, and both
    of its literals are read while propagation runs down to variable 1."""

    N = 6

    def clauses(self):
        n = self.N
        chain = [(v + 1, -v) for v in range(1, n)]  # -(v+1) forces -v
        parity = xor_encoding_clauses(ParityConstraint((1, n), 0))
        return [(-n,)] + chain + [(-n, 2)] + parity

    @pytest.mark.parametrize("use_xor", [True, False])
    def test_top_variable_unit_propagates_to_bottom(self, use_xor):
        n = self.N
        f = CnfFormula(n, self.clauses())
        sink = StringIO()
        r = Solver(f, use_xor=use_xor, proof_sink=sink, var_order=range(n, 0, -1)).solve()
        assert r.status == SAT
        assert r.model == list(range(-n, 0))
        assert r.decisions == 0
        assert_verified(f, sink.getvalue(), refutation=False)

    @pytest.mark.parametrize("use_xor", [True, False])
    def test_declared_variables_beyond_the_clauses(self, use_xor):
        total = self.N + 3
        f = CnfFormula(total, self.clauses())
        sink = StringIO()
        r = Solver(f, use_xor=use_xor, proof_sink=sink, var_order=range(total, 0, -1)).solve()
        assert r.status == SAT
        assert r.model == list(range(-total, 0))
        assert r.decisions == 3
        assert_verified(f, sink.getvalue(), refutation=False)


class TestParityReasoning:
    def test_summed_row_propagates_where_clauses_cannot(self):
        # a^b^c=0 and b^c^d=0 sum to a^d=0; with only a assigned the
        # clausal encodings are silent but the summed row forces d
        clauses = []
        for vs, ph in [((1, 2, 3), 0), ((2, 3, 4), 0)]:
            clauses += xor_encoding_clauses(ParityConstraint(vs, ph))
        clauses.append((1,))
        f = CnfFormula(4, clauses)
        sink = StringIO()
        r = Solver(f, proof_sink=sink).solve()
        assert r.status == SAT
        assert r.parity_propagations >= 1
        assert 4 in r.model
        assert_verified(f, sink.getvalue(), refutation=False)

    def test_pair_ring_refutes_without_search(self):
        clauses = []
        for i in range(20):
            a, b = i + 1, (i + 1) % 20 + 1
            ph = 1 if i == 0 else 0
            clauses += xor_encoding_clauses(ParityConstraint(tuple(sorted((a, b))), ph))
        f = CnfFormula(20, clauses)
        sink = StringIO()
        r = Solver(f, proof_sink=sink).solve()
        assert r.status == UNSAT
        assert r.conflicts == 0
        assert r.num_xors == 20
        res = assert_verified(f, sink.getvalue())
        assert res.deletes > 0

    def test_urquhart_proof_size_guard(self):
        # urq m=5 seed 6 is the m=5 instance of the benchmark's urq-refute
        # workload at workload seed 1; summing through a conjunction BDD
        # proved it in 89,817 adds, and-imply sums in 47,909
        inst = gen_urquhart(UrqConfig(m=5, seed=6))
        sink = StringIO()
        r = Solver(inst.formula, proof_sink=sink).solve()
        assert r.status == UNSAT
        res = assert_verified(inst.formula, sink.getvalue())
        assert res.adds <= 49_000

    def test_xor_bdd_build_collects(self, monkeypatch):
        # the conjunctions behind each recovered XOR's BDD are garbage once
        # it is built; here collecting them adds deletions to the proof and
        # nothing else
        inst = gen_urquhart(UrqConfig(m=5, seed=6))
        plain = Solver(inst.formula, proof_sink=StringIO()).solve()
        monkeypatch.setattr(tbdd, "GC_MIN_GROWTH", 500)
        sink = StringIO()
        r = Solver(inst.formula, proof_sink=sink).solve()
        assert r.status == UNSAT and r.proof_adds == plain.proof_adds
        # 4,651 when only the parity sums collect
        assert r.peak_bdd_nodes <= 3_000 and r.gc_collections > 0
        assert_verified(inst.formula, sink.getvalue())

    def test_xor_disabled_still_refutes_clausally(self):
        clauses = []
        for i in range(6):
            a, b = i + 1, (i + 1) % 6 + 1
            ph = 1 if i == 0 else 0
            clauses += xor_encoding_clauses(ParityConstraint(tuple(sorted((a, b))), ph))
        f = CnfFormula(6, clauses)
        sink = StringIO()
        r = Solver(f, use_xor=False, proof_sink=sink).solve()
        assert r.status == UNSAT
        assert r.num_xors == 0
        assert_verified(f, sink.getvalue())


class TestSearchMachinery:
    def hard_unsat(self):
        rng = random.Random(13)
        n = 50
        cl = [
            tuple(v if rng.random() < 0.5 else -v for v in rng.sample(range(1, n + 1), 3))
            for _ in range(int(4.5 * n))
        ]
        return CnfFormula(n, cl)

    def test_restarts_and_learning_with_proof(self):
        f = self.hard_unsat()
        sink = StringIO()
        r = Solver(f, proof_sink=sink).solve()
        assert r.status == UNSAT
        assert r.restarts >= 1
        assert r.learned > 50
        assert_verified(f, sink.getvalue())

    def test_deterministic_reruns(self):
        f = self.hard_unsat()
        outs = []
        for _ in range(2):
            sink = StringIO()
            r = Solver(f, proof_sink=sink).solve()
            outs.append((r.status, r.conflicts, r.decisions, sink.getvalue()))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("use_xor", [False, True])
    def test_activity_rescale_keeps_decision_order(self, monkeypatch, use_xor):
        # rescaling divides every activity by the same factor, so the search
        # must not notice it; a low threshold rescales many times per run
        inst = gen_lpn(LpnConfig(n=12, bound_offset=True, seed=32013))
        outs = []
        for rescale in (None, 1e2):
            if rescale is not None:
                monkeypatch.setattr(solver, "ACT_RESCALE", rescale)
            sink = StringIO()
            r = Solver(inst.formula, use_xor=use_xor, proof_sink=sink,
                       var_order=inst.var_order).solve()
            outs.append((r.status, r.conflicts, r.decisions, sink.getvalue()))
        assert outs[0][0] == UNSAT
        assert outs[1] == outs[0]

    def test_luby_sequence(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestLimits:
    def test_timeout_yields_limit(self):
        f = TestSearchMachinery().hard_unsat()
        r = Solver(f, timeout=0.0).solve()
        assert r.status == LIMIT
        assert r.stop_reason == "timeout"

    def test_proof_budget_yields_limit_and_wellformed_prefix(self):
        clauses = []
        for i in range(20):
            a, b = i + 1, (i + 1) % 20 + 1
            ph = 1 if i == 0 else 0
            clauses += xor_encoding_clauses(ParityConstraint(tuple(sorted((a, b))), ph))
        f = CnfFormula(20, clauses)
        sink = StringIO()
        r = Solver(f, proof_sink=sink, max_proof_clauses=10).solve()
        assert r.status == LIMIT
        assert r.stop_reason == "proof-budget"
        steps = parse_proof(sink.getvalue())
        assert sum(1 for s in steps if hasattr(s, "lits")) <= 10


class TestRowModificationInvalidatesJustificationCache:
    def build(self):
        clauses = []
        for vs, ph in [((1, 2), 1), ((2, 3), 1)]:
            clauses += xor_encoding_clauses(ParityConstraint(vs, ph))
        f = CnfFormula(3, clauses)
        sink = StringIO()
        s = Solver(f, proof_sink=sink)
        s._add_input_clauses()
        s._prepare_parity()
        return f, s, sink

    def test_cache_hit_then_invalidation(self):
        f, s, sink = self.build()
        # after reduction row 0 is x1^x3=0 with origin {0,1}
        assert row_constraint(s.par, 0) == ParityConstraint((1, 3), 0)
        recs = s.par.propagate({1: True})
        rec = next(r for r in recs if r.row == 0)
        pid1 = s._justify(rec)
        adds_after_first = s.writer.adds
        assert s._justify(rec) == pid1
        assert s.writer.adds == adds_after_first, "second call must hit the cache"
        # modify the row; the cached sum must be dropped and rebuilt
        s.par.add_row_into(1, 0)
        assert row_constraint(s.par, 0) == ParityConstraint((1, 2), 1)
        rec2 = next(r for r in s.par.propagate({1: True}) if r.row == 0)
        pid2 = s._justify(rec2)
        assert pid2 != pid1
        s.tb.flush_deletes()
        res = check(f, parse_proof(sink.getvalue()), refutation=False)
        assert res.ok, res
        assert res.deletes > 0, "retired row sum must be deleted from the proof"
