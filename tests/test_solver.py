"""Solver behaviour against independent oracles, with every proof checked."""

import random
from io import StringIO

import pytest
from hypothesis import given, settings, strategies as st

from xorcert import gauss, solver, tbdd
from xorcert.benchgen import LpnConfig, UrqConfig, gen_lpn, gen_urquhart
from xorcert.formula import CnfFormula, ParityConstraint, xor_encoding_clauses
from xorcert.gauss import ReasonRecord
from xorcert.lrat import check, parse_proof
from xorcert.solver import LIMIT, SAT, UNSAT, Solver, luby

from test_gauss import add_row_into, full_scan, is_conflict, row_constraint


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


def never_collect(self, floor=None):
    """A `TbddEngine.maybe_collect` that leaves every node live."""


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
        s = Solver(f, proof_sink=sink)
        r = s.solve()
        assert r.status == SAT
        # the scan before search hands over two records: the unit row of the
        # recovered one-variable XOR a=1, and the summed row, which forces d
        assert r.parity_propagations == 2
        assert isinstance(s.reason[4], ReasonRecord)
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
        # proved it in 89,817 adds, and-imply sums in 47,909, and XOR BDDs
        # proved straight from their encoding clauses in 34,171
        inst = gen_urquhart(UrqConfig(m=5, seed=6))
        sink = StringIO()
        r = Solver(inst.formula, proof_sink=sink).solve()
        assert r.status == UNSAT
        res = assert_verified(inst.formula, sink.getvalue())
        assert res.adds <= 35_000

    def test_xor_bdd_build_collects(self, monkeypatch):
        # a recovered XOR's BDD build leaves no garbage, but the parity sums
        # after it do; here collecting it adds deletions to the proof and
        # nothing else
        inst = gen_urquhart(UrqConfig(m=5, seed=6))
        sink = StringIO()
        r = Solver(inst.formula, proof_sink=sink).solve()
        with monkeypatch.context() as m:
            m.setattr(tbdd.TbddEngine, "maybe_collect", never_collect)
            plain = Solver(inst.formula, proof_sink=StringIO()).solve()
        assert plain.gc_collections == 0
        assert r.status == UNSAT and r.proof_adds == plain.proof_adds
        # 4,770 without collections
        assert r.peak_bdd_nodes <= 3_000 and r.gc_collections > 0
        assert_verified(inst.formula, sink.getvalue())

    def test_closing_sum_holds_only_live_nodes(self, monkeypatch):
        # urq m=9 seed 10 is the m=9 instance of the benchmark's urq-refute
        # workload at workload seed 1.  Its one justification is the sum
        # that writes the empty clause: each input XOR is proved only when
        # the sum picks it, no BDD of it outlives the sum that consumes it,
        # and garbage is collected with no floor.  Holding every input and a 10,000-node
        # floor of garbage, the table peaked at 17,847 nodes.
        inst = gen_urquhart(UrqConfig(m=9, seed=10))
        sink = StringIO()
        s = Solver(inst.formula, proof_sink=sink)
        r = s.solve()
        assert (r.status, r.conflicts, r.justifications) == (UNSAT, 0, 1)
        assert_verified(inst.formula, sink.getvalue())
        assert r.peak_bdd_nodes <= 6_000 and r.gc_collections > 0
        assert s.xor_tbdds == [None] * r.num_xors
        with monkeypatch.context() as m:
            m.setattr(tbdd.TbddEngine, "maybe_collect", never_collect)
            plain = Solver(inst.formula, proof_sink=StringIO()).solve()
        assert plain.gc_collections == 0 and plain.proof_adds == r.proof_adds

    def test_closing_sum_proves_input_pairs_from_their_clauses(self):
        # urq m=5 seed 6 is the m=5 instance of the benchmark's urq-refute
        # workload at workload seed 1.  Pairs of inputs not yet proved are
        # summed straight from their clauses, and walk lemmas whose child
        # lemmas are trivial take one step: the proof had 26,379 adds when
        # each input's BDD was proved before every sum
        inst = gen_urquhart(UrqConfig(m=5, seed=6))
        sink = StringIO()
        r = Solver(inst.formula, proof_sink=sink).solve()
        assert r.status == UNSAT and r.proof_adds <= 21_000
        assert_verified(inst.formula, sink.getvalue())

    def test_search_time_sums_keep_their_inputs(self):
        # default-order lpn n=6 seed 8 justifies parity reasons during
        # search, where later sums may reuse each XOR's BDD
        summed = set()

        class Recording(Solver):
            def _justify(self, rec):
                assert rec.clause
                summed.update(gauss.bits(rec.origin))
                return super()._justify(rec)

        inst = gen_lpn(LpnConfig(n=6, bound_offset=True, seed=8))
        s = Recording(inst.formula, proof_sink=StringIO())
        r = s.solve()
        assert r.status == UNSAT and r.justifications == 10
        assert summed and all(s.xor_tbdds[i] is not None for i in summed)
        assert not any(t.dropped for t in s.xor_tbdds if t is not None)

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

    @pytest.mark.parametrize("rescale", [None, 1e3])
    def test_heap_picks_the_most_active_free_variable_and_stays_bounded(
            self, monkeypatch, rescale):
        if rescale is not None:
            monkeypatch.setattr(solver, "ACT_RESCALE", rescale)

        class Watched(Solver):
            decides = trims = rescales = 0
            heap = ()  # until __init__ builds the first heap

            def _decide(self):
                act, lval = self.activity, self.lval
                free = [v for v in range(1, len(act)) if lval[v] is None]
                want = max(free, key=lambda v: (act[v], -v), default=None)
                lit = super()._decide()
                assert (abs(lit) if lit else None) == want
                self.decides += 1
                return lit

            def _backtrack(self, lvl):
                super()._backtrack(lvl)
                assert len(self.heap) <= 2 * len(self.activity)

            def _rebuild_heap(self):
                self.trims += len(self.heap) > 2 * len(self.activity)
                super()._rebuild_heap()

            def _rescale(self):
                self.rescales += 1
                super()._rescale()

        # lpn-xor workload instances with 580 to 1,181 conflicts
        for seed in (49013, 51013, 73013):
            inst = gen_lpn(LpnConfig(n=12, bound_offset=True, seed=seed))
            s = Watched(inst.formula, var_order=inst.var_order)
            r = s.solve()
            assert r.status == UNSAT and r.conflicts >= 500
            assert s.decides == r.decisions
            assert s.trims > 0
            assert (s.rescales > 0) == (rescale is not None)

    def test_luby_sequence(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestTwoWatchedLiterals:
    """After every `_propagate` and `_backtrack`, each attached clause sits
    once in the watch list of `w[0]` and once in that of `w[1]`, and in no
    other; at a propagation fixpoint, a clause with a false watch has its
    other watch true."""

    @pytest.mark.parametrize("use_xor", [False, True])
    @pytest.mark.parametrize("n, seed, var_order", [(6, 8, False), (10, 3, False),
                                                     (12, 32013, True)])
    def test_watches_follow_w0_and_w1(self, use_xor, n, seed, var_order):
        class Checked(Solver):
            fixpoints = 0

            def __init__(self, *a, **kw):
                self.attached = []
                super().__init__(*a, **kw)

            def _attach(self, cl):
                self.attached.append(cl)
                super()._attach(cl)

            def assert_watch_lists(self):
                lists = {}  # id(clause) -> the literals whose lists hold it
                nvars = self.f.num_vars
                assert not self.watches[0]
                for lit in [*range(1, nvars + 1), *range(-nvars, 0)]:
                    for cl in self.watches[lit]:
                        lists.setdefault(id(cl), []).append(lit)
                assert len(lists) == len(self.attached)
                for cl in self.attached:
                    assert sorted(lists[id(cl)]) == sorted(cl.w[:2])

            def _propagate(self):
                out = super()._propagate()
                self.assert_watch_lists()
                if out is None:
                    self.fixpoints += 1
                    lval = self.lval
                    for cl in self.attached:
                        a, b = cl.w[:2]
                        if lval[a] is False or lval[b] is False:
                            assert lval[a] or lval[b], cl.w
                return out

            def _backtrack(self, lvl):
                super()._backtrack(lvl)
                self.assert_watch_lists()

        inst = gen_lpn(LpnConfig(n=n, bound_offset=True, seed=seed))
        s = Checked(inst.formula, use_xor=use_xor, proof_sink=StringIO(),
                    var_order=inst.var_order if var_order else None)
        r = s.solve()
        assert r.status == UNSAT and r.conflicts > 20 and s.fixpoints > 20
        assert len(s.attached) > inst.formula.num_clauses


class TestLevelZeroRefutation:
    def test_closing_sum_holds_no_engine_and_no_clause_store(self, monkeypatch):
        # urq m=5 is refuted by its zero row of odd phase before any search:
        # its one sum, the closing one, reads only the row's origin and the
        # XORs, so the parity engine is gone and no watch list is built
        f = gen_urquhart(UrqConfig(m=5, seed=5)).formula
        sink = StringIO()
        s = Solver(f, proof_sink=sink)
        greedy = tbdd.TbddEngine.greedy_sum
        during = []

        def logged(eng, items):
            during.append((s.par, s.watches))
            return greedy(eng, items)

        monkeypatch.setattr(tbdd.TbddEngine, "greedy_sum", logged)
        assert s.solve().status == UNSAT
        assert during == [(None, [])]
        assert check(f, parse_proof(sink.getvalue())).ok


class TestLimits:
    def test_timeout_yields_limit(self):
        f = TestSearchMachinery().hard_unsat()
        r = Solver(f, timeout=0.0).solve()
        assert r.status == LIMIT
        assert r.stop_reason == "timeout"

    def test_timeout_stops_full_reduce(self, monkeypatch):
        # four independent rows, so the reduction takes four pivot columns;
        # a fake clock passes the deadline during the first elimination, the
        # forward pass summing row 0 (x1 + x2) into row 3 (x1 + x3 + x4),
        # the other holder of x1
        clauses = []
        for vs, ph in [((1, 2), 1), ((2, 3), 1), ((1, 3, 4), 0), ((3, 4), 1)]:
            clauses += xor_encoding_clauses(ParityConstraint(vs, ph))
        now = [0.0]
        monkeypatch.setattr(solver.time, "monotonic", lambda: now[0])
        add_into = gauss.ParityEngine._add_row_into_set
        sums = []

        def expire(self, src, dsts):
            add_into(self, src, dsts)
            sums.append((src, dsts))
            now[0] = 10.0

        monkeypatch.setattr(gauss.ParityEngine, "_add_row_into_set", expire)
        r = Solver(CnfFormula(4, clauses), timeout=1.0).solve()
        assert (r.status, r.stop_reason) == (LIMIT, "timeout")
        assert sums == [(0, 0b1000)]

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
        s._prepare_parity()
        return f, s, sink

    def test_cache_hit_then_invalidation(self):
        f, s, sink = self.build()
        # after reduction row 0 is x1^x3=0 with origin {0,1}
        assert row_constraint(s.par, 0) == ParityConstraint((1, 3), 0)
        recs = full_scan(s.par, {1: True})
        rec = next(r for r in recs if r.row == 0)
        pid1 = s._justify(rec)
        adds_after_first = s.writer.adds
        assert s._justify(rec) == pid1
        assert s.writer.adds == adds_after_first, "second call must hit the cache"
        # modify the row; the cached sum must be dropped and rebuilt
        add_row_into(s.par, 1, 0)
        assert row_constraint(s.par, 0) == ParityConstraint((1, 2), 1)
        rec2 = next(r for r in full_scan(s.par, {1: True}) if r.row == 0)
        pid2 = s._justify(rec2)
        assert pid2 != pid1
        s.tb.flush_deletes()
        res = check(f, parse_proof(sink.getvalue()), refutation=False)
        assert res.ok, res
        assert res.deletes > 0, "retired row sum must be deleted from the proof"


class TestParityUndoPerLevel:
    """`_backtrack` undoes the parity engine's assignment by restoring the
    bit sets saved when the level's decision was taken."""

    @pytest.mark.parametrize("n, seed", [(6, 8), (14, 77)])
    def test_bit_sets_match_the_trail_at_every_backtrack(self, n, seed):
        class Checked(Solver):
            backtracks = 0

            def assert_engine_follows_trail(self):
                # the bit sets rebuilt from the column literals of trail[:ghead]
                assigned = true = 0
                for lit in self.trail[:self.ghead]:
                    c = self.par.col_of.get(abs(lit))
                    if c is not None:
                        assigned |= 1 << c
                        true |= (lit > 0) << c
                assert (self.par.assigned, self.par.true) == (assigned, true)

            def _backtrack(self, lvl):
                self.assert_engine_follows_trail()
                super()._backtrack(lvl)
                assert self.ghead == self.qhead == len(self.trail)
                self.assert_engine_follows_trail()
                self.backtracks += 1

        # the default order, in which lpn n=14 seed 77 justifies parity reasons
        inst = gen_lpn(LpnConfig(n=n, bound_offset=True, seed=seed))
        s = Checked(inst.formula, proof_sink=StringIO())
        r = s.solve()
        assert r.status == UNSAT and r.parity_propagations > 0
        # every conflict but the last, at level 0, backjumps; so does each restart
        assert s.backtracks == r.conflicts - 1 + r.restarts > 0


class TestLazyJustification:
    """A parity record that implies a literal is its reason unjustified;
    conflict analysis justifies it the first time it resolves on it."""

    def test_unused_reasons_leave_the_clausal_proof(self):
        # an lpn-xor workload instance: clauses set every literal before the
        # parity engine could force it, so nothing is justified and no XOR
        # BDD is built; the engine's only records are the two unit rows the
        # scan before search finds, whose literals are input unit clauses
        inst = gen_lpn(LpnConfig(n=12, bound_offset=True, seed=32013))
        proofs = {}
        for use_xor in (True, False):
            sink = StringIO()
            r = Solver(inst.formula, use_xor=use_xor, proof_sink=sink,
                       var_order=inst.var_order).solve()
            assert r.status == UNSAT
            proofs[use_xor] = sink.getvalue()
            if use_xor:
                assert r.num_xors > 0 and r.parity_propagations == 2
                assert (r.ext_vars, r.justifications) == (0, 0)
        assert proofs[True] == proofs[False]

    def test_resolved_reason_justified_once_before_its_use(self, monkeypatch):
        calls = {}
        justify_clause = tbdd.TbddEngine.tbdd_justify_clause

        def counted(self, a, clause):
            pid = justify_clause(self, a, clause)
            calls.setdefault(clause, []).append(pid)
            return pid

        monkeypatch.setattr(tbdd.TbddEngine, "tbdd_justify_clause", counted)
        lazy = {}

        class Recording(Solver):
            def _justify(self, rec):
                pid = super()._justify(rec)
                lazy[pid] = not is_conflict(rec, self.lval.__getitem__)
                return pid

        inst = gen_lpn(LpnConfig(n=6, bound_offset=True, seed=8))
        sink = StringIO()
        r = Recording(inst.formula, proof_sink=sink).solve()
        assert r.status == UNSAT
        assert all(len(pids) == 1 for pids in calls.values())
        assert r.justifications == len(calls) > 0
        steps = parse_proof(sink.getvalue())
        assert check(inst.formula, steps).ok
        first_use = {}
        for st in steps:
            for h in getattr(st, "hints", ()):
                first_use.setdefault(h, st)
        # every justification is written just for a later step that hints
        # it, and some propagation reason first serves a learned clause
        assert all(first_use[pid].id > pid for (pid,) in calls.values())
        assert any(is_lazy and first_use[pid].lits for pid, is_lazy in lazy.items())

    def test_every_reason_implies_its_literal(self):
        # at each conflict, a decision has no reason and any other assigned
        # literal's reason, clause or parity record, is a clause holding
        # the literal with every other literal false
        kinds = set()

        class Checking(Solver):
            def _analyze(self, confl_lits, confl_pid):
                lval = self.lval
                decisions = {self.trail[i] for i in self.trail_lim}
                for lit in self.trail:
                    r = self.reason[abs(lit)]
                    assert (r is None) == (lit in decisions)
                    if r is not None:
                        kinds.add(type(r))
                        assert lit in r.clause
                        assert all(lval[q] is False for q in r.clause if q != lit)
                return super()._analyze(confl_lits, confl_pid)

        inst = gen_lpn(LpnConfig(n=6, bound_offset=True, seed=8))
        r = Checking(inst.formula, proof_sink=StringIO()).solve()
        assert r.status == UNSAT and r.conflicts > 0 and r.justifications > 0
        assert kinds == {solver._Clause, ReasonRecord}

    @pytest.mark.parametrize("stop", ["timeout", "proof-budget"])
    def test_limit_inside_a_lazy_justification(self, stop):
        class Expiring(Solver):
            expired = False

            def _justify(self, rec):
                # a lazy reason's implied literal is true, an eager one's false
                lazy = not is_conflict(rec, self.lval.__getitem__)
                if lazy and not self.expired and any(
                        self.xor_tbdds[i] is None for i in gauss.bits(rec.origin)):
                    # the first lazy reason whose sum needs an unbuilt XOR
                    # BDD: either limit runs out during its justification
                    self.expired = True
                    if stop == "timeout":
                        self.deadline = 0.0
                    else:
                        self.writer.max_clauses = self.writer.adds
                return super()._justify(rec)

        inst = gen_lpn(LpnConfig(n=6, bound_offset=True, seed=8))
        sink = StringIO()
        s = Expiring(inst.formula, proof_sink=sink)
        r = s.solve()
        assert s.expired
        assert (r.status, r.stop_reason) == (LIMIT, stop)
        assert_verified(inst.formula, sink.getvalue(), refutation=False)
