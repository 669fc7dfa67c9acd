import functools
import heapq
import io
import itertools
import random
import re
import types

import pytest

from xorcert.bdd import T0, T1
from xorcert.benchgen import UrqConfig, gen_urquhart
from xorcert.formula import CnfFormula, ParityConstraint, xor_encoding_clauses
from xorcert.lrat import AddStep, DeleteStep, ProofWriter, Verified, check, parse_proof
from xorcert import tbdd as tbdd_module
from xorcert.solver import UNSAT, Solver
from xorcert.tbdd import HD, HU, LD, LU, DeadlineExceeded, ProofEngineError, Tbdd, TbddEngine

from test_bdd import evaluate, plain_and, var


class Bench:
    """A formula, a writer over a string buffer, and an engine on top."""

    def __init__(self, f: CnfFormula, order=None):
        self.f = f
        self.buf = io.StringIO()
        self.writer = ProofWriter(self.buf, f.num_clauses)
        self.engine = TbddEngine(order or list(range(1, f.num_vars + 1)), self.writer, f.num_vars,
                                 f.clause)

    def verify(self, refutation=False):
        res = check(self.f, parse_proof(self.buf.getvalue()), refutation=refutation)
        assert isinstance(res, Verified), getattr(res, "reason", res)
        return res


def clause_tbdds(bench, ids=None):
    return [
        bench.engine.tbdd_from_clause(cl, cid)
        for cid, cl in enumerate(bench.f.clauses, start=1)
        if ids is None or cid in ids
    ]


class TestEmitRup:
    # a chain 1 or 2, 2 -> 3, 3 -> 4, not 4; clause 5 holds when 1 is false
    F = CnfFormula(4, [(1, 2), (-2, 3), (-3, 4), (-4,), (-1, 3)])

    def cands(self, *ids):
        return [None if i is None else (i, self.F.clause(i)) for i in ids]

    def test_skips_none_and_satisfied_and_stops_at_the_conflict(self):
        b = Bench(self.F)
        sid = b.engine._emit_rup((1,), self.cands(None, 5, 1, None, 2, 3, 4, 1))
        (step,) = parse_proof(b.buf.getvalue())
        assert step == AddStep(sid, (1,), (1, 2, 3, 4))
        b.verify()

    @pytest.mark.parametrize("ids, message", [
        ((2, 1, 3, 4), r"hint 2 not unit while deriving \(1,\)"),
        ((5, 1, 2), r"no conflict while deriving \(1,\)"),
    ], ids=["not-unit", "no-conflict"])
    def test_out_of_shape_candidates_raise(self, ids, message):
        b = Bench(self.F)
        with pytest.raises(ProofEngineError, match=message):
            b.engine._emit_rup((1,), self.cands(*ids))
        assert b.buf.getvalue() == ""


class TestFromClause:
    def test_unit_clause(self):
        b = Bench(CnfFormula(2, [(1,)]))
        t = b.engine.tbdd_from_clause((1,), 1)
        assert t.root == b.engine.bdd.mk_node(1, T1, T0)
        b.verify()

    def test_random_clauses_semantics_and_proof(self):
        rng = random.Random(5)
        for _ in range(25):
            nv = rng.randint(2, 6)
            width = rng.randint(1, nv)
            vs = rng.sample(range(1, nv + 1), width)
            cl = tuple(v if rng.random() < 0.5 else -v for v in vs)
            b = Bench(CnfFormula(nv, [cl]))
            t = b.engine.tbdd_from_clause(cl, 1)
            for bits in itertools.product([False, True], repeat=nv):
                a = dict(zip(range(1, nv + 1), bits))
                want = any((l > 0) == a[abs(l)] for l in cl)
                assert evaluate(b.engine.bdd, t.root, a) == want
            b.verify()

    def test_single_rup_step_after_definitions(self):
        b = Bench(CnfFormula(3, [(1, -2, 3)]))
        b.engine.tbdd_from_clause((1, -2, 3), 1)
        steps = parse_proof(b.buf.getvalue())
        hinted = [s for s in steps if getattr(s, "hints", ())]
        assert len(hinted) == 1
        assert hinted[0].hints[-1] == 1  # ends at the input clause


class TestAnd:
    def test_matches_plain_and(self):
        rng = random.Random(9)
        for _ in range(20):
            nv = 5
            cls = []
            for _ in range(2):
                vs = rng.sample(range(1, nv + 1), rng.randint(1, 4))
                cls.append(tuple(v if rng.random() < 0.5 else -v for v in vs))
            if any(-l in cls[1] for l in cls[0]) and len(cls[0]) == 1 and len(cls[1]) == 1:
                continue  # contradictory units covered separately
            b = Bench(CnfFormula(nv, cls))
            ta, tb = clause_tbdds(b)
            tw = b.engine.tbdd_and(ta, tb)
            assert tw.root == plain_and(b.engine.bdd, ta.root, tb.root)
            for bits in itertools.product([False, True], repeat=nv):
                a = dict(zip(range(1, nv + 1), bits))
                want = all(any((l > 0) == a[abs(l)] for l in cl) for cl in cls)
                got = tw.root == T1 or (
                    tw.root != T0 and evaluate(b.engine.bdd, tw.root, a)
                )
                if tw.root in (T0, T1):
                    got = tw.root == T1
                assert got == want
            b.verify()

    def test_contradictory_units_give_empty_clause(self):
        b = Bench(CnfFormula(1, [(1,), (-1,)]))
        ta, tb = clause_tbdds(b)
        tw = b.engine.tbdd_and(ta, tb)
        assert tw.root == T0 and tw.unit_id > 0
        b.verify(refutation=True)

    def test_same_root_conjunction(self):
        b = Bench(CnfFormula(2, [(1, 2), (1, 2)]))
        ta, tb = clause_tbdds(b)
        assert ta.root == tb.root
        tw = b.engine.tbdd_and(ta, tb)
        assert tw.root == ta.root
        b.verify()

    def test_deep_conjunction_within_default_recursion_limit(self):
        # each clause's BDD is a 1,500-node chain, deeper than Python's
        # default recursion limit
        n = 1500
        wide = tuple(range(1, n + 1))
        b = Bench(CnfFormula(n, [wide, wide[:-1] + (-n,)]))
        ta, tb = clause_tbdds(b)
        tw = b.engine.tbdd_and(ta, tb)
        want = T0
        for x in reversed(wide[:-1]):
            want = b.engine.bdd.mk_node(x, T1, want)
        assert tw.root == want
        b.verify()

    def test_parity_conjunction_walk_is_polynomial(self, monkeypatch):
        # parity(x1..x40) and parity(x2..x41), each summed from 2-variable
        # XORs, meet in at most 4 node pairs per level, but along 2^40
        # paths: a walk without its (u, v) memo revisits pairs without end.
        # Walked triples are counted through the walk's node reads.
        n = 40
        ps = [ParityConstraint((i, i + 1), i % 2) for i in range(1, n + 1)]
        bench, ts = xor_system_bench(ps, n + 1)
        eng = bench.engine
        pu = eng.greedy_sum(ts[0::2])
        pv = eng.greedy_sum(ts[1::2])
        assert pu.constraint.vars == tuple(range(1, n + 1))
        assert pv.constraint.vars == tuple(range(2, n + 2))
        size_u = size_v = 2 * n - 1  # signed subfunctions of each operand
        bound = 3 * size_u * size_v
        lookups = 0
        node = eng.bdd.node

        def counted(u):
            nonlocal lookups
            lookups += 1
            assert lookups <= bound, "walk revisits (u, v) pairs"
            return node(u)

        monkeypatch.setattr(eng.bdd, "node", counted)
        tw = eng.tbdd_and(pu, pv)
        monkeypatch.undo()
        assert lookups > 0
        for bits in itertools.product([False, True], repeat=4):
            a = {i: False for i in range(1, n + 2)}
            a.update({1: bits[0], 2: bits[1], n: bits[2], n + 1: bits[3]})
            want = pu.constraint.satisfied_by(a) and pv.constraint.satisfied_by(a)
            assert evaluate(eng.bdd, tw.root, a) == want
        bench.verify()

    def test_conjunction_lemmas_serve_implication(self):
        p = ParityConstraint((1, 2, 3), 1)
        b = Bench(CnfFormula(3, xor_encoding_clauses(p)))
        ta, tb, *_ = clause_tbdds(b)
        tw = b.engine.tbdd_and(ta, tb)
        assert tw.root not in (ta.root, tb.root)
        before = b.writer.adds
        w, cand = b.engine._and_imply_j(ta.root, tb.root, tw.root)
        assert w == tw.root and cand is not None
        assert b.writer.adds == before
        b.verify()


class TestUpgrade:
    def test_identity_transfer_single_step(self):
        b = Bench(CnfFormula(2, [(1, 2)]))
        (ta,) = clause_tbdds(b)
        before = b.writer.adds
        tu = b.engine.tbdd_upgrade(ta, ta.root)
        assert tu.root == ta.root
        assert b.writer.adds == before + 1
        b.verify()

    def test_weakening_clause(self):
        # (x1) implies (x1 or x2)
        b = Bench(CnfFormula(2, [(1,)]))
        (ta,) = clause_tbdds(b)
        weaker = b.engine.bdd.mk_node(
            1, T1, b.engine.bdd.mk_node(2, T1, T0)
        )
        tu = b.engine.tbdd_upgrade(ta, weaker)
        assert tu.root == weaker
        b.verify()

    def test_implication_failure_raises(self):
        b = Bench(CnfFormula(2, [(1, 2)]))
        (ta,) = clause_tbdds(b)
        stronger = b.engine.bdd.mk_node(1, T1, T0)
        with pytest.raises(ProofEngineError):
            b.engine.tbdd_upgrade(ta, stronger)

    def test_conjunction_fold_reaches_parity_bdd(self):
        # conjoining a constraint's full encoding yields its canonical parity
        # BDD exactly, so the upgrade is the trivial transfer
        p = ParityConstraint((1, 2, 3), 1)
        f = CnfFormula(3, xor_encoding_clauses(p))
        b = Bench(f)
        ts = clause_tbdds(b)
        acc = ts[0]
        for t in ts[1:]:
            acc = b.engine.tbdd_and(acc, t)
        v = b.engine.bdd.parity_bdd(p.vars, p.phase)
        assert acc.root == v
        tu = b.engine.tbdd_upgrade(acc, v)
        assert tu.root == v
        b.verify()


def brute_implied(f_clauses, nv, by, clause):
    """Does `by` (a function on assignments) imply `clause`?"""
    for bits in itertools.product([False, True], repeat=nv):
        a = dict(zip(range(1, nv + 1), bits))
        if by(a) and not any((l > 0) == a[abs(l)] for l in clause):
            return False
    return True


class TestJustifyClause:
    def test_parity_reason_clause(self):
        p = ParityConstraint((1, 2, 3), 1)
        f = CnfFormula(3, xor_encoding_clauses(p))
        b = Bench(f)
        ts = clause_tbdds(b)
        acc = ts[0]
        for t in ts[1:]:
            acc = b.engine.tbdd_and(acc, t)
        tu = b.engine.tbdd_upgrade(acc, b.engine.bdd.parity_bdd(p.vars, p.phase))
        tu.constraint = p
        # all full-support clauses implied by the constraint
        for bits in itertools.product([0, 1], repeat=3):
            if (bits[0] ^ bits[1] ^ bits[2]) != p.phase:
                cl = tuple((v if not bit else -v) for v, bit in zip((1, 2, 3), bits))
                assert brute_implied(f.clauses, 3, lambda a: p.satisfied_by(a), cl)
                b.engine.tbdd_justify_clause(tu, cl)
        b.verify()

    def test_not_implied_raises(self):
        p = ParityConstraint((1, 2), 1)
        f = CnfFormula(2, xor_encoding_clauses(p))
        b = Bench(f)
        ts = clause_tbdds(b)
        acc = b.engine.tbdd_and(ts[0], ts[1])
        tu = b.engine.tbdd_upgrade(acc, b.engine.bdd.parity_bdd(p.vars, p.phase))
        # (x1 or -x2) blocks x1=0, x2=1, which satisfies the constraint
        with pytest.raises(ProofEngineError):
            b.engine.tbdd_justify_clause(tu, (1, -2))

    def test_trusted_false_needs_no_new_step(self):
        b = Bench(CnfFormula(1, [(1,), (-1,)]))
        ta, tb = clause_tbdds(b)
        tw = b.engine.tbdd_and(ta, tb)
        assert tw.root == T0
        before = b.writer.adds
        got = b.engine.tbdd_justify_clause(tw, (1,))
        assert got == tw.unit_id and b.writer.adds == before
        b.verify(refutation=True)


def constraint_tbdd(bench, p: ParityConstraint, first_id: int) -> Tbdd:
    """Input-constraint preparation: clause TBDDs, conjunction fold, upgrade."""
    eng = bench.engine
    ts = [
        eng.tbdd_from_clause(cl, first_id + i)
        for i, cl in enumerate(xor_encoding_clauses(p))
    ]
    acc = ts[0]
    for t in ts[1:]:
        nxt = eng.tbdd_and(acc, t)
        eng.drop(acc)
        eng.drop(t)
        acc = nxt
    out = eng.tbdd_upgrade(acc, eng.bdd.parity_bdd(p.vars, p.phase))
    eng.drop(acc)
    out.constraint = p
    return out


def xor_system_bench(ps, nv, order=None):
    clauses = []
    firsts = []
    for p in ps:
        firsts.append(len(clauses) + 1)
        clauses += xor_encoding_clauses(p)
    bench = Bench(CnfFormula(nv, clauses), order)
    ts = [constraint_tbdd(bench, p, fi) for p, fi in zip(ps, firsts)]
    return bench, ts


def xor_bench(p: ParityConstraint, nv: int, order=None, clauses=None) -> Bench:
    """A bench whose formula is p's encoding (or `clauses`), ids from 1."""
    return Bench(CnfFormula(nv, clauses or xor_encoding_clauses(p)), order)


def sourced(p: ParityConstraint, first: int, count: int) -> ParityConstraint:
    """p with source clauses first .. first + count - 1."""
    return ParityConstraint(p.vars, p.phase, tuple(range(first, first + count)))


def from_xor(bench, p: ParityConstraint) -> Tbdd:
    """p proved from all of the bench's clauses."""
    return bench.engine.tbdd_from_xor(sourced(p, 1, bench.f.num_clauses))


class TestFromXor:
    def test_root_is_the_conjunction_paths(self):
        rng = random.Random(31)
        for k in range(1, 7):
            for phase in (0, 1):
                for _ in range(3):
                    nv = k + 2
                    p = ParityConstraint(tuple(sorted(rng.sample(range(1, nv + 1), k))), phase)
                    bench = xor_bench(p, nv, rng.sample(range(1, nv + 1), nv))
                    p = sourced(p, 1, bench.f.num_clauses)
                    t = from_xor(bench, p)
                    assert t.constraint == p
                    assert t.root == bench.engine.bdd.parity_bdd(p.vars, p.phase)
                    bench.verify()
                    assert constraint_tbdd(bench, p, 1).root == t.root

    def test_steps_and_live_clauses(self):
        # at most 2^k - 1 RUP steps; afterwards only node definitions and
        # the root unit are live
        rng = random.Random(37)
        for k in range(1, 7):
            p = ParityConstraint(tuple(range(1, k + 1)), rng.randint(0, 1))
            bench = xor_bench(p, k, rng.sample(range(1, k + 1), k))
            t = from_xor(bench, p)
            steps = parse_proof(bench.buf.getvalue())
            adds = [s for s in steps if isinstance(s, AddStep)]
            assert len([s for s in adds if s.hints]) <= 2 ** k - 1
            deleted = {i for s in steps if isinstance(s, DeleteStep) for i in s.ids}
            live = {s.id for s in adds} - deleted
            defs = {c[0] for entry in bench.engine.defs.values() for c in entry if c}
            assert live == defs | {t.unit_id}

    def test_wrong_sign_clause_raises(self):
        # flipping the first literal of one encoding clause makes it block
        # an assignment that satisfies the constraint instead
        rng = random.Random(41)
        for k in range(1, 5):
            p = ParityConstraint(tuple(range(1, k + 1)), rng.randint(0, 1))
            cls = xor_encoding_clauses(p)
            for i, cl in enumerate(cls):
                bad = cls[:i] + [(-cl[0],) + cl[1:]] + cls[i + 1:]
                bench = xor_bench(p, k, rng.sample(range(1, k + 1), k), bad)
                with pytest.raises(ProofEngineError):
                    from_xor(bench, p)


def pair_bench(p: ParityConstraint, q: ParityConstraint, nv: int, order=None):
    """A bench whose formula is p's encoding then q's, and p and q sourced
    from it."""
    cp, cq = xor_encoding_clauses(p), xor_encoding_clauses(q)
    bench = Bench(CnfFormula(nv, cp + cq), order)
    return bench, sourced(p, 1, len(cp)), sourced(q, 1 + len(cp), len(cq))


def random_pair(rng, ka, kb):
    """Two constraints of arities ka and kb sharing exactly one variable,
    over ka + kb variables (one of them in neither)."""
    nv = ka + kb
    y, *rest = rng.sample(range(1, nv + 1), ka + kb - 1)
    p = ParityConstraint(tuple(sorted([y] + rest[:ka - 1])), rng.randint(0, 1))
    q = ParityConstraint(tuple(sorted([y] + rest[ka - 1:])), rng.randint(0, 1))
    return p, q, nv


class TestFromXorPair:
    def test_root_is_the_sum_and_no_input_is_built(self):
        rng = random.Random(43)
        for ka, kb in itertools.product(range(1, 4), repeat=2):
            for pa, pb in itertools.product((0, 1), repeat=2):
                p, q, nv = random_pair(rng, ka, kb)
                p, q = p._replace(phase=pa), q._replace(phase=pb)
                bench, p, q = pair_bench(p, q, nv, rng.sample(range(1, nv + 1), nv))
                eng = bench.engine
                t = eng.tbdd_from_xor(p, q)
                want = p.combine(q)
                assert t.constraint == want
                assert t.root == eng.bdd.parity_bdd(want.vars, want.phase)
                # the sum's own nodes are the only ones built
                assert eng.bdd.created_total == want.arity
                steps = parse_proof(bench.buf.getvalue())
                hinted = [st for st in steps if isinstance(st, AddStep) and st.hints]
                assert len(hinted) <= max(1, 2 ** want.arity - 1)
                bench.verify()

    def test_missing_clause_raises_naming_its_constraint(self):
        # flipping the first literal of one encoding clause leaves its input
        # without the clause blocking some assignment.  A unit input fixes
        # the shared variable, so the half of the other input's clauses
        # that block the unit's own wrong value are never read; every other
        # clause is
        rng = random.Random(47)
        for ka, kb in itertools.product(range(1, 4), repeat=2):
            p, q, nv = random_pair(rng, ka, kb)
            cp, cq = xor_encoding_clauses(p), xor_encoding_clauses(q)
            unneeded = 0
            for i in range(len(cp) + len(cq)):
                cls = cp + cq
                cls[i] = (-cls[i][0],) + cls[i][1:]
                bench = Bench(CnfFormula(nv, cls), rng.sample(range(1, nv + 1), nv))
                sp, sq = sourced(p, 1, len(cp)), sourced(q, 1 + len(cp), len(cq))
                bad, other = (sp, sq) if i < len(cp) else (sq, sp)
                with pytest.raises(ProofEngineError, match=re.escape(f"{bad} has no encoding clause")):
                    bench.engine.tbdd_from_xor(bad)
                try:
                    bench.engine.tbdd_from_xor(sp, sq)
                except ProofEngineError as e:
                    assert str(e).startswith(f"{bad} has no encoding clause")
                else:
                    assert other.arity == 1
                    unneeded += 1
            if ka == kb == 1:
                # equal units sum to 0 = 0, which needs no clause
                assert unneeded == (2 if p.phase == q.phase else 0)
            else:
                assert unneeded == (len(cp) // 2 if kb == 1 else len(cq) // 2 if ka == 1 else 0)

    def test_units_on_one_variable(self):
        # opposite units sum to 0 = 1: the empty clause, from the two units
        bench, p, q = pair_bench(ParityConstraint((1,), 1), ParityConstraint((1,), 0), 1)
        t = bench.engine.tbdd_from_xor(p, q)
        assert t.root == T0 and t.unit_id > 0 and t.constraint == ParityConstraint((), 1)
        assert bench.engine.bdd.num_nodes() == 0
        bench.verify(refutation=True)
        # equal units sum to 0 = 0: trivially true, with no step
        bench, p, q = pair_bench(ParityConstraint((1,), 1), ParityConstraint((1,), 1), 1)
        t = bench.engine.tbdd_from_xor(p, q)
        assert (t.root, t.unit_id, t.constraint) == (T1, 0, ParityConstraint((), 0))
        assert bench.writer.adds == 0

    def test_empty_or_unpaired_inputs_raise(self):
        bench, p, q = pair_bench(ParityConstraint((1, 2), 1), ParityConstraint((1, 2), 0), 3)
        r = ParityConstraint((3,), 1)
        with pytest.raises(ProofEngineError, match="share exactly one"):
            bench.engine.tbdd_from_xor(p, q)
        with pytest.raises(ProofEngineError, match="share exactly one"):
            bench.engine.tbdd_from_xor(p, r)
        with pytest.raises(ProofEngineError, match="empty"):
            bench.engine.tbdd_from_xor(ParityConstraint((), 1))
        assert bench.writer.adds == 0


class TestXorSum:
    def test_two_constraint_sum(self):
        ps = [ParityConstraint((1, 2), 1), ParityConstraint((2, 3), 0)]
        bench, ts = xor_system_bench(ps, 3)
        s = bench.engine.tbdd_xor_sum(ts[0], ts[1])
        assert s.constraint.vars == (1, 3) and s.constraint.phase == 1
        assert s.root == bench.engine.bdd.parity_bdd((1, 3), 1)
        bench.verify()

    def test_sum_includes_deletions(self):
        ps = [ParityConstraint((1, 2), 1), ParityConstraint((2, 3), 0)]
        bench, ts = xor_system_bench(ps, 3)
        bench.engine.tbdd_xor_sum(ts[0], ts[1])
        bench.engine.collect()
        steps = parse_proof(bench.buf.getvalue())
        assert any(not hasattr(s, "lits") for s in steps), "expected delete steps"
        bench.verify()

    def test_contradictory_sum_emits_empty(self):
        ps = [ParityConstraint((1, 2), 1), ParityConstraint((1, 2), 0)]
        bench, ts = xor_system_bench(ps, 2)
        s = bench.engine.tbdd_xor_sum(ts[0], ts[1])
        assert s.root == T0
        assert s.constraint.vars == () and s.constraint.phase == 1
        bench.verify(refutation=True)

    def test_self_sum_is_trivial(self):
        ps = [ParityConstraint((1, 2), 1), ParityConstraint((1, 2), 1)]
        bench, ts = xor_system_bench(ps, 2)
        s = bench.engine.tbdd_xor_sum(ts[0], ts[1])
        assert s.root == T1 and s.constraint.vars == ()
        bench.verify()


    def test_sum_builds_no_conjunction(self):
        # the only nodes a sum may create are those of its own parity BDD
        rng = random.Random(23)
        for _ in range(10):
            ps = [
                ParityConstraint(tuple(sorted(rng.sample(range(1, 8), rng.randint(2, 5)))),
                                 rng.randint(0, 1))
                for _ in range(2)
            ]
            bench, ts = xor_system_bench(ps, 7)
            eng = bench.engine
            created = eng.bdd.created_total
            s = eng.tbdd_xor_sum(ts[0], ts[1])
            k = len(s.constraint.vars)
            assert eng.bdd.created_total - created <= k
            bench.verify(refutation=s.root == T0)

    def test_trivial_children_close_in_one_step(self):
        # x1 = 1 plus x1 ^ x2 = 0 gives x2 = 1.  The walk's one triple sits
        # at x1: its hi child lemma is trivial and x1's unit node has a
        # two-literal definition, so the lemma is a single step, where a hi
        # step and the lemma made two; the sum writes 2 steps, not 3
        ps = [ParityConstraint((1,), 1), ParityConstraint((1, 2), 0)]
        bench, p, q = pair_bench(*ps, 2)
        eng = bench.engine
        ta, tb = eng.tbdd_from_xor(p), eng.tbdd_from_xor(q)
        before = bench.writer.adds
        s = eng.tbdd_xor_sum(ta, tb)
        assert s.constraint == ParityConstraint((2,), 1)
        assert bench.writer.adds - before == 2
        bench.verify()

    def test_wrong_phase_target_raises(self):
        ps = [ParityConstraint((1, 2, 3), 1), ParityConstraint((3, 4), 0)]
        bench, ts = xor_system_bench(ps, 4)
        eng = bench.engine
        wrong = eng.bdd.parity_bdd((1, 2, 4), 0)
        with pytest.raises(ProofEngineError):
            eng._and_imply_j(ts[0].root, ts[1].root, wrong)

    def test_deep_sum_within_default_recursion_limit(self):
        # 700 disjoint pairs sum to one 1,400-variable constraint whose BDD
        # is deeper than Python's default recursion limit
        n = 700
        ps = [ParityConstraint((i, n + i), i % 2) for i in range(1, n + 1)]
        bench, ts = xor_system_bench(ps, 2 * n)
        s = bench.engine.greedy_sum(ts)
        assert s.constraint.vars == tuple(range(1, 2 * n + 1))
        assert s.root == bench.engine.bdd.parity_bdd(s.constraint.vars, s.constraint.phase)
        bench.verify()


def reference_schedule(items):
    """The pairs `greedy_sum` sums, by plain search over (variable set,
    phase) items: among live items that share a variable, the pair of
    smallest symmetric difference, lowest positions on ties, else the two
    lowest positions.  A sum is a new item, and one reaching 0 = 1 ends the
    schedule."""
    live = dict(enumerate(items))
    overlap = {}  # live pairs that share a variable -> symmetric difference

    def enter(j):
        for i in live:
            if i < j and live[i][0] & live[j][0]:
                overlap[i, j] = len(live[i][0] ^ live[j][0])

    for j in list(live):
        enter(j)
    pos = len(items)
    picks = []
    while len(live) > 1:
        if overlap:
            i, j = min(overlap, key=lambda ij: (overlap[ij], ij))
        else:
            i, j = sorted(live)[:2]
        (vi, pi), (vj, pj) = live.pop(i), live.pop(j)
        picks.append((vi, vj))
        overlap = {ij: d for ij, d in overlap.items() if i not in ij and j not in ij}
        if vi == vj and pi != pj:
            break
        live[pos] = (vi ^ vj, pi ^ pj)
        enter(pos)
        pos += 1
    return picks


class TestGreedySum:
    def test_wide_bare_pairs_are_walked(self):
        # two bare XORs sharing one variable: arities 3 and 5 are summed
        # from their clauses, 4 and 5 proved alone and walked, as their
        # sum's 2^7 - 2 step chain would be the longer proof
        for ka, want in ((3, [[0, 1]]), (4, [[0], [1]])):
            ps = [ParityConstraint(tuple(range(1, ka + 1)), 1),
                  ParityConstraint(tuple(range(ka, ka + 5)), 0)]
            bench, p, q = pair_bench(*ps, ka + 4)
            eng = bench.engine
            proved = []
            from_xor = eng.tbdd_from_xor

            def logged(*cons):
                proved.append([(p, q).index(c) for c in cons])
                return from_xor(*cons)

            eng.tbdd_from_xor = logged
            s = eng.greedy_sum([p, q])
            assert proved == want
            assert s.constraint == p.combine(q)
            bench.verify()

    def test_schedule_matches_plain_greedy_on_urquhart(self, monkeypatch):
        # the schedule depends on supports alone, not on whether an input
        # comes as a Tbdd or bare, nor on how a pair is proved; its keys,
        # counted through the variable index, are the reference's symmetric
        # differences
        def con(t):
            return t if isinstance(t, ParityConstraint) else t.constraint

        calls = []  # per greedy_sum call: its inputs, then its picks
        greedy, pick = TbddEngine.greedy_sum, TbddEngine._sum_pick

        def logged_greedy(self, items):
            calls.append(([con(t) for t in items], []))
            return greedy(self, items)

        def logged_pick(self, a, b):
            calls[-1][1].append((frozenset(con(a).vars), frozenset(con(b).vars)))
            return pick(self, a, b)

        monkeypatch.setattr(TbddEngine, "greedy_sum", logged_greedy)
        monkeypatch.setattr(TbddEngine, "_sum_pick", logged_pick)
        for m in range(5, 10):
            calls.clear()
            inst = gen_urquhart(UrqConfig(m=m, seed=1))
            assert Solver(inst.formula, proof_sink=io.StringIO()).solve().status == UNSAT
            assert calls and sum(len(picks) for _, picks in calls) > 100
            for inputs, picks in calls:
                want = reference_schedule([(frozenset(c.vars), c.phase) for c in inputs])
                assert picks == want, m

    def test_chain_cancellation(self):
        rng = random.Random(17)
        for trial in range(10):
            nv = rng.randint(3, 7)
            k = rng.randint(2, 4)
            ps = []
            for _ in range(k):
                width = rng.randint(1, 3)
                vs = tuple(sorted(rng.sample(range(1, nv + 1), width)))
                ps.append(ParityConstraint(vs, rng.randint(0, 1)))
            total = ps[0]
            for p in ps[1:]:
                total = total.combine(p)
            bench, ts = xor_system_bench(ps, nv)
            s = bench.engine.greedy_sum(ts)
            assert s.constraint.vars == total.vars
            if s.root != T0:
                assert s.constraint.phase == total.phase
                want = bench.engine.bdd.parity_bdd(total.vars, total.phase)
                assert s.root == want
                bench.verify()
            else:
                bench.verify(refutation=True)

    def test_past_deadline_stops_before_a_sum(self):
        ps = [ParityConstraint((1, 2), 1), ParityConstraint((2, 3), 0), ParityConstraint((3, 4), 1)]
        bench, ts = xor_system_bench(ps, 4)
        adds = bench.writer.adds
        def expired():
            raise DeadlineExceeded("deadline passed")

        bench.engine.check_time = expired
        with pytest.raises(DeadlineExceeded):
            bench.engine.greedy_sum(ts)
        assert bench.writer.adds == adds
        bench.verify()

    def test_deterministic_bytes(self):
        ps = [
            ParityConstraint((1, 2, 3), 1),
            ParityConstraint((3, 4), 0),
            ParityConstraint((1, 4, 5), 1),
        ]
        runs = []
        for _ in range(2):
            bench, ts = xor_system_bench(ps, 5)
            bench.engine.greedy_sum(ts)
            runs.append(bench.buf.getvalue())
        assert runs[0] == runs[1]

    def test_greedy_prefers_overlapping_pair(self):
        # pair (1,2)+(2,3) has symmetric difference 2; disjoint pairs have 4
        ps = [
            ParityConstraint((1, 2), 0),
            ParityConstraint((2, 3), 0),
            ParityConstraint((4, 5), 0),
        ]
        bench, ts = xor_system_bench(ps, 5)
        s = bench.engine.greedy_sum(ts)
        assert s.constraint.vars == (1, 3, 4, 5)
        bench.verify()

    def test_heap_stays_linear_on_a_chain(self, monkeypatch):
        # every pair of a 400-link chain would put 79,800 entries in the
        # heap; pairs that share a variable number 399
        n = 400
        ps = [ParityConstraint((i, i + 1), 0) for i in range(1, n + 1)]
        peak = 0

        def tracked(op):
            def run(heap, *args):
                nonlocal peak
                out = op(heap, *args)
                peak = max(peak, len(heap))
                return out
            return run

        monkeypatch.setattr(tbdd_module, "heapq", types.SimpleNamespace(
            heapify=tracked(heapq.heapify),
            heappush=tracked(heapq.heappush),
            heappop=tracked(heapq.heappop),
            nsmallest=heapq.nsmallest,
        ))
        bench, ts = xor_system_bench(ps, n + 1)
        s = bench.engine.greedy_sum(ts)
        assert s.constraint.vars == (1, n + 1) and s.constraint.phase == 0
        assert 0 < peak <= 2 * n
        bench.verify()

    def test_disjoint_components_fall_back_to_position_order(self):
        # two components with no variable in common, plus an isolated unit,
        # interleaved so that position order and component order differ
        ps = [
            ParityConstraint((1, 2), 1),
            ParityConstraint((5, 6), 0),
            ParityConstraint((8,), 1),
            ParityConstraint((2, 3), 0),
            ParityConstraint((6, 7), 1),
            ParityConstraint((3, 4), 1),
        ]
        total = ps[0]
        for p in ps[1:]:
            total = total.combine(p)
        runs = []
        for _ in range(2):
            bench, ts = xor_system_bench(ps, 8)
            s = bench.engine.greedy_sum(ts)
            assert s.constraint == total
            assert s.root == bench.engine.bdd.parity_bdd(total.vars, total.phase)
            bench.verify()
            runs.append(bench.buf.getvalue())
        assert runs[0] == runs[1]


class TestLifetimeAndGc:
    def test_collect_keeps_proof_checkable(self):
        ps = [
            ParityConstraint((1, 2), 1),
            ParityConstraint((2, 3), 1),
            ParityConstraint((3, 4), 1),
        ]
        bench, ts = xor_system_bench(ps, 4)
        s = bench.engine.greedy_sum(ts)
        for t in ts:
            bench.engine.drop(t)
        bench.engine.drop(s)
        bench.engine.collect()
        assert bench.engine.bdd.num_nodes() == 0
        res = bench.verify()
        assert res.deletes > 0

    def test_collect_purges_and_imply_cache(self):
        ps = [
            ParityConstraint((1, 2, 3), 1),
            ParityConstraint((3, 4), 0),
            ParityConstraint((4, 5, 6), 1),
            ParityConstraint((1, 6), 0),
        ]
        bench, ts = xor_system_bench(ps, 6)
        eng = bench.engine
        s1 = eng.tbdd_xor_sum(ts[0], ts[1])
        s2 = eng.tbdd_xor_sum(ts[2], ts[3])
        s3 = eng.tbdd_xor_sum(s1, s2)
        keys = set(eng.and_imply_cache)
        for t in (s1, s2, ts[0], ts[1]):
            eng.drop(t)
        eng.collect()
        assert set(eng.and_imply_cache) < keys
        live = set(eng.bdd.nodes) | {T0, T1}
        assert all(n in live for key in eng.and_imply_cache for n in key)
        steps = parse_proof(bench.buf.getvalue())
        assert any(not hasattr(st, "lits") for st in steps), "expected delete steps"
        bench.verify()
        assert s3.root == eng.bdd.parity_bdd((2, 5), 0)

    def test_collections_follow_growth_rule(self, monkeypatch):
        # a collection needs more than max(floor, L / GC_GROWTH_DIV) nodes
        # built since the previous one, which left L nodes live; a fixed
        # threshold at the floor would collect after every sum here
        floor = 50
        monkeypatch.setattr(tbdd_module, "GC_MIN_GROWTH", floor)
        # links x_i + x_{i+1} + z_i with a private z_i, so sums widen as
        # they climb and each level leaves the one below as garbage
        n = 200
        ps = [ParityConstraint((i, i + 1, n + 1 + i), i % 2) for i in range(1, n + 1)]
        bench, ts = xor_system_bench(ps, 2 * n + 1)
        eng = bench.engine
        log = []  # (nodes created so far, nodes left live) per collection
        collect = eng.collect

        def logged():
            collect()
            log.append((eng.bdd.created_total, eng.bdd.num_nodes()))

        eng.collect = logged
        s = eng.greedy_sum(ts)
        assert s.constraint == ParityConstraint((1, *range(n + 1, 2 * n + 2)), n // 2 % 2)
        assert len(log) >= 3
        made = live = 0
        for created, after in log:
            assert created - made > max(floor, live / tbdd_module.GC_GROWTH_DIV)
            made, live = created, after
        assert max(live for _, live in log) > floor * tbdd_module.GC_GROWTH_DIV
        assert len(log) <= eng.bdd.created_total // floor + 1
        assert eng.gc_collections == len(log)
        bench.verify()

    def test_bare_inputs_are_proved_when_picked_and_dropped(self):
        # a cycle whose parities sum to 0 = 1; input 0 is a Tbdd the caller
        # keeps, the others are bare constraints that belong to the sum
        ps = [
            ParityConstraint((1, 2), 1),
            ParityConstraint((2, 3), 0),
            ParityConstraint((3, 4), 0),
            ParityConstraint((1, 4), 0),
        ]
        clauses = [xor_encoding_clauses(p) for p in ps]
        bench = Bench(CnfFormula(4, [cl for cls in clauses for cl in cls]))
        eng = bench.engine
        first = [1 + sum(map(len, clauses[:k])) for k in range(len(ps))]
        ps = [sourced(p, first[k], len(clauses[k])) for k, p in enumerate(ps)]
        proved = []  # per tbdd_from_xor call, the inputs it starts from
        from_xor = eng.tbdd_from_xor

        def logged(*cons):
            proved.append([ps.index(c) for c in cons])
            return from_xor(*cons)

        eng.tbdd_from_xor = logged
        kept = eng.tbdd_from_xor(ps[0])
        s = eng.greedy_sum([kept] + ps[1:])
        assert s.root == T0
        # input 1 is proved alone to meet the kept input; 2 and 3 share
        # variable 4 and are summed straight from their clauses
        assert proved == [[0], [1], [2, 3]]
        # the floor would keep this sum's few nodes; with no floor they go
        assert eng.gc_collections > 0
        assert not kept.dropped
        eng.collect()
        assert eng.bdd.num_nodes() == 2  # kept's parity BDD over two variables
        bench.verify(refutation=True)

    def test_drop_is_single_use(self):
        b = Bench(CnfFormula(2, [(1, 2)]))
        (t,) = clause_tbdds(b)
        b.engine.drop(t)
        with pytest.raises(ProofEngineError, match="double drop"):
            b.engine.drop(t)

    def test_node_reuse_after_collect_gets_fresh_evar(self):
        b = Bench(CnfFormula(2, [(1, 2)]))
        (t,) = clause_tbdds(b)
        old_root = t.root
        b.engine.drop(t)
        b.engine.collect()
        t2 = b.engine.tbdd_from_clause((1, 2), 1)
        assert t2.root != old_root
        b.verify()


class TestComplementEdges:
    def test_def_cand_of_complement_is_the_opposite_direction(self):
        b = Bench(CnfFormula(2, [(1, 2)]))
        eng = b.engine
        bdd = eng.bdd
        u2 = bdd.mk_node(2, T1, T0)
        n = bdd.mk_node(1, u2, -u2)
        assert n > 0 and eng._def_cand(-n, HD) == eng._def_cand(n, HU)
        for u in (n, -n):
            x, hi, lo = var(bdd, u), bdd.hi(u), bdd.lo(u)
            shapes = {HD: (-u, -x, hi), LD: (-u, x, lo), HU: (u, -x, -hi), LU: (u, x, -lo)}
            for role, shape in shapes.items():
                cand = eng._def_cand(u, role)
                assert cand == eng._def_cand(-u, role ^ 2)
                assert set(cand[1]) == set(shape)

    def test_complemented_root_justifies_and_survives_collect(self):
        # x1 ^ x2 ^ x3 == 0 has a complemented root under any order
        p = ParityConstraint((1, 2, 3), 0)
        bench = xor_bench(p, 3)
        eng = bench.engine
        t = from_xor(bench, p)
        assert t.root < 0 and -t.root in eng.bdd.nodes
        reasons = [tuple(cl) for cl in xor_encoding_clauses(p)]
        for cl in reasons:
            eng.tbdd_justify_clause(t, cl)
        eng.collect()  # the root's node is referenced only as its complement
        assert eng.bdd.num_nodes() == 3 and -t.root in eng.bdd.nodes
        for cl in reasons:
            eng.tbdd_justify_clause(t, cl)
        eng.drop(t)
        eng.collect()
        assert eng.bdd.num_nodes() == 0
        bench.verify()

    def test_complemented_clause_root(self):
        b = Bench(CnfFormula(2, [(-1,), (1, 2)]))
        ta, tb = clause_tbdds(b)
        assert ta.root < 0 and ta.root == -b.engine.bdd.mk_node(1, T1, T0)
        tw = b.engine.tbdd_and(ta, tb)
        assert tw.root == b.engine.bdd.mk_node(1, T0, b.engine.bdd.mk_node(2, T1, T0))
        b.engine.tbdd_justify_clause(tw, (-1, 2))
        for t in (ta, tb, tw):
            b.engine.drop(t)
        b.engine.collect()
        b.verify()

    def test_operand_and_its_complement(self):
        b = Bench(CnfFormula(2, [(1, 2)]))
        eng = b.engine
        (t,) = clause_tbdds(b)
        before = b.writer.adds
        assert eng._and_imply_j(t.root, -t.root) == (T0, None)
        w = eng.bdd.mk_node(2, T1, T0)  # a node of t's chain
        assert eng._and_imply_j(-t.root, t.root, w) == (w, None)
        assert b.writer.adds == before
        b.verify()


def test_ext_vars_above_inputs_and_monotone():
    b = Bench(CnfFormula(3, [(1, 2, 3), (1, 2)]))
    t1 = b.engine.tbdd_from_clause((1, 2, 3), 1)
    t2 = b.engine.tbdd_from_clause((1, 2), 2)
    evars = sorted(b.engine.defs)
    assert all(e > 3 for e in evars)
    assert evars == list(range(min(evars), min(evars) + len(evars)))
