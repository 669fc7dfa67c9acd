import heapq
import io
import itertools
import random
import types

import pytest

from xorcert.bdd import T0, T1
from xorcert.formula import CnfFormula, ParityConstraint, xor_encoding_clauses
from xorcert.lrat import ProofWriter, Verified, check, parse_proof
from xorcert import tbdd as tbdd_module
from xorcert.tbdd import ProofEngineError, Tbdd, TbddEngine

from test_bdd import evaluate, plain_and


class Bench:
    """A formula, a writer over a string buffer, and an engine on top."""

    def __init__(self, f: CnfFormula, order=None):
        self.f = f
        self.buf = io.StringIO()
        self.writer = ProofWriter(self.buf, f.num_clauses)
        self.engine = TbddEngine(order or list(range(1, f.num_vars + 1)), self.writer, f.num_vars)

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
        # Walked triples are counted through the walk's level lookups.
        n = 40
        ps = [ParityConstraint((i, i + 1), i % 2) for i in range(1, n + 1)]
        bench, ts = xor_system_bench(ps, n + 1)
        eng = bench.engine
        pu = eng.greedy_sum(ts[0::2])
        pv = eng.greedy_sum(ts[1::2])
        assert pu.constraint.vars == tuple(range(1, n + 1))
        assert pv.constraint.vars == tuple(range(2, n + 2))
        size_u = size_v = 2 * n - 1
        bound = 3 * size_u * size_v
        lookups = 0
        level = eng.bdd.level

        def counted(u):
            nonlocal lookups
            lookups += 1
            assert lookups <= bound, "walk revisits (u, v) pairs"
            return level(u)

        monkeypatch.setattr(eng.bdd, "level", counted)
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
            assert eng.bdd.created_total - created <= max(2 * k - 1, 0)
            bench.verify(refutation=s.root == T0)

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


class TestGreedySum:
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

    def test_drop_is_single_use(self):
        b = Bench(CnfFormula(2, [(1, 2)]))
        (t,) = clause_tbdds(b)
        b.engine.drop(t)
        with pytest.raises(AssertionError):
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


def test_ext_vars_above_inputs_and_monotone():
    b = Bench(CnfFormula(3, [(1, 2, 3), (1, 2)]))
    t1 = b.engine.tbdd_from_clause((1, 2, 3), 1)
    t2 = b.engine.tbdd_from_clause((1, 2), 2)
    evars = sorted(b.engine.defs)
    assert all(e > 3 for e in evars)
    assert evars == list(range(min(evars), min(evars) + len(evars)))
