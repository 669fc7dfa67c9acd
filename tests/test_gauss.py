"""Elimination engine: worked example, shadow bookkeeping, propagation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from xorcert.formula import ParityConstraint
from xorcert.gauss import CONFLICT, PROPAGATION, ParityEngine, ReasonRecord


def small_system(rng, nvars=6, nrows=6, allow_empty=False):
    cons = []
    for _ in range(rng.randint(1, nrows)):
        lo = 0 if allow_empty else 1
        k = rng.randint(lo, min(4, nvars))
        vs = tuple(sorted(rng.sample(range(1, nvars + 1), k)))
        cons.append(ParityConstraint(vs, rng.randint(0, 1)))
    return cons


def row_constraint(eng, r):
    """Row r of the matrix as a constraint over its columns' variables."""
    m = eng.rows[r]
    vs = tuple(eng.var_of_col[c] for c in range(m.bit_length()) if m >> c & 1)
    return ParityConstraint(vs, eng.phases[r])


def semantic_row(eng, r):
    """Fold the initial constraints named by the shadow row."""
    acc = ParityConstraint((), 0)
    for i in eng.origin_of(r):
        acc = acc.combine(eng.constraints[i])
    return acc


class TestWorkedExample:
    CONS = [
        ParityConstraint((1, 2), 1),
        ParityConstraint((1, 3), 0),
        ParityConstraint((1, 2, 3), 1),
    ]

    def test_initial_state(self):
        eng = ParityEngine(self.CONS, column_vars=[1, 2, 3])
        assert eng.rows == [0b011, 0b101, 0b111]
        assert eng.phases == [1, 0, 1]
        assert eng.shadow == [0b001, 0b010, 0b100]

    def test_eliminate_first_column(self):
        eng = ParityEngine(self.CONS, column_vars=[1, 2, 3])
        eng.eliminate_column(0, 0)
        # rows read leftmost-column-first: 110|1, 011|1, 001|0
        assert eng.rows == [0b011, 0b110, 0b100]
        assert eng.phases == [1, 1, 0]
        # shadow: 100, 110, 101
        assert eng.shadow == [0b001, 0b011, 0b101]

    def test_dump_layout(self):
        eng = ParityEngine(self.CONS, column_vars=[1, 2, 3])
        eng.eliminate_column(0, 0)
        text = eng.dump()
        assert "110 | 1    100" in text
        assert "011 | 1    110" in text
        assert "001 | 0    101" in text

    def test_origin_of_after_elimination(self):
        eng = ParityEngine(self.CONS, column_vars=[1, 2, 3])
        eng.eliminate_column(0, 0)
        assert eng.origin_of(0) == (0,)
        assert eng.origin_of(1) == (0, 1)
        assert eng.origin_of(2) == (0, 2)


class TestRowAlgebra:
    def test_self_sum_asserts(self):
        eng = ParityEngine([ParityConstraint((1,), 1)])
        with pytest.raises(AssertionError):
            eng.add_row_into(0, 0)

    def test_pivot_must_hold_column(self):
        eng = ParityEngine([ParityConstraint((1,), 1), ParityConstraint((2,), 0)])
        with pytest.raises(AssertionError):
            eng.eliminate_column(0, 1)

    def test_only_row_operations_modify_rows(self):
        eng = ParityEngine(
            [ParityConstraint((1, 2), 1), ParityConstraint((1, 3), 0),
             ParityConstraint((2, 3), 1)]
        )
        state = lambda: [(eng.rows[r], eng.phases[r], eng.shadow[r]) for r in range(3)]
        base = state()
        eng.start_watches()
        eng.on_assign(1, True)
        eng.on_assign(2, False)
        assert state() == base
        eng.eliminate_column(0, 0)  # sums row 0 into row 1, the only other holder
        now = state()
        assert (now[0], now[2]) == (base[0], base[2])
        assert row_constraint(eng, 1) == ParityConstraint((2, 3), 1)
        assert eng.origin_of(1) == (0, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_shadow_reconstructs_rows_under_random_ops(self, seed):
        rng = random.Random(seed)
        cons = small_system(rng, allow_empty=True)
        eng = ParityEngine(cons)
        n = len(eng.rows)
        for _ in range(rng.randint(0, 25)):
            if rng.randint(0, 1) and n >= 2:
                a, b = rng.sample(range(n), 2)
                eng.add_row_into(a, b)
            else:
                r = rng.randrange(n)
                cols = [c for c in range(len(eng.var_of_col))
                        if eng.rows[r] >> c & 1]
                if cols:
                    eng.eliminate_column(r, rng.choice(cols))
        for r in range(n):
            assert semantic_row(eng, r) == row_constraint(eng, r)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_full_reduce_is_rref(self, seed):
        rng = random.Random(seed)
        cons = small_system(rng)
        eng = ParityEngine(cons)
        eng.full_reduce()
        for pr, col in eng.pivot_of_row.items():
            holders = [r for r in range(len(eng.rows)) if eng.rows[r] >> col & 1]
            assert holders == [pr]
        for r in range(len(eng.rows)):
            assert semantic_row(eng, r) == row_constraint(eng, r)

    @pytest.mark.parametrize("seed", range(200))
    def test_full_reduce_matches_row_scan(self, seed):
        rng = random.Random(seed)
        nvars = rng.randint(1, 40)
        cons = small_system(rng, nvars=nvars, nrows=rng.randint(1, 40), allow_empty=True)
        eng = ParityEngine(cons, column_vars=rng.sample(range(1, nvars + 1), nvars))
        n = len(eng.rows)
        for _ in range(rng.randint(0, 5)):
            if n >= 2:
                eng.add_row_into(*rng.sample(range(n), 2))
        want = reference_full_reduce(eng)
        eng.full_reduce()
        assert (eng.rows, eng.phases, eng.shadow, eng.pivot_of_row) == want
        assert eng.col_rows == [
            sum(1 << r for r in range(n) if eng.rows[r] >> c & 1)
            for c in range(len(eng.var_of_col))
        ]


def reference_full_reduce(eng):
    """(rows, phases, shadow, pivot_of_row) after Gauss-Jordan by plain row
    scans: for each column in order the first row not yet a pivot that has
    a 1 there becomes its pivot and is summed into every other holder."""
    rows, phases, shadow = list(eng.rows), list(eng.phases), list(eng.shadow)
    pivot_of_row = {}
    for col in range(len(eng.var_of_col)):
        bit = 1 << col
        pr = next((r for r in range(len(rows))
                   if r not in pivot_of_row and rows[r] & bit), None)
        if pr is None:
            continue
        pivot_of_row[pr] = col
        for r in range(len(rows)):
            if r != pr and rows[r] & bit:
                rows[r] ^= rows[pr]
                phases[r] ^= phases[pr]
                shadow[r] ^= shadow[pr]
    return rows, phases, shadow, pivot_of_row


def implied_by(cons, clause, nvars):
    """True when every total assignment satisfying all of `cons` satisfies
    the clause (brute force)."""
    for bits in range(1 << nvars):
        asg = {v: bool(bits >> (v - 1) & 1) for v in range(1, nvars + 1)}
        if all(p.satisfied_by(asg) for p in cons):
            if not any(asg[abs(l)] == (l > 0) for l in clause):
                return False
    return True


def check_record_shape(eng, rec, assigned):
    if rec.kind == PROPAGATION:
        lit = rec.clause[0]
        assert abs(lit) not in assigned
        rest = rec.clause[1:]
    else:
        rest = rec.clause
    for l in rest:
        assert assigned[abs(l)] == (l < 0), "premise literal must be falsified"
    assert semantic_row(eng, rec.row) == row_constraint(eng, rec.row)


class TestFullScanPropagate:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_records_implied_and_well_formed(self, seed):
        rng = random.Random(seed)
        nvars = 6
        cons = small_system(rng, nvars=nvars, allow_empty=True)
        eng = ParityEngine(cons)
        if rng.random() < 0.5:
            eng.full_reduce()
        asg = {
            v: rng.random() < 0.5
            for v in range(1, nvars + 1)
            if rng.random() < 0.6
        }
        for rec in eng.propagate(asg):
            check_record_shape(eng, rec, asg)
            assert implied_by(cons, rec.clause, nvars)
        assert eng.value == {}, "full scan must not leak assignment state"

    def test_conflict_and_unit_reporting(self):
        cons = [ParityConstraint((1, 2), 1), ParityConstraint((1, 2), 0)]
        eng = ParityEngine(cons)
        eng.full_reduce()
        recs = eng.propagate({})
        kinds = sorted(r.kind for r in recs)
        assert kinds == [CONFLICT]
        assert recs[0].clause == ()

    def test_unit_row_propagates_with_no_premises(self):
        eng = ParityEngine([ParityConstraint((3,), 1)])
        recs = eng.propagate({})
        assert recs == [ReasonRecord((3,), (0,), PROPAGATION, 0)]


def run_watch(cons, order, decisions):
    eng = ParityEngine(cons, column_vars=order)
    eng.full_reduce()
    pending = list(eng.start_watches())
    assigned = {}
    i = 0
    while True:
        while pending:
            rec = pending.pop(0)
            if rec.kind == CONFLICT:
                return assigned, rec
            lit = rec.clause[0]
            v, val = abs(lit), lit > 0
            if v in assigned:
                if assigned[v] != val:
                    return assigned, rec
                continue
            assigned[v] = val
            pending.extend(eng.on_assign(v, val))
        if i == len(decisions):
            return assigned, None
        v, val = decisions[i]
        i += 1
        if v not in assigned:
            assigned[v] = val
            pending.extend(eng.on_assign(v, val))


def run_scan(cons, order, decisions):
    eng = ParityEngine(cons, column_vars=order)
    eng.full_reduce()
    assigned = {}
    i = 0
    while True:
        progress = False
        for rec in eng.propagate(assigned):
            if rec.kind == CONFLICT:
                return assigned, rec
            lit = rec.clause[0]
            v, val = abs(lit), lit > 0
            if v in assigned:
                if assigned[v] != val:
                    return assigned, rec
                continue
            assigned[v] = val
            progress = True
        if progress:
            continue
        if i == len(decisions):
            return assigned, None
        v, val = decisions[i]
        i += 1
        if v not in assigned:
            assigned[v] = val
            progress = True
    return assigned, None


class TestWatchedPath:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_matches_full_scan_fixpoint(self, seed):
        rng = random.Random(seed)
        nvars = 7
        cons = small_system(rng, nvars=nvars, nrows=7, allow_empty=True)
        order = list(range(1, nvars + 1))
        rng.shuffle(order)
        decisions = [
            (v, rng.random() < 0.5)
            for v in rng.sample(range(1, nvars + 1), rng.randint(0, nvars))
        ]
        a1, c1 = run_watch(cons, order, decisions)
        a2, c2 = run_scan(cons, order, decisions)
        assert (c1 is None) == (c2 is None)
        if c1 is None:
            assert a1 == a2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_backtracking_keeps_watches_sound(self, seed):
        rng = random.Random(seed)
        nvars = 6
        cons = small_system(rng, nvars=nvars, nrows=6)
        eng = ParityEngine(cons)
        eng.full_reduce()
        init = eng.start_watches()
        if any(r.kind == CONFLICT for r in init):
            return
        forced = {abs(r.clause[0]): r.clause[0] > 0 for r in init}
        trail = []

        def push(v, val):
            trail.append(v)
            return eng.on_assign(v, val)

        for v, val in forced.items():
            if any(r.kind == CONFLICT for r in push(v, val)):
                return
        for _ in range(30):
            free = [v for v in range(1, nvars + 1) if v not in eng.value]
            if trail and (not free or rng.random() < 0.35):
                cut = rng.randrange(len(trail))
                while len(trail) > cut:
                    eng.on_unassign(trail.pop())
                continue
            if not free:
                break
            v = rng.choice(free)
            val = rng.random() < 0.5
            recs = push(v, val)
            # whatever the watches report must agree with a full scan
            scan = eng.propagate(dict(eng.value))
            scan_conf = any(r.kind == CONFLICT for r in scan)
            watch_conf = any(r.kind == CONFLICT for r in recs)
            if watch_conf:
                assert scan_conf
                break
            scan_units = {abs(r.clause[0]) for r in scan if r.kind == PROPAGATION}
            for r in recs:
                if r.kind == PROPAGATION:
                    assert abs(r.clause[0]) in scan_units or scan_conf
            if scan_conf:
                break


class TestStartWatches:
    def test_empty_false_row_conflicts_immediately(self):
        eng = ParityEngine([ParityConstraint((), 1)])
        recs = eng.start_watches()
        assert recs == [ReasonRecord((), (0,), CONFLICT, 0)]

    def test_empty_true_row_is_inert(self):
        eng = ParityEngine([ParityConstraint((), 0)])
        assert eng.start_watches() == []

    def test_duplicate_constraints_cancel(self):
        cons = [ParityConstraint((1, 2), 1)] * 2
        eng = ParityEngine(cons)
        eng.full_reduce()
        assert eng.rows[1] == 0
        assert eng.phases[1] == 0
        assert eng.start_watches() == []
