"""Elimination engine: worked example, shadow bookkeeping, propagation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from xorcert.benchgen import UrqConfig, gen_urquhart
from xorcert.formula import ParityConstraint, extract_xors
from xorcert.gauss import ParityEngine, ReasonRecord, bits


def small_system(rng, nvars=6, nrows=6, allow_empty=False):
    cons = []
    for _ in range(rng.randint(1, nrows)):
        lo = 0 if allow_empty else 1
        k = rng.randint(lo, min(4, nvars))
        vs = tuple(sorted(rng.sample(range(1, nvars + 1), k)))
        cons.append(ParityConstraint(vs, rng.randint(0, 1)))
    return cons


def row_constraint(eng, r):
    """Row r of the matrix as a constraint over its columns' variables,
    sorted, as `ParityConstraint` requires under any column order."""
    vs = tuple(sorted(eng.var_of_col[c] for c in bits(eng.rows[r])))
    return ParityConstraint(vs, eng.phases[r])


def add_row_into(eng, src, dst):
    """Sum row `src` into row `dst`, the single-row form of the engine's
    set-wise row operation."""
    assert src != dst, "a row is never summed into itself"
    eng._add_row_into_set(src, 1 << dst)


def origin_of(eng, r):
    """The initial constraints summing to row r, as shadow row r names them."""
    return tuple(bits(eng.shadow[r]))


def semantic_row(cons, eng, r):
    """Fold the initial constraints `cons` named by the shadow row."""
    acc = ParityConstraint((), 0)
    for i in origin_of(eng, r):
        acc = acc.combine(cons[i])
    return acc


def is_conflict(rec, value):
    """How the solver reads a record against an assignment, `value(lit)`
    being True, False or None for a free literal: a conflict when its
    clause is empty or its first literal is false.  Otherwise the record
    implies a free first literal, or repeats a true one."""
    return not rec.clause or value(rec.clause[0]) is False


def value_in(asg):
    """Literal values under `asg`, a variable -> bool dict, for `is_conflict`."""
    return lambda lit: None if abs(lit) not in asg else asg[abs(lit)] == (lit > 0)


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
        assert origin_of(eng, 0) == (0,)
        assert origin_of(eng, 1) == (0, 1)
        assert origin_of(eng, 2) == (0, 2)


class TestRowAlgebra:
    def test_self_sum_asserts(self):
        eng = ParityEngine([ParityConstraint((1,), 1)])
        with pytest.raises(AssertionError):
            add_row_into(eng, 0, 0)

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
        eng.scan_all_rows()
        eng.on_assign([1, -2])
        assert state() == base
        eng.eliminate_column(0, 0)  # sums row 0 into row 1, the only other holder
        now = state()
        assert (now[0], now[2]) == (base[0], base[2])
        assert row_constraint(eng, 1) == ParityConstraint((2, 3), 1)
        assert origin_of(eng, 1) == (0, 1)

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
                add_row_into(eng, a, b)
            else:
                r = rng.randrange(n)
                cols = [c for c in range(len(eng.var_of_col))
                        if eng.rows[r] >> c & 1]
                if cols:
                    eng.eliminate_column(r, rng.choice(cols))
        for r in range(n):
            assert semantic_row(cons, eng, r) == row_constraint(eng, r)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_full_reduce_is_rref(self, seed, shuffled):
        rng = random.Random(seed)
        cons = small_system(rng)
        eng = ParityEngine(cons, column_vars=rng.sample(range(1, 7), 6) if shuffled else None)
        eng.full_reduce()
        for pr, col in pivots(eng).items():
            holders = [r for r in range(len(eng.rows)) if eng.rows[r] >> col & 1]
            assert holders == [pr]
        for r in range(len(eng.rows)):
            assert semantic_row(cons, eng, r) == row_constraint(eng, r)

    @pytest.mark.parametrize("seed", range(200))
    def test_full_reduce_matches_row_scan(self, seed):
        rng = random.Random(seed)
        nvars = rng.randint(1, 40)
        cons = small_system(rng, nvars=nvars, nrows=rng.randint(1, 40), allow_empty=True)
        eng = ParityEngine(cons, column_vars=rng.sample(range(1, nvars + 1), nvars))
        n = len(eng.rows)
        for _ in range(rng.randint(0, 5)):
            if n >= 2:
                add_row_into(eng, *rng.sample(range(n), 2))
        want = reference_full_reduce(eng)
        eng.full_reduce()
        assert (eng.rows, eng.phases, eng.shadow, pivots(eng)) == want
        assert eng.col_rows == [
            sum(1 << r for r in range(n) if eng.rows[r] >> c & 1)
            for c in range(len(eng.var_of_col))
        ]

    @pytest.mark.parametrize("system", ["urq-m5", "random"])
    def test_sparsest_pivots_reach_the_lowest_index_rref(self, system):
        # the RREF is unique for a column order, so pivoting on the sparsest
        # row leaves the nonzero rows that the lowest-index rule leaves
        if system == "urq-m5":
            cons = extract_xors(gen_urquhart(UrqConfig(m=5, seed=5)).formula)
        else:
            cons = small_system(random.Random(7), nvars=30, nrows=60, allow_empty=True)
        eng = ParityEngine(cons)
        rows, phases, _, lowest_pivots = reference_full_reduce(eng, sparsest=False)
        eng.full_reduce()
        assert pivots(eng) != lowest_pivots
        assert ({(m, ph) for m, ph in zip(eng.rows, eng.phases) if m}
                == {(m, ph) for m, ph in zip(rows, phases) if m})


def pivots(eng):
    """Row -> pivot column, read off the rows after `full_reduce`: in
    reduced row echelon form each nonzero row's pivot is its lowest column,
    and every other row is zero."""
    return {r: (m & -m).bit_length() - 1 for r, m in enumerate(eng.rows) if m}


def reference_full_reduce(eng, sparsest=True):
    """(rows, phases, shadow, pivot_of_row) after Gauss-Jordan by plain row
    scans: for each column in order, of the rows not yet a pivot that have
    a 1 there, the one with the fewest 1s (the first on ties; with
    `sparsest` False, the first) becomes its pivot and is summed into every
    other holder."""
    rows, phases, shadow = list(eng.rows), list(eng.phases), list(eng.shadow)
    pivot_of_row = {}
    for col in range(len(eng.var_of_col)):
        bit = 1 << col
        holders = [r for r in range(len(rows)) if r not in pivot_of_row and rows[r] & bit]
        if not holders:
            continue
        pr = min(holders, key=lambda r: bin(rows[r]).count("1")) if sparsest else holders[0]
        pivot_of_row[pr] = col
        for r in range(len(rows)):
            if r != pr and rows[r] & bit:
                rows[r] ^= rows[pr]
                phases[r] ^= phases[pr]
                shadow[r] ^= shadow[pr]
    return rows, phases, shadow, pivot_of_row


def full_scan(eng, assignment):
    """Records of every row under `assignment`, a variable -> bool dict,
    which alone it reads: conflicts and unit rows reported in row order.
    The reference for the engine's `on_assign`."""
    assigned = true = 0
    for v, val in assignment.items():
        c = eng.col_of.get(v)
        if c is not None:
            assigned |= 1 << c
            if val:
                true |= 1 << c
    out = []
    for r, m in enumerate(eng.rows):
        free = m & ~assigned
        if not free:
            if (eng.phases[r] ^ (m & true).bit_count()) & 1:
                out.append(eng._row_record(r, None, true))
        elif not free & (free - 1):
            out.append(eng._row_record(r, free.bit_length() - 1, true))
    return out


def implied_by(cons, clause, nvars):
    """True when every total assignment satisfying all of `cons` satisfies
    the clause (brute force)."""
    for bits in range(1 << nvars):
        asg = {v: bool(bits >> (v - 1) & 1) for v in range(1, nvars + 1)}
        if all(p.satisfied_by(asg) for p in cons):
            if not any(asg[abs(l)] == (l > 0) for l in clause):
                return False
    return True


def check_record_shape(cons, eng, rec, assigned):
    rest = rec.clause
    if not is_conflict(rec, value_in(assigned)):
        assert abs(rec.clause[0]) not in assigned, "a scan implies only free literals"
        rest = rec.clause[1:]
    for l in rest:
        assert assigned[abs(l)] == (l < 0), "premise literal must be falsified"
    assert semantic_row(cons, eng, rec.row) == row_constraint(eng, rec.row)


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
        # the engine holds an assignment of its own, which the scan must
        # neither read nor change
        eng.on_assign([v if rng.random() < 0.5 else -v
                       for v in rng.sample(range(1, nvars + 1), rng.randint(0, nvars))])
        before = (eng.assigned, eng.true)
        asg = {
            v: rng.random() < 0.5
            for v in range(1, nvars + 1)
            if rng.random() < 0.6
        }
        for rec in full_scan(eng, asg):
            check_record_shape(cons, eng, rec, asg)
            assert implied_by(cons, rec.clause, nvars)
        assert (eng.assigned, eng.true) == before, "full scan must not touch propagation state"

    def test_conflict_and_unit_reporting(self):
        cons = [ParityConstraint((1, 2), 1), ParityConstraint((1, 2), 0)]
        eng = ParityEngine(cons)
        eng.full_reduce()
        recs = full_scan(eng, {})
        assert [is_conflict(r, value_in({})) for r in recs] == [True]
        assert recs[0].clause == ()

    def test_unit_row_propagates_with_no_premises(self):
        eng = ParityEngine([ParityConstraint((3,), 1)])
        recs = full_scan(eng, {})
        assert recs == [ReasonRecord((3,), 0b1, 0)]


def run_batch(cons, order, decisions):
    """Fixpoint as the solver reaches it: each pass hands the engine every
    literal assigned since the one before."""
    eng = ParityEngine(cons, column_vars=order)
    eng.full_reduce()
    recs = eng.scan_all_rows()
    assigned = {}
    trail = []
    head = i = 0
    while True:
        for rec in recs:
            if is_conflict(rec, value_in(assigned)):
                return assigned, rec
            lit = rec.clause[0]
            v, val = abs(lit), lit > 0
            if v in assigned:
                continue
            assigned[v] = val
            trail.append(lit)
        if head == len(trail):
            if i == len(decisions):
                return assigned, None
            v, val = decisions[i]
            i += 1
            if v not in assigned:
                assigned[v] = val
                trail.append(v if val else -v)
        recs = eng.on_assign(trail[head:])
        head = len(trail)


def run_scan(cons, order, decisions):
    eng = ParityEngine(cons, column_vars=order)
    eng.full_reduce()
    assigned = {}
    i = 0
    while True:
        progress = False
        for rec in full_scan(eng, assigned):
            if is_conflict(rec, value_in(assigned)):
                return assigned, rec
            lit = rec.clause[0]
            v, val = abs(lit), lit > 0
            if v in assigned:
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


class TestBatchPath:
    # 70 columns make the column bit sets span two machine words
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(7, 7), (70, 40)]))
    def test_matches_full_scan_fixpoint(self, seed, size):
        rng = random.Random(seed)
        nvars, nrows = size
        cons = small_system(rng, nvars=nvars, nrows=nrows, allow_empty=True)
        order = list(range(1, nvars + 1))
        rng.shuffle(order)
        decisions = [
            (v, rng.random() < 0.5)
            for v in rng.sample(range(1, nvars + 1), rng.randint(0, nvars))
        ]
        a1, c1 = run_batch(cons, order, decisions)
        a2, c2 = run_scan(cons, order, decisions)
        assert (c1 is None) == (c2 is None)
        if c1 is None:
            assert a1 == a2

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([(6, 6), (70, 40)]))
    def test_batches_agree_with_full_scan_across_backtracks(self, seed, size):
        rng = random.Random(seed)
        nvars, nrows = size
        eng = ParityEngine(small_system(rng, nvars=nvars, nrows=nrows))
        if rng.random() < 0.5:
            eng.full_reduce()
        trail = []
        # per batch, the engine's bit sets and the trail length before it,
        # restored to undo it, as the solver restores them per decision level
        saved = []
        for _ in range(30):
            free = sorted(set(range(1, nvars + 1)) - {abs(l) for l in trail})
            if saved and (not free or rng.random() < 0.3):
                cut = rng.randrange(len(saved))
                (eng.assigned, eng.true), keep = saved[cut]
                del trail[keep:], saved[cut:]
                continue
            batch = [v if rng.random() < 0.5 else -v
                     for v in rng.sample(free, rng.randint(1, min(8, len(free))))]
            saved.append(((eng.assigned, eng.true), len(trail)))
            trail += batch
            cols = [eng.col_of[abs(l)] for l in batch if abs(l) in eng.col_of]
            touched = {r for r, m in enumerate(eng.rows) if any(m >> c & 1 for c in cols)}
            recs = eng.on_assign(batch)
            # only the rows holding a column of the batch can change records
            scan = full_scan(eng, {abs(l): l > 0 for l in trail})
            assert recs == [r for r in scan if r.row in touched]


class TestScanAllRows:
    def test_empty_false_row_conflicts_immediately(self):
        eng = ParityEngine([ParityConstraint((), 1)])
        recs = eng.scan_all_rows()
        assert recs == [ReasonRecord((), 0b1, 0)]

    def test_empty_true_row_is_inert(self):
        eng = ParityEngine([ParityConstraint((), 0)])
        assert eng.scan_all_rows() == []

    def test_duplicate_constraints_cancel(self):
        cons = [ParityConstraint((1, 2), 1)] * 2
        eng = ParityEngine(cons)
        eng.full_reduce()
        assert eng.rows[1] == 0
        assert eng.phases[1] == 0
        assert eng.scan_all_rows() == []
