import itertools
import random

import pytest

from xorcert.bdd import T0, T1, Bdd, BddCapacityError, TRUE_SENTINEL


def tt_bdd(engine, vars_top_down, truth):
    """Canonical BDD of an explicit truth table.  `truth` maps tuples of
    bools (aligned with vars_top_down) to bool.  Oracle-side builder: only
    uses mk_node, so agreement with operations is meaningful."""

    def build(prefix):
        if len(prefix) == len(vars_top_down):
            return T1 if truth[tuple(prefix)] else T0
        hi = build(prefix + [True])
        lo = build(prefix + [False])
        return engine.mk_node(vars_top_down[len(prefix)], hi, lo)

    return build([])


def level(b, u):
    """The level of handle u's node; a terminal's lies below every variable's."""
    return b.node(u)[0]


def var(b, u):
    """The variable tested by handle u's node."""
    return b.var_at[b.node(u)[0]]


def plain_and(b, u, v):
    """Conjunction without a proof or a memo: the oracle that the
    proof-backed `TbddEngine.tbdd_and` is checked against."""
    if u == T0 or v == T0:
        return T0
    if u == T1 or u == v:
        return v
    if v == T1:
        return u
    lu, lv = level(b, u), level(b, v)
    lvl = min(lu, lv)
    uh, ul = (b.hi(u), b.lo(u)) if lu == lvl else (u, u)
    vh, vl = (b.hi(v), b.lo(v)) if lv == lvl else (v, v)
    return b.mk_node(b.var_at[lvl], plain_and(b, uh, vh), plain_and(b, ul, vl))


def evaluate(b, u, assignment):
    """Follow `assignment` (dict var -> bool) from u to a terminal."""
    while not b.is_terminal(u):
        u = b.hi(u) if assignment[var(b, u)] else b.lo(u)
    return u == T1


def cone(b, u):
    """Nonterminal signed handles reachable from u: its distinct
    subfunctions, u and -u counted apart."""
    seen = set()
    stack = [u]
    while stack:
        w = stack.pop()
        if w in seen or b.is_terminal(w):
            continue
        seen.add(w)
        stack.append(b.hi(w))
        stack.append(b.lo(w))
    return seen


def cone_size(b, u):
    """Distinct nonterminal subfunctions reachable from u."""
    return len(cone(b, u))


def stored_size(b, u):
    """Stored nodes reachable from u: one per subfunction and complement pair."""
    return len({abs(w) for w in cone(b, u)})


def all_functions(n):
    assigns = list(itertools.product([False, True], repeat=n))
    for code in range(1 << (1 << n)):
        yield {a: bool((code >> i) & 1) for i, a in enumerate(assigns)}


class TestCanonicity:
    def test_reduction(self):
        b = Bdd([1, 2])
        u = b.mk_node(2, T1, T1)
        assert u == T1

    def test_hash_consing(self):
        b = Bdd([1, 2])
        u = b.mk_node(2, T1, T0)
        v = b.mk_node(2, T1, T0)
        assert u == v and b.num_nodes() == 1

    def test_all_three_var_functions_distinct(self):
        b = Bdd([1, 2, 3])
        refs = [tt_bdd(b, [1, 2, 3], t) for t in all_functions(3)]
        assert len(set(refs)) == 256  # distinct functions, distinct roots

    def test_child_above_parent_asserts(self):
        b = Bdd([1, 2])
        u = b.mk_node(1, T1, T0)
        with pytest.raises(AssertionError):
            b.mk_node(2, u, T0)


class TestAnd:
    def test_terminal_rules(self):
        b = Bdd([1])
        u = b.mk_node(1, T1, T0)
        assert plain_and(b, u, T0) == T0
        assert plain_and(b, T0, u) == T0
        assert plain_and(b, u, T1) == u
        assert plain_and(b, T1, u) == u
        assert plain_and(b, u, u) == u

    def test_against_truth_tables_two_vars(self):
        b = Bdd([1, 2])
        funcs = list(all_functions(2))
        refs = {i: tt_bdd(b, [1, 2], t) for i, t in enumerate(funcs)}
        for i, ti in enumerate(funcs):
            for j, tj in enumerate(funcs):
                conj = {a: ti[a] and tj[a] for a in ti}
                assert plain_and(b, refs[i], refs[j]) == tt_bdd(b, [1, 2], conj)

    def test_against_truth_tables_three_vars_sampled(self):
        rng = random.Random(11)
        b = Bdd([1, 2, 3])
        funcs = list(all_functions(3))
        for _ in range(800):
            ti, tj = rng.choice(funcs), rng.choice(funcs)
            conj = {a: ti[a] and tj[a] for a in ti}
            got = plain_and(b, tt_bdd(b, [1, 2, 3], ti), tt_bdd(b, [1, 2, 3], tj))
            assert got == tt_bdd(b, [1, 2, 3], conj)


class TestParityBdd:
    def test_shape_small(self):
        for k in range(2, 6):
            b = Bdd(list(range(1, 6)))
            u = b.parity_bdd(list(range(1, k + 1)), 1)
            assert b.num_nodes() == stored_size(b, u) == k
            assert cone_size(b, u) == 2 * k - 1

    def test_single_var(self):
        b = Bdd([4])
        assert cone_size(b, b.parity_bdd([4], 0)) == 1
        assert cone_size(b, b.parity_bdd([4], 1)) == 1

    def test_empty_support(self):
        b = Bdd([1])
        assert b.parity_bdd([], 0) == T1
        assert b.parity_bdd([], 1) == T0

    def test_size_independent_of_order(self):
        rng = random.Random(3)
        for k in (2, 5, 9, 16, 33):
            for _ in range(5):
                order = list(range(1, k + 1))
                rng.shuffle(order)
                b = Bdd(order)
                u = b.parity_bdd(list(range(1, k + 1)), rng.randint(0, 1))
                assert b.num_nodes() == stored_size(b, u) == k
                assert cone_size(b, u) == 2 * k - 1

    def test_semantics(self):
        b = Bdd([1, 2, 3, 4])
        for phase in (0, 1):
            u = b.parity_bdd([1, 3, 4], phase)
            for bits in itertools.product([False, True], repeat=4):
                a = dict(zip([1, 2, 3, 4], bits))
                want = (a[1] ^ a[3] ^ a[4]) == bool(phase)
                assert evaluate(b, u, a) == want

    def test_signed_paths_give_xor_up_to_six_vars(self):
        rng = random.Random(6)
        for k in range(1, 7):
            order = list(range(1, 7))
            rng.shuffle(order)
            b = Bdd(order)
            vs = sorted(rng.sample(range(1, 7), k))
            roots = [b.parity_bdd(vs, phase) for phase in (0, 1)]
            assert roots[1] == -roots[0]
            for bits in itertools.product([False, True], repeat=6):
                a = dict(zip(range(1, 7), bits))
                odd = sum(a[v] for v in vs) % 2 == 1
                for phase, u in enumerate(roots):
                    assert evaluate(b, u, a) == (odd == bool(phase))


class TestComplementEdges:
    def test_stored_hi_edges_are_regular_and_negation_commutes(self):
        rng = random.Random(17)
        for n in (2, 3, 4):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            b = Bdd(order)
            below = {lvl: [T1, T0] for lvl in range(n + 1)}  # handles under each level
            for _ in range(200):
                lvl = rng.randrange(n)
                var = b.var_at[lvl]
                h, l = rng.choice(below[lvl + 1]), rng.choice(below[lvl + 1])
                u = b.mk_node(var, h, l)
                assert b.mk_node(var, -h, -l) == -u
                assert (b.hi(u), b.lo(u)) == (h, l) or h == l
                for up in range(lvl + 1):
                    below[up] += [u, -u]
            for key in b.nodes.values():
                assert key[1] > 0, "stored hi edge is complemented"
            assert len(b.unique) == b.num_nodes()

    def test_complement_shares_the_node_and_its_refcount(self):
        b = Bdd([1, 2])
        u = b.parity_bdd([1, 2], 1)
        b.ref(-u)
        assert b.garbage_collect() == []
        assert b.num_nodes() == 2
        b.deref(-u)
        assert len(b.garbage_collect()) == 2


class TestGcAndRefs:
    def test_underflow_aborts(self):
        b = Bdd([1])
        u = b.mk_node(1, T1, T0)
        with pytest.raises(AssertionError):
            b.deref(u)

    def test_collect_keeps_referenced_cone(self):
        b = Bdd([1, 2, 3])
        keep = b.ref(b.parity_bdd([1, 2, 3], 1))
        junk = b.mk_node(1, b.mk_node(2, T1, T0), T0)
        before = b.num_nodes()
        freed = b.garbage_collect()
        assert junk in freed
        assert b.num_nodes() == before - len(freed)
        # kept cone still evaluates correctly
        assert evaluate(b, keep, {1: True, 2: False, 3: False})

    def test_unique_table_consistent_after_collect(self):
        b = Bdd([1, 2])
        u = b.mk_node(2, T1, T0)
        b.garbage_collect()  # u unreferenced, freed
        v = b.mk_node(2, T1, T0)
        assert v != u  # fresh handle, no resurrection
        assert b.num_nodes() == 1

    def test_deref_then_collect(self):
        b = Bdd([1, 2, 3])
        u = b.ref(b.parity_bdd([1, 2, 3], 0))
        assert b.garbage_collect() == []
        b.deref(u)
        assert len(b.garbage_collect()) == 3

    def test_callbacks(self):
        created, freed = [], []
        b = Bdd([1, 2], on_node=lambda r, v, h, l: created.append((r, v, h, l)),
                on_free=lambda fs: freed.extend(fs))
        u = b.mk_node(2, T1, T0)
        v = b.mk_node(1, u, T0)
        assert [c[0] for c in created] == [u, v]
        assert created[1] == (v, 1, u, T0)
        b.garbage_collect()
        assert sorted(freed) == sorted([u, v])


def test_capacity_error():
    b = Bdd([1, 2], first_id=TRUE_SENTINEL - 1)
    u = b.mk_node(2, T1, T0)
    assert b.mk_node(2, T0, T1) == -u  # the complement takes no new node
    with pytest.raises(BddCapacityError):
        b.mk_node(1, T1, u)


def test_first_id_allocation():
    b = Bdd([1, 2], first_id=100)
    u = b.mk_node(2, T1, T0)
    v = b.mk_node(1, u, T0)
    assert (u, v) == (100, 101)


def test_to_dot_mentions_nodes():
    b = Bdd([1, 2])
    u = b.parity_bdd([1, 2], 1)
    dot = b.to_dot(u)
    # two nodes with two edges each, plus the root's edge; the root and the
    # top node's lo edge are complemented
    assert "digraph" in dot and dot.count("->") == 5
    assert dot.count("arrowhead=odot") == 2
