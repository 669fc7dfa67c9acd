"""Generator structure, determinism, oracles, and golden instances."""

import hashlib
import json
from collections import Counter

import pytest

import xorcert.benchgen as bg
from xorcert.benchgen import (
    LpnConfig,
    UrqConfig,
    gen_lpn,
    gen_urquhart,
    graph_node_count,
    lpn_oracle,
    parity_system_unsat,
)
from xorcert.formula import ParityConstraint, extract_xors, write_dimacs
from xorcert.solver import SAT, UNSAT, Solver


def graph_edges(u):
    """The graph of an Urquhart instance, one edge per variable in variable
    order: the pair of nodes, numbered as its constraints are, whose
    constraints hold that variable."""
    ends = [[] for _ in range(u.formula.num_vars + 1)]
    for node, c in enumerate(u.constraints):
        for v in c.vars:
            ends[v].append(node)
    return [tuple(e) for e in ends[1:]]


class TestRankOracle:
    def test_trivial_cases(self):
        assert not parity_system_unsat([ParityConstraint((1,), 1)])
        assert parity_system_unsat(
            [ParityConstraint((1,), 1), ParityConstraint((1,), 0)]
        )
        triangle = [
            ParityConstraint((1, 2), 1),
            ParityConstraint((2, 3), 1),
            ParityConstraint((1, 3), 1),
        ]
        assert parity_system_unsat(triangle)
        triangle_even = triangle[:2] + [ParityConstraint((1, 3), 0)]
        assert not parity_system_unsat(triangle_even)


class TestGraphFamily:
    def test_node_count_anchors(self):
        assert graph_node_count(3) == 102
        assert graph_node_count(40) == 22080

    def test_m3_exact_counts(self):
        u = gen_urquhart(UrqConfig(m=3, seed=1))
        assert u.formula.num_vars == 153
        assert u.formula.num_clauses == 408
        assert len(u.constraints) == 102

    def test_m40_exact_counts(self):
        u = gen_urquhart(UrqConfig(m=40, seed=0))
        assert u.formula.num_vars == 33120
        assert u.formula.num_clauses == 88320
        assert len(u.constraints) == 22080

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    def test_count_arithmetic(self, m):
        u = gen_urquhart(UrqConfig(m=m, seed=7))
        n = graph_node_count(m)
        assert u.formula.num_vars == 3 * n // 2
        assert u.formula.num_clauses == 4 * len(u.constraints)
        assert len(u.constraints) == n

    def test_every_edge_in_exactly_two_constraints(self):
        u = gen_urquhart(UrqConfig(m=3, seed=5))
        cnt = Counter(v for c in u.constraints for v in c.vars)
        assert set(cnt.keys()) == set(range(1, u.formula.num_vars + 1))
        assert set(cnt.values()) == {2}

    def test_graph_connected(self):
        u = gen_urquhart(UrqConfig(m=3, seed=9))
        parent = list(range(len(u.constraints)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a, b in graph_edges(u):
            parent[find(a)] = find(b)
        assert len({find(x) for x in range(len(u.constraints))}) == 1

    def test_unsat_iff_odd_phase_total(self):
        for m in (3, 4, 5, 6):
            odd = gen_urquhart(UrqConfig(m=m, seed=m))
            assert sum(c.phase for c in odd.constraints) & 1 == 1
            assert parity_system_unsat(odd.constraints)
            even = gen_urquhart(UrqConfig(m=m, seed=m, parity="even"))
            assert sum(c.phase for c in even.constraints) & 1 == 0
            assert not parity_system_unsat(even.constraints)

    def test_charge_fraction_tracks_p(self):
        for p in (25, 50, 75):
            u = gen_urquhart(UrqConfig(m=3, p=p, seed=3))
            odd = sum(c.phase for c in u.constraints)
            # rounding contributes 0.5, the odd-total adjustment another 1
            assert abs(odd - len(u.constraints) * p / 100) <= 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            gen_urquhart(UrqConfig(m=2))
        with pytest.raises(ValueError):
            gen_urquhart(UrqConfig(m=3, p=20))
        with pytest.raises(ValueError):
            gen_urquhart(UrqConfig(m=3, p=80))
        with pytest.raises(ValueError):
            gen_urquhart(UrqConfig(m=3, parity="weird"))

    def test_deterministic_and_seed_sensitive(self):
        a = gen_urquhart(UrqConfig(m=3, seed=11))
        b = gen_urquhart(UrqConfig(m=3, seed=11))
        c = gen_urquhart(UrqConfig(m=3, seed=12))
        assert write_dimacs(a.formula) == write_dimacs(b.formula)
        assert a.manifest_lines() == b.manifest_lines()
        assert graph_edges(a) != graph_edges(c)

    def test_manifest_matches_extraction(self):
        u = gen_urquhart(UrqConfig(m=3, seed=2))
        ext = extract_xors(u.formula)
        assert [(c.vars, c.phase) for c in ext] == sorted(
            (c.vars, c.phase) for c in u.constraints
        )
        for line in u.manifest_lines():
            d = json.loads(line)
            lo, hi = d["clauses"]
            assert hi - lo + 1 == 4

    def test_matching_fallback_still_three_regular(self, monkeypatch):
        monkeypatch.setattr(bg, "MATCHING_ATTEMPTS", 0)
        u = gen_urquhart(UrqConfig(m=3, seed=1))
        assert u.formula.num_vars == 153
        cnt = Counter(v for c in u.constraints for v in c.vars)
        assert set(cnt.values()) == {2}


class TestNoisyParityFamily:
    def test_validation(self):
        with pytest.raises(ValueError):
            gen_lpn(LpnConfig(n=3))
        with pytest.raises(ValueError):
            gen_lpn(LpnConfig(n=4, corrupt_prob=1.0))

    def test_shape_and_k(self):
        inst = gen_lpn(LpnConfig(n=8, seed=42))
        assert len(inst.rows) == 16
        assert inst.k == sum(1 for r in inst.rows if r.corrupted)
        assert inst.bound == inst.k
        off = gen_lpn(LpnConfig(n=8, seed=42, bound_offset=True))
        assert off.k == inst.k
        assert off.bound == inst.k - 1

    def test_planted_target_satisfies_rows(self):
        inst = gen_lpn(LpnConfig(n=10, seed=3))
        for row in inst.rows:
            par = 0
            for v in row.sol_vars:
                par ^= inst.target[v - 1]
            # with the corruption bit set to the corrupted flag the emitted
            # phase is met exactly
            assert par ^ (1 if row.corrupted else 0) == row.phase

    def test_at_most_k_instances_are_sat(self):
        for seed in range(5):
            inst = gen_lpn(LpnConfig(n=8, seed=seed))
            assert lpn_oracle(inst) == "SAT"
            r = Solver(inst.formula, var_order=inst.var_order).solve()
            assert r.status == SAT

    def test_oracle_matches_solver_both_bounds(self):
        for seed in range(6):
            for off in (False, True):
                inst = gen_lpn(LpnConfig(n=6, seed=seed, bound_offset=off))
                want = lpn_oracle(inst)
                r = Solver(inst.formula, var_order=inst.var_order).solve()
                assert r.status == {"SAT": SAT, "UNSAT": UNSAT}[want], (seed, off)

    def test_degenerate_zero_corruption_bound(self):
        found = None
        for seed in range(80):
            inst = gen_lpn(LpnConfig(n=4, seed=seed, bound_offset=True))
            if inst.degenerate:
                found = inst
                break
        assert found is not None, "no zero-corruption draw in 80 seeds"
        assert found.k == 1 and found.bound == 0
        assert found.rows[0].corrupted
        units = {(-r.corruption_var,) for r in found.rows}
        assert units <= set(found.formula.clauses)
        j = json.loads(found.manifest_lines()[0])
        assert j["degenerate"] is True

    def test_chained_links_stay_small_and_extractable(self):
        inst = gen_lpn(LpnConfig(n=12, seed=9))
        assert all(c.arity <= 3 for c in inst.constraints)
        ext = {(c.vars, c.phase) for c in extract_xors(inst.formula)}
        assert {(c.vars, c.phase) for c in inst.constraints} <= ext

    def test_var_order_structure(self):
        # seed 1 draws no corruption (bound 0, no counter aux); seed 3 draws
        # two, so the counter has aux variables in both bound settings
        n, m = 8, 16
        for seed, unsat, bound in [(1, False, 0), (3, False, 2), (3, True, 1)]:
            inst = gen_lpn(LpnConfig(n=n, seed=seed, bound_offset=unsat))
            assert inst.bound == bound
            # a sequential counter at most b < m over the m corruption bits
            # has (m-1)*b aux variables (none at b = 0); then each row XOR
            # over w variables, its corruption bit included, is chained
            # through w-3 aux variables when w > 3
            card_lo = n + m + 1
            xor_lo = card_lo + (m - 1) * bound
            xor_end = xor_lo + sum(max(len(r.sol_vars) + 1 - 3, 0) for r in inst.rows)
            assert xor_end == inst.formula.num_vars + 1
            assert inst.var_order == (
                list(range(card_lo, xor_lo))
                + list(range(n + 1, n + m + 1))
                + list(range(xor_lo, xor_end))
                + list(range(1, n + 1))
            )

    def test_golden_instance_byte_stable(self):
        inst = gen_lpn(LpnConfig(n=8, seed=42))
        digest = hashlib.sha256(write_dimacs(inst.formula).encode()).hexdigest()
        assert digest == (
            "5befba0b74761c30d76f528fbe097df1e4ecfaac0ec88041385c38e2a03f799d"
        )
        assert lpn_oracle(inst) == "SAT"

    def test_oracle_cap(self):
        inst = gen_lpn(LpnConfig(n=8, seed=0))
        assert lpn_oracle(inst) in ("SAT", "UNSAT")
        inst.config = LpnConfig(n=21, seed=0)
        with pytest.raises(ValueError):
            lpn_oracle(inst)
