import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorcert.formula import (
    MAX_EXTRACT_ARITY,
    CnfFormula,
    DimacsError,
    ParityConstraint,
    extract_xors,
    parse_dimacs,
    write_dimacs,
    xor_encoding_clauses,
)


def brute_force_models(num_vars, clauses):
    """All satisfying assignments, as tuples of bools.  Oracle for <= ~16 vars."""
    models = []
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any((l > 0) == bits[abs(l) - 1] for l in cl) for cl in clauses):
            models.append(bits)
    return models


class TestParseDimacs:
    def test_minimal(self):
        f = parse_dimacs("p cnf 2 1\n1 -2 0\n")
        assert f.num_vars == 2
        assert f.clauses == [(1, -2)]

    def test_comments_and_blank_lines(self):
        f = parse_dimacs("c hello\n\np cnf 3 2\nc mid\n1 2 0\n-3 0\n")
        assert f.num_clauses == 2
        assert f.clause(2) == (-3,)

    def test_clause_spanning_lines(self):
        f = parse_dimacs("p cnf 3 1\n1\n2\n3 0\n")
        assert f.clauses == [(1, 2, 3)]

    def test_empty_formula(self):
        f = parse_dimacs("p cnf 0 0\n")
        assert f.num_vars == 0 and f.num_clauses == 0

    def test_duplicate_literal_dropped(self):
        f = parse_dimacs("p cnf 2 1\n1 1 -2 0\n")
        assert f.clauses == [(1, -2)]

    def test_satlib_trailer_ends_the_clauses(self):
        # SATLIB files close with a `%` line and a lone 0, which is no clause
        f = parse_dimacs("p cnf 3 2\n1 -2 0\n2 3 0\n%\n0\n\n")
        assert f.clauses == [(1, -2), (2, 3)]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("p cnf x 1\n1 0\n", "line 1"),
            ("1 2 0\n", "before header"),
            ("p cnf 2 1\n3 0\n", "out of range"),
            ("p cnf 2 1\n1 -1 0\n", "tautological"),
            ("p cnf 2 1\n1 2\n", "not terminated"),
            ("p cnf 2 2\n1 0\n", "promises 2"),
            ("p cnf 2 1\n1 0\n2 0\n", "promises 1"),
            ("p cnf 2 1\np cnf 2 1\n", "duplicate header"),
            ("p cnf 2 1\n1 banana 0\n", "bad token"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(DimacsError) as e:
            parse_dimacs(text)
        assert fragment in str(e.value)
        assert "line" in str(e.value)

    def test_roundtrip_fixed(self):
        f = CnfFormula(4, [(1, -2, 3), (-4,), (2, 4)])
        assert parse_dimacs(write_dimacs(f)) == f


@st.composite
def formulas(draw):
    nv = draw(st.integers(1, 8))
    ncl = draw(st.integers(0, 12))
    clauses = []
    for _ in range(ncl):
        width = draw(st.integers(1, min(nv, 4)))
        vs = draw(
            st.lists(st.integers(1, nv), min_size=width, max_size=width, unique=True)
        )
        clauses.append(tuple(v if draw(st.booleans()) else -v for v in vs))
    return CnfFormula(nv, clauses)


@given(formulas())
@settings(max_examples=120, deadline=None)
def test_roundtrip_property(f):
    assert parse_dimacs(write_dimacs(f)) == f


class TestXorEncoding:
    def test_clause_count_and_width(self):
        for k in range(1, 7):
            p = ParityConstraint(tuple(range(1, k + 1)), 1)
            cls = xor_encoding_clauses(p)
            assert len(cls) == 2 ** (k - 1)
            assert all(len(c) == k for c in cls)

    def test_three_way_order(self):
        # lexicographic sign patterns, positive first
        p = ParityConstraint((1, 2, 3), 1)
        assert xor_encoding_clauses(p) == [
            (1, 2, 3),
            (1, -2, -3),
            (-1, 2, -3),
            (-1, -2, 3),
        ]

    def test_semantics_brute_force(self):
        rng = random.Random(7)
        for _ in range(60):
            k = rng.randint(1, 6)
            vs = tuple(sorted(rng.sample(range(1, 9), k)))
            phase = rng.randint(0, 1)
            p = ParityConstraint(vs, phase)
            cls = xor_encoding_clauses(p)
            nv = max(vs)
            for bits in itertools.product([False, True], repeat=nv):
                assign = {v: bits[v - 1] for v in range(1, nv + 1)}
                cnf_val = all(any((l > 0) == assign[abs(l)] for l in cl) for cl in cls)
                assert cnf_val == p.satisfied_by(assign)

    def test_wide_constraint_rejected(self):
        p = ParityConstraint(tuple(range(1, 33)), 0)
        with pytest.raises(ValueError):
            xor_encoding_clauses(p)


class TestExtractXors:
    def test_roundtrip_single(self):
        for k in range(1, MAX_EXTRACT_ARITY + 1):
            for phase in (0, 1):
                p = ParityConstraint(tuple(range(2, k + 2)), phase)
                f = CnfFormula(k + 2, xor_encoding_clauses(p))
                got = extract_xors(f)
                assert len(got) == 1
                assert got[0].vars == p.vars and got[0].phase == p.phase
                assert len(got[0].source_clauses) == 2 ** (k - 1)
                assert sorted(got[0].source_clauses) == list(range(1, 2 ** (k - 1) + 1))

    def test_partial_encoding_not_extracted(self):
        p = ParityConstraint((1, 2, 3), 1)
        cls = xor_encoding_clauses(p)[:-1]
        assert extract_xors(CnfFormula(3, cls)) == []

    def test_mixed_formula(self):
        p1 = ParityConstraint((1, 2, 3), 0)
        p2 = ParityConstraint((2, 4), 1)
        clauses = [(1, 2, 4), (-3, -4)]
        clauses += xor_encoding_clauses(p1)
        clauses += [(4, 1)]
        clauses += xor_encoding_clauses(p2)
        f = CnfFormula(4, clauses)
        got = extract_xors(f)
        assert [(g.vars, g.phase) for g in got] == [((2, 4), 1), ((1, 2, 3), 0)]

    def test_both_phases_same_support(self):
        p0 = ParityConstraint((1, 2), 0)
        p1 = ParityConstraint((1, 2), 1)
        f = CnfFormula(2, xor_encoding_clauses(p0) + xor_encoding_clauses(p1))
        got = extract_xors(f)
        assert len(got) == 2
        used = [c for g in got for c in g.source_clauses]
        assert sorted(used) == [1, 2, 3, 4]  # each clause consumed at most once

    def test_max_arity_bound(self):
        k = MAX_EXTRACT_ARITY
        widest = ParityConstraint(tuple(range(1, k + 1)), 1)
        f = CnfFormula(k, xor_encoding_clauses(widest))
        assert [(g.vars, g.phase) for g in extract_xors(f)] == [(widest.vars, 1)]
        # one wider, and its full encoding is left as plain clauses
        wider = ParityConstraint(tuple(range(1, k + 2)), 1)
        assert extract_xors(CnfFormula(k + 1, xor_encoding_clauses(wider))) == []

    def test_deterministic_order(self):
        ps = [
            ParityConstraint((5, 6, 7), 1),
            ParityConstraint((1, 2), 0),
            ParityConstraint((3, 4), 1),
        ]
        clauses = []
        for p in ps:
            clauses += xor_encoding_clauses(p)
        f = CnfFormula(7, clauses)
        got = extract_xors(f)
        assert [g.vars for g in got] == [(1, 2), (3, 4), (5, 6, 7)]


@given(st.integers(1, MAX_EXTRACT_ARITY), st.integers(0, 1), st.integers(0, 10**6))
@settings(max_examples=80, deadline=None)
def test_extract_encode_roundtrip_property(k, phase, seed):
    rng = random.Random(seed)
    vs = tuple(sorted(rng.sample(range(1, 20), k)))
    p = ParityConstraint(vs, phase)
    f = CnfFormula(20, xor_encoding_clauses(p))
    got = extract_xors(f)
    assert [(g.vars, g.phase) for g in got] == [(vs, phase)]


def test_combine():
    a = ParityConstraint((1, 2, 3), 1)
    b = ParityConstraint((2, 3, 4), 1)
    c = a.combine(b)
    assert c.vars == (1, 4) and c.phase == 0
    d = a.combine(a)
    assert d.vars == () and d.phase == 0
