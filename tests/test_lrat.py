import io
import os
import random
import tracemalloc
from itertools import chain, islice
from operator import neg

import pytest
from test_acceptance import _robustness_corpus, mutate_one

from xorcert.benchgen import UrqConfig, gen_urquhart
from xorcert import cli, lrat
from xorcert.formula import CnfFormula, parse_dimacs, write_dimacs
from xorcert.lrat import (
    AddStep,
    DeleteStep,
    ProofLimitExceeded,
    ProofReaderError,
    ProofSyntaxError,
    ProofWriter,
    Rejected,
    Verified,
    check,
    forked_steps,
    iter_proof,
    parse_proof,
)
from xorcert.solver import SAT, UNSAT, Solver


def add_line(sid, lits, hints) -> str:
    return " ".join(map(str, (sid, *lits, 0, *hints, 0)))


def delete_line(sid, ids) -> str:
    return " ".join(map(str, (sid, "d", *ids, 0)))


def format_step(step) -> str:
    return add_line(*step) if isinstance(step, AddStep) else delete_line(*step)


def steps_of(*triples):
    """triples: (id, lits, hints) for adds, (id, 'd', ids) for deletes."""
    out = []
    for t in triples:
        if t[1] == "d":
            out.append(DeleteStep(t[0], tuple(t[2])))
        else:
            out.append(AddStep(t[0], tuple(t[1]), tuple(t[2])))
    return out


class TestFormat:
    def test_add_line(self):
        assert format_step(AddStep(9, (-1,), (3, 5))) == "9 -1 0 3 5 0"

    def test_add_empty_hint_list(self):
        assert format_step(AddStep(14, (7, -1, 5), ())) == "14 7 -1 5 0 0"

    def test_empty_clause(self):
        assert format_step(AddStep(21, (), (4, 9))) == "21 0 4 9 0"

    def test_delete_line(self):
        assert format_step(DeleteStep(12, (9, 10))) == "12 d 9 10 0"

    def test_writer_matches_reference_lines(self):
        # the empty clause, a hintless definition, negative literals and a
        # delete, each written exactly as the reference helpers format it
        sink = io.StringIO()
        w = ProofWriter(sink, num_input_clauses=3)
        assert w.add((7, -1, 5), ()) == 4
        assert w.add((-2, -3), (1, 4, 2)) == 5
        assert w.delete([4, 5]) == 6
        assert w.add((), (1, 2)) == 7
        want = [add_line(4, (7, -1, 5), ()), add_line(5, (-2, -3), (1, 4, 2)),
                delete_line(6, [4, 5]), add_line(7, (), (1, 2))]
        assert sink.getvalue() == "".join(line + "\n" for line in want)

    def test_parse_roundtrip(self):
        steps = steps_of(
            (9, (-1, 2), (3, 5)),
            (10, "d", (9,)),
            (11, (), (1, 2)),
        )
        text = "\n".join(format_step(s) for s in steps) + "\n"
        assert parse_proof(text) == steps

    def test_parse_skips_comments(self):
        assert parse_proof("c noise\n9 -1 0 3 0\n") == [AddStep(9, (-1,), (3,))]

    @pytest.mark.parametrize(
        "text",
        ["nonsense\n", "9 -1 0 3\n", "9 d 1\n", "9 1 0 0 0 0\n", "9 -1 zebra 0 0\n"],
    )
    def test_parse_rejects_malformed(self, text):
        with pytest.raises(ProofSyntaxError):
            parse_proof(text)


# (x1 or x2) and (x1 or -x2) and (-x1 or x2) and (-x1 or -x2): minimal UNSAT pair set
PHI = CnfFormula(2, [(1, 2), (1, -2), (-1, 2), (-1, -2)])


class TestRupChecking:
    def test_good_refutation(self):
        steps = steps_of(
            (5, (1,), (1, 2)),
            (6, (), (5, 3, 4)),
        )
        v = check(PHI, steps)
        assert isinstance(v, Verified) and v.has_empty

    def test_hints_drive_propagation_in_order(self):
        f = CnfFormula(3, [(1, 2, 3), (-2,), (-3,)])
        good = steps_of((4, (1,), (2, 3, 1)))
        assert isinstance(check(f, good, refutation=False), Verified)
        # out of order: first hint still has two unassigned literals
        bad = steps_of((4, (1,), (1, 2, 3)))
        r = check(f, bad, refutation=False)
        assert isinstance(r, Rejected)
        assert "neither unit nor falsified" in r.reason

    def test_missing_conflict(self):
        steps = steps_of((5, (1,), (1,)), (6, (), (5, 3, 4)))
        r = check(PHI, steps)
        assert isinstance(r, Rejected) and "no conflict" in r.reason

    def test_bad_hint_id(self):
        steps = steps_of((5, (1,), (1, 99)), (6, (), (5, 3, 4)))
        r = check(PHI, steps)
        assert isinstance(r, Rejected) and "bad hint" in r.reason

    def test_id_reuse(self):
        steps = steps_of((4, (1,), (1, 2)),)
        r = check(PHI, steps)
        assert isinstance(r, Rejected) and "id reuse" in r.reason

    def test_refutation_requires_empty(self):
        steps = steps_of((5, (1,), (1, 2)),)
        r = check(PHI, steps)
        assert isinstance(r, Rejected) and "empty clause" in r.reason
        v = check(PHI, steps, refutation=False)
        assert isinstance(v, Verified) and not v.has_empty

    def test_conflict_must_be_final_hint(self):
        steps = steps_of((5, (1,), (1, 2, 3)), (6, (), (5, 3, 4)))
        r = check(PHI, steps)
        assert isinstance(r, Rejected) and "before final" in r.reason

    def test_satisfied_hint_rejected(self):
        # clause (1,) assumed false then hint (−1, 2)... propagates 2; second
        # use of same hint is satisfied
        f = CnfFormula(2, [(-1, 2), (-2,), (1,)])
        good = steps_of((4, (-1,), (1, 2)))
        assert isinstance(check(f, good, refutation=False), Verified)
        bad = steps_of((4, (-1,), (1, 1, 2)))
        r = check(f, bad, refutation=False)
        assert isinstance(r, Rejected)

    def test_empty_clause_as_hint(self):
        f = CnfFormula(1, [(1,), (-1,)])
        steps = steps_of((3, (), (1, 2)), )
        assert isinstance(check(f, steps), Verified)

    def test_step_after_empty_rejected(self):
        steps = steps_of((5, (), (1, 3, 2, 4)), (6, (1,), (1, 2)))
        # 1,3 propagate x1 after assuming nothing? hint 1=(1,2) has two free lits
        r = check(PHI, steps)
        assert isinstance(r, Rejected)

    def test_deep_chain(self):
        # x1, x1->x2, x2->x3, -x3
        f = CnfFormula(3, [(1,), (-1, 2), (-2, 3), (-3,)])
        steps = steps_of((5, (), (1, 2, 3, 4)))
        v = check(f, steps)
        assert isinstance(v, Verified)

    def test_hint_visits_linear(self):
        f = CnfFormula(3, [(1,), (-1, 2), (-2, 3), (-3,)])
        steps = steps_of((5, (), (1, 2, 3, 4)))
        v = check(f, steps)
        total_hint_lits = 1 + 2 + 2 + 1
        assert v.hint_literal_visits == total_hint_lits


class TestDeletions:
    def test_delete_then_use_rejected(self):
        steps = steps_of(
            (5, (1,), (1, 2)),
            (6, "d", (1,)),
            (7, (), (5, 3, 4)),
        )
        assert isinstance(check(PHI, steps), Verified)
        bad = steps_of(
            (5, (1,), (1, 2)),
            (6, "d", (3,)),
            (7, (), (5, 3, 4)),
        )
        r = check(PHI, bad)
        assert isinstance(r, Rejected) and "bad hint" in r.reason

    def test_double_delete_rejected(self):
        steps = steps_of((5, "d", (1,)), (6, "d", (1,)))
        r = check(PHI, steps, refutation=False)
        assert isinstance(r, Rejected) and "non-live" in r.reason

    def test_delete_unknown_rejected(self):
        r = check(PHI, steps_of((5, "d", (44,))), refutation=False)
        assert isinstance(r, Rejected)


class TestDefinitionSteps:
    """Hintless adds must be blocked on a fresh (non-input) pivot; see
    TestFreshPivots for what fresh means."""

    def test_fresh_definition_accepted(self):
        f = CnfFormula(2, [(1, 2)])
        steps = steps_of(
            (2, (-3, -1, 2), ()),
            (3, (-3, 1, -2), ()),
            (4, (3, -1, -2), ()),
            (5, (3, 1, 2), ()),
        )
        assert isinstance(check(f, steps, refutation=False), Verified)

    def test_input_var_pivot_rejected(self):
        f = CnfFormula(2, [(1, 2)])
        r = check(f, steps_of((2, (-2, 1), ())), refutation=False)
        assert isinstance(r, Rejected) and "pivot not fresh" in r.reason

    def test_non_tautological_resolvent_rejected(self):
        f = CnfFormula(2, [(1, 2)])
        steps = steps_of(
            (2, (-3, 1), ()),
            (3, (3, 2), ()),  # resolvent (1, 2) is not tautological
        )
        r = check(f, steps, refutation=False)
        assert isinstance(r, Rejected) and "pivot not fresh" in r.reason

    def test_rejection_names_lowest_clash_partner(self):
        # a set of clause ids per variable named 81 here, its hash order
        f = CnfFormula(2, [(1, 2)])
        steps = steps_of((73, (-3, 1), ()), (81, (-3, -1), ()), (82, (3, 2), ()))
        r = check(f, steps, refutation=False)
        assert isinstance(r, Rejected) and r.reason.endswith("resolvent with 73")

    def test_literal_node_definition_pair(self):
        f = CnfFormula(2, [(1, 2)])
        steps = steps_of((2, (-3, 1), ()), (3, (3, -1), ()))
        assert isinstance(check(f, steps, refutation=False), Verified)

    def test_hintless_empty_clause_rejected(self):
        r = check(PHI, steps_of((5, (), ())))
        assert isinstance(r, Rejected)


class TestWriter:
    def test_ids_and_lines(self):
        buf = io.StringIO()
        w = ProofWriter(buf, num_input_clauses=4)
        a = w.add((1,), (1, 2))
        b = w.delete((1,))
        c = w.add((), (a, 3, 4))
        assert (a, b, c) == (5, 6, 7)
        assert buf.getvalue() == "5 1 0 1 2 0\n6 d 1 0\n7 0 5 3 4 0\n"
        assert w.adds == 2 and w.deletes == 1

    def test_checker_accepts_writer_output(self):
        buf = io.StringIO()
        w = ProofWriter(buf, 4)
        a = w.add((1,), (1, 2))
        w.delete((1,))
        w.add((), (a, 3, 4))
        steps = parse_proof(buf.getvalue())
        assert isinstance(check(PHI, steps), Verified)

    def test_budget_enforced_whole_lines(self):
        buf = io.StringIO()
        w = ProofWriter(buf, 4, max_clauses=1)
        w.add((1,), (1, 2))
        with pytest.raises(ProofLimitExceeded):
            w.add((2,), (1, 3))
        # file still whole-line well-formed and checkable as a partial proof
        steps = parse_proof(buf.getvalue())
        assert isinstance(check(PHI, steps, refutation=False), Verified)

    def test_deletes_suppressed_after_empty(self):
        buf = io.StringIO()
        w = ProofWriter(buf, 4)
        a = w.add((1,), (1, 2))
        w.add((), (a, 3, 4))
        assert w.delete((a,)) is None
        steps = parse_proof(buf.getvalue())
        assert isinstance(check(PHI, steps), Verified)


def test_end_to_end_file_roundtrip(tmp_path):
    cnf = tmp_path / "phi.cnf"
    cnf.write_text("p cnf 2 4\n1 2 0\n1 -2 0\n-1 2 0\n-1 -2 0\n")
    proof = tmp_path / "phi.lrat"
    with open(proof, "w") as fh:
        w = ProofWriter(fh, 4)
        a = w.add((1,), (1, 2))
        w.add((), (a, 3, 4))
    f = parse_dimacs(cnf.read_text())
    steps = parse_proof(proof.read_text())
    assert isinstance(check(f, steps), Verified)


def reference_parse(text: str) -> list:
    """The whole-text parser that preceded the streaming one, kept as the
    oracle for the differential tests below."""
    steps = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        toks = line.split()
        try:
            sid = int(toks[0])
        except ValueError:
            raise ProofSyntaxError(f"line {lineno}: bad step id {toks[0]!r}") from None
        if len(toks) >= 2 and toks[1] == "d":
            try:
                body = [int(t) for t in toks[2:]]
            except ValueError:
                raise ProofSyntaxError(f"line {lineno}: bad token in delete") from None
            if not body or body[-1] != 0 or 0 in body[:-1]:
                raise ProofSyntaxError(f"line {lineno}: delete not 0-terminated")
            steps.append(DeleteStep(sid, tuple(body[:-1])))
            continue
        try:
            body = [int(t) for t in toks[1:]]
        except ValueError:
            raise ProofSyntaxError(f"line {lineno}: bad token in add step") from None
        zeros = [i for i, t in enumerate(body) if t == 0]
        if len(zeros) != 2 or zeros[1] != len(body) - 1:
            raise ProofSyntaxError(f"line {lineno}: add step needs two 0 terminators")
        steps.append(AddStep(sid, tuple(body[: zeros[0]]), tuple(body[zeros[0] + 1 : -1])))
    return steps


def reference_check(f: CnfFormula, steps, refutation: bool = True):
    """The checker that preceded the compact one, with a set of clause ids
    per extension variable, kept as the oracle for the differential tests
    below.  It takes the compact checker's freshness rule, but checks a
    continued run's step as blocked against every live clause on its pivot,
    not only the run's: that `check` needs no more is its soundness
    argument, which the differential tests put to the test."""
    live: dict[int, tuple[int, ...]] = {i: cl for i, cl in enumerate(f.clauses, start=1)}
    # occurrence lists are kept only for variables beyond the input range;
    # those are the only legal pivots of definition steps
    occ: dict[int, set[int]] = {}
    max_id = f.num_clauses
    nvars = top = f.num_vars
    run_var = None  # the pivot variable of the current run of definitions
    visits = 0
    adds = deletes = 0
    has_empty = False

    for step in steps:
        sid = step.id
        if has_empty:
            return Rejected(sid, "step after empty clause")
        if sid <= max_id:
            return Rejected(sid, f"id reuse: {sid} not above {max_id}")
        max_id = sid

        if isinstance(step, DeleteStep):
            for d in step.ids:
                cl = live.pop(d, None)
                if cl is None:
                    return Rejected(sid, f"delete of non-live id {d}")
                for l in cl:
                    v = l if l > 0 else -l
                    if v > nvars:
                        s = occ.get(v)
                        if s is not None:
                            s.discard(d)
                            if not s:
                                del occ[v]
            deletes += len(step.ids)
            continue

        lits = step.lits
        hints = step.hints
        if hints:
            run_var = None
            # reverse unit propagation, driven by the hints alone: `false`
            # holds the literals assumed or propagated false.  A tautology
            # needs no hints.
            false = set(lits)
            if false.isdisjoint(map(neg, lits)):
                last = len(hints) - 1
                for pos, h in enumerate(hints):
                    cl = live.get(h)
                    if cl is None:
                        return Rejected(sid, f"bad hint: id {h} not live")
                    unit = 0  # none yet: 0 is never a literal
                    for l in cl:
                        visits += 1
                        if l in false:
                            continue
                        if unit or -l in false:
                            return Rejected(sid, f"hint {h} neither unit nor falsified")
                        unit = l
                    if unit:
                        false.add(-unit)
                    elif pos != last:
                        return Rejected(sid, f"conflict at hint {h} before final hint")
                if unit:
                    return Rejected(sid, "no conflict after final hint")
        else:
            if not lits:
                return Rejected(sid, "empty clause needs hints")
            pivot = lits[0]
            pv = pivot if pivot > 0 else -pivot
            if pv != run_var and pv <= top:
                return Rejected(sid, f"pivot not fresh: variable {pv} not above {top}")
            run_var = pv
            rest = set(lits[1:])
            # lowest id first, as `check` reports it; set order would name an
            # arbitrary one of several clash partners
            for cid in sorted(occ.get(pv, ())):
                d = live[cid]
                if -pivot not in d:
                    continue
                # blocked check: every resolvent on the pivot must be a tautology
                if not any(-l in rest for l in d if l != -pivot):
                    return Rejected(
                        sid, f"pivot not fresh: non-tautological resolvent with {cid}"
                    )
        live[sid] = lits
        for l in lits:
            v = l if l > 0 else -l
            top = max(top, v)
            if v > nvars:
                occ.setdefault(v, set()).add(sid)
        adds += 1
        if not lits:
            has_empty = True

    if refutation and not has_empty:
        return Rejected(max_id, "refutation lacks empty clause")
    return Verified(adds + deletes, adds, deletes, visits, has_empty)


def _reordered(steps, order):
    """The proof lines `steps` (token lists) in `order`, each line taking the
    id its new position held, with hints and deleted ids renamed to match."""
    rename = {steps[i][0]: steps[k][0] for k, i in enumerate(order)}
    out = []
    for i in order:
        toks = steps[i]
        refs = 2 if toks[1] == "d" else toks.index("0", 1) + 1
        out.append(" ".join([rename[toks[0]], *toks[1:refs],
                             *(rename.get(t, t) for t in toks[refs:])]))
    return "\n".join(out) + "\n"


def _definition_runs(steps):
    """[start, end, pivot variable] of each run of hintless add lines on one
    pivot variable in the proof lines `steps` (token lists)."""
    runs = []
    for i, toks in enumerate(steps):
        if toks[1] != "d" and toks[-2] == "0":
            v = abs(int(toks[1]))
            if runs and runs[-1][1] == i and runs[-1][2] == v:
                runs[-1][1] = i + 1
            else:
                runs.append([i, i + 1, v])
    return runs


def _rename_sites(runs):
    """(k, i) for each line i of definition run k > 0 but the run's first."""
    return [(k, i) for k in range(1, len(runs)) for i in range(runs[k][0] + 1, runs[k][1])]


def _pivot_renamed(rng, toks, runs, k):
    """Definition line `toks` with its pivot renamed to that of a run before
    run k."""
    toks = toks[:]
    toks[1] = ("-" if toks[1][0] == "-" else "") + str(runs[rng.randrange(k)][2])
    return toks


def aimed_mutations(rng, corpus):
    """Proofs broken against `check`'s definition rule, up to one of each
    kind per corpus proof that has definitions: (1) a definition inside a
    run renamed to the pivot of an earlier run; (2) a hinted step, with the
    deletions after it, moved inside a definition run; (3) one node's first
    definition moved inside the run of the node before it.  Each is
    rejected at the renamed step, or at the first run step after the move,
    as a pivot that is not fresh."""
    out = []
    for cnf_text, proof_text in corpus:
        steps = [line.split() for line in proof_text.splitlines()]
        runs = _definition_runs(steps)
        renames = _rename_sites(runs)
        if renames:
            k, i = rng.choice(renames)
            toks = _pivot_renamed(rng, steps[i], runs, k)
            out.append((cnf_text, "\n".join(map(" ".join, steps[:i] + [toks] + steps[i + 1:]))))
        # (h, s): the line at index s moves to index h
        into_run = []
        for a, b, _ in runs:
            h = a - 1
            while h >= 0 and steps[h][1] == "d":
                h -= 1
            if b - a > 1 and h >= 0 and steps[h][-2] != "0":
                into_run.append((h, a))
        interleaved = [(r1[0] + 1, r2[0]) for r1, r2 in zip(runs, runs[1:])
                       if r1[1] - r1[0] > 1 and r1[1] == r2[0]]
        for moves in (into_run, interleaved):
            if moves:
                h, s = rng.choice(moves)
                order = [*range(h), s, *range(h, s), *range(s + 1, len(steps))]
                out.append((cnf_text, _reordered(steps, order)))
    return out


@pytest.fixture(scope="module")
def corpus():
    return _robustness_corpus()


@pytest.fixture(scope="module")
def mutated_proofs(corpus):
    """At least 1,000 proof-side mutations from the criterion-7 generator,
    then the aimed mutations of the corpus."""
    rng = random.Random(303)
    out = []
    while len(out) < 1000:
        drawn = mutate_one(rng, corpus)
        if drawn is not None and not drawn[2]:
            out.append((parse_dimacs(drawn[0]), drawn[1]))
    out += [(parse_dimacs(c), p) for c, p in aimed_mutations(rng, corpus)]
    return out


class TestStreamingParser:
    def test_parse_matches_reference(self, mutated_proofs):
        errors = 0
        for _, text in mutated_proofs:
            try:
                want = reference_parse(text)
            except ProofSyntaxError as e:
                errors += 1
                with pytest.raises(ProofSyntaxError) as got:
                    parse_proof(text)
                assert str(got.value) == str(e)
            else:
                assert parse_proof(text) == want
        assert 0 < errors < len(mutated_proofs)

    def test_streamed_verdict_matches_reference(self, mutated_proofs):
        # a malformed line stops the stream unless a step before it is
        # rejected first
        for f, text in mutated_proofs:
            lines = text.splitlines()
            try:
                want = check(f, reference_parse(text))
            except ProofSyntaxError as e:
                bad_line = int(str(e).split(":")[0].split()[1])
                prefix = check(f, reference_parse("\n".join(lines[: bad_line - 1])),
                               refutation=False)
                if prefix.ok:
                    with pytest.raises(ProofSyntaxError) as got:
                        check(f, iter_proof(lines))
                    assert str(got.value) == str(e)
                    continue
                want = prefix
            assert check(f, iter_proof(lines)) == want

    def test_bytes_lines_match_str_lines(self, mutated_proofs):
        # the same steps, syntax errors and verdicts, whether a line is
        # parsed as bytes or decoded first
        for f, text in mutated_proofs:
            lines = text.splitlines()
            raw = [line.encode() + b"\n" for line in lines]
            for consume in (lambda _, steps: list(steps), check):
                assert _outcome(consume, f, raw) == _outcome(consume, f, lines)

    def test_iter_proof_is_lazy(self):
        def lines():
            yield "5 1 0 1 2 0"
            raise AssertionError("line 2 was read")

        assert next(iter_proof(lines())) == AddStep(5, (1,), (1, 2))

    def test_check_stops_at_first_rejection(self):
        def steps():
            yield AddStep(4, (1,), (1, 2))
            raise AssertionError("a step after the rejected one was read")

        r = check(PHI, steps())
        assert isinstance(r, Rejected) and "id reuse" in r.reason

    def test_undecodable_line_names_its_line(self):
        # whether the iterable decodes each line or iter_proof does
        lines = [b"c ok\n", b"5 1 0 1 2 0\n", b"\xff 0\n"]
        for it in (iter_proof(map(bytes.decode, lines)), iter_proof(lines)):
            assert next(it) == AddStep(5, (1,), (1, 2))
            with pytest.raises(ProofSyntaxError, match="^line 3: 'utf-8' codec"):
                next(it)

    def test_text_only_separators_and_digits(self):
        # U+001C separates tokens and U+0661 is a digit only once decoded
        lines = ["5 1\x1c0 1 2 0", "6 \u0661 0 5 0", "7 d 5\xa00", "\x1c"]
        want = [AddStep(5, (1,), (1, 2)), AddStep(6, (1,), (5,)), DeleteStep(7, (5,))]
        assert list(iter_proof(lines)) == want
        assert list(iter_proof([line.encode() for line in lines])) == want

    def test_steps_are_tuples(self):
        add, delete = AddStep(9, (-1,), (3,)), DeleteStep(10, (9,))
        assert add == (9, (-1,), (3,)) and delete.ids == (9,)
        assert not hasattr(add, "ids") and hasattr(delete, "ids")


def _outcome(checker, f, lines):
    """checker's verdict on the streamed proof text, or the text of the
    syntax error that stopped the stream."""
    try:
        return checker(f, iter_proof(lines))
    except ProofSyntaxError as e:
        return str(e)


class TestCompactChecker:
    """`check` against `reference_check`: verdict, step id, reason and
    Verified counts."""

    def test_matches_reference_on_mutated_proofs(self, mutated_proofs):
        kinds = set()
        not_fresh = 0
        for f, text in mutated_proofs:
            lines = text.splitlines()
            want = _outcome(reference_check, f, lines)
            assert _outcome(check, f, lines) == want
            kinds.add(type(want))
            not_fresh += isinstance(want, Rejected) and want.reason.startswith(
                "pivot not fresh: variable")
        assert {Verified, Rejected, str} <= kinds
        assert not_fresh > 0

    @staticmethod
    def same(f, *triples, refutation=False):
        steps = steps_of(*triples)
        got = check(f, steps, refutation=refutation)
        assert got == reference_check(f, steps, refutation=refutation)
        return got

    def test_definition_after_its_only_clash_partner_is_deleted(self):
        f = CnfFormula(2, [(1, 2)])
        clash = ((2, (-3, 1), ()), (3, (3, 2), ()))  # resolvent (1, 2)
        r = self.same(f, *clash)
        assert isinstance(r, Rejected) and "resolvent with 2" in r.reason
        # a deletion does not end the run on variable 3
        assert self.same(f, clash[0], (3, "d", (2,)), (4, (3, 2), ())).ok

    def test_deleted_clause_repeating_an_extension_variable(self):
        f = CnfFormula(2, [(1, 2)])
        for first in ((-3, 1, -3), (-3, 1, 3), (-3, -3, 3, 1)):
            # clause 3 stays live on variable 3 after clause 2 goes
            head = ((2, first, ()), (3, (3, 2, -1), ()), (4, "d", (2,)))
            r = self.same(f, *head, (5, (-3,), ()))
            assert isinstance(r, Rejected) and "resolvent with 3" in r.reason
            assert self.same(f, *head, (5, "d", (3,)), (6, (-3,), ())).ok

    def test_occurrence_list_empties_and_refills(self):
        f = CnfFormula(2, [(1, 2)])
        head = ((2, (-3, 1), ()), (3, "d", (2,)), (4, (-3, 2), ()))
        r = self.same(f, *head, (5, (3, 1), ()))
        assert isinstance(r, Rejected) and "resolvent with 4" in r.reason
        assert self.same(f, *head, (5, (3, -2), ())).ok

    def test_lowest_clash_partner_is_named(self):
        f = CnfFormula(2, [(1, 2)])
        partners = ((2, (-3, 1), ()), (3, (-3, 2), ()))
        r = self.same(f, *partners, (4, (3,), ()))
        assert isinstance(r, Rejected) and r.reason.endswith("resolvent with 2")
        r = self.same(f, *partners, (4, (3, -1), ()))
        assert isinstance(r, Rejected) and r.reason.endswith("resolvent with 3")

    def test_deleting_a_repeat_keeps_its_neighbours(self):
        # clause 3 names variable 3 twice; deleting it leaves the live
        # clauses on either side of it in that variable's occurrences
        f = CnfFormula(2, [(1, 2)])
        head = ((2, (-3, 1), ()), (3, (-3, 2, -3), ()), (4, (-3, -1, 2), ()),
                (5, "d", (3,)))
        r = self.same(f, *head, (6, (3, -2), ()))
        assert isinstance(r, Rejected) and r.reason.endswith("resolvent with 2")
        r = self.same(f, *head, (6, "d", (2,)), (7, (3,), ()))
        assert isinstance(r, Rejected) and r.reason.endswith("resolvent with 4")
        assert self.same(f, *head, (6, "d", (2, 4)), (7, (3,), ())).ok

    def test_lowest_live_clash_partner_after_deletions(self):
        f = CnfFormula(2, [(1, 2)])
        partners = tuple((i, (-3, 1, 2), ()) for i in range(2, 7))
        r = self.same(f, *partners, (7, "d", (2, 4)), (8, (3,), ()))
        assert isinstance(r, Rejected) and r.reason.endswith("resolvent with 3")
        r = self.same(f, *partners, (7, "d", (3, 2, 5)), (8, (3,), ()))
        assert isinstance(r, Rejected) and r.reason.endswith("resolvent with 4")

    def test_huge_sparse_step_ids(self):
        r = self.same(PHI, (10**15, (1,), (1, 2)), (10**18, (), (10**15, 3, 4)),
                      refutation=True)
        assert r.ok and r.has_empty


class TestFreshPivots:
    """A hintless step continues the current run of definitions on its pivot
    variable, or its pivot is above every variable used so far and it starts
    a run.  The checker with a clause index per extension variable accepted
    every proof that the first four tests reject, and the aimed mutations of
    kinds (2) and (3)."""

    same = staticmethod(TestCompactChecker.same)

    def not_fresh(self, *triples):
        r = self.same(CnfFormula(2, [(1, 2)]), *triples)
        assert isinstance(r, Rejected) and r.reason.startswith("pivot not fresh:")
        return r.reason

    def test_redefinition_after_deletion(self):
        # variable 3's clauses all go once node 4 is defined on it
        head = ((2, (-3, 1), ()), (3, (3, -1), ()), (4, (-4, 3), ()),
                (5, "d", (2, 3, 4)))
        assert self.not_fresh(*head, (6, (-3, 2), ())).endswith("variable 3 not above 4")

    def test_pivot_at_or_below_top_without_clash_partner(self):
        assert self.not_fresh((2, (-4, 1), ()), (3, (-3, 2), ())).endswith(
            "variable 3 not above 4")
        assert self.not_fresh((2, (-3, -4, 1), ()), (3, (-4, 2), ())).endswith(
            "variable 4 not above 4")

    def test_variable_used_only_by_a_hinted_step(self):
        # step 2 weakens input clause 1 by the extension variable 5
        assert self.not_fresh((2, (1, 2, 5), (1,)), (3, (5, 1), ())).endswith(
            "variable 5 not above 5")

    def test_run_resumed_after_a_hinted_step(self):
        head = ((2, (-3, 1), ()), (3, (1, 2), (1,)))
        assert self.not_fresh(*head, (4, (3, -1), ())).endswith("variable 3 not above 3")

    def test_huge_pivot_takes_no_memory_of_its_size(self):
        f = CnfFormula(2, [(1, 2)])
        traced = []
        for v in (3, 10**15):
            steps = steps_of((2, (-v, 1), ()), (3, (-v, 2), ()), (4, (v, -1, -2), ()))
            tracemalloc.start()
            try:
                assert check(f, steps, refutation=False).ok
                traced.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert traced[1] <= traced[0] + 256

    def test_aimed_mutations_are_rejected(self, corpus):
        aimed = aimed_mutations(random.Random(5), corpus)
        assert len(aimed) == 36  # each kind, on each of the 12 parity-ring proofs
        for cnf_text, proof_text in aimed:
            r = check(parse_dimacs(cnf_text), iter_proof(proof_text.splitlines()))
            assert isinstance(r, Rejected) and r.reason.startswith("pivot not fresh: variable")


def test_check_memory_follows_live_clauses():
    # urq m=5 seed 6 is the m=5 instance of the benchmark's urq-refute
    # workload; the proof streams from its lines as `xorcert check` reads it
    f = gen_urquhart(UrqConfig(m=5, seed=6)).formula
    sink = io.StringIO()
    assert Solver(f, proof_sink=sink).solve().status == UNSAT
    lines = sink.getvalue().splitlines()
    live = peak = f.num_clauses
    for st in iter_proof(lines):
        live += -len(st.ids) if isinstance(st, DeleteStep) else 1
        peak = max(peak, live)
    tracemalloc.start()
    try:
        res = check(f, iter_proof(lines))
        traced = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.ok
    # bytes per clause here: 473 with a set of clause ids per extension
    # variable, 363 with a dict per variable, 254 with the watermark and the
    # current run (316 and 208 when earlier tests have filled the interpreter's
    # free lists, which tracing does not count)
    assert traced <= 300 * peak


def urq_proof(tmp_path_factory, m):
    """urq m=M seed M and its proof file."""
    f = gen_urquhart(UrqConfig(m=m, seed=m)).formula
    path = tmp_path_factory.mktemp(f"urq{m}") / f"u{m}.lrat"
    with open(path, "w") as sink:
        assert Solver(f, proof_sink=sink).solve().status == UNSAT
    return f, path


@pytest.fixture(scope="module")
def small_proof(tmp_path_factory):
    """urq m=3 seed 3 and its 194 KB proof file."""
    return urq_proof(tmp_path_factory, 3)


@pytest.fixture(scope="module")
def large_proof(tmp_path_factory):
    """urq m=6 seed 6 and its 1.5 MB proof file: above the size from which
    `xorcert check` forks its reader."""
    f, path = urq_proof(tmp_path_factory, 6)
    assert path.stat().st_size > 1 << 20
    return f, path


def forked_check(f, path, **kw):
    with open(path, "rb") as fh, forked_steps(fh) as steps:
        return check(f, steps, **kw)


def inline_check(f, path, **kw):
    with open(path, "rb") as fh:
        return check(f, iter_proof(fh), **kw)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestForkedReader:
    def test_same_verdict_as_inline(self, large_proof):
        f, path = large_proof
        res = forked_check(f, path)
        assert res.ok and res == inline_check(f, path)
        assert_no_child_left()

    def test_steps_are_plain_tuples_in_file_order(self, large_proof):
        _, path = large_proof
        with open(path, "rb") as fh, forked_steps(fh) as steps:
            got = list(steps)
        assert {type(st) for st in got} == {tuple}
        assert got == list(map(tuple, parse_proof(path.read_text())))

    def test_check_takes_plain_tuples(self, large_proof):
        f, path = large_proof
        steps = parse_proof(path.read_text())
        assert check(f, map(tuple, steps)) == check(f, steps)

    def test_late_bad_token_raises_the_inline_error(self, large_proof, tmp_path):
        f, path = large_proof
        lines = path.read_text().splitlines(keepends=True)
        k = len(lines) * 9 // 10
        lines[k] = lines[k].replace(" 0 ", " 0 x ", 1)
        bad = tmp_path / "bad.lrat"
        bad.write_text("".join(lines))
        errors = []
        for run in (inline_check, forked_check):
            with pytest.raises(ProofSyntaxError) as e:
                run(f, bad)
            errors.append(str(e.value))
        assert errors[0] == errors[1] == f"line {k + 1}: bad token in add step"
        assert_no_child_left()

    @pytest.mark.parametrize("code", [3, 0])
    def test_reader_dying_mid_stream_never_verifies(self, large_proof, monkeypatch, code):
        # the fork inherits the patched parser, which leaves after 5,000
        # steps: without the end frame, even a zero exit status is an error
        f, path = large_proof
        parse = lrat.iter_proof

        def dying(lines):
            for n, st in enumerate(parse(lines)):
                if n == 5000:
                    os._exit(code)
                yield st

        monkeypatch.setattr(lrat, "iter_proof", dying)
        seen = []
        with pytest.raises(ProofReaderError, match=rf"exit status {code}\)$"):
            with open(path, "rb") as fh, forked_steps(fh) as steps:
                for st in steps:
                    seen.append(st)
        assert len(seen) <= 5000
        assert_no_child_left()

    def test_non_zero_exit_after_the_end_frame_never_verifies(self, large_proof,
                                                              monkeypatch):
        # the fork inherits the patched exit: it sends every step and the
        # end frame, then leaves with status 7
        f, path = large_proof
        leave = os._exit
        monkeypatch.setattr(os, "_exit", lambda code: leave(code or 7))
        with pytest.raises(ProofReaderError, match=r"exit status 7\)$"):
            forked_check(f, path)
        assert_no_child_left()

    def test_reader_failure_is_raised_with_its_class_and_message(self, large_proof,
                                                                 monkeypatch):
        f, path = large_proof

        class Odd(Exception):
            pass

        for exc, cls, msg in ((OSError("[Errno 5] Input/output error"), OSError,
                               "[Errno 5] Input/output error"),
                              (MemoryError(), MemoryError, ""),
                              (Odd("what"), ProofReaderError, "proof reader failed: Odd: what")):
            def failing(lines, exc=exc):
                yield from ()
                raise exc

            monkeypatch.setattr(lrat, "iter_proof", failing)
            with pytest.raises(cls) as e:
                forked_check(f, path)
            assert type(e.value) is cls and str(e.value) == msg
        assert_no_child_left()

    def test_early_rejection_kills_and_reaps_the_reader(self, large_proof, tmp_path):
        f, path = large_proof
        lines = path.read_text().splitlines(keepends=True)
        lines[3] = "9 d 999999 0\n"
        bad = tmp_path / "bad.lrat"
        bad.write_text("".join(lines))
        res = forked_check(f, bad)
        assert res == inline_check(f, bad)
        assert res.step_id == 9 and res.reason.startswith("id reuse: 9 not above")
        assert_no_child_left()

    def test_leaving_before_the_first_step_reaps_the_reader(self, large_proof):
        _, path = large_proof
        with pytest.raises(ValueError, match="malformed"):
            with open(path, "rb") as fh, forked_steps(fh):
                raise ValueError("malformed CNF")
        assert_no_child_left()


def satisfiable_twin(m):
    """The formula of `xorcert gen urquhart -m M --seed M --parity even`,
    urq m=M seed M with one charge flipped.  It is known satisfiable without
    any checker code: the solver's model satisfies each of its clauses."""
    odd = gen_urquhart(UrqConfig(m=m, seed=m)).constraints
    twin = gen_urquhart(UrqConfig(m=m, seed=m, parity="even"))
    flipped = [(a, b) for a, b in zip(odd, twin.constraints) if a != b]
    assert len(flipped) == 1 and flipped[0][0].vars == flipped[0][1].vars
    res = Solver(twin.formula).solve()
    assert res.status == SAT
    true = set(res.model)
    assert all(true.intersection(cl) for cl in twin.formula.clauses)
    return twin.formula


MUTATIONS = ("drop-lit", "negate-lit", "replace-lit", "drop-hint", "swap-hints", "replace-hint")


def mutated_step(rng, toks, kind, top):
    """Add-line tokens `toks` with one mutation of `kind`, or None when the
    step has nothing to mutate that way.  A replacement literal is drawn
    over variables 1..top, a replacement hint over the ids below the
    step's own."""
    z = toks.index("0", 1)
    sid, lits, hints = toks[0], toks[1:z], toks[z + 1:-1]
    items = lits if kind.endswith("lit") else hints
    if not items or (kind == "swap-hints" and len(set(hints)) < 2):
        return None
    j = rng.randrange(len(items))
    if kind.startswith("drop"):
        del items[j]
    elif kind == "negate-lit":
        items[j] = str(-int(items[j]))
    elif kind == "swap-hints":
        k = rng.choice([k for k, h in enumerate(hints) if h != hints[j]])
        items[j], items[k] = items[k], items[j]
    else:
        old = items[j]
        while items[j] == old:
            items[j] = str(rng.choice((1, -1)) * rng.randint(1, top) if kind == "replace-lit"
                           else rng.randrange(1, int(sid)))
    return [sid, *lits, "0", *hints, "0"]


class TestSatisfiableTwins:
    """`gen urquhart --parity even` at the same m and seed flips one charge,
    and the twin is satisfiable, so no refutation of it may be Verified: a
    proof of the odd instance, mutated or not, must be Rejected on the
    twin, whatever a second checker would say."""

    @pytest.mark.parametrize("m, proof", [(3, "small_proof"), (6, "large_proof")])
    def test_proof_rejected_on_its_twin(self, request, tmp_path, capsys, m, proof):
        f, path = request.getfixturevalue(proof)
        twin = satisfiable_twin(m)
        assert inline_check(f, path).ok
        for run in (inline_check, forked_check):
            assert isinstance(run(twin, path), Rejected)
            assert_no_child_left()
        cnf = tmp_path / "twin.cnf"
        cnf.write_text(write_dimacs(twin))
        assert cli.main(["check", str(cnf), str(path)]) == 2
        assert capsys.readouterr().out.startswith("Rejected at step ")
        assert_no_child_left()

    def test_mutations_rejected_on_the_twin(self, small_proof):
        f, path = small_proof
        twin = satisfiable_twin(3)
        lines = path.read_text().splitlines()
        steps = [line.split() for line in lines]
        # the lines before the first one that hints a clause of the flipped
        # charge read the same against both formulas, and the check stops at
        # the first failing step, so only a mutation up to that line can
        # change the verdict
        flipped = {str(i) for i, (a, b) in enumerate(zip(f.clauses, twin.clauses), 1) if a != b}
        cut = 1 + next(i for i, toks in enumerate(steps)
                       if flipped.intersection(toks[toks.index("0", 1) + 1:]))
        adds = [i for i in range(cut) if steps[i][1] != "d"]
        top = max(abs(int(t)) for i in adds for t in steps[i][1:steps[i].index("0", 1)])
        rng = random.Random(26)
        mutants = [(i, mutated_step(rng, steps[i], kind, top))
                   for i in adds for kind in MUTATIONS for _ in range(8)]
        runs = _definition_runs(steps)
        mutants += [(i, _pivot_renamed(rng, steps[i], runs, k))
                    for k, i in _rename_sites(runs) if i < cut for _ in range(4)]
        mutants = {(i, " ".join(toks)) for i, toks in mutants
                   if toks is not None and toks != steps[i]}
        assert len(mutants) >= 200
        for i, line in sorted(mutants):
            proof = chain(islice(lines, i), [line], islice(lines, i + 1, None))
            r = check(twin, iter_proof(proof))
            assert isinstance(r, Rejected), (i, line)
