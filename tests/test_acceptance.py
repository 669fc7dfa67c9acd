"""Acceptance gate: one test per shipping criterion, each printing a
single pass/fail line with its measured cost.

These tests are intentionally end-to-end and slower than the unit suites.
The timing bounds asserted here are part of the contract, so they run
against wall clocks, not mocks.
"""

import random
import time
from io import StringIO

import pytest

from xorcert import cli
from xorcert.bdd import Bdd
from xorcert.benchgen import (
    LpnConfig,
    UrqConfig,
    gen_lpn,
    gen_urquhart,
    lpn_oracle,
    parity_system_unsat,
)
from xorcert.formula import (
    CnfFormula,
    DimacsError,
    ParityConstraint,
    extract_xors,
    parse_dimacs,
    write_dimacs,
    xor_encoding_clauses,
)
from xorcert.lrat import ProofSyntaxError, check, parse_proof
from xorcert.solver import SAT, UNSAT, LIMIT, Solver

from test_gauss import add_row_into, full_scan


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def cone_size(b, root):
    seen = set()
    stack = [root]
    while stack:
        u = stack.pop()
        if u in seen or b.is_terminal(u):
            continue
        seen.add(u)
        stack.append(b.hi(u))
        stack.append(b.lo(u))
    return len(seen)


def brute_unsat(f):
    vs = sorted({abs(l) for c in f.clauses for l in c})
    assert len(vs) <= 16, "robustness corpus must stay brute-forceable"
    for bits in range(1 << len(vs)):
        val = {v: bool(bits >> i & 1) for i, v in enumerate(vs)}
        if all(any(val.get(abs(l), False) == (l > 0) for l in c) for c in f.clauses):
            return False
    return True


def test_criterion_1_shadow_worked_example():
    cons = [
        ParityConstraint((1, 2), 1),
        ParityConstraint((1, 3), 0),
        ParityConstraint((1, 2, 3), 1),
    ]
    from xorcert.gauss import ParityEngine

    best = float("inf")
    for _ in range(5):
        t0 = time.perf_counter()
        eng = ParityEngine(cons)
        eng.eliminate_column(0, 0)
        best = min(best, time.perf_counter() - t0)
    # matrix rows read leftmost column first, shadow rows bit 0 first
    ok = (
        eng.rows == [0b011, 0b110, 0b100]
        and eng.phases == [1, 1, 0]
        and eng.shadow == [0b001, 0b011, 0b101]
        and best < 1e-3
    )
    report(1, ok, f"single elimination bit-exact, {best * 1e6:.0f} us")


def test_criterion_2_parity_bdd_size():
    rng = random.Random(2026)
    t0 = time.perf_counter()
    for k in range(2, 65):
        for _ in range(10):
            vs = list(range(1, k + 1))
            order = vs[:]
            rng.shuffle(order)
            b = Bdd(order)
            root = b.parity_bdd(vs, rng.randrange(2))
            n = cone_size(b, root)
            assert b.num_nodes() == k, f"k={k}: {b.num_nodes()} stored nodes"
            assert n == 2 * k - 1, f"k={k}: {n} signed subfunctions"
    dt = time.perf_counter() - t0
    report(2, dt < 1.0, f"k stored nodes, 2k-1 signed subfunctions for k=2..64 x 10 orders, "
                        f"{dt:.2f} s")


def test_criterion_3_encode_extract_round_trip():
    rng = random.Random(33)
    t0 = time.perf_counter()
    for _ in range(500):
        k = rng.randint(1, 6)
        vs = tuple(sorted(rng.sample(range(1, 31), k)))
        phase = rng.randrange(2)
        con = ParityConstraint(vs, phase)
        clauses = xor_encoding_clauses(con)
        f = CnfFormula(max(vs), [tuple(c) for c in clauses])
        got = extract_xors(f)
        assert [(c.vars, c.phase) for c in got] == [(vs, phase)]
        for bits in range(1 << k):
            val = {v: bool(bits >> i & 1) for i, v in enumerate(vs)}
            sat = all(any(val[abs(l)] == (l > 0) for l in c) for c in clauses)
            assert sat == (sum(val[v] for v in vs) % 2 == phase)
    dt = time.perf_counter() - t0
    report(3, dt < 5.0, f"500 constraints round-trip and 2^k semantics, {dt:.2f} s")


def test_criterion_4a_urquhart_xor_suite():
    t0 = time.perf_counter()
    sizes = []
    for m in range(3, 9):
        inst = gen_urquhart(UrqConfig(m=m, seed=m))
        sink = StringIO()
        res = Solver(inst.formula, proof_sink=sink).solve()
        assert res.status == UNSAT, f"m={m} not refuted"
        v = check(inst.formula, parse_proof(sink.getvalue()))
        assert v.ok, f"m={m} proof rejected: {v}"
        sizes.append(v.adds)
    dt = time.perf_counter() - t0
    report(
        "4a",
        dt < 60.0,
        f"m=3..8 refuted and Verified ({min(sizes)}..{max(sizes)} adds), {dt:.1f} s",
    )


def test_criterion_5_generator_counts():
    inst = gen_urquhart(UrqConfig(m=3, seed=0))
    exact = (
        inst.formula.num_vars == 153
        and len(inst.formula.clauses) == 408
        and len(inst.constraints) == 102
    )
    structural = True
    for m in range(3, 7):
        for parity in ("odd", "even"):
            i2 = gen_urquhart(UrqConfig(m=m, seed=m, parity=parity))
            structural &= len(i2.formula.clauses) == 4 * len(i2.constraints)
            uses = {}
            for c in i2.constraints:
                for v in c.vars:
                    uses[v] = uses.get(v, 0) + 1
            structural &= set(uses.values()) == {2}
            odd = sum(c.phase for c in i2.constraints) % 2 == 1
            structural &= parity_system_unsat(i2.constraints) == odd
    report(5, exact and structural, "m=3 is 153/408/102; structure holds for m<=6")


def test_criterion_9_proof_size_guard(tmp_path, capsys):
    t0 = time.perf_counter()
    cnf = str(tmp_path / "u.cnf")
    proof = tmp_path / "u.lrat"
    assert cli.main(["gen", "urquhart", "-m", "3", "--seed", "7", "-o", cnf]) == 0
    rc = cli.main(["solve", cnf, "--proof", str(proof), "--max-proof-clauses", "1000"])
    capsys.readouterr()
    steps = parse_proof(proof.read_text())
    adds = sum(1 for s in steps if hasattr(s, "lits"))
    with open(cnf) as fh:
        v = check(parse_dimacs(fh.read()), steps, refutation=False)
    dt = time.perf_counter() - t0
    ok = rc == 30 and adds <= 1000 and v.ok and dt < 10.0
    report(9, ok, f"budget abort rc=30, {adds} adds kept, prefix Verified, {dt:.1f} s")


def test_criterion_8_justification_and_gc_replay():
    # in-run half: record the sink offset after every justification, then
    # re-check sampled cumulative prefixes, deletions included.  Offsets
    # are cheap; copying the buffer per justification is quadratic.
    class SnapshotSolver(Solver):
        def __init__(self, *a, **kw):
            super().__init__(*a, **kw)
            self.marks = []

        def _justify(self, rec):
            pid = super()._justify(rec)
            if pid is not None:
                self.marks.append(self.writer.sink.tell())
            return pid

    # parity reasons are justified only when conflict analysis uses them;
    # under the generator's variable order this search uses none, so the
    # solver's default order is the one that exercises justification
    inst = gen_lpn(LpnConfig(n=14, bound_offset=True, seed=77))
    assert lpn_oracle(inst) == "UNSAT"
    sink = StringIO()
    s = SnapshotSolver(inst.formula, proof_sink=sink)
    res = s.solve()
    assert res.status == UNSAT
    text = sink.getvalue()
    assert s.marks, "run must exercise parity justifications"
    offsets = s.marks[:: max(1, len(s.marks) // 8)]
    picks = [text[:off] for off in offsets] + [text]
    for prefix in picks:
        v = check(inst.formula, parse_proof(prefix), refutation=False)
        assert v.ok, f"cumulative prefix rejected: {v}"

    # row-modification half: justify, rewrite the row, justify again; the
    # retired sum must be deleted and the whole transcript must replay
    clauses = []
    for vs, ph in [((1, 2), 1), ((2, 3), 1)]:
        clauses += xor_encoding_clauses(ParityConstraint(vs, ph))
    f2 = CnfFormula(3, clauses)
    sink2 = StringIO()
    s2 = Solver(f2, proof_sink=sink2)
    s2._prepare_parity()
    rec = next(r for r in full_scan(s2.par, {1: True}) if r.row == 0)
    s2._justify(rec)
    assert check(f2, parse_proof(sink2.getvalue()), refutation=False).ok
    add_row_into(s2.par, 1, 0)
    rec2 = next(r for r in full_scan(s2.par, {1: True}) if r.row == 0)
    s2._justify(rec2)
    s2.tb.flush_deletes()
    v2 = check(f2, parse_proof(sink2.getvalue()), refutation=False)
    ok = v2.ok and v2.deletes > 0
    report(8, ok, f"{len(picks)} prefixes re-Verified; row rewrite replayed "
                  f"with {v2.deletes} deletes")


@pytest.mark.slow  # about a minute
def test_criterion_6_lpn_cross_validation():
    t0 = time.perf_counter()
    unsat_verified = 0
    for i in range(50):
        cfg_n = 8 + i % 7
        for off in (False, True):
            inst = gen_lpn(LpnConfig(n=cfg_n, bound_offset=off, seed=1000 + i))
            sink = StringIO()
            res = Solver(inst.formula, proof_sink=sink, var_order=inst.var_order).solve()
            want = lpn_oracle(inst)
            assert res.status == want, f"n={cfg_n} seed={1000 + i} off={off}: " \
                                       f"solver {res.status} vs oracle {want}"
            if res.status == UNSAT:
                v = check(inst.formula, parse_proof(sink.getvalue()))
                assert v.ok, f"n={cfg_n} seed={1000 + i}: proof rejected: {v}"
                unsat_verified += 1
    dt = time.perf_counter() - t0
    ok = dt < 600.0 and unsat_verified >= 1
    report(6, ok, f"100 runs agree with oracle, {unsat_verified} UNSAT proofs "
                  f"Verified, {dt:.1f} s")


def _robustness_corpus():
    corpus = []
    rng = random.Random(404)
    # parity rings: adjacent-pair constraints cancel to an odd phase total
    for _ in range(12):
        phases = [rng.randrange(2) for _ in range(8)]
        if sum(phases) % 2 == 0:
            phases[0] ^= 1
        clauses = []
        for i in range(8):
            con = ParityConstraint(tuple(sorted((i + 1, (i + 1) % 8 + 1))), phases[i])
            clauses += xor_encoding_clauses(con)
        f = CnfFormula(8, [tuple(c) for c in clauses])
        sink = StringIO()
        res = Solver(f, proof_sink=sink).solve()
        assert res.status == UNSAT
        corpus.append((write_dimacs(f), sink.getvalue()))
    # small random 3-CNF refutations, brute-force confirmed unsatisfiable
    seed = 0
    while len(corpus) < 52 and seed < 4000:
        seed += 1
        r = random.Random(seed)
        n = r.randint(7, 9)
        m = round(4.8 * n)
        cl = []
        for _ in range(m):
            vs = r.sample(range(1, n + 1), 3)
            cl.append(tuple(v if r.random() < 0.5 else -v for v in vs))
        f = CnfFormula(n, cl)
        if not brute_unsat(f):
            continue
        sink = StringIO()
        res = Solver(f, use_xor=False, proof_sink=sink).solve()
        assert res.status == UNSAT
        corpus.append((write_dimacs(f), sink.getvalue()))
    for cnf_text, proof_text in corpus:
        assert check(parse_dimacs(cnf_text), parse_proof(proof_text)).ok
    return corpus


MUTATION_TOKENS = [str(i) for i in range(-9, 10)] + ["d"]


def mutate_one(rng, corpus):
    """One criterion-7 mutation: a corpus pair with one token of its CNF
    (30% of draws) or of its proof replaced.  Returns (cnf_text,
    proof_text, mutated_cnf), or None when the picked line is blank."""
    cnf_text, proof_text = corpus[rng.randrange(len(corpus))]
    mutate_cnf = rng.random() < 0.3
    lines = (cnf_text if mutate_cnf else proof_text).splitlines()
    li = rng.randrange(len(lines))
    toks = lines[li].split()
    if not toks:
        return None
    ti = rng.randrange(len(toks))
    toks[ti] = rng.choice([t for t in MUTATION_TOKENS if t != toks[ti]])
    lines[li] = " ".join(toks)
    mutated = "\n".join(lines) + "\n"
    if mutate_cnf:
        return mutated, proof_text, True
    return cnf_text, mutated, False


def test_criterion_7_proof_robustness():
    t0 = time.perf_counter()
    corpus = _robustness_corpus()
    assert len(corpus) >= 50
    rng = random.Random(777)
    rejected = survived = 0
    for _ in range(1000):
        drawn = mutate_one(rng, corpus)
        if drawn is None:
            rejected += 1
            continue
        cnf_text, proof_text, _ = drawn
        try:
            f = parse_dimacs(cnf_text)
            steps = parse_proof(proof_text)
        except (DimacsError, ProofSyntaxError):
            rejected += 1
            continue
        v = check(f, steps)
        if v.ok:
            # an accepted refutation must still refute a real contradiction
            assert brute_unsat(f), "mutation produced a bogus refutation"
            survived += 1
        else:
            rejected += 1
    dt = time.perf_counter() - t0
    ok = rejected + survived == 1000 and dt < 300.0
    report(7, ok, f"{rejected} rejected, {survived} still-sound survivors "
                  f"over {len(corpus)} proofs, {dt:.1f} s")


@pytest.mark.slow  # waits out a 300 s timeout
def test_criterion_4b_clausal_mode_hits_timeout(tmp_path, capsys):
    # the honest half of the speedup claim: without parity reasoning one
    # mid-size instance must still be running at the 300 s mark
    cnf = str(tmp_path / "u4.cnf")
    assert cli.main(["gen", "urquhart", "-m", "4", "--seed", "4", "-o", cnf]) == 0
    t0 = time.perf_counter()
    rc = cli.main(["solve", cnf, "--no-xor", "--timeout", "300"])
    dt = time.perf_counter() - t0
    capsys.readouterr()
    report("4b", rc == 30 and dt >= 300.0, f"m=4 clausal-only timed out after {dt:.0f} s")
