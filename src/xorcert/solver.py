"""Conflict-driven search with an integrated parity-reasoning engine.

The clausal core is a standard two-watched-literal CDCL loop: first-UIP
learning, backjumping, activity-ordered decisions, Luby restarts, phase
saving.  Parity constraints recovered from the input encoding live in a
Gauss-Jordan engine that is consulted once clausal propagation reaches a
fixpoint; the two propagators alternate until neither adds anything.

Proof discipline: every learned clause is emitted as a hinted RUP step
whose hints are the reasons of the literals resolved away, in trail order,
with the conflict clause last.  Reasons reported by the parity engine are
justified the moment they are generated: the engine's shadow matrix names
the initial constraints summing to the row, those constraints' trusted
BDDs are summed (cached per row until the row's origin changes), and the
reason clause is emitted with a single hinted step before the solver
relies on it.  A top-level conflict closes the proof with the empty clause.

State layout (MiniSat's): assignment, levels, reasons and watches live in
flat lists, not dicts.  `lval[lit]` is True, False or None for every literal
of the n variables; it has 2n+1 slots, so Python's negative indexing puts
-v at slot 2n+1-v, disjoint from the slots 1..n of the positive literals
(2n slots would alias -n with n).  `watches` has the same shape and holds
the `_Clause` objects watching each literal.  `levels`, `reason_lits` and
`reason_pid` are indexed by variable and are only meaningful while the
variable is assigned; backtracking clears `lval` and leaves the rest stale.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

from .formula import CnfFormula, extract_xors
from .gauss import CONFLICT, ParityEngine
from .lrat import DEFAULT_MAX_PROOF_CLAUSES, ProofLimitExceeded, ProofWriter
from .tbdd import TbddEngine

SAT = "SAT"
UNSAT = "UNSAT"
LIMIT = "LIMIT"

RESTART_BASE = 64
ACT_DECAY = 0.95
ACT_RESCALE = 1e100


def luby(i: int) -> int:
    """i-th term (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    assert i >= 1
    k = i.bit_length()
    if i == (1 << k) - 1:
        return 1 << (k - 1)
    return luby(i - (1 << (k - 1)) + 1)


class _Stop(Exception):
    def __init__(self, reason):
        self.reason = reason


@dataclass
class SolveResult:
    status: str
    model: list[int] | None = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    parity_propagations: int = 0
    restarts: int = 0
    learned: int = 0
    num_xors: int = 0
    elapsed: float = 0.0
    proof_adds: int = 0
    proof_deletes: int = 0
    ext_vars: int = 0
    peak_bdd_nodes: int = 0
    gc_collections: int = 0
    stop_reason: str = "done"


class _Clause:
    __slots__ = ("lits", "w", "pid")

    def __init__(self, lits, pid):
        self.lits = tuple(lits)
        self.w = list(lits)
        self.pid = pid


def checked_order(var_order, n: int) -> list[int]:
    """`var_order` as a list (1..n when None); ValueError unless it is a
    permutation of 1..n."""
    if var_order is None:
        return list(range(1, n + 1))
    order = list(var_order)
    if sorted(order) != list(range(1, n + 1)):
        raise ValueError(f"not a permutation of 1..{n} ({len(order)} entries)")
    return order


class Solver:
    def __init__(
        self,
        formula: CnfFormula,
        *,
        use_xor: bool = True,
        proof_sink=None,
        max_proof_clauses: int = DEFAULT_MAX_PROOF_CLAUSES,
        var_order=None,
        timeout: float | None = None,
    ):
        self.f = formula
        self.use_xor = use_xor
        self.timeout = timeout
        n = formula.num_vars
        self.order = checked_order(var_order, n)
        self.writer = None
        if proof_sink is not None:
            self.writer = ProofWriter(proof_sink, formula.num_clauses, max_proof_clauses)
        # assignment state: lval by literal, the rest by variable
        self.lval: list[bool | None] = [None] * (2 * n + 1)
        self.levels: list[int] = [0] * (n + 1)
        self.reason_lits: list[tuple | None] = [None] * (n + 1)
        self.reason_pid: list[int | None] = [None] * (n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.ghead = 0
        # clause store: a clause of two or more literals lives in the watch
        # lists of its first two `w` entries
        self.watches: list[list[_Clause]] = [[] for _ in range(2 * n + 1)]
        # heuristics
        self.activity = [0.0] * (n + 1)
        self.var_inc = 1.0
        self.saved_phase = [False] * (n + 1)
        self.heap = [(0.0, v) for v in range(1, n + 1)]
        heapq.heapify(self.heap)
        # parity side
        self.par: ParityEngine | None = None
        self.tb: TbddEngine | None = None
        self.xors = []
        self.xor_tbdds = []
        self.row_sum: dict[int, tuple] = {}    # row -> (origin, summed Tbdd)
        self.justified: dict[tuple, int] = {}  # reason clause -> proof id
        # stats
        self.conflicts = 0
        self.decisions = 0
        self.propagations = 0
        self.parity_propagations = 0
        self.restarts = 0
        self.learned_count = 0

    # -- assignment primitives ----------------------------------------------

    @property
    def level(self) -> int:
        return len(self.trail_lim)

    def _enqueue(self, lit, rlits, rpid):
        lval = self.lval
        assert lval[lit] is None
        lval[lit] = True
        lval[-lit] = False
        v = lit if lit > 0 else -lit
        self.levels[v] = len(self.trail_lim)
        self.reason_lits[v] = rlits
        self.reason_pid[v] = rpid
        self.trail.append(lit)

    def _backtrack(self, lvl):
        trail = self.trail
        lval = self.lval
        saved_phase = self.saved_phase
        activity = self.activity
        heap = self.heap
        par = self.par
        ghead = self.ghead
        keep = self.trail_lim[lvl]
        for idx in range(len(trail) - 1, keep - 1, -1):
            lit = trail[idx]
            v = lit if lit > 0 else -lit
            saved_phase[v] = lit > 0
            lval[lit] = lval[-lit] = None
            if par is not None and idx < ghead:
                par.on_unassign(v)
            heapq.heappush(heap, (-activity[v], v))
        del trail[keep:]
        del self.trail_lim[lvl:]
        self.qhead = len(trail)
        self.ghead = min(ghead, len(trail))

    def _bump(self, v):
        """Raise v's activity.  v is assigned, so it needs no heap entry
        now: `_backtrack` queues it with its current activity once freed."""
        act = self.activity
        act[v] += self.var_inc
        if act[v] > ACT_RESCALE:
            for u in range(1, len(act)):
                act[u] *= 1.0 / ACT_RESCALE
            self.var_inc *= 1.0 / ACT_RESCALE
            # the queued keys predate the rescale: requeue the free variables
            lval = self.lval
            self.heap = [(-act[u], u) for u in range(1, len(act)) if lval[u] is None]
            heapq.heapify(self.heap)

    def _decide(self):
        while self.heap:
            _, v = heapq.heappop(self.heap)
            if self.lval[v] is None:
                return v if self.saved_phase[v] else -v
        return None

    # -- clause store --------------------------------------------------------

    def _attach(self, cl):
        for lit in cl.w[:2]:
            self.watches[lit].append(cl)

    def _add_input_clauses(self):
        for cid in range(1, self.f.num_clauses + 1):
            lits = self.f.clause(cid)
            if len(lits) >= 2:
                self._attach(_Clause(lits, cid))

    # -- parity preparation --------------------------------------------------

    def _build_xor_tbdd(self, con):
        """Conjoin the constraint's own encoding clauses, then upgrade the
        result to the canonical parity BDD it must equal.  The conjunctions
        are garbage afterwards, so the BDD table may be collected."""
        tb = self.tb
        acc = None
        for cid in con.source_clauses:
            t = tb.tbdd_from_clause(self.f.clause(cid), cid)
            if acc is None:
                acc = t
            else:
                nxt = tb.tbdd_and(acc, t)
                tb.drop(acc)
                tb.drop(t)
                acc = nxt
        target = tb.bdd.parity_bdd(con.vars, con.phase)
        up = tb.tbdd_upgrade(acc, target)
        up.constraint = con
        tb.drop(acc)
        tb.flush_deletes()
        tb.maybe_collect()
        return up

    def _prepare_parity(self):
        self.xors = extract_xors(self.f)
        if not self.xors:
            return
        support = {v for c in self.xors for v in c.vars}
        cols = [v for v in self.order if v in support]
        self.par = ParityEngine(self.xors, column_vars=cols)
        if self.writer is not None:
            self.tb = TbddEngine(self.order, self.writer, self.f.num_vars)
            self.xor_tbdds = [self._build_xor_tbdd(c) for c in self.xors]
        self.par.full_reduce()

    def _justify(self, rec):
        """Proof id of a step deriving rec.clause (None without a proof).
        A row's sum is rebuilt when its origin changes; a justified clause's
        step is never deleted, so its id is cached by clause."""
        if self.tb is None:
            return None
        row = rec.row
        ent = self.row_sum.get(row)
        if ent is None or ent[0] != rec.origin:
            if ent is not None and len(ent[0]) > 1:  # else an input's own Tbdd
                self.tb.drop(ent[1])
            summed = self.tb.greedy_sum([self.xor_tbdds[i] for i in rec.origin])
            ent = self.row_sum[row] = (rec.origin, summed)
        pid = self.justified.get(rec.clause)
        if pid is None:
            pid = self.justified[rec.clause] = self.tb.tbdd_justify_clause(ent[1], rec.clause)
            self.tb.maybe_collect()
        return pid

    # -- propagation ---------------------------------------------------------

    def _propagate(self):
        """Clausal propagation to fixpoint, then one parity pass over the
        newly assigned suffix; alternate until a joint fixpoint or a
        conflict.  Returns (clause_lits, proof_id) on conflict else None."""
        trail = self.trail
        lval = self.lval
        watches = self.watches
        levels = self.levels
        reason_lits = self.reason_lits
        reason_pid = self.reason_pid
        lvl = len(self.trail_lim)
        while True:
            qhead = self.qhead
            props = 0
            confl = None
            while qhead < len(trail):
                p = trail[qhead]
                qhead += 1
                props += 1
                falsified = -p
                ws = watches[falsified]
                if not ws:
                    continue
                kept = []
                i = 0
                n_ws = len(ws)
                while i < n_ws:
                    cl = ws[i]
                    i += 1
                    w = cl.w
                    if w[0] == falsified:
                        w[0], w[1] = w[1], falsified
                    first = w[0]
                    fv = lval[first]
                    if fv is True:
                        kept.append(cl)
                        continue
                    for k in range(2, len(w)):
                        other = w[k]
                        if lval[other] is not False:
                            w[1] = other
                            w[k] = falsified
                            watches[other].append(cl)
                            break
                    else:
                        kept.append(cl)
                        if fv is False:
                            confl = cl
                            kept.extend(ws[i:])
                            break
                        # enqueue `first` with this clause as its reason
                        lval[first] = True
                        lval[-first] = False
                        v = first if first > 0 else -first
                        levels[v] = lvl
                        reason_lits[v] = cl.lits
                        reason_pid[v] = cl.pid
                        trail.append(first)
                watches[falsified] = kept
                if confl is not None:
                    break
            self.qhead = qhead
            self.propagations += props
            if confl is not None:
                return confl.lits, confl.pid
            if self.par is None or self.ghead >= len(trail):
                return None
            limit = len(trail)
            while self.ghead < limit:
                p = trail[self.ghead]
                self.ghead += 1
                for rec in self.par.on_assign(p if p > 0 else -p, p > 0):
                    self.parity_propagations += 1
                    out = self._handle_record(rec)
                    if out is not None:
                        return out

    def _handle_record(self, rec):
        """Justify a parity record and enqueue its implied literal; returns
        (clause, proof id) if the record conflicts with the assignment."""
        pid = self._justify(rec)
        if rec.kind == CONFLICT:
            return rec.clause, pid
        lit = rec.clause[0]
        val = self.lval[lit]
        if val is None:
            self._enqueue(lit, rec.clause, pid)
        elif val is False:
            return rec.clause, pid
        return None

    # -- conflict analysis ---------------------------------------------------

    def _analyze(self, confl_lits, confl_pid):
        trail = self.trail
        levels = self.levels
        reason_lits = self.reason_lits
        reason_pid = self.reason_pid
        bump = self._bump
        lvl = len(self.trail_lim)
        seen = set()
        tail = []
        resolved = []
        counter = 0
        cur = confl_lits
        idx = len(trail) - 1
        while True:
            for q in cur:
                v = q if q > 0 else -q
                if v in seen:
                    continue
                seen.add(v)
                bump(v)
                if levels[v] == lvl:
                    counter += 1
                else:
                    tail.append(q)
            assert counter > 0, "conflict clause must touch the current level"
            while abs(trail[idx]) not in seen:
                idx -= 1
            p = trail[idx]
            v = p if p > 0 else -p
            counter -= 1
            if counter == 0:
                uip = p
                break
            resolved.append((idx, reason_pid[v]))
            cur = [q for q in reason_lits[v] if q != p]
            idx -= 1
        tail.sort(key=lambda q: -levels[abs(q)])
        learned = (-uip,) + tuple(tail)
        bj = levels[abs(tail[0])] if tail else 0
        resolved.sort()
        hints = [pid for _, pid in resolved] + [confl_pid]
        return learned, bj, hints

    def _derive_empty(self, confl_lits, confl_pid):
        """Top-level conflict: emit the empty clause hinted by the reasons
        of the conflict's transitive support, in trail order."""
        if self.writer is None:
            return
        need = {abs(q) for q in confl_lits}
        picked = []
        for idx in range(len(self.trail) - 1, -1, -1):
            v = abs(self.trail[idx])
            if v not in need:
                continue
            rl = self.reason_lits[v]
            assert rl is not None, "top-level literals always carry reasons"
            picked.append((idx, self.reason_pid[v]))
            need.update(abs(q) for q in rl)
        picked.sort()
        self.writer.add((), [pid for _, pid in picked] + [confl_pid])

    def _learn(self, learned, hints):
        pid = None
        if self.writer is not None:
            pid = self.writer.add(learned, hints)
        self.learned_count += 1
        if len(learned) == 1:
            return learned[0], learned, pid
        self._attach(_Clause(learned, pid))
        return learned[0], learned, pid

    # -- top level -----------------------------------------------------------

    def _check_time(self, t0):
        if self.timeout is not None and time.monotonic() - t0 > self.timeout:
            raise _Stop("timeout")

    def _init_constraints(self):
        """Level-0 setup: input units, empty input clauses, parity rows that
        are already empty or unit.  Returns UNSAT when refutation closes."""
        for cid in range(1, self.f.num_clauses + 1):
            lits = self.f.clause(cid)
            if not lits:
                if self.writer is not None:
                    self.writer.add((), [cid])
                return UNSAT
        for cid in range(1, self.f.num_clauses + 1):
            lits = self.f.clause(cid)
            if len(lits) == 1:
                lit = lits[0]
                val = self.lval[lit]
                if val is False:
                    if self.writer is not None:
                        self._derive_empty(lits, cid)
                    return UNSAT
                if val is None:
                    self._enqueue(lit, lits, cid)
        if self.par is not None:
            for rec in self.par.start_watches():
                confl = self._handle_record(rec)
                if confl is not None:
                    # an empty clause comes from a zero row with odd phase,
                    # whose justification already closed the proof
                    if rec.clause:
                        self._derive_empty(*confl)
                    return UNSAT
        return None

    def _verify_model(self):
        lval = self.lval
        asg = {v: lval[v] for v in range(1, self.f.num_vars + 1) if lval[v] is not None}
        for cid in range(1, self.f.num_clauses + 1):
            lits = self.f.clause(cid)
            assert any(lval[l] for l in lits), f"model misses clause {cid}"
        for con in self.xors:
            assert con.satisfied_by(asg), f"model violates recovered constraint {con}"
        return sorted((v if asg[v] else -v) for v in range(1, self.f.num_vars + 1))

    def _search(self, t0):
        while True:
            confl = self._propagate()
            if confl is not None:
                lits, pid = confl
                self.conflicts += 1
                self.conflicts_cur += 1
                self.var_inc /= ACT_DECAY
                if self.level == 0:
                    self._derive_empty(lits, pid)
                    return UNSAT
                learned, bj, hints = self._analyze(lits, pid)
                asserting, rlits, rpid = self._learn(learned, hints)
                self._backtrack(bj)
                self._enqueue(asserting, rlits, rpid)
                self._check_time(t0)
                continue
            self._check_time(t0)
            if (
                self.level > 0
                and self.conflicts_cur >= luby(self.restarts + 1) * RESTART_BASE
            ):
                self.restarts += 1
                self.conflicts_cur = 0
                self._backtrack(0)
                continue
            lit = self._decide()
            if lit is None:
                return SAT
            self.decisions += 1
            self.trail_lim.append(len(self.trail))
            self._enqueue(lit, None, None)

    def solve(self) -> SolveResult:
        t0 = time.monotonic()
        status = None
        stop = "done"
        model = None
        try:
            self._add_input_clauses()
            if self.use_xor:
                self._prepare_parity()
            self.conflicts_cur = 0
            status = self._init_constraints()
            if status is None:
                status = self._search(t0)
            if status == SAT:
                model = self._verify_model()
        except _Stop as s:
            status = LIMIT
            stop = s.reason
        except ProofLimitExceeded:
            status = LIMIT
            stop = "proof-budget"
        res = SolveResult(
            status=status,
            model=model,
            conflicts=self.conflicts,
            decisions=self.decisions,
            propagations=self.propagations,
            parity_propagations=self.parity_propagations,
            restarts=self.restarts,
            learned=self.learned_count,
            num_xors=len(self.xors),
            elapsed=time.monotonic() - t0,
            stop_reason=stop,
        )
        if self.writer is not None:
            res.proof_adds = self.writer.adds
            res.proof_deletes = self.writer.deletes
        if self.tb is not None:
            res.ext_vars = self.tb.bdd.created_total
            res.peak_bdd_nodes = self.tb.bdd.peak_nodes
            res.gc_collections = self.tb.gc_collections
        return res
