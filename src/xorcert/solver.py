"""Conflict-driven search with an integrated parity-reasoning engine.

The clausal core is a standard two-watched-literal CDCL loop: first-UIP
learning, backjumping, activity-ordered decisions, Luby restarts, phase
saving.  Parity constraints recovered from the input encoding live in a
Gauss-Jordan engine that is consulted once clausal propagation reaches a
fixpoint; the two propagators alternate until neither adds anything.

Proof discipline: every learned clause is emitted as a hinted RUP step
whose hints are the reasons of the literals resolved away, in trail order,
with the conflict clause last.  A parity engine record is a clause read
against the assignment: a free first literal becomes implied, with the
record as its reason, and is justified lazily, only when conflict analysis
resolves on it.  The engine's shadow matrix names the initial constraints
summing to the row, those constraints' trusted BDDs (each proved from its
encoding clauses the first time a sum needs it) are summed (cached per row
until the row's origin changes; the sum of a zero row with odd phase,
which writes the empty clause, caches nothing), and the reason clause is
emitted with a single hinted step before the step that hints it.  A record
with a false first literal, or an empty one, is a conflict and is
justified at once.  A top-level conflict closes the proof with the empty
clause.  Level-0 setup reads the parity rows before it builds the watch
lists, so a zero row with odd phase refutes with no clause store built.

State layout (MiniSat's): assignment, levels, reasons and watches live in
flat lists, not dicts.  `lval[lit]` is True, False or None for every literal
of the n variables; it has 2n+1 slots, so Python's negative indexing puts
-v at slot 2n+1-v, disjoint from the slots 1..n of the positive literals
(2n slots would alias -n with n).  `watches` has the same shape and holds
the `_Clause` objects watching each literal, a clause watching its `w[0]`
and `w[1]`.  Propagation compacts each watch list it visits in place, so a
clause keeps its position relative to the other clauses in each list; a
clause whose watch is falsified tries the literals of `w[2:]` in order for
a new one, with a fast path for the single candidate of a ternary clause.
`levels` and `reason` are indexed by variable and are only meaningful
while the variable is assigned; backtracking clears `lval` and leaves the
rest stale.  A variable has one reason: None for a decision, the
`_Clause` that implied it (input or learned, units included), or the
parity engine's `ReasonRecord`, which conflict analysis justifies the
first time it resolves on it.  Both kinds carry the implying clause as
`.clause`.
The parity engine sees the trail in batches: each pass hands it the
suffix `trail[ghead:]` through `on_assign` and moves `ghead` to the end.
A decision is taken only at a joint fixpoint, where `ghead` is the
trail's length, so the engine's `assigned` and `true` bit sets saved in
`par_lim` beside each `trail_lim` entry are its view of the trail below
that level; `_backtrack` restores them in one step.

The decision heap holds (-activity, v) entries, and every free variable has
one carrying its current key, so the smallest entry of a free variable names
the free variable of highest activity, lowest index on ties.  Entries of
assigned variables, and those a bump has outdated, are skipped when popped.
`queued[v]` is the key of v's newest entry not yet popped, so `_backtrack`
pushes a freed variable only when its activity changed, and it rebuilds a
heap of more than 2(n+1) entries from the free variables.
"""

from __future__ import annotations

import heapq
import time
from typing import TYPE_CHECKING, NamedTuple

from .formula import CnfFormula, extract_xors
from .lrat import DEFAULT_MAX_PROOF_CLAUSES, DeadlineExceeded, ProofLimitExceeded, ProofWriter

if TYPE_CHECKING:
    from .gauss import ParityEngine, ReasonRecord

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


class SolveResult(NamedTuple):
    status: str
    model: list[int] | None = None
    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    # parity records handed to the search, the initial scan's included; a
    # pass may repeat a literal that an earlier record of the pass forced
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
    justifications: int = 0
    stop_reason: str = "done"


class _Clause:
    __slots__ = ("clause", "w", "pid")

    def __init__(self, lits, pid):
        self.clause = tuple(lits)
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
        self.deadline: float | None = None  # set by solve from timeout
        n = formula.num_vars
        self.order = checked_order(var_order, n)
        self.writer = None
        if proof_sink is not None:
            self.writer = ProofWriter(proof_sink, formula.num_clauses, max_proof_clauses)
        # assignment state: lval by literal, the rest by variable
        self.lval: list[bool | None] = [None] * (2 * n + 1)
        self.levels: list[int] = [0] * (n + 1)
        self.seen: list[int] = [0] * (n + 1)  # the conflict whose analysis last met v
        self.reason: list[_Clause | ReasonRecord | None] = [None] * (n + 1)
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.par_lim: list[tuple[int, int]] = []  # parity engine bit sets per level
        self.qhead = 0
        self.ghead = 0
        # clause store: a clause of two or more literals lives in the watch
        # lists of its first two `w` entries; built by `_init_constraints`
        self.watches: list[list[_Clause]] = []
        # heuristics
        self.activity = [0.0] * (n + 1)
        self.var_inc = 1.0
        self.saved_phase = [False] * (n + 1)
        self._rebuild_heap()  # sets `heap` and `queued`
        # parity side
        self.par: ParityEngine | None = None
        self.tb = None  # the TbddEngine, built when a reason first needs a proof
        self.xors = []
        self.xor_tbdds = []  # per recovered XOR: its Tbdd once a sum needs it
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

    def _enqueue(self, lit, reason):
        lval = self.lval
        assert lval[lit] is None
        lval[lit] = True
        lval[-lit] = False
        v = lit if lit > 0 else -lit
        self.levels[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.trail.append(lit)

    def _backtrack(self, lvl):
        trail = self.trail
        lval = self.lval
        saved_phase = self.saved_phase
        activity = self.activity
        heap = self.heap
        queued = self.queued
        heappush = heapq.heappush
        keep = self.trail_lim[lvl]
        for lit in reversed(trail[keep:]):
            v = lit if lit > 0 else -lit
            saved_phase[v] = lit > 0
            lval[lit] = lval[-lit] = None
            key = -activity[v]
            if queued[v] != key:
                queued[v] = key
                heappush(heap, (key, v))
        del trail[keep:]
        del self.trail_lim[lvl:]
        if self.par is not None:
            self.par.assigned, self.par.true = self.par_lim[lvl]
            del self.par_lim[lvl:]
        self.qhead = self.ghead = keep
        if len(heap) > 2 * len(queued):
            self._rebuild_heap()

    def _rebuild_heap(self):
        """One entry per free variable, keyed by its current activity."""
        lval, act = self.lval, self.activity
        self.queued = [None if lval[u] is not None else -act[u] for u in range(len(act))]
        self.heap = [(key, u) for u, key in enumerate(self.queued) if u and key is not None]
        heapq.heapify(self.heap)

    def _rescale(self):
        """Scale every activity and the increment down by ACT_RESCALE, which
        keeps their order; called by the bump that crosses it."""
        act = self.activity
        for u in range(1, len(act)):
            act[u] *= 1.0 / ACT_RESCALE
        self.var_inc *= 1.0 / ACT_RESCALE
        # the queued keys predate the rescale
        self._rebuild_heap()

    def _decide(self):
        heap, queued, lval = self.heap, self.queued, self.lval
        heappop = heapq.heappop
        while heap:
            key, v = heappop(heap)
            if queued[v] == key:
                queued[v] = None
            if lval[v] is None:
                return v if self.saved_phase[v] else -v
        return None

    # -- clause store --------------------------------------------------------

    def _attach(self, cl):
        for lit in cl.w[:2]:
            self.watches[lit].append(cl)

    # -- parity preparation --------------------------------------------------

    def _prepare_parity(self):
        """Recover the XORs and reduce their matrix.  Only xor mode calls
        this, and the parity engine is imported here, so a `--no-xor` solve
        never loads it."""
        from .gauss import ParityEngine

        self.xors = extract_xors(self.f)
        if not self.xors:
            return
        support = {v for c in self.xors for v in c.vars}
        cols = [v for v in self.order if v in support]
        self.par = ParityEngine(self.xors, column_vars=cols)
        self.xor_tbdds = [None] * len(self.xors)
        self.par.full_reduce(self._check_time)

    def _xor_tbdd(self, i):
        """Recovered XOR i's canonical parity BDD, proved straight from its
        own encoding clauses by `TbddEngine.tbdd_from_xor` the first time a
        sum needs it and cached for later sums.  Every node it creates stays
        reachable from the root, so nothing is collectable."""
        t = self.xor_tbdds[i]
        if t is None:
            self._check_time()
            t = self.xor_tbdds[i] = self.tb.tbdd_from_xor(self.xors[i])
        return t

    def _justify(self, rec):
        """Proof id of a step deriving rec.clause (None without a proof).
        A justified clause's step is never deleted, so its id is cached by
        clause.  A row's sum is rebuilt when its origin, the row's shadow
        bit set, changes.  The BDD layer is built by the first call that
        needs a proof, so a solve that justifies nothing loads no BDD
        module.

        An empty rec.clause (a zero row with odd phase) is the last
        justification: its sum writes the empty clause and reads only the
        origin and the XORs, so the parity engine is released first.
        Nothing can reuse that sum's inputs, so each XOR not yet cached goes
        in as its bare constraint: `greedy_sum` proves what it needs from
        the encoding clauses when it first picks it, drops that once
        consumed and collects with no floor, and `xor_tbdds` keeps none."""
        from .gauss import bits

        if self.writer is None:
            return None
        pid = self.justified.get(rec.clause)
        if pid is not None:
            return pid
        if self.tb is None:
            from .tbdd import TbddEngine

            self.tb = TbddEngine(self.order, self.writer, self.f.num_vars, self.f.clause,
                                 self._check_time)
        if not rec.clause:
            self.par = None
            summed = self.tb.greedy_sum([self.xor_tbdds[i] or self.xors[i] for i in bits(rec.origin)])
        else:
            ent = self.row_sum.get(rec.row)
            if ent is None or ent[0] != rec.origin:
                if ent is not None and ent[0] & (ent[0] - 1):  # else an input's own Tbdd
                    self.tb.drop(ent[1])
                ent = self.row_sum[rec.row] = (
                    rec.origin, self.tb.greedy_sum([self._xor_tbdd(i) for i in bits(rec.origin)]))
            summed = ent[1]
        pid = self.justified[rec.clause] = self.tb.tbdd_justify_clause(summed, rec.clause)
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
        reason = self.reason
        lvl = len(self.trail_lim)
        while True:
            qhead = start = self.qhead
            confl = None
            while qhead < len(trail):
                falsified = -trail[qhead]
                qhead += 1
                ws = watches[falsified]
                if not ws:
                    continue
                # compacted in place: ws[:j] holds the clauses that keep
                # watching `falsified`, in their order; `moved` counts those
                # that took another watch
                j = moved = 0
                for cl in ws:
                    w = cl.w
                    first = w[0]
                    if first == falsified:
                        first = w[0] = w[1]
                        w[1] = falsified
                    fv = lval[first]
                    if fv is True:
                        ws[j] = cl
                        j += 1
                        continue
                    # the first non-false literal of w[2:] takes the watch
                    nw = len(w)
                    if nw == 3:
                        other = w[2]
                        if lval[other] is not False:
                            w[1] = other
                            w[2] = falsified
                            watches[other].append(cl)
                            moved += 1
                            continue
                    else:
                        for k in range(2, nw):
                            other = w[k]
                            if lval[other] is not False:
                                w[1] = other
                                w[k] = falsified
                                watches[other].append(cl)
                                break
                        else:
                            k = 0
                        if k:
                            moved += 1
                            continue
                    if fv is False:
                        confl = cl
                        break
                    ws[j] = cl
                    j += 1
                    # enqueue `first` with this clause as its reason
                    lval[first] = True
                    lval[-first] = False
                    v = first if first > 0 else -first
                    levels[v] = lvl
                    reason[v] = cl
                    trail.append(first)
                if confl is not None:
                    # keep the conflict, at ws[j + moved], and the clauses after it
                    del ws[j:j + moved]
                    break
                del ws[j:]
            self.qhead = qhead
            self.propagations += qhead - start
            if confl is not None:
                return confl.clause, confl.pid
            if self.par is None or self.ghead >= len(trail):
                return None
            recs = self.par.on_assign(trail[self.ghead:])
            self.ghead = len(trail)
            for rec in recs:
                out = self._handle_record(rec)
                if out is not None:
                    return out

    def _handle_record(self, rec):
        """Read a parity record against the assignment.  A free first
        literal is enqueued with the record itself as its reason, to be
        justified only if conflict analysis resolves on it; a true one
        drops the record.  A false one, or an empty clause, is a conflict:
        the record is justified at once and returned as (clause, proof id)."""
        self.parity_propagations += 1
        if rec.clause:
            lit = rec.clause[0]
            val = self.lval[lit]
            if val is None:
                self._enqueue(lit, rec)
                return None
            if val:
                return None
        return rec.clause, self._justify(rec)

    # -- conflict analysis ---------------------------------------------------

    def _analyze(self, confl_lits, confl_pid):
        """First-UIP learning: (learned clause, backjump level, hints).  Each
        variable met is bumped once, when first seen.  A reason's own
        literal needs no filtering: its variable is already seen."""
        trail = self.trail
        levels = self.levels
        reason = self.reason
        act = self.activity
        inc = self.var_inc
        lvl = len(self.trail_lim)
        seen = self.seen
        stamp = self.conflicts  # seen[v] == stamp: v met by this analysis
        tail = []
        resolved = []  # reasons resolved on, latest on the trail first
        counter = 0
        cur = confl_lits
        idx = len(trail) - 1
        while True:
            for q in cur:
                v = q if q > 0 else -q
                if seen[v] == stamp:
                    continue
                seen[v] = stamp
                # v is assigned, so it needs no heap entry now: `_backtrack`
                # queues it with its current activity once freed
                a = act[v] = act[v] + inc
                if a > ACT_RESCALE:
                    self._rescale()
                    inc = self.var_inc
                if levels[v] == lvl:
                    counter += 1
                else:
                    tail.append(q)
            assert counter > 0, "conflict clause must touch the current level"
            p = trail[idx]
            while seen[p if p > 0 else -p] != stamp:
                idx -= 1
                p = trail[idx]
            counter -= 1
            if counter == 0:
                break
            r = reason[p if p > 0 else -p]
            resolved.append(r)
            cur = r.clause
            idx -= 1
        tail.sort(key=lambda q: levels[q if q > 0 else -q], reverse=True)
        learned = (-p,) + tuple(tail)
        bj = levels[abs(tail[0])] if tail else 0
        return learned, bj, self._hints(resolved, confl_pid)

    def _derive_empty(self, confl_lits, confl_pid):
        """Top-level conflict: emit the empty clause hinted by the reasons
        of the conflict's transitive support."""
        if self.writer is None:
            return
        trail, reason = self.trail, self.reason
        need = {abs(q) for q in confl_lits}
        picked = []
        for lit in reversed(trail):
            v = abs(lit)
            if v in need:
                r = reason[v]
                picked.append(r)
                need.update(abs(q) for q in r.clause)
        self.writer.add((), self._hints(picked, confl_pid))

    def _hints(self, reasons, confl_pid):
        """Hints of a resolution over `reasons`, given latest on the trail
        first: their proof ids in trail order, each parity reason justified
        the first time it is resolved on, then the conflict's id."""
        justify = self._justify
        hints = []
        for r in reversed(reasons):
            hints.append(r.pid if r.__class__ is _Clause else justify(r))
        hints.append(confl_pid)
        return hints

    def _learn(self, learned, hints):
        """Write the learned clause; return it as a `_Clause`, watched unless a unit."""
        pid = self.writer.add(learned, hints) if self.writer is not None else None
        self.learned_count += 1
        cl = _Clause(learned, pid)
        if len(learned) > 1:
            self._attach(cl)
        return cl

    # -- top level -----------------------------------------------------------

    def _check_time(self):
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise DeadlineExceeded("deadline passed")

    def _init_constraints(self):
        """Level-0 setup: enqueue each unit input clause, closing on an
        empty clause or a complementary unit; then the parity rows that are
        already empty or unit; then build the watch lists and watch each
        clause of two or more literals, in clause id order.  Attaching reads
        no assignment and nothing propagates before the search, so that
        order leaves the search unchanged.  Returns UNSAT when refutation
        closes."""
        clause, num_clauses = self.f.clause, self.f.num_clauses
        for cid in range(1, num_clauses + 1):
            lits = clause(cid)
            if len(lits) >= 2:
                continue
            if not lits or self.lval[lits[0]] is False:
                self._derive_empty(lits, cid)
                return UNSAT
            if self.lval[lits[0]] is None:
                self._enqueue(lits[0], _Clause(lits, cid))
        if self.par is not None:
            for rec in self.par.scan_all_rows():
                confl = self._handle_record(rec)
                if confl is not None:
                    # an empty clause comes from a zero row with odd phase,
                    # whose justification already closed the proof
                    if rec.clause:
                        self._derive_empty(*confl)
                    return UNSAT
        self.watches = [[] for _ in range(len(self.lval))]
        for cid in range(1, num_clauses + 1):
            lits = clause(cid)
            if len(lits) >= 2:
                self._attach(_Clause(lits, cid))
        return None

    def _verify_model(self):
        lval = self.lval
        # raised, not asserted, so that `python -O` keeps the check
        for cid in range(1, self.f.num_clauses + 1):
            if not any(lval[l] for l in self.f.clause(cid)):
                raise AssertionError(f"model misses clause {cid}")
        for con in self.xors:
            if not con.satisfied_by(lval):
                raise AssertionError(f"model violates recovered constraint {con}")
        return sorted((v if lval[v] else -v) for v in range(1, self.f.num_vars + 1))

    def _search(self):
        trail, trail_lim = self.trail, self.trail_lim
        check_time = self._check_time
        # conflicts since the last restart, and the count that restarts
        since_restart = 0
        limit = luby(self.restarts + 1) * RESTART_BASE
        while True:
            confl = self._propagate()
            if confl is not None:
                lits, pid = confl
                self.conflicts += 1
                since_restart += 1
                self.var_inc /= ACT_DECAY
                if not trail_lim:
                    self._derive_empty(lits, pid)
                    return UNSAT
                learned, bj, hints = self._analyze(lits, pid)
                cl = self._learn(learned, hints)
                self._backtrack(bj)
                self._enqueue(cl.clause[0], cl)
                check_time()
                continue
            check_time()
            if trail_lim and since_restart >= limit:
                self.restarts += 1
                since_restart = 0
                limit = luby(self.restarts + 1) * RESTART_BASE
                self._backtrack(0)
                continue
            lit = self._decide()
            if lit is None:
                return SAT
            self.decisions += 1
            trail_lim.append(len(trail))
            if self.par is not None:
                self.par_lim.append((self.par.assigned, self.par.true))
            self._enqueue(lit, None)

    def solve(self) -> SolveResult:
        t0 = time.monotonic()
        if self.timeout is not None:
            self.deadline = t0 + self.timeout
        status = None
        stop = "done"
        model = None
        try:
            if self.use_xor:
                self._prepare_parity()
            status = self._init_constraints()
            if status is None:
                status = self._search()
            if status == SAT:
                model = self._verify_model()
        except DeadlineExceeded:
            status = LIMIT
            stop = "timeout"
        except ProofLimitExceeded:
            status = LIMIT
            stop = "proof-budget"
        writer, tb = self.writer, self.tb
        return SolveResult(
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
            proof_adds=writer.adds if writer else 0,
            proof_deletes=writer.deletes if writer else 0,
            ext_vars=tb.bdd.created_total if tb else 0,
            peak_bdd_nodes=tb.bdd.peak_nodes if tb else 0,
            gc_collections=tb.gc_collections if tb else 0,
            justifications=len(self.justified),
            stop_reason=stop,
        )
