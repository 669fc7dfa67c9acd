"""Proof-backed BDDs: nodes carry extension-variable definitions, and every
operation emits hint-checked clausal lemmas.

A node's handle doubles as its extension variable (handles start above the
input variable range).  Registering a node emits its up-to-four defining
clauses as hintless blocked steps, pivot first.  A Tbdd pairs a root node
with the proof id of the unit clause asserting its extension variable, so
holding a Tbdd means the proof has established that the root's function is
implied by the input formula.

Conjunction and implication share one walk over (u, v, w) node triples
and one lemma cache: a conjunction builds w from the walk, an implication
is handed w.  Summing two parity constraints is an implication, so it never
builds their conjunction: one pass proves that the two roots imply the
sum's canonical parity BDD w directly.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .bdd import _LEVEL_TERM, T0, T1, TRUE_SENTINEL, Bdd
from .formula import ParityConstraint

# slots of a node's defining clauses in TbddEngine.defs
HD, LD, HU, LU = 0, 1, 2, 3

# A collection runs once the table holds more than L + max(GC_MIN_GROWTH,
# L // GC_GROWTH_DIV) nodes, where L is the count the previous collection
# left live (0 at start): the table stays within a constant factor of the
# live nodes, and each collection is paid for by that many new nodes.
GC_MIN_GROWTH = 10_000
GC_GROWTH_DIV = 4


class ProofEngineError(Exception):
    """A lemma failed to close under its own hints: a solver bug, not an
    input problem.  The proof stream is abandoned."""


def _clean(lits):
    """Drop false-terminal literals; None when the clause is tautological."""
    out = []
    seen = set()
    for l in lits:
        if l == TRUE_SENTINEL:
            return None
        if l == -TRUE_SENTINEL:
            continue
        if -l in seen:
            return None
        if l not in seen:
            seen.add(l)
            out.append(l)
    return tuple(out)


@dataclass
class Tbdd:
    """Trusted BDD: root handle plus the unit step asserting it.

    unit_id == 0 means trivially trusted (root is the true terminal).
    The root handle is also the extension variable.
    """

    root: int
    unit_id: int
    constraint: ParityConstraint | None = None
    dropped: bool = field(default=False, compare=False)


class TbddEngine:
    def __init__(self, order, writer, num_input_vars: int):
        self.writer = writer
        self.num_input_vars = num_input_vars
        # node -> its (id, clause) defining steps by slot HD, LD, HU, LU;
        # None where the clause is a tautology
        self.defs: dict[int, tuple] = {}
        self.and_imply_cache: dict[tuple[int, int, int], int] = {}
        self.pending_deletes: list[int] = []
        self.gc_live = 0  # nodes left live by the last collection
        self.gc_collections = 0
        self.bdd = Bdd(
            order,
            first_id=num_input_vars + 1,
            on_node=self._register_node,
            on_free=self._reclaim_nodes,
        )

    # -- node registration ---------------------------------------------------

    def _register_node(self, ref, var, hi, lo):
        """Emit the defining clauses of extension variable `ref`.

        Down clauses (pivot -ref) go first so each up clause is blocked on
        its pivot against only its own siblings.
        """
        w = self.writer
        entry = []
        for shape in ((-ref, -var, hi), (-ref, var, lo), (ref, -var, -hi), (ref, var, -lo)):
            cl = _clean(shape)
            entry.append(None if cl is None else (w.add(cl, ()), cl))
        self.defs[ref] = tuple(entry)

    def _reclaim_nodes(self, freed):
        for ref in freed:
            for cand in self.defs.pop(ref):
                if cand is not None:
                    self.pending_deletes.append(cand[0])
        fs = set(freed)
        for key in [k for k in self.and_imply_cache
                    if k[0] in fs or k[1] in fs or k[2] in fs]:
            jid = self.and_imply_cache.pop(key)
            if jid:
                self.pending_deletes.append(jid)

    def collect(self):
        """Reclaim unreferenced nodes and flush the delete backlog."""
        self.bdd.garbage_collect()
        self.flush_deletes()
        self.gc_live = self.bdd.num_nodes()
        self.gc_collections += 1

    def maybe_collect(self):
        live = self.gc_live
        if self.bdd.num_nodes() > live + max(GC_MIN_GROWTH, live // GC_GROWTH_DIV):
            self.collect()

    def flush_deletes(self):
        if self.pending_deletes:
            self.writer.delete(self.pending_deletes)
            self.pending_deletes = []

    # -- hint assembly -------------------------------------------------------

    def _emit_rup(self, lits, candidates):
        """Emit `lits` with exactly the hints that drive unit propagation to
        a conflict, in candidate order.  Satisfied candidates are skipped;
        anything else out of shape means the lemma schedule is broken."""
        assign = {abs(l): l < 0 for l in lits}
        hints = []
        for cand in candidates:
            if cand is None:
                continue
            cid, cl = cand
            unit = None
            nfree = 0
            satisfied = False
            for l in cl:
                v = abs(l)
                if v not in assign:
                    nfree += 1
                    unit = l
                    if nfree > 1:
                        break
                elif assign[v] == (l > 0):
                    satisfied = True
                    break
            if satisfied:
                continue
            if nfree == 0:
                hints.append(cid)
                return self.writer.add(lits, hints)
            if nfree > 1:
                raise ProofEngineError(f"hint {cid} not unit while deriving {lits}")
            hints.append(cid)
            assign[abs(unit)] = unit > 0
        raise ProofEngineError(f"no conflict while deriving {lits}")

    def _def_cand(self, u, role):
        d = self.defs.get(u)
        return None if d is None else d[role]

    @staticmethod
    def _unit_cand(t: Tbdd):
        if t.unit_id == 0:
            return None
        return (t.unit_id, _clean((t.root,)) or ())

    # -- clause introduction -------------------------------------------------

    def tbdd_from_clause(self, clause, input_id) -> Tbdd:
        """Trusted BDD of one input clause; one RUP step for the root unit."""
        assert clause, "empty clause has no BDD chain"
        b = self.bdd
        lits = sorted(clause, key=lambda l: b.level_of[abs(l)])
        rest = T0
        for l in reversed(lits):
            rest = b.mk_node(abs(l), T1, rest) if l > 0 else b.mk_node(abs(l), rest, T1)
        cands = []
        node = rest
        for l in lits:
            if l > 0:
                cands.append(self._def_cand(node, HU))
                cands.append(self._def_cand(node, LU))
                node = b.lo(node)
            else:
                cands.append(self._def_cand(node, LU))
                cands.append(self._def_cand(node, HU))
                node = b.hi(node)
        cands.append((input_id, tuple(clause)))
        uid = self._emit_rup((rest,), cands)
        b.ref(rest)
        return Tbdd(rest, uid)

    # -- conjunction and implication -----------------------------------------

    def _and_imply_j(self, u, v, w=None):
        """(w, cand), cand being the hint candidate (jid, clause) that proves
        [-u, -v, w], or None when that clause is tautological.

        With w None, builds w = u AND v.  Given w, proves that u AND v
        implies w without building u AND v, and v == T1 proves [-u, w];
        raises when the implication fails, which callers treat as an
        internal solver bug.

        Walks (u, v, w) triples top-down on an explicit stack, each triple's
        hi subtree, then its lo subtree, then its two lemmas, as a recursion
        would, so the depth of a BDD is not bounded by Python's stack.  A
        conjunction makes each triple's w from its children's and memoises
        (u, v) -> (w, cand) for the call.  Lemmas of both modes are cached
        as (min(u, v), max(u, v), w)."""
        b = self.bdd
        cache = self.and_imply_cache
        build = w is None
        memo = {}
        root = (u, v, w)
        done = []     # (w, cand) of finished triples, in completion order
        todo = [root]  # triples to prove, and frames of expanded ones
        while todo:
            frame = todo.pop()
            if len(frame) == 3:
                u, v, w = frame
                if build:
                    if u == T0 or v == T1 or u == v:
                        done.append((u, None))
                        continue
                    if v == T0 or u == T1:
                        done.append((v, None))
                        continue
                    hit = memo.get((u, v) if u < v else (v, u))
                    if hit is not None:
                        done.append(hit)
                        continue
                    lw = _LEVEL_TERM
                else:
                    if u > v:
                        u, v = v, u
                    if u == v:
                        v = T1
                    if u == T0 or w == T1 or w == u or w == v:
                        done.append((w, None))
                        continue
                    if u == T1:
                        raise ProofEngineError("implication failure: %d AND %d -> %d" % root)
                    hit = cache.get((u, v, w))
                    if hit is not None:
                        done.append((w, (hit, _clean((-u, -v, w)))))
                        continue
                    lw = b.level(w)
                lu, lv = b.level(u), b.level(v)
                lvl = min(lu, lv, lw)
                uh, ul = (b.hi(u), b.lo(u)) if lu == lvl else (u, u)
                vh, vl = (b.hi(v), b.lo(v)) if lv == lvl else (v, v)
                wh, wl = (b.hi(w), b.lo(w)) if lw == lvl else (w, w)
                todo.append((u, v, w, lvl, lu == lvl, lv == lvl))
                todo.append((ul, vl, wl))
                todo.append((uh, vh, wh))
                continue
            u, v, w, lvl, u_at, v_at = frame
            wl, lo_cand = done.pop()
            wh, hi_cand = done.pop()
            x = b.var_at[lvl]
            if build:
                w = b.mk_node(x, wh, wl)
            key = (u, v, w) if u < v else (v, u, w)
            target = _clean((-u, -v, w))
            if target is not None and key not in cache:
                w_at = b.level(w) == lvl
                hi_clause = _clean((-x, -u, -v, w))
                step_h = self._emit_rup(
                    hi_clause,
                    [
                        self._def_cand(u, HD) if u_at else None,
                        self._def_cand(v, HD) if v_at else None,
                        hi_cand,
                        self._def_cand(w, HU) if w_at else None,
                    ],
                )
                jid = self._emit_rup(
                    target,
                    [
                        (step_h, hi_clause),
                        self._def_cand(u, LD) if u_at else None,
                        self._def_cand(v, LD) if v_at else None,
                        lo_cand,
                        self._def_cand(w, LU) if w_at else None,
                    ],
                )
                self.pending_deletes.append(step_h)
                cache[key] = jid
            cand = None if target is None else (cache[key], target)
            if build:
                memo[key[:2]] = (w, cand)
            done.append((w, cand))
        return done.pop()

    def _assert_root(self, w, cands, constraint=None) -> Tbdd:
        """Trusted BDD of root w: one RUP step for [w] from `cands`, or none
        when w is the true terminal.  A false w makes that step the empty
        clause."""
        if w == T1:
            out = Tbdd(T1, 0, constraint)
        else:
            uid = self._emit_rup(_clean((w,)) or (), cands)
            self.bdd.ref(w)
            out = Tbdd(w, uid, constraint)
        self.flush_deletes()
        return out

    def tbdd_and(self, a: Tbdd, b: Tbdd) -> Tbdd:
        """Conjunction with proof: emits the unit clause for the result root."""
        w, cand = self._and_imply_j(a.root, b.root)
        return self._assert_root(w, [self._unit_cand(a), self._unit_cand(b), cand])

    def tbdd_upgrade(self, a: Tbdd, v_root) -> Tbdd:
        """Transfer trust from a.root to the implied node v_root."""
        _, cand = self._and_imply_j(a.root, T1, v_root)
        return self._assert_root(v_root, [self._unit_cand(a), cand])

    # -- clause justification ------------------------------------------------

    def tbdd_justify_clause(self, a: Tbdd, clause) -> int:
        """One RUP step for a clause implied by a's function: the hints walk
        the falsifying path of the root down to the false terminal."""
        if a.root == T0:
            # the refutation is already complete; the empty clause stands in
            # for any reason clause
            return a.unit_id
        b = self.bdd
        alpha = {abs(l): l < 0 for l in clause}
        cands = [self._unit_cand(a)]
        node = a.root
        while node != T0:
            if node == T1:
                raise ProofEngineError(f"clause {clause} not implied: path reaches true")
            x = b.var(node)
            if x not in alpha:
                raise ProofEngineError(f"clause {clause} leaves {x} free on the path")
            role = HD if alpha[x] else LD
            cands.append(self._def_cand(node, role))
            node = b.hi(node) if alpha[x] else b.lo(node)
        return self._emit_rup(tuple(clause), cands)

    # -- parity sums ---------------------------------------------------------

    def tbdd_xor_sum(self, a: Tbdd, b: Tbdd) -> Tbdd:
        """Sum two trusted parity constraints: one and-imply pass proves
        a.root AND b.root implies the canonical parity BDD w of the combined
        constraint, and one step asserts w.  The conjunction is never built.
        A false w makes that step the empty clause."""
        assert a.constraint is not None and b.constraint is not None
        pc = a.constraint.combine(b.constraint)
        w = self.bdd.parity_bdd(pc.vars, pc.phase)
        _, cand = self._and_imply_j(a.root, b.root, w)
        return self._assert_root(w, [self._unit_cand(a), self._unit_cand(b), cand], pc)

    def greedy_sum(self, tbdds) -> Tbdd:
        """Fold constraints by repeatedly summing, among the pairs of live
        items that share a variable, the one with the smallest symmetric
        difference; ties break on lowest position pair.  When no two live
        items share a variable, the two lowest positions are summed.
        Positions follow the input list, then creation order of intermediate
        sums.  Only overlapping pairs enter the heap, found through a
        variable -> live positions index, and stale pairs are dropped as
        they reach the top."""
        assert tbdds
        items: dict[int, Tbdd] = dict(enumerate(tbdds))
        sup = {i: frozenset(t.constraint.vars) for i, t in items.items()}
        owned = set()
        holders: dict[int, set[int]] = {}
        for i, vs in sup.items():
            for x in vs:
                holders.setdefault(x, set()).add(i)
        heap = []
        for i, vs in sup.items():
            for j in set().union(*(holders[x] for x in vs)):
                if j > i:
                    heap.append((len(vs ^ sup[j]), i, j))
        heapq.heapify(heap)
        next_pos = len(tbdds)
        while len(items) > 1:
            while heap and (heap[0][1] not in items or heap[0][2] not in items):
                heapq.heappop(heap)
            if heap:
                _, i, j = heapq.heappop(heap)
            else:
                i, j = heapq.nsmallest(2, items)
            s = self.tbdd_xor_sum(items[i], items[j])
            for k in (i, j):
                t = items.pop(k)
                for x in sup.pop(k):
                    holders[x].discard(k)
                if k in owned:
                    self.drop(t)
            if s.root == T0:
                # contradiction already yields the empty clause; summing
                # further would append past it
                for k, t in items.items():
                    if k in owned:
                        self.drop(t)
                self.flush_deletes()
                return s
            pos = next_pos
            next_pos += 1
            vs = sup[pos] = frozenset(s.constraint.vars)
            for k in set().union(*(holders[x] for x in vs)):
                heapq.heappush(heap, (len(sup[k] ^ vs), k, pos))
            for x in vs:
                holders[x].add(pos)
            items[pos] = s
            owned.add(pos)
            self.maybe_collect()
        (_, last), = items.items()
        return last

    # -- lifetime ------------------------------------------------------------

    def drop(self, t: Tbdd):
        """Release a Tbdd: deref the root and delete its unit step.  The
        empty clause of a false root is never deleted."""
        assert not t.dropped, "double drop"
        t.dropped = True
        if t.root not in (T0, T1):
            self.bdd.deref(t.root)
        if t.unit_id and t.root != T0:
            self.pending_deletes.append(t.unit_id)
