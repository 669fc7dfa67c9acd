"""Proof-backed BDDs: nodes carry extension-variable definitions, and every
operation emits hint-checked clausal lemmas.

A node's handle doubles as its extension variable (handles start above the
input variable range), and a complemented handle -n, the BDD's edge to NOT
n, doubles as the negated literal -n.  Registering a node emits its
up-to-four defining clauses as hintless blocked steps, pivot first; they
define both polarities, since the down clauses of -n are n's up clauses.
A Tbdd pairs a root handle with the proof id of the unit clause asserting
its literal, so holding a Tbdd means the proof has established that the
root's function is implied by the input formula.

A recovered XOR's canonical parity BDD is proved straight from the XOR's
encoding clauses, one lemma per prefix of its variables, without building
a BDD per clause or any conjunction; so is the sum of two XORs that share
one variable, without a BDD of either.  Conjunction and implication share
one walk over (u, v, w) node triples and one lemma cache: a conjunction
builds w from the walk, an implication is handed w.  Summing two parity
constraints is an implication, so it never builds their conjunction: one
pass proves that the two roots imply the sum's canonical parity BDD w
directly.  A walk lemma whose child lemmas are both trivial takes one step
when a two-literal defining clause fixes its level's variable, else two.
"""

from __future__ import annotations

import heapq

from .bdd import _LEVEL_TERM, T0, T1, TRUE_SENTINEL, Bdd
from .formula import ParityConstraint
from .lrat import DeadlineExceeded  # re-exported: what check_time raises

# slots of a node's defining steps' proof ids in TbddEngine.defs
HD, LD, HU, LU = 0, 1, 2, 3

# A collection runs once the table holds more than L + max(GC_MIN_GROWTH,
# L // GC_GROWTH_DIV) nodes, where L is the count the previous collection
# left live (0 at start): the table stays within a constant factor of the
# live nodes, and each collection is paid for by that many new nodes.  The
# floor keeps garbage whose lemmas later sums of a search may reuse.  A sum
# given unbuilt inputs closes the proof, so nothing reuses its garbage: it
# collects past L + L // GC_GROWTH_DIV, with no floor.
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


def _lemma_clause(u, v, w):
    """The clause [-u, -v, w] of a walk triple, whose u is no terminal and
    whose u and v are neither equal nor complementary.  It is a plain tuple
    unless v is T1 or w is a terminal, u, v, -u or -v; those go through
    `_clean`, which drops a false terminal or a repeated literal and gives
    None for a tautology."""
    if v == T1 or w in (T1, T0, u, v, -u, -v):
        return _clean((-u, -v, w))
    return (-u, -v, w)


def _width(cand):
    return len(cand[1])


class Tbdd:
    """Trusted BDD: root handle plus the unit step asserting it.

    unit_id == 0 means trivially trusted (root is the true terminal).
    The root handle is also the unit's literal; a negative root is a
    complemented edge, asserted as a negated extension variable.
    """

    __slots__ = ("root", "unit_id", "constraint", "dropped")

    def __init__(self, root: int, unit_id: int, constraint: ParityConstraint | None = None):
        self.root = root
        self.unit_id = unit_id
        self.constraint = constraint
        self.dropped = False


class TbddEngine:
    def __init__(self, order, writer, num_vars: int, input_clause, check_time=None):
        """input_clause maps an input clause's proof id to its literals; it
        is how `tbdd_from_xor` reads a constraint's `source_clauses`.
        check_time, if given, is called before each sum of `greedy_sum` and
        raises DeadlineExceeded once the deadline has passed."""
        self.writer = writer
        self.input_clause = input_clause
        self.check_time = check_time
        # node -> the proof ids of its defining steps by slot HD, LD, HU, LU,
        # None for a tautology; `_def_cand` rebuilds a clause when needed
        self.defs: dict[int, tuple] = {}
        self.and_imply_cache: dict[tuple[int, int, int], int] = {}
        self.pending_deletes: list[int] = []
        self.gc_live = 0  # nodes left live by the last collection
        self.gc_collections = 0
        self.bdd = Bdd(
            order,
            first_id=num_vars + 1,
            on_node=self._register_node,
            on_free=self._reclaim_nodes,
        )

    # -- node registration ---------------------------------------------------

    def _register_node(self, ref, var, hi, lo):
        """Emit the defining clauses of extension variable `ref`.

        Down clauses (pivot -ref) go first so each up clause is blocked on
        its pivot against only its own siblings.
        """
        add = self.writer.add
        shapes = ((-ref, -var, hi), (-ref, var, lo), (ref, -var, -hi), (ref, var, -lo))
        if hi == T1 or lo == T1 or lo == T0:  # hi is regular, so never T0
            self.defs[ref] = tuple(None if cl is None else add(cl, ()) for cl in map(_clean, shapes))
        else:
            self.defs[ref] = tuple(add(cl, ()) for cl in shapes)

    def _reclaim_nodes(self, freed):
        for ref in freed:
            self.pending_deletes.extend(pid for pid in self.defs.pop(ref) if pid is not None)

    def collect(self):
        """Reclaim unreferenced nodes, empty the lemma cache, deleting its
        lemmas (a later walk proves again what it needs), and flush the
        delete backlog."""
        self.bdd.garbage_collect()
        self.pending_deletes.extend(self.and_imply_cache.values())
        self.and_imply_cache.clear()
        self.flush_deletes()
        self.gc_live = self.bdd.num_nodes()
        self.gc_collections += 1

    def maybe_collect(self, floor=None):
        """Collect once the table has grown past the count L left live by the
        last collection by max(floor, L // GC_GROWTH_DIV) nodes, the floor
        being GC_MIN_GROWTH unless given."""
        live = self.gc_live
        floor = GC_MIN_GROWTH if floor is None else floor
        if self.bdd.num_nodes() > live + max(floor, live // GC_GROWTH_DIV):
            self.collect()

    def flush_deletes(self):
        if self.pending_deletes:
            self.writer.delete(self.pending_deletes)
            self.pending_deletes = []

    # -- hint assembly -------------------------------------------------------

    def _emit_rup(self, lits, candidates):
        """Emit `lits` with exactly the hints that drive unit propagation to
        a conflict, in candidate order.  Satisfied candidates are skipped;
        anything else out of shape means the lemma schedule is broken.  As
        in `lrat.check`, `false` holds the literals assumed or propagated
        false."""
        false = set(lits)
        hints = []
        for cand in candidates:
            if cand is None:
                continue
            cid, cl = cand
            unit = 0  # none yet: 0 is never a literal
            for l in cl:
                if l in false:
                    continue
                if -l in false:
                    break  # satisfied
                if unit:
                    raise ProofEngineError(f"hint {cid} not unit while deriving {lits}")
                unit = l
            else:
                hints.append(cid)
                if not unit:
                    return self.writer.add(lits, hints)
                false.add(-unit)
        raise ProofEngineError(f"no conflict while deriving {lits}")

    def _def_cand(self, u, role):
        """The (id, clause) step of u's defining clause in slot `role`, None
        for a terminal or a tautology.  A complemented handle -n reads n's
        step of the opposite direction: HD of -n is HU of n, LD of -n is LU
        of n, and the reverse.  The clause is rebuilt from the node as
        `_register_node` wrote it, without a false terminal."""
        n = u if u > 0 else -u
        d = self.defs.get(n)
        if d is None:
            return None
        if u < 0:
            role ^= 2
        pid = d[role]
        if pid is None:
            return None
        lvl, hi, lo = self.bdd.nodes[n]
        x = self.bdd.var_at[lvl]
        # HD [-n, -x, hi], LD [-n, x, lo], HU [n, -x, -hi], LU [n, x, -lo]
        sign = 1 if role & 2 else -1
        cl = (sign * n, x, -sign * lo) if role & 1 else (sign * n, -x, -sign * hi)
        return pid, cl if cl[2] != T0 else cl[:2]

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

    def tbdd_from_xor(self, con: ParityConstraint, other: ParityConstraint | None = None) -> Tbdd:
        """Trusted canonical parity BDD of `con`, or of the sum of `con` and
        `other` when they share exactly one variable y, proved straight from
        the encoding clauses their `source_clauses` name.  Neither input's
        BDD is built.

        For each prefix s of the result's variables in BDD order, the lemma
        [-s, n] says that s implies the node n it reaches.  Above the
        bottom level, with n = ite(x, h, l), it takes two steps: [-s, -x, n]
        from n's HU clause and the lemma of s+x, then [-s, n] from that
        step, n's LU clause and the lemma of s-x.  A bottom lemma is never
        emitted, only inlined as hints: a false bottom node fixes its
        variable the wrong way, and the full assignment then falsifies the
        result.  For one XOR, the clause blocking that assignment
        conflicts; for a pair, the clause of `con` blocking it forces y, and
        a clause of `other` conflicts.  The empty prefix's lemma is the root
        unit: 2^k - 2 steps for a result of arity k >= 2, one for k == 1.
        All other lemmas are deleted.  Two units on one variable sum to the
        empty constraint: T1 with no step for phase 0, else the empty clause
        from the two units.  Clauses that do not encode their constraint
        raise ProofEngineError naming it."""
        b = self.bdd
        sides = (con,) if other is None else (con, other)
        blocking = []  # per side: its encoding clauses by literal set
        for c in sides:
            cls = {}
            for cid in c.source_clauses:
                cl = self.input_clause(cid)
                cls[frozenset(cl)] = (cid, cl)
            blocking.append(cls)

        def blocker(k, assignment):
            cand = blocking[k].get(frozenset(-lit for lit in assignment))
            if cand is None:
                raise ProofEngineError(
                    f"{sides[k]} has no encoding clause blocking {sorted(assignment, key=abs)}")
            return cand

        if other is None:
            if not con.vars:
                # raised, not asserted, so that `python -O` keeps the check
                raise ProofEngineError(f"{con} is empty and has no encoding")
            total = con

            def refute(full):
                return [blocker(0, full)]
        else:
            shared = set(con.vars) & set(other.vars)
            if len(shared) != 1:
                raise ProofEngineError(f"{con} and {other} do not share exactly one variable")
            (y,) = shared
            total = con.combine(other)

            def refute(full):
                # the value of y that falsifies con under `full`
                on_con = [lit for lit in full if abs(lit) in con.vars]
                odd = sum(lit > 0 for lit in on_con) & 1
                y_bad = y if odd == con.phase else -y
                on_other = [lit for lit in full if abs(lit) not in con.vars]
                return [blocker(0, on_con + [y_bad]), blocker(1, on_other + [-y_bad])]

        def lemma(s, n):
            # hint candidates for [-s, n]: the refutation of s AND NOT n at
            # the bottom level and for the root, else the lemma's own step
            lvl, h, l = b.node(n)
            x = b.var_at[lvl]
            if b.is_terminal(h):
                # NOT n sets x against the parity
                return [self._def_cand(n, HU), self._def_cand(n, LU),
                        *refute(list(s) + [-x if h == T1 else x])]
            neg = tuple(-lit for lit in s)
            hi_clause = neg + (-x, n)
            step_h = self._emit_rup(hi_clause, [self._def_cand(n, HU), *lemma(s + (x,), h)])
            self.pending_deletes.append(step_h)
            cands = [(step_h, hi_clause), self._def_cand(n, LU), *lemma(s + (-x,), l)]
            if not s:
                return cands
            lid = self._emit_rup(neg + (n,), cands)
            self.pending_deletes.append(lid)
            return [(lid, neg + (n,))]

        root = b.parity_bdd(total.vars, total.phase)
        if root == T1:
            return Tbdd(T1, 0, total)
        return self._assert_root(root, lemma((), root) if total.vars else refute([]), total)

    # -- conjunction and implication -----------------------------------------

    def _and_imply_j(self, u, v, w=None):
        """(w, cand), cand being the hint candidate (jid, clause) that proves
        [-u, -v, w], or None when that clause is tautological.

        With w None, builds w = u AND v.  Given w, proves that u AND v
        implies w without building u AND v, and v == T1 proves [-u, w];
        raises when the implication fails, which callers treat as an
        internal solver bug.

        Walks (u, v, w) triples top-down on an explicit stack, each triple's
        hi subtree, then its lo subtree, then its lemma, as a recursion
        would, so the depth of a BDD is not bounded by Python's stack.  A
        lemma is a hi step [-x, -u, -v, w] and the lemma itself, or one step
        when both child lemmas are trivial and a two-literal defining clause
        of an operand fixes x.  A
        conjunction makes each triple's w from its children's and memoises
        (u, v) -> (w, cand) for the call.  Lemmas of both modes are cached
        as (min(u, v), max(u, v), w).  Each triple reads each operand's
        node once.  u == -v is false: its lemma is a tautology."""
        b = self.bdd
        node = b.node
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
                    if u == -v:
                        done.append((T0, None))
                        continue
                    hit = memo.get((u, v) if u < v else (v, u))
                    if hit is not None:
                        done.append(hit)
                        continue
                    lw, wh, wl = _LEVEL_TERM, None, None
                else:
                    if u > v:
                        u, v = v, u
                    if u == v:
                        v = T1
                    if u == T0 or w == T1 or w == u or w == v or u == -v:
                        done.append((w, None))
                        continue
                    if u == T1:
                        raise ProofEngineError("implication failure: %d AND %d -> %d" % root)
                    hit = cache.get((u, v, w))
                    if hit is not None:
                        done.append((w, (hit, _lemma_clause(u, v, w))))
                        continue
                    lw, wh, wl = node(w)
                lu, uh, ul = node(u)
                lv, vh, vl = node(v)
                lvl = min(lu, lv, lw)
                uh, ul = (uh, ul) if lu == lvl else (u, u)
                vh, vl = (vh, vl) if lv == lvl else (v, v)
                wh, wl = (wh, wl) if lw == lvl else (w, w)
                todo.append((u, v, w, lvl, lu == lvl, lv == lvl, lw == lvl))
                todo.append((ul, vl, wl))
                todo.append((uh, vh, wh))
                continue
            u, v, w, lvl, u_at, v_at, w_at = frame
            wl, lo_cand = done.pop()
            wh, hi_cand = done.pop()
            x = b.var_at[lvl]
            if build:
                w = b.mk_node(x, wh, wl)
                w_at = wh != wl
            key = (u, v, w) if u < v else (v, u, w)
            target = _lemma_clause(u, v, w)
            if target is not None and key not in cache:
                hi = [
                    self._def_cand(u, HD) if u_at else None,
                    self._def_cand(v, HD) if v_at else None,
                    hi_cand,
                    self._def_cand(w, HU) if w_at else None,
                ]
                lo = [
                    self._def_cand(u, LD) if u_at else None,
                    self._def_cand(v, LD) if v_at else None,
                    lo_cand,
                    self._def_cand(w, LU) if w_at else None,
                ]
                defs = None
                if hi_cand is None and lo_cand is None:
                    defs = sorted((c for c in hi + lo if c is not None), key=_width)
                if defs and len(defs[0][1]) == 2:
                    # both child lemmas are trivial and a two-literal
                    # definition fixes x: the definitions of the other side
                    # close the lemma in one step
                    jid = self._emit_rup(target, defs)
                else:
                    hi_clause = (-x, *target)
                    step_h = self._emit_rup(hi_clause, hi)
                    jid = self._emit_rup(target, [(step_h, hi_clause), *lo])
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
            lvl, h, l = b.node(node)
            x = b.var_at[lvl]
            if x not in alpha:
                raise ProofEngineError(f"clause {clause} leaves {x} free on the path")
            cands.append(self._def_cand(node, HD if alpha[x] else LD))
            node = h if alpha[x] else l
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

    def _sum_pick(self, a, b) -> Tbdd:
        """The sum of two items that `greedy_sum` picked, each a Tbdd or a
        bare constraint not yet proved.  Two bare constraints of arities ka
        and kb that share exactly one variable are summed straight from
        their encoding clauses, unless the sum's prefix chain, 2^(ka+kb-2)
        steps, is longer than the 2^k chain steps and about 4k node
        definitions that proving each input alone writes before the walk
        (for arities up to formula.MAX_EXTRACT_ARITY = 6, when ka + kb >= 9).
        Any other bare input is proved, summed and dropped."""
        a_bare = a.__class__ is ParityConstraint
        b_bare = b.__class__ is ParityConstraint
        if a_bare and b_bare and len(set(a.vars) & set(b.vars)) == 1:
            ka, kb = a.arity, b.arity
            if 1 << (ka + kb - 2) <= (1 << ka) + (1 << kb) + 4 * (ka + kb):
                return self.tbdd_from_xor(a, b)
        if a_bare:
            a = self.tbdd_from_xor(a)
        if b_bare:
            b = self.tbdd_from_xor(b)
        s = self.tbdd_xor_sum(a, b)
        if a_bare:
            self.drop(a)
        if b_bare:
            self.drop(b)
        return s

    def greedy_sum(self, items) -> Tbdd:
        """Fold constraints by repeatedly summing, among the pairs of live
        items that share a variable, the one with the smallest symmetric
        difference; ties break on lowest position pair.  When no two live
        items share a variable, the two lowest positions are summed.
        Positions follow the input list, then creation order of intermediate
        sums.  Only overlapping pairs enter the heap, found through a
        variable -> live positions index, and stale pairs are dropped as
        they reach the top.  Each sum first checks the deadline.

        An input is a Tbdd, which the caller keeps, or a bare
        ParityConstraint, proved from its encoding clauses by the sum that
        picks it (`_sum_pick`), which builds no BDD of it at all when the
        other input is bare too and shares one variable with it.
        Intermediate sums are dropped as soon as a sum consumes them.  Bare
        inputs mark the sum that closes the proof, whose garbage no later
        sum reuses: it collects with no GC_MIN_GROWTH floor."""
        assert items
        n_inputs = len(items)
        floor = 0 if any(t.__class__ is ParityConstraint for t in items) else None
        items = dict(enumerate(items))
        sup = {i: t.vars if t.__class__ is ParityConstraint else t.constraint.vars
               for i, t in items.items()}
        holders: dict[int, set[int]] = {}
        for i, vs in sup.items():
            for x in vs:
                holders.setdefault(x, set()).add(i)

        def shared(vs):
            """Live position -> how many variables of vs it holds."""
            counts = {}
            for x in vs:
                for k in holders[x]:
                    counts[k] = counts.get(k, 0) + 1
            return counts

        # a pair's symmetric difference is |a| + |b| - 2 * |a & b|
        heap = []
        for i, vs in sup.items():
            for j, c in shared(vs).items():
                if j > i:
                    heap.append((len(vs) + len(sup[j]) - 2 * c, i, j))
        heapq.heapify(heap)
        next_pos = n_inputs
        while len(items) > 1:
            if self.check_time is not None:
                self.check_time()
            while heap and (heap[0][1] not in items or heap[0][2] not in items):
                heapq.heappop(heap)
            if heap:
                _, i, j = heapq.heappop(heap)
            else:
                i, j = heapq.nsmallest(2, items)
            s = self._sum_pick(items[i], items[j])
            for k in (i, j):
                t = items.pop(k)
                for x in sup.pop(k):
                    holders[x].discard(k)
                if k >= n_inputs:
                    self.drop(t)
            if s.root == T0:
                # contradiction already yields the empty clause; summing
                # further would append past it
                for k, t in items.items():
                    if k >= n_inputs:
                        self.drop(t)
                self.flush_deletes()
                return s
            pos = next_pos
            next_pos += 1
            vs = sup[pos] = s.constraint.vars
            for k, c in shared(vs).items():
                heapq.heappush(heap, (len(sup[k]) + len(vs) - 2 * c, k, pos))
            for x in vs:
                holders[x].add(pos)
            items[pos] = s
            self.maybe_collect(floor)
        (_, last), = items.items()
        return self.tbdd_from_xor(last) if last.__class__ is ParityConstraint else last

    # -- lifetime ------------------------------------------------------------

    def drop(self, t: Tbdd):
        """Release a Tbdd: deref the root and delete its unit step.  The
        empty clause of a false root is never deleted."""
        if t.dropped:
            # raised, not asserted, so that `python -O` keeps the check
            raise ProofEngineError(f"double drop of the Tbdd rooted at {t.root}")
        t.dropped = True
        self.bdd.deref(t.root)
        if t.unit_id and t.root != T0:
            self.pending_deletes.append(t.unit_id)
