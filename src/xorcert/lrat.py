"""Clausal proof steps in text LRAT form: emission and checking.

An add line is ``<id> <lit>* 0 <hint>* 0``; a delete line is
``<id> d <id>* 0``.  Input clauses are implicitly numbered 1..C.  Hinted
steps are checked by reverse unit propagation driven only by the listed
hints, in order, with no search.  A step with an empty hint list is an
extension-variable definition: it is accepted only when it is blocked on
its first literal, whose variable must not occur in the input formula.

Checking streams.  `iter_proof` parses one line at a time from any
iterable of str or bytes lines (a file open in either mode works) and
`check` consumes any iterable of steps, stopping at the first line that
fails to parse or to check.  The checker's memory is bounded by the
clauses live at each step, not by the length of the proof.
"""

from __future__ import annotations

from operator import neg
from typing import NamedTuple

from .formula import CnfFormula

DEFAULT_MAX_PROOF_CLAUSES = 2**30


class ProofLimitExceeded(Exception):
    """Raised by ProofWriter when the emitted-clause budget is exhausted."""


class DeadlineExceeded(Exception):
    """The solve's deadline passed; every step written so far is whole."""


class ProofSyntaxError(ValueError):
    pass


class AddStep(NamedTuple):
    id: int
    lits: tuple[int, ...]
    hints: tuple[int, ...]


class DeleteStep(NamedTuple):
    id: int
    ids: tuple[int, ...]


def iter_proof(lines):
    """Yield the steps of the proof in `lines`, one line at a time.  Lines
    may be str or UTF-8 bytes.

    Raises ProofSyntaxError, prefixed with the 1-based line number, at the
    first malformed line, and for a line that cannot be decoded, whether
    this function or the iterable decodes it."""
    lineno = 0
    try:
        for lineno, raw in enumerate(lines, start=1):
            # an add step is all integers, which int() reads from str and
            # ASCII bytes alike; other lines are decoded and split as text
            try:
                nums = tuple(map(int, raw.split()))
            except ValueError:
                nums = None
            if nums is None:
                if isinstance(raw, bytes):
                    try:
                        raw = raw.decode()
                    except UnicodeDecodeError as e:
                        raise ProofSyntaxError(f"line {lineno}: {e}") from None
                toks = raw.split()
                if not toks or toks[0][0] == "c":
                    continue
                if len(toks) > 1 and toks[1] == "d":
                    yield _delete_step(lineno, toks)
                    continue
                try:  # non-ASCII digits and separators read only as text
                    nums = tuple(map(int, toks))
                except ValueError:
                    _step_id(lineno, toks)
                    raise ProofSyntaxError(f"line {lineno}: bad token in add step") from None
            if not nums:
                continue
            try:
                z = nums.index(0, 1)
                whole = nums.index(0, z + 1) == len(nums) - 1
            except ValueError:
                whole = False
            if not whole:
                raise ProofSyntaxError(f"line {lineno}: add step needs two 0 terminators")
            yield AddStep(nums[0], nums[1:z], nums[z + 1 : -1])
    except UnicodeDecodeError as e:  # raised by an iterable that decodes
        raise ProofSyntaxError(f"line {lineno + 1}: {e}") from None


def _step_id(lineno, toks) -> int:
    try:
        return int(toks[0])
    except ValueError:
        raise ProofSyntaxError(f"line {lineno}: bad step id {toks[0]!r}") from None


def _delete_step(lineno, toks) -> DeleteStep:
    sid = _step_id(lineno, toks)
    try:
        body = list(map(int, toks[2:]))
    except ValueError:
        raise ProofSyntaxError(f"line {lineno}: bad token in delete") from None
    if not body or body[-1] != 0 or 0 in body[:-1]:
        raise ProofSyntaxError(f"line {lineno}: delete not 0-terminated")
    return DeleteStep(sid, tuple(body[:-1]))


def parse_proof(text: str) -> list:
    return list(iter_proof(text.splitlines()))


class ProofWriter:
    """Buffers formatted steps into a text sink, allocating monotone ids.

    The clause budget counts add steps only; exceeding it raises
    ProofLimitExceeded after the offending line has been withheld, so the
    file on disk is always whole-line well-formed.
    """

    def __init__(self, sink, num_input_clauses: int, max_clauses: int = DEFAULT_MAX_PROOF_CLAUSES):
        self.sink = sink
        self.last_id = num_input_clauses
        self.max_clauses = max_clauses
        self.adds = 0
        self.deletes = 0
        self.empty_emitted = False

    def add(self, lits, hints) -> int:
        if self.empty_emitted:  # raised, not asserted: `python -O` keeps it
            raise AssertionError("no steps may follow the empty clause")
        if self.adds + 1 > self.max_clauses:
            raise ProofLimitExceeded(f"proof clause budget {self.max_clauses} exhausted")
        self.last_id += 1
        self.sink.write(("%d" + " %d" * (len(lits) + len(hints) + 2) + "\n")
                        % (self.last_id, *lits, 0, *hints, 0))
        self.adds += 1
        if not lits:
            self.empty_emitted = True
        return self.last_id

    def delete(self, ids) -> int | None:
        if not ids or self.empty_emitted:
            return None
        self.last_id += 1
        self.sink.write(("%d d" + " %d" * (len(ids) + 1) + "\n") % (self.last_id, *ids, 0))
        self.deletes += len(ids)
        return self.last_id


class Verified(NamedTuple):
    steps: int
    adds: int
    deletes: int
    hint_literal_visits: int
    has_empty: bool
    ok: bool = True


class Rejected(NamedTuple):
    step_id: int
    reason: str
    ok: bool = False


def check(f: CnfFormula, steps, refutation: bool = True):
    """Replay `steps`, any iterable of steps, against formula f.  Returns
    Verified or Rejected at the first failing step.

    Refutation mode additionally demands a final empty-clause step.
    """
    live: dict[int, tuple[int, ...]] = {i: cl for i, cl in enumerate(f.clauses, start=1)}
    # occurrences are kept only for variables beyond the input range; those
    # are the only legal pivots of definition steps.  Each variable's dict
    # holds the ids of the live clauses on it as keys, in insertion order,
    # which is ascending since ids only grow; an emptied dict is dropped.
    occ: dict[int, dict[int, None]] = {}
    max_id = f.num_clauses
    nvars = f.num_vars
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
                        ids = occ.get(v)
                        # gone, or without d, when an earlier literal of this
                        # clause on the same variable removed d
                        if ids is not None:
                            ids.pop(d, None)
                            if not ids:
                                del occ[v]
            deletes += len(step.ids)
            continue

        lits = step.lits
        hints = step.hints
        if hints:
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
            if pv <= nvars:
                return Rejected(sid, f"pivot not fresh: variable {pv} is an input variable")
            rest = set(lits[1:])
            for cid in occ.get(pv, ()):
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
            if v > nvars:
                ids = occ.get(v)
                if ids is None:
                    occ[v] = {sid: None}
                else:
                    ids[sid] = None
        adds += 1
        if not lits:
            has_empty = True

    if refutation and not has_empty:
        return Rejected(max_id, "refutation lacks empty clause")
    return Verified(adds + deletes, adds, deletes, visits, has_empty)
