"""Clausal proof steps in text LRAT form: emission and checking.

An add line is ``<id> <lit>* 0 <hint>* 0``; a delete line is
``<id> d <id>* 0``.  Input clauses are implicitly numbered 1..C.  Hinted
steps are checked by reverse unit propagation driven only by the listed
hints, in order, with no search.

A step with an empty hint list is an extension-variable definition: a
blocked clause on its first literal, the pivot.  The checker keeps no index
by variable, only `top`, the highest variable of the formula and of every
add step so far, and the current run of definitions on one pivot variable,
which a hinted step ends and a deletion does not.  A definition starts a
run if its pivot variable is above `top`; any other must continue the run
and be blocked against the run's live clauses.  They are its only clash
partners, since no clause outside the run holds a variable above the top
the run started above.  So a variable once used never starts a run again,
even after all its clauses are deleted.

Checking streams.  `iter_proof` parses one line at a time from any
iterable of str or bytes lines (a file open in either mode works) and
`check` consumes any iterable of steps, stopping at the first line that
fails to parse or to check.  The checker's memory is bounded by the
clauses live at each step, not by the length of the proof or the size of
its variables.  `forked_steps` runs `iter_proof` in a forked child, so that
parsing and checking run on two cores; the parent trusts only a stream that
ends in the child's end frame and a zero exit status.
"""

from __future__ import annotations

import builtins
import contextlib
import marshal
import os
from itertools import chain
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
    new = tuple.__new__  # skips AddStep's Python-level __new__
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
            yield new(AddStep, (nums[0], nums[1:z], nums[z + 1 : -1]))
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


# -- forked reader ------------------------------------------------------------

READER_BATCH = 1000  # steps per frame


class ProofReaderError(OSError):
    """The forked reader stopped before its end frame or exited non-zero."""


@contextlib.contextmanager
def forked_steps(fh):
    """Parse binary file `fh` with `iter_proof` in a forked child and yield
    an iterator over its steps as plain tuples: `(id, lits, hints)` for an
    add, `(id, ids)` for a delete.  Each frame is an 8-byte length and a
    `marshal` payload: a batch of steps, None for the end, or the (class
    name, message) of the child's exception, raised here after the steps
    before it.  A stream cut short or a non-zero exit raises
    ProofReaderError.  Leaving the block kills and reaps the child.  As with
    any fork, the caller runs no other thread."""
    r, w = os.pipe()
    pid = os.fork()
    if not pid:
        os.close(r)
        _serve(fh, w)  # never returns
    os.close(w)
    pipe = os.fdopen(r, "rb")
    status = None

    def batches():
        nonlocal status
        frame = []
        while True:
            head = pipe.read(8)
            if len(head) < 8:
                break
            size = int.from_bytes(head, "little")
            body = pipe.read(size)
            if len(body) < size:
                break
            frame = marshal.loads(body)
            if frame.__class__ is not list:
                break
            yield frame
        if frame.__class__ is tuple:
            raise _reader_error(*frame)
        _, status = os.waitpid(pid, 0)
        if frame is not None or status:
            raise ProofReaderError(f"proof reader ended before the end of the proof "
                                   f"(exit status {os.waitstatus_to_exitcode(status)})")

    try:
        yield chain.from_iterable(batches())
    finally:
        pipe.close()
        if status is None:
            from signal import SIGKILL

            os.kill(pid, SIGKILL)
            os.waitpid(pid, 0)


def _serve(fh, w):
    """The forked reader: frames into pipe end `w`, then os._exit, with
    status 0 only after the end frame."""
    code = 1
    try:
        out = os.fdopen(w, "wb")

        def send(frame):
            data = marshal.dumps(frame, 2)  # version 2 is the fastest both ways
            out.write(len(data).to_bytes(8, "little") + data)
            out.flush()

        try:
            batch = []
            for step in iter_proof(fh):
                batch.append(tuple(step))  # marshal takes no tuple subclass
                if len(batch) == READER_BATCH:
                    send(batch)
                    batch = []
            send(batch)
            send(None)
            code = 0
        except Exception as e:  # an interrupt leaves with status 1 and no frame
            send((type(e).__name__, str(e)))
    finally:
        os._exit(code)


def _reader_error(name, message):
    """The reader's exception rebuilt from its class name and message, so
    that `main` prints it as on the inline path."""
    cls = ProofSyntaxError if name == "ProofSyntaxError" else getattr(builtins, name, None)
    if isinstance(cls, type) and issubclass(cls, Exception):
        return cls(message)
    return ProofReaderError(f"proof reader failed: {name}: {message}")


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
    Verified or Rejected at the first failing step.  A step is an AddStep,
    a DeleteStep or the plain tuple of either; a deletion is the one of
    length 2.

    Refutation mode additionally demands a final empty-clause step.
    """
    live: dict[int, tuple[int, ...]] = {i: cl for i, cl in enumerate(f.clauses, start=1)}
    max_id = f.num_clauses
    top = f.num_vars
    run_var, run = -1, []  # the current run's pivot variable (-1: none) and ids
    visits = adds = deletes = 0
    has_empty = False

    for step in steps:
        sid = step[0]
        if has_empty:
            return Rejected(sid, "step after empty clause")
        if sid <= max_id:
            return Rejected(sid, f"id reuse: {sid} not above {max_id}")
        max_id = sid

        if len(step) == 2:
            for d in step[1]:
                if live.pop(d, None) is None:
                    return Rejected(sid, f"delete of non-live id {d}")
            deletes += len(step[1])
            continue

        _, lits, hints = step
        if hints:
            run_var = -1
            # reverse unit propagation, driven by the hints alone: `false`
            # holds the literals assumed or propagated false.  A tautology
            # needs no hints.
            false = set(lits)
            if false.isdisjoint(map(neg, lits)):
                it = iter(hints)
                for h in it:
                    cl = live.get(h)
                    if cl is None:
                        return Rejected(sid, f"bad hint: id {h} not live")
                    visits += len(cl)
                    unit = 0  # none yet: 0 is never a literal
                    for l in cl:
                        if l in false:
                            continue
                        if unit or -l in false:
                            return Rejected(sid, f"hint {h} neither unit nor falsified")
                        unit = l
                    if not unit:
                        break
                    false.add(-unit)
                else:
                    return Rejected(sid, "no conflict after final hint")
                if next(it, None) is not None:
                    return Rejected(sid, f"conflict at hint {h} before final hint")
            has_empty = not lits
        elif not lits:
            return Rejected(sid, "empty clause needs hints")
        else:
            pivot = lits[0]
            pv = pivot if pivot > 0 else -pivot
            if pv > top:
                run_var, run = pv, [sid]
            elif pv != run_var:
                return Rejected(sid, f"pivot not fresh: variable {pv} not above {top}")
            else:
                # blocked check: a live clause of the run that holds -pivot
                # must also hold the negation of another literal of the step
                other = set(map(neg, lits))
                other.discard(-pivot)
                kept = []
                for cid in run:
                    d = live.get(cid)
                    if d is None:
                        continue
                    if -pivot in d and other.isdisjoint(d):
                        return Rejected(
                            sid, f"pivot not fresh: non-tautological resolvent with {cid}")
                    kept.append(cid)
                kept.append(sid)
                run = kept
        for l in lits:  # on 3.11, cheaper than max() and min() on short clauses
            if l > top or -l > top:
                top = l if l > 0 else -l
        live[sid] = lits
        adds += 1

    if refutation and not has_empty:
        return Rejected(max_id, "refutation lacks empty clause")
    return Verified(adds + deletes, adds, deletes, visits, has_empty)
