"""CNF formulas, DIMACS I/O, and parity-constraint encoding/extraction.

Literals are signed ints: +v is the positive literal of variable v >= 1,
-v its negation.  Clauses are tuples of literals.  Clause ids are 1-based
positions in the formula's clause list.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple

MAX_XOR_ARITY = 30  # 2**(k-1) encoding clauses; wider constraints are refused
MAX_EXTRACT_ARITY = 6  # the widest XOR that extract_xors recovers


class CnfFormula(NamedTuple):
    num_vars: int
    clauses: list[tuple[int, ...]]

    def clause(self, cid: int) -> tuple[int, ...]:
        """Clause by 1-based id."""
        return self.clauses[cid - 1]

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)


class ParityConstraint(namedtuple("ParityConstraint", "vars phase source_clauses")):
    """XOR of `vars` equals `phase` (vars sorted ascending, no duplicates).

    source_clauses holds the 1-based ids of the CNF clauses this constraint
    was extracted from (or encoded into), in encoding order; empty for
    constraints that arise as sums.
    """

    __slots__ = ()

    def __new__(cls, vars: tuple[int, ...], phase: int, source_clauses: tuple[int, ...] = ()):
        assert list(vars) == sorted(set(vars)), "vars must be sorted, unique"
        assert phase in (0, 1)
        return super().__new__(cls, vars, phase, source_clauses)

    @property
    def arity(self) -> int:
        return len(self.vars)

    def combine(self, other: "ParityConstraint") -> "ParityConstraint":
        """GF(2) sum: symmetric difference of supports, XOR of phases."""
        sv = set(self.vars) ^ set(other.vars)
        return ParityConstraint(tuple(sorted(sv)), self.phase ^ other.phase)

    def satisfied_by(self, assignment) -> bool:
        """assignment[v] is v's value: a dict, or a list indexed by variable."""
        acc = 0
        for v in self.vars:
            acc ^= 1 if assignment[v] else 0
        return acc == self.phase


class DimacsError(ValueError):
    """Malformed DIMACS input; message carries the offending line number."""


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF.  Duplicate literals within a clause are dropped;
    a tautological clause (both x and -x) is rejected.  A line starting
    with `%` ends the clauses, as in SATLIB files, and what follows is
    ignored."""
    num_vars = None
    num_clauses = None
    clauses: list[tuple[int, ...]] = []
    pending: list[int] = []
    pending_seen: set[int] = set()
    clause_start_line = 0

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("%"):  # SATLIB's trailer ends the clause section
            break
        if line.startswith("p"):
            if num_vars is not None:
                raise DimacsError(f"line {lineno}: duplicate header")
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise DimacsError(f"line {lineno}: malformed header {line!r}")
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise DimacsError(f"line {lineno}: malformed header {line!r}") from None
            if num_vars < 0 or num_clauses < 0:
                raise DimacsError(f"line {lineno}: negative counts in header")
            continue
        if num_vars is None:
            raise DimacsError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise DimacsError(f"line {lineno}: bad token {tok!r}") from None
            if lit == 0:
                clauses.append(tuple(pending))
                pending = []
                pending_seen = set()
                continue
            v = abs(lit)
            if v > num_vars:
                raise DimacsError(
                    f"line {lineno}: literal {lit} out of range (num_vars={num_vars})"
                )
            if -lit in pending_seen:
                raise DimacsError(f"line {lineno}: tautological clause (has {lit} and {-lit})")
            if lit not in pending_seen:
                if not pending:
                    clause_start_line = lineno
                pending.append(lit)
                pending_seen.add(lit)

    if pending:
        raise DimacsError(
            f"line {clause_start_line}: clause not terminated by 0 before end of input"
        )
    if num_vars is None:
        raise DimacsError("line 1: missing header")
    if len(clauses) != num_clauses:
        raise DimacsError(
            f"line {lineno if text else 1}: header promises {num_clauses} clauses, "
            f"found {len(clauses)}"
        )
    return CnfFormula(num_vars, clauses)


def write_dimacs(f: CnfFormula) -> str:
    out = [f"p cnf {f.num_vars} {f.num_clauses}"]
    for cl in f.clauses:
        out.append(" ".join(str(l) for l in cl) + " 0")
    return "\n".join(out) + "\n"


def _sign_mask_clause(vars_sorted: tuple[int, ...], mask: int) -> tuple[int, ...]:
    # Bit (k-1-j) of mask = 1 means vars_sorted[j] appears negated, so ascending
    # masks enumerate sign patterns lexicographically, positive-first.
    k = len(vars_sorted)
    return tuple(
        -vars_sorted[j] if (mask >> (k - 1 - j)) & 1 else vars_sorted[j] for j in range(k)
    )


def xor_encoding_clauses(constraint: ParityConstraint) -> list[tuple[int, ...]]:
    """The 2**(k-1) clauses blocking every falsifying assignment, in
    lexicographic sign-pattern order."""
    k = constraint.arity
    if k == 0:
        raise ValueError("cannot encode an empty-support constraint")
    if k > MAX_XOR_ARITY:
        raise ValueError(f"arity {k} exceeds encoding limit {MAX_XOR_ARITY}")
    want = (1 - constraint.phase) & 1
    out = []
    for mask in range(1 << k):
        if bin(mask).count("1") & 1 == want:
            out.append(_sign_mask_clause(constraint.vars, mask))
    return out


def extract_xors(f: CnfFormula) -> list[ParityConstraint]:
    """Find every parity constraint of arity up to MAX_EXTRACT_ARITY whose
    full CNF encoding appears in f.

    Exact subset matching on clause variable-set signatures: clauses are
    grouped by their variable sets, and a group yields a constraint when all
    2**(k-1) sign patterns of one parity are present.  Each input clause is
    assigned to at most one extracted constraint; consumed clauses are not
    removed from the formula.
    """
    groups: dict[tuple[int, ...], dict[int, int]] = {}
    for cid, cl in enumerate(f.clauses, start=1):
        k = len(cl)
        if k == 0 or k > MAX_EXTRACT_ARITY:
            continue
        vs = tuple(sorted(abs(l) for l in cl))
        if len(set(vs)) != k:
            continue
        mask = 0
        for j, v in enumerate(vs):
            if -v in cl:
                mask |= 1 << (k - 1 - j)
        groups.setdefault(vs, {}).setdefault(mask, cid)

    out: list[ParityConstraint] = []
    for vs, by_mask in groups.items():
        k = len(vs)
        for phase in (1, 0):
            want = (1 - phase) & 1
            needed = [m for m in range(1 << k) if bin(m).count("1") & 1 == want]
            if all(m in by_mask for m in needed):
                out.append(
                    ParityConstraint(vs, phase, tuple(by_mask[m] for m in needed))
                )
    out.sort(key=lambda p: (p.arity, p.vars, p.phase))
    return out
