"""Gauss-Jordan elimination over GF(2) parity rows, with origin tracking.

Rows are Python ints used as bit vectors (bit j = column j), one phase bit
per row.  A shadow matrix of the same row count, seeded to the identity,
mirrors every row operation; the set bits of shadow row i name exactly the
initial constraints whose GF(2) sum equals row i, which is what lets a
proof layer rebuild any derived row from trusted inputs.  A column index,
the transpose of the matrix kept as one bit set of rows per column, lets
pivot search and elimination visit only the rows that hold a column.

Propagation is incremental: each live row watches two unassigned columns,
so only rows watching a newly assigned variable are examined.  A full-scan
`propagate` over an explicit assignment is kept alongside as the slow
reference path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formula import ParityConstraint

PROPAGATION = "propagation"
CONFLICT = "conflict"


@dataclass(frozen=True)
class ReasonRecord:
    """A clause the parity engine is prepared to defend.

    For a propagation the implied literal comes first, followed by the
    complements of the row's assigned literals; a conflict clause is all
    complements.  `origin` names the initial constraints summing to the row.
    """

    clause: tuple[int, ...]
    origin: tuple[int, ...]
    kind: str
    row: int


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ParityEngine:
    def __init__(self, constraints, column_vars=None):
        self.constraints = list(constraints)
        if column_vars is None:
            column_vars = sorted({v for p in self.constraints for v in p.vars})
        else:
            column_vars = list(column_vars)
            have = set(column_vars)
            for p in self.constraints:
                missing = [v for v in p.vars if v not in have]
                assert not missing, f"constraint vars {missing} not in column order"
        self.var_of_col = column_vars
        self.col_of = {v: i for i, v in enumerate(column_vars)}
        self.rows: list[int] = []
        self.phases: list[int] = []
        self.shadow: list[int] = []
        # column -> bit set of the rows with a 1 in it: the transpose of
        # `rows`, kept exact by every row operation
        self.col_rows: list[int] = [0] * len(column_vars)
        for i, p in enumerate(self.constraints):
            m = 0
            for v in p.vars:
                m |= 1 << self.col_of[v]
            self.rows.append(m)
            self.phases.append(p.phase)
            self.shadow.append(1 << i)
            for c in _bits(m):
                self.col_rows[c] |= 1 << i
        self.pivot_of_row: dict[int, int] = {}
        # propagation state
        self.value: dict[int, bool] = {}
        self.watches: dict[int, set[int]] = {}   # var -> rows watching it
        self.row_watch: list[tuple[int, int] | None] = [None] * len(self.rows)

    @property
    def num_rows(self) -> int:
        return len(self.rows)

    # -- row algebra ---------------------------------------------------------

    def row_constraint(self, r: int) -> ParityConstraint:
        vs = tuple(self.var_of_col[c] for c in _bits(self.rows[r]))
        return ParityConstraint(vs, self.phases[r])

    def origin_of(self, r: int) -> tuple[int, ...]:
        return tuple(_bits(self.shadow[r]))

    def add_row_into(self, src: int, dst: int):
        assert src != dst, "a row is never summed into itself"
        self._add_row_into_set(src, 1 << dst)

    def _add_row_into_set(self, src: int, dsts: int):
        """Sum row `src` into every row in the bit set `dsts`; the column
        index takes one update per column of `src`, not one per row."""
        m, ph, sh = self.rows[src], self.phases[src], self.shadow[src]
        rows, phases, shadow = self.rows, self.phases, self.shadow
        for r in _bits(dsts):
            rows[r] ^= m
            phases[r] ^= ph
            shadow[r] ^= sh
        # src rows fill in to thousands of columns, where scanning the binary
        # text beats peeling one bit at a time off a long int
        col_rows = self.col_rows
        text = bin(m)
        top = len(text) - 1
        i = text.find("1", 2)
        while i > 0:
            col_rows[top - i] ^= dsts
            i = text.find("1", i + 1)

    def eliminate_column(self, pivot_row: int, col: int):
        """Sum the pivot row into every other row with a 1 in `col`."""
        assert self.rows[pivot_row] >> col & 1, "pivot row lacks the pivot column"
        self._add_row_into_set(pivot_row, self.col_rows[col] & ~(1 << pivot_row))

    def full_reduce(self):
        """Reduced row echelon form; pivots taken column-by-column in the
        fixed order, first eligible row wins."""
        pivot_rows = 0
        for col in range(len(self.col_rows)):
            eligible = self.col_rows[col] & ~pivot_rows
            if not eligible:
                continue
            pr = (eligible & -eligible).bit_length() - 1
            pivot_rows |= 1 << pr
            self.pivot_of_row[pr] = col
            self.eliminate_column(pr, col)

    # -- assignment bookkeeping ---------------------------------------------

    def _row_record(self, r: int, implied_col: int | None) -> ReasonRecord:
        lits = []
        implied_first = []
        acc = self.phases[r]
        for c in _bits(self.rows[r]):
            v = self.var_of_col[c]
            if c == implied_col:
                continue
            val = self.value[v]
            acc ^= 1 if val else 0
            lits.append(-v if val else v)
        if implied_col is None:
            kind = CONFLICT
        else:
            kind = PROPAGATION
            v = self.var_of_col[implied_col]
            implied_first = [v if acc else -v]
        return ReasonRecord(tuple(implied_first + lits), self.origin_of(r), kind, r)

    def start_watches(self) -> list[ReasonRecord]:
        """Install watches on every live row; returns the records already
        forced with nothing assigned (empty and unit rows)."""
        out = []
        for r, m in enumerate(self.rows):
            width = m.bit_count()
            if width == 0:
                if self.phases[r]:
                    out.append(ReasonRecord((), self.origin_of(r), CONFLICT, r))
                continue
            cols = []
            for c in _bits(m):
                cols.append(c)
                if len(cols) == 2:
                    break
            if width == 1:
                out.append(self._row_record(r, cols[0]))
                continue
            self.row_watch[r] = (cols[0], cols[1])
            for c in cols:
                self.watches.setdefault(self.var_of_col[c], set()).add(r)
        return out

    def on_assign(self, var: int, val: bool) -> list[ReasonRecord]:
        self.value[var] = val
        out = []
        if var not in self.watches:
            return out
        for r in list(self.watches[var]):
            w = self.row_watch[r]
            c_hit = self.col_of[var]
            other = w[1] if w[0] == c_hit else w[0]
            repl = None
            for c in _bits(self.rows[r]):
                if c != other and self.var_of_col[c] not in self.value:
                    repl = c
                    break
            if repl is not None:
                self.watches[var].discard(r)
                self.watches.setdefault(self.var_of_col[repl], set()).add(r)
                self.row_watch[r] = (other, repl)
                continue
            other_var = self.var_of_col[other]
            if other_var not in self.value:
                out.append(self._row_record(r, other))
            else:
                acc = self.phases[r]
                for c in _bits(self.rows[r]):
                    acc ^= 1 if self.value[self.var_of_col[c]] else 0
                if acc:
                    out.append(self._row_record(r, None))
        return out

    def on_unassign(self, var: int):
        self.value.pop(var, None)

    # -- reference path ------------------------------------------------------

    def propagate(self, assignment: dict[int, bool]) -> list[ReasonRecord]:
        """Full scan under an explicit assignment; conflicts and unit rows
        reported in row order.  Reference implementation for the watch path."""
        saved = self.value
        self.value = dict(assignment)
        out = []
        try:
            for r, m in enumerate(self.rows):
                free = None
                nfree = 0
                acc = self.phases[r]
                for c in _bits(m):
                    v = self.var_of_col[c]
                    if v in self.value:
                        acc ^= 1 if self.value[v] else 0
                    else:
                        nfree += 1
                        free = c
                        if nfree > 1:
                            break
                if nfree == 0 and acc:
                    out.append(self._row_record(r, None))
                elif nfree == 1:
                    out.append(self._row_record(r, free))
        finally:
            self.value = saved
        return out

    # -- debugging -----------------------------------------------------------

    def dump(self) -> str:
        """Matrix and shadow side by side, one row per line, leftmost column
        first: `110 | 1    100`."""
        ncols = len(self.var_of_col)
        nrows = len(self.rows)
        lines = [
            "cols: " + " ".join(f"x{v}" for v in self.var_of_col),
            "M" + " " * (ncols + 7) + "S",
        ]
        for r in range(nrows):
            bits = "".join("1" if self.rows[r] >> c & 1 else "0" for c in range(ncols))
            sbits = "".join("1" if self.shadow[r] >> i & 1 else "0" for i in range(nrows))
            lines.append(f"{bits} | {self.phases[r]}    {sbits}")
        return "\n".join(lines) + "\n"
