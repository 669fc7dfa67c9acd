"""Gauss-Jordan elimination over GF(2) parity rows, with origin tracking.

Rows are Python ints used as bit vectors (bit j = column j), one phase bit
per row.  A shadow matrix of the same row count, seeded to the identity,
mirrors every row operation; the set bits of shadow row i name exactly the
initial constraints whose GF(2) sum equals row i, which is what lets a
proof layer rebuild any derived row from trusted inputs.  A column index,
the transpose of the matrix kept as one bit set of rows per column, lets
pivot search and elimination visit only the rows that hold a column.

The assignment is kept in the same packed form, as two column bit sets:
the assigned columns and the True ones.  A row's free columns are then
`row & ~assigned` and its parity `phase ^ popcount(row & true)`.
Propagation is incremental: each live row watches two unassigned columns,
listed per column, so only rows watching a newly assigned column are
examined.  `on_assign` only adds to the two bit sets: the search that owns
the engine undoes assignments by restoring a pair it saved, and, as with
two watched literals per clause, the watches need no undo.  A full-scan
`propagate` over an explicit assignment, which reads no engine state, is
kept alongside as the slow reference path.
"""

from __future__ import annotations

from typing import NamedTuple

PROPAGATION = "propagation"
CONFLICT = "conflict"


class ReasonRecord(NamedTuple):
    """A clause the parity engine is prepared to defend.

    For a propagation the implied literal comes first, followed by the
    complements of the row's assigned literals; a conflict clause is all
    complements.  `origin` is the row's shadow when the record was made:
    bit i set when initial constraint i is in the sum that gives the row.
    """

    clause: tuple[int, ...]
    origin: int
    kind: str
    row: int


def bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
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
            for c in bits(m):
                self.col_rows[c] |= 1 << i
        self.pivot_of_row: dict[int, int] = {}
        # propagation state: bit sets of the assigned and of the True
        # columns, the rows watching each column, each row's two watches
        self.assigned = 0
        self.true = 0
        self.watching: list[list[int]] = [[] for _ in column_vars]
        self.row_watch: list[tuple[int, int] | None] = [None] * len(self.rows)

    # -- row algebra ---------------------------------------------------------

    def add_row_into(self, src: int, dst: int):
        assert src != dst, "a row is never summed into itself"
        self._add_row_into_set(src, 1 << dst)

    def _add_row_into_set(self, src: int, dsts: int):
        """Sum row `src` into every row in the bit set `dsts`; the column
        index takes one update per column of `src`, not one per row."""
        m, ph, sh = self.rows[src], self.phases[src], self.shadow[src]
        rows, phases, shadow = self.rows, self.phases, self.shadow
        for r in bits(dsts):
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

    def full_reduce(self, check_time=None):
        """Reduced row echelon form; pivots taken column-by-column in the
        fixed order, first eligible row wins.  `check_time`, if given, is
        called before each pivot column and may raise to stop the run."""
        pivot_rows = 0
        for col in range(len(self.col_rows)):
            eligible = self.col_rows[col] & ~pivot_rows
            if not eligible:
                continue
            if check_time is not None:
                check_time()
            pr = (eligible & -eligible).bit_length() - 1
            pivot_rows |= 1 << pr
            self.pivot_of_row[pr] = col
            self.eliminate_column(pr, col)

    # -- assignment bookkeeping ---------------------------------------------

    def _row_record(self, r: int, implied_col: int | None, true: int) -> ReasonRecord:
        """Row r's reason when every column but `implied_col` is assigned,
        the True ones being the columns in bit set `true`."""
        m = self.rows[r]
        var_of_col = self.var_of_col
        lits = [-var_of_col[c] if true >> c & 1 else var_of_col[c]
                for c in bits(m) if c != implied_col]
        kind = CONFLICT
        if implied_col is not None:
            kind = PROPAGATION
            v = var_of_col[implied_col]
            lits.insert(0, v if (self.phases[r] ^ (m & true).bit_count()) & 1 else -v)
        return ReasonRecord(tuple(lits), self.shadow[r], kind, r)

    def start_watches(self) -> list[ReasonRecord]:
        """Install watches on every live row; returns the records already
        forced with nothing assigned (empty and unit rows)."""
        out = []
        for r, m in enumerate(self.rows):
            if not m:
                if self.phases[r]:
                    out.append(ReasonRecord((), self.shadow[r], CONFLICT, r))
                continue
            rest = m & (m - 1)
            a = (m ^ rest).bit_length() - 1
            if not rest:
                out.append(self._row_record(r, a, self.true))
                continue
            b = (rest & -rest).bit_length() - 1
            self.row_watch[r] = (a, b)
            self.watching[a].append(r)
            self.watching[b].append(r)
        return out

    def on_assign(self, var: int, val: bool) -> list[ReasonRecord]:
        c_hit = self.col_of.get(var)
        if c_hit is None:
            return []
        self.assigned |= 1 << c_hit
        if val:
            self.true |= 1 << c_hit
        assigned, true = self.assigned, self.true
        rows, row_watch, watching = self.rows, self.row_watch, self.watching
        out = []
        kept = []
        for r in watching[c_hit]:
            a, b = row_watch[r]
            other = b if a == c_hit else a
            free = rows[r] & ~assigned & ~(1 << other)
            if free:
                repl = (free & -free).bit_length() - 1
                watching[repl].append(r)
                row_watch[r] = (other, repl)
                continue
            kept.append(r)
            if not assigned >> other & 1:
                out.append(self._row_record(r, other, true))
            elif (self.phases[r] ^ (rows[r] & true).bit_count()) & 1:
                out.append(self._row_record(r, None, true))
        watching[c_hit] = kept
        return out

    # -- reference path ------------------------------------------------------

    def propagate(self, assignment: dict[int, bool]) -> list[ReasonRecord]:
        """Full scan under an explicit assignment, which alone it reads;
        conflicts and unit rows reported in row order.  Reference
        implementation for the watch path."""
        assigned = true = 0
        for v, val in assignment.items():
            c = self.col_of.get(v)
            if c is not None:
                assigned |= 1 << c
                if val:
                    true |= 1 << c
        out = []
        for r, m in enumerate(self.rows):
            free = m & ~assigned
            if not free:
                if (self.phases[r] ^ (m & true).bit_count()) & 1:
                    out.append(self._row_record(r, None, true))
            elif not free & (free - 1):
                out.append(self._row_record(r, free.bit_length() - 1, true))
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
