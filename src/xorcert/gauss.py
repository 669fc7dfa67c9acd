"""Gauss-Jordan elimination over GF(2) parity rows, with origin tracking.

Rows are Python ints used as bit vectors (bit j = column j), one phase bit
per row.  A shadow matrix of the same row count, seeded to the identity,
mirrors every row operation; the set bits of shadow row i name exactly the
initial constraints whose GF(2) sum equals row i, which is what lets a
proof layer rebuild any derived row from trusted inputs.  A column index,
the transpose of the matrix kept as one bit set of rows per column, lets
pivot search and elimination visit only the rows that hold a column.
`full_reduce` leaves the rows in reduced row echelon form, or in the
echelon form of its forward pass when a zero row of odd phase refutes them.

The assignment is kept in the same packed form, as two column bit sets:
the assigned columns and the True ones.  A row's free columns are then
`row & ~assigned` and its parity `phase ^ popcount(row & true)`.
Propagation reads the column index too: `on_assign` takes a batch of
trail literals, adds its columns to the two bit sets and scans only the
rows that hold one of them, since only those can have lost a free column.
It keeps no per-row state, so a row rewrite needs no repair beyond the
column index, and undo is the search restoring a pair of bit sets it
saved.
"""

from __future__ import annotations

from typing import NamedTuple


class ReasonRecord(NamedTuple):
    """A clause the parity engine is prepared to defend: the complements
    of a row's assigned literals, after the literal the row implies when
    it has one free column.  Whether it propagates or conflicts is read
    off the assignment, as the value of its first literal.  `origin` is
    the row's shadow when the record was made: bit i set when initial
    constraint i is in the sum that gives the row.
    """

    clause: tuple[int, ...]
    origin: int
    row: int


def bits(mask: int):
    """The positions of the set bits of `mask`, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ParityEngine:
    def __init__(self, constraints, column_vars=None):
        constraints = list(constraints)
        if column_vars is None:
            column_vars = sorted({v for p in constraints for v in p.vars})
        else:
            column_vars = list(column_vars)
            have = set(column_vars)
            for p in constraints:
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
        for i, p in enumerate(constraints):
            m = 0
            for v in p.vars:
                m |= 1 << self.col_of[v]
            self.rows.append(m)
            self.phases.append(p.phase)
            self.shadow.append(1 << i)
            for c in bits(m):
                self.col_rows[c] |= 1 << i
        # propagation state: bit sets of the assigned and of the True columns
        self.assigned = 0
        self.true = 0

    # -- row algebra ---------------------------------------------------------

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
        """Reduced row echelon form, unless the system is refuted.  Pivots
        are taken column-by-column in the fixed order, each from the
        non-pivot row with the fewest columns, the lowest index on ties: a
        sparse pivot adds few columns to the rows it is summed into.  The
        forward pass sums each pivot row only into the non-pivot rows of its
        column, which leaves them all zero.  If one has odd phase, the
        system is refuted and the rows stay in echelon form; else each pivot
        row is summed into the other rows of its column, in reverse pivot
        order.  The nonzero rows of the RREF are those of any other pivot
        rule, since it is unique for a column order; which row holds each,
        and its shadow, depend on the rule.  `check_time`, if given, is
        called before each pivot of either pass and may raise to stop it."""
        rows, col_rows = self.rows, self.col_rows
        pivots = []  # (row, column), in pivot order
        pivot_rows = 0
        for col in range(len(col_rows)):
            eligible = col_rows[col] & ~pivot_rows
            if not eligible:
                continue
            if check_time is not None:
                check_time()
            pr = min(bits(eligible), key=lambda r: rows[r].bit_count())
            pivot_rows |= 1 << pr
            pivots.append((pr, col))
            self._add_row_into_set(pr, eligible & ~(1 << pr))
        if any(self.phases[r] for r in bits(((1 << len(rows)) - 1) & ~pivot_rows)):
            return
        for pr, col in reversed(pivots):
            if check_time is not None:
                check_time()
            self.eliminate_column(pr, col)

    # -- assignment bookkeeping ---------------------------------------------

    def _row_record(self, r: int, implied_col: int | None, true: int) -> ReasonRecord:
        """Row r's reason when every column but `implied_col` is assigned,
        the True ones being the columns in bit set `true`."""
        m = self.rows[r]
        var_of_col = self.var_of_col
        lits = [-var_of_col[c] if true >> c & 1 else var_of_col[c]
                for c in bits(m) if c != implied_col]
        if implied_col is not None:
            v = var_of_col[implied_col]
            lits.insert(0, v if (self.phases[r] ^ (m & true).bit_count()) & 1 else -v)
        return ReasonRecord(tuple(lits), self.shadow[r], r)

    def _scan(self, rows_set: int) -> list[ReasonRecord]:
        """Records of the rows in bit set `rows_set` under the engine's
        assignment, in row order: a conflict for a row with no free column
        and odd parity, a propagation for one with exactly one free column."""
        rows, phases = self.rows, self.phases
        unassigned, true = ~self.assigned, self.true
        out = []
        for r in bits(rows_set):
            m = rows[r]
            free = m & unassigned
            if not free:
                if (phases[r] ^ (m & true).bit_count()) & 1:
                    out.append(self._row_record(r, None, true))
            elif not free & (free - 1):
                out.append(self._row_record(r, free.bit_length() - 1, true))
        return out

    def scan_all_rows(self) -> list[ReasonRecord]:
        """Records of every row; with nothing assigned, as when a search
        starts, those of the empty rows of odd phase and of the unit rows."""
        return self._scan((1 << len(self.rows)) - 1)

    def on_assign(self, lits) -> list[ReasonRecord]:
        """Assign the column variables among `lits`, a batch of literals
        new to the engine, and return the records of the rows that hold
        one of their columns; literals of other variables are skipped."""
        col_of, col_rows = self.col_of, self.col_rows
        assigned, true = self.assigned, self.true
        touched = 0
        for lit in lits:
            c = col_of.get(lit if lit > 0 else -lit)
            if c is not None:
                assigned |= 1 << c
                if lit > 0:
                    true |= 1 << c
                touched |= col_rows[c]
        self.assigned, self.true = assigned, true
        return self._scan(touched)

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
