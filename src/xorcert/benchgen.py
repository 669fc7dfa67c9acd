"""Benchmark families: graph parity formulas and noisy-parity formulas.

Both generators are deterministic functions of their config and return an
instance object carrying the CNF, the parity constraints it encodes, and a
line-oriented manifest (one JSON object per constraint: variables, phase,
source-clause range).  Small-instance status oracles live here too so the
test suite and the benchmark harness can cross-validate solver output.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .formula import CnfFormula, ParityConstraint, xor_encoding_clauses

MATCHING_ATTEMPTS = 100


def _constraint_lines(constraints):
    """One manifest line per constraint: its variables, its phase and the
    first and last of its source clause ids."""
    return [
        json.dumps({
            "vars": list(c.vars),
            "phase": c.phase,
            "clauses": [c.source_clauses[0], c.source_clauses[-1]],
        })
        for c in constraints
    ]


# -- graph parity family ----------------------------------------------------


def graph_node_count(m: int) -> int:
    """Node count scaling quadratically in m; anchored so m=3 gives 102
    nodes and m=40 gives 22,080."""
    return 2 * m * (7 * m - 4)


@dataclass(frozen=True)
class UrqConfig:
    m: int
    p: int = 50
    seed: int = 0
    parity: str = "odd"  # "odd" forces an unsatisfiable phase total

    def __post_init__(self):
        if self.m < 3:
            raise ValueError("m must be at least 3")
        if not 25 <= self.p <= 75:
            raise ValueError("p must lie in [25, 75]")
        if self.parity not in ("odd", "even"):
            raise ValueError("parity must be 'odd' or 'even'")


@dataclass
class UrqInstance:
    config: UrqConfig
    formula: CnfFormula
    constraints: list[ParityConstraint]

    def manifest_lines(self):
        return _constraint_lines(self.constraints)


def _three_regular_edges(n: int, rng: random.Random):
    """Hamiltonian cycle plus a seeded perfect matching that avoids cycle
    edges; falls back to the half-rotation matching if sampling keeps
    colliding."""
    assert n % 2 == 0
    cycle = [(i, (i + 1) % n) for i in range(n)]
    cycle_set = {(min(a, b), max(a, b)) for a, b in cycle}
    matching = None
    for _ in range(MATCHING_ATTEMPTS):
        perm = list(range(n))
        rng.shuffle(perm)
        cand = [(perm[2 * i], perm[2 * i + 1]) for i in range(n // 2)]
        cand = [(min(a, b), max(a, b)) for a, b in cand]
        if all(e not in cycle_set for e in cand):
            matching = cand
            break
    if matching is None:
        matching = [(i, i + n // 2) for i in range(n // 2)]
    edges = sorted(cycle_set | set(matching))
    assert len(edges) == 3 * n // 2
    return edges


def gen_urquhart(cfg: UrqConfig) -> UrqInstance:
    rng = random.Random(cfg.seed)
    n_nodes = graph_node_count(cfg.m)
    edges = _three_regular_edges(n_nodes, rng)
    edge_var = {e: i + 1 for i, e in enumerate(edges)}
    incident: list[list[int]] = [[] for _ in range(n_nodes)]
    for e in edges:
        a, b = e
        incident[a].append(edge_var[e])
        incident[b].append(edge_var[e])
    charges = [0] * n_nodes
    odd_count = round(n_nodes * cfg.p / 100)
    for node in rng.sample(range(n_nodes), odd_count):
        charges[node] = 1
    want = 1 if cfg.parity == "odd" else 0
    if sum(charges) & 1 != want:
        charges[0] ^= 1
    clauses = []
    constraints = []
    for node in range(n_nodes):
        vs = tuple(sorted(incident[node]))
        assert len(vs) == 3
        enc = xor_encoding_clauses(ParityConstraint(vs, charges[node]))
        first = len(clauses) + 1
        clauses.extend(enc)
        constraints.append(
            ParityConstraint(vs, charges[node], tuple(range(first, len(clauses) + 1)))
        )
    f = CnfFormula(len(edges), clauses)
    return UrqInstance(cfg, f, constraints)


# -- noisy parity family ----------------------------------------------------


@dataclass(frozen=True)
class LpnConfig:
    n: int
    m: int | None = None
    corrupt_prob: float = 0.125
    bound_offset: bool = False
    seed: int = 0

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("n must be at least 4")
        if not 0.0 <= self.corrupt_prob < 1.0:
            raise ValueError("corrupt_prob must lie in [0, 1)")
        if self.num_rows < 1:
            raise ValueError("m must be at least 1")

    @property
    def num_rows(self) -> int:
        return 2 * self.n if self.m is None else self.m


@dataclass
class LpnRow:
    sol_vars: tuple[int, ...]
    corruption_var: int
    phase: int  # as emitted, corruption already folded in
    corrupted: bool


@dataclass
class LpnInstance:
    config: LpnConfig
    formula: CnfFormula
    target: tuple[int, ...]
    rows: list[LpnRow]
    k: int
    bound: int
    degenerate: bool
    constraints: list[ParityConstraint]
    var_order: list[int]

    def manifest_lines(self):
        header = {
            "n": self.config.n,
            "m": len(self.rows),
            "k": self.k,
            "bound": self.bound,
            "degenerate": self.degenerate,
            "target": list(self.target),
        }
        return [json.dumps(header)] + _constraint_lines(self.constraints)


def _chain_constraints(ws, phase, next_aux):
    """Split an XOR over ws into 3-ary links through fresh chain variables.
    Returns (constraint specs, aux vars used)."""
    k = len(ws)
    if k <= 3:
        return [(tuple(sorted(ws)), phase)], []
    aux = list(range(next_aux, next_aux + k - 3))
    out = [(tuple(sorted((ws[0], ws[1], aux[0]))), 0)]
    for j in range(1, k - 3):
        out.append((tuple(sorted((aux[j - 1], ws[j + 1], aux[j]))), 0))
    out.append((tuple(sorted((aux[-1], ws[-2], ws[-1]))), phase))
    return out, aux


def _at_most(vars_, bound, next_aux):
    """Sequential-counter at-most-bound over vars_.  Returns (clauses, aux)."""
    m = len(vars_)
    if bound >= m:
        return [], []
    if bound == 0:
        return [(-x,) for x in vars_], []
    s = {}
    aux = []
    for i in range(1, m):
        for j in range(1, bound + 1):
            s[i, j] = next_aux + len(aux)
            aux.append(s[i, j])
    cls = [(-vars_[0], s[1, 1])]
    for j in range(2, bound + 1):
        cls.append((-s[1, j],))
    for i in range(2, m):
        x = vars_[i - 1]
        cls.append((-x, s[i, 1]))
        cls.append((-s[i - 1, 1], s[i, 1]))
        for j in range(2, bound + 1):
            cls.append((-x, -s[i - 1, j - 1], s[i, j]))
            cls.append((-s[i - 1, j], s[i, j]))
        cls.append((-x, -s[i - 1, bound]))
    cls.append((-vars_[m - 1], -s[m - 1, bound]))
    return cls, aux


def gen_lpn(cfg: LpnConfig) -> LpnInstance:
    rng = random.Random(cfg.seed)
    n, m = cfg.n, cfg.num_rows
    target = tuple(rng.getrandbits(1) for _ in range(n))
    rows = []
    for i in range(m):
        subset = ()
        while not subset:
            subset = tuple(v for v in range(1, n + 1) if rng.random() < 0.5)
        clean = 0
        for v in subset:
            clean ^= target[v - 1]
        corrupted = rng.random() < cfg.corrupt_prob
        rows.append(LpnRow(subset, n + 1 + i, clean ^ (1 if corrupted else 0), corrupted))
    k = sum(1 for r in rows if r.corrupted)
    degenerate = False
    if cfg.bound_offset and k == 0:
        # the requested bound would be -1; corrupt the first row instead so
        # the bound becomes at-most-0, and say so in the manifest
        degenerate = True
        rows[0].phase ^= 1
        rows[0].corrupted = True
        k = 1
    bound = k - 1 if cfg.bound_offset else k
    corr_vars = [r.corruption_var for r in rows]
    card_aux_base = n + m + 1
    card_clauses, card_aux = _at_most(corr_vars, bound, card_aux_base)
    xor_aux_base = card_aux_base + len(card_aux)
    clauses = []
    constraints = []
    next_aux = xor_aux_base
    xor_aux = []
    for row in rows:
        ws = list(row.sol_vars) + [row.corruption_var]
        specs, aux = _chain_constraints(ws, row.phase, next_aux)
        next_aux += len(aux)
        xor_aux.extend(aux)
        for vs, ph in specs:
            enc = xor_encoding_clauses(ParityConstraint(vs, ph))
            first = len(clauses) + 1
            clauses.extend(enc)
            constraints.append(
                ParityConstraint(vs, ph, tuple(range(first, len(clauses) + 1)))
            )
    clauses.extend(card_clauses)
    num_vars = xor_aux_base + len(xor_aux) - 1
    f = CnfFormula(num_vars, clauses)
    order = (
        list(card_aux)
        + corr_vars
        + list(xor_aux)
        + list(range(1, n + 1))
    )
    return LpnInstance(cfg, f, target, rows, k, bound, degenerate, constraints, order)


# -- oracles ----------------------------------------------------------------


def lpn_oracle(inst: LpnInstance) -> str:
    """Enumerate solution assignments; each forces its corruption bits, so
    the instance is SAT iff some assignment needs at most `bound` of them."""
    n = inst.config.n
    if n > 20:
        raise ValueError("oracle enumeration capped at n=20")
    rows = [
        (sum(1 << (v - 1) for v in r.sol_vars), r.phase)
        for r in inst.rows
    ]
    bound = inst.bound
    for bits in range(1 << n):
        needed = 0
        for mask, phase in rows:
            needed += ((bits & mask).bit_count() & 1) ^ phase
            if needed > bound:
                break
        if needed <= bound:
            return "SAT"
    return "UNSAT"


def parity_system_unsat(constraints) -> bool:
    """Forward GF(2) elimination, independent of the solver's engine:
    True iff the constraints sum to 0 = 1 somewhere."""
    pivots: dict[int, tuple[int, int]] = {}
    var_bit: dict[int, int] = {}
    for c in constraints:
        mask = 0
        for v in c.vars:
            if v not in var_bit:
                var_bit[v] = len(var_bit)
            mask |= 1 << var_bit[v]
        phase = c.phase
        while mask:
            top = mask.bit_length() - 1
            if top in pivots:
                pm, pp = pivots[top]
                mask ^= pm
                phase ^= pp
            else:
                pivots[top] = (mask, phase)
                break
        if mask == 0 and phase == 1:
            return True
    return False
