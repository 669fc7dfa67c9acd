"""Reduced ordered BDDs over a fixed variable order, without complement edges.

Node handles are ints.  Terminals are the sentinels T1/T0; nonterminal
handles are allocated from `first_id` upward, which lets a proof layer use
the handle itself as the node's extension variable.  Creation and reclaim
hooks (`on_node`, `on_free`) keep that layer in sync.
"""

from __future__ import annotations

TRUE_SENTINEL = 1_000_000_000
T1 = TRUE_SENTINEL
T0 = -TRUE_SENTINEL

_LEVEL_TERM = 1 << 40


class BddCapacityError(Exception):
    pass


class Bdd:
    def __init__(self, order, first_id=1, on_node=None, on_free=None):
        """order: variable ids, top of the BDD first.  first_id: lowest
        handle to allocate; must leave room below the terminal sentinel."""
        self.var_at = list(order)
        assert len(set(self.var_at)) == len(self.var_at), "order has duplicates"
        self.level_of = {v: i for i, v in enumerate(self.var_at)}
        self.next_id = first_id
        self.nodes = {}      # ref -> (level, hi, lo)
        self.unique = {}     # (level, hi, lo) -> ref
        self.refcount = {}
        self.on_node = on_node
        self.on_free = on_free
        self.peak_nodes = 0
        self.created_total = 0

    # -- structure ---------------------------------------------------------

    def is_terminal(self, u):
        return u == T1 or u == T0

    def level(self, u):
        return _LEVEL_TERM if self.is_terminal(u) else self.nodes[u][0]

    def var(self, u):
        return self.var_at[self.nodes[u][0]]

    def hi(self, u):
        return self.nodes[u][1]

    def lo(self, u):
        return self.nodes[u][2]

    def num_nodes(self):
        return len(self.nodes)

    def mk_node(self, var, hi, lo):
        """Reduced, hash-consed node; returns an existing handle when one fits."""
        if hi == lo:
            return hi
        lvl = self.level_of[var]
        assert self.level(hi) > lvl and self.level(lo) > lvl, "child above parent"
        key = (lvl, hi, lo)
        ref = self.unique.get(key)
        if ref is not None:
            return ref
        if self.next_id >= TRUE_SENTINEL:
            raise BddCapacityError("node id space exhausted")
        ref = self.next_id
        self.next_id += 1
        self.nodes[ref] = key
        self.unique[key] = ref
        self.created_total += 1
        if len(self.nodes) > self.peak_nodes:
            self.peak_nodes = len(self.nodes)
        if self.on_node is not None:
            self.on_node(ref, var, hi, lo)
        return ref

    # -- reference counting / reclaim --------------------------------------

    def ref(self, u):
        if not self.is_terminal(u):
            self.refcount[u] = self.refcount.get(u, 0) + 1
        return u

    def deref(self, u):
        if self.is_terminal(u):
            return
        n = self.refcount.get(u, 0) - 1
        if n < 0:
            raise AssertionError(f"refcount underflow on node {u}")
        self.refcount[u] = n

    def garbage_collect(self):
        """Free every node unreachable from externally referenced roots and
        pass the freed handles, ascending, to `on_free`; returns them too."""
        marked = set()
        stack = [u for u, c in self.refcount.items() if c > 0]
        while stack:
            u = stack.pop()
            if u in marked or self.is_terminal(u):
                continue
            marked.add(u)
            _, hi, lo = self.nodes[u]
            stack.append(hi)
            stack.append(lo)
        # handles are allocated ascending and `nodes` keeps insertion order
        freed = [u for u in self.nodes if u not in marked]
        if not freed:
            return []
        for u in freed:
            del self.unique[self.nodes[u]]
            del self.nodes[u]
            self.refcount.pop(u, None)
        if self.on_free is not None:
            self.on_free(freed)
        return freed

    # -- operations ---------------------------------------------------------

    def parity_bdd(self, vars, phase):
        """Canonical BDD of xor(vars) == phase: 2k-1 nonterminal nodes for
        k >= 2 under any order, one node for k == 1."""
        vs = sorted(vars, key=lambda v: self.level_of[v])
        if not vs:
            return T1 if phase == 0 else T0
        even, odd = T1, T0  # parity still owed: 0 / 1
        for v in vs[:0:-1]:
            even, odd = self.mk_node(v, odd, even), self.mk_node(v, even, odd)
        top = vs[0]
        return self.mk_node(top, odd, even) if phase == 0 else self.mk_node(top, even, odd)

    def to_dot(self, u, name="bdd"):
        """DOT text for the cone under u, for debugging."""
        lines = [f"digraph {name} {{", '  T1 [shape=box,label="1"];', '  T0 [shape=box,label="0"];']
        seen = set()
        stack = [u]
        label = lambda w: "T1" if w == T1 else "T0" if w == T0 else f"n{w}"
        while stack:
            w = stack.pop()
            if w in seen or self.is_terminal(w):
                continue
            seen.add(w)
            lvl, hi, lo = self.nodes[w]
            lines.append(f'  n{w} [label="x{self.var_at[lvl]} ({w})"];')
            lines.append(f"  n{w} -> {label(hi)};")
            lines.append(f'  n{w} -> {label(lo)} [style=dashed];')
            stack.append(hi)
            stack.append(lo)
        lines.append("}")
        return "\n".join(lines) + "\n"
