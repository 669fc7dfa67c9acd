"""Reduced ordered BDDs over a fixed variable order, with complement edges.

A handle is a signed int: -u is the complement of u, so f and NOT f share
one stored node.  The terminals are the sentinels T1 and T0 = -T1.  A
stored node's hi edge is always regular (positive); only its lo edge and
the handles held outside the table may be complemented.  Nonterminal nodes
are allocated from `first_id` upward, which lets a proof layer use the
handle itself as the node's extension variable, and -u as its negated
literal.  Creation and reclaim hooks (`on_node`, `on_free`) keep that layer
in sync.
"""

from __future__ import annotations

TRUE_SENTINEL = 1_000_000_000
T1 = TRUE_SENTINEL
T0 = -TRUE_SENTINEL

_LEVEL_TERM = 1 << 40
_NODE_T1 = (_LEVEL_TERM, T1, T1)
_NODE_T0 = (_LEVEL_TERM, T0, T0)


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
        self.nodes = {}      # node -> (level, hi, lo), hi regular
        self.unique = {}     # (level, hi, lo) -> node
        self.refcount = {}
        self.on_node = on_node
        self.on_free = on_free
        self.peak_nodes = 0
        self.created_total = 0

    # -- structure ---------------------------------------------------------

    def is_terminal(self, u):
        return u == T1 or u == T0

    def node(self, u):
        """(level, hi, lo) of handle u, its sign applied to both children;
        a terminal is its own child at level _LEVEL_TERM."""
        if u < 0:
            if u == T0:
                return _NODE_T0
            lvl, hi, lo = self.nodes[-u]
            return lvl, -hi, -lo
        return _NODE_T1 if u == T1 else self.nodes[u]

    def hi(self, u):
        return self.node(u)[1]

    def lo(self, u):
        return self.node(u)[2]

    def num_nodes(self):
        return len(self.nodes)

    def mk_node(self, var, hi, lo):
        """Reduced, hash-consed node; returns an existing handle when one
        fits.  A complemented hi edge is moved up: the result is the
        complement of mk_node(var, -hi, -lo)."""
        if hi == lo:
            return hi
        sign = 1
        if hi < 0:
            sign, hi, lo = -1, -hi, -lo
        lvl = self.level_of[var]
        assert self.node(hi)[0] > lvl and self.node(lo)[0] > lvl, "child above parent"
        key = (lvl, hi, lo)
        ref = self.unique.get(key)
        if ref is not None:
            return sign * ref
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
        return sign * ref

    # -- reference counting / reclaim --------------------------------------

    def ref(self, u):
        """Count one external reference to u's node; returns u."""
        if not self.is_terminal(u):
            n = abs(u)
            self.refcount[n] = self.refcount.get(n, 0) + 1
        return u

    def deref(self, u):
        if self.is_terminal(u):
            return
        n = abs(u)
        c = self.refcount.get(n, 0) - 1
        if c < 0:
            raise AssertionError(f"refcount underflow on node {n}")
        self.refcount[n] = c

    def garbage_collect(self):
        """Free every node unreachable from externally referenced roots and
        pass the freed nodes, ascending, to `on_free`; returns them too."""
        marked = set()
        stack = [u for u, c in self.refcount.items() if c > 0]
        while stack:
            u = stack.pop()
            if u in marked or u == T1:
                continue
            marked.add(u)
            _, hi, lo = self.nodes[u]
            stack.append(hi)
            stack.append(abs(lo))
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
        """Canonical BDD of xor(vars) == phase: one node per variable, k in
        all.  The node at each level is the even parity of the variables
        from there down, its hi edge the complement of the level below;
        phase 1 complements the root."""
        vs = sorted(vars, key=lambda v: self.level_of[v])
        even = T1  # xor of the variables below == 0
        for v in reversed(vs):
            even = self.mk_node(v, -even, even)
        return even if phase == 0 else -even

    def to_dot(self, u, name="bdd"):
        """DOT text for the cone under u, for debugging: one box per stored
        node, entered from the point `root`; a complemented edge to a node
        ends in an odot arrowhead."""
        lines = [f"digraph {name} {{", '  T1 [shape=box,label="1"];', '  T0 [shape=box,label="0"];',
                 "  root [shape=point];"]

        def edge(src, w, style="solid"):
            dst = "T1" if w == T1 else "T0" if w == T0 else f"n{abs(w)}"
            odot = ",arrowhead=odot" if w < 0 and w != T0 else ""
            lines.append(f"  {src} -> {dst} [style={style}{odot}];")

        edge("root", u)
        seen = set()
        stack = [abs(u)]
        while stack:
            w = stack.pop()
            if w in seen or w == T1:
                continue
            seen.add(w)
            lvl, hi, lo = self.nodes[w]
            lines.append(f'  n{w} [label="x{self.var_at[lvl]} ({w})"];')
            edge(f"n{w}", hi)
            edge(f"n{w}", lo, "dashed")
            stack.append(hi)
            stack.append(abs(lo))
        lines.append("}")
        return "\n".join(lines) + "\n"
