"""In-memory spans around the public entry points of xorcert's modules.

A span records its name, its parent span, its duration and a call count.
Ordinary entry points get one span per call.  Hot entry points (called
hundreds of thousands of times) are folded into one aggregate span per
(parent span, name), so the record stays small; their time still counts
as child time of the parent.

Self time of a span is its duration minus the durations of its direct
children; `summarize` adds it up per name.  Nothing here touches
the program's recursion limit: a wrapper adds a fixed number of frames
above an entry point, never one per recursion level.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

NAME, PARENT, DUR, CALLS = range(4)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, parent index or -1, duration, calls]
        self.stack: list[int] = []
        self.agg: dict[tuple[int, str], int] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span of its own."""
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1] if self.stack else -1, 0.0, 1])
        self.stack.append(idx)
        t0 = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans[idx][DUR] = self.clock() - t0
            self.stack.pop()

    def count(self, name, n=1):
        self.counts[name] += n

    # -- patching ------------------------------------------------------------

    def wrap(self, owner, attr, name, hot=False, on_result=None, on_args=None):
        """Replace owner.attr by a traced version until `restore`.
        on_result(result) and on_args(*args) may record counts; a hot
        wrapper takes positional arguments only and has no on_args."""
        fn = getattr(owner, attr)
        if hot:
            traced = self._hot_wrapper(fn, name, on_result)
        else:

            def traced(*args, **kwargs):
                if on_args is not None:
                    on_args(*args, **kwargs)
                out = self.call(name, fn, *args, **kwargs)
                if on_result is not None:
                    on_result(out)
                return out

        functools.update_wrapper(traced, fn)
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, traced)
        return traced

    def _hot_wrapper(self, fn, name, on_result):
        # runs once per proof step, so it is kept lean
        clock, stack, agg, spans = self.clock, self.stack, self.agg, self.spans

        def traced(*args):
            t0 = clock()
            try:
                out = fn(*args)
            finally:
                dt = clock() - t0
                key = (stack[-1] if stack else -1, name)
                idx = agg.get(key)
                if idx is None:
                    idx = agg[key] = len(spans)
                    spans.append([name, key[0], 0.0, 0])
                span = spans[idx]
                span[DUR] += dt
                span[CALLS] += 1
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def restore(self):
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- summaries -----------------------------------------------------------

    def totals(self):
        """name -> (self seconds, wall seconds, calls), summed over spans."""
        return summarize(self.spans)


def self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[DUR]
    return [s[DUR] - c for s, c in zip(spans, child)]


def summarize(spans):
    out: dict[str, list] = {}
    for s, own in zip(spans, self_times(spans)):
        acc = out.setdefault(s[NAME], [0.0, 0.0, 0])
        acc[0] += own
        acc[1] += s[DUR]
        acc[2] += s[CALLS]
    return {k: tuple(v) for k, v in out.items()}
