"""Spans around the package's public callables, recorded from outside.

``Recorder.patch`` replaces a callable where its callers look it up (a
module attribute or a class attribute) with a wrapper.  With tracing on,
the wrapper records a span (name, start, end, parent, operation id, extra
fields) or, for callables too hot for a span, only a call count.  Hooks
that the correctness checks need run in both modes; their own time is
recorded as a ``bench.hook`` span, so it is not charged to the layer that
called the wrapped function.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

HOOK = "bench.hook"


class Recorder:
    def __init__(self, tracing: bool):
        self.tracing = tracing
        self.spans: list[list] = []      # [name, start, end, parent, op, extra]
        self.counts: defaultdict[str, int] = defaultdict(int)
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.op = -1
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- patching -------------------------------------------------------

    def patch(self, owner, attr: str, name: str, *, span: bool = True,
              before=None, after=None, always: bool = False):
        """Wrap ``owner.attr``.

        ``before(args, kwargs)`` runs ahead of the call and returns a value
        handed to ``after(result, args, kwargs, pre, extra)``, which may fill
        the span's ``extra`` dict.  Hooks run in traced runs, and also in
        untraced ones when ``always`` is set; with tracing off and no such
        hook the callable is left untouched.
        """
        if not self.tracing and not always:
            return
        fn = getattr(owner, attr)
        tracing, spans, stack = self.tracing, self.spans, self._stack
        counts = self.counts
        clock = time.perf_counter

        def hook(call, *args):
            if not tracing:
                return call(*args)
            t0 = clock()
            try:
                return call(*args)
            finally:
                spans.append([HOOK, t0, clock(), stack[-1] if stack else -1, self.op, None])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            pre = hook(before, args, kwargs) if before else None
            if not tracing:
                result = fn(*args, **kwargs)
                if after:
                    after(result, args, kwargs, pre, {})
                return result
            if not span:
                counts[name] += 1
                return fn(*args, **kwargs)
            idx = len(spans)
            extra: dict = {}
            spans.append([name, clock(), None, stack[-1] if stack else -1, self.op, extra])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if after:
                hook(after, result, args, kwargs, pre, extra)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, fn))

    def restore(self):
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- reduction ------------------------------------------------------

    def mark(self) -> tuple[int, dict, dict]:
        return len(self.spans), dict(self.counts), dict(self.totals)

    def window(self, start: tuple, end: tuple) -> "Window":
        counts = {k: v - start[1].get(k, 0) for k, v in end[1].items()}
        totals = {k: v - start[2].get(k, 0.0) for k, v in end[2].items()}
        return Window(self.spans[start[0]:end[0]], start[0], counts, totals)

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, t0, t1, parent, op, extra) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op, "extra": extra or {}}))
                fh.write("\n")


class Window:
    """The spans and counts of one round."""

    def __init__(self, spans, offset: int, counts: dict, totals: dict):
        self.spans = spans
        self.counts = counts
        self.totals = totals
        child = defaultdict(float)
        for name, t0, t1, parent, _, _ in spans:
            if parent >= offset:
                child[parent - offset] += t1 - t0
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        for i, (name, t0, t1, _, _, _) in enumerate(spans):
            self.self_s[name] += (t1 - t0) - child[i]
            self.calls[name] += 1

    def where(self, name: str):
        """(duration, extra) of every span called name."""
        return [(t1 - t0, extra) for n, t0, t1, _, _, extra in self.spans if n == name]

    def total(self, name: str, field: str) -> float:
        return sum(extra.get(field, 0) for _, extra in self.where(name))
