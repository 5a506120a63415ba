"""Wrapper-based span tracer, kept outside the program it measures.

``Tracer.wrap`` returns a stand-in for a function that records one span per
call: (name, start, end, parent span index, report id).  ``Tracer.patch``
installs a stand-in on a module or class and remembers the original, and
``Tracer.restore`` puts every original back.  Spans stay in memory until the
caller writes them out; the analysis helpers below work on that list.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

TRACED = "__perfbench_traced__"  # attribute naming the function a stand-in wraps


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.report = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, after=None):
        """Stand-in for ``fn`` recording a span; ``after(args, kwargs, result)``
        runs once the span has closed, to update counters."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, stack[-1] if stack else -1, self.report)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(traced, TRACED, fn)
        return traced

    def counter(self, name: str, fn):
        """Stand-in for ``fn`` that only counts calls; for helpers too hot
        to carry a span each."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(counted, TRACED, fn)
        return counted

    def patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_self_time(spans) -> Counter:
    """Summed self time per layer (the first dotted part of a span name)."""
    out: Counter = Counter()
    for span, s in zip(spans, self_times(spans)):
        out[layer_of(span[0])] += s
    return out


def outermost_time(spans, names) -> float:
    """Summed duration of spans named in ``names`` that have no ancestor
    named in ``names``, so nested and recursive calls count once."""
    names = frozenset(names)
    total = 0.0
    for name, start, end, parent, _ in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            total += end - start
    return total


def calls(spans, names) -> int:
    names = frozenset(names)
    return sum(1 for span in spans if span[0] in names)
