"""Per-layer tracing from outside the program.

The solver's layers call each other through module-level bindings
(`nsga2.evaluate`, `localsearch.fast_nondominated_sort`, ...).  A `Tracer`
replaces chosen bindings with timing wrappers for the duration of a `with`
block and restores the originals afterwards, so the program's source is
never touched and an untraced run executes no tracing code at all.

Spans nest: each wrapper adds its duration to the enclosing span's child
time, so a layer's self time is its duration minus the wrapped calls it
made.  Spans are aggregated per name as they close (calls, total, self and
a few per-call observations) instead of being stored one by one; the
descent alone opens hundreds of thousands of them per solve.
"""

from __future__ import annotations

import contextlib
from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    observed: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self.open = Counter()  # name -> spans of that name currently open
        self._child_s: list[float] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def stat(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()

    def wrap(self, module, attr: str, name, observe=None) -> None:
        """Time every call through `module.attr` as span `name`.

        `name` may be a callable of no arguments, resolved per call (used to
        attribute one binding to several sources).  `observe(counter, args,
        result)` records per-call facts into the span's `observed` counter.
        """
        original = getattr(module, attr)
        stats, open_, child_s = self.stats, self.open, self._child_s

        def traced(*args, **kwargs):
            label = name() if callable(name) else name
            open_[label] += 1
            child_s.append(0.0)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                open_[label] -= 1
                inner = child_s.pop()
                if child_s:
                    child_s[-1] += elapsed
                st = stats.get(label)
                if st is None:
                    st = stats[label] = SpanStats()
                st.calls += 1
                st.total_s += elapsed
                st.self_s += elapsed - inner
            if observe is not None:
                start = perf_counter()
                observe(st.observed, args, result)
                if child_s:  # bookkeeping, not the enclosing span's own work
                    child_s[-1] += perf_counter() - start
            return result

        self._patched.append((module, attr, original))
        setattr(module, attr, traced)

    @contextlib.contextmanager
    def installed(self):
        """Keep the wrappers in place for the block, then restore bindings."""
        try:
            yield self
        finally:
            while self._patched:
                module, attr, original = self._patched.pop()
                setattr(module, attr, original)
