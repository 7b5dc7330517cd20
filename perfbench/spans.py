"""In-memory span tracer that times calls into pointtrack from outside.

The tracer replaces module attributes with timing wrappers, so a call made
through that name (``pipeline.estimate_affine``, ``motion.predict``, ...)
records a span: name, start, end and the index of its parent span. Nothing
inside the package changes; ``uninstall`` puts the originals back.

A span's self time is its duration minus the time covered by its child
spans. Calls are strictly nested (one thread), so children never overlap
and the self times of every span under a root add up to the root's
duration exactly: that sum is an identity, not a check.
"""

import importlib
import time
from collections import Counter


class Tracer:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock                                         # integer nanoseconds
        self.spans: list[tuple[str, int, int, int] | None] = []  # (name, start_ns, end_ns, parent)
        self.errors: Counter = Counter()                           # (name, exception type) -> count
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        spans, stack = self.spans, self._stack
        idx = len(spans)
        spans.append(None)
        parent = stack[-1] if stack else -1
        stack.append(idx)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            self.errors[name, type(exc).__name__] += 1
            raise
        finally:
            end = self.clock()
            stack.pop()
            spans[idx] = (name, start, end, parent)

    def install(self, package: str, names, observers=None):
        """Wrap each ``module.attr`` of names, a module of package; the span
        takes the same name. ``observers`` maps a name to a function called
        as ``observe(result, *args, **kwargs)`` after each call that returns;
        it runs after the span has ended, so its time is the caller's."""
        observers = observers or {}
        for name in names:
            module_name, attr = name.rsplit(".", 1)
            module = importlib.import_module(f"{package}.{module_name}")
            original = getattr(module, attr)
            setattr(module, attr, self._wrap(name, original, observers.get(name)))
            self._patched.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn, observe):
        call = self.call

        def traced(*args, **kwargs):
            result = call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return traced

    def self_times(self) -> list[int]:
        """Self time in ns of each span, by span index."""
        child = [0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _), c in zip(self.spans, child)]

    def summary(self, root: str) -> dict[str, dict[str, int]]:
        """Per span name: calls, total ns, and self ns summed over the spans
        that lie under a span named root (the root spans included)."""
        selfs = self.self_times()
        under = [False] * len(self.spans)
        out: dict[str, dict[str, int]] = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            under[i] = name == root or (parent >= 0 and under[parent])
            if not under[i]:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += selfs[i]
        return out

    def totals(self) -> dict[str, dict[str, int]]:
        """Per span name over all spans: calls and total ns."""
        out: dict[str, dict[str, int]] = {}
        for name, start, end, _ in self.spans:
            entry = out.setdefault(name, {"calls": 0, "total_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
        return out
