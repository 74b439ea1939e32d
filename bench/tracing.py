"""Per-layer tracing by wrapping the program's module attributes.

A traced function is replaced, in every ``sqgt`` module that binds it, by a
wrapper that counts calls and measures self time: the call's duration minus
the time spent in traced callees.  Functions that return generators are
traced per item, so the time spent producing items is charged to them.
Nothing in the program is edited; ``uninstall`` restores the originals.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


class Stat:
    __slots__ = ("calls", "self_ns", "items", "parents")

    def __init__(self):
        self.calls = 0
        self.self_ns = 0
        self.items = 0  # a per-layer count taken from results
        self.parents = Counter()  # calls by the traced caller's name

    def copy(self) -> "Stat":
        other = Stat()
        other.calls, other.self_ns, other.items = self.calls, self.self_ns, self.items
        other.parents = Counter(self.parents)
        return other


class _TracedIter:
    """Iterator proxy that charges each item's production to one layer."""

    __slots__ = ("_it", "_stack", "_name", "_stat")

    def __init__(self, it, stack, name, stat):
        self._it, self._stack, self._name, self._stat = it, stack, name, stat

    def __iter__(self):
        return self

    def __next__(self):
        stat, stack = self._stat, self._stack
        parent = stack[-1] if stack else None
        frame = [0, self._name]
        stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            item = next(self._it)
        finally:
            dt = time.perf_counter_ns() - t0
            stack.pop()
            stat.self_ns += dt - frame[0]
            if parent is not None:
                parent[0] += dt
        stat.items += 1
        return item


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack: list[list] = []  # frames of [child_ns, name]
        self._patches: list[tuple[object, str, object]] = []

    def trace(self, module, attr: str, name: str, count=None, per_item=False):
        """Wrap ``module.attr`` under ``name`` wherever an ``sqgt`` module
        binds the same function.  ``count(result)`` is added to
        ``stat.items``; ``per_item`` traces a returned iterator item by item
        and counts its items."""
        original = getattr(module, attr)
        stat = self.stats.setdefault(name, Stat())
        wrapper = self._wrapper(original, name, stat, count, per_item)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "sqgt" or mod_name.startswith("sqgt.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _wrapper(self, fn, name, stat, count, per_item):
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [0, name]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat.calls += 1
                stat.self_ns += dt - frame[0]
                if parent is not None:
                    parent[0] += dt
                    stat.parents[parent[1]] += 1
            if count is not None:
                stat.items += count(result)
            if per_item:
                return _TracedIter(iter(result), stack, name, stat)
            return result

        traced.__wrapped__ = fn
        return traced

    def snapshot(self) -> dict[str, Stat]:
        return {name: stat.copy() for name, stat in self.stats.items()}

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()
