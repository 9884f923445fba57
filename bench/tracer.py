"""Spans and counters around calls into ``nettax``, added from outside.

``Tracer.install`` replaces functions bound as attributes of the traced
modules with wrappers; ``uninstall`` puts the originals back. A function
is named after the module that defines it, and every binding of it is
wrapped: ``simulator.optimal_cost`` (imported from ``analytics``) records
as ``analytics.optimal_cost``. Calls a module makes through its own
globals resolve to the wrapper, so nested calls nest their spans.

A span records calls, inclusive time and the time covered by its child
spans, keyed by (name, parent name); self time is the difference.
Counters only count calls: they sit on helpers run tens of times per
event, where a timed span would cost more than the work it measures.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict

# Public functions called inside every best-response check; a span there
# would dominate the time of its caller. Their time stays in the caller.
UNTIMED = {"analytics.delay"}

# Private helpers whose call counts the per-layer metrics need.
COUNTED = ("simulator._wants_switch", "equilibrium._report", "equilibrium._bisect_gap")


class Tracer:
    def __init__(self, modules, hooks=None):
        self.modules = modules  # short name -> module
        self.hooks = hooks or {}  # span name -> callable(result)
        self.spans: dict[tuple[str, str | None], list[int]] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name(self, fn) -> str | None:
        for short, mod in self.modules.items():
            if getattr(fn, "__module__", None) == mod.__name__:
                return f"{short}.{fn.__name__}"
        return None

    def _span(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = self.hooks.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = spans.get((name, parent))
                if rec is None:
                    rec = spans[(name, parent)] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += frame[1]
            if hook is not None:
                hook(result)
            return result

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every public function of the traced modules, except
        UNTIMED, and the COUNTED helpers that still exist."""
        wrapped = {}
        for mod in self.modules.values():
            for attr, value in list(vars(mod).items()):
                if not inspect.isfunction(value):
                    continue
                name = self._name(value)
                if name is None:
                    continue
                short_attr = name.split(".", 1)[1]
                if name in COUNTED:
                    make = self._counter
                elif short_attr.startswith("_") or name in UNTIMED:
                    continue
                else:
                    make = self._span
                if value not in wrapped:
                    wrapped[value] = make(name, value)
                self._saved.append((mod, attr, value))
                setattr(mod, attr, wrapped[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    # -- queries -----------------------------------------------------------

    def calls(self, name: str) -> int:
        return sum(rec[0] for (n, _), rec in self.spans.items() if n == name)

    def total_ns(self, name: str, parent: str | None = ...) -> int:
        """Inclusive time of ``name``; only under ``parent`` if given."""
        return sum(
            rec[1]
            for (n, p), rec in self.spans.items()
            if n == name and (parent is ... or p == parent)
        )

    def self_ns(self, name: str) -> int:
        return sum(rec[1] - rec[2] for (n, _), rec in self.spans.items() if n == name)

    def table(self) -> list[dict]:
        rows = []
        for (name, parent), (calls, total, child) in sorted(
            self.spans.items(), key=lambda kv: -kv[1][1]
        ):
            rows.append(
                {
                    "span": name,
                    "parent": parent,
                    "calls": calls,
                    "total_s": total / 1e9,
                    "self_s": (total - child) / 1e9,
                }
            )
        return rows
