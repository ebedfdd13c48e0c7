"""In-memory spans around calls into the program, installed from outside it.

A span records its name, its parent span, its start and end, and a work
count.  Self time is a span's duration minus the durations of its direct
children; calls are nested on one thread, so children never overlap.
"""
from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.work: list[int] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, work=None, on_result=None):
        """`fn` recording one span per call.

        ``work(args, kwargs)`` gives the span's work count (rows, shots);
        ``on_result(result)`` sees each return value.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.work.append(work(args, kwargs) if work else 0)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.ends[idx] = perf_counter()
                self._stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def durations(self, name: str) -> list[float]:
        return [e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name]

    def ancestor(self, idx: int, name: str) -> int:
        """Index of the nearest enclosing span called ``name``, or -1."""
        idx = self.parents[idx]
        while idx >= 0 and self.names[idx] != name:
            idx = self.parents[idx]
        return idx

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, summed work and self seconds."""
        child_time = [0.0] * len(self.names)
        for parent, s, e in zip(self.parents, self.starts, self.ends):
            if parent >= 0:
                child_time[parent] += e - s
        out = defaultdict(lambda: {"calls": 0, "work": 0, "self_s": 0.0})
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            agg = out[name]
            agg["calls"] += 1
            agg["work"] += self.work[i]
            agg["self_s"] += dur - child_time[i]
        return dict(out)


class Patches:
    """Attribute replacements that `restore` undoes in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, package: str, original, replacement) -> int:
        """Replace ``original`` at every module-level binding in ``package``.

        A `from m import f` copies the binding, so wrapping `m.f` alone would
        miss callers that look `f` up in their own module.  Returns the
        number of binding sites replaced.
        """
        sites = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package or mod_name.startswith(package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.set(module, attr, replacement)
                    sites += 1
        return sites

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
