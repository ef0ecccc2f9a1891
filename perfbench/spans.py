"""In-memory span recording for the traced benchmark run.

A span is one call across a layer boundary: its name, start and end
(``time.perf_counter`` seconds), the index of its parent span (-1 for a
top-level call) and the id of the top-level call it belongs to.  Spans
are appended to flat arrays, so a run can hold millions of them, and
are written out once, when the run ends.

Wrappers are installed by patching the module or class attribute a
caller looks the function up by, and removed again by ``uninstall``, so
untraced calls in the same process run the original code.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager
from functools import wraps

import numpy as np

ROOT = "bench.call"


class Tracer:
    """Records nested spans of a single-threaded, closed-loop run."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.top = array("i")
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._top_id = -1
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def add(self, counter: str, amount: float = 1.0):
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.top.append(self._top_id)
        self.end.append(float("nan"))
        self._stack.append(idx)
        self._active[name] = self._active.get(name, 0) + 1
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name: str):
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        self._active[name] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, name)

    @contextmanager
    def top_call(self):
        """Root span of one top-level call; everything inside shares its id."""
        if self._stack:
            raise RuntimeError("top-level call opened inside another span")
        self._top_id += 1
        with self.span(ROOT):
            yield

    def wrap(self, name: str, fn, outermost_only: bool = False, on_result=None):
        """fn recorded as span `name`; with outermost_only, calls made
        while a span of the same name is open run unrecorded (recursion)."""

        @wraps(fn)
        def traced(*args, **kwargs):
            if outermost_only and self._active.get(name, 0):
                return fn(*args, **kwargs)
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx, name)
            if on_result is not None:
                on_result(out)
            return out

        return traced

    def patch(self, owner, attr: str, name: str, **kw):
        """Replace owner.attr by its traced wrapper until uninstall()."""
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "top": np.frombuffer(self.top, dtype=np.int32).copy(),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one span run one after another inside it (single
    thread, closed loop), so their summed durations are the part of the
    parent interval they cover.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent)
    dur = end - start
    child = parent >= 0
    covered = np.bincount(parent[child], weights=dur[child], minlength=dur.size)
    return dur - covered


def layer_totals(names, name, start, end, parent) -> tuple[dict, dict, float]:
    """Per span name: summed self time and call count; plus the summed
    duration of the top-level spans, which the self times add up to."""
    own = self_times(start, end, parent)
    name = np.asarray(name)
    secs = np.bincount(name, weights=own, minlength=len(names))
    calls = np.bincount(name, minlength=len(names))
    roots = np.asarray(parent) < 0
    top = float(np.sum(np.asarray(end)[roots] - np.asarray(start)[roots]))
    return (
        {n: float(secs[i]) for i, n in enumerate(names)},
        {n: int(calls[i]) for i, n in enumerate(names)},
        top,
    )
