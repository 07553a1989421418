"""In-memory spans around library functions, installed from outside the library.

A :class:`Tracer` replaces named functions in module namespaces, class
dictionaries or plain dicts with timing wrappers, and puts every
original back when its ``with`` block ends, even on error.  Spans are
appended to flat arrays (one entry per call: name, parent span, start,
end, and two integer payloads a post hook may fill), so a traced run
holds millions of spans without a Python object per span.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

MARKER = "__perfbench_span__"


class SpanLog:
    """Flat span arrays; span ids are indices, parents precede children."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.a = array("q")
        self.b = array("q")
        self.stack = [-1]

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self.stack[-1])
        self.a.append(0)
        self.b.append(0)
        self.end.append(0.0)
        self.start.append(time.perf_counter())
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        # Copies, so the arrays stay appendable (a buffer view would pin them).
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16).astype(np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "a": np.frombuffer(self.a, dtype=np.int64).copy(),
            "b": np.frombuffer(self.b, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread and nest properly, so a parent's
    children never overlap and their summed durations are exactly the
    part of the parent's interval they cover.
    """
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent], minlength=len(duration))
    return duration - covered


def _make_wrapper(fn, log: SpanLog, name: str, post):
    name_id = log.name_id(name)
    names, parents, starts, ends, a, b, stack = (
        log.name, log.parent, log.start, log.end, log.a, log.b, log.stack
    )
    clock = time.perf_counter

    # Inlined SpanLog.open/close: this runs once per wrapped call.
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = len(starts)
        names.append(name_id)
        parents.append(stack[-1])
        a.append(0)
        b.append(0)
        ends.append(0.0)
        stack.append(idx)
        starts.append(clock())
        try:
            result = fn(*args, **kwargs)
        finally:
            ends[idx] = clock()
            stack.pop()
        if post is not None:
            a[idx], b[idx] = post(args, result)
        return result

    setattr(traced, MARKER, name)
    return traced


def _get(container, key):
    return container[key] if isinstance(container, dict) else vars(container)[key]


def _set(container, key, value) -> None:
    if isinstance(container, dict):
        container[key] = value
    else:
        setattr(container, key, value)


def wrapped_targets(targets) -> list[str]:
    """Keys of the targets that currently hold a tracing wrapper."""
    return [f"{container!r}.{key}" for container, key, *_ in targets if hasattr(_get(container, key), MARKER)]


class Tracer:
    """Context manager that wraps `targets` while active.

    Each target is ``(container, key, span_name, post)``; ``post(args,
    result)`` returns the span's two integer payloads, or is None.
    """

    def __init__(self, targets, log: SpanLog | None = None):
        self.targets = list(targets)
        self.log = log if log is not None else SpanLog()
        self._originals: list = []

    def __enter__(self) -> "Tracer":
        if wrapped_targets(self.targets):
            raise RuntimeError("targets are already wrapped")
        try:
            for container, key, name, post in self.targets:
                original = _get(container, key)
                self._originals.append((container, key, original))
                _set(container, key, _make_wrapper(original, self.log, name, post))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def restore(self) -> None:
        while self._originals:
            container, key, original = self._originals.pop()
            _set(container, key, original)
