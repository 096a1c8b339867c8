"""In-memory spans recorded around the program's public entry points.

The benchmark traces the program from the outside: :func:`instrument`
swaps selected functions and methods of the ``repro`` package for thin
wrappers that open a span on entry and close it on exit, and puts the
originals back afterwards.  Nothing in ``repro`` knows it is being traced.

A span is ``(name, start, end, parent, request id)``.  Spans live in
flat arrays (a few tens of bytes each, so a replay's million spans stay
small) and are written out as JSONL only when the run ends.  A layer's
*self time* is the time its spans cover minus the time their child spans
cover, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

#: Span name of the benchmark's own root span around one timed repetition.
ROOT_SPAN = "bench.run"


class Tracer:
    """Collects spans and counters for one traced repetition."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.rid = array("q")
        self._stack: list[int] = [-1]
        #: Request id given to spans that do not carry their own (the
        #: replay op being issued, or -1 outside any request).
        self.request_id = -1
        self.counters: dict[str, float] = {}

    def name_id(self, name: str) -> int:
        found = self._ids.get(name)
        if found is None:
            found = self._ids[name] = len(self.names)
            self.names.append(name)
        return found

    def open(self, name_id: int, rid: int | None = None) -> int:
        index = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.rid.append(self.request_id if rid is None else rid)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        self.end[index] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, rid: int | None = None) -> Iterator[None]:
        index = self.open(self.name_id(name), rid)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self) -> dict[str, np.ndarray]:
        """The span columns as NumPy arrays (a copy)."""
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "rid": np.frombuffer(self.rid, dtype=np.int64).copy(),
        }

    def write_jsonl(self, path) -> None:
        """Write one JSON object per span, times in seconds from the first."""
        origin = min(self.start) if len(self) else 0.0
        names = [json.dumps(name) for name in self.names]
        with open(path, "w") as fh:
            for i, (name, start, end, parent, rid) in enumerate(
                zip(self.name, self.start, self.end, self.parent, self.rid)
            ):
                fh.write(
                    f'{{"id": {i}, "name": {names[name]}, '
                    f'"start": {start - origin!r}, "end": {end - origin!r}, '
                    f'"parent": {parent}, "rid": {rid}}}\n'
                )


def self_times(duration: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children.

    Spans here are strictly nested (the program is single-threaded and a
    child always closes before its parent), so the part of a parent's
    interval its children cover is the sum of their durations.
    """
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent],
        weights=duration[has_parent],
        minlength=len(duration),
    )
    return duration - covered


def layer_totals(tracer: Tracer) -> dict[str, dict[str, float]]:
    """Per span name: summed self time, outermost calls and durations.

    ``calls`` counts only spans whose parent has a different name, so a
    layer entry point that re-enters its own layer (a metadata tier
    delegating to a shard server) counts once.
    """
    cols = tracer.arrays()
    duration = cols["end"] - cols["start"]
    own = self_times(duration, cols["parent"])
    parent_name = np.where(
        cols["parent"] >= 0, cols["name"][np.maximum(cols["parent"], 0)], -1
    )
    totals: dict[str, dict[str, float]] = {}
    for name_id, name in enumerate(tracer.names):
        mask = cols["name"] == name_id
        outermost = mask & (parent_name != name_id)
        totals[name] = {
            "self_s": float(own[mask].sum()),
            "calls": int(outermost.sum()),
            "durations": duration[outermost],
        }
    return totals


# ----------------------------------------------------------------------
# Instrumentation
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Hook:
    """One entry point to wrap.

    ``target`` is ``"module:attr"`` or ``"module:Class.attr"``.  ``mode``:

    * ``"call"`` — one span per call;
    * ``"request"`` — as ``call``, and the call starts a new request id;
    * ``"eager"`` — the callee returns a generator, which the span drains
      into a list (so the span is the time spent producing its items);
    * ``"iter"`` — the callee returns an iterator; a span covers the call
      and then one more covers each ``next()``.

    ``rid`` maps ``(tracer, *args, **kwargs)`` to the span's request id
    (default: the tracer's current one); ``result`` receives ``(tracer,
    return value)`` to tally counters.
    """

    target: str
    span: str
    mode: str = "call"
    rid: Callable | None = None
    result: Callable | None = None

    def __post_init__(self) -> None:
        if self.mode not in ("call", "request", "eager", "iter"):
            raise ValueError(f"unknown hook mode {self.mode!r}")


def public_methods(target: str) -> list[str]:
    """Targets for every public plain method of the class ``module:Class``."""
    module_name, class_name = target.split(":")
    cls = getattr(importlib.import_module(module_name), class_name)
    return [
        f"{target}.{name}"
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def _resolve(target: str) -> tuple[object, str]:
    module_name, path = target.split(":")
    owner: object = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


def _timed_iter(tracer: Tracer, name_id: int, items: Iterator, counter: str):
    index = 0
    while True:
        span = tracer.open(name_id, index)
        try:
            item = next(items)
        except StopIteration:
            return
        finally:
            tracer.close(span)
        index += 1
        tracer.count(counter)
        yield item


def _wrapper(tracer: Tracer, hook: Hook, fn: Callable) -> Callable:
    name_id = tracer.name_id(hook.span)
    if hook.mode == "iter":
        counter = hook.span + ".items"

        @functools.wraps(fn)
        def iter_wrapper(*args, **kwargs):
            span = tracer.open(name_id)
            try:
                items = iter(fn(*args, **kwargs))
            finally:
                tracer.close(span)
            return _timed_iter(tracer, name_id, items, counter)

        return iter_wrapper

    new_request = hook.mode == "request"
    eager = hook.mode == "eager"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if new_request:
            tracer.request_id += 1
        rid = hook.rid(tracer, *args, **kwargs) if hook.rid is not None else None
        span = tracer.open(name_id, rid)
        try:
            result = fn(*args, **kwargs)
            if eager:
                result = list(result)
        finally:
            tracer.close(span)
        if hook.result is not None:
            hook.result(tracer, result)
        return iter(result) if eager else result

    return wrapper


@contextmanager
def instrument(tracer: Tracer, hooks: list[Hook]) -> Iterator[Tracer]:
    """Wrap every hook's target for the duration of the block."""
    undo: list[tuple[object, str, object]] = []
    try:
        for hook in hooks:
            owner, attr = _resolve(hook.target)
            raw = vars(owner)[attr]
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(_wrapper(tracer, hook, raw.__func__))
            else:
                wrapped = _wrapper(tracer, hook, raw)
            setattr(owner, attr, wrapped)
            undo.append((owner, attr, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(undo):
            setattr(owner, attr, raw)
