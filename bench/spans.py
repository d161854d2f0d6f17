"""Span recording around the benchmark's calls into genfermat modules.

Workload code reaches every module through an `Api` object.  Untraced, its
attributes are the modules themselves, so a call costs nothing extra.
Traced, each attribute is a namespace of wrapped public functions: every
call records a span (name, start, end, parent span, item id) in memory.
Classes pass through unwrapped; constructing a parameter object is not a
call into a module's work.
"""

import inspect
import time
from contextlib import contextmanager
from types import SimpleNamespace

from genfermat import (
    cohomology,
    enumeration,
    fixed_points,
    geometry,
    groups,
    invariants,
)

MODULES = {
    "enumeration": enumeration,
    "groups": groups,
    "fixed_points": fixed_points,
    "invariants": invariants,
    "cohomology": cohomology,
    "geometry": geometry,
}


class Tracer:
    """In-memory span list.  A span is (id, parent id, name, item, start,
    end) with perf_counter times; spans nest through a stack, since all
    work runs on one thread."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._item = None

    @contextmanager
    def span(self, name, item=None):
        if item is not None:
            self._item = item
        current = self._item
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, name, current, start, end)
            if item is not None:
                self._item = None

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        traced.__name__ = fn.__name__
        return traced


class Api:
    """The genfermat modules as the workloads see them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        for short, module in MODULES.items():
            if tracer is None:
                setattr(self, short, module)
                continue
            ns = {}
            for attr, obj in vars(module).items():
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    obj = tracer.wrap(f"{short}.{attr}", obj)
                ns[attr] = obj
            setattr(self, short, SimpleNamespace(**ns))

    @contextmanager
    def item(self, item_id):
        """One workload item (a cell, a subgroup model, a check block)."""
        if self.tracer is None:
            yield
        else:
            with self.tracer.span("bench.item", item=item_id):
                yield


def self_times(spans):
    """Self time per span name: duration minus the time covered by direct
    children.  Returns {name: (calls, self seconds)}."""
    child_time = {}
    for sid, parent, name, item, start, end in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for sid, parent, name, item, start, end in spans:
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + (end - start) - child_time.get(sid, 0.0))
    return out


def spans_to_json(spans, origin):
    return [
        {"id": sid, "parent": parent, "name": name, "item": item,
         "start_s": start - origin, "end_s": end - origin}
        for sid, parent, name, item, start, end in spans
    ]
