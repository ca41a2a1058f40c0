"""Span tracing around calls into the bimodalskew layers, from outside the package.

`instrument` wraps the public functions and public methods of each layer
module (bases, families, sampling, inference, oracle, cli) and rebinds every
reference to them inside the package, so calls made through `from .x import f`
are seen too.  A span is opened only at a layer boundary: a call whose caller
is already inside the same layer runs unwrapped.

Spans stay in memory, in flat integer columns because a traced tabulate pass
records several hundred thousand of them, and are written out once, at the
end, as tab-separated lines: id, parent, name, layer, start_ns, end_ns,
request.  Times are `time.perf_counter_ns`, CLOCK_MONOTONIC on Linux, so the
spans of a child process nest inside the parent's request span.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("bases", "families", "sampling", "inference", "oracle", "cli")
REQUEST = "request"
# self time of a request span that no layer span covers: interpreter start,
# imports, argument parsing and the benchmark's own code around the call
OUTSIDE = "outside"
NO_PARENT = -1

ENV_OUT = "PERFBENCH_TRACE_OUT"
ENV_PARENT = "PERFBENCH_TRACE_PARENT"
ENV_REQUEST = "PERFBENCH_TRACE_REQUEST"


class Tracer:
    """Spans of one process; ids are (pid << 32) + index, unique across processes."""

    def __init__(self, request: str = "", parent: int = NO_PARENT):
        self._base = os.getpid() << 32
        self._root_parent = parent
        self._root_request = request
        self._codes: dict[str, int] = {}  # string table for names, layers and requests
        self.parent = array("q")
        self.name = array("q")
        self.layer = array("q")
        self.start = array("q")
        self.end = array("q")
        self.request = array("q")
        self._stack: list[int] = []

    def intern(self, s: str) -> int:
        return self._codes.setdefault(s, len(self._codes))

    def current_layer(self) -> int | None:
        return self.layer[self._stack[-1]] if self._stack else None

    def open(self, name: str, layer: str, request: str | None = None) -> int:
        if self._stack:
            top = self._stack[-1]
            parent, req = self._base + top, self.request[top]
        else:
            parent, req = self._root_parent, self.intern(self._root_request)
        if request is not None:
            req = self.intern(request)
        idx = len(self.start)
        self.parent.append(parent)
        self.name.append(self.intern(name))
        self.layer.append(self.intern(layer))
        self.request.append(req)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def request_span(self, request: str, name: str):
        idx = self.open(name, REQUEST, request)
        try:
            yield self._base + idx
        finally:
            self.close(idx)

    def dump(self, path: str) -> None:
        s = list(self._codes)
        with open(path, "a", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(f"{self._base + i}\t{self.parent[i]}\t{s[self.name[i]]}\t{s[self.layer[i]]}\t"
                         f"{self.start[i]}\t{self.end[i]}\t{s[self.request[i]]}\n")


def _wrap(fn, layer: str, name: str, tracer: Tracer):
    code = tracer.intern(layer)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if tracer.current_layer() == code:
            return fn(*args, **kwargs)
        idx = tracer.open(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(idx)

    return traced


def _public_names(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [n for n in names if getattr(getattr(module, n), "__module__", None) == module.__name__]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every layer's public functions and methods for the duration of the block."""
    undo = []
    wrapped = {}
    for layer in LAYERS:
        module = importlib.import_module(f"bimodalskew.{layer}")
        for name in _public_names(module):
            obj = getattr(module, name)
            if inspect.isfunction(obj):
                wrapped[id(obj)] = _wrap(obj, layer, f"{layer}.{name}", tracer)
            elif inspect.isclass(obj):
                for meth, fn in list(vars(obj).items()):
                    if not meth.startswith("_") and inspect.isfunction(fn):
                        setattr(obj, meth, _wrap(fn, layer, f"{layer}.{name}.{meth}", tracer))
                        undo.append((obj, meth, fn))
    package = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "bimodalskew"]
    for module in package:
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and id(obj) in wrapped:
                setattr(module, name, wrapped[id(obj)])
                undo.append((module, name, obj))
    try:
        yield tracer
    finally:
        for owner, name, obj in reversed(undo):
            setattr(owner, name, obj)


class SpanTable:
    """The spans of a span file, as columns; strings are shared through a table."""

    def __init__(self, path):
        cols = [array("q") for _ in range(7)]
        codes: dict[str, int] = {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                f = line.rstrip("\n").split("\t")
                for k in (0, 1, 4, 5):
                    cols[k].append(int(f[k]))
                for k in (2, 3, 6):
                    cols[k].append(codes.setdefault(f[k], len(codes)))
        strings = np.array(list(codes), dtype=object)
        ints = [np.frombuffer(c, dtype=np.int64) for c in cols]
        self.id, self.parent, self.start, self.end = ints[0], ints[1], ints[4], ints[5]
        self.name, self.layer, self.request = strings[ints[2]], strings[ints[3]], strings[ints[6]]
        order = np.argsort(self.id)
        pos = order[np.searchsorted(self.id, self.parent, sorter=order).clip(0, len(self.id) - 1)]
        # index of each span's parent, or -1 when it has none or it was not recorded
        self.parent_idx = np.where((self.parent != NO_PARENT) & (self.id[pos] == self.parent), pos, -1)

    def __len__(self) -> int:
        return len(self.id)

    def self_times(self) -> dict[str, dict[str, float]]:
        """Self seconds per layer, summed per workload (the request id's prefix).

        A span's self time is its duration minus its children's durations;
        children never overlap because every traced process is single-threaded.
        A request span's self time is reported under OUTSIDE.
        """
        dur = (self.end - self.start).astype(float)
        has = self.parent_idx >= 0
        own = dur - np.bincount(self.parent_idx[has], weights=dur[has], minlength=len(self))
        layer = np.where(self.layer == REQUEST, OUTSIDE, self.layer)
        workload = np.array([r.split("/")[0] for r in self.request], dtype=object)
        out: dict[str, dict[str, float]] = {}
        for w in set(workload):
            mine = workload == w
            out[w] = {k: float(own[mine & (layer == k)].sum()) * 1e-9 for k in (OUTSIDE, *LAYERS)}
        return out

    def nesting_errors(self) -> list[str]:
        """Spans that are not inside a parent of the same request, or lead to no request span."""
        is_req = self.layer == REQUEST
        errors = [f"request span {i} has a parent" for i in self.id[is_req & (self.parent != NO_PARENT)]]
        orphans = self.name[~is_req & (self.parent_idx < 0)]
        errors += [f"span {n} has no recorded parent" for n in orphans]
        kids = np.flatnonzero(~is_req & (self.parent_idx >= 0))
        par = self.parent_idx[kids]
        bad = (
            (self.request[kids] != self.request[par])
            | (self.start[kids] < self.start[par])
            | (self.end[kids] > self.end[par])
            | (self.end[kids] < self.start[kids])
        )
        for n, p in zip(self.name[kids[bad]], par[bad]):
            errors.append(f"span {n} does not nest in {self.name[p]}")
        return errors
