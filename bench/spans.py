"""In-memory span tracing for the benchmark, applied from outside the program.

The tracer wraps the public functions of the loaded ``melvq`` modules at every
module attribute through which callers look them up (``melvq.trainer.fnv1a64``
and ``melvq.quantizer.fnv1a64`` are the same function and get the same
wrapper), so the program itself is not edited. Each call becomes one span:
name, start, end, parent span and the request it served. Spans stay in memory
until the run writes them out.

This module imports only the standard library, so a traced CLI process can
load it before timing ``import melvq``.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import sys
import threading
import time
import types

# Span record layout; spans are kept as lists to keep tracing cheap.
ID, PARENT, NAME, START, END, REQUEST, ATTRS = range(7)


class Tracer:
    """Collects spans from any thread of this process."""

    def __init__(self, root_parent: int | None = None, id_base: int = 0):
        self.spans: list[list] = []
        self.request: str | None = None
        self._ids = itertools.count(id_base + 1)
        self._local = threading.local()
        self._root_parent = root_parent
        self._restore: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else self._root_parent

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record one span around the body; yields the span record."""
        record = [next(self._ids), self._parent(), name, time.perf_counter_ns(),
                  0, self.request, attrs]
        stack = self._stack()
        stack.append(record[ID])
        try:
            yield record
        finally:
            stack.pop()
            record[END] = time.perf_counter_ns()
            self.spans.append(record)

    def adopt(self, spans: list[list]) -> None:
        """Take spans recorded by another process; the monotonic clock is shared."""
        self.spans.extend(spans)

    def wrap(self, fn, name: str, hook=None):
        """Return fn wrapped in a span.

        hook(tracer, record, args, kwargs) may return replacement (args,
        kwargs) and a callable that takes the result and adds counts to
        record[ATTRS]; either may be None.
        """
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name) as record:
                after = None
                if hook is not None:
                    replaced, after = hook(tracer, record, args, kwargs)
                    if replaced is not None:
                        args, kwargs = replaced
                result = fn(*args, **kwargs)
                if after is not None:
                    try:
                        after(result)
                    except Exception as exc:  # a count must never break the run
                        record[ATTRS]["count_error"] = repr(exc)
                return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def in_parent(self, parent: int | None, fn):
        """Wrap fn so spans it records on a worker thread nest under parent."""
        tracer = self

        def run(*args, **kwargs):
            stack = tracer._stack()
            saved = list(stack)
            stack[:] = [parent] if parent is not None else []
            try:
                return fn(*args, **kwargs)
            finally:
                stack[:] = saved

        return run

    def patch_package(self, package: str = "melvq", hooks: dict | None = None) -> None:
        """Wrap every public function and class method defined in the loaded
        modules of package, at every module attribute that refers to it."""
        hooks = hooks or {}
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        wrappers: dict[int, object] = {}
        for module in modules:
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(value, types.FunctionType) and _defined_in(value, package):
                    if id(value) not in wrappers:
                        wrappers[id(value)] = self.wrap(value, value.__name__,
                                                        hooks.get(value.__name__))
                    self._set(module, attr, wrappers[id(value)])
                elif isinstance(value, type) and _defined_in(value, package) \
                        and value.__module__ == module.__name__:
                    self._patch_class(value, hooks)

    def _patch_class(self, cls: type, hooks: dict) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(value, (classmethod, staticmethod)):
                kind = type(value)
                self._set(cls, attr, kind(self.wrap(value.__func__, name, hooks.get(name))))
            elif isinstance(value, types.FunctionType):
                self._set(cls, attr, self.wrap(value, name, hooks.get(name)))

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def unpatch(self) -> None:
        """Put back every attribute patch_package replaced."""
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()


def _defined_in(obj, package: str) -> bool:
    module = getattr(obj, "__module__", "") or ""
    return module == package or module.startswith(package + ".")


def self_times(spans: list[list]) -> dict[int, int]:
    """Self time of each span in ns: its duration minus the part of its
    interval covered by its child spans (children may overlap on threads)."""
    children: dict[int, list[tuple[int, int]]] = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    result = {}
    for s in spans:
        covered = 0
        cursor = s[START]
        for start, end in sorted(children.get(s[ID], ())):
            start, end = max(start, cursor), min(end, s[END])
            if end > start:
                covered += end - start
                cursor = end
        result[s[ID]] = (s[END] - s[START]) - covered
    return result


def outermost(spans: list[list], name: str) -> list[list]:
    """Spans called name that have no ancestor of the same name, so recursive
    or re-entrant calls are not counted twice."""
    by_id = {s[ID]: s for s in spans}
    return [s for s in spans if s[NAME] == name and ancestor(by_id, s, name) is None]


def ancestor(spans_by_id: dict[int, list], span: list, name: str) -> list | None:
    """Nearest ancestor of span called name, or None."""
    parent = spans_by_id.get(span[PARENT])
    while parent is not None and parent[NAME] != name:
        parent = spans_by_id.get(parent[PARENT])
    return parent


TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def tail_percentile(values) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples above its rank, as
    (percentile, value) by the nearest-rank rule; None when no percentile
    in TAIL_PERCENTILES has ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = max(1, math.ceil(p * n / 100.0 - 1e-9))  # tolerate 99.9 * n rounding up
        if n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return None
