"""Spans recorded around calls into the package, from outside it.

``instrument`` rebinds package functions to wrappers wherever a module of the
package holds them (the defining module and every module that imported the
name), and restores the originals on exit, also after an exception. Nothing
in the package itself changes.
"""
from __future__ import annotations

import functools
import importlib
import resource
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass

# Span name of the work a probe does for its counters and captures; it is a
# child of the caller's span, so it never counts as the caller's self time.
BOOKKEEPING = "trace.bookkeeping"


def maxrss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    rss_start: float
    end: float = float("nan")
    rss_end: float = float("nan")

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span and counter recorder for one pipeline run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), parent, maxrss_mb()))
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            span = self.spans[self._stack.pop()]
            span.end = self.clock()
            span.rss_end = maxrss_mb()

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children cover."""
        children = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.seconds
        totals: defaultdict[str, float] = defaultdict(float)
        for span, covered in zip(self.spans, children):
            totals[span.name] += span.seconds - covered
        return dict(totals)

    def top_level_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.parent is None)


@dataclass(frozen=True)
class Probe:
    """A package function to wrap, named ``module.attr`` inside the package
    (``attr`` may be ``Class.method``), with optional hooks called as
    ``hook(args, kwargs, result)`` after each call. ``count`` runs only when
    tracing; ``capture`` runs on every call."""

    target: str
    count: object = None
    capture: object = None

    @property
    def span_name(self) -> str:
        module, attr = self.target.split(".", 1)
        return f"{module}.{attr.rsplit('.', 1)[-1]}"


def _wrap(func, probe: Probe, tracer: Tracer | None):
    hooks = [h for h in ((probe.count if tracer else None), probe.capture) if h]

    if tracer is None:
        @functools.wraps(func)
        def captured(*args, **kwargs):
            result = func(*args, **kwargs)
            for hook in hooks:
                hook(args, kwargs, result)
            return result
        return captured

    @functools.wraps(func)
    def traced(*args, **kwargs):
        with tracer.span(probe.span_name):
            result = func(*args, **kwargs)
        if hooks:
            with tracer.span(BOOKKEEPING):
                for hook in hooks:
                    hook(args, kwargs, result)
        return result
    return traced


@contextmanager
def instrument(package: str, probes, tracer: Tracer | None = None):
    """Wrap every probe's function for the duration of the block.

    Without a tracer only probes with a ``capture`` hook are wrapped, and no
    span is recorded.
    """
    active = [p for p in probes if tracer is not None or p.capture is not None]
    owners = [importlib.import_module(f"{package}.{p.target.split('.', 1)[0]}")
              for p in active]
    modules = [m for name, m in list(sys.modules.items())
               if name == package or name.startswith(package + ".")]
    undo = []
    try:
        for probe, owner in zip(active, owners):
            attr = probe.target.split(".", 1)[1]
            if "." in attr:  # a method: rebind it on its class only
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                undo.append((cls, method, original))
                setattr(cls, method, _wrap(original, probe, tracer))
                continue
            original = getattr(owner, attr)
            wrapper = _wrap(original, probe, tracer)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, name, original))
                        setattr(module, name, wrapper)
        yield
    finally:
        for obj, name, original in reversed(undo):
            setattr(obj, name, original)
