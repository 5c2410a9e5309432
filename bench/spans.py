"""Span tracing of the residue_lab package from outside the library.

A Tracer wraps every module-level function of every loaded
`residue_lab.*` module and records one span per call: name, start, end,
the enclosing span, and the prime of the call when its first argument has
a `.p` (a FieldContext).  Each wrapper replaces the function under every
name that refers to it in any residue_lab module, so `claims.build_context`
and `stats.build_context` are traced as well as `modarith.build_context`.
No library file is edited; `uninstall` puts the originals back.

Spans are kept in memory and summarized after the run.  Tracing is for a
single process: calls inside pool workers are not seen.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

PACKAGE = "residue_lab"


@dataclass(slots=True)
class Span:
    name: str            # "<module>.<function>"
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 for a root
    p: int | None = None

    @property
    def module(self) -> str:
        return self.name.partition(".")[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Context manager that traces every residue_lab function while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1,
                        getattr(args[0], "p", None) if args else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
        return traced

    def _modules(self):
        return [m for name, m in sorted(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def install(self) -> None:
        modules = self._modules()
        wrappers = {}
        for m in modules:
            short = m.__name__.rpartition(".")[2]
            for obj in vars(m).values():
                if inspect.isfunction(obj) and obj.__module__ == m.__name__:
                    wrappers[obj] = self._wrap(f"{short}.{obj.__name__}", obj)
        for m in modules:
            for attr, obj in list(vars(m).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((m, attr, obj))
                    setattr(m, attr, wrappers[obj])

    def uninstall(self) -> None:
        for m, attr, obj in reversed(self._undo):
            setattr(m, attr, obj)
        self._undo.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    Spans of one thread nest without overlap, so the children's durations
    are exactly the part of the parent's interval they cover.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.duration
    return own


def summarize(spans: list[Span]) -> tuple[dict, dict, dict]:
    """(calls per function, inclusive seconds per function, self seconds per module)."""
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    module_self = defaultdict(float)
    for s, own in zip(spans, self_times(spans)):
        calls[s.name] += 1
        inclusive[s.name] += s.duration
        module_self[s.module] += own
    return dict(calls), dict(inclusive), dict(module_self)
