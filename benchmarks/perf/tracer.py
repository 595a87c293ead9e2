"""Span tracer for the per-layer breakdown.

The tracer never edits the program: :class:`Instrumentation` swaps the
names a layer's callers look up (a module attribute such as
``repro.service.client.build_manifest`` or a class attribute such as
``FrontendServer.handle_chunk``) for a wrapper that records a span, and
puts the originals back on exit.

Spans nest on one stack.  When a span closes, its *self time* is its
duration minus the part of it covered by its child spans
(:func:`self_time`), so every second of a traced run is charged to
exactly one layer.  Aggregates are kept per span name — self seconds,
call count, and (for a few names) every duration — instead of a list
of raw spans, which would run to millions of entries on the chaos
replay.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from typing import Callable, Iterable


def self_time(
    start: float, end: float, children: Iterable[tuple[float, float]]
) -> float:
    """``end - start`` minus the union of ``children`` clipped to it.

    Children may nest inside each other, overlap, or reach outside the
    parent interval (a clock skew between layers, or spans recorded on
    different threads); each covered instant is subtracted once.
    """
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)
    )
    covered = 0.0
    run_start = run_end = None
    for s, e in clipped:
        if run_end is None or s > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = s, e
        elif e > run_end:
            run_end = e
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


class Tracer:
    """Nested spans and counters with per-name self-time aggregates."""

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        keep_durations: Iterable[str] = (),
    ) -> None:
        self.clock = clock
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.durations: dict[str, list[float]] = {
            name: [] for name in keep_durations
        }
        #: Open spans: ``[name, start, child intervals]``.
        self._stack: list[list] = []

    def enter(self, name: str) -> None:
        self._stack.append([name, self.clock(), []])

    def exit(self) -> None:
        end = self.clock()
        name, start, children = self._stack.pop()
        self.self_s[name] += self_time(start, end, children)
        self.calls[name] += 1
        if name in self.durations:
            self.durations[name].append(end - start)
        if self._stack:
            self._stack[-1][2].append((start, end))

    def span(self, name: str) -> "_Span":
        return _Span(self, name)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def wrap(
        self,
        fn: Callable,
        name: str,
        on_result: Callable[["Tracer", object], None] | None = None,
    ) -> Callable:
        """``fn`` recording a ``name`` span per call.

        A call made while a span of the same name is already innermost
        (a metadata tier delegating to its shard servers, one fault query
        calling another) stays inside the outer span: a layer's internal
        calls are its own work, not new calls into it.
        """
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit()
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def total_self(self, prefix: str) -> float:
        """Self seconds summed over every span name starting ``prefix``."""
        return sum(s for name, s in self.self_s.items() if name.startswith(prefix))


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name

    def __enter__(self) -> "_Span":
        self.tracer.enter(self.name)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.exit()


class Instrumentation:
    """Swap wrapped callables into their owners for the ``with`` body.

    ``points`` are ``(owner, attribute, span name, on_result)`` tuples; a
    ``None`` span name installs a counting property instead (``owner``
    must be a class and ``attribute`` a property), which counts reads
    under ``counter:<attribute>`` without a span — for hot accessors
    whose call count matters more than their time.
    """

    def __init__(self, tracer: Tracer, points) -> None:
        self.tracer = tracer
        self.points = list(points)
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> Tracer:
        tracer = self.tracer
        for owner, attr, name, on_result in self.points:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            if name is None:
                setattr(owner, attr, _counting_property(tracer, attr, original))
            else:
                setattr(owner, attr, tracer.wrap(original, name, on_result))
        return tracer

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _counting_property(tracer: Tracer, attr: str, original: property) -> property:
    getter = original.fget
    counts = tracer.counts
    key = f"counter:{attr}"

    def fget(obj):
        counts[key] += 1
        return getter(obj)

    return property(fget)
