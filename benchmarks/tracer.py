"""Spans recorded from outside the program, around calls to its public names.

A ``Tracer`` replaces a function in the namespace where its caller looks it
up (for example ``plsfair.cli.allocate``, which ``cmd_sweep`` calls) with a
wrapper that records a span: name, parent span, start, end and, where asked,
process CPU time and a work count taken from the call. Spans stay in memory
for one operation; ``LayerStats`` folds them into per-call and per-operation
figures when the operation ends. The program itself is not changed.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable

from stats import self_time

#: Extracts a work count (paths, draws) from a call's arguments and result.
WorkFn = Callable[[tuple, dict, Any], float]


@dataclass(frozen=True)
class Target:
    """One public name to wrap, and what to record around it."""

    module: Any
    attr: str
    span: str
    work: WorkFn | None = None
    cpu: bool = False


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    cpu: float
    work: float


class Tracer:
    """Installs and removes span-recording wrappers on the given targets.

    A target whose name the program no longer has is skipped, so the same
    benchmark runs against a program whose layers have been renamed; the
    metrics of a skipped layer then read 0.
    """

    def __init__(self, targets: Iterable[Target]) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches = []
        for target in targets:
            original = getattr(target.module, target.attr, None)
            if original is not None:
                wrapper = self._wrap(original, target)
                self._patches.append((target.module, target.attr, original, wrapper))

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        spans, stack = self.spans, self._stack
        perf, cpu_clock = time.perf_counter, time.process_time
        name, work_fn, with_cpu = target.span, target.work, target.cpu

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)  # reserve the slot so that children get later ids
            stack.append(sid)
            cpu0 = cpu_clock() if with_cpu else 0.0
            start = perf()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                cpu = cpu_clock() - cpu0 if with_cpu else 0.0
                stack.pop()
                work = 0.0
                if work_fn is not None and result is not None:
                    try:
                        work = float(work_fn(args, kwargs, result))
                    except (AttributeError, IndexError, KeyError, TypeError):
                        work = 0.0
                spans[sid] = Span(sid, parent, name, start, end, cpu, work)

        return wrapper

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def take(self) -> list[Span]:
        """Return the spans recorded since the last call, and forget them."""
        taken = [s for s in self.spans if s is not None]
        self.spans.clear()
        self._stack.clear()
        return taken


class LayerStats:
    """Per-call durations, self times, counts and work of each span name.

    ``root`` names the span the harness itself records around each
    operation; spans without a parent are its children. Self times are kept
    only for the names in ``self_timed`` and durations only for the names in
    ``timed``, so that a sweep's thousands of calls per operation stay cheap.
    """

    def __init__(self, root: str, timed: Iterable[str], self_timed: Iterable[str]) -> None:
        self.root = root
        self.timed = frozenset(timed)
        self.self_timed = frozenset(self_timed) | {root}
        self.ops = 0
        self.calls: Counter[str] = Counter()
        self.durations: dict[str, array] = defaultdict(lambda: array("d"))
        self.self_times: dict[str, array] = defaultdict(lambda: array("d"))
        self.work: Counter[str] = Counter()
        self.cpu: Counter[str] = Counter()
        self.busy: Counter[str] = Counter()

    def add_op(self, start: float, end: float, spans: list[Span]) -> None:
        self.ops += 1
        children: dict[int | None, list[tuple[float, float]]] = defaultdict(list)
        for s in spans:
            children[s.parent].append((s.start, s.end))
        self.self_times[self.root].append(self_time(start, end, children[None]))
        for s in spans:
            duration = s.end - s.start
            self.calls[s.name] += 1
            self.busy[s.name] += duration
            self.work[s.name] += s.work
            self.cpu[s.name] += s.cpu
            if s.name in self.timed:
                self.durations[s.name].append(duration)
            if s.name in self.self_timed:
                self.self_times[s.name].append(self_time(s.start, s.end, children[s.sid]))
