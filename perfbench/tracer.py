"""In-memory span tracer around irsfleet's module-level layer entry points.

The tracer lives entirely in the benchmark: it replaces a name such as
`irsfleet.harness.realize_channel` with a wrapper that records a span
(name, start, end, parent span, trial id) and restores the original name
afterwards. No file of the program is edited. Spans stay in memory until
the benchmark reads them at the end of the traced run.
"""

import importlib
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int        # index into Tracer.spans; -1 at top level
    trial: str | None  # shared by every span of one trial
    # Time the tracer itself spent inside this span, around its children's
    # calls: span bookkeeping and the `observe` counting. Not program time.
    tracing: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """One name to wrap: `attr` may be dotted, e.g. "_TrialEngine.run".

    `span` is a fixed span name, or a function of the call's (args, kwargs)
    returning (span name, trial id) for spans that open a trial.
    `observe(counters, result, args, kwargs)` records counts from a call.
    """

    module: str
    attr: str
    span: str | Callable
    observe: Callable | None = None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def wrap(self, fn: Callable, target: Target) -> Callable:
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            if callable(target.span):
                name, trial = target.span(args, kwargs)
            else:
                name, trial = target.span, None
            parent = self._stack[-1] if self._stack else -1
            if trial is None and parent >= 0:
                trial = self.spans[parent].trial
            span = Span(name, 0.0, 0.0, parent, trial)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if target.observe is not None:
                target.observe(self.counters, result, args, kwargs)
            # The wrapper's work before and after the call ran inside the
            # parent span; charge it to the tracer, not to the parent.
            if parent >= 0:
                self.spans[parent].tracing += (
                    span.start - entered + time.perf_counter() - span.end
                )
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover and
        the tracer's own time inside it.

        The program runs on one thread, so the children of a span run one
        after another inside it and their coverage is the sum of their
        durations.
        """
        covered = [span.tracing for span in self.spans]
        for span in self.spans:
            if span.parent >= 0:
                covered[span.parent] += span.duration
        return [span.duration - c for span, c in zip(self.spans, covered)]


def _resolve(target: Target):
    owner = importlib.import_module(target.module)
    *path, leaf = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


@contextmanager
def installed(tracer: Tracer, targets):
    """Wrap every resolvable target for the duration of the block.

    Yields the targets the program no longer resolves; their spans then
    simply never occur, so they report zero calls.
    """
    restore = []
    unresolved = []
    try:
        for target in targets:
            try:
                owner, leaf, original = _resolve(target)
            except (ImportError, AttributeError):
                unresolved.append(target)
                continue
            setattr(owner, leaf, tracer.wrap(original, target))
            restore.append((owner, leaf, original))
        yield unresolved
    finally:
        for owner, leaf, original in reversed(restore):
            setattr(owner, leaf, original)
