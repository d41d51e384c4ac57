"""Span tracing from outside the program, for the traced benchmark run.

The tracer wraps public layer functions *at their call sites*: every
module attribute under ``repro`` that is the original function (for
example ``repro.service.workers.optimize_intra`` as well as
``repro.core.intra.optimize_intra``) is swapped for a recording wrapper
while a :func:`traced` block runs, and restored afterwards.  Methods are
wrapped on their class.  Nothing in ``src/`` is changed.

Spans (name, start, end, parent, request id) stay in memory as lists and
are written out once, at the end of the run.  Each thread keeps its
own stack of open spans, so spans nest per thread; the offline workloads
run the engine with ``jobs=1``, which computes on the calling thread.
"""

from __future__ import annotations

import collections
import contextlib
import gzip
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, Dict, Iterator, List, Sequence

# Span fields, by position in a span list.
NAME, START, END, PARENT, REQUEST = range(5)


@dataclass(frozen=True)
class Target:
    """One function to wrap: span ``name`` for ``owner.attr``.

    ``owner`` is a module or a class.  ``new_request`` marks the span
    that starts a request; spans under it share its request id.
    """

    name: str
    owner: Any
    attr: str
    new_request: bool = False


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self._requests = itertools.count()
        self._thread = threading.local()
        self._lock = threading.Lock()

    def _state(self) -> Any:
        state = self._thread
        if not hasattr(state, "open"):
            state.open, state.request = [], -1
        return state

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span measured by the caller."""
        state = self._state()
        parent = state.open[-1] if state.open else -1
        with self._lock:
            self.spans.append([name, start, end, parent, state.request])

    def wrap(self, name: str, fn: Callable, new_request: bool = False) -> Callable:
        spans, lock = self.spans, self._lock

        def traced_call(*args: Any, **kwargs: Any) -> Any:
            state = self._state()
            if new_request:
                state.request = next(self._requests)
            span = [name, time.perf_counter(), 0.0, state.open[-1] if state.open else -1, state.request]
            with lock:
                state.open.append(len(spans))
                spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                state.open.pop()
                span[END] = time.perf_counter()

        traced_call.__wrapped__ = fn
        return traced_call

    def write(self, path: str) -> None:
        """Write every span as a tab-separated line (gzip)."""
        with gzip.open(path, "wt", compresslevel=1) as handle:
            handle.write("name\tstart\tend\tparent\trequest\n")
            for span in self.spans:
                handle.write("\t".join(str(field) for field in span) + "\n")


@contextlib.contextmanager
def traced(tracer: Tracer, targets: Sequence[Target]) -> Iterator[Tracer]:
    """Install wrappers for ``targets`` at every call site; undo on exit."""
    patched: List[tuple] = []
    try:
        for target in targets:
            original = getattr(target.owner, target.attr)
            wrapper = tracer.wrap(target.name, original, target.new_request)
            owners = [target.owner]
            if not isinstance(target.owner, type):
                owners += [
                    module
                    for name, module in list(sys.modules.items())
                    if name.startswith("repro") and module is not target.owner
                    and getattr(module, target.attr, None) is original
                ]
            for owner in owners:
                patched.append((owner, target.attr, original))
                setattr(owner, target.attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Arithmetic over spans
# ----------------------------------------------------------------------
def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per span: its duration minus the durations of its direct children.

    Spans on one thread nest, so the children of a span cover disjoint
    parts of its interval.
    """

    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            covered[span[PARENT]] += span[END] - span[START]
    return [span[END] - span[START] - covered[i] for i, span in enumerate(spans)]


@dataclass
class NameSummary:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)


def summarize(spans: Sequence[Sequence]) -> Dict[str, NameSummary]:
    """Calls, inclusive time, self time and durations per span name.

    A name with no spans reads as an empty summary (zero calls).
    """
    out: Dict[str, NameSummary] = collections.defaultdict(NameSummary)
    for span, own in zip(spans, self_times(spans)):
        entry = out[span[NAME]]
        duration = span[END] - span[START]
        entry.calls += 1
        entry.total_s += duration
        entry.self_s += own
        entry.durations.append(duration)
    return out


def layer_split(
    spans: Sequence[Sequence], wall_s: float, glue: Collection[str] = ()
) -> Dict[str, float]:
    """Self seconds per layer (the span-name prefix) plus ``unattributed``.

    For spans of one thread the values sum to ``wall_s``: every instant of
    the traced phase is in the self time of exactly one innermost span, or
    in no span at all.  Spans named in ``glue`` only mark structure (a
    request, a batch): their self time is code no layer span covers, so it
    counts as unattributed rather than to their layer.
    """

    split: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        if span[NAME] not in glue:
            layer = span[NAME].split(".", 1)[0]
            split[layer] = split.get(layer, 0.0) + own
    split["unattributed"] = wall_s - sum(split.values())
    return split


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation; 0 when empty."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
