"""In-memory span recorder installed around the library's public calls.

The traced run replaces module attributes (for example
``exitmoment.conic.solve``) with wrappers that record one span per call,
and restores the originals afterwards.  Functions the library calls by a
module-global name are wrapped at that name, so a wrapper on
``exitmoment.momentproblem.emit_all_rows`` nests under the
``build_moment_problem`` span that calls it.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index into the recorder's span list
    job: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans; ``job`` labels every span opened while it is set."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job = ""
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), float("nan"), parent, self.job)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    def as_json(self) -> list:
        return [asdict(s) for s in self.spans]


@contextmanager
def installed(recorder: Recorder, targets):
    """Wrap ``owner.attr`` for each ``(owner, attr, span_name)`` while active.

    ``owner`` is a module or a class; static methods stay static.
    """
    saved = []
    try:
        for owner, attr, name in targets:
            raw = vars(owner)[attr]
            if isinstance(raw, staticmethod):
                new = staticmethod(recorder.wrap(name, raw.__func__))
            else:
                new = recorder.wrap(name, raw)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield recorder
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


def covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list:
    """Per span: its duration minus the part its direct children cover."""
    children: dict = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(
                (max(s.start, spans[s.parent].start),
                 min(s.end, spans[s.parent].end)))
    return [s.duration - covered(children.get(i, ())) for i, s in enumerate(spans)]


def totals_by_name(spans: list) -> dict:
    """name -> (total duration, total self time, call count)."""
    out: dict = {}
    for s, own in zip(spans, self_times(spans)):
        dur, self_t, calls = out.get(s.name, (0.0, 0.0, 0))
        out[s.name] = (dur + s.duration, self_t + own, calls + 1)
    return out


def top_level_time(spans: list) -> float:
    """Time covered by spans that have no parent."""
    return covered((s.start, s.end) for s in spans if s.parent is None)
