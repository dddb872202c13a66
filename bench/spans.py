"""In-memory span recorder, call-site patching, self times and ratios.

A span is one call into a layer: name, start, end, parent span and run id.
Spans stay in memory while the workload runs and are written out once it
has finished. Nothing here knows about actknow; `layers.py` decides which
functions are wrapped and what each wrapper counts.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    run_id: str = ""
    info: Any = None  # what the wrapper's `before` hook returned

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    run_id: str = "run"
    spans: list[Span] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    samples: dict[str, list] = field(default_factory=lambda: defaultdict(list))
    _open: list[int] = field(default_factory=list)
    _patches: list[tuple[object, str, object]] = field(default_factory=list)

    def current(self) -> Span | None:
        """The innermost span still open, if any."""
        return self.spans[self._open[-1]] if self._open else None

    def open(self, name: str, info: Any = None) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, run_id=self.run_id, info=info))
        index = len(self.spans) - 1
        self._open.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index].name} closed out of order")

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        before: Callable[..., Any] | None = None,
        after: Callable[..., None] | None = None,
    ) -> None:
        """Replace `owner.attr` by a wrapper that records a span per call.

        `before(*args, **kwargs)` runs outside the span and its return value
        is kept as the span's `info`; `after(span, result, *args, **kwargs)`
        runs once the span is closed, for calls that return.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            info = before(*args, **kwargs) if before else None
            index = tracer.open(name, info)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(index)
            if after:
                after(tracer.spans[index], result, *args, **kwargs)
            return result

        self._patches.append((owner, attr, original))
        setattr(owner, attr, traced)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "run": s.run_id}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the durations of its child spans. Spans
    come from nested calls in one thread, so children never overlap each
    other or outlast their parent."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def by_name(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: call count, summed duration `s` and summed `self_s`."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for s, own in zip(spans, selfs):
        agg = out[s.name]
        agg["calls"] += 1
        agg["s"] += s.duration
        agg["self_s"] += own
    return out


def ratio(part: float, whole: float) -> float:
    """part / whole, and 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0


def distinct_ratio(keys: list) -> float:
    """Share of calls that were not repeats of an earlier call's arguments:
    1.0 means no call repeated work, 1/3 means every call ran three times."""
    return ratio(len(set(keys)), len(keys))


def mean_per_interval(marks: list[int]) -> float:
    """Mean number of calls per interval that holds any, where `marks[i]`
    is how many interval boundaries (say optimizer steps) had passed when
    call i was made."""
    return ratio(len(marks), len(set(marks)))


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in 0..100); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])
