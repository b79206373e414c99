"""In-memory spans recorded by the benchmark around calls into the system.

Each span has a name, start, end, parent and the trace id of the op it
belongs to.  Spans stay in memory while the benchmark runs and are written
out as JSON lines when it ends.  The recorder is single-threaded: the
traced passes run their ops one after another.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional

from .measure import self_time


@dataclass
class Span:
    span_id: int
    parent: Optional[int]
    trace_id: str
    name: str
    start: float
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._trace_id = ""

    @contextmanager
    def op(self, trace_id: str) -> Iterator[Span]:
        """The root span of one op; spans opened inside join its trace."""
        self._trace_id = trace_id
        with self.span("op") as root:
            yield root

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1].span_id if self._stack else None
        record = Span(len(self.spans), parent, self._trace_id, name,
                      time.perf_counter())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def record(self, name: str, trace_id: str, start: float,
               end: float) -> None:
        """A root span timed elsewhere (the client round trips of a
        multi-threaded pass)."""
        self.spans.append(Span(len(self.spans), None, trace_id, name, start,
                               end))

    def roots(self) -> List[Span]:
        """The op spans."""
        return [span for span in self.spans if span.name == "op"]

    def op_seconds(self) -> float:
        return sum(span.duration for span in self.roots())

    def children(self) -> Dict[int, List[Span]]:
        by_parent: Dict[int, List[Span]] = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                by_parent[span.parent].append(span)
        return by_parent

    def self_times(self) -> Dict[int, float]:
        """Span id -> duration minus the union of its children."""
        by_parent = self.children()
        return {span.span_id: self_time(
                    span.start, span.end,
                    [(child.start, child.end)
                     for child in by_parent.get(span.span_id, ())])
                for span in self.spans}

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total duration and total self time."""
        selfs = self.self_times()
        totals: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
        for span in self.spans:
            entry = totals[span.name]
            entry["count"] += 1
            entry["total_s"] += span.duration
            entry["self_s"] += selfs[span.span_id]
        return dict(totals)

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
