"""Span recorder for the traced benchmark run.

A span is one call into a binfactor layer, made from the benchmark's own
code: it has a name, a start and an end (``time.perf_counter`` seconds), the
id of the span that was open around it, and the run id.  Spans stay in
memory until ``dump`` writes them out at the end of the run.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Collects spans; a disabled tracer records nothing and costs one call."""

    def __init__(self, run_id: str, enabled: bool = True):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the enclosed block; the yielded dict takes counters for it."""
        counters: dict = {}
        if not self.enabled:
            yield counters
            return
        span_id = len(self.spans)
        record = {
            "id": span_id,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
            "start": time.perf_counter(),
            "end": None,
            "counters": counters,
        }
        self.spans.append(record)
        self._stack.append(span_id)
        try:
            yield counters
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def total(self, name: str) -> float:
        """Summed wall time of every span with this name."""
        return sum(self.durations(name))

    def median(self, name: str) -> float:
        return statistics.median(self.durations(name))

    def counter_values(self, name: str, key: str) -> list:
        """Every value of one counter recorded on spans with this name."""
        return [s["counters"][key] for s in self.spans
                if s["name"] == name and key in s["counters"]]

    def dump(self, path: Path, extra: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = dict(extra, run_id=self.run_id, spans=self.spans)
        path.write_text(json.dumps(doc, indent=1, default=float) + "\n")
