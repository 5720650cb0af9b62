"""Spans recorded around calls into the program's layers.

A :class:`Tracer` keeps one record per span — name, start, end, the
span that enclosed it, and the workload it belongs to — in memory, and
writes them out as JSON lines when the traced run ends. Untraced runs
pass :data:`NO_TRACE`, whose spans cost one ``nullcontext``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.workload: str | None = None
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        """Record the enclosed block; yields the span's mutable record."""
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str, workload: str | None = None) -> float:
        """Total duration of the finished spans called ``name``."""
        return sum(
            s["end"] - s["start"]
            for s in self.spans
            if s["name"] == name
            and s["end"] is not None
            and (workload is None or s["workload"] == workload)
        )

    def self_seconds(self) -> dict[str, float]:
        """Duration minus the time covered by child spans, per name.

        Children of one parent run one after another here, so their
        durations add without overlap.
        """
        covered: dict[int, float] = {}
        for span in self.spans:
            if span["parent"] is not None and span["end"] is not None:
                covered[span["parent"]] = covered.get(span["parent"], 0.0) + (
                    span["end"] - span["start"]
                )
        totals: dict[str, float] = {}
        for span in self.spans:
            if span["end"] is None:
                continue
            own = span["end"] - span["start"] - covered.get(span["id"], 0.0)
            totals[span["name"]] = totals.get(span["name"], 0.0) + own
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True) + "\n")


class _NoTrace:
    """Stand-in for :class:`Tracer` in untraced runs."""

    workload = None

    def span(self, name: str, **attrs):
        return nullcontext({})


NO_TRACE = _NoTrace()
