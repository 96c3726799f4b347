"""Spans and counters for the traced run.

A span records a name, a start, an end and the span that was open when it
began.  Spans are kept in memory and written out when the run ends.  A
layer's self time is the length of its spans minus the part covered by their
child spans.  With tracing off every call is a no-op, so the untraced run
that gives the end-to-end metrics pays nothing for it.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def span(self, name: str):
        return self._span(name) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield
        finally:
            record["end"] = perf_counter()
            self._open.pop()

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counts[name] += amount

    def enumeration(self, table) -> None:
        """Counters of one finished coset enumeration."""
        if not self.enabled:
            return
        self.counts["todd_coxeter.enumerate_calls"] += 1
        self.counts["todd_coxeter.cosets"] += table.num_cosets
        self.counts["todd_coxeter.definitions"] += table.stats.definitions
        self.counts["todd_coxeter.coincidences"] += table.stats.coincidences
        self.counts["todd_coxeter.lookaheads"] += table.stats.lookaheads

    def mark(self) -> tuple[int, Counter]:
        return len(self.spans), Counter(self.counts)

    def since(self, mark: tuple[int, Counter]) -> dict[str, float]:
        """Self seconds per span name, and the counter increments, since
        ``mark`` was taken."""
        first, counts_then = mark
        spans = self.spans[first:]
        child_time: dict[int, float] = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[s["name"] + "_s"] += s["end"] - s["start"] - child_time[s["id"]]
        for name, value in self.counts.items():
            out[name] = value - counts_then.get(name, 0)
        return dict(out)

    def write(self, path, header: dict) -> None:
        with open(path, "w") as fh:
            json.dump({**header, "spans": self.spans}, fh)
