"""Event-trace ring buffer with scoped spans and JSONL export.

A :class:`TraceBuffer` records structured events — plain dicts with a
monotonic timestamp, a ``kind`` tag and arbitrary JSON-able fields — into a
bounded ring: the newest ``capacity`` events win and everything older is
dropped (counted in :attr:`TraceBuffer.dropped`).  :meth:`TraceBuffer.span`
wraps a code region and emits one event carrying its wall-clock duration,
which is how :mod:`repro.exec` stamps batch and per-job timing.

Events are deliberately cheap (one dict append when enabled, one attribute
check when disabled) and are exported as JSON Lines — one event per line —
so reports and external tools can stream them without a schema.
"""

from __future__ import annotations

import json
import time
from collections import deque
from contextlib import contextmanager
from typing import Iterator


class TraceBuffer:
    """Bounded ring of structured events (newest ``capacity`` kept)."""

    def __init__(
        self,
        capacity: int = 4096,
        enabled: bool = True,
        clock=time.perf_counter,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self.clock = clock
        self._events: deque[dict] = deque(maxlen=capacity)
        self.emitted = 0

    # -- recording ---------------------------------------------------------

    def emit(self, kind: str, **fields) -> None:
        """Append one event; silently drops the oldest when full."""
        if not self.enabled:
            return
        event = {"ts": self.clock(), "kind": kind}
        event.update(fields)
        self._events.append(event)
        self.emitted += 1

    @contextmanager
    def span(self, name: str, **fields) -> Iterator[dict]:
        """Scope a region: emits one ``span`` event with its duration.

        The yielded dict can be mutated inside the ``with`` body to attach
        result fields (cache hits, retry counts, ...) to the span event.
        """
        if not self.enabled:
            yield {}
            return
        extra: dict = {}
        t0 = self.clock()
        try:
            yield extra
        finally:
            fields.update(extra)
            self.emit("span", name=name, seconds=self.clock() - t0, **fields)

    # -- reading -----------------------------------------------------------

    @property
    def dropped(self) -> int:
        """Events lost to the ring bound."""
        return self.emitted - len(self._events)

    def events(self, kind: str | None = None) -> list[dict]:
        """Buffered events oldest-first, optionally filtered by kind."""
        if kind is None:
            return list(self._events)
        return [e for e in self._events if e["kind"] == kind]

    # -- export ------------------------------------------------------------

    def export_jsonl(self, path, header: dict | None = None) -> int:
        """Write events (plus an optional leading header record) to ``path``
        as JSONL; returns the number of records written."""
        records = 0
        with open(path, "w") as f:
            if header is not None:
                f.write(json.dumps(header, sort_keys=True, default=str) + "\n")
                records += 1
            for event in self._events:
                f.write(json.dumps(event, sort_keys=True, default=str) + "\n")
                records += 1
        return records
