"""Per-µop pipeline timeline tracing with prediction provenance.

A :class:`TimelineRecorder` rides along one :class:`~repro.pipeline.core.
PipelineModel` run (its ``recorder`` probe) and captures, for every
processed µ-op, the cycle of each pipeline event — ``fetch``, ``decode``
(block arrival / BeBoP attribution), ``dispatch``, ``issue``, ``execute``
completion and ``commit`` — plus, for value-predicted µ-ops, a
:class:`Provenance` record describing *where the prediction came from*:

* which D-VTAGE component provided the stride (VT0 base vs. tagged
  component index),
* the provider's confidence level at predict time,
* whether the last value was read from the speculative window (and from
  which in-flight instance), from the LVT, or was cold,
* the BeBoP byte-tag attribution outcome (match vs. miss), and
* the final commit verdict (correct / squash, with the recovery policy
  that was armed).

Like the :class:`~repro.obs.cpi.CPIStackCollector`, the recorder is
passive: it only copies cycles the timing model already computed, so a
traced run's :class:`~repro.pipeline.stats.SimStats` are bit-identical to
an untraced run's, and a run without one costs one ``is None`` check per
instrumentation site.

The export is Chrome ``trace_event`` JSON
(:meth:`TimelineRecorder.export_chrome`), loadable in ``chrome://tracing``
or https://ui.perfetto.dev: one track per pipeline stage, cycle numbers as
microsecond timestamps, squashes as instant events, provenance attached to
the commit-stage slice.

This module is dependency-free like the rest of :mod:`repro.obs`: the
pipeline and the BeBoP engine import it, never the other way around.
"""

from __future__ import annotations

import json
import math
from collections import deque
from dataclasses import dataclass

#: Pipeline stages in track order (Chrome trace thread ids follow it).
TIMELINE_STAGES = ("fetch", "decode", "dispatch", "issue", "execute", "commit")


def provider_label(provider: int) -> str:
    """Human name of a D-VTAGE provider id (0 = VT0 base, i+1 = tagged i)."""
    return "vt0" if provider <= 0 else f"t{provider - 1}"


@dataclass(slots=True)
class Provenance:
    """Where one µ-op's value prediction came from, and how it ended.

    ``verdict`` values: ``correct`` / ``squash`` (used predictions),
    ``correct_unused`` / ``incorrect_unused`` (prediction existed but the
    FPC gate withheld it), ``no_prediction`` (BeBoP byte-tag attribution
    miss: the µ-op matched no prediction slot), ``unknown`` (the µ-op
    produced no comparable value).
    """

    provider: int = 0            # 0 = VT0/LVT base, i+1 = tagged component i
    conf: int = 0                # provider confidence level at predict time
    source: str = "lvt"          # spec_window | lvt | cold | reuse | inst
    spec_seq: int | None = None  # providing window instance (spec_window only)
    tag_match: bool = True       # BeBoP byte-tag attribution outcome
    slot: int = -1               # prediction slot inside the block entry
    value: int | None = None     # the predicted value
    confident: bool = False      # FPC allowed the pipeline to use it
    policy: str = ""             # recovery policy armed for this block
    used: bool = False           # actually written to the PRF (set at commit)
    verdict: str = "unresolved"

    def provider_name(self) -> str:
        return provider_label(self.provider)

    def as_dict(self) -> dict:
        """JSON-ready form (used by the Chrome trace ``args``)."""
        return {
            "provider": self.provider_name(),
            "conf": self.conf,
            "source": self.source,
            "spec_seq": self.spec_seq,
            "tag_match": self.tag_match,
            "slot": self.slot,
            "value": self.value,
            "confident": self.confident,
            "policy": self.policy,
            "used": self.used,
            "verdict": self.verdict,
        }


@dataclass(slots=True)
class UopTimeline:
    """One µ-op's pipeline event cycles (one re-fetched instance each)."""

    seq: int
    pc: int
    block_pc: int
    fetch: int
    decode: int
    dispatch: int
    issue: int
    complete: int
    commit: int
    prov: Provenance | None = None


@dataclass(slots=True)
class SquashEvent:
    """A commit-time value-misprediction squash.

    ``cost`` is the commit-time recovery latency: cycles between the
    mispredicting µ-op's result completing (when the misprediction became
    detectable) and the refetch barrier it raised (``commit + 1``) — the
    price the paper's low-complexity recovery pays over an execute-time
    repair, and what the recovery policies trade against predictor state
    consistency.
    """

    seq: int
    pc: int
    cycle: int
    cost: int
    policy: str = ""


def _p2_bucket(value: int | float) -> int:
    return 0 if value <= 1 else max(0, math.ceil(math.log2(value)))


class TimelineRecorder:
    """Per-µop pipeline timeline + provenance collector.

    ``capacity`` bounds the µ-op ring (newest kept, oldest evicted first,
    evictions counted in :attr:`dropped`); ``None`` records everything —
    at ~10 small objects per µ-op a few hundred thousand µ-ops are fine.
    Warmup µ-ops are recorded too: provenance counts then sum exactly to
    the predictor totals the metrics registry reports for the same run.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None, got {capacity}")
        self.capacity = capacity
        self._uops: deque[UopTimeline] = deque(maxlen=capacity)
        self.recorded = 0
        self.squashes: list[SquashEvent] = []
        self.instants: list[dict] = []

    # -- recording (called by the pipeline) --------------------------------

    def record_uop(
        self,
        seq: int,
        pc: int,
        block_pc: int,
        fetch: int,
        decode: int,
        dispatch: int,
        issue: int,
        complete: int,
        commit: int,
        prov: Provenance | None = None,
    ) -> None:
        self._uops.append(UopTimeline(
            seq, pc, block_pc, fetch, decode, dispatch, issue, complete,
            commit, prov,
        ))
        self.recorded += 1

    def squash(
        self, seq: int, pc: int, cycle: int, cost: int, policy: str = ""
    ) -> None:
        self.squashes.append(SquashEvent(seq, pc, cycle, cost, policy))

    def instant(self, name: str, cycle: int, **args) -> None:
        """A generic point event (branch redirects, markers)."""
        self.instants.append({"name": name, "cycle": cycle, "args": args})

    # -- reading -----------------------------------------------------------

    @property
    def dropped(self) -> int:
        """µ-op records lost to the capacity bound (oldest evicted first)."""
        return self.recorded - len(self._uops)

    def uops(self) -> list[UopTimeline]:
        """Recorded µ-op timelines, oldest first."""
        return list(self._uops)

    # -- analytics ---------------------------------------------------------

    def provenance_summary(self) -> dict:
        """Roll per-µop provenance into per-component analytics.

        Returns ``components`` (``{provider: {predictions, used, correct,
        share, accuracy}}`` over attributed predictions), ``window`` (how
        many predictions anchored on a speculative-window hit vs. the LVT
        vs. a cold entry vs. a reused prediction block), ``attribution``
        (byte-tag match requests/misses) and the attributed-prediction
        total.  Counts cover everything recorded, warmup included, so they
        sum to the run's ``bebop/provider/*/predictions`` metrics.
        """
        components: dict[str, dict] = {}
        window: dict[str, int] = {}
        attribution = {"requests": 0, "misses": 0}
        total = 0
        for u in self._uops:
            p = u.prov
            if p is None:
                continue
            attribution["requests"] += 1
            if not p.tag_match:
                attribution["misses"] += 1
                continue
            total += 1
            window[p.source] = window.get(p.source, 0) + 1
            c = components.setdefault(
                p.provider_name(), {"predictions": 0, "used": 0, "correct": 0}
            )
            c["predictions"] += 1
            if p.used:
                c["used"] += 1
                if p.verdict == "correct":
                    c["correct"] += 1
        for c in components.values():
            c["share"] = c["predictions"] / total if total else 0.0
            c["accuracy"] = c["correct"] / c["used"] if c["used"] else 0.0
        return {
            "components": components,
            "window": window,
            "attribution": attribution,
            "predictions": total,
        }

    def squash_cost_summary(self) -> dict:
        """Squash-cost distribution: count / mean / min / max plus
        power-of-two buckets (``le_2^b`` counts costs ``<= 2**b``)."""
        costs = [s.cost for s in self.squashes]
        if not costs:
            return {"count": 0, "mean": 0.0, "min": 0, "max": 0,
                    "histogram": {}}
        histogram: dict[str, int] = {}
        for cost in costs:
            key = f"le_2^{_p2_bucket(cost)}"
            histogram[key] = histogram.get(key, 0) + 1
        return {
            "count": len(costs),
            "mean": sum(costs) / len(costs),
            "min": min(costs),
            "max": max(costs),
            "histogram": dict(sorted(histogram.items())),
        }

    # -- Chrome trace_event export -----------------------------------------

    def to_chrome_trace(self) -> dict:
        """The timeline as a Chrome ``trace_event`` JSON object.

        One metadata-named track (thread) per pipeline stage; each µ-op
        contributes one complete (``ph: "X"``) slice per stage, with cycle
        numbers as microsecond timestamps so Perfetto's zoom is 1 cycle =
        1 µs.  Value-misprediction squashes and branch redirects are
        process-scoped instant (``ph: "i"``) events; provenance rides on
        the commit-stage slice's ``args``.
        """
        pid = 1
        events: list[dict] = [{
            "ph": "M", "pid": pid, "tid": 0, "ts": 0,
            "name": "process_name", "args": {"name": "pipeline"},
        }]
        for tid, stage in enumerate(TIMELINE_STAGES, start=1):
            events.append({
                "ph": "M", "pid": pid, "tid": tid, "ts": 0,
                "name": "thread_name", "args": {"name": stage},
            })
            events.append({
                "ph": "M", "pid": pid, "tid": tid, "ts": 0,
                "name": "thread_sort_index", "args": {"sort_index": tid},
            })
        for u in self._uops:
            name = f"{u.pc:#x}#{u.seq}"
            bounds = (
                (u.fetch, u.decode),        # fetch
                (u.decode, u.dispatch),     # decode / attribution
                (u.dispatch, u.issue),      # dispatch / backend wait
                (u.issue, u.issue),         # issue slot (point)
                (u.issue, u.complete),      # execute
                (u.complete, u.commit),     # commit wait + commit
            )
            for tid, (start, end) in enumerate(bounds, start=1):
                event = {
                    "ph": "X", "pid": pid, "tid": tid,
                    "ts": start, "dur": max(0, end - start),
                    "name": name, "args": {"seq": u.seq, "pc": u.pc},
                }
                if tid == len(TIMELINE_STAGES) and u.prov is not None:
                    event["args"]["provenance"] = u.prov.as_dict()
                events.append(event)
        squash_tid = len(TIMELINE_STAGES)
        for s in self.squashes:
            events.append({
                "ph": "i", "pid": pid, "tid": squash_tid, "ts": s.cycle,
                "s": "p", "name": "vp_squash",
                "args": {"seq": s.seq, "pc": s.pc, "cost": s.cost,
                         "policy": s.policy},
            })
        for inst in self.instants:
            events.append({
                "ph": "i", "pid": pid, "tid": 1, "ts": inst["cycle"],
                "s": "p", "name": inst["name"], "args": inst["args"],
            })
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {
                "unit": "cycles",
                "uops": len(self._uops),
                "dropped_uops": self.dropped,
                "squashes": len(self.squashes),
            },
        }

    def _warn_dropped(self) -> None:
        """Surface truncation at export time: bump the
        ``obs/timeline/dropped`` counter (by the drop count — re-exports
        re-count) and print one stderr line, so a capacity-bounded
        timeline is never silently misread as complete."""
        if not self.dropped:
            return
        import sys

        import repro.obs as obs  # call-time import: obs imports this module

        obs.counter("obs/timeline/dropped").inc(self.dropped)
        print(
            f"timeline export: {self.dropped} of {self.recorded} µ-op "
            f"record(s) dropped by the capacity bound "
            f"(capacity={self.capacity}); the export is truncated",
            file=sys.stderr,
        )

    def export_chrome(self, path) -> int:
        """Write the Chrome trace JSON to ``path``; returns event count."""
        self._warn_dropped()
        trace = self.to_chrome_trace()
        with open(path, "w") as f:
            json.dump(trace, f)
        return len(trace["traceEvents"])
