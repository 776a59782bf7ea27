"""Observability: metrics registry, CPI stacks, event tracing.

The package is dependency-free (it imports nothing from the simulator) so
any layer — pipeline, BeBoP engine, executor, experiments — can publish
metrics without import cycles.  It exposes one process-wide *current*
:class:`MetricsRegistry` and :class:`TraceBuffer`, both **disabled by
default**: instrumented code calls :func:`counter` / :func:`span`
unconditionally and pays one attribute check when observability is off.

Typical use::

    import repro.obs as obs

    obs.enable()                       # turn the layer on
    ...run experiments...
    obs.registry().snapshot()          # {"exec/cache/hits": 42, ...}
    obs.trace().export_jsonl("obs.jsonl")
    obs.disable()

Worker processes get a *fresh* registry per job (:func:`scoped_registry`)
whose snapshot is merged back into the parent by :mod:`repro.exec`, so a
parallel sweep's counters equal the serial sweep's.

The per-run observers ride one simulation as one :class:`Probes` bundle.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.obs.attrib import ATTRIBUTED_CAUSES, PCAttribution, PCRecord
from repro.obs.banks import BankTelemetry
from repro.obs.cpi import CPI_COMPONENTS, CPIStack, CPIStackCollector
from repro.obs.probes import Probes
from repro.obs.registry import (
    NULL_METRIC,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_name,
)
from repro.obs.timeline import (
    TIMELINE_STAGES,
    Provenance,
    SquashEvent,
    TimelineRecorder,
    UopTimeline,
)
from repro.obs.trace import TraceBuffer

_registry = MetricsRegistry(enabled=False)
_trace = TraceBuffer(enabled=False)


def enabled() -> bool:
    """Whether the current registry records anything."""
    return _registry.enabled


def enable(trace_capacity: int = 4096) -> MetricsRegistry:
    """Swap in a fresh enabled registry + trace buffer; returns the
    registry.  Idempotent in spirit but always starts clean — enabling is
    the start of an observation window, not a toggle."""
    global _registry, _trace
    _registry = MetricsRegistry(enabled=True)
    _trace = TraceBuffer(capacity=trace_capacity, enabled=True)
    return _registry


def disable() -> None:
    """Back to the zero-overhead null layer."""
    global _registry, _trace
    _registry = MetricsRegistry(enabled=False)
    _trace = TraceBuffer(enabled=False)


def registry() -> MetricsRegistry:
    """The current process-wide registry."""
    return _registry


def trace() -> TraceBuffer:
    """The current process-wide trace buffer."""
    return _trace


# -- convenience pass-throughs (hot code should hoist these) ---------------

def counter(name: str):
    return _registry.counter(name)


def histogram(name: str):
    return _registry.histogram(name)


def span(name: str, **fields):
    return _trace.span(name, **fields)


@contextmanager
def scoped_registry(
    reg: MetricsRegistry | None = None,
) -> Iterator[MetricsRegistry]:
    """Temporarily install ``reg`` (default: a fresh enabled registry) as
    the current registry; restores the previous one on exit.

    This is the worker-process isolation primitive: each job records into
    its own registry, whose snapshot travels back over the pipe and is
    merged into the parent — pool workers are reused across jobs, so a
    plain global would double-count."""
    global _registry
    previous = _registry
    _registry = reg if reg is not None else MetricsRegistry(enabled=True)
    try:
        yield _registry
    finally:
        _registry = previous


__all__ = [
    "ATTRIBUTED_CAUSES",
    "BankTelemetry",
    "CPI_COMPONENTS",
    "CPIStack",
    "CPIStackCollector",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRIC",
    "PCAttribution",
    "PCRecord",
    "Probes",
    "Provenance",
    "SquashEvent",
    "TIMELINE_STAGES",
    "TimelineRecorder",
    "TraceBuffer",
    "UopTimeline",
    "counter",
    "disable",
    "enable",
    "enabled",
    "histogram",
    "prometheus_name",
    "registry",
    "scoped_registry",
    "span",
    "trace",
]
