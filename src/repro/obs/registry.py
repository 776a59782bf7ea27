"""Hierarchical metrics registry with a zero-overhead disabled path.

Metrics are named with ``/``-separated namespaces (``exec/cache/hits``,
``bebop/spec_window/occupancy``) and come in three kinds:

* :class:`Counter` — monotonically accumulated totals (``inc``);
* :class:`Gauge` — last-write-wins level samples (``set``, plus ``track``
  to keep min/max of everything ever set);
* :class:`Histogram` — count/sum/min/max plus power-of-two bucket counts,
  enough to read tail behaviour without storing samples.

The registry deliberately has **no** locking and **no** background thread:
simulation is single-threaded per process, and cross-process aggregation
happens by merging :meth:`MetricsRegistry.snapshot` dictionaries (see
:meth:`MetricsRegistry.merge`), which is how :mod:`repro.exec` folds
worker-process metrics back into the parent.

Disabled path
-------------
A disabled registry hands out shared null metric singletons whose mutators
are no-ops and allocates nothing, so instrumented code can call
``registry.counter(name).inc()`` unconditionally; hot loops should instead
hoist the metric object (or check :attr:`MetricsRegistry.enabled`) once.
"""

from __future__ import annotations

import math
import re
from typing import Iterator


class Counter:
    """A monotonically increasing total."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount

    def snapshot(self) -> dict[str, float]:
        return {self.name: self.value}


class Gauge:
    """A level: last value written wins."""

    __slots__ = ("name", "value")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: int | float) -> None:
        self.value = value

    def snapshot(self) -> dict[str, float]:
        return {self.name: self.value}


class Histogram:
    """Count / sum / min / max plus power-of-two buckets.

    Bucket ``i`` counts observations ``v`` with ``2**(i-1) < v <= 2**i``
    (bucket 0 counts ``v <= 1``), which is plenty to read occupancy and
    latency tails without keeping samples.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, value: int | float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        b = 0 if value <= 1 else max(0, math.ceil(math.log2(value)))
        self.buckets[b] = self.buckets.get(b, 0) + 1

    def snapshot(self) -> dict[str, float]:
        if not self.count:
            return {f"{self.name}/count": 0}
        out = {
            f"{self.name}/count": self.count,
            f"{self.name}/sum": self.total,
            f"{self.name}/min": self.min,
            f"{self.name}/max": self.max,
        }
        for b in sorted(self.buckets):
            out[f"{self.name}/bucket/le_2^{b}"] = self.buckets[b]
        return out


class _NullMetric:
    """Shared no-op stand-in handed out by a disabled registry."""

    __slots__ = ()

    kind = "null"
    name = ""
    value = 0
    count = 0
    total = 0.0

    def inc(self, amount: int | float = 1) -> None:
        pass

    def set(self, value: int | float) -> None:
        pass

    def observe(self, value: int | float) -> None:
        pass

    def snapshot(self) -> dict[str, float]:
        return {}


NULL_METRIC = _NullMetric()

#: Suffixes a histogram snapshot expands into; merge needs to treat
#: ``*/min`` and ``*/max`` with min/max semantics instead of summation.
_MIN_SUFFIX = "/min"
_MAX_SUFFIX = "/max"

#: Histogram bucket keys in a snapshot look like ``name/bucket/le_2^7``.
#: Merge validates the boundary spelling: this registry only ever emits
#: power-of-two boundaries, so any other boundary in an incoming snapshot
#: comes from an incompatible bucketing scheme and summing it into ours
#: would silently mis-merge.
_BUCKET_MARK = "/bucket/"
_BUCKET_RE = re.compile(r"le_2\^\d+\Z")

#: Characters Prometheus forbids in metric names (text exposition format
#: v0.0.4 allows ``[a-zA-Z_:][a-zA-Z0-9_:]*``).
_PROM_BAD = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str, prefix: str = "repro_") -> str:
    """Registry name → valid Prometheus metric name (``/`` and ``^``
    become ``_``; the prefix keeps the first character legal)."""
    return prefix + _PROM_BAD.sub("_", name)


def _prom_value(value: int | float) -> str:
    """Prometheus sample-value spelling (Go ParseFloat syntax)."""
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if value != value:  # NaN
        return "NaN"
    f = float(value)
    if f.is_integer() and abs(f) < 2**63:
        return str(int(f))
    return repr(f)


class MetricsRegistry:
    """Flat name → metric store with hierarchical (``/``) names."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        # Extremum keys (histogram */min, */max) already merged at least
        # once — the first merge must overwrite the 0.0 a fresh Gauge holds.
        self._seen_extrema: set[str] = set()

    # -- creation ----------------------------------------------------------

    def _get(self, name: str, cls):
        metric = self._metrics.get(name)
        if metric is None:
            metric = self._metrics[name] = cls(name)
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter) if self.enabled else NULL_METRIC

    def gauge(self, name: str) -> Gauge:
        return self._get(name, Gauge) if self.enabled else NULL_METRIC

    def histogram(self, name: str) -> Histogram:
        return self._get(name, Histogram) if self.enabled else NULL_METRIC

    # -- introspection -----------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._metrics))

    def value(self, name: str, default: float = 0.0) -> float:
        """Scalar value of a counter/gauge (``default`` if absent)."""
        metric = self._metrics.get(name)
        return default if metric is None else metric.value

    def snapshot(self) -> dict[str, float]:
        """Flat ``{name: value}`` view (histograms expand to sub-keys),
        sorted by name so two equal registries snapshot identically."""
        out: dict[str, float] = {}
        for name in sorted(self._metrics):
            out.update(self._metrics[name].snapshot())
        return out

    def tree(self) -> dict:
        """Nested-dict view of :meth:`snapshot`, splitting on ``/``."""
        root: dict = {}
        for name, value in self.snapshot().items():
            node = root
            *parts, leaf = name.split("/")
            for part in parts:
                node = node.setdefault(part, {})
            node[leaf] = value
        return root

    def to_prometheus(self, prefix: str = "repro_",
                      exclude: frozenset[str] | set[str] = frozenset()
                      ) -> str:
        """Prometheus text exposition (format v0.0.4) of every metric.

        Counters and gauges emit one sample each; histograms emit
        cumulative ``_bucket{le="..."}`` samples (upper bounds are this
        registry's power-of-two boundaries) plus ``_sum``/``_count`` and
        min/max companion gauges.  ``exclude`` skips raw registry names
        (the serve endpoint uses it to avoid double-exposing counters it
        reports authoritatively).  If two raw names sanitize to the same
        Prometheus name, the first (in sorted raw-name order) wins — a
        duplicate family would make the exposition invalid.
        """
        lines: list[str] = []
        emitted: set[str] = set()

        def family(pname: str, kind: str) -> bool:
            if pname in emitted:
                return False
            emitted.add(pname)
            lines.append(f"# HELP {pname} repro metric {name!r}")
            lines.append(f"# TYPE {pname} {kind}")
            return True

        for name in sorted(self._metrics):
            if name in exclude:
                continue
            metric = self._metrics[name]
            pname = prometheus_name(name, prefix)
            if metric.kind in ("counter", "gauge"):
                if family(pname, metric.kind):
                    lines.append(f"{pname} {_prom_value(metric.value)}")
            else:  # histogram
                if not family(pname, "histogram"):
                    continue
                cumulative = 0
                for b in sorted(metric.buckets):
                    cumulative += metric.buckets[b]
                    bound = _prom_value(float(2 ** b))
                    lines.append(
                        f'{pname}_bucket{{le="{bound}"}} {cumulative}'
                    )
                lines.append(f'{pname}_bucket{{le="+Inf"}} {metric.count}')
                lines.append(f"{pname}_sum {_prom_value(metric.total)}")
                lines.append(f"{pname}_count {metric.count}")
                if metric.count:
                    for suffix, value in (("min", metric.min),
                                          ("max", metric.max)):
                        sub = f"{pname}_{suffix}"
                        if sub not in emitted:
                            emitted.add(sub)
                            lines.append(f"# HELP {sub} repro metric "
                                         f"{name!r} {suffix}")
                            lines.append(f"# TYPE {sub} gauge")
                            lines.append(f"{sub} {_prom_value(value)}")
        return "\n".join(lines) + "\n" if lines else ""

    # -- aggregation -------------------------------------------------------

    def merge(self, snapshot: dict[str, float]) -> None:
        """Fold a :meth:`snapshot` from another registry into this one.

        Counter-like values add; ``*/min`` / ``*/max`` histogram keys keep
        the extremum.  Merging is done on plain snapshot dicts (not metric
        objects) because that is what crosses the process boundary.  The
        result is order-independent for integer-valued metrics, which is
        what makes parallel sweeps' metrics deterministic.
        """
        if not self.enabled or not snapshot:
            return
        for name, value in snapshot.items():
            mark = name.rfind(_BUCKET_MARK)
            if mark >= 0 and not _BUCKET_RE.match(
                    name[mark + len(_BUCKET_MARK):]):
                raise ValueError(
                    f"histogram bucket boundary mismatch: {name!r} is not a "
                    f"power-of-two bucket key (expected .../bucket/le_2^N); "
                    f"refusing to mis-merge incompatible bucketing schemes"
                )
            if name.endswith(_MIN_SUFFIX) or name.endswith(_MAX_SUFFIX):
                g = self._get(name, Gauge)
                if name not in self._seen_extrema:
                    self._seen_extrema.add(name)
                    g.value = value
                elif name.endswith(_MIN_SUFFIX):
                    g.value = min(g.value, value)
                else:
                    g.value = max(g.value, value)
            else:
                self._get(name, Counter).inc(value)

    def reset(self) -> None:
        """Drop every metric (tests and per-run scoping)."""
        self._metrics.clear()
        self._seen_extrema.clear()
