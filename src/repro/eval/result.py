"""Typed experiment results.

Every entry point in :mod:`repro.eval.experiments` used to return a bare
dict; callers had no way to recover *how* the numbers were produced (which
:class:`~repro.eval.runner.RunSpec`, how long it took, how much came out
of the result cache).  :class:`ExperimentResult` carries that provenance
alongside the rows while remaining a drop-in replacement: it implements
the full read-only :class:`~collections.abc.Mapping` protocol over its
rows and compares equal to the plain dict it would have been, so seed-era
code like ``fig5a(spec)["mcf"]["d-vtage"]`` and tests asserting
``result == {...}`` keep working unchanged.

Equality deliberately ignores :attr:`meta` — two runs of the same
experiment at the same spec are *the same result* even though one was
served from cache in milliseconds and the other simulated for minutes.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Any, Iterator, Sequence


class ExperimentResult(Mapping):
    """Rows of one experiment plus the provenance that produced them.

    Parameters
    ----------
    experiment:
        The :data:`~repro.eval.experiments.KNOWN_EXPERIMENTS` id.
    rows:
        The legacy payload — exactly the dict the entry point used to
        return (workload- or config-keyed; values are floats, dicts or
        :class:`~repro.obs.CPIStack` objects depending on the experiment).
    columns:
        Inner-key presentation order for per-workload tables, or ``None``
        when the rows have no tabular inner structure.
    spec:
        The :class:`~repro.eval.runner.RunSpec` the sweep ran at
        (``None`` for pure-computation experiments like ``table3``).
    meta:
        Execution metadata: ``elapsed_seconds``, ``jobs``, and — when a
        result cache was attached — ``cache_hits`` / ``cache_misses``
        deltas for this sweep.  Excluded from equality.
    """

    __slots__ = ("experiment", "rows", "columns", "spec", "meta")

    def __init__(
        self,
        experiment: str,
        rows: Mapping,
        columns: Sequence[str] | None = None,
        spec: Any = None,
        meta: Mapping[str, Any] | None = None,
    ) -> None:
        self.experiment = experiment
        self.rows = dict(rows)
        self.columns = tuple(columns) if columns is not None else None
        self.spec = spec
        self.meta = dict(meta) if meta is not None else {}

    # -- Mapping protocol (delegates to rows) -----------------------------

    def __getitem__(self, key):
        return self.rows[key]

    def __iter__(self) -> Iterator:
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    # Mapping provides keys/values/items/get/__contains__/__eq__; equality
    # is overridden because Mapping's compares only the item view and we
    # additionally want same-experiment/columns for typed comparisons.

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ExperimentResult):
            return (
                self.experiment == other.experiment
                and self.columns == other.columns
                and self.rows == other.rows
            )
        if isinstance(other, Mapping):
            # Plain-dict comparison: the legacy contract.
            return self.rows == dict(other)
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]  # mutable rows

    def as_dict(self) -> dict:
        """The plain rows dict (a copy), shedding all provenance."""
        return dict(self.rows)
