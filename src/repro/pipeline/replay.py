"""Run the timing model against recorded value predictions.

The pipeline sees a value-prediction organisation only through the
per-µ-op ``(value, confident)`` pairs its ``fetch_group`` returns; the
walk is otherwise deterministic.  So a run can be split in two:

* :class:`RecordingVPAdapter` wraps a live adapter and records, for every
  ``fetch_group`` call, what the pipeline was handed;
* :class:`ReplayVPAdapter` hands the same predictions back in the same
  order and does nothing else.

A replayed run produces the live run's :class:`SimStats` exactly, and its
time is the walk's own; the difference to the live run's time is what the
value-prediction layers (predictor, BeBoP engine, adapter) cost.  The
replay keeps the live adapter's ``fold_geometry`` so the folded-history
work stays the same.
"""

from __future__ import annotations

from repro.pipeline.vp import GroupHandle, PredUse

#: One fetch group's recorded predictions: per µ-op, None or
#: ``(value, confident)``.
Recorded = list[tuple[int, bool] | None]


class RecordingVPAdapter:
    """A live adapter that also records what each ``fetch_group`` returned."""

    def __init__(self, live) -> None:
        self.live = live
        self.group_hooks = getattr(live, "group_hooks", True)
        self.groups: list[Recorded] = []

    def __getattr__(self, name: str):
        return getattr(self.live, name)

    def fetch_group(self, uops, cycle, hist, reuse=None) -> GroupHandle:
        handle = self.live.fetch_group(uops, cycle, hist, reuse)
        self.groups.append([
            None if p is None else (p.value, p.confident) for p in handle.preds
        ])
        return handle


class ReplayVPAdapter:
    """Hands back recorded predictions, one fetch group per call."""

    group_hooks = False

    def __init__(self, groups: list[Recorded], fold_geometry) -> None:
        self._geometry = fold_geometry
        # Built up front, so a replayed run times the walk alone.
        self._handles = iter([
            GroupHandle(
                [None if p is None else PredUse(p[0], p[1]) for p in preds],
                None,
            )
            for preds in groups
        ])

    def fold_geometry(self):
        return self._geometry

    def fetch_group(self, uops, cycle, hist, reuse=None) -> GroupHandle:
        return next(self._handles)

    def commit_uop(self, handle, pos, uop, cycle) -> None:
        return None

    def vp_squash(self, handle, flush_seq, next_block_pc, cycle) -> None:
        return None

    def branch_squash(self, flush_seq, cycle) -> None:
        return None
