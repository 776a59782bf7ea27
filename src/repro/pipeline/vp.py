"""Value-prediction adapters between the pipeline and the predictors.

The timing model is agnostic of predictor organisation: it talks to an
adapter object once per fetched block instance and once per committed µ-op.
Two adapters exist:

* :class:`InstructionVPAdapter` — one prediction per µ-op, indexed by
  PC ⊕ µ-op-index (the paper's baseline VP of §V-B, used in Fig 5a/5b);
* :class:`repro.bebop.engine.BeBoPEngine` — block-based prediction with the
  speculative window, FIFO update queue and recovery policies.

Both defer predictor *training* to the commit cycle of the producing µ-op:
the trace is walked µ-op by µ-op, so without deferral a predictor would see
updates from instructions that are architecturally younger than the fetch
being predicted.
"""

from __future__ import annotations

from collections import deque
from typing import Protocol

from repro.isa.instruction import DynMicroOp
from repro.obs.timeline import Provenance
from repro.predictors.base import HistoryState, Prediction, PredUse, ValuePredictor

__all__ = ["GroupHandle", "InstructionVPAdapter", "PredUse", "VPAdapter"]


class GroupHandle:
    """Prediction context of one fetched block instance."""

    __slots__ = ("preds", "hist", "ctx", "prov")

    def __init__(
        self,
        preds: list[PredUse | None],
        hist: HistoryState,
        ctx: object = None,
        prov: list[Provenance | None] | None = None,
    ) -> None:
        self.preds = preds        # parallel to the group's µ-ops
        self.hist = hist
        self.ctx = ctx            # adapter-private (e.g. the pending block)
        self.prov = prov          # timeline provenance, parallel to preds


class VPAdapter(Protocol):
    """What the pipeline requires of a value-prediction organisation.

    An adapter whose ``result_uop`` and ``finish_group`` do nothing may set
    a class attribute ``group_hooks = False``; the pipeline then skips
    those two calls (they stay callable for other users).
    """

    def fetch_group(
        self,
        uops: list[DynMicroOp],
        cycle: int,
        hist: HistoryState,
        reuse: GroupHandle | None = None,
    ) -> GroupHandle:
        """Predict for a fetched block instance.  ``reuse`` is the handle of
        the flushed instance when refetching the same block after a value
        misprediction (the Bnew == Bflush case of §IV-A)."""
        ...

    def fold_geometry(
        self,
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """(idx_pairs, tag_pairs) the underlying predictor indexes with."""
        ...

    def storage_backend(self) -> str:
        """Name of the :mod:`repro.common.tables` backend holding the
        predictor's table state (``python`` or ``numpy``)."""
        ...

    def result_uop(
        self, handle: GroupHandle, pos: int, uop: DynMicroOp, complete_cycle: int
    ) -> None:
        """A predicted VP-eligible µ-op's result finished computing
        (writeback); the pipeline does not call it for other µ-ops."""
        ...

    def commit_uop(
        self, handle: GroupHandle, pos: int, uop: DynMicroOp, cycle: int
    ) -> None:
        """A VP-eligible µ-op of the group committed (actual value is
        ``uop.value``); the pipeline does not call it for other µ-ops."""
        ...

    def finish_group(self, handle: GroupHandle, cycle: int) -> None:
        """All µ-ops of the instance committed: release/schedule training."""
        ...

    def vp_squash(
        self, handle: GroupHandle, flush_seq: int, next_block_pc: int | None,
        cycle: int
    ) -> None:
        """Commit-time squash triggered by a wrong used prediction."""
        ...

    def branch_squash(self, flush_seq: int, cycle: int) -> None:
        """Squash from a branch misprediction."""
        ...


class InstructionVPAdapter:
    """Instruction-based VP: the predictor of §V-B without BeBoP."""

    #: result_uop and finish_group are no-ops (see VPAdapter).
    group_hooks = False

    def __init__(self, predictor: ValuePredictor) -> None:
        self.predictor = predictor
        self._prov = False        # fill GroupHandle.prov for the recorder
        # (apply_cycle, pc, uop_index, hist, actual, prediction) in commit
        # order; applied lazily before later predictions.
        self._deferred: deque[
            tuple[int, int, int, HistoryState, int, Prediction | None]
        ] = deque()

    def set_provenance(self, enabled: bool) -> None:
        """Toggle provenance collection (called by the pipeline when a
        :class:`~repro.obs.timeline.TimelineRecorder` rides the run)."""
        self._prov = enabled

    def fold_geometry(
        self,
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        return self.predictor.fold_geometry()

    def storage_backend(self) -> str:
        return getattr(self.predictor, "table_backend", "python")

    def _apply_until(self, cycle: int) -> None:
        q = self._deferred
        train = self.predictor.train
        while q and q[0][0] <= cycle:
            _, pc, uop_index, hist, actual, prediction = q.popleft()
            train(pc, uop_index, hist, actual, prediction)

    def flush_training(self) -> None:
        """Apply all deferred updates (end of simulation)."""
        self._apply_until(1 << 62)

    def fetch_group(
        self,
        uops: list[DynMicroOp],
        cycle: int,
        hist: HistoryState,
        reuse: GroupHandle | None = None,
    ) -> GroupHandle:
        q = self._deferred
        if q and q[0][0] <= cycle:
            self._apply_until(cycle)
        predict = self.predictor.predict
        preds: list[Prediction | None] = [None] * len(uops)
        provs: list[Provenance | None] | None = (
            [None] * len(uops) if self._prov else None
        )
        for pos, uop in enumerate(uops):
            if uop.dest is None or uop.is_load_imm:  # not is_vp_eligible
                continue
            p = predict(uop.pc, uop.uop_index, hist)
            if p is None:
                continue
            preds[pos] = p
            if provs is not None:
                provs[pos] = Provenance(
                    provider=p.provider,
                    conf=p.conf,
                    source="inst",
                    value=p.value,
                    confident=p.confident,
                )
        return GroupHandle(preds, hist, None, provs)

    def result_uop(
        self, handle: GroupHandle, pos: int, uop: DynMicroOp, complete_cycle: int
    ) -> None:
        """Writeback corrections only matter for the block-based window;
        the instruction-based speculative history is instance-counted."""
        return None

    def commit_uop(
        self, handle: GroupHandle, pos: int, uop: DynMicroOp, cycle: int
    ) -> None:
        value = uop.value
        if value is None:
            return
        pred = handle.preds[pos]
        self._deferred.append((
            cycle + 1, uop.pc, uop.uop_index, handle.hist, value,
            # Only the predictor's own predictions train it (a caller may
            # have replaced the handle's PredUse).
            pred if isinstance(pred, Prediction) else None,
        ))

    def finish_group(self, handle: GroupHandle, cycle: int) -> None:
        return None

    def _surviving_counts(self) -> dict[tuple[int, int], int]:
        """Older-than-flush instances still awaiting training.

        Everything younger than the flush point never reached this adapter
        (trace processing is in program order), so the deferred-training
        queue is exactly the set of surviving in-flight instances.
        """
        counts: dict[tuple[int, int], int] = {}
        for _, pc, uop_index, _hist, _actual, _pred in self._deferred:
            key = (pc, uop_index)
            counts[key] = counts.get(key, 0) + 1
        return counts

    def vp_squash(
        self,
        handle: GroupHandle,
        flush_seq: int,
        next_block_pc: int | None,
        cycle: int,
    ) -> None:
        # Squashed speculative chains die; surviving in-flight instances
        # are restored from the checkpoint (paper §IV).
        self.predictor.squash(self._surviving_counts())

    def branch_squash(self, flush_seq: int, cycle: int) -> None:
        self.predictor.squash(self._surviving_counts())
