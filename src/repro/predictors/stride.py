"""Stride value predictors with speculative last-value tracking.

``StridePredictor`` is the baseline stride predictor (Eickemeyer &
Vassiliadis): predict ``last + stride`` where ``stride`` is the difference
between the two most recent committed results.  ``TwoDeltaStridePredictor``
(the comparison point of Fig 5a) only promotes a new stride into the
predicting slot after seeing it twice, filtering one-off jumps.

Stride predictors are *computational*: the prediction for instance ``n+1``
needs the value of instance ``n``, which may still be in flight.  At the
instruction granularity we model the idealistic speculative history the
paper assumes for these baselines with classic *instance counting*: each
entry tracks how many instances are in flight and predicts
``last + (k+1) * stride``; the counts are restored from a checkpoint on
pipeline squashes (DESIGN.md §5).  The realistic, block-based speculative
window is :mod:`repro.bebop.spec_window`.

Table state lives in a :mod:`repro.common.tables` bank; strides are stored
sign-extended (signed columns), last values pre-masked (unsigned column).
"""

from __future__ import annotations

from repro.common.bits import mask, to_signed, to_unsigned
from repro.common.tables import Field, TableBank
from repro.common.errors import ConfigError, require_positive, require_power_of_two
from repro.predictors.base import (
    HistoryState,
    Prediction,
    ValuePredictor,
    mix_pc,
    table_index,
)
from repro.predictors.confidence import FPCPolicy

TABLE_FIELDS = (
    Field("tag", default=-1),
    Field("valid"),              # last value observed at least once (0/1)
    Field("last", unsigned=True),
    Field("stride1"),            # most recently observed stride (signed)
    Field("stride2"),            # predicting stride (2-delta: promoted copy)
    Field("conf"),
    Field("inflight"),           # in-flight instances (speculative history)
)


class _BaseStride(ValuePredictor):
    """Shared machinery of the one- and two-delta stride predictors."""

    two_delta = False

    def __init__(
        self,
        entries: int = 8192,
        tag_bits: int = 5,
        stride_bits: int = 64,
        fpc: FPCPolicy | None = None,
    ) -> None:
        self.entries = entries
        self.tag_bits = tag_bits
        self.stride_bits = stride_bits
        violations: list[str] = []
        require_positive(violations, self, "entries", "tag_bits", "stride_bits")
        require_power_of_two(violations, self, "entries")
        if violations:
            raise ConfigError(type(self).__name__, violations)
        self.index_bits = entries.bit_length() - 1
        self.fpc = fpc if fpc is not None else FPCPolicy()
        self._table = TableBank(entries, TABLE_FIELDS)
        self._tag = self._table.col("tag")
        self._valid = self._table.col("valid")
        self._last = self._table.col("last")
        self._stride1 = self._table.col("stride1")
        self._stride2 = self._table.col("stride2")
        self._conf = self._table.col("conf")
        self._inflight = self._table.col("inflight")
        # Entries whose speculative state diverged from committed state;
        # reset on squash without walking the whole table.
        self._spec_dirty: set[int] = set()

    def _lookup(self, pc: int, uop_index: int) -> tuple[int, int]:
        key = mix_pc(pc, uop_index)
        index = table_index(key, self.index_bits)
        tag = (key >> self.index_bits) & mask(self.tag_bits)
        return index, tag

    def _truncate_stride(self, stride: int) -> int:
        """Store a (possibly partial) stride: keep the low bits, signed."""
        return to_signed(stride, self.stride_bits)

    def _predicting_stride(self, index: int) -> int:
        col = self._stride2 if self.two_delta else self._stride1
        return col[index]

    def predict(
        self, pc: int, uop_index: int, hist: HistoryState
    ) -> Prediction | None:
        index, tag = self._lookup(pc, uop_index)
        if self._tag[index] != tag:
            # Claim the entry at fetch so every in-flight instance is
            # counted from the very first one; the last value arrives with
            # the first commit.
            self._tag[index] = tag
            self._valid[index] = 0
            self._stride1[index] = 0
            self._stride2[index] = 0
            self._conf[index] = 0
            self._inflight[index] = 1
            self._spec_dirty.add(index)
            return None
        self._inflight[index] += 1
        self._spec_dirty.add(index)
        if not self._valid[index]:
            return None
        # Idealistic speculative history at the instruction granularity (the
        # paper's baseline assumption for non-BeBoP predictors): with k older
        # instances in flight, this instance is last + (k+1)*stride.  This is
        # the classic instance-counting formulation; the realistic
        # alternative (chaining stored predicted values) is what the BeBoP
        # speculative window models.
        stride = self._predicting_stride(index)
        value = to_unsigned(
            self._last[index] + stride * self._inflight[index], 64
        )
        return Prediction(value, self.fpc.is_confident(self._conf[index]))

    def train(
        self,
        pc: int,
        uop_index: int,
        hist: HistoryState,
        actual: int,
        prediction: Prediction | None,
    ) -> None:
        index, tag = self._lookup(pc, uop_index)
        if self._tag[index] != tag:
            # The entry was re-claimed by another instruction at fetch;
            # this stale update must not corrupt it.
            return
        if self._inflight[index] > 0:
            self._inflight[index] -= 1
        if not self._valid[index]:
            self._valid[index] = 1
            self._last[index] = actual
            if self._inflight[index] == 0:
                self._spec_dirty.discard(index)
            return
        observed = self._truncate_stride(actual - self._last[index])
        if self.two_delta:
            if observed == self._stride1[index]:
                self._stride2[index] = observed
            self._stride1[index] = observed
        else:
            self._stride1[index] = observed
        correct = prediction is not None and prediction.value == actual
        self._conf[index] = (
            self.fpc.advance(self._conf[index])
            if correct
            else self.fpc.reset_level()
        )
        self._last[index] = actual
        if self._inflight[index] == 0:
            self._spec_dirty.discard(index)

    def squash(self, surviving: dict[tuple[int, int], int] | None = None) -> None:
        """Pipeline flush: restore in-flight counts from the checkpoint.

        Squashed (younger) instances will never train, so their counts must
        be discarded; older not-yet-trained instances must stay counted or
        every later prediction under-extrapolates by a constant.
        """
        for index in self._spec_dirty:
            self._inflight[index] = 0
        self._spec_dirty.clear()
        if not surviving:
            return
        for (pc, uop_index), count in surviving.items():
            index, tag = self._lookup(pc, uop_index)
            if self._tag[index] == tag:
                self._inflight[index] = count
                self._spec_dirty.add(index)

    def storage_bits(self) -> int:
        per_entry = self.tag_bits + 64 + self.stride_bits + self.fpc.bits
        if self.two_delta:
            per_entry += self.stride_bits
        return self.entries * per_entry


class StridePredictor(_BaseStride):
    """Baseline stride predictor ([7]/[11] in the paper)."""

    name = "stride"
    two_delta = False


class TwoDeltaStridePredictor(_BaseStride):
    """2-delta stride predictor: the Fig 5a ``2d-Stride`` configuration."""

    name = "2d-stride"
    two_delta = True
