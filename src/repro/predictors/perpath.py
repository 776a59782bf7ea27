"""Per-Path Stride predictor (Nakra, Gupta & Soffa — §VII-B).

PS splits the two halves of a stride prediction across different contexts:
the *last value* is read from a Value History Table indexed by the
instruction address, while the *stride* is read from a Stride History Table
indexed by a hash of the global branch history and the PC.  The sum forms
the prediction.  The paper cites PS as what "legitimizes the use of the
global branch history to predict instruction results" — D-VTAGE is its
TAGE-structured descendant.

This implementation mirrors our other instruction-based predictors: FPC
confidence on the stride entries, fetch-time VHT claiming with instance
counting for the speculative history, checkpointed squash repair.  Table
state lives in :mod:`repro.common.tables` banks (VHT + SHT).
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
    tagged_index,
)
from repro.predictors.confidence import FPCPolicy

VHT_FIELDS = (
    Field("tag", default=-1),
    Field("valid"),
    Field("last", unsigned=True),
    Field("inflight"),
)

SHT_FIELDS = (
    Field("stride", unsigned=True),
    Field("conf"),
)


class _TrainMeta:
    __slots__ = ("sht_index",)

    def __init__(self, sht_index: int) -> None:
        self.sht_index = sht_index


class PerPathStridePredictor(ValuePredictor):
    """VHT (per-PC last values) + SHT (per-path strides)."""

    name = "per-path-stride"

    def __init__(
        self,
        vht_entries: int = 8192,
        sht_entries: int = 8192,
        tag_bits: int = 5,
        stride_bits: int = 64,
        history_length: int = 16,
        fpc: FPCPolicy | None = None,
    ) -> None:
        self.vht_entries = vht_entries
        self.sht_entries = sht_entries
        self.tag_bits = tag_bits
        self.stride_bits = stride_bits
        self.history_length = history_length
        violations: list[str] = []
        require_positive(
            violations, self,
            "vht_entries", "sht_entries", "tag_bits", "stride_bits",
            "history_length",
        )
        require_power_of_two(violations, self, "vht_entries", "sht_entries")
        if violations:
            raise ConfigError(type(self).__name__, violations)
        self.vht_index_bits = vht_entries.bit_length() - 1
        self.sht_index_bits = sht_entries.bit_length() - 1
        self.fpc = fpc if fpc is not None else FPCPolicy()
        self._vht = TableBank(vht_entries, VHT_FIELDS)
        self._sht = TableBank(sht_entries, SHT_FIELDS)
        self._h_tag = self._vht.col("tag")
        self._h_valid = self._vht.col("valid")
        self._h_last = self._vht.col("last")
        self._h_inflight = self._vht.col("inflight")
        self._s_stride = self._sht.col("stride")
        self._s_conf = self._sht.col("conf")
        self._spec_dirty: set[int] = set()

    def fold_geometry(
        self,
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        return ((self.history_length, self.sht_index_bits),), ()

    def _vht_slot(self, key: int) -> tuple[int, int]:
        index = table_index(key, self.vht_index_bits)
        tag = (key >> self.vht_index_bits) & mask(self.tag_bits)
        return index, tag

    def _sht_index(self, key: int, hist: HistoryState) -> int:
        return tagged_index(key, hist, self.history_length, self.sht_index_bits)

    def predict(
        self, pc: int, uop_index: int, hist: HistoryState
    ) -> Prediction | None:
        key = mix_pc(pc, uop_index)
        vht_index, vht_tag = self._vht_slot(key)
        if self._h_tag[vht_index] != vht_tag:
            self._h_tag[vht_index] = vht_tag
            self._h_valid[vht_index] = 0
            self._h_inflight[vht_index] = 1
            self._spec_dirty.add(vht_index)
            return None
        self._h_inflight[vht_index] += 1
        self._spec_dirty.add(vht_index)
        if not self._h_valid[vht_index]:
            return None
        sht_index = self._sht_index(key, hist)
        stride = to_signed(self._s_stride[sht_index], self.stride_bits)
        value = to_unsigned(
            self._h_last[vht_index] + stride * self._h_inflight[vht_index], 64
        )
        return Prediction(
            value,
            self.fpc.is_confident(self._s_conf[sht_index]),
            meta=_TrainMeta(sht_index),
        )

    def train(
        self,
        pc: int,
        uop_index: int,
        hist: HistoryState,
        actual: int,
        prediction: Prediction | None,
    ) -> None:
        key = mix_pc(pc, uop_index)
        vht_index, vht_tag = self._vht_slot(key)
        if self._h_tag[vht_index] != vht_tag:
            return  # entry re-claimed at fetch by another instruction
        if self._h_inflight[vht_index] > 0:
            self._h_inflight[vht_index] -= 1
        if not self._h_valid[vht_index]:
            self._h_valid[vht_index] = 1
            self._h_last[vht_index] = actual
            if self._h_inflight[vht_index] == 0:
                self._spec_dirty.discard(vht_index)
            return
        observed = to_unsigned(
            to_signed(actual - self._h_last[vht_index], self.stride_bits),
            self.stride_bits,
        )
        if prediction is not None and isinstance(prediction.meta, _TrainMeta):
            sht_index = prediction.meta.sht_index
            if prediction.value == actual:
                self._s_conf[sht_index] = self.fpc.advance(
                    self._s_conf[sht_index]
                )
            else:
                self._s_conf[sht_index] = self.fpc.reset_level()
                self._s_stride[sht_index] = observed
        else:
            # No prediction was made (cold VHT at fetch): still install the
            # stride under the fetch-time path context.
            sht_index = self._sht_index(key, hist)
            self._s_stride[sht_index] = observed
            self._s_conf[sht_index] = self.fpc.reset_level()
        self._h_last[vht_index] = actual
        if self._h_inflight[vht_index] == 0:
            self._spec_dirty.discard(vht_index)

    def squash(self, surviving: dict[tuple[int, int], int] | None = None) -> None:
        for index in self._spec_dirty:
            self._h_inflight[index] = 0
        self._spec_dirty.clear()
        if not surviving:
            return
        for (pc, uop_index), count in surviving.items():
            index, tag = self._vht_slot(mix_pc(pc, uop_index))
            if self._h_tag[index] == tag:
                self._h_inflight[index] = count
                self._spec_dirty.add(index)

    def storage_bits(self) -> int:
        vht = self.vht_entries * (self.tag_bits + 64)
        sht = self.sht_entries * (self.stride_bits + self.fpc.bits)
        return vht + sht
