"""Finite Context Method predictors (related work, §VII-A).

Order-n FCM (Sazeides & Smith) is a two-level structure: a Value History
Table (VHT) indexed by PC records the hashes of the last ``n`` results; the
hashed history indexes a Value Prediction Table (VPT) holding the predicted
value.  D-FCM (Goeman et al.) stores *strides* in the VPT instead and adds
them to the last value — the direct inspiration for D-VTAGE.

The defining practical weakness of FCM-family predictors (and the reason the
paper prefers VTAGE) is the serial two-level lookup: predicting instance
``n+1`` of an instruction requires the history updated with instance ``n``'s
result.  We model them *non-speculatively* — the history advances only at
commit — which honestly reproduces their inability to predict back-to-back
instances in tight loops.

Table state lives in :mod:`repro.common.tables` banks; the VHT's per-entry
history is a vector field of ``order`` lanes stored flat.
"""

from __future__ import annotations

from repro.common.bits import fold_bits, mask, to_signed, to_unsigned
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

#: Width of each hashed value kept in the VHT history.
_HASH_BITS = 16


def _value_hash(value: int) -> int:
    """Compress a 64-bit result into a 16-bit history element."""
    return fold_bits(to_unsigned(value * 0x9E3779B97F4A7C15, 64), 64, _HASH_BITS)


VPT_FIELDS = (
    Field("value", unsigned=True),
    Field("conf"),
)


class FCMPredictor(ValuePredictor):
    """Order-n FCM: VHT (per-PC value history) -> VPT (prediction)."""

    name = "fcm"
    differential = False

    def __init__(
        self,
        order: int = 4,
        vht_entries: int = 8192,
        vpt_entries: int = 32768,
        tag_bits: int = 5,
        stride_bits: int = 64,
        fpc: FPCPolicy | None = None,
    ) -> None:
        self.order = order
        self.vht_entries = vht_entries
        self.vpt_entries = vpt_entries
        self.tag_bits = tag_bits
        self.stride_bits = stride_bits
        violations: list[str] = []
        require_positive(
            violations, self,
            "order", "vht_entries", "vpt_entries", "tag_bits", "stride_bits",
        )
        require_power_of_two(violations, self, "vht_entries", "vpt_entries")
        if violations:
            raise ConfigError(type(self).__name__, violations)
        self.vht_index_bits = vht_entries.bit_length() - 1
        self.vpt_index_bits = vpt_entries.bit_length() - 1
        self.fpc = fpc if fpc is not None else FPCPolicy()
        vht_fields = (
            Field("tag", default=-1),
            Field("history", width=order),
            Field("last", unsigned=True),
        )
        self._vht = TableBank(vht_entries, vht_fields)
        self._vpt = TableBank(vpt_entries, VPT_FIELDS)
        self._h_tag = self._vht.col("tag")
        self._h_hist = self._vht.col("history")
        self._h_last = self._vht.col("last")
        self._p_value = self._vpt.col("value")
        self._p_conf = self._vpt.col("conf")

    def _vht_lookup(self, pc: int, uop_index: int) -> tuple[int, int]:
        key = mix_pc(pc, uop_index)
        index = table_index(key, self.vht_index_bits)
        tag = (key >> self.vht_index_bits) & mask(self.tag_bits)
        return index, tag

    def _vpt_index(self, pc: int, vht_index: int) -> int:
        acc = pc
        hist = self._h_hist
        base = vht_index * self.order
        for lane in range(self.order):
            acc = to_unsigned((acc << 5) ^ (acc >> 59) ^ hist[base + lane], 64)
        return fold_bits(acc, 64, self.vpt_index_bits)

    def predict(
        self, pc: int, uop_index: int, hist: HistoryState
    ) -> Prediction | None:
        vht_index, tag = self._vht_lookup(pc, uop_index)
        if self._h_tag[vht_index] != tag:
            return None
        vpt_index = self._vpt_index(pc, vht_index)
        stored = self._p_value[vpt_index]
        if self.differential:
            value = to_unsigned(
                self._h_last[vht_index]
                + to_signed(stored, self.stride_bits),
                64,
            )
        else:
            value = stored
        return Prediction(
            value, self.fpc.is_confident(self._p_conf[vpt_index])
        )

    def train(
        self,
        pc: int,
        uop_index: int,
        hist: HistoryState,
        actual: int,
        prediction: Prediction | None,
    ) -> None:
        vht_index, tag = self._vht_lookup(pc, uop_index)
        if self._h_tag[vht_index] != tag:
            self._h_tag[vht_index] = tag
            base = vht_index * self.order
            for lane in range(self.order):
                self._h_hist[base + lane] = 0
            self._h_last[vht_index] = actual
            self._push_history(vht_index, actual)
            return
        vpt_index = self._vpt_index(pc, vht_index)
        correct = prediction is not None and prediction.value == actual
        self._p_conf[vpt_index] = (
            self.fpc.advance(self._p_conf[vpt_index])
            if correct
            else self.fpc.reset_level()
        )
        if self.differential:
            self._p_value[vpt_index] = to_unsigned(
                to_signed(actual - self._h_last[vht_index], self.stride_bits),
                self.stride_bits,
            )
        else:
            self._p_value[vpt_index] = actual
        self._h_last[vht_index] = actual
        self._push_history(vht_index, actual)

    def _push_history(self, vht_index: int, value: int) -> None:
        base = vht_index * self.order
        hist = self._h_hist
        for lane in range(self.order - 1):
            hist[base + lane] = hist[base + lane + 1]
        hist[base + self.order - 1] = _value_hash(value)

    def storage_bits(self) -> int:
        vht_entry = self.tag_bits + self.order * _HASH_BITS
        if self.differential:
            vht_entry += 64  # the last value
        vpt_value = self.stride_bits if self.differential else 64
        vpt_entry = vpt_value + self.fpc.bits
        return self.vht_entries * vht_entry + self.vpt_entries * vpt_entry


class DFCMPredictor(FCMPredictor):
    """Differential FCM (Goeman et al. [13]): strides in the VPT."""

    name = "dfcm"
    differential = True
