"""Tagged Last Value Predictor (Lipasti & Shen).

Predicts that an instruction produces the same value as its previous
instance.  Direct-mapped with small partial tags and FPC confidence; this is
also the base component of VTAGE (untagged there).  Table state lives in a
:mod:`repro.common.tables` bank (tag/value/conf columns).
"""

from __future__ import annotations

from repro.common.bits import mask
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
    Field("tag", default=-1),  # -1 = never allocated
    Field("value", unsigned=True),
    Field("conf"),
)


class LastValuePredictor(ValuePredictor):
    """Direct-mapped LVP: ``entries`` × (tag, 64-bit value, 3-bit FPC)."""

    name = "lvp"

    def __init__(
        self,
        entries: int = 8192,
        tag_bits: int = 5,
        fpc: FPCPolicy | None = None,
    ) -> None:
        self.entries = entries
        self.tag_bits = tag_bits
        violations: list[str] = []
        require_positive(violations, self, "entries", "tag_bits")
        require_power_of_two(violations, self, "entries")
        if violations:
            raise ConfigError(type(self).__name__, violations)
        self.index_bits = entries.bit_length() - 1
        self.fpc = fpc if fpc is not None else FPCPolicy()
        self._table = TableBank(entries, TABLE_FIELDS)
        self._tag = self._table.col("tag")
        self._value = self._table.col("value")
        self._conf = self._table.col("conf")

    def _lookup(self, pc: int, uop_index: int) -> tuple[int, int]:
        key = mix_pc(pc, uop_index)
        index = table_index(key, self.index_bits)
        tag = (key >> self.index_bits) & mask(self.tag_bits)
        return index, tag

    def predict(
        self, pc: int, uop_index: int, hist: HistoryState
    ) -> Prediction | None:
        index, tag = self._lookup(pc, uop_index)
        if self._tag[index] != tag:
            return None
        return Prediction(
            self._value[index],
            self.fpc.is_confident(self._conf[index]),
        )

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
            # Allocate: steal the entry (direct-mapped, no usefulness).
            self._tag[index] = tag
            self._value[index] = actual
            self._conf[index] = 0
            return
        if self._value[index] == actual:
            self._conf[index] = self.fpc.advance(self._conf[index])
        else:
            self._conf[index] = self.fpc.reset_level()
            self._value[index] = actual
