"""The VTAGE value predictor (Perais & Seznec, HPCA 2014).

VTAGE transposes the TAGE branch predictor to value prediction: a tagless
direct-mapped base component (a last-value predictor) plus ``n`` partially
tagged components indexed by hashes of the PC with geometrically increasing
amounts of global branch/path history.  The prediction comes from the
hitting component with the longest history; allocation on mispredictions is
steered by per-entry usefulness bits with periodic reset.

Because every entry stores a *full value* and is indexed by history, VTAGE
needs no speculative window and has no prediction critical path — but it
cannot capture strided series (each instance needs its own entry), which is
what D-VTAGE fixes.

Table state lives in :mod:`repro.common.tables` banks: the base component
is one bank (value/conf columns) and all tagged components share one flat
bank (tag/value/conf/useful/useful_gen columns) addressed by
``comp * tagged_entries + index``.
"""

from __future__ import annotations

from repro.common.rng import XorShift64
from repro.common.tables import Field, TableBank
from repro.common.errors import ConfigError, require_positive, require_power_of_two
from repro.predictors.base import (
    HistoryState,
    Prediction,
    TaggedSlots,
    ValuePredictor,
    mix_pc,
    table_index,
)
from repro.predictors.confidence import FPCPolicy


def geometric_history_lengths(
    components: int, min_length: int = 2, max_length: int = 64
) -> tuple[int, ...]:
    """History lengths growing geometrically from min to max (paper §V-B).

    >>> geometric_history_lengths(6)
    (2, 4, 8, 16, 32, 64)
    """
    if components == 1:
        return (min_length,)
    ratio = (max_length / min_length) ** (1.0 / (components - 1))
    lengths = []
    for i in range(components):
        lengths.append(int(round(min_length * ratio**i)))
    lengths[-1] = max_length
    return tuple(lengths)


#: Tagless base component: a last-value predictor with FPC confidence.
BASE_FIELDS = (
    Field("value", unsigned=True),
    Field("conf"),
)

#: Partially tagged components, flattened across components.
TAGGED_FIELDS = (
    Field("tag", default=-1),
    Field("value", unsigned=True),
    Field("conf"),
    Field("useful"),
    # Generation the useful bit was last written in; a stale generation
    # reads as useful == 0, making the periodic reset O(1).
    Field("useful_gen"),
)


class _TrainMeta:
    """Provider bookkeeping carried from predict to train."""

    __slots__ = ("provider", "index", "tag", "alt_value")

    def __init__(self, provider: int, index: int, tag: int, alt_value: int) -> None:
        self.provider = provider       # 0 = base, i+1 = tagged component i
        self.index = index
        self.tag = tag
        self.alt_value = alt_value


class VTAGEPredictor(ValuePredictor):
    """1 + n component VTAGE with FPC confidence.

    Defaults follow the paper's configuration (§V-B): an 8K-entry base
    last-value component and six 1K-entry tagged components with 13..18-bit
    tags and 2..64-bit geometric histories.
    """

    name = "vtage"

    def __init__(
        self,
        base_entries: int = 8192,
        tagged_entries: int = 1024,
        components: int = 6,
        first_tag_bits: int = 13,
        min_history: int = 2,
        max_history: int = 64,
        fpc: FPCPolicy | None = None,
        useful_reset_period: int = 8192,
        seed: int = 0x7A6E,
    ) -> None:
        self.base_entries = base_entries
        self.tagged_entries = tagged_entries
        self.components = components
        violations: list[str] = []
        require_positive(
            violations, self,
            "base_entries", "tagged_entries", "components",
        )
        require_power_of_two(violations, self, "base_entries", "tagged_entries")
        if violations:
            raise ConfigError(type(self).__name__, violations)
        self.base_index_bits = base_entries.bit_length() - 1
        self.tagged_index_bits = tagged_entries.bit_length() - 1
        self.tag_bits = tuple(first_tag_bits + i for i in range(components))
        self.history_lengths = geometric_history_lengths(
            components, min_history, max_history
        )
        self._hash = TaggedSlots(
            self.history_lengths, self.tagged_index_bits, self.tag_bits,
            tagged_entries,
        )
        self.fpc = fpc if fpc is not None else FPCPolicy()
        self._base = TableBank(base_entries, BASE_FIELDS)
        self._tagged = TableBank(components * tagged_entries, TAGGED_FIELDS)
        # Hot-path column references (stable identity for the bank's life).
        self._b_value = self._base.col("value")
        self._b_conf = self._base.col("conf")
        self._t_tag = self._tagged.col("tag")
        self._t_value = self._tagged.col("value")
        self._t_conf = self._tagged.col("conf")
        self._t_useful = self._tagged.col("useful")
        self._t_ugen = self._tagged.col("useful_gen")
        self._rng = XorShift64(seed)
        self._useful_reset_period = useful_reset_period
        self._updates_since_reset = 0
        self._useful_gen = 0

    def fold_geometry(
        self,
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        idx = tuple(
            (length, self.tagged_index_bits) for length in self.history_lengths
        )
        tag = tuple(zip(self.history_lengths, self.tag_bits))
        return idx, tag

    # -- lookups -----------------------------------------------------------

    def _hits(self, key: int, hist: HistoryState) -> list[tuple[int, int, int]]:
        """All hitting tagged components as (comp, flat index, tag), ascending."""
        hits = []
        t_tag = self._t_tag
        indices, tags = self._hash.slots(key, hist)
        for comp in range(self.components):
            index, tag = indices[comp], tags[comp]
            if t_tag[index] == tag:
                hits.append((comp, index, tag))
        return hits

    # -- prediction ---------------------------------------------------------

    def predict(
        self, pc: int, uop_index: int, hist: HistoryState
    ) -> Prediction | None:
        key = mix_pc(pc, uop_index)
        hits = self._hits(key, hist)
        base_index = table_index(key, self.base_index_bits)
        if hits:
            comp, index, tag = hits[-1]
            value = self._t_value[index]
            conf = self._t_conf[index]
            if len(hits) > 1:
                _alt_comp, alt_index, _ = hits[-2]
                alt_value = self._t_value[alt_index]
            else:
                alt_value = self._b_value[base_index]
            return Prediction(
                value,
                self.fpc.is_confident(conf),
                provider=comp + 1,
                conf=conf,
                meta=_TrainMeta(comp + 1, index, tag, alt_value),
            )
        value = self._b_value[base_index]
        conf = self._b_conf[base_index]
        return Prediction(
            value,
            self.fpc.is_confident(conf),
            provider=0,
            conf=conf,
            meta=_TrainMeta(0, base_index, 0, value),
        )

    # -- training -----------------------------------------------------------

    def train(
        self,
        pc: int,
        uop_index: int,
        hist: HistoryState,
        actual: int,
        prediction: Prediction | None,
    ) -> None:
        key = mix_pc(pc, uop_index)
        if prediction is None or not isinstance(prediction.meta, _TrainMeta):
            # Cold structure: just install into the base component.
            base_index = table_index(key, self.base_index_bits)
            self._b_value[base_index] = actual
            self._b_conf[base_index] = 0
            return
        meta: _TrainMeta = prediction.meta
        correct = prediction.value == actual
        if meta.provider == 0:
            index = meta.index
            if correct:
                self._b_conf[index] = self.fpc.advance(self._b_conf[index])
            else:
                self._b_conf[index] = self.fpc.reset_level()
                self._b_value[index] = actual
        else:
            index = meta.index
            if self._t_tag[index] == meta.tag:
                if correct:
                    self._t_conf[index] = self.fpc.advance(self._t_conf[index])
                    # Useful iff correct and the alternate disagreed with the
                    # entry's current value (which later trains may have moved).
                    self._t_useful[index] = (
                        1 if meta.alt_value != self._t_value[index] else 0
                    )
                else:
                    self._t_conf[index] = self.fpc.reset_level()
                    self._t_value[index] = actual
                    self._t_useful[index] = 0
                self._t_ugen[index] = self._useful_gen
        if not correct:
            self._allocate(key, hist, meta.provider, actual)
        self._tick_useful_reset()

    def _allocate(
        self, key: int, hist: HistoryState, provider: int, actual: int
    ) -> None:
        """Allocate in a not-useful entry of a longer-history component."""
        start = provider  # provider 0 = base -> components 0.. ; i+1 -> i+1..
        gen = self._useful_gen
        candidates = []
        scanned = []
        indices, tags = self._hash.slots(key, hist)
        for comp in range(start, self.components):
            index, tag = indices[comp], tags[comp]
            scanned.append(index)
            if self._t_useful[index] == 0 or self._t_ugen[index] != gen:
                candidates.append((comp, index, tag))
        if not candidates:
            for index in scanned:
                self._t_useful[index] = 0
                self._t_ugen[index] = gen
            return
        _comp, index, tag = candidates[self._rng.next_below(len(candidates))]
        self._t_tag[index] = tag
        self._t_value[index] = actual
        self._t_conf[index] = self._allocation_confidence()
        self._t_useful[index] = 0
        self._t_ugen[index] = gen

    def _allocation_confidence(self) -> int:
        """Confidence level installed in a freshly allocated entry."""
        return 0

    def _tick_useful_reset(self) -> None:
        # O(1) periodic reset: bumping the generation makes every entry's
        # stale useful bit read as 0 without walking the tables.
        self._updates_since_reset += 1
        if self._updates_since_reset >= self._useful_reset_period:
            self._updates_since_reset = 0
            self._useful_gen += 1

    def _useful_value(self, index: int) -> int:
        """Logical usefulness of the tagged entry at flat ``index``: a
        stale generation reads as 0.

        The hot paths inline this check; white-box tests use it to observe
        the post-reset state without depending on the representation.
        """
        if self._t_ugen[index] == self._useful_gen:
            return self._t_useful[index]
        return 0

    # -- reporting ----------------------------------------------------------

    def storage_bits(self) -> int:
        base_bits = self.base_entries * (64 + self.fpc.bits)
        tagged_bits = 0
        for comp in range(self.components):
            per_entry = self.tag_bits[comp] + 64 + self.fpc.bits + 1
            tagged_bits += self.tagged_entries * per_entry
        return base_bits + tagged_bits
