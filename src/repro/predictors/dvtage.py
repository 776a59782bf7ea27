"""The Differential VTAGE predictor, instruction-based (paper §III).

D-VTAGE keeps VTAGE's component structure but stores *strides* instead of
full values: prediction = last value + stride selected by the TAGE match.
The base component is a baseline stride predictor split into

* the **Last Value Table** (LVT): committed last values with small partial
  tags (5 bits by default, §V-B), and
* **VT0**: the base strides with their confidence counters;

the ``n`` partially tagged components hold strides + confidence + a
usefulness bit.  Because the predictor is computational it needs speculative
last values for in-flight instances; this instruction-based version uses the
idealised per-entry instance counting of
:class:`~repro.predictors.stride.StridePredictor`, while the realistic
block-based speculative window lives in :mod:`repro.bebop`.

This class backs the Fig 5a/5b "D-VTAGE" configuration; the block-based
BeBoP version (:class:`repro.bebop.predictor.BlockDVTAGE`) reuses its
allocation logic at the block granularity.

Table state lives in :mod:`repro.common.tables` banks: the LVT and VT0 are
one bank each, and all tagged components share one flat bank addressed by
``comp * tagged_entries + index``.
"""

from __future__ import annotations

from repro.common.bits import WORD_MASK
from repro.common.rng import XorShift64
from repro.common.tables import Field, make_bank
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
from repro.predictors.vtage import geometric_history_lengths

#: Last Value Table: committed last values with small partial tags.
LVT_FIELDS = (
    Field("tag", default=-1),
    Field("valid"),            # last value observed at least once (0/1)
    Field("last", unsigned=True),
    Field("inflight"),         # in-flight instances (speculative history)
)

#: VT0: base strides + confidence (strides stored pre-masked).
VT0_FIELDS = (
    Field("stride", unsigned=True),
    Field("conf"),
)

#: Tagged components, flattened across components.
TAGGED_FIELDS = (
    Field("tag", default=-1),
    Field("stride", unsigned=True),
    Field("conf"),
    Field("useful"),
    # Generation the useful bit was last written in; a stale generation
    # reads as useful == 0, making the periodic reset O(1).
    Field("useful_gen"),
)


class DVTAGEPredictor(ValuePredictor):
    """1 + n component Differential VTAGE (instruction-based).

    Defaults transpose the paper's VTAGE configuration (§V-B): an 8K-entry
    base (LVT + VT0) and six 1K-entry tagged components, 13..18-bit tags,
    2..64-bit geometric histories, 3-bit FPC, 64-bit strides unless narrowed.
    """

    name = "d-vtage"

    def __init__(
        self,
        base_entries: int = 8192,
        tagged_entries: int = 1024,
        components: int = 6,
        first_tag_bits: int = 13,
        lvt_tag_bits: int = 5,
        stride_bits: int = 64,
        min_history: int = 2,
        max_history: int = 64,
        fpc: FPCPolicy | None = None,
        useful_reset_period: int = 8192,
        propagate_confidence: bool = False,
        seed: int = 0xD7A6E,
        table_backend: str | None = None,
    ) -> None:
        self.base_entries = base_entries
        self.tagged_entries = tagged_entries
        self.components = components
        self.lvt_tag_bits = lvt_tag_bits
        self.stride_bits = stride_bits
        violations: list[str] = []
        require_positive(
            violations, self,
            "base_entries", "tagged_entries", "components",
            "lvt_tag_bits", "stride_bits",
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
        self.propagate_confidence = propagate_confidence
        self._lvt = make_bank(base_entries, LVT_FIELDS, backend=table_backend)
        self._vt0 = make_bank(base_entries, VT0_FIELDS, backend=table_backend)
        self._tagged = make_bank(
            components * tagged_entries, TAGGED_FIELDS, backend=table_backend
        )
        self.table_backend = self._lvt.backend
        # Hot-path column references (stable identity for the bank's life).
        self._l_tag = self._lvt.col("tag")
        self._l_valid = self._lvt.col("valid")
        self._l_last = self._lvt.col("last")
        self._l_inflight = self._lvt.col("inflight")
        self._v_stride = self._vt0.col("stride")
        self._v_conf = self._vt0.col("conf")
        self._t_tag = self._tagged.col("tag")
        self._t_stride = self._tagged.col("stride")
        self._t_conf = self._tagged.col("conf")
        self._t_useful = self._tagged.col("useful")
        self._t_ugen = self._tagged.col("useful_gen")
        self._rng = XorShift64(seed)
        self._useful_reset_period = useful_reset_period
        self._updates_since_reset = 0
        self._useful_gen = 0
        self._spec_dirty: set[int] = set()
        # Hot-path constants: stride width, FPC levels and draw thresholds.
        self._stride_mask = (1 << stride_bits) - 1
        self._stride_sign = 1 << (stride_bits - 1)
        self._max_level = self.fpc.max_level
        self._fpc_thresholds = self.fpc.thresholds
        self._fpc_rng = self.fpc._rng
        #: (LVT index, LVT tag) per static key (PC xor µ-op index).
        self._lvt_slots: dict[int, tuple[int, int]] = {}

    def fold_geometry(
        self,
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        idx = tuple(
            (length, self.tagged_index_bits) for length in self.history_lengths
        )
        tag = tuple(zip(self.history_lengths, self.tag_bits))
        return idx, tag

    # -- lookups -----------------------------------------------------------

    def _lvt_slot(self, key: int) -> tuple[int, int]:
        """(LVT/VT0 index, LVT tag) of ``key``, memoised per static key."""
        slot = self._lvt_slots.get(key)
        if slot is None:
            slot = self._lvt_slots[key] = (
                table_index(key, self.base_index_bits),
                (key >> self.base_index_bits) & ((1 << self.lvt_tag_bits) - 1),
            )
        return slot

    # -- prediction ---------------------------------------------------------

    def predict(
        self, pc: int, uop_index: int, hist: HistoryState
    ) -> Prediction | None:
        key = pc ^ uop_index                     # mix_pc
        lvt_index, lvt_tag = self._lvt_slots.get(key) or self._lvt_slot(key)
        l_inflight = self._l_inflight
        if self._l_tag[lvt_index] != lvt_tag:
            # Claim the LVT entry at fetch so in-flight instances are
            # counted from the first one; the base strides are retrained.
            self._l_tag[lvt_index] = lvt_tag
            self._l_valid[lvt_index] = 0
            l_inflight[lvt_index] = 1
            self._v_stride[lvt_index] = 0
            self._v_conf[lvt_index] = 0
            self._spec_dirty.add(lvt_index)
            return None
        inflight = int(l_inflight[lvt_index]) + 1
        l_inflight[lvt_index] = inflight
        self._spec_dirty.add(lvt_index)
        if not self._l_valid[lvt_index]:
            # Still waiting for the first commit of this instruction.
            return None
        # Provider: the longest hitting tagged component, else VT0 (whose
        # index is the LVT's).  The next-longest hit (or VT0) supplies the
        # alternate stride the usefulness heuristic compares against.
        lanes = x, t = self._hash.lanes(key, hist)
        t_tag = self._t_tag
        imask = self._hash.index_mask
        hit = alt = -1
        for comp, base, shift, tshift, tmask in self._hash.descending:
            index = base + ((x >> shift) & imask)
            if t_tag[index] == (t >> tshift) & tmask:
                if hit >= 0:
                    alt = index
                    break
                hit = index
                provider = comp + 1
                tag = (t >> tshift) & tmask
        if hit >= 0:
            index = hit
            stored = int(self._t_stride[index])
            conf = int(self._t_conf[index])
            alt_stride = int(
                self._t_stride[alt] if alt >= 0 else self._v_stride[lvt_index]
            )
        else:
            index = lvt_index
            provider = tag = 0
            stored = alt_stride = int(self._v_stride[lvt_index])
            conf = int(self._v_conf[lvt_index])
        # Idealistic instruction-level speculative history: with k older
        # instances in flight this instance is last + (k+1)*stride (instance
        # counting); the realistic chained-value alternative is the BeBoP
        # speculative window of repro.bebop.  The stored (possibly partial)
        # stride is sign-extended for the adder.
        stored &= self._stride_mask
        if stored >= self._stride_sign:
            stored -= self._stride_mask + 1
        value = (int(self._l_last[lvt_index]) + stored * inflight) & WORD_MASK
        return Prediction(
            value,
            conf >= self._max_level,             # FPCPolicy.is_confident
            provider,
            conf,
            # Training state: the provider entry, the alternate stride,
            # the provider's confidence and every component's packed
            # hashes, so allocation does not hash again.
            (provider, index, tag, alt_stride, conf, lanes),
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
        key = pc ^ uop_index
        lvt_index, lvt_tag = self._lvt_slots.get(key) or self._lvt_slot(key)
        if self._l_tag[lvt_index] != lvt_tag:
            # Entry re-claimed by another instruction at fetch; drop the
            # stale update.
            return
        l_inflight = self._l_inflight
        inflight = int(l_inflight[lvt_index])
        if inflight > 0:
            inflight -= 1
            l_inflight[lvt_index] = inflight
        meta = prediction.meta if prediction is not None else None
        if type(meta) is not tuple:
            # LVT was claimed but had no valid last value at predict time:
            # the first committed result initialises it.
            self._l_valid[lvt_index] = 1
            self._l_last[lvt_index] = actual
            if inflight == 0:
                self._spec_dirty.discard(lvt_index)
            return
        provider, index, tag, alt_stride, provider_conf, lanes = meta
        correct = prediction.value == actual
        # to_unsigned(to_signed(actual - last, bits), bits), inline.
        observed_stride = (
            actual - int(self._l_last[lvt_index])
        ) & self._stride_mask

        if provider == 0:
            conf_col = self._v_conf
            if not correct:
                self._v_stride[index] = observed_stride
        elif self._t_tag[index] == tag:
            conf_col = self._t_conf
            if correct:
                self._t_useful[index] = (
                    1 if alt_stride != self._t_stride[index] else 0
                )
            else:
                self._t_stride[index] = observed_stride
                self._t_useful[index] = 0
            self._t_ugen[index] = self._useful_gen
        else:
            conf_col = None                      # provider reallocated
        if conf_col is not None:
            if correct:
                # FPCPolicy.advance, inline (see FPCPolicy.thresholds).
                level = int(conf_col[index])
                if level < self._max_level:
                    threshold = self._fpc_thresholds[level]
                    if threshold is None or (
                        threshold >= 0 and self._fpc_rng.next_u64() < threshold
                    ):
                        conf_col[index] = level + 1
            else:
                conf_col[index] = 0              # FPCPolicy.reset_level
        if not correct:
            self._allocate(lanes, provider, observed_stride, provider_conf)
        # The LVT always tracks committed last values.
        self._l_last[lvt_index] = actual
        if inflight == 0:
            self._spec_dirty.discard(lvt_index)
        # O(1) periodic useful reset: bumping the generation makes every
        # entry's stale useful bit read as 0 without walking the entries.
        self._updates_since_reset += 1
        if self._updates_since_reset >= self._useful_reset_period:
            self._updates_since_reset = 0
            self._useful_gen += 1

    def _allocate(
        self,
        lanes: tuple[int, int],
        provider: int,
        stride: int,
        provider_conf: int,
    ) -> None:
        """Allocate one entry among the components longer than the
        provider, at the predict-time hashes ``lanes``
        (:meth:`TaggedSlots.lanes`); with no candidate, age those
        components' useful bits instead."""
        gen = self._useful_gen
        t_useful, t_ugen = self._t_useful, self._t_ugen
        scanned = self._hash.unpack(lanes, provider)
        candidates = [
            slot for slot in scanned
            if t_useful[slot[0]] == 0 or t_ugen[slot[0]] != gen
        ]
        if not candidates:
            for index, _tag in scanned:
                t_useful[index] = 0
                t_ugen[index] = gen
            return
        index, tag = candidates[self._rng.next_below(len(candidates))]
        self._t_tag[index] = tag
        self._t_stride[index] = stride
        # §III-D-b's confidence propagation pays off at the *block* level
        # (correct slots of a partially wrong block keep their confidence);
        # at the instruction level the allocated prediction was wrong, so
        # propagation is off by default and ablatable.
        self._t_conf[index] = provider_conf if self.propagate_confidence else 0
        t_useful[index] = 0
        t_ugen[index] = gen

    def _useful_value(self, index: int) -> int:
        """Logical usefulness of the tagged entry at flat ``index``: a
        stale generation reads as 0 (white-box test hook)."""
        if self._t_ugen[index] == self._useful_gen:
            return int(self._t_useful[index])
        return 0

    def squash(self, surviving: dict[tuple[int, int], int] | None = None) -> None:
        """Flush repair: restore in-flight counts from the checkpoint (see
        :meth:`repro.predictors.stride._BaseStride.squash`)."""
        for index in self._spec_dirty:
            self._l_inflight[index] = 0
        self._spec_dirty.clear()
        if not surviving:
            return
        for (pc, uop_index), count in surviving.items():
            index, tag = self._lvt_slot(mix_pc(pc, uop_index))
            if self._l_tag[index] == tag:
                self._l_inflight[index] = count
                self._spec_dirty.add(index)

    # -- reporting ----------------------------------------------------------

    def storage_bits(self) -> int:
        lvt_bits = self.base_entries * (self.lvt_tag_bits + 64)
        vt0_bits = self.base_entries * (self.stride_bits + self.fpc.bits)
        tagged_bits = 0
        for comp in range(self.components):
            per_entry = self.tag_bits[comp] + self.stride_bits + self.fpc.bits + 1
            tagged_bits += self.tagged_entries * per_entry
        return lvt_bits + vt0_bits + tagged_bits
