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

from repro.common.bits import mask, to_signed, to_unsigned
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


class _TrainMeta:
    __slots__ = ("provider", "index", "tag", "alt_stride", "last_used", "conf")

    def __init__(
        self,
        provider: int,
        index: int,
        tag: int,
        alt_stride: int,
        last_used: int,
        conf: int,
    ) -> None:
        self.provider = provider
        self.index = index
        self.tag = tag
        self.alt_stride = alt_stride
        self.last_used = last_used     # the last value the adder consumed
        self.conf = conf               # provider confidence at predict time


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
        index = table_index(key, self.base_index_bits)
        tag = (key >> self.base_index_bits) & mask(self.lvt_tag_bits)
        return index, tag

    def _select_stride(
        self, key: int, hist: HistoryState
    ) -> tuple[int, int, int, int, int, int]:
        """Pick the providing stride entry.

        Returns ``(provider, index, tag, stride, conf, alt_stride)`` with
        provider 0 for VT0 and ``comp + 1`` for tagged component ``comp``;
        ``index`` is a flat index into the provider's bank.  ``stride`` is
        the provider's stored (masked) stride and ``conf`` its confidence;
        ``alt_stride`` is the stride of the next-longest hitting component —
        or VT0's when the provider is the only hit — which training feeds
        to the usefulness heuristic.
        """
        hits = []
        t_tag = self._t_tag
        indices, tags = self._hash.slots(key, hist)
        for comp in range(self.components):
            index, tag = indices[comp], tags[comp]
            if t_tag[index] == tag:
                hits.append((comp, index, tag))
        if hits:
            comp, index, tag = hits[-1]
            if len(hits) > 1:
                _alt_comp, alt_index, _ = hits[-2]
                alt_stride = int(self._t_stride[alt_index])
            else:
                alt_stride = int(
                    self._v_stride[table_index(key, self.base_index_bits)]
                )
            return (
                comp + 1, index, tag,
                int(self._t_stride[index]), int(self._t_conf[index]), alt_stride,
            )
        index = table_index(key, self.base_index_bits)
        stride = int(self._v_stride[index])
        return 0, index, 0, stride, int(self._v_conf[index]), stride

    def _stride_value(self, stored: int) -> int:
        """Sign-extend a stored (possibly partial) stride for the adder."""
        return to_signed(stored, self.stride_bits)

    # -- prediction ---------------------------------------------------------

    def predict(
        self, pc: int, uop_index: int, hist: HistoryState
    ) -> Prediction | None:
        key = mix_pc(pc, uop_index)
        lvt_index, lvt_tag = self._lvt_slot(key)
        if self._l_tag[lvt_index] != lvt_tag:
            # Claim the LVT entry at fetch so in-flight instances are
            # counted from the first one; the base strides are retrained.
            self._l_tag[lvt_index] = lvt_tag
            self._l_valid[lvt_index] = 0
            self._l_inflight[lvt_index] = 1
            vt0_index = table_index(key, self.base_index_bits)
            self._v_stride[vt0_index] = 0
            self._v_conf[vt0_index] = 0
            self._spec_dirty.add(lvt_index)
            return None
        self._l_inflight[lvt_index] += 1
        self._spec_dirty.add(lvt_index)
        if not self._l_valid[lvt_index]:
            # Still waiting for the first commit of this instruction.
            return None
        provider, index, tag, stored, conf, alt_stride = self._select_stride(
            key, hist
        )
        # Idealistic instruction-level speculative history: with k older
        # instances in flight this instance is last + (k+1)*stride (instance
        # counting); the realistic chained-value alternative is the BeBoP
        # speculative window of repro.bebop.
        stride = self._stride_value(stored)
        last = int(self._l_last[lvt_index])
        value = to_unsigned(last + stride * int(self._l_inflight[lvt_index]), 64)
        return Prediction(
            value,
            self.fpc.is_confident(conf),
            provider=provider,
            conf=conf,
            meta=_TrainMeta(provider, index, tag, alt_stride, last, conf),
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
        lvt_index, lvt_tag = self._lvt_slot(key)
        if self._l_tag[lvt_index] != lvt_tag:
            # Entry re-claimed by another instruction at fetch; drop the
            # stale update.
            return
        if self._l_inflight[lvt_index] > 0:
            self._l_inflight[lvt_index] -= 1
        if prediction is None or not isinstance(prediction.meta, _TrainMeta):
            # LVT was claimed but had no valid last value at predict time:
            # the first committed result initialises it.
            self._l_valid[lvt_index] = 1
            self._l_last[lvt_index] = actual
            if self._l_inflight[lvt_index] == 0:
                self._spec_dirty.discard(lvt_index)
            return
        meta: _TrainMeta = prediction.meta
        correct = prediction.value == actual
        observed_stride = to_unsigned(
            to_signed(actual - int(self._l_last[lvt_index]), self.stride_bits),
            self.stride_bits,
        )

        if meta.provider == 0:
            index = meta.index
            if correct:
                self._v_conf[index] = self.fpc.advance(int(self._v_conf[index]))
            else:
                self._v_conf[index] = self.fpc.reset_level()
                self._v_stride[index] = observed_stride
        else:
            index = meta.index
            if self._t_tag[index] == meta.tag:
                if correct:
                    self._t_conf[index] = self.fpc.advance(int(self._t_conf[index]))
                    self._t_useful[index] = (
                        1 if meta.alt_stride != self._t_stride[index] else 0
                    )
                else:
                    self._t_conf[index] = self.fpc.reset_level()
                    self._t_stride[index] = observed_stride
                    self._t_useful[index] = 0
                self._t_ugen[index] = self._useful_gen
        if not correct:
            self._allocate(key, hist, meta.provider, observed_stride, meta.conf)
        # The LVT always tracks committed last values.
        self._l_last[lvt_index] = actual
        if self._l_inflight[lvt_index] == 0:
            self._spec_dirty.discard(lvt_index)
        self._tick_useful_reset()

    def _allocate(
        self,
        key: int,
        hist: HistoryState,
        provider: int,
        stride: int,
        provider_conf: int,
    ) -> None:
        gen = self._useful_gen
        candidates = []
        scanned = []
        indices, tags = self._hash.slots(key, hist)
        for comp in range(provider, self.components):
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
        self._t_stride[index] = stride
        # §III-D-b's confidence propagation pays off at the *block* level
        # (correct slots of a partially wrong block keep their confidence);
        # at the instruction level the allocated prediction was wrong, so
        # propagation is off by default and ablatable.
        self._t_conf[index] = provider_conf if self.propagate_confidence else 0
        self._t_useful[index] = 0
        self._t_ugen[index] = gen

    def _tick_useful_reset(self) -> None:
        # O(1) periodic reset: bumping the generation makes every entry's
        # stale useful bit read as 0 without walking the 6×1024 entries.
        self._updates_since_reset += 1
        if self._updates_since_reset >= self._useful_reset_period:
            self._updates_since_reset = 0
            self._useful_gen += 1

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
            key = mix_pc(pc, uop_index)
            index, tag = self._lvt_slot(key)
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
