"""Block-based D-VTAGE (papers §II-§III combined).

The predictor is keyed on the fetch-block PC.  Per block entry it holds
``npred`` prediction slots:

* the **LVT** (direct-mapped, 5-bit block tags) stores ``npred`` retired
  last values and the per-slot byte-index tags used for attribution;
* **VT0** (the base stride component) stores ``npred`` strides with their
  FPC confidence;
* six partially tagged components store ``npred`` strides + FPC per slot,
  a 13..18-bit block tag and one per-block usefulness bit, indexed VTAGE
  style by block PC and folded global branch/path history.

``read`` performs the fetch-time table reads and provider selection;
composing predictions (last value + stride per slot) is left to the caller
because the last values may come from the speculative window rather than the
LVT.  ``update`` implements the block-based training of §III-D-b: byte tags
evolve under the monotonic rule, the provider's per-slot strides/confidence
train on the retired results, and on any wrong slot a new tagged entry is
allocated with the provider's confidence counters *propagated* so the
correct slots of the block keep their coverage.

Table state lives in :mod:`repro.common.tables` banks with *vector*
fields: the per-slot arrays (last values, byte tags, strides, confidence)
are ``width == npred`` columns addressed ``entry * npred + slot``, and the
tagged components share one flat bank addressed
``comp * tagged_entries + index``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.bits import WORD_MASK, mask
from repro.common.rng import XorShift64
from repro.common.errors import (
    ConfigError,
    require_positive,
    require_power_of_two,
)
from repro.common.tables import Field, TableBank
from repro.predictors.base import HistoryState, TaggedSlots, table_index
from repro.predictors.confidence import FPCPolicy
from repro.predictors.vtage import geometric_history_lengths
from repro.bebop.attribution import FREE_TAG, TagMemo, update_tag_assignment


@dataclass(frozen=True)
class BlockDVTAGEConfig:
    """Geometry of a block-based D-VTAGE (Table III rows are instances)."""

    npred: int = 6
    base_entries: int = 2048        # LVT + VT0 entries
    tagged_entries: int = 256       # per tagged component
    components: int = 6
    first_tag_bits: int = 13
    lvt_tag_bits: int = 5
    byte_tag_bits: int = 4          # log2(16-byte fetch block)
    stride_bits: int = 64
    min_history: int = 2
    max_history: int = 64
    useful_reset_period: int = 8192
    propagate_confidence: bool = True
    #: §II-B1's "greater tag never replaces a lesser" rule; False is the
    #: always-overwrite ablation (DESIGN.md §7).
    monotonic_byte_tags: bool = True

    def __post_init__(self) -> None:
        """Reject impossible geometries, listing every violation at once
        (one :class:`~repro.common.errors.ConfigError`, same contract
        as :class:`~repro.pipeline.config.CoreConfig`)."""
        violations: list[str] = []
        require_positive(
            violations, self,
            "npred", "base_entries", "tagged_entries", "components",
            "first_tag_bits", "lvt_tag_bits", "byte_tag_bits",
            "stride_bits", "min_history", "max_history",
            "useful_reset_period",
        )
        require_power_of_two(violations, self, "base_entries",
                             "tagged_entries")
        if self.stride_bits > 64:
            violations.append(
                f"stride_bits must be <= 64, got {self.stride_bits}"
            )
        if 0 < self.max_history <= self.min_history:
            violations.append(
                f"min_history ({self.min_history}) must be smaller than "
                f"max_history ({self.max_history})"
            )
        if violations:
            raise ConfigError("BlockDVTAGEConfig", violations)


class BlockReadout:
    """Everything the fetch-time read produced, kept for update time."""

    __slots__ = (
        "lvt_index",
        "lvt_tag",
        "lvt_hit",
        "lvt_last",
        "byte_tags",
        "provider",         # 0 = VT0, i+1 = tagged component i
        "provider_index",   # VT0 entry, or flat index into the tagged bank
        "provider_tag",
        "strides",          # provider strides (raw stored form)
        "conf",             # provider confidence levels at read time
        "alt_strides",
        "lanes",            # packed index/tag hashes (TaggedSlots.lanes)
        "values",           # composed predictions, filled by compose()
    )

    def __init__(
        self, lvt_index, lvt_tag, lvt_hit, lvt_last, byte_tags, provider,
        provider_index, provider_tag, strides, conf, alt_strides, lanes,
    ) -> None:
        self.lvt_index = lvt_index
        self.lvt_tag = lvt_tag
        self.lvt_hit = lvt_hit
        self.lvt_last = lvt_last
        self.byte_tags = byte_tags
        self.provider = provider
        self.provider_index = provider_index
        self.provider_tag = provider_tag
        self.strides = strides
        self.conf = conf
        self.alt_strides = alt_strides
        self.lanes = lanes
        self.values: list[int] = []


def dvtage_bank_fields(
    npred: int,
) -> tuple[tuple[Field, ...], tuple[Field, ...], tuple[Field, ...]]:
    """(lvt, vt0, tagged) field declarations for an ``npred``-wide D-VTAGE.

    The single source of truth for the predictor's bank layout — the
    batched sweep engine allocates variant-stacked banks from the same
    declarations so per-variant views are indistinguishable from the
    banks a scalar predictor would build.
    """
    lvt = (
        Field("tag", default=-1),
        Field("last", width=npred, unsigned=True),
        Field("byte_tags", default=FREE_TAG, width=npred),
    )
    vt0 = (
        Field("strides", width=npred, unsigned=True),
        Field("conf", width=npred),
    )
    tagged = (
        Field("tag", default=-1),
        Field("strides", width=npred, unsigned=True),
        Field("conf", width=npred),
        Field("useful"),
        # Generation the useful bit was last written in; a stale
        # generation reads as useful == 0 (O(1) periodic reset).
        Field("useful_gen"),
    )
    return lvt, vt0, tagged


def dvtage_slots(config: BlockDVTAGEConfig) -> TaggedSlots:
    """The tagged components' index and tag hashes of a geometry.

    Like :func:`dvtage_bank_fields`, shared with the batched sweep engine,
    which hashes every variant of one geometry through the same object.
    """
    return TaggedSlots(
        geometric_history_lengths(
            config.components, config.min_history, config.max_history
        ),
        config.tagged_entries.bit_length() - 1,
        tuple(config.first_tag_bits + i for i in range(config.components)),
        config.tagged_entries,
    )


class BlockDVTAGE:
    """The block-based Differential VTAGE predictor."""

    def __init__(
        self,
        config: BlockDVTAGEConfig | None = None,
        fpc: FPCPolicy | None = None,
        seed: int = 0xBEB0,
    ) -> None:
        self.config = config if config is not None else BlockDVTAGEConfig()
        c = self.config
        self.fpc = fpc if fpc is not None else FPCPolicy()
        self.base_index_bits = c.base_entries.bit_length() - 1
        self._hash = dvtage_slots(c)
        self.tagged_index_bits = self._hash.index_bits
        self.tag_bits = self._hash.tag_bits
        self.history_lengths = self._hash.lengths
        lvt_fields, vt0_fields, tagged_fields = dvtage_bank_fields(c.npred)
        self._lvt = TableBank(c.base_entries, lvt_fields)
        self._vt0 = TableBank(c.base_entries, vt0_fields)
        self._tagged = TableBank(c.components * c.tagged_entries, tagged_fields)
        self._l_tag = self._lvt.col("tag")
        self._l_last = self._lvt.col("last")
        self._l_byte = self._lvt.col("byte_tags")
        self._v_strides = self._vt0.col("strides")
        self._v_conf = self._vt0.col("conf")
        self._t_tag = self._tagged.col("tag")
        self._t_strides = self._tagged.col("strides")
        self._t_conf = self._tagged.col("conf")
        self._t_useful = self._tagged.col("useful")
        self._t_ugen = self._tagged.col("useful_gen")
        self._rng = XorShift64(seed)
        self._updates_since_reset = 0
        self._useful_gen = 0
        self._npred = c.npred
        self._stride_mask = (1 << c.stride_bits) - 1
        self._stride_sign = 1 << (c.stride_bits - 1)
        #: (key, LVT index, LVT tag) per fetch-block PC.
        self._blocks: dict[int, tuple[int, int, int]] = {}
        #: The last byte-tag update per LVT entry.
        self._tag_updates = TagMemo(c.monotonic_byte_tags)

    def fold_geometry(
        self,
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """(idx_pairs, tag_pairs) for the pipeline's folded-history set."""
        return self._hash.fold_geometry()

    # -- indexing ------------------------------------------------------------

    def _block_slot(self, block_pc: int) -> tuple[int, int, int]:
        """(key, LVT index, LVT tag) of a fetch block, memoised per block."""
        key = block_pc >> 4
        slot = self._blocks[block_pc] = (
            key,
            table_index(key, self.base_index_bits),
            (key >> self.base_index_bits) & mask(self.config.lvt_tag_bits),
        )
        return slot

    # -- fetch-time read -----------------------------------------------------

    def read(self, block_pc: int, hist: HistoryState) -> BlockReadout:
        """Read LVT and stride components for a fetch block."""
        key, lvt_index, lvt_tag = (
            self._blocks.get(block_pc) or self._block_slot(block_pc)
        )
        # Provider: the longest hitting tagged component, else VT0; the
        # next-longest hit (else VT0) supplies the alternate strides.
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
                provider_tag = (t >> tshift) & tmask
        lvt_hit = self._l_tag[lvt_index] == lvt_tag
        n = self._npred
        lb = lvt_index * n
        last = self._l_last[lb:lb + n]
        byte_tags = self._l_byte[lb:lb + n]
        if hit >= 0:
            pb = hit * n
            strides = self._t_strides[pb:pb + n]
            conf = self._t_conf[pb:pb + n]
            if alt >= 0:
                ab = alt * n
                alt_strides = self._t_strides[ab:ab + n]
            else:
                alt_strides = self._v_strides[lb:lb + n]
        else:
            strides = self._v_strides[lb:lb + n]
            conf = self._v_conf[lb:lb + n]
            alt_strides = strides[:]
        if not lvt_hit:
            last = [0] * n
            byte_tags = [FREE_TAG] * n
        if hit < 0:
            hit = lvt_index
            provider = provider_tag = 0
        return BlockReadout(
            lvt_index, lvt_tag, lvt_hit, last, byte_tags, provider, hit,
            provider_tag, strides, conf, alt_strides, lanes,
        )

    def compose(self, readout: BlockReadout, last_values: list[int]) -> list[int]:
        """Predictions = last values (LVT or speculative window) + strides."""
        sign = self._stride_sign
        wrap = self._stride_mask + 1
        values = []
        for last, stored in zip(last_values, readout.strides):
            # to_unsigned(last + to_signed(stored, stride_bits), 64), inline;
            # strides are stored masked to stride_bits.
            if stored >= sign:
                stored -= wrap
            values.append((last + stored) & WORD_MASK)
        readout.values = values
        return values

    def is_confident(self, readout: BlockReadout, slot: int) -> bool:
        return self.fpc.is_confident(readout.conf[slot])

    # -- retire-time update ---------------------------------------------------

    def update(
        self,
        readout: BlockReadout,
        retired: list[tuple[int, int]],
    ) -> dict[int, int]:
        """Train the predictor with a retired block.

        ``retired`` holds ``(boundary, actual_value)`` for every VP-eligible
        result-producing µ-op of the block instance, in retire order.
        Returns the per-slot actual values (slot -> value).
        """
        if not retired:
            return {}
        n = self._npred
        lvt_index = readout.lvt_index
        lvt_tag = readout.lvt_tag
        lvt_base = lvt_index * n
        fresh = self._l_tag[lvt_index] != lvt_tag
        boundaries = [boundary for boundary, _ in retired]
        retagged = ()
        if fresh:
            assignment, new_tags = update_tag_assignment(
                [FREE_TAG] * n, boundaries, fresh_allocation=True
            )
        else:
            byte_tags = self._l_byte[lvt_base:lvt_base + n]
            assignment, new_tags = self._tag_updates.reassign(
                lvt_index, byte_tags, boundaries
            )
            if new_tags != byte_tags:
                retagged = [s for s in range(n) if new_tags[s] != byte_tags[s]]

        # Locate the provider entry (it may have been reallocated since the
        # read; in that case only the LVT is trained).
        provider_index = readout.provider_index
        if readout.provider == 0:
            provider_live = True
            p_strides, p_conf = self._v_strides, self._v_conf
        else:
            provider_live = self._t_tag[provider_index] == readout.provider_tag
            p_strides, p_conf = self._t_strides, self._t_conf
        p_base = provider_index * n

        # FPCPolicy.advance, inline: per level, None = certain advance (no
        # RNG draw, like XorShift64.chance at p >= 1), -1 = never, else the
        # draw threshold.
        fpc = self.fpc
        thresholds = fpc.thresholds
        max_level = fpc.max_level
        rng = fpc._rng
        smask = self._stride_mask
        l_last = self._l_last
        values = readout.values
        alt_strides = readout.alt_strides
        strides = readout.strides
        any_wrong = False
        any_useful = False
        wrong: list[tuple[int, int]] = []   # (slot, observed stride)
        slot_actuals: dict[int, int] = {}
        for (_boundary, actual), slot in zip(retired, assignment):
            if slot is None:
                continue  # more results than prediction slots: coverage lost
            slot_actuals[slot] = actual
            li = lvt_base + slot
            if fresh:
                # First contact with this block: install the last values;
                # there is no meaningful stride to train yet.
                any_wrong = True
                l_last[li] = actual
                continue
            if values and values[slot] == actual:
                if alt_strides[slot] != strides[slot]:
                    any_useful = True
                if provider_live:
                    pi = p_base + slot
                    if slot in retagged:
                        # The slot now belongs to a different
                        # instruction: retrain.
                        p_conf[pi] = 0
                        p_strides[pi] = (actual - l_last[li]) & smask
                    else:
                        level = p_conf[pi]
                        if level < max_level:
                            threshold = thresholds[level]
                            if threshold is None or (
                                threshold >= 0 and rng.next_u64() < threshold
                            ):
                                p_conf[pi] = level + 1
            else:
                any_wrong = True
                # _truncate(actual - prev_last), inline.
                stride = (actual - l_last[li]) & smask
                wrong.append((slot, stride))
                if provider_live:
                    p_conf[p_base + slot] = 0
                    p_strides[p_base + slot] = stride
            l_last[li] = actual

        # Per-block usefulness (§III-D-b): one bit for the whole entry.
        if provider_live and readout.provider > 0:
            if any_wrong:
                self._t_useful[provider_index] = 0
                self._t_ugen[provider_index] = self._useful_gen
            elif any_useful:
                self._t_useful[provider_index] = 1
                self._t_ugen[provider_index] = self._useful_gen

        self._l_tag[lvt_index] = lvt_tag
        self._l_byte[lvt_base:lvt_base + n] = new_tags

        if wrong and not fresh:
            self._allocate(readout, wrong)
        # _tick_useful_reset, inline.
        self._updates_since_reset += 1
        if self._updates_since_reset >= self.config.useful_reset_period:
            self._updates_since_reset = 0
            self._useful_gen += 1
        return slot_actuals

    def _allocate(
        self, readout: BlockReadout, wrong: list[tuple[int, int]]
    ) -> None:
        """Allocate a longer-history entry, propagating confidence
        (§III-D-b): correct slots — and slots this instance did not
        exercise — keep the provider's counters and strides, the
        ``wrong`` ones get their observed stride with reset confidence."""
        gen = self._useful_gen
        t_useful, t_ugen = self._t_useful, self._t_ugen
        scanned = self._hash.unpack(readout.lanes, readout.provider)
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
        t_useful[index] = 0
        t_ugen[index] = gen
        n = self._npred
        strides = readout.strides[:]
        conf = readout.conf[:] if self.config.propagate_confidence else [0] * n
        for slot, stride in wrong:
            strides[slot] = stride
            conf[slot] = 0
        base = index * n
        self._t_strides[base:base + n] = strides
        self._t_conf[base:base + n] = conf

    # -- reporting -------------------------------------------------------------

    def _current_useful_gen(self) -> int:
        return self._useful_gen

    def table_banks(self) -> tuple[dict, ...]:
        """Bank descriptions for :class:`repro.obs.BankTelemetry`
        (kwargs dicts its ``register()`` accepts): the LVT, the VT-0 base
        component, and the flat tagged bank sliced per component, with
        useful-bit mass gated by the live generation counter."""
        return (
            {
                "name": "lvt",
                "bank": self._lvt,
                "tag_field": "tag",
                "tag_invalid": -1,
            },
            {"name": "vt0", "bank": self._vt0},
            {
                "name": "tagged",
                "bank": self._tagged,
                "components": self.config.components,
                "tag_field": "tag",
                "tag_invalid": -1,
                "useful_field": "useful",
                "useful_gen_field": "useful_gen",
                "gen": self._current_useful_gen,
            },
        )

    def storage_bits(self) -> int:
        """Bit-exact Table III accounting (without the speculative window —
        see :meth:`repro.bebop.spec_window.SpeculativeWindow.storage_bits`)."""
        c = self.config
        lvt_entry = c.npred * (64 + c.byte_tag_bits) + c.lvt_tag_bits
        vt0_entry = c.npred * (c.stride_bits + self.fpc.bits)
        bits = c.base_entries * (lvt_entry + vt0_entry)
        for comp in range(c.components):
            tagged_entry = (
                c.npred * (c.stride_bits + self.fpc.bits)
                + self.tag_bits[comp]
                + 1
            )
            bits += c.tagged_entries * tagged_entry
        return bits
