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
from repro.common.tables import Field, make_bank
from repro.predictors.base import HistoryState, TaggedSlots, table_index
from repro.predictors.confidence import FPCPolicy
from repro.predictors.vtage import geometric_history_lengths
from repro.bebop.attribution import FREE_TAG, update_tag_assignment


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
        "block_pc",
        "hist",
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
        "last_used",        # last values the adders consumed (may be spec)
        "values",           # composed predictions, filled by compose()
        "slots",            # (indices, tags) of every tagged component
    )

    def __init__(self) -> None:
        self.values: list[int] = []
        self.last_used: list[int] = []


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


class BlockDVTAGE:
    """The block-based Differential VTAGE predictor."""

    def __init__(
        self,
        config: BlockDVTAGEConfig | None = None,
        fpc: FPCPolicy | None = None,
        seed: int = 0xBEB0,
        table_backend: str | None = None,
        banks=None,
    ) -> None:
        self.config = config if config is not None else BlockDVTAGEConfig()
        c = self.config
        self.fpc = fpc if fpc is not None else FPCPolicy()
        self.base_index_bits = c.base_entries.bit_length() - 1
        self.tagged_index_bits = c.tagged_entries.bit_length() - 1
        self.tag_bits = tuple(c.first_tag_bits + i for i in range(c.components))
        self.history_lengths = geometric_history_lengths(
            c.components, c.min_history, c.max_history
        )
        lvt_fields, vt0_fields, tagged_fields = dvtage_bank_fields(c.npred)
        if banks is not None:
            # Caller-provided storage (e.g. per-variant views of a
            # variant-stacked bank from batch_stack); shapes must match
            # what this config would have allocated.
            self._lvt, self._vt0, self._tagged = banks
            if (
                self._lvt.entries != c.base_entries
                or self._vt0.entries != c.base_entries
                or self._tagged.entries != c.components * c.tagged_entries
            ):
                raise ValueError(
                    "injected banks do not match the predictor geometry"
                )
        else:
            self._lvt = make_bank(
                c.base_entries, lvt_fields, backend=table_backend
            )
            self._vt0 = make_bank(
                c.base_entries, vt0_fields, backend=table_backend
            )
            self._tagged = make_bank(
                c.components * c.tagged_entries,
                tagged_fields,
                backend=table_backend,
            )
        self.table_backend = self._lvt.backend
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
        # Vector reads: plain column slices on python lists; numpy columns
        # go through read_vec so values stay plain ints.
        self._lists = self.table_backend == "python"
        self._hash = TaggedSlots(
            self.history_lengths, self.tagged_index_bits, self.tag_bits,
            c.tagged_entries,
        )

    def fold_geometry(
        self,
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """(idx_pairs, tag_pairs) for the pipeline's folded-history set."""
        idx = tuple(
            (length, self.tagged_index_bits) for length in self.history_lengths
        )
        tag = tuple(zip(self.history_lengths, self.tag_bits))
        return idx, tag

    # -- indexing ------------------------------------------------------------

    @staticmethod
    def _key(block_pc: int) -> int:
        return block_pc >> 4

    def _lvt_slot(self, key: int) -> tuple[int, int]:
        index = table_index(key, self.base_index_bits)
        tag = (key >> self.base_index_bits) & mask(self.config.lvt_tag_bits)
        return index, tag

    def _vec(self, bank, col, name: str, index: int) -> list[int]:
        if self._lists:
            base = index * self.config.npred
            return col[base:base + self.config.npred]
        return bank.read_vec(name, index)

    # -- fetch-time read -----------------------------------------------------

    def read(self, block_pc: int, hist: HistoryState) -> BlockReadout:
        """Read LVT and stride components for a fetch block."""
        key = self._key(block_pc)
        c = self.config
        npred = c.npred
        out = BlockReadout()
        out.block_pc = block_pc
        out.hist = hist
        lvt_index, lvt_tag = self._lvt_slot(key)
        out.lvt_index = lvt_index
        out.lvt_tag = lvt_tag
        out.lvt_hit = lvt_hit = bool(self._l_tag[lvt_index] == lvt_tag)
        if lvt_hit:
            out.lvt_last = self._vec(self._lvt, self._l_last, "last", lvt_index)
            out.byte_tags = self._vec(
                self._lvt, self._l_byte, "byte_tags", lvt_index
            )
        else:
            out.lvt_last = [0] * npred
            out.byte_tags = [FREE_TAG] * npred
        out.slots = indices, tags = self._hash.slots(key, hist)
        t_tag = self._t_tag
        hit = alt = -1
        for comp in range(c.components):
            if t_tag[indices[comp]] == tags[comp]:
                alt = hit
                hit = comp
        if hit >= 0:
            index = indices[hit]
            out.provider = hit + 1
            out.provider_index = index
            out.provider_tag = tags[hit]
            out.strides = self._vec(self._tagged, self._t_strides, "strides", index)
            out.conf = self._vec(self._tagged, self._t_conf, "conf", index)
            if alt >= 0:
                out.alt_strides = self._vec(
                    self._tagged, self._t_strides, "strides", indices[alt]
                )
            else:
                out.alt_strides = self._vec(
                    self._vt0, self._v_strides, "strides", lvt_index
                )
        else:
            out.provider = 0
            out.provider_index = lvt_index
            out.provider_tag = 0
            out.strides = self._vec(self._vt0, self._v_strides, "strides", lvt_index)
            out.conf = self._vec(self._vt0, self._v_conf, "conf", lvt_index)
            out.alt_strides = list(out.strides)
        return out

    def compose(self, readout: BlockReadout, last_values: list[int]) -> list[int]:
        """Predictions = last values (LVT or speculative window) + strides."""
        readout.last_used = list(last_values)
        bits = self.config.stride_bits
        smask = (1 << bits) - 1
        sign = 1 << (bits - 1)
        values = []
        for last, stored in zip(last_values, readout.strides):
            # to_unsigned(last + to_signed(stored, stride_bits), 64), inline.
            stored &= smask
            if stored >= sign:
                stored -= smask + 1
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
        Returns the per-slot actual values (slot -> value), which the engine
        uses to correct the retired instance's speculative-window entry.
        """
        if not retired:
            return {}
        c = self.config
        npred = c.npred
        lvt_index = readout.lvt_index
        lvt_tag = readout.lvt_tag
        lvt_base = lvt_index * npred
        fresh = bool(self._l_tag[lvt_index] != lvt_tag)
        boundaries = [boundary for boundary, _ in retired]
        byte_tags = self._vec(self._lvt, self._l_byte, "byte_tags", lvt_index)
        assignment, new_tags = update_tag_assignment(
            byte_tags if not fresh else [FREE_TAG] * npred,
            boundaries,
            fresh_allocation=fresh,
            monotonic=c.monotonic_byte_tags,
        )
        if fresh:
            retagged = ()
        else:
            retagged = [s for s in range(npred) if new_tags[s] != byte_tags[s]]

        # Locate the provider entry (it may have been reallocated since the
        # read; in that case only the LVT is trained).
        if readout.provider == 0:
            provider_live = True
            p_strides, p_conf = self._v_strides, self._v_conf
        else:
            provider_live = bool(
                self._t_tag[readout.provider_index] == readout.provider_tag
            )
            p_strides, p_conf = self._t_strides, self._t_conf
        p_base = readout.provider_index * npred

        # FPCPolicy.advance, inline: per level, None = certain advance (no
        # RNG draw, like XorShift64.chance at p >= 1), -1 = never, else the
        # draw threshold.
        fpc = self.fpc
        thresholds = fpc.thresholds
        max_level = fpc.max_level
        rng = fpc._rng
        smask = (1 << c.stride_bits) - 1
        l_last = self._l_last
        values = readout.values
        alt_strides = readout.alt_strides
        strides = readout.strides
        any_wrong = False
        any_useful = False
        observed: dict[int, int] = {}
        slot_actuals: dict[int, int] = {}
        correct_slots: set[int] = set()
        for (boundary, actual), slot in zip(retired, assignment):
            if slot is None:
                continue  # more results than prediction slots: coverage lost
            slot_actuals[slot] = actual
            # _truncate(actual - prev_last), inline.
            observed[slot] = (actual - int(l_last[lvt_base + slot])) & smask
            correct = (not fresh) and bool(values) and values[slot] == actual
            if correct:
                correct_slots.add(slot)
                if alt_strides[slot] != strides[slot]:
                    any_useful = True
            else:
                any_wrong = True
            if fresh:
                # First contact with this block: install the last values
                # below; there is no meaningful stride to train yet.
                l_last[lvt_base + slot] = actual
                continue
            if provider_live and slot not in retagged:
                if correct:
                    level = int(p_conf[p_base + slot])
                    if level < max_level:
                        threshold = thresholds[level]
                        if threshold is None or (
                            threshold >= 0 and rng.next_u64() < threshold
                        ):
                            p_conf[p_base + slot] = level + 1
                else:
                    p_conf[p_base + slot] = 0
                    p_strides[p_base + slot] = observed[slot]
            elif provider_live:
                # The slot now belongs to a different instruction: retrain.
                p_conf[p_base + slot] = 0
                p_strides[p_base + slot] = observed[slot]
            l_last[lvt_base + slot] = actual

        # Per-block usefulness (§III-D-b): one bit for the whole entry.
        if provider_live and readout.provider > 0:
            if any_wrong:
                self._t_useful[readout.provider_index] = 0
                self._t_ugen[readout.provider_index] = self._useful_gen
            elif any_useful:
                self._t_useful[readout.provider_index] = 1
                self._t_ugen[readout.provider_index] = self._useful_gen

        self._l_tag[lvt_index] = lvt_tag
        if self._lists:
            self._l_byte[lvt_base:lvt_base + npred] = new_tags
        else:
            self._lvt.write_vec("byte_tags", lvt_index, new_tags)

        if any_wrong and not fresh:
            self._allocate(readout, observed, correct_slots)
        # _tick_useful_reset, inline.
        self._updates_since_reset += 1
        if self._updates_since_reset >= c.useful_reset_period:
            self._updates_since_reset = 0
            self._useful_gen += 1
        return slot_actuals

    def _allocate(
        self,
        readout: BlockReadout,
        observed: dict[int, int],
        correct_slots: set[int],
    ) -> None:
        """Allocate a longer-history entry, propagating confidence
        (§III-D-b): correct slots keep the provider's counters and strides,
        wrong slots get the observed stride with reset confidence."""
        c = self.config
        gen = self._useful_gen
        t_useful, t_ugen = self._t_useful, self._t_ugen
        indices, tags = readout.slots
        candidates = []
        for comp in range(readout.provider, c.components):
            index = indices[comp]
            if t_useful[index] == 0 or t_ugen[index] != gen:
                candidates.append(comp)
        if not candidates:
            for index in indices[readout.provider:]:
                t_useful[index] = 0
                t_ugen[index] = gen
            return
        choice = candidates[self._rng.next_below(len(candidates))]
        index = indices[choice]
        self._t_tag[index] = tags[choice]
        t_useful[index] = 0
        t_ugen[index] = gen
        base = index * c.npred
        t_strides, t_conf = self._t_strides, self._t_conf
        propagate = c.propagate_confidence
        for m in range(c.npred):
            if m in correct_slots or m not in observed:
                # Correct slots keep the provider's counters; slots not
                # exercised by this instance inherit the provider too.
                t_strides[base + m] = readout.strides[m]
                t_conf[base + m] = readout.conf[m] if propagate else 0
            else:
                t_strides[base + m] = observed[m]
                t_conf[base + m] = 0

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

    # -- batched sweeps -------------------------------------------------------

    @classmethod
    def batch_stack(
        cls,
        configs,
        seed: int = 0xBEB0,
        table_backend: str | None = None,
    ):
        """N predictors over variant-stacked banks, one stack per bank.

        Every config must share the bank shapes (npred, base_entries,
        tagged_entries, components) so the variants can stack; other
        knobs (confidence propagation, tag monotonicity, histories) may
        differ freely.  Each predictor gets its own RNG/FPC streams —
        exactly what N independently constructed predictors would have —
        and a per-variant ``view`` of the shared stacks, so scalar
        ``read``/``update`` code mutates stacked storage in place.

        Returns ``(predictors, (lvt, vt0, tagged))`` with the stacked
        banks exposed for vector expressions over ``col()`` and for
        telemetry.
        """
        configs = [
            c if c is not None else BlockDVTAGEConfig() for c in configs
        ]
        if not configs:
            raise ValueError("batch_stack needs at least one config")
        c0 = configs[0]
        shape = (c0.npred, c0.base_entries, c0.tagged_entries, c0.components)
        for c in configs[1:]:
            if (c.npred, c.base_entries, c.tagged_entries,
                    c.components) != shape:
                raise ValueError(
                    "configs with different bank shapes cannot share a "
                    f"stack: {shape} != "
                    f"{(c.npred, c.base_entries, c.tagged_entries, c.components)}"
                )
        lvt_fields, vt0_fields, tagged_fields = dvtage_bank_fields(c0.npred)
        n = len(configs)
        lvt = make_bank(
            c0.base_entries, lvt_fields, backend=table_backend, variants=n
        )
        vt0 = make_bank(
            c0.base_entries, vt0_fields, backend=table_backend, variants=n
        )
        tagged = make_bank(
            c0.components * c0.tagged_entries,
            tagged_fields,
            backend=table_backend,
            variants=n,
        )
        predictors = [
            cls(
                config=c,
                seed=seed,
                banks=(lvt.view(v), vt0.view(v), tagged.view(v)),
            )
            for v, c in enumerate(configs)
        ]
        return predictors, (lvt, vt0, tagged)

    @staticmethod
    def batch_step(
        predictors,
        block_pc: int,
        hists,
        retired,
    ) -> list[tuple[BlockReadout, dict[int, int]]]:
        """One fetch read + compose + retire update across every variant.

        ``hists`` holds the per-variant :class:`HistoryState` (histories
        may diverge across variants once predictions alter branch
        resolution timing); ``retired`` the shared
        ``(boundary, actual)`` list.  This loop-of-views walk over
        :meth:`batch_stack` predictors is the authoritative batched
        reference for D-VTAGE — the fused walk in
        :mod:`repro.batch.runner` is the performance path and is held
        bit-identical to the scalar engine by the parity suite.

        Returns ``(readout, slot_actuals)`` per variant, predictions
        composed against the committed LVT last values.
        """
        out = []
        for v, pred in enumerate(predictors):
            readout = pred.read(block_pc, hists[v])
            pred.compose(readout, readout.lvt_last)
            out.append((readout, pred.update(readout, retired)))
        return out

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
