"""TAGE conditional branch predictor (Seznec & Michaud, JILP 2006).

A bimodal base predictor plus ``n`` partially tagged components indexed with
geometrically increasing global-history lengths.  The paper's simulator uses
a 1+12-component, ~15K-entry (~32KB) TAGE with a 20-cycle minimum
misprediction penalty; those are the defaults here.

The implementation follows the canonical TAGE policies: provider/altpred
selection, "weak provider uses altpred" filtering via a use-alt-on-new-alloc
counter, 2-bit usefulness counters with periodic graceful reset, and
allocation in a randomly chosen not-useful longer-history slot.

Table state lives in :mod:`repro.common.tables` banks: the bimodal base is
one bank, and the tagged components share one flat bank addressed by
``comp * tagged_entries + index``.
"""

from __future__ import annotations

from repro.common.bits import mask
from repro.common.rng import XorShift64
from repro.common.tables import Field, TableBank
from repro.common.errors import ConfigError, require_positive, require_power_of_two
from repro.predictors.base import HistoryState, TaggedSlots
from repro.predictors.vtage import geometric_history_lengths

BIMODAL_FIELDS = (
    Field("ctr", default=2),  # 2-bit counter, weakly taken
)

TAGGED_FIELDS = (
    Field("tag", default=-1),
    Field("ctr", default=4),  # 3-bit counter, weak
    Field("useful"),
    # Generation the useful counter was last touched in; a stale
    # generation reads as useful == 0 (O(1) periodic reset).
    Field("useful_gen"),
)


class _BranchMeta:
    """Provider information carried from predict to train.

    ``slots`` is the packed ``(x, t)`` hash lanes of every tagged
    component at predict time (:meth:`TaggedSlots.lanes
    <repro.predictors.base.TaggedSlots.lanes>`); allocation at train time
    unpacks them instead of rehashing.  ``index`` is the provider's flat
    bank index and ``tag`` its tag (both 0 for the bimodal provider).
    """

    __slots__ = ("provider", "index", "tag", "alt_taken", "provider_weak",
                 "slots")

    def __init__(
        self,
        provider: int,
        index: int,
        tag: int,
        alt_taken: bool,
        provider_weak: bool,
        slots: tuple[int, int] | None = None,
    ) -> None:
        self.provider = provider
        self.index = index
        self.tag = tag
        self.alt_taken = alt_taken
        self.provider_weak = provider_weak
        self.slots = slots


class TAGEBranchPredictor:
    """1 + n component TAGE.

    Defaults approximate the paper's configuration: 12 tagged components
    with 8..640-bit geometric histories and a 4K-entry bimodal base, about
    15K entries total.
    """

    def __init__(
        self,
        bimodal_entries: int = 4096,
        tagged_entries: int = 1024,
        components: int = 12,
        first_tag_bits: int = 8,
        min_history: int = 8,
        max_history: int = 640,
        useful_reset_period: int = 262144,
        seed: int = 0x7A63,
    ) -> None:
        self.bimodal_entries = bimodal_entries
        self.tagged_entries = tagged_entries
        self.components = components
        violations: list[str] = []
        require_positive(
            violations, self, "bimodal_entries", "tagged_entries", "components"
        )
        require_power_of_two(violations, self, "bimodal_entries", "tagged_entries")
        if violations:
            raise ConfigError(type(self).__name__, violations)
        self.bimodal_index_bits = bimodal_entries.bit_length() - 1
        self.tagged_index_bits = tagged_entries.bit_length() - 1
        self.tag_bits = tuple(
            min(first_tag_bits + i // 2, 15) for i in range(components)
        )
        self.history_lengths = geometric_history_lengths(
            components, min_history, max_history
        )
        self._bimodal = TableBank(bimodal_entries, BIMODAL_FIELDS)
        self._tagged = TableBank(components * tagged_entries, TAGGED_FIELDS)
        self._b_ctr = self._bimodal.col("ctr")
        self._t_tag = self._tagged.col("tag")
        self._t_ctr = self._tagged.col("ctr")
        self._t_useful = self._tagged.col("useful")
        self._t_ugen = self._tagged.col("useful_gen")
        self._rng = XorShift64(seed)
        self._use_alt_on_new_alloc = 8  # 4-bit counter centred at 8
        self._useful_reset_period = useful_reset_period
        self._updates = 0
        self._useful_gen = 0
        self._bimodal_mask = mask(self.bimodal_index_bits)
        self._hash = TaggedSlots(
            self.history_lengths, self.tagged_index_bits, self.tag_bits,
            tagged_entries,
        )
        self._index_mask = self._hash.index_mask
        self._descending = self._hash.descending

    def fold_geometry(
        self,
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """(idx_pairs, tag_pairs) for the pipeline's folded-history set."""
        return self._hash.fold_geometry()

    # -- lookups -----------------------------------------------------------

    def _bimodal_index(self, pc: int) -> int:
        return (pc >> 2) & self._bimodal_mask

    # -- prediction ---------------------------------------------------------

    def predict(self, pc: int, hist: HistoryState) -> tuple[bool, _BranchMeta]:
        """Predicted direction plus the metadata train() needs."""
        # Longest component first: the first hit provides, the second
        # (else the bimodal base) is the alternate prediction.
        lanes = x, t = self._hash.lanes(pc, hist)
        t_tag = self._t_tag
        imask = self._index_mask
        hit = alt = -1
        for comp, base, shift, tshift, tmask in self._descending:
            index = base + ((x >> shift) & imask)
            if t_tag[index] == (t >> tshift) & tmask:
                if hit >= 0:
                    alt = index
                    break
                hit = index
                provider = comp + 1
                tag = (t >> tshift) & tmask
        base_taken = self._b_ctr[(pc >> 2) & self._bimodal_mask] >= 2
        if hit < 0:
            return base_taken, _BranchMeta(0, 0, 0, base_taken, False, lanes)
        ctr = self._t_ctr[hit]
        taken = ctr >= 4
        weak = ctr == 3 or ctr == 4
        if alt >= 0:
            alt_taken = self._t_ctr[alt] >= 4
        else:
            alt_taken = base_taken
        meta = _BranchMeta(provider, hit, tag, alt_taken, weak, lanes)
        # Newly allocated (weak) providers are unreliable: optionally trust
        # the alternate prediction instead.
        if weak and self._use_alt_on_new_alloc >= 8:
            return alt_taken, meta
        return taken, meta

    # -- training -----------------------------------------------------------

    def train(
        self, pc: int, hist: HistoryState, taken: bool, meta: _BranchMeta
    ) -> None:
        """Update with the resolved direction (meta from the predict call)."""
        slots = meta.slots
        if slots is None:
            slots = self._hash.lanes(pc, hist)
        provider = meta.provider
        if provider == 0:
            index = self._bimodal_index(pc)
            ctr = self._b_ctr[index]
            self._b_ctr[index] = min(3, ctr + 1) if taken else max(0, ctr - 1)
            if meta.alt_taken != taken:
                self._allocate(slots, 0, taken)
            self._tick()
            return
        index = meta.index
        t_useful = self._t_useful
        if self._t_tag[index] == meta.tag:
            ctr = self._t_ctr[index]
            provider_taken = ctr >= 4
            provider_correct = provider_taken == taken
            self._t_ctr[index] = min(7, ctr + 1) if taken else max(0, ctr - 1)
            if self._t_ugen[index] != self._useful_gen:
                t_useful[index] = 0
                self._t_ugen[index] = self._useful_gen
            if provider_correct and meta.alt_taken != provider_taken:
                t_useful[index] = min(3, t_useful[index] + 1)
            elif not provider_correct:
                t_useful[index] = max(0, t_useful[index] - 1)
            if meta.provider_weak and meta.alt_taken != provider_taken:
                # Track whether trusting the alternate over weak providers
                # pays off.
                if meta.alt_taken == taken:
                    self._use_alt_on_new_alloc = min(15, self._use_alt_on_new_alloc + 1)
                else:
                    self._use_alt_on_new_alloc = max(0, self._use_alt_on_new_alloc - 1)
            if not provider_correct:
                self._allocate(slots, provider, taken)
        else:
            # Entry was reallocated between fetch and retire; just allocate.
            self._allocate(slots, provider, taken)
        self._tick()

    def _allocate(
        self, lanes: tuple[int, int], provider: int, taken: bool
    ) -> None:
        """Allocate one entry among the components longer than the
        provider, at the predict-time hashes ``lanes``; with no candidate,
        age those components' useful counters instead."""
        gen = self._useful_gen
        t_useful, t_ugen = self._t_useful, self._t_ugen
        scanned = self._hash.unpack(lanes, provider)
        candidates = []
        for slot in scanned:
            index = slot[0]
            if t_ugen[index] != gen:
                t_useful[index] = 0
                t_ugen[index] = gen
            if t_useful[index] == 0:
                candidates.append(slot)
        if not candidates:
            # Every slot was normalized to the current generation above.
            for index, _tag in scanned:
                t_useful[index] = max(0, t_useful[index] - 1)
            return
        # Bias allocation toward shorter histories (classic TAGE heuristic):
        # pick the first candidate with probability 1/2, else uniformly.
        if len(candidates) > 1 and self._rng.chance(0.5):
            index, tag = candidates[0]
        else:
            index, tag = candidates[self._rng.next_below(len(candidates))]
        self._t_tag[index] = tag
        self._t_ctr[index] = 4 if taken else 3
        t_useful[index] = 0
        t_ugen[index] = gen

    def _tick(self) -> None:
        # O(1) periodic reset via the generation counter (no table walk).
        self._updates += 1
        if self._updates >= self._useful_reset_period:
            self._updates = 0
            self._useful_gen += 1

    # -- reporting ----------------------------------------------------------

    def storage_bits(self) -> int:
        bits = self.bimodal_entries * 2
        for comp in range(self.components):
            bits += self.tagged_entries * (self.tag_bits[comp] + 3 + 2)
        return bits
