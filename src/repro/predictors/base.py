"""Common interface and index hashing for value predictors.

All instruction-based predictors implement :class:`ValuePredictor`:

* :meth:`~ValuePredictor.predict` is called at fetch with the µ-op's PC, its
  index inside the parent instruction (the paper XORs it into the index so
  that the µ-ops of one x86 instruction map to different entries, §V-B) and
  the global history captured at fetch;
* :meth:`~ValuePredictor.train` is called at commit with the same
  information plus the actual result;
* :meth:`~ValuePredictor.squash` is called on pipeline flushes so predictors
  with speculative state (stride-based ones) can resynchronise.

``predict`` always returns a :class:`Prediction` when the structure produced
a value, with ``confident`` saying whether the pipeline may actually *use*
it; training needs the prediction even when it was not used.
"""

from __future__ import annotations

import abc
from typing import NamedTuple

from repro.common.bits import fold_bits, mask


class HistoryState(NamedTuple):
    """Snapshot of the global histories at prediction time.

    ``branch`` holds the most recent global branch outcome bits, ``path``
    the low-order target-address path history.  The pipeline snapshots both
    at fetch and replays them at train time so a predictor never observes a
    history newer than its own prediction.

    The pipeline actually passes a
    :class:`~repro.common.history.FoldedHistoryState` — attribute-compatible
    but additionally carrying the incrementally maintained folds of the
    branch/path histories, which ``tagged_index``/``tagged_tag`` consume
    instead of re-folding the full registers on every lookup.  Plain
    ``HistoryState`` (tests, examples, standalone predictor use) takes the
    bit-identical on-demand folding path.
    """

    branch: int = 0
    path: int = 0


class PredUse:
    """A per-µ-op prediction as the pipeline sees it: the value and whether
    it may be used.  ``slot`` is the BeBoP prediction slot (-1 otherwise)
    and ``meta`` is opaque to the pipeline."""

    __slots__ = ("value", "confident", "slot", "meta")

    def __init__(
        self, value: int, confident: bool, slot: int = -1, meta: object = None
    ) -> None:
        self.value = value
        self.confident = confident
        self.slot = slot
        self.meta = meta


class Prediction(PredUse):
    """A value prediction plus the bookkeeping its producer needs at train.

    ``provider`` identifies the component that produced the value (predictor
    specific; VTAGE-family uses 0 for the base component and ``i + 1`` for
    tagged component ``i``) and ``conf`` is that provider's confidence
    counter at predict time (0 for predictors without one) — both feed the
    timeline provenance records.  ``meta`` is opaque to the pipeline.  A
    prediction is itself what the pipeline consumes (a :class:`PredUse`),
    so the instruction-based adapter hands it over as is.
    """

    __slots__ = ("provider", "conf")

    def __init__(
        self,
        value: int,
        confident: bool,
        provider: int = 0,
        conf: int = 0,
        meta: object = None,
    ) -> None:
        self.value = value
        self.confident = confident
        self.slot = -1
        self.provider = provider
        self.conf = conf
        self.meta = meta



class ValuePredictor(abc.ABC):
    """Abstract instruction-based value predictor."""

    name: str = "abstract"

    @abc.abstractmethod
    def predict(
        self, pc: int, uop_index: int, hist: HistoryState
    ) -> Prediction | None:
        """Produce a prediction for the µ-op, or None if the structure has
        nothing for it (e.g. tag miss on every component of a tagged LVP)."""

    @abc.abstractmethod
    def train(
        self,
        pc: int,
        uop_index: int,
        hist: HistoryState,
        actual: int,
        prediction: Prediction | None,
    ) -> None:
        """Update with the committed result.

        ``hist`` and ``prediction`` must be the ones captured at fetch for
        this dynamic µ-op.
        """

    def squash(self, surviving: dict[tuple[int, int], int] | None = None) -> None:
        """Repair speculative state after a pipeline flush.

        ``surviving`` maps ``(pc, uop_index)`` to the number of instances
        that are older than the flush point and still in flight — the
        checkpoint the paper's third contribution provides in hardware
        (§IV): in-flight tracking is restored to exactly the survivors.
        Default is a no-op: purely non-speculative predictors (LVP, VTAGE)
        have nothing to repair.
        """

    def fold_geometry(
        self,
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """(idx_pairs, tag_pairs) of (history_length, output_bits) this
        predictor's ``tagged_index``/``tagged_tag`` calls use.

        The pipeline registers these with its
        :class:`~repro.common.history.FoldedHistorySet` so the folds are
        maintained incrementally.  Predictors that never index by history
        (LVP, stride, FCM) keep the empty default.
        """
        return (), ()


def mix_pc(pc: int, uop_index: int) -> int:
    """Combine an instruction PC with the µ-op index (paper §V-B).

    XORing the index into the low PC bits separates the entries of multi-µ-op
    instructions while keeping the mapping trivially invertible in hardware.
    """
    return pc ^ uop_index


# Pure-function memos for the key-dependent fold halves of the hashes below,
# keyed by the packed (static PC ⊕ µ-op index) << 7 | width (widths stay
# below repro.common.history.MAX_FOLD_WIDTH).  Bounded by the static code
# footprint of the traced workloads times the handful of table geometries in play, so the
# memos stay small while removing a 64-bit XOR-fold from every table lookup.
_KEY_INDEX_FOLDS: dict[int, int] = {}
_KEY_TAG_FOLDS: dict[int, int] = {}


def table_index(key: int, index_bits: int) -> int:
    """Direct-mapped index: fold the whole key down to ``index_bits``."""
    memo_key = (key << 7) | index_bits
    v = _KEY_INDEX_FOLDS.get(memo_key)
    if v is None:
        v = _KEY_INDEX_FOLDS[memo_key] = fold_bits(key, 64, index_bits)
    return v


def _hist_index_fold(
    branch: int, path: int, hist_length: int, index_bits: int
) -> int:
    """On-demand history half of ``tagged_index`` (the reference fold)."""
    h = fold_bits(branch & mask(hist_length), hist_length, index_bits)
    p = fold_bits(path & mask(min(hist_length, 16)), 16, index_bits)
    return h ^ p


def _hist_tag_fold(branch: int, hist_length: int, tag_bits: int) -> int:
    """On-demand history half of ``tagged_tag`` (the reference fold)."""
    h = fold_bits(branch & mask(hist_length), hist_length, tag_bits)
    h2 = fold_bits(branch & mask(hist_length), hist_length, tag_bits - 1) << 1
    return h ^ h2


def tagged_index(
    key: int, hist: HistoryState, hist_length: int, index_bits: int
) -> int:
    """TAGE-style index hash of PC, folded branch history and path history.

    Folds the raw history registers on demand; :class:`TaggedSlots` computes
    the same hash for a whole geometry from a
    :class:`~repro.common.history.FoldedHistoryState`'s packed folds.
    """
    hp = _hist_index_fold(hist.branch, hist.path, hist_length, index_bits)
    # Every term is already < 2**index_bits, so no final mask is needed.
    return (
        table_index(key, index_bits)
        ^ hp
        ^ ((key >> index_bits) & ((1 << index_bits) - 1))
    )


def tagged_tag(key: int, hist: HistoryState, hist_length: int, tag_bits: int) -> int:
    """TAGE-style partial tag hash.

    Uses a different folding phase than the index so that index and tag are
    decorrelated, as in TAGE implementations.  Like :func:`tagged_index`,
    folds the raw branch register on demand.
    """
    h = _hist_tag_fold(hist.branch, hist_length, tag_bits)
    memo_key = (key << 7) | tag_bits
    kf = _KEY_TAG_FOLDS.get(memo_key)
    if kf is None:
        kf = _KEY_TAG_FOLDS[memo_key] = fold_bits(key * 0x9E3779B9, 64, tag_bits)
    # ``h`` spans tag_bits bits (h2 is tag_bits-1 wide, shifted by one), so
    # the XOR stays < 2**tag_bits without a final mask.
    return kf ^ h


class TaggedSlots:
    """Every tagged component's index and tag for one key and history.

    ``slots(key, hist)`` returns ``(indices, tags)`` with ``indices[c] =
    c * entries + tagged_index(key, hist, lengths[c], index_bits)`` and
    ``tags[c] = tagged_tag(key, hist, lengths[c], tag_bits[c])`` — the same
    hashes, computed for all components in one pass.  ``lanes(key, hist)``
    returns the same hashes still packed, ``(x, t)``: component ``c``'s
    index is ``c * entries + ((x >> c * index_bits) & index_mask)`` and its
    tag ``(t >> shift_c) & mask_c`` (the constants are in :attr:`ascending`
    and, longest component first, :attr:`descending`), so a caller can
    search for the longest hit without building both lists, and
    :meth:`unpack` recovers the pairs later.  The TAGE branch predictor
    and both D-VTAGEs search ``lanes``; VTAGE and the batch precompute
    take ``slots``.

    The key halves are memoised per key (keys are static PCs or blocks, so
    the memo grows with the program, not the trace), already packed lane by
    lane.  From a :class:`~repro.common.history.FoldedHistoryState` whose
    set registered this geometry, the history halves of all components
    come out of its packed fold registers with four shifts; any other
    history takes the on-demand path.
    """

    __slots__ = ("lengths", "index_bits", "tag_bits", "entries", "index_mask",
                 "ascending", "descending", "_keys", "_layout", "_block",
                 "_hist", "_halves", "_idx_lanes",
                 "_tag_lanes", "_idx_mask", "_tag_mask", "_twin_mask")

    def __init__(
        self,
        lengths: tuple[int, ...],
        index_bits: int,
        tag_bits: tuple[int, ...],
        entries: int,
    ) -> None:
        self.lengths = tuple(lengths)
        self.index_bits = index_bits
        self.tag_bits = tuple(tag_bits)
        self.entries = entries
        n = len(self.lengths)
        self.index_mask = imask = (1 << index_bits) - 1
        #: (bank offset, lane shift, lane mask) per component.
        self._idx_lanes = tuple(
            (comp * entries, comp * index_bits, imask) for comp in range(n)
        )
        shifts = [sum(self.tag_bits[:comp]) for comp in range(n)]
        self._tag_lanes = tuple(
            (shift, (1 << width) - 1)
            for shift, width in zip(shifts, self.tag_bits)
        )
        #: (component, bank offset, index lane shift, tag lane shift, tag
        #: mask) per component, and the same longest component first.
        self.ascending = tuple(
            (comp, base, shift, tshift, tmask)
            for comp, ((base, shift, _m), (tshift, tmask)) in enumerate(
                zip(self._idx_lanes, self._tag_lanes)
            )
        )
        self.descending = self.ascending[::-1]
        self._idx_mask = (1 << (n * index_bits)) - 1
        self._tag_mask = (1 << sum(self.tag_bits)) - 1
        self._twin_mask = self._tag_mask >> 1
        self._keys: dict[int, tuple[int, int]] = {}
        self._layout = None
        self._block: tuple[int, int, int, int] | None = None
        self._hist = None
        self._halves: tuple[int, int] | None = None

    def fold_geometry(
        self,
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        """(idx_pairs, tag_pairs) of these hashes, registered in this
        order so :meth:`FoldLayout.component_lanes
        <repro.common.history.FoldLayout.component_lanes>` finds them."""
        idx = tuple((length, self.index_bits) for length in self.lengths)
        return idx, tuple(zip(self.lengths, self.tag_bits))

    def _key_lanes(self, key: int) -> tuple[int, int]:
        """The key halves of every component, packed like the folds."""
        bits = self.index_bits
        key_index = table_index(key, bits) ^ ((key >> bits) & ((1 << bits) - 1))
        packed_index = packed_tag = 0
        for (_base, shift, _m), (tshift, _tm), width in zip(
            self._idx_lanes, self._tag_lanes, self.tag_bits
        ):
            packed_index |= key_index << shift
            packed_tag |= fold_bits(key * 0x9E3779B9, 64, width) << tshift
        parts = self._keys[key] = (packed_index, packed_tag)
        return parts

    def _fold_halves(self, hist: HistoryState) -> tuple[int, int] | None:
        """The history halves of every component, packed like
        :meth:`lanes`, read from ``hist``'s packed fold registers; None
        when ``hist`` has no fold layout that registered this geometry."""
        layout = getattr(hist, "layout", None)
        if layout is not self._layout:
            self._layout = layout
            self._block = None if layout is None else layout.component_lanes(
                self.lengths, self.index_bits, self.tag_bits
            )
        block = self._block
        if block is None:
            return None
        ib, ip, t1, t2 = block
        b = hist.bfolds
        return (
            ((b >> ib) & self._idx_mask) ^ ((hist.pfolds >> ip) & self._idx_mask),
            ((b >> t1) & self._tag_mask) ^ (((b >> t2) & self._twin_mask) << 1),
        )

    def lanes(self, key: int, hist: HistoryState) -> tuple[int, int]:
        """``(x, t)``: every component's index and tag hash, packed."""
        if hist is not self._hist:
            # History snapshots are immutable, so the history halves are
            # folded once per snapshot, not once per lookup: the µ-ops of
            # a fetch group share one.
            self._hist = hist
            self._halves = self._fold_halves(hist)
        halves = self._halves
        if halves is None:
            indices, tags = self.slots(key, hist)
            x = t = 0
            for (base, shift, _m), (tshift, _tm), index, tag in zip(
                self._idx_lanes, self._tag_lanes, indices, tags
            ):
                x |= (index - base) << shift
                t |= tag << tshift
            return x, t
        parts = self._keys.get(key)
        if parts is None:
            parts = self._key_lanes(key)
        return halves[0] ^ parts[0], halves[1] ^ parts[1]

    def unpack(self, lanes: tuple[int, int], first: int = 0) -> list[tuple[int, int]]:
        """``(index, tag)`` of components ``first..n-1`` from packed lanes."""
        x, t = lanes
        imask = self.index_mask
        return [
            (base + ((x >> shift) & imask), (t >> tshift) & tmask)
            for _comp, base, shift, tshift, tmask in self.ascending[first:]
        ]

    def slots(self, key: int, hist: HistoryState) -> tuple[list[int], list[int]]:
        halves = self._fold_halves(hist)
        if halves is None:
            return (
                [comp * self.entries
                 + tagged_index(key, hist, length, self.index_bits)
                 for comp, length in enumerate(self.lengths)],
                [tagged_tag(key, hist, length, width)
                 for length, width in zip(self.lengths, self.tag_bits)],
            )
        parts = self._keys.get(key)
        if parts is None:
            parts = self._key_lanes(key)
        x = halves[0] ^ parts[0]
        t = halves[1] ^ parts[1]
        return (
            [base + ((x >> shift) & m) for base, shift, m in self._idx_lanes],
            [(t >> shift) & m for shift, m in self._tag_lanes],
        )
