"""The block-based speculative window (paper §IV, Fig 4).

A small buffer holding, per recently fetched block instance, the predicted
values the predictor produced for it.  Reads are associative on a 15-bit
partial tag of the block PC, prioritised by internal sequence number (most
recent wins); writes are a plain circular append because the buffer is
chronologically ordered — no tag match needed, and if the head overruns the
tail the oldest entry is simply lost.  On pipeline flushes, entries younger
than the flushing instruction are discarded.

``capacity=None`` models the infinite window of Fig 7b's ``∞`` point;
``capacity=0`` models ``None`` (no speculative window at all).
"""

from __future__ import annotations

from repro.common.bits import fold_bits


def window_tag(block_pc: int, tag_bits: int = 15) -> int:
    """Partial tag of a fetch-block PC (false positives are allowed: value
    prediction is speculative by nature, §IV)."""
    return fold_bits(block_pc >> 4, 60, tag_bits)


class _WindowEntry:
    __slots__ = ("tag", "seq", "values")

    def __init__(self, tag: int, seq: int, values: list[int]) -> None:
        self.tag = tag
        self.seq = seq
        self.values = values


class SpeculativeWindow:
    """N-way associative-read / circular-write speculative window.

    Entries are kept in insertion order (``_entries``) and, per partial
    tag, in a chain of the same entries in the same order (``_chains``):
    the associative probe for the most recent instance of a block is the
    last element of its chain, and an instance is found by (tag, seq) in
    its chain, which holds only the in-flight instances of blocks sharing
    the tag.  A disabled window (capacity 0) never has a chain.
    """

    def __init__(self, capacity: int | None = 32, tag_bits: int = 15) -> None:
        if capacity is not None and capacity < 0:
            raise ValueError(f"capacity must be >= 0 or None, got {capacity}")
        self.capacity = capacity
        self.tag_bits = tag_bits
        self.enabled = capacity is None or capacity > 0
        self._entries: list[_WindowEntry] = []
        self._chains: dict[int, list[_WindowEntry]] = {}
        # window_tag per block PC: the partial tag is a pure function of
        # the static block address, so it is folded once per block.
        self._tags: dict[int, int] = {}
        self.lookups = 0
        self.hits = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _tag(self, block_pc: int) -> int:
        tag = self._tags.get(block_pc)
        if tag is None:
            tag = self._tags[block_pc] = window_tag(block_pc, self.tag_bits)
        return tag

    def insert(self, block_pc: int, seq: int, values: list[int]) -> None:
        """Append a newly predicted block instance at the head."""
        if not self.enabled:
            return
        tag = self._tags.get(block_pc)
        if tag is None:
            tag = self._tag(block_pc)
        entry = _WindowEntry(tag, seq, list(values))
        entries = self._entries
        entries.append(entry)
        chain = self._chains.get(tag)
        if chain is None:
            self._chains[tag] = [entry]
        else:
            chain.append(entry)
        if self.capacity is not None and len(entries) > self.capacity:
            # Head overlaps tail: advance both (the oldest entry is lost).
            oldest = entries.pop(0)
            chain = self._chains[oldest.tag]
            del chain[0]                # the oldest of its tag, too
            if not chain:
                del self._chains[oldest.tag]

    def lookup(self, block_pc: int) -> list[int] | None:
        """Predicted values of the most recent in-window instance, if any.

        The hardware probes all entries in parallel and a priority encoder
        picks the matching entry with the highest sequence number (Fig 4);
        entries are kept in insertion order here, so the last match wins.
        """
        entry = self.lookup_entry(block_pc)
        return entry.values if entry is not None else None

    def lookup_entry(self, block_pc: int) -> _WindowEntry | None:
        """Like :meth:`lookup` but returns the whole matching entry, so the
        caller can also see *which* in-flight instance (``seq``) provided
        the values — the timeline provenance needs it.  Counts one lookup
        (and possibly one hit) exactly like :meth:`lookup`."""
        if not self.enabled:
            return None
        self.lookups += 1
        tag = self._tags.get(block_pc)
        chain = self._chains.get(self._tag(block_pc) if tag is None else tag)
        if chain is None:
            return None
        self.hits += 1
        return chain[-1]

    def correct_slot(self, block_pc: int, seq: int, slot: int, value: int) -> bool:
        """Write one *computed* value into an in-flight instance's entry.

        The paper's window provides "last computed/predicted values" (§I):
        an entry starts out holding the predictions made at fetch and is
        patched with actual results as the instance's µ-ops write back
        (a result-bus write port, like IQ wakeup).  This is what re-anchors
        a mispredicted chain without waiting for a full pipeline drain.
        Returns whether the instance was still in the window.
        """
        tag = self._tags.get(block_pc)
        chain = self._chains.get(self._tag(block_pc) if tag is None else tag)
        if chain is not None:
            for entry in reversed(chain):
                if entry.seq == seq:
                    if 0 <= slot < len(entry.values):
                        entry.values[slot] = value
                    return True
        return False

    def correct_entry(
        self, block_pc: int, seq: int, slot_values: dict[int, int]
    ) -> bool:
        """:meth:`correct_slot` for every ``slot -> value`` of a dict;
        returns whether the instance was in the window (False for an empty
        dict)."""
        found = False
        for slot, value in slot_values.items():
            found = self.correct_slot(block_pc, seq, slot, value)
        return found

    def retire(self, block_pc: int, seq: int) -> bool:
        """Invalidate a block instance's entry once it retires.

        The window's job is to supply last values for *in-flight* instances;
        once an instance retires, the LVT holds its architectural values.
        Without invalidation, a wrong (unused, hence unflushed) prediction
        stays in the window and wrongly anchors every chained prediction of
        this block until capacity evicts it.  One associative invalidate per
        retired block (the update queue pop knows the sequence number, and
        the write can steal the circular write port) keeps the window
        meaning "speculative instances only".  Returns whether the instance
        was still present.
        """
        tag = self._tags.get(block_pc)
        if tag is None:
            tag = self._tag(block_pc)
        chain = self._chains.get(tag)
        if chain is not None:
            for i in range(len(chain) - 1, -1, -1):
                entry = chain[i]
                if entry.seq == seq:
                    del chain[i]
                    if not chain:
                        del self._chains[tag]
                    # Identity: entries define no __eq__.
                    self._entries.remove(entry)
                    return True
        return False

    def squash(self, flush_seq: int, drop_equal: bool = False) -> int:
        """Discard entries younger than the flushing instruction.

        Entries with ``seq > flush_seq`` are always dropped; with
        ``drop_equal`` the entry whose first instruction *is* the flush
        point goes too (the Repred policy squashes the head block itself,
        §IV-A).  Returns the number of dropped entries.
        """
        kept = [
            e
            for e in self._entries
            if e.seq < flush_seq or (not drop_equal and e.seq == flush_seq)
        ]
        dropped = len(self._entries) - len(kept)
        if dropped:
            self._entries = kept
            self._chains = {}
            for e in kept:
                self._chains.setdefault(e.tag, []).append(e)
        return dropped

    def storage_bits(self, npred: int, value_bits: int = 64) -> int:
        """Storage of a ``capacity``-entry window (Table III accounting:
        per entry, a 15-bit partial tag plus ``npred`` full values; the
        sequence-number cost is called marginal in §VI-C and not counted)."""
        if self.capacity is None:
            raise ValueError("infinite window has no meaningful storage cost")
        return self.capacity * (self.tag_bits + npred * value_bits)
