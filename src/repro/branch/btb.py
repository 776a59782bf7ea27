"""Branch Target Buffer (Table I).

The BTB is set-associative with LRU replacement; a taken branch whose target
misses in the BTB costs a front-end redirect even when the direction was
predicted correctly.  Table I's 32-entry return address stack is not
modelled: the synthetic ISA has no call/return (DESIGN.md §6).

BTB state lives in :mod:`repro.common.tables` banks: one flat
``sets * ways`` bank of (tag, target) pairs ordered oldest-first within
each set (MRU in the highest occupied slot), plus a per-set occupancy bank.
"""

from __future__ import annotations

from repro.common.tables import Field, TableBank
from repro.common.errors import ConfigError

WAY_FIELDS = (
    Field("tag", default=-1),
    Field("target", unsigned=True),
)

SET_FIELDS = (
    Field("count"),  # occupied ways in the set
)


class BranchTargetBuffer:
    """2-way set-associative BTB, 8K entries by default (Table I)."""

    def __init__(self, entries: int = 8192, ways: int = 2) -> None:
        violations: list[str] = []
        if entries <= 0:
            violations.append(f"entries must be positive, got {entries}")
        if ways <= 0:
            violations.append(f"ways must be positive, got {ways}")
        sets = entries // ways if ways > 0 else 0
        if not violations:
            if entries % ways:
                violations.append(
                    f"{entries} entries not divisible by {ways} ways"
                )
            elif sets <= 0 or sets & (sets - 1):
                violations.append(f"set count must be a power of two, got {sets}")
        if violations:
            raise ConfigError(type(self).__name__, violations)
        self.entries = entries
        self.ways = ways
        self.sets = sets
        self._index_mask = sets - 1
        self._set_bits = sets.bit_length() - 1
        self._ways = TableBank(sets * ways, WAY_FIELDS)
        self._sets = TableBank(sets, SET_FIELDS)
        self._tag = self._ways.col("tag")
        self._target = self._ways.col("target")
        self._count = self._sets.col("count")
        self.hits = 0
        self.misses = 0

    def _set_and_tag(self, pc: int) -> tuple[int, int]:
        index = (pc >> 2) & self._index_mask
        tag = pc >> 2 >> self._set_bits
        return index, tag

    def _bump_to_mru(self, base: int, slot: int, count: int) -> None:
        """Move the entry at ``base + slot`` to the MRU position."""
        tag_col, tgt_col = self._tag, self._target
        tag, target = tag_col[base + slot], tgt_col[base + slot]
        for i in range(slot, count - 1):
            tag_col[base + i] = tag_col[base + i + 1]
            tgt_col[base + i] = tgt_col[base + i + 1]
        tag_col[base + count - 1] = tag
        tgt_col[base + count - 1] = target

    def lookup(self, pc: int) -> int | None:
        """Predicted target of the branch at ``pc``, or None on miss."""
        set_index = (pc >> 2) & self._index_mask
        tag = pc >> 2 >> self._set_bits
        count = self._count[set_index]
        if count:
            # MRU way first: a hit there needs no reordering, and tags are
            # unique within a set, so no older way could match instead.
            base = set_index * self.ways
            mru = base + count - 1
            tag_col = self._tag
            if tag_col[mru] == tag:
                self.hits += 1
                return self._target[mru]
            for i in range(count - 1):
                if tag_col[base + i] == tag:
                    target = self._target[base + i]
                    self._bump_to_mru(base, i, count)
                    self.hits += 1
                    return target
        self.misses += 1
        return None

    def install(self, pc: int, target: int) -> None:
        """Record the resolved target of a taken branch."""
        set_index, tag = self._set_and_tag(pc)
        base = set_index * self.ways
        count = self._count[set_index]
        tag_col = self._tag
        for i in range(count):
            if tag_col[base + i] == tag:
                self._target[base + i] = target
                self._bump_to_mru(base, i, count)
                return
        if count >= self.ways:
            # Evict LRU (slot 0): shift everything down, install at MRU.
            self._bump_to_mru(base, 0, count)
            self._tag[base + count - 1] = tag
            self._target[base + count - 1] = target
            return
        self._tag[base + count] = tag
        self._target[base + count] = target
        self._count[set_index] = count + 1
