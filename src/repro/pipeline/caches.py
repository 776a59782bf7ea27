"""Cache hierarchy and DRAM latency model (Table I).

Set-associative LRU caches: L1I 8-way 32KB (1 cycle), L1D 8-way 32KB
(4 cycles), unified L2 16-way 1MB (12 cycles) with a degree-8 stream
prefetcher, and DDR3-like main memory with a 75..185-cycle read latency
picked by row-buffer locality (same DRAM row as the previous access ->
minimum latency, otherwise a deterministic mid/max pick).
"""

from __future__ import annotations

LINE_BYTES = 64
_LINE_SHIFT = 6


class Cache:
    """A set-associative cache with LRU replacement.

    Tracks only presence (tags), not data — the timing model needs hit/miss
    decisions, not contents.
    """

    def __init__(self, size_bytes: int, ways: int, latency: int, name: str = "") -> None:
        lines = size_bytes // LINE_BYTES
        if lines % ways:
            raise ValueError(f"{lines} lines not divisible by {ways} ways")
        self.sets = lines // ways
        if self.sets <= 0 or self.sets & (self.sets - 1):
            raise ValueError(f"set count must be a power of two, got {self.sets}")
        self.size_bytes = size_bytes
        self.ways = ways
        self.latency = latency
        self.name = name
        self._index_mask = self.sets - 1
        self._tag_shift = self.sets.bit_length() - 1
        self._sets: list[list[int]] = [[] for _ in range(self.sets)]
        self.hits = 0
        self.misses = 0

    def _set_and_tag(self, addr: int) -> tuple[list[int], int]:
        line = addr >> _LINE_SHIFT
        return self._sets[line & self._index_mask], line >> self._tag_shift

    def access(self, addr: int) -> bool:
        """Access (and allocate on miss). Returns True on hit."""
        ways, tag = self._set_and_tag(addr)
        if tag in ways:
            ways.remove(tag)
            ways.append(tag)
            self.hits += 1
            return True
        self.misses += 1
        if len(ways) >= self.ways:
            ways.pop(0)
        ways.append(tag)
        return False

    def probe(self, addr: int) -> bool:
        """Check presence without allocating or touching LRU state."""
        ways, tag = self._set_and_tag(addr)
        return tag in ways

    def fill(self, addr: int) -> None:
        """Install a line (prefetch path) without counting a demand access."""
        ways, tag = self._set_and_tag(addr)
        if tag in ways:
            return
        if len(ways) >= self.ways:
            ways.pop(0)
        ways.append(tag)


class MemoryHierarchy:
    """L1I + L1D + unified L2 + DRAM, with an L2 stream prefetcher."""

    def __init__(
        self,
        l1i_size: int = 32 * 1024,
        l1d_size: int = 32 * 1024,
        l1_ways: int = 8,
        l1i_latency: int = 1,
        l1d_latency: int = 4,
        l2_size: int = 1024 * 1024,
        l2_ways: int = 16,
        l2_latency: int = 12,
        dram_min_latency: int = 75,
        dram_max_latency: int = 185,
        prefetch_degree: int = 8,
        row_bytes: int = 8192,
    ) -> None:
        self.l1i = Cache(l1i_size, l1_ways, l1i_latency, "L1I")
        self.l1d = Cache(l1d_size, l1_ways, l1d_latency, "L1D")
        self.l2 = Cache(l2_size, l2_ways, l2_latency, "L2")
        self.dram_min_latency = dram_min_latency
        self.dram_max_latency = dram_max_latency
        self.prefetch_degree = prefetch_degree
        self._row_shift = row_bytes.bit_length() - 1
        self._last_dram_row = -1
        self.dram_accesses = 0

    def _dram_latency(self, addr: int) -> int:
        """Row-buffer hit -> min latency; row conflict -> max latency."""
        self.dram_accesses += 1
        row = addr >> self._row_shift
        if row == self._last_dram_row:
            latency = self.dram_min_latency
        else:
            latency = self.dram_max_latency
        self._last_dram_row = row
        return latency

    def _prefetch(self, addr: int) -> None:
        """Degree-N stream prefetch of the following lines into L2."""
        for i in range(1, self.prefetch_degree + 1):
            self.l2.fill(addr + i * LINE_BYTES)

    def load_latency(self, addr: int) -> int:
        """Latency of a demand data load through the hierarchy."""
        # L1D hit fast path: Cache.access without the calls.  A hit on the
        # most recent way leaves the LRU order as it is; any other hit
        # moves the way to the MRU end, exactly like access().
        l1d = self.l1d
        line = addr >> _LINE_SHIFT
        ways = l1d._sets[line & l1d._index_mask]
        tag = line >> l1d._tag_shift
        if tag in ways:
            if ways[-1] != tag:
                ways.remove(tag)
                ways.append(tag)
            l1d.hits += 1
            return l1d.latency
        l1d.access(addr)  # the miss: counted and allocated as usual
        if self.l2.access(addr):
            self._prefetch(addr)
            return self.l1d.latency + self.l2.latency
        self._prefetch(addr)
        return self.l1d.latency + self.l2.latency + self._dram_latency(addr)

    def store_latency(self, addr: int) -> int:
        """Stores allocate in L1D; latency only matters for SQ drain."""
        if self.l1d.access(addr):
            return self.l1d.latency
        if self.l2.access(addr):
            return self.l1d.latency + self.l2.latency
        return self.l1d.latency + self.l2.latency + self._dram_latency(addr)

    def ifetch_latency(self, block_pc: int) -> int:
        """Latency of fetching an instruction block."""
        # L1I hit fast path, as in load_latency.
        l1i = self.l1i
        line = block_pc >> _LINE_SHIFT
        ways = l1i._sets[line & l1i._index_mask]
        tag = line >> l1i._tag_shift
        if tag in ways:
            if ways[-1] != tag:
                ways.remove(tag)
                ways.append(tag)
            l1i.hits += 1
            return l1i.latency
        l1i.access(block_pc)  # the miss: counted and allocated as usual
        if self.l2.access(block_pc):
            self._prefetch(block_pc)
            return self.l1i.latency + self.l2.latency
        self._prefetch(block_pc)
        return self.l1i.latency + self.l2.latency + self._dram_latency(block_pc)
