"""Global branch/path history and TAGE-style folded histories.

VTAGE and D-VTAGE index their partially tagged components with a hash of the
PC, the global *branch outcome* history and the *path* history (low-order bits
of recent branch targets).  TAGE hardware keeps, per component, circular
"folded" registers that are updated incrementally in O(1) per branch;
:class:`FoldedHistorySet` models exactly that: one :class:`FoldedHistory`
register per (history length, output width) pair a predictor's geometry
needs, snapshotted into an immutable :class:`FoldedHistoryState` that the
pipeline hands to every predict and commit-time train call.  Branch
registers are updated on every pushed bit; path registers, which fold
only the 16 newest path bits, are read from byte tables of the raw path
register after each push.  The raw shift registers (:class:`GlobalHistory`)
are kept alongside so on-demand folding stays available as the reference
formulation — the two are mathematically identical (XOR-folding is linear
in the history bits), which ``tests/test_history.py`` enforces over
randomized push/snapshot/restore sequences.
"""

from __future__ import annotations

from repro.common.bits import fold_bits, mask


class GlobalHistory:
    """A bounded global history register.

    ``push`` shifts new bits in at the LSB end.  ``snapshot``/``restore``
    provide O(1) checkpointing, which the pipeline model uses on every branch
    misprediction or value-misprediction squash.
    """

    __slots__ = ("capacity", "_mask", "_bits")

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError(f"history capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._mask = mask(capacity)
        self._bits = 0

    def push(self, value: int, bits: int = 1) -> None:
        """Shift ``bits`` low-order bits of ``value`` into the history."""
        self._bits = ((self._bits << bits) | (value & mask(bits))) & self._mask

    def push_outcome(self, taken: bool) -> None:
        """Shift a single branch outcome bit in."""
        self.push(1 if taken else 0, 1)

    def push_path(self, target_pc: int, bits: int = 2) -> None:
        """Shift low-order target-address bits in (path history)."""
        self.push(target_pc, bits)

    def value(self, length: int | None = None) -> int:
        """Return the most recent ``length`` bits (default: full register)."""
        if length is None:
            return self._bits
        return self._bits & mask(min(length, self.capacity))

    def folded(self, length: int, output_bits: int) -> int:
        """Return the most recent ``length`` bits folded to ``output_bits``."""
        return fold_bits(self.value(length), min(length, self.capacity), output_bits)

    def snapshot(self) -> int:
        return self._bits

    def restore(self, snapshot: int) -> None:
        self._bits = snapshot & self._mask

    def clear(self) -> None:
        self._bits = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GlobalHistory(capacity={self.capacity}, bits={self._bits:#x})"


class FoldedHistory:
    """Incrementally folded history as implemented in TAGE hardware.

    Kept alongside :class:`GlobalHistory` mainly to document (and test) the
    equivalence of the incremental circular-shift-register formulation with
    direct folding.  ``update`` must be called with every inserted and every
    evicted bit, exactly as the hardware does.
    """

    __slots__ = (
        "history_length",
        "output_bits",
        "_value",
        "_evict_pos",
        "_out_mask",
        "_rot_shift",
    )

    def __init__(self, history_length: int, output_bits: int) -> None:
        if output_bits <= 0:
            raise ValueError("output width must be positive")
        self.history_length = history_length
        self.output_bits = output_bits
        self._value = 0
        # Position at which the bit leaving the history re-enters the fold
        # (always < output_bits, so the eviction XOR stays in range).
        self._evict_pos = history_length % output_bits
        self._out_mask = mask(output_bits)
        self._rot_shift = output_bits - 1

    @property
    def value(self) -> int:
        return self._value

    def update(self, inserted_bit: int, evicted_bit: int) -> None:
        """Account for one bit entering and one leaving the history."""
        # Circular left shift by one, then XOR the moving bits in; both XOR
        # terms land below output_bits, so no final mask is needed.
        v = ((self._value << 1) | (self._value >> self._rot_shift)) & self._out_mask
        self._value = v ^ (inserted_bit & 1) ^ ((evicted_bit & 1) << self._evict_pos)

    def snapshot(self) -> int:
        return self._value

    def restore(self, snapshot: int) -> None:
        self._value = snapshot & mask(self.output_bits)

    def clear(self) -> None:
        self._value = 0


class FoldLayout:
    """Where every fold register of a :class:`FoldedHistorySet` lives.

    The set packs all its branch-history fold registers into one integer
    (see :class:`_PackedRegisters`) and all its path-history registers
    into another (see :func:`_path_tables`), in four regions laid out in
    registration order: index folds of the branch history, index folds of
    the path history, tag folds (``width`` bits) and their ``width - 1``
    twins, each twin in a ``width``-bit lane aligned with its tag fold.
    A layout maps
    a fold (by :func:`fold_key`) to its lanes; snapshots share their set's
    layout, so a consumer resolves its lanes once (:meth:`component_lanes`)
    and then reads any snapshot with a few shifts.
    """

    __slots__ = ("idx_pairs", "tag_pairs", "idx", "tag", "_blocks")

    def __init__(
        self,
        idx_pairs: list[tuple[int, int]],
        tag_pairs: list[tuple[int, int]],
        branch_offsets: list[int],
        path_offsets: list[int],
    ) -> None:
        n_idx = len(idx_pairs)
        n_tag = len(tag_pairs)
        self.idx_pairs = idx_pairs
        self.tag_pairs = tag_pairs
        #: (fold_key, branch lane, path lane, mask) per index fold.
        self.idx = tuple(
            (fold_key(length, width), branch_offsets[i], path_offsets[i],
             (1 << width) - 1)
            for i, (length, width) in enumerate(idx_pairs)
        )
        #: (fold_key, width lane, width-1 lane, mask) per tag fold.
        self.tag = tuple(
            (fold_key(length, width), branch_offsets[n_idx + i],
             branch_offsets[n_idx + n_tag + i], (1 << width) - 1)
            for i, (length, width) in enumerate(tag_pairs)
        )
        self._blocks: dict[tuple, tuple[int, int, int, int] | None] = {}

    def idx_folds(self, bfolds: int, pfolds: int) -> dict[int, int]:
        return {key: ((bfolds >> b) ^ (pfolds >> p)) & m
                for key, b, p, m in self.idx}

    def tag_folds(self, bfolds: int) -> dict[int, int]:
        return {key: ((bfolds >> f1) ^ ((bfolds >> f2) << 1)) & m
                for key, f1, f2, m in self.tag}

    def component_lanes(
        self,
        lengths: tuple[int, ...],
        index_bits: int,
        tag_bits: tuple[int, ...],
    ) -> tuple[int, int, int, int] | None:
        """Where a TAGE-style geometry's folds start, or None.

        Returns ``(index branch lane, index path lane, tag lane, twin
        lane)`` when the set registered the geometry's index pairs
        ``(length_c, index_bits)`` and tag pairs ``(length_c, tag_bits[c])``
        as contiguous runs, component by component — what
        ``fold_geometry()`` hands the pipeline.  Component ``c``'s lanes
        then sit ``c * index_bits`` (index) and ``sum(tag_bits[:c])`` (tag)
        bits above those starts, so with ``B``/``P`` a snapshot's
        ``bfolds``/``pfolds``, all index folds are ``(B >> ib) ^ (P >> ip)``
        and all tag folds ``(B >> t1) ^ ((B >> t2) << 1)``, lane by lane.
        """
        geometry = (lengths, index_bits, tag_bits)
        if geometry not in self._blocks:
            want_idx = [(length, index_bits) for length in lengths]
            want_tag = list(zip(lengths, tag_bits))
            i = _find_run(self.idx_pairs, want_idx)
            j = _find_run(self.tag_pairs, want_tag)
            self._blocks[geometry] = (
                None if i is None or j is None
                else (self.idx[i][1], self.idx[i][2],
                      self.tag[j][1], self.tag[j][2])
            )
        return self._blocks[geometry]


def _find_run(pairs: list, run: list) -> int | None:
    """Start of the first occurrence of ``run`` inside ``pairs``."""
    n = len(run)
    for i in range(len(pairs) - n + 1):
        if pairs[i:i + n] == run:
            return i
    return None


class FoldedHistoryState:
    """Immutable fetch-time snapshot of the histories plus their folds.

    Attribute-compatible with :class:`repro.predictors.base.HistoryState`
    (``branch``/``path`` raw register values) so it flows through the same
    adapter plumbing, but additionally carries the incrementally maintained
    fold registers, packed as the set's ``layout`` describes:
    ``bfolds`` holds every branch-history register, ``pfolds`` every
    path-history register.  Taking a snapshot therefore copies four ints.

    ``idx_folds``/``tag_folds`` unpack them on first use into dicts keyed
    by :func:`fold_key` of the (history length, output width) pair:

    * ``idx_folds[fold_key(hist_length, index_bits)]`` — the XOR of the
      folded branch history and the folded path history that
      ``tagged_index`` mixes into the table index;
    * ``tag_folds[fold_key(hist_length, tag_bits)]`` — the two-phase folded
      branch history (``h ^ (h2 << 1)``) that ``tagged_tag`` mixes into the
      tag.

    ``tagged_index``/``tagged_tag`` consume these by key and fall back to
    on-demand folding for geometries the owning :class:`FoldedHistorySet`
    was not configured with, so the values must equal ``fold_bits`` of the
    raw registers exactly — the set maintains them incrementally in O(1)
    per pushed bit, which is bit-identical (test-enforced).  Hot consumers
    skip the dicts and read their lanes directly (see
    :meth:`FoldLayout.component_lanes`).
    """

    __slots__ = ("branch", "path", "bfolds", "pfolds", "layout", "_idx", "_tag")

    def __init__(
        self,
        branch: int,
        path: int,
        bfolds: int,
        pfolds: int,
        layout: FoldLayout,
    ) -> None:
        self.branch = branch
        self.path = path
        self.bfolds = bfolds
        self.pfolds = pfolds
        self.layout = layout
        self._idx: dict[int, int] | None = None
        self._tag: dict[int, int] | None = None

    @property
    def idx_folds(self) -> dict[int, int]:
        d = self._idx
        if d is None:
            d = self._idx = self.layout.idx_folds(self.bfolds, self.pfolds)
        return d

    @property
    def tag_folds(self) -> dict[int, int]:
        d = self._tag
        if d is None:
            d = self._tag = self.layout.tag_folds(self.bfolds)
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FoldedHistoryState(branch={self.branch:#x}, path={self.path:#x}, "
            f"{len(self.layout.idx)} idx folds, {len(self.layout.tag)} tag folds)"
        )


#: Input width of the path-history fold in ``tagged_index`` (the hash uses at
#: most the 16 most recent path bits regardless of the component's length).
PATH_FOLD_BITS = 16

#: Output widths must fit the packed :func:`fold_key` encoding.
MAX_FOLD_WIDTH = 127


def fold_key(hist_length: int, output_bits: int) -> int:
    """Dictionary key of a fold in :class:`FoldedHistoryState`.

    Packed into one int (``length * 128 + width``) because the hot lookup
    path hits these dicts twice per tagged component per µ-op — an int key
    hashes in O(1) C-level work and needs no per-lookup tuple allocation.
    """
    return (hist_length << 7) | output_bits


class _PackedRegisters:
    """:class:`FoldedHistory` registers of the branch history, packed in
    one int.

    Each lane is ``(history length, register width, lane width)``; the
    register occupies the low ``register width`` bits of its lane (a zero
    width leaves the lane permanently zero).  One push applies
    :meth:`FoldedHistory.update` to every register at once: the circular
    shift is a shift of the whole int with the register top bits moved
    back to their lane bottoms (one step per distinct width), and the
    evicted bits are XORed in per distinct history length.
    """

    __slots__ = ("offsets", "tops", "lsbs", "wraps", "evicts")

    def __init__(self, lanes: list[tuple[int, int, int]]) -> None:
        self.offsets: list[int] = []
        tops = lsbs = 0
        wraps: dict[int, int] = {}
        evicts: dict[int, int] = {}
        off = 0
        for length, width, lane in lanes:
            self.offsets.append(off)
            if width:
                top = 1 << (off + width - 1)
                tops |= top
                lsbs |= 1 << off
                wraps[width - 1] = wraps.get(width - 1, 0) | top
                # The bit leaving a register's window is bit ``length - 1``
                # of the raw history before the push, keyed by its mask:
                # ``bits & mask`` is cheaper than shifting the long
                # register down to that bit.
                evicted = 1 << length - 1
                evicts[evicted] = (
                    evicts.get(evicted, 0) | 1 << (off + length % width)
                )
            off += lane
        self.tops = tops
        self.lsbs = lsbs
        self.wraps = tuple(sorted(wraps.items()))
        self.evicts = tuple(sorted(evicts.items()))


def _path_tables(
    idx_pairs: list[tuple[int, int]], offsets: list[int]
) -> tuple[list[int], list[int]]:
    """The packed path registers as a function of the raw path register.

    A path register of history length ``length`` and width ``width`` is
    ``fold_bits`` of the ``min(length, PATH_FOLD_BITS)`` newest raw bits,
    so raw bit ``j`` (0 = newest) lands at bit ``offset + j % width`` of
    every register whose length exceeds ``j``.  XOR-folding is linear, so
    the packed registers of raw value ``h`` are ``lo[h & 255] ^ hi[(h >> 8)
    & 255]``, each table entry the XOR of the columns of its set bits.
    """
    cols = [0] * PATH_FOLD_BITS
    for (length, width), off in zip(idx_pairs, offsets):
        for j in range(min(length, PATH_FOLD_BITS)):
            cols[j] ^= 1 << (off + j % width)
    tables = []
    for first in (0, 8):
        table = [0] * 256
        for v in range(1, 256):
            # v with its lowest set bit cleared, plus that bit's column.
            low = (v & -v).bit_length() - 1
            table[v] = table[v & (v - 1)] ^ cols[first + low]
        tables.append(table)
    return tables[0], tables[1]


class FoldedHistorySet:
    """Incrementally maintained folded histories for a predictor geometry.

    Owns the raw branch/path :class:`GlobalHistory` registers plus one
    circular fold register (:class:`FoldedHistory` semantics) per fold a
    registered geometry needs, packed per history into one int as
    :class:`FoldLayout` describes.  ``push_outcome`` updates every branch
    register in O(distinct widths + distinct lengths) per bit, independent
    of the history lengths.  A path register folds at most the
    :data:`PATH_FOLD_BITS` newest raw path bits, so the packed path
    registers are a linear function of those bits: ``push_path`` shifts
    the raw register and reads the packed registers from two 256-entry
    tables, one per byte (:func:`_path_tables`), whatever the number of
    bits pushed.  ``state`` returns the current
    :class:`FoldedHistoryState`, rebuilt lazily only after a push, so
    consecutive snapshots between branches share one immutable object.
    ``snapshot``/``restore`` checkpoint the whole set as four ints for
    squash recovery.

    ``idx_pairs`` / ``tag_pairs`` are iterables of ``(history_length,
    output_bits)`` as consumed by ``tagged_index`` / ``tagged_tag``, kept
    in the given order so each predictor's folds stay contiguous.
    ``path_capacity`` must hold the :data:`PATH_FOLD_BITS` bits the path
    folds read.
    """

    __slots__ = ("branch", "path", "layout", "_b", "_plo", "_phi", "_bv",
                 "_pv", "_state")

    def __init__(
        self,
        branch_capacity: int = 640,
        path_capacity: int = 64,
        idx_pairs: "tuple[tuple[int, int], ...] | set | list" = (),
        tag_pairs: "tuple[tuple[int, int], ...] | set | list" = (),
    ) -> None:
        if path_capacity < PATH_FOLD_BITS:
            raise ValueError(
                f"path capacity {path_capacity} holds fewer than the "
                f"{PATH_FOLD_BITS} bits the path folds read"
            )
        self.branch = GlobalHistory(branch_capacity)
        self.path = GlobalHistory(path_capacity)
        idx_pairs = list(idx_pairs)
        tag_pairs = list(tag_pairs)
        for _length, width in idx_pairs + tag_pairs:
            if not 0 < width <= MAX_FOLD_WIDTH:
                raise ValueError(f"fold width out of range: {width}")
        self._b = _PackedRegisters(
            [(length, width, width) for length, width in idx_pairs]
            + [(length, width, width) for length, width in tag_pairs]
            + [(length, width - 1, width) for length, width in tag_pairs]
        )
        path_offsets = []
        off = 0
        for _length, width in idx_pairs:
            path_offsets.append(off)
            off += width
        self._plo, self._phi = _path_tables(idx_pairs, path_offsets)
        self.layout = FoldLayout(
            idx_pairs, tag_pairs, self._b.offsets, path_offsets
        )
        self._bv = 0
        self._pv = 0
        self._state: FoldedHistoryState | None = None

    # -- pushes --------------------------------------------------------------

    def push_outcome(self, taken: bool) -> None:
        """Shift one branch outcome bit in, updating every fold."""
        bit = 1 if taken else 0
        regs = self._b
        raw = self.branch
        bits = raw._bits
        v = self._bv
        top = v & regs.tops
        v = (v ^ top) << 1
        for shift, tops in regs.wraps:
            v |= (top & tops) >> shift
        if bit:
            v ^= regs.lsbs
        for evicted, lanes in regs.evicts:
            if bits & evicted:
                v ^= lanes
        self._bv = v
        raw._bits = ((bits << 1) | bit) & raw._mask
        self._state = None

    def push_path(self, target_pc: int, bits: int = 2) -> None:
        """Shift low-order target-address bits in (path history)."""
        raw = self.path
        h = raw._bits = (
            (raw._bits << bits) | (target_pc & ((1 << bits) - 1))
        ) & raw._mask
        self._pv = self._plo[h & 255] ^ self._phi[(h >> 8) & 255]
        self._state = None

    # -- snapshots -----------------------------------------------------------

    def state(self) -> FoldedHistoryState:
        """The current fold snapshot (cached until the next push)."""
        s = self._state
        if s is None:
            s = self._state = FoldedHistoryState(
                self.branch._bits, self.path._bits, self._bv, self._pv,
                self.layout,
            )
        return s

    def snapshot(self) -> tuple:
        """Checkpoint of raw registers and every fold."""
        return (self.branch.snapshot(), self.path.snapshot(), self._bv, self._pv)

    def restore(self, snap: tuple) -> None:
        branch, path, self._bv, self._pv = snap
        self.branch.restore(branch)
        self.path.restore(path)
        self._state = None

    def clear(self) -> None:
        self.branch.clear()
        self.path.clear()
        self._bv = 0
        self._pv = 0
        self._state = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FoldedHistorySet({len(self._b.offsets)} branch / "
            f"{len(self.layout.idx)} path fold lanes)"
        )
