"""Shared front-end precomputation for batched multi-variant sweeps.

All sweep variants in a Fig 6/7 grid consume the same dynamic µ-op
stream, and everything upstream of the value predictor is
variant-independent:

* the fetch-block grouping (``iter_block_instances``);
* the folded branch/path history (``FoldedHistorySet`` evolves purely
  from the program-order outcome/target stream);
* BTB redirect detection (lookups/installs happen in program order at
  every taken branch, independent of pipeline timing);
* every table *index* hash — TAGE and D-VTAGE slots are functions of
  (pc/key, folded history at fetch), and the history at any µ-op is
  fixed by the trace.

This module runs that front end exactly once and materialises flat
per-µ-op tuples, per-fetch-group metadata, and the folded-history
*epoch* stream (the history only changes at branches, so each distinct
state gets one epoch id and one captured ``FoldedHistoryState``).
Both hashes are the serial predictors' own
:class:`~repro.predictors.base.TaggedSlots`, reading each snapshot's
packed fold registers: TAGE slots — ``(indices, tags)`` as
``TAGEBranchPredictor.predict`` reads them — are computed eagerly (every
conditional branch needs them); D-VTAGE lanes on demand per (epoch,
block key) through :class:`DVTAGESlotGeometry`, one per slot geometry.

What is *not* shareable: TAGE table contents (training is deferred to
variant-dependent commit cycles), D-VTAGE state, and all pipeline
timing.  Those live in the fused per-variant walk
(:mod:`repro.batch.runner`).
"""

from __future__ import annotations

from typing import Sequence

from repro.branch.btb import BranchTargetBuffer
from repro.bebop.predictor import dvtage_slots
from repro.common.history import FoldedHistorySet, FoldedHistoryState
from repro.isa.instruction import LatencyClass
from repro.pipeline.core import iter_block_instances
from repro.predictors.base import TaggedSlots, table_index
from repro.predictors.vtage import geometric_history_lengths
from repro.workloads.trace import Trace

# TAGE geometry mirrors TAGEBranchPredictor defaults (branch/tage.py).
TAGE_COMPONENTS = 12
TAGE_INDEX_BITS = 10
TAGE_ENTRIES = 1 << TAGE_INDEX_BITS
TAGE_BIMODAL_BITS = 12
TAGE_TAG_BITS = tuple(min(8 + i // 2, 15) for i in range(TAGE_COMPONENTS))
TAGE_HISTORY = geometric_history_lengths(TAGE_COMPONENTS, 8, 640)

# Execution-latency constants mirror pipeline/core.py (_LATENCY and the
# eole_4_60 functional-unit pools).
_LATENCY = {
    LatencyClass.ALU: 1,
    LatencyClass.MUL: 3,
    LatencyClass.DIV: 25,
    LatencyClass.FP: 3,
    LatencyClass.FPMUL: 5,
    LatencyClass.FPDIV: 10,
    LatencyClass.BRANCH: 1,
    LatencyClass.NONE: 1,
    LatencyClass.MEM: 1,
}
_POOL = {
    LatencyClass.ALU: 4,
    LatencyClass.BRANCH: 4,
    LatencyClass.NONE: 4,
    LatencyClass.MUL: 1,
    LatencyClass.FP: 2,
    LatencyClass.FPMUL: 2,
}
# Distinct small id per latency class for packed (cycle << 4) | cid
# functional-unit occupancy keys in the fused walk.
_CID = {cls: i for i, cls in enumerate(LatencyClass)}

# lat_kind discriminator in the per-µ-op tuple.
KIND_NORMAL = 0
KIND_DIV = 1
KIND_FPDIV = 2
KIND_MEM = 3

# Per-µ-op tuple field indices (see precompute_front_end).
U_SEQ = 0
U_PC = 1
U_BLOCK_PC = 2
U_BOUNDARY = 3
U_DEST = 4
U_SRCS = 5
U_VALUE = 6
U_IS_LOAD = 7
U_IS_STORE = 8
U_IS_LOAD_IMM = 9
U_MEM_ADDR = 10
U_IS_BRANCH = 11
U_IS_COND = 12
U_TAKEN = 13
U_IS_LAST = 14
U_ELIGIBLE = 15
U_EARLY_OK = 16
U_LAT_KIND = 17
U_CID = 18
U_POOL = 19
U_LAT = 20
U_TAGE = 21
U_BTB_MISS = 22
U_EPOCH = 23


def tage_slots() -> TaggedSlots:
    """The tagged-component hashes of the default TAGE."""
    return TaggedSlots(TAGE_HISTORY, TAGE_INDEX_BITS, TAGE_TAG_BITS, TAGE_ENTRIES)


def geometry_key(config) -> tuple:
    """Slot-geometry identity of a BlockDVTAGEConfig (npred-independent)."""
    return (
        config.base_entries,
        config.tagged_entries,
        config.components,
        config.first_tag_bits,
        config.lvt_tag_bits,
        config.min_history,
        config.max_history,
    )


class DVTAGESlotGeometry:
    """The D-VTAGE slots of one geometry at the front end's history epochs.

    ``slots(epoch, key)`` returns ``((lvt_index, lvt_tag), lanes)`` for a
    block key: its LVT entry (memoised per key) and the tagged components'
    packed index and tag hashes under the history snapshot of ``epoch``,
    computed by the same :class:`~repro.predictors.base.TaggedSlots` the
    serial :class:`~repro.bebop.predictor.BlockDVTAGE` reads through
    (``hash.descending`` walks the lanes, ``hash.unpack`` expands them).
    Shared by every variant with this geometry.
    """

    __slots__ = ("hash", "states", "base_index_bits", "lvt_tag_mask", "_lvt")

    def __init__(self, config, states: Sequence[FoldedHistoryState]) -> None:
        self.hash = dvtage_slots(config)
        self.states = states
        self.base_index_bits = config.base_entries.bit_length() - 1
        self.lvt_tag_mask = (1 << config.lvt_tag_bits) - 1
        self._lvt: dict[int, tuple[int, int]] = {}

    def slots(self, epoch: int, key: int) -> tuple[tuple[int, int], tuple[int, int]]:
        lvt = self._lvt.get(key)
        if lvt is None:
            bits = self.base_index_bits
            lvt = self._lvt[key] = (
                table_index(key, bits), (key >> bits) & self.lvt_tag_mask
            )
        return lvt, self.hash.lanes(key, self.states[epoch])


class FrontEnd:
    """Precomputed variant-independent streams for one trace.

    ``group_meta[i]`` describes fetch group ``groups[i]``: ``(block key,
    static group id, positions of its VP-eligible µ-ops, their byte
    boundaries)``, one shared tuple per static group.
    """

    __slots__ = ("trace", "uops", "groups", "group_meta", "states")

    def __init__(
        self,
        trace: Trace,
        uops: list[tuple],
        groups: list[tuple[int, int]],
        group_meta: list[tuple],
        states: list[FoldedHistoryState],
    ) -> None:
        self.trace = trace
        self.uops = uops
        self.groups = groups
        self.group_meta = group_meta
        self.states = states


def precompute_front_end(
    trace: Trace,
    extra_idx_pairs: Sequence[tuple[int, int]] = (),
    extra_tag_pairs: Sequence[tuple[int, int]] = (),
) -> FrontEnd:
    """Run the shared front end once over ``trace``.

    ``extra_*_pairs`` register additional folded-history widths (the
    ``fold_geometry()`` of each distinct D-VTAGE geometry in the batch,
    one after another).  Each geometry's folds then form contiguous runs
    in the packed registers, so its :class:`TaggedSlots` reads them
    straight from every snapshot; a fold is a pure function of the
    history, so the union yields bit-identical hashes for every consumer.
    """
    tage_hash = tage_slots()
    tage_idx, tage_tag = tage_hash.fold_geometry()
    hists = FoldedHistorySet(
        640, 64, tage_idx + tuple(extra_idx_pairs), tage_tag + tuple(extra_tag_pairs)
    )
    tage_slots_of = tage_hash.slots
    btb = BranchTargetBuffer()
    source = trace.uops
    states: list[FoldedHistoryState] = []
    uops: list[tuple] = []
    epoch = 0
    bim_mask = (1 << TAGE_BIMODAL_BITS) - 1
    for uop in source:
        if len(states) == epoch:
            states.append(hists.state())
        is_branch = uop.is_branch
        is_cond = uop.is_cond_branch
        taken = uop.branch_taken
        tage = None
        if is_cond:
            pc = uop.pc
            tage = ((pc >> 2) & bim_mask, tage_slots_of(pc, states[epoch]))
        btb_miss = False
        if is_branch and taken:
            target = btb.lookup(uop.pc)
            if target != uop.branch_target:
                btb_miss = True
                btb.install(uop.pc, uop.branch_target)
        lat_class = uop.latency_class
        if lat_class is LatencyClass.DIV:
            lat_kind = KIND_DIV
            pool = 0
        elif lat_class is LatencyClass.FPDIV:
            lat_kind = KIND_FPDIV
            pool = 0
        elif lat_class is LatencyClass.MEM:
            lat_kind = KIND_MEM
            pool = 2 if uop.is_load else 1
        else:
            lat_kind = KIND_NORMAL
            pool = _POOL[lat_class]
        early_ok = (
            (lat_class is LatencyClass.ALU or lat_class is LatencyClass.NONE)
            and not uop.is_load
            and not uop.is_store
        )
        uops.append(
            (
                uop.seq,
                uop.pc,
                uop.block_pc,
                uop.boundary,
                uop.dest,
                uop.srcs,
                uop.value,
                uop.is_load,
                uop.is_store,
                uop.is_load_imm,
                uop.mem_addr,
                is_branch,
                is_cond,
                taken,
                uop.is_last_uop,
                uop.is_vp_eligible,
                early_ok,
                lat_kind,
                _CID[lat_class],
                pool,
                _LATENCY[lat_class],
                tage,
                btb_miss,
                epoch,
            )
        )
        pushed = False
        if is_cond:
            hists.push_outcome(taken)
            pushed = True
        if is_branch and taken:
            hists.push_path(uop.branch_target)
            pushed = True
        if pushed:
            epoch += 1
    groups = list(iter_block_instances(source))
    # Fetch groups with the same first µ-op and length are one static
    # group (fall-through code of one block): they share one meta tuple.
    static: dict[tuple[int, int, int], tuple] = {}
    group_meta: list[tuple] = []
    for start, end in groups:
        first = source[start]
        skey = (first.pc, first.uop_index, end - start)
        meta = static.get(skey)
        if meta is None:
            positions = tuple(
                i - start for i in range(start, end) if uops[i][U_ELIGIBLE]
            )
            meta = static[skey] = (
                first.block_pc >> 4,
                len(static),
                positions,
                tuple(uops[start + pos][U_BOUNDARY] for pos in positions),
            )
        group_meta.append(meta)
    return FrontEnd(trace, uops, groups, group_meta, states)
