"""The fused per-variant walk for batched sweeps.

``run_fused_variant`` is a transcription of the serial hot path —
``pipeline/core.PipelineModel.run`` + ``bebop/engine.BeBoPEngine`` +
``bebop/predictor.BlockDVTAGE`` + ``branch/tage.TAGEBranchPredictor`` —
specialised to the ``eole_4_60`` BeBoP configuration and fed by the
precomputed variant-independent streams of :mod:`repro.batch.precompute`
(per-µ-op tuples, TAGE slots, BTB miss bits, D-VTAGE hash lanes per
slot geometry).  All instrumentation hooks of the serial path (obs
counters, timeline recorders, CPI stacks, provenance) are stats-passive
there and simply absent here.

The serial python path remains the golden contract: every branch of this
function mirrors a specific statement of the originals, including RNG
draw order (TAGE allocation's chance-then-uniform choice, FPC's
no-draw-at-p>=1 advance) and container semantics (FIFO identity removal,
heap fixups with a unique tiebreak).  ``tests/test_batch_parity.py``
proves SimStats bit-identity against the serial path; treat any edit
here that is not paired with a parity run as wrong.

Some pieces are not transcribed but shared with the serial path: the
speculative window is the engine's own
:class:`~repro.bebop.spec_window.SpeculativeWindow`, both hashes are the
predictors' :class:`~repro.predictors.base.TaggedSlots` (TAGE slots
scanned like ``TAGEBranchPredictor.predict``, D-VTAGE lanes like
``BlockDVTAGE.read``), and fetch-time attribution and update-time byte-tag reassignment go through the same
:class:`~repro.bebop.attribution.TagMemo` rule.  The serial walk has the
rest of this walk's specialisations too (DESIGN.md §11): config and
collaborators bound to locals, statistics in locals, cheap occupancy
counters instead of per-cycle dicts, inline L1 hit paths, column-slice
vector reads, and inline FPC advance and compose.  What remains specific
to this walk is the front end precomputed once and shared by every
variant, the ``eole_4_60`` constants folded in, and the engine and
predictor update inlined with pending blocks as plain lists.

Table state arrives as the column lists of each variant's own
``TableBank`` banks, built by :mod:`repro.batch.dispatch`.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush

from repro.batch.precompute import (
    TAGE_COMPONENTS,
    DVTAGESlotGeometry,
    FrontEnd,
    U_EPOCH,
)
from repro.bebop.attribution import (
    FREE_TAG,
    TagMemo,
    attribute_predictions,
    update_tag_assignment,
)
from repro.bebop.recovery import RecoveryPolicy
from repro.bebop.spec_window import SpeculativeWindow
from repro.common.bits import WORD_MASK
from repro.pipeline.caches import MemoryHierarchy
from repro.pipeline.stats import SimStats
from repro.predictors.confidence import PAPER_FPC_PROBABILITIES

_M64 = WORD_MASK
_HALF = 1 << 63  # XorShift64.chance(0.5) threshold: int(0.5 * 2**64)

# eole_4_60 CoreConfig constants (pipeline/config.py).  The dispatcher
# only routes jobs with pipeline == "eole_4_60" here.
_ISSUE_W = 4
_DECODE_W = 8
_FE_DEPTH = 15
_BE_DEPTH = 6
_FETCH_BLOCKS = 2
_FQ = 48
_ROB = 192
_IQ = 60
_LQ = 72
_SQ = 48
_COMMIT_W = 8
_PRUNE_INTERVAL = 4096

# FPC advance thresholds per level: None = certain advance (no RNG
# draw — XorShift64.chance returns early for p >= 1.0), -1 = never.
_FPC_THRESHOLDS = tuple(
    None if p >= 1.0 else (-1 if p <= 0.0 else int(p * (WORD_MASK + 1)))
    for p in PAPER_FPC_PROBABILITIES
)
_FPC_MAX = 7

# PendingBlock-as-list field indices (bebop/update_queue.PendingBlock
# plus the BlockReadout fields update time needs; use_masked is
# write-only in the serial engine and dropped here).
_P_SEQ = 0
_P_BLOCK_PC = 1
_P_VALUES = 2
_P_RETIRED = 3
_P_BYTE_TAGS = 4
_P_PROVIDER = 5
_P_PINDEX = 6
_P_PTAG = 7
_P_STRIDES = 8
_P_CONF = 9
_P_ALT = 10
_P_LANES = 11
_P_LIDX = 12
_P_LTAG = 13


def run_fused_variant(
    fe: FrontEnd,
    config,
    window_capacity: int | None,
    policy: RecoveryPolicy,
    tables: dict[str, list[int]],
    geo: DVTAGESlotGeometry,
    warmup_uops: int,
) -> SimStats:
    """Simulate one variant over the precomputed front end.

    Bit-identical to ``run_bebop_eole(trace, make_bebop_engine(config,
    window=window_capacity, policy=policy), warmup_uops)``.
    """
    trace = fe.trace
    U = fe.uops
    groups = fe.groups
    group_meta = fe.group_meta
    stats = SimStats(workload=trace.name, config="eole_4_60")
    if not U:
        return stats

    # ---- D-VTAGE constants / state ------------------------------------
    npred = config.npred
    stride_bits = config.stride_bits
    s_sign = 1 << (stride_bits - 1)
    s_mod = 1 << stride_bits
    s_mask = s_mod - 1
    useful_reset_period = config.useful_reset_period
    propagate = config.propagate_confidence
    monotonic = config.monotonic_byte_tags

    l_tag = tables["l_tag"]
    l_last = tables["l_last"]
    l_byte = tables["l_byte"]
    v_strides = tables["v_strides"]
    v_conf = tables["v_conf"]
    t_tag = tables["t_tag"]
    t_strides = tables["t_strides"]
    t_conf = tables["t_conf"]
    t_useful = tables["t_useful"]
    t_ugen = tables["t_ugen"]
    # TAGE banks.
    b_ctr = tables["b_ctr"]
    bt_tag = tables["bt_tag"]
    bt_ctr = tables["bt_ctr"]
    bt_useful = tables["bt_useful"]
    bt_ugen = tables["bt_ugen"]

    geo_slots = geo.slots
    dv_desc = geo.hash.descending
    dv_imask = geo.hash.index_mask
    dv_unpack = geo.hash.unpack
    # The byte-tag memos of BeBoPEngine.fetch_group (per static group)
    # and BlockDVTAGE.update (per LVT entry).
    attribution = TagMemo()
    tag_updates = TagMemo(monotonic)

    # Inline RNG states (XorShift64; seeds match the serial constructors).
    rng_dv = [0xBEB0]
    rng_fpc = [0xF9C]
    rng_tage = [0x7A63]
    dv_updates = [0]
    dv_gen = [0]
    tage_updates = [0]
    tage_gen = [0]
    use_alt = [8]

    # ---- recovery policy / window -------------------------------------
    repredicts = policy.repredicts
    reuses_predictions = policy.reuses_predictions
    squashes_head = policy.squashes_head
    is_ideal = policy is RecoveryPolicy.IDEAL
    window = SpeculativeWindow(window_capacity)

    # ---- engine state --------------------------------------------------
    fifo: list[list] = []        # pending blocks in push order
    deferred: deque = deque()    # (apply_cycle, pending)
    fixups: list[tuple] = []     # heap of (cycle, tiebreak, pending, slot, value)
    fixup_counter = 0
    deferred_bp: deque = deque()  # (apply_cycle, bim_index, tage_slots, taken, meta)

    memory = MemoryHierarchy()
    load_latency = memory.load_latency
    ifetch_latency = memory.ifetch_latency
    # Inline L1 hit fast paths: only l1d/l2 *misses* reach SimStats, so a
    # hit may skip the hit counter, but must preserve LRU recency (it
    # decides future evictions and therefore timing).
    _l1i = memory.l1i
    l1i_sets = _l1i._sets
    l1i_mask = _l1i._index_mask
    l1i_tshift = _l1i.sets.bit_length() - 1
    _l1d = memory.l1d
    l1d_sets = _l1d._sets
    l1d_mask = _l1d._index_mask
    l1d_tshift = _l1d.sets.bit_length() - 1
    _l1d_lat = _l1d.latency

    # ---- predictor training closures ----------------------------------

    def dv_allocate(pending, observed, correct_slots):
        # BlockDVTAGE._allocate
        gen = dv_gen[0]
        scanned = dv_unpack(pending[_P_LANES], pending[_P_PROVIDER])
        candidates = [
            slot for slot in scanned
            if t_useful[slot[0]] == 0 or t_ugen[slot[0]] != gen
        ]
        if not candidates:
            for index, _tag in scanned:
                t_useful[index] = 0
                t_ugen[index] = gen
            return
        x = rng_dv[0]
        x ^= (x << 13) & _M64
        x ^= x >> 7
        x ^= (x << 17) & _M64
        rng_dv[0] = x
        index, tag = candidates[x % len(candidates)]
        t_tag[index] = tag
        t_useful[index] = 0
        t_ugen[index] = gen
        base = index * npred
        r_strides = pending[_P_STRIDES]
        r_conf = pending[_P_CONF]
        for m in range(npred):
            if m in correct_slots:
                t_strides[base + m] = r_strides[m]
                t_conf[base + m] = r_conf[m] if propagate else 0
            elif m in observed:
                t_strides[base + m] = observed[m]
                t_conf[base + m] = 0
            else:
                t_strides[base + m] = r_strides[m]
                t_conf[base + m] = r_conf[m] if propagate else 0

    def dv_update(pending):
        # BlockDVTAGE.update (return value unused by the engine)
        retired = pending[_P_RETIRED]
        if not retired:
            return
        lvt_index = pending[_P_LIDX]
        lvt_tag = pending[_P_LTAG]
        lvt_base = lvt_index * npred
        fresh = l_tag[lvt_index] != lvt_tag
        boundaries = [boundary for boundary, _ in retired]
        retagged = ()
        if fresh:
            assignment, new_tags = update_tag_assignment(
                [FREE_TAG] * npred, boundaries, fresh_allocation=True
            )
        else:
            byte_tags = l_byte[lvt_base:lvt_base + npred]
            assignment, new_tags = tag_updates.reassign(
                lvt_index, byte_tags, boundaries
            )
            if new_tags != byte_tags:
                retagged = [
                    s for s in range(npred) if new_tags[s] != byte_tags[s]
                ]
        provider = pending[_P_PROVIDER]
        provider_index = pending[_P_PINDEX]
        if provider == 0:
            provider_live = True
            p_strides, p_conf = v_strides, v_conf
        else:
            provider_live = t_tag[provider_index] == pending[_P_PTAG]
            p_strides, p_conf = t_strides, t_conf
        p_base = provider_index * npred

        any_wrong = False
        any_useful = False
        observed: dict[int, int] = {}
        correct_slots: set[int] = set()
        r_values = pending[_P_VALUES]
        r_strides = pending[_P_STRIDES]
        r_alt = pending[_P_ALT]
        for (boundary, actual), slot in zip(retired, assignment):
            if slot is None:
                continue
            prev_last = l_last[lvt_base + slot]
            # _truncate(actual - prev_last) == (actual - prev_last) & mask
            observed[slot] = (actual - prev_last) & s_mask
            correct = (not fresh) and r_values[slot] == actual
            if correct:
                correct_slots.add(slot)
                if r_alt[slot] != r_strides[slot]:
                    any_useful = True
            else:
                any_wrong = True
            if fresh:
                l_last[lvt_base + slot] = actual
                continue
            if provider_live and slot not in retagged:
                if correct:
                    # FPCPolicy.advance, inline.
                    level = p_conf[p_base + slot]
                    if level < _FPC_MAX:
                        threshold = _FPC_THRESHOLDS[level]
                        if threshold is None:
                            p_conf[p_base + slot] = level + 1
                        elif threshold >= 0:
                            x = rng_fpc[0]
                            x ^= (x << 13) & _M64
                            x ^= x >> 7
                            x ^= (x << 17) & _M64
                            rng_fpc[0] = x
                            if x < threshold:
                                p_conf[p_base + slot] = level + 1
                else:
                    p_conf[p_base + slot] = 0
                    p_strides[p_base + slot] = observed[slot]
            elif provider_live:
                p_conf[p_base + slot] = 0
                p_strides[p_base + slot] = observed[slot]
            l_last[lvt_base + slot] = actual

        if provider_live and provider > 0:
            if any_wrong:
                t_useful[provider_index] = 0
                t_ugen[provider_index] = dv_gen[0]
            elif any_useful:
                t_useful[provider_index] = 1
                t_ugen[provider_index] = dv_gen[0]

        l_tag[lvt_index] = lvt_tag
        l_byte[lvt_base:lvt_base + npred] = new_tags

        if any_wrong and not fresh:
            dv_allocate(pending, observed, correct_slots)
        # _tick_useful_reset
        ticks = dv_updates[0] + 1
        if ticks >= useful_reset_period:
            dv_updates[0] = 0
            dv_gen[0] += 1
        else:
            dv_updates[0] = ticks

    def tage_allocate(tage_slots, provider, taken):
        # TAGEBranchPredictor._allocate
        indices, tags = tage_slots
        gen = tage_gen[0]
        candidates = []
        for comp in range(provider, TAGE_COMPONENTS):
            index = indices[comp]
            if bt_ugen[index] != gen:
                bt_useful[index] = 0
                bt_ugen[index] = gen
            if bt_useful[index] == 0:
                candidates.append(comp)
        if not candidates:
            for index in indices[provider:]:
                u = bt_useful[index] - 1
                bt_useful[index] = u if u > 0 else 0
            return
        choice = None
        if len(candidates) > 1:
            x = rng_tage[0]
            x ^= (x << 13) & _M64
            x ^= x >> 7
            x ^= (x << 17) & _M64
            rng_tage[0] = x
            if x < _HALF:
                choice = candidates[0]
        if choice is None:
            x = rng_tage[0]
            x ^= (x << 13) & _M64
            x ^= x >> 7
            x ^= (x << 17) & _M64
            rng_tage[0] = x
            choice = candidates[x % len(candidates)]
        index = indices[choice]
        bt_tag[index] = tags[choice]
        bt_ctr[index] = 4 if taken else 3
        bt_useful[index] = 0
        bt_ugen[index] = gen

    def tage_train(bim_index, tage_slots, taken, meta):
        # TAGEBranchPredictor.train; meta = (provider, index, tag,
        # alt_taken, provider_weak)
        provider = meta[0]
        if provider == 0:
            ctr = b_ctr[bim_index]
            b_ctr[bim_index] = min(3, ctr + 1) if taken else max(0, ctr - 1)
            if meta[3] != taken:
                tage_allocate(tage_slots, 0, taken)
        else:
            index = meta[1]
            if bt_tag[index] == meta[2]:
                ctr = bt_ctr[index]
                provider_taken = ctr >= 4
                provider_correct = provider_taken == taken
                bt_ctr[index] = min(7, ctr + 1) if taken else max(0, ctr - 1)
                gen = tage_gen[0]
                if bt_ugen[index] != gen:
                    bt_useful[index] = 0
                    bt_ugen[index] = gen
                if provider_correct and meta[3] != provider_taken:
                    bt_useful[index] = min(3, bt_useful[index] + 1)
                elif not provider_correct:
                    bt_useful[index] = max(0, bt_useful[index] - 1)
                if meta[4] and meta[3] != provider_taken:
                    if meta[3] == taken:
                        use_alt[0] = min(15, use_alt[0] + 1)
                    else:
                        use_alt[0] = max(0, use_alt[0] - 1)
                if not provider_correct:
                    tage_allocate(tage_slots, provider, taken)
            else:
                tage_allocate(tage_slots, provider, taken)
        # _tick
        ticks = tage_updates[0] + 1
        if ticks >= 262144:
            tage_updates[0] = 0
            tage_gen[0] += 1
        else:
            tage_updates[0] = ticks

    # ---- machine state (pipeline/core.run) -----------------------------
    fetch_cycle = 0
    blocks_in_cycle = 0
    next_fetch_min = 0
    last_dispatch = 0
    # Per-cycle occupancy counters.  The serial path keeps these in
    # pruned dicts; counts never exceed the per-cycle width limits
    # (<= 8), so cycle-indexed bytearrays are equivalent and cheaper.
    # ``fu_b`` packs (cycle << 4) | class_id like the serial fu key.
    cap = 1 << 16
    disp_cnt = bytearray(cap)
    iss_cnt = bytearray(cap)
    com_cnt = bytearray(cap)
    fu_b = bytearray(cap << 4)

    def _grow(n):
        nonlocal cap
        new = cap
        while new <= n + 64:
            new <<= 1
        disp_cnt.extend(bytes(new - cap))
        iss_cnt.extend(bytes(new - cap))
        com_cnt.extend(bytes(new - cap))
        fu_b.extend(bytes((new - cap) << 4))
        cap = new
        return new

    div_free = 0
    fpdiv_free = 0
    last_commit = 0
    rob_commits: deque[int] = deque(maxlen=_ROB)
    dispatch_cycles: deque[int] = deque(maxlen=_FQ)
    iq_issues: deque[int] = deque(maxlen=_IQ)
    lq_completes: deque[int] = deque(maxlen=_LQ)
    sq_completes: deque[int] = deque(maxlen=_SQ)
    rob_count = 0
    fq_count = 0
    iq_count = 0
    lq_count = 0
    sq_count = 0
    reg_avail: dict[int, int] = {}
    store_ready: dict[int, int] = {}
    next_prune = _PRUNE_INTERVAL

    measuring = warmup_uops == 0
    base_cycle = 0
    uop_index = 0

    s_uops = 0
    s_insts = 0
    s_branches = 0
    s_branch_mispredicts = 0
    s_btb_misses = 0
    s_vp_eligible = 0
    s_vp_predicted = 0
    s_vp_used = 0
    s_vp_used_correct = 0
    s_vp_squashes = 0
    s_early = 0
    s_late = 0

    gi = 0
    n_groups = len(groups)
    pending_refetch = None        # (start, end, handle pending)
    reuse_next_group = None
    reuse_block_pc = -1
    gkey = 0

    while gi < n_groups or pending_refetch is not None:
        if pending_refetch is not None:
            gstart, gend, reuse = pending_refetch
            pending_refetch = None
            # Dynamic remainder of the same block: gkey persists from the
            # originating static group (same block_pc by construction).
            positions = tuple(
                i - gstart for i in range(gstart, gend) if U[i][15]
            )
            boundaries = tuple(U[gstart + pos][3] for pos in positions)
            gid = None
        else:
            gstart, gend = groups[gi]
            gkey, gid, positions, boundaries = group_meta[gi]
            gi += 1
            reuse = None
            if reuse_next_group is not None:
                if U[gstart][2] == reuse_block_pc:
                    reuse = reuse_next_group
                reuse_next_group = None

        block_pc = U[gstart][2]
        glen = gend - gstart

        # ---- fetch ----------------------------------------------------
        c = fetch_cycle if fetch_cycle >= next_fetch_min else next_fetch_min
        if fq_count >= _FQ:
            t = dispatch_cycles[0]
            if t > c:
                c = t
        if c > fetch_cycle:
            fetch_cycle = c
            blocks_in_cycle = 0
        if blocks_in_cycle >= _FETCH_BLOCKS:
            fetch_cycle += 1
            blocks_in_cycle = 0
        _line = block_pc >> 6
        _ways = l1i_sets[_line & l1i_mask]
        _tg = _line >> l1i_tshift
        if _ways and _ways[-1] == _tg:
            ifetch_lat = 1
        elif _tg in _ways:
            _ways.remove(_tg)
            _ways.append(_tg)
            ifetch_lat = 1
        else:
            ifetch_lat = ifetch_latency(block_pc)
        block_avail = fetch_cycle + ifetch_lat - 1
        blocks_in_cycle += 1
        if ifetch_lat > 1:
            fetch_cycle = block_avail
            blocks_in_cycle = 1

        # ---- value prediction (BeBoPEngine.fetch_group) ----------------
        # _apply_until(fetch_cycle): result fixups first, then deferred
        # trainings + window retires.
        while fixups and fixups[0][0] <= fetch_cycle:
            _c, _n, p, slot, value = heappop(fixups)
            window.correct_slot(p[_P_BLOCK_PC], p[_P_SEQ], slot, value)
        while deferred and deferred[0][0] <= fetch_cycle:
            p = deferred.popleft()[1]
            dv_update(p)
            window.retire(p[_P_BLOCK_PC], p[_P_SEQ])

        if reuse is None or repredicts:
            # BeBoPEngine.fetch_group: BlockDVTAGE.read, the window probe
            # and compose.
            (lvt_index, lvt_tag), lanes = geo_slots(U[gstart][U_EPOCH], gkey)
            x, t = lanes
            hit = alt = -1
            for comp, base, shift, tshift, tmask in dv_desc:
                index = base + ((x >> shift) & dv_imask)
                if t_tag[index] == (t >> tshift) & tmask:
                    if hit >= 0:
                        alt = index
                        break
                    hit = index
                    provider = comp + 1
                    provider_tag = (t >> tshift) & tmask
            lvt_base = lvt_index * npred
            lvt_hit = l_tag[lvt_index] == lvt_tag
            if lvt_hit:
                lvt_last = l_last[lvt_base:lvt_base + npred]
                byte_tags = l_byte[lvt_base:lvt_base + npred]
            else:
                lvt_last = [0] * npred
                byte_tags = [FREE_TAG] * npred
            if hit >= 0:
                provider_index = hit
                pb = hit * npred
                strides = t_strides[pb:pb + npred]
                conf = t_conf[pb:pb + npred]
                if alt >= 0:
                    ab = alt * npred
                    alt_strides = t_strides[ab:ab + npred]
                else:
                    alt_strides = v_strides[lvt_base:lvt_base + npred]
            else:
                provider = 0
                provider_index = lvt_index
                provider_tag = 0
                strides = v_strides[lvt_base:lvt_base + npred]
                conf = v_conf[lvt_base:lvt_base + npred]
                alt_strides = list(strides)
            spec_entry = window.lookup_entry(block_pc)
            if spec_entry is not None:
                last_values = spec_entry.values
                usable = True
            elif lvt_hit:
                last_values = lvt_last
                usable = True
            else:
                last_values = lvt_last
                usable = False
            # compose: prediction = last value + signed stride, mod 2^64.
            values = [0] * npred
            for m in range(npred):
                s = strides[m]
                if s >= s_sign:
                    s -= s_mod
                values[m] = (last_values[m] + s) & _M64
            first_seq = U[gstart][0]
            window.insert(block_pc, first_seq, values)
            pending = [
                first_seq, block_pc, values, [], byte_tags,
                provider, provider_index, provider_tag, strides, conf,
                alt_strides, lanes, lvt_index, lvt_tag,
            ]
            fifo.append(pending)
        else:
            # DnRR / DnRDnR: reuse the flushed block's prediction block.
            pending = reuse
            usable = reuses_predictions
            values = pending[_P_VALUES]
            byte_tags = pending[_P_BYTE_TAGS]
            conf = pending[_P_CONF]
        # Attribute the block's predictions to its VP-eligible µ-ops.
        if gid is None:
            slot_assign = attribute_predictions(byte_tags, boundaries)
        else:
            slot_assign = attribution.attribute(gid, byte_tags, boundaries)
        preds = [None] * glen
        for pos, slot in zip(positions, slot_assign):
            if slot is not None:
                preds[pos] = (
                    values[slot], usable and conf[slot] >= _FPC_MAX, slot
                )

        group_broken = False
        for k in range(gstart, gend):
            (
                seq, pc, _bpc, boundary, dest, srcs, value, is_load,
                is_store, is_load_imm, mem_addr, is_branch, is_cond,
                taken, is_last, eligible, early_ok, lat_kind, cid, pool,
                lat, tage_pre, btb_miss, _epoch,
            ) = U[k]
            rel = k - gstart
            pred = preds[rel]
            predicted_used = pred is not None and pred[1]

            # ---- dispatch ---------------------------------------------
            d = block_avail + _FE_DEPTH
            if last_dispatch > d:
                d = last_dispatch
            if d >= cap:
                cap = _grow(d)
            while disp_cnt[d] >= _DECODE_W:
                d += 1
                if d >= cap:
                    cap = _grow(d)
            if rob_count >= _ROB:
                t = rob_commits[0] + 1
                if t > d:
                    d = t
            if is_load and lq_count >= _LQ:
                t = lq_completes[0]
                if t > d:
                    d = t
            if is_store and sq_count >= _SQ:
                t = sq_completes[0]
                if t > d:
                    d = t

            srcs_ready = 0
            for src in srcs:
                t = reg_avail.get(src, 0)
                if t > srcs_ready:
                    srcs_ready = t

            eole_early = early_ok and srcs_ready < d
            eole_late = predicted_used and early_ok
            if is_load_imm:
                eole_early = True
            bypass_ooo = eole_early or eole_late
            if not bypass_ooo:
                if iq_count >= _IQ:
                    t = iq_issues[0]
                    if t > d:
                        d = t
                if d >= cap:
                    cap = _grow(d)
                while disp_cnt[d] >= _DECODE_W:
                    d += 1
                    if d >= cap:
                        cap = _grow(d)
            elif d >= cap:
                cap = _grow(d)
            disp_cnt[d] += 1
            last_dispatch = d
            dispatch_cycles.append(d)
            fq_count += 1

            # ---- execute ----------------------------------------------
            if eole_early:
                complete = d
                if measuring:
                    s_early += 1
            elif eole_late:
                complete = d
                if measuring:
                    s_late += 1
            else:
                ready = d + 1
                if srcs_ready > ready:
                    ready = srcs_ready
                if is_load and mem_addr is not None:
                    t = store_ready.get(mem_addr, 0)
                    if t > ready:
                        ready = t
                c2 = ready
                if c2 >= cap:
                    cap = _grow(c2)
                if lat_kind == 0:
                    fk = (c2 << 4) | cid
                    while iss_cnt[c2] >= _ISSUE_W or fu_b[fk] >= pool:
                        c2 += 1
                        if c2 >= cap:
                            cap = _grow(c2)
                        fk = (c2 << 4) | cid
                    fu_b[fk] += 1
                elif lat_kind == 3:
                    fk = (c2 << 4) | cid
                    while iss_cnt[c2] >= _ISSUE_W or fu_b[fk] >= pool:
                        c2 += 1
                        if c2 >= cap:
                            cap = _grow(c2)
                        fk = (c2 << 4) | cid
                    fu_b[fk] += 1
                    if is_load:
                        _addr = mem_addr or 0
                        _line = _addr >> 6
                        _ways = l1d_sets[_line & l1d_mask]
                        _tg = _line >> l1d_tshift
                        if _ways and _ways[-1] == _tg:
                            lat = _l1d_lat
                        elif _tg in _ways:
                            _ways.remove(_tg)
                            _ways.append(_tg)
                            lat = _l1d_lat
                        else:
                            lat = load_latency(_addr)
                elif lat_kind == 1:
                    if div_free > c2:
                        c2 = div_free
                        if c2 >= cap:
                            cap = _grow(c2)
                    while iss_cnt[c2] >= _ISSUE_W:
                        c2 += 1
                        if c2 >= cap:
                            cap = _grow(c2)
                    div_free = c2 + lat
                else:
                    if fpdiv_free > c2:
                        c2 = fpdiv_free
                        if c2 >= cap:
                            cap = _grow(c2)
                    while iss_cnt[c2] >= _ISSUE_W:
                        c2 += 1
                        if c2 >= cap:
                            cap = _grow(c2)
                    fpdiv_free = c2 + lat
                iss_cnt[c2] += 1
                iq_issues.append(c2)
                iq_count += 1
                complete = c2 + lat

            if is_load:
                lq_completes.append(complete)
                lq_count += 1
            if is_store:
                sq_completes.append(complete)
                sq_count += 1
                if mem_addr is not None:
                    store_ready[mem_addr] = complete

            # ---- destination availability -----------------------------
            if dest is not None:
                if predicted_used or is_load_imm:
                    reg_avail[dest] = d
                else:
                    reg_avail[dest] = complete

            # BeBoPEngine.result_uop: patch the window entry one cycle
            # after the result computes.
            if eligible and pred is not None and value is not None:
                fixup_counter += 1
                heappush(
                    fixups,
                    (complete + 1, fixup_counter, pending, pred[2], value),
                )

            # ---- branches ---------------------------------------------
            mispredicted_branch = False
            if is_cond:
                # apply_deferred_bp(fetch_cycle)
                while deferred_bp and deferred_bp[0][0] <= fetch_cycle:
                    db = deferred_bp.popleft()
                    tage_train(db[1], db[2], db[3], db[4])
                # TAGEBranchPredictor.predict over precomputed slots.
                bim_index, tage_slots = tage_pre
                indices, tags = tage_slots
                hit = alt = -1
                for comp in range(TAGE_COMPONENTS):
                    index = indices[comp]
                    if bt_tag[index] == tags[comp]:
                        alt = hit
                        hit = index
                        hit_comp = comp
                base_taken = b_ctr[bim_index] >= 2
                if hit < 0:
                    pred_taken = base_taken
                    bmeta = (0, 0, 0, base_taken, False)
                else:
                    ctr = bt_ctr[hit]
                    provider_taken = ctr >= 4
                    weak = ctr == 3 or ctr == 4
                    if alt >= 0:
                        alt_taken = bt_ctr[alt] >= 4
                    else:
                        alt_taken = base_taken
                    bmeta = (hit_comp + 1, hit, tags[hit_comp], alt_taken, weak)
                    if weak and use_alt[0] >= 8:
                        pred_taken = alt_taken
                    else:
                        pred_taken = provider_taken
                mispredicted_branch = pred_taken != taken
                if measuring:
                    s_branches += 1
            # BTB lookup/install already folded into btb_miss upstream;
            # history pushes are the epoch stream.

            # ---- commit -----------------------------------------------
            cc = complete + _BE_DEPTH
            if last_commit > cc:
                cc = last_commit
            if cc >= cap:
                cap = _grow(cc)
            while com_cnt[cc] >= _COMMIT_W:
                cc += 1
                if cc >= cap:
                    cap = _grow(cc)
            com_cnt[cc] += 1
            last_commit = cc
            rob_commits.append(cc)
            rob_count += 1

            if is_cond:
                deferred_bp.append((cc + 1, bim_index, tage_slots, taken, bmeta))
                if mispredicted_branch:
                    if measuring:
                        s_branch_mispredicts += 1
                    if complete + 1 > next_fetch_min:
                        next_fetch_min = complete + 1
                    # BeBoPEngine.branch_squash(seq, complete)
                    window.squash(seq)
                    fifo = [b for b in fifo if b[0] <= seq]
            elif is_branch and taken:
                if btb_miss:
                    if measuring:
                        s_btb_misses += 1
                    if block_avail + 2 > next_fetch_min:
                        next_fetch_min = block_avail + 2

            # ---- VP validation at commit ------------------------------
            # BeBoPEngine.commit_uop
            if eligible and value is not None:
                pending[_P_RETIRED].append((boundary, value))
            if measuring and eligible:
                s_vp_eligible += 1
                if pred is not None:
                    s_vp_predicted += 1
            if predicted_used and eligible and value is not None:
                if pred[0] == value:
                    if measuring:
                        s_vp_used += 1
                        s_vp_used_correct += 1
                else:
                    if measuring:
                        s_vp_used += 1
                        s_vp_squashes += 1
                    reg_avail[dest] = cc
                    if cc + 1 > next_fetch_min:
                        next_fetch_min = cc + 1
                    if k + 1 < gend:
                        next_block_pc = U[k + 1][2]
                    elif gi < n_groups:
                        next_block_pc = U[groups[gi][0]][2]
                    else:
                        next_block_pc = None
                    # BeBoPEngine.vp_squash(handle, seq, next_block_pc, cc)
                    same_block = (
                        next_block_pc is not None
                        and next_block_pc == pending[_P_BLOCK_PC]
                    )
                    flush = pending[_P_SEQ]
                    drop_head = same_block and squashes_head
                    window.squash(flush, drop_equal=drop_head)
                    if drop_head:
                        fifo = [b for b in fifo if b[0] < flush]
                    else:
                        fifo = [b for b in fifo if b[0] <= flush]
                    if same_block and is_ideal:
                        for j, b in enumerate(fifo):
                            if b is pending:
                                del fifo[j]
                                break
                        deferred.append((cc + 1, pending))
                        retired = pending[_P_RETIRED]
                        ideal_slots = attribute_predictions(
                            pending[_P_BYTE_TAGS], [b for b, _ in retired]
                        )
                        fixmap = {
                            slot: val
                            for slot, (_b, val) in zip(ideal_slots, retired)
                            if slot is not None
                        }
                        window.correct_entry(
                            pending[_P_BLOCK_PC], flush, fixmap
                        )
                    if k + 1 < gend:
                        pending_refetch = (k + 1, gend, pending)
                        group_broken = True
                    elif (
                        next_block_pc is not None
                        and next_block_pc == block_pc
                    ):
                        reuse_next_group = pending
                        reuse_block_pc = next_block_pc
                    if group_broken:
                        break

            # ---- stats ------------------------------------------------
            uop_index += 1
            if measuring:
                s_uops += 1
                if is_last:
                    s_insts += 1
            elif uop_index >= warmup_uops:
                measuring = True
                base_cycle = last_commit

        if not group_broken:
            # BeBoPEngine.finish_group(handle, last_commit)
            for j, b in enumerate(fifo):
                if b is pending:
                    del fifo[j]
                    break
            deferred.append((last_commit + 1, pending))

        # ---- occupancy-state prune ------------------------------------
        # The cycle-indexed counters need no pruning (their memory is
        # O(final cycle), not O(entries)); only store_ready accumulates.
        if uop_index >= next_prune:
            next_prune = uop_index + _PRUNE_INTERVAL
            store_ready = {
                a: t for a, t in store_ready.items() if t > last_dispatch
            }

    stats.cycles = max(1, last_commit - base_cycle)
    stats.uops = s_uops
    stats.insts = s_insts
    stats.branches = s_branches
    stats.branch_mispredicts = s_branch_mispredicts
    stats.btb_misses = s_btb_misses
    stats.vp_eligible = s_vp_eligible
    stats.vp_predicted = s_vp_predicted
    stats.vp_used = s_vp_used
    stats.vp_used_correct = s_vp_used_correct
    stats.vp_squashes = s_vp_squashes
    stats.early_executed = s_early
    stats.late_executed = s_late
    stats.l1d_misses = memory.l1d.misses
    stats.l2_misses = memory.l2.misses
    return stats
