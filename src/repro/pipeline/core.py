"""Trace-driven superscalar timing model.

The model walks the dynamic µ-op trace in program order, computing per µ-op
the cycle of every pipeline event under the Table I resource constraints:

``fetch``
    Up to two 16-byte blocks per cycle, over at most one taken branch;
    I-cache misses stall the front end; redirects (branch mispredictions at
    execute, BTB misses at decode, value-misprediction squashes at commit)
    set a fetch barrier.
``dispatch``
    ``front_end_depth`` cycles after the block is available, 8 µ-ops/cycle,
    bounded by ROB/IQ/LQ/SQ occupancy.
``issue/execute``
    Dependence-driven: a µ-op issues once its operands are available, an
    issue slot (``issue_width``/cycle) and a functional unit are free.
    Correctly *used* value predictions make the producer's result available
    to consumers at the producer's dispatch (the prediction is written to
    the PRF by then), which is the entire performance upside of VP.
``commit``
    In order, 8 wide, ``back_end_depth`` cycles after completion.  Value
    predictions are validated here; a wrong used prediction squashes
    everything younger (the paper's low-complexity recovery) and refetches
    from the next instruction — including the Bnew == Bflush same-block
    refetch that exercises the BeBoP recovery policies.

With ``config.eole``: µ-ops whose operands are ready at rename and that
execute in one cycle are Early Executed (no IQ/issue slot); confidently
predicted µ-ops are Late Executed (validated just before commit, never
issued), which is what lets EOLE drop the issue width from 6 to 4.

Predictor *training* is deferred to commit time via the adapters, so the
predictor never observes a result younger than the fetch being predicted.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterator

from repro.branch.btb import BranchTargetBuffer
from repro.branch.tage import TAGEBranchPredictor
from repro.common.history import FoldedHistorySet
from repro.isa.instruction import DynMicroOp, LatencyClass
from repro.pipeline.caches import MemoryHierarchy
from repro.pipeline.config import CoreConfig
from repro.pipeline.stats import SimStats
from repro.pipeline.vp import GroupHandle, VPAdapter
from repro.workloads.trace import Trace

#: Fixed execution latencies per FU class (loads come from the cache model).
_LATENCY = {
    LatencyClass.ALU: 1,
    LatencyClass.MUL: 3,
    LatencyClass.DIV: 25,
    LatencyClass.FP: 3,
    LatencyClass.FPMUL: 5,
    LatencyClass.FPDIV: 10,
    LatencyClass.BRANCH: 1,
    LatencyClass.NONE: 1,
    LatencyClass.MEM: 1,  # overridden by the cache model for loads
}

#: Classes that EOLE's Early Execution stage can handle (single-cycle ALU).
_EARLY_EXECUTABLE = frozenset({LatencyClass.ALU, LatencyClass.NONE})

#: µ-ops between prunes of the store-forwarding map.  Entries behind the
#: monotone dispatch front can never be probed again, so the prune is
#: timing-neutral; the interval only trades prune overhead against the
#: (bounded) amount of dead state carried between prunes.
_PRUNE_INTERVAL = 4096

#: How a µ-op issues, per latency class (see :func:`_issue_classes`).
_ISSUE_POOL = 0         # pipelined FU pool: issue width + per-class FU count
_ISSUE_DIV = 1          # the single MulDiv unit, not pipelined for DIV
_ISSUE_FPDIV = 2        # FPMulDiv units, not pipelined for FPDIV
_ISSUE_MEM = 3          # load/store ports; load latency from the caches

#: FU pool of the unpipelined dividers: no per-cycle FU count, the unit's
#: busy-until cycle bounds issue instead.
_NO_POOL = 0

#: Cycles the issue/FU occupancy ring covers at the start of a run; it
#: doubles whenever an issue cycle runs further ahead of the dispatch front.
_RING_CYCLES = 1024


def _issue_classes(cfg: CoreConfig) -> tuple:
    """Per latency class, ``(issue kind, FU pool, latency, early-executable)``,
    indexed by ``LatencyClass._value_`` so the walk never hashes an enum."""
    pools = {
        LatencyClass.ALU: cfg.alu_count,
        LatencyClass.BRANCH: cfg.alu_count,
        LatencyClass.MUL: cfg.muldiv_count,
        LatencyClass.FP: cfg.fp_count,
        LatencyClass.FPMUL: cfg.fpmuldiv_count,
        LatencyClass.NONE: cfg.alu_count,
    }
    kinds = {
        LatencyClass.DIV: _ISSUE_DIV,
        LatencyClass.FPDIV: _ISSUE_FPDIV,
        LatencyClass.MEM: _ISSUE_MEM,
    }
    table: list = [None] * (max(c._value_ for c in LatencyClass) + 1)
    for c in LatencyClass:
        table[c._value_] = (
            kinds.get(c, _ISSUE_POOL), pools.get(c, _NO_POOL), _LATENCY[c],
            c in _EARLY_EXECUTABLE,
        )
    return tuple(table)


def _slide_ring(issue, fu, lo: int, size: int, front: int, cycle: int):
    """Make the issue/FU occupancy ring cover ``cycle``; returns (lo, size).

    The ring holds the counts of cycles ``[lo, lo + size)`` at slot
    ``cycle % size`` (``fu`` has 16 class slots per cycle).  Every probe is
    at or after the dispatch ``front``, so the counts below it are dead:
    their slots are zeroed and reused.  When ``cycle`` is a whole ring or
    more ahead of the front, the ring doubles instead, keeping the live
    counts.  Either way its size depends on how far issue runs ahead of
    dispatch, never on the trace length.
    """
    if cycle - front < size:
        dead = min(front - lo, size)
        start = lo & (size - 1)
        first = min(dead, size - start)
        issue[start:start + first] = bytes(first)
        fu[start << 4:(start + first) << 4] = bytes(first << 4)
        rest = dead - first
        issue[:rest] = bytes(rest)
        fu[:rest << 4] = bytes(rest << 4)
        return front, size
    new = size
    while cycle - front >= new:
        new <<= 1
    old_issue = issue[:]
    old_fu = fu[:]
    issue[:] = bytes(new)
    fu[:] = bytes(new << 4)
    for c in range(front, lo + size):
        o = c & (size - 1)
        n = c & (new - 1)
        issue[n] = old_issue[o]
        fu[n << 4:(n + 1) << 4] = old_fu[o << 4:(o + 1) << 4]
    return front, new


def iter_block_instances(uops: list[DynMicroOp]) -> Iterator[tuple[int, int]]:
    """Split the trace into fetch-block instances, lazily: ``[start, end)``
    runs of µ-ops sharing a block PC, broken after every taken branch."""
    start = 0
    n = len(uops)
    for i in range(n):
        uop = uops[i]
        if (
            i + 1 >= n
            or (uop.is_branch and uop.branch_taken)
            or uops[i + 1].block_pc != uop.block_pc
        ):
            yield start, i + 1
            start = i + 1


def group_block_instances(uops: list[DynMicroOp]) -> list[tuple[int, int]]:
    """All fetch-block instances of the trace (see iter_block_instances)."""
    return list(iter_block_instances(uops))


class PipelineModel:
    """One simulated core; ``run`` executes a trace and returns stats."""

    def __init__(
        self,
        config: CoreConfig,
        vp_adapter: VPAdapter | None = None,
        branch_predictor: TAGEBranchPredictor | None = None,
        memory: MemoryHierarchy | None = None,
    ) -> None:
        if config.vp_enabled and vp_adapter is None:
            raise ValueError(f"config {config.name!r} enables VP: pass a vp_adapter")
        self.config = config
        self.vp = vp_adapter if config.vp_enabled else None
        self.branch_predictor = (
            branch_predictor if branch_predictor is not None else TAGEBranchPredictor()
        )
        self.btb = BranchTargetBuffer(config.btb_entries)
        self.memory = memory if memory is not None else MemoryHierarchy()
        # One folded-history register set shared by the branch predictor and
        # the value predictor: every (history length, width) pair either will
        # index with is registered up front so each pushed bit updates all
        # folds in O(1) and fetch-time snapshots carry them precomputed.
        idx_pairs: list[tuple[int, int]] = []
        tag_pairs: list[tuple[int, int]] = []
        for source in (self.branch_predictor, self.vp):
            geometry = getattr(source, "fold_geometry", None)
            if geometry is not None:
                idx, tag = geometry()
                idx_pairs.extend(idx)
                tag_pairs.extend(tag)
        self.hists = FoldedHistorySet(640, 64, idx_pairs, tag_pairs)
        self.bhist = self.hists.branch
        self.phist = self.hists.path
        #: Peak size of the per-run occupancy state — cycles in the issue
        #: ring plus store-forwarding entries — sampled at every prune
        #: during :meth:`run` (diagnostics only — never feeds back into
        #: timing or :class:`SimStats`).
        self.debug_state_peak = 0

    # -- the main walk -------------------------------------------------------

    def run(
        self,
        trace: Trace,
        warmup_uops: int = 0,
        timeline: list | None = None,
        cpi: "CPIStackCollector | None" = None,
        recorder: "TimelineRecorder | None" = None,
        attrib: "PCAttribution | None" = None,
        banks: "BankTelemetry | None" = None,
    ) -> SimStats:
        """Simulate a trace; statistics cover µ-ops after ``warmup_uops``.

        When ``timeline`` is a list, one ``(seq, pc, dispatch, complete,
        commit)`` tuple per processed µ-op is appended — used by tests and
        examples to inspect the schedule directly.

        When ``cpi`` is a :class:`repro.obs.CPIStackCollector`, every
        advance of the commit front over the measured window is attributed
        to a cause (see :mod:`repro.obs.cpi`); the collector is passive, so
        the returned stats are bit-identical with and without it.

        When ``recorder`` is a :class:`repro.obs.TimelineRecorder`, every
        processed µ-op (warmup and re-fetched instances included) gets a
        full per-stage timeline plus, for value-predicted µ-ops, a
        provenance record filled in by the VP adapter and finalised here at
        commit (see :mod:`repro.obs.timeline`).  Also passive: stats are
        bit-identical with and without it.

        When ``attrib`` is a :class:`repro.obs.PCAttribution`, every
        recovery cycle the CPI stack would charge to ``vp_squash`` or
        ``branch_redirect`` is additionally charged to the static PC of
        the mispredicting µ-op: the cause-propagation chain below is
        shadowed by an owning-PC chain under the same gating, so per-PC
        cycles sum exactly to those two stack components.  Passive like
        ``cpi``.

        When ``banks`` is a :class:`repro.obs.BankTelemetry`, the VP
        adapter's ``table_banks()`` hook (if any) is attached and the
        banks are snapshotted every ``banks.interval`` µ-ops plus once at
        the end of the run.  Read-only, so also stats-passive.
        """
        cfg = self.config
        uops = trace.uops
        stats = SimStats(workload=trace.name, config=cfg.name)
        if not uops:
            return stats

        # Per-µop timeline tracing (see repro.obs.timeline).  `rec` gates
        # every site like `track` does; adapters that can attribute
        # predictions to their producing component opt in via the
        # set_provenance hook and fill GroupHandle.prov at fetch.
        rec = recorder
        apc = attrib is not None
        vp = self.vp
        if vp is not None:
            # Attribution wants the providing component per attempt, so it
            # turns provenance on even without a recorder.
            set_prov = getattr(vp, "set_provenance", None)
            if set_prov is not None:
                set_prov(rec is not None or apc)
            if banks is not None:
                bank_source = getattr(vp, "table_banks", None)
                if bank_source is not None:
                    banks.attach(bank_source())
        bank_next = banks.interval if banks is not None else 0

        # Fetch-block instances are cut on the fly, not listed up front:
        # the walk keeps no per-µop or per-group state beyond the live
        # window.  `upcoming` is the next instance in program order.
        groups = iter_block_instances(uops)
        upcoming = next(groups, None)

        # --- the run's configuration and collaborators, bound once -----------
        fe_depth = cfg.front_end_depth
        be_depth = cfg.back_end_depth
        fetch_blocks = cfg.fetch_blocks_per_cycle
        decode_w = cfg.decode_width
        issue_w = cfg.issue_width
        commit_w = cfg.commit_width
        fq_size = cfg.fetch_queue_uops
        rob_size = cfg.rob_size
        iq_size = cfg.iq_size
        lq_size = cfg.lq_size
        sq_size = cfg.sq_size
        load_ports = cfg.load_ports
        store_ports = cfg.store_ports
        eole = cfg.eole
        free_li_on = cfg.free_load_immediates and not eole
        classes = _issue_classes(cfg)
        memory = self.memory
        ifetch_latency = memory.ifetch_latency
        load_latency = memory.load_latency
        l1d_hit_lat = memory.l1d.latency
        bp_predict = self.branch_predictor.predict
        bp_train = self.branch_predictor.train
        btb_lookup = self.btb.lookup
        btb_install = self.btb.install
        hist_state = self.hists.state
        push_outcome = self.hists.push_outcome
        push_path = self.hists.push_path
        result_uop = finish_group = None
        if vp is not None:
            fetch_group = vp.fetch_group
            commit_uop = vp.commit_uop
            # Adapters whose result_uop/finish_group do nothing say so, and
            # the walk skips the calls.
            if getattr(vp, "group_hooks", True):
                result_uop = vp.result_uop
                finish_group = vp.finish_group

        # --- machine state ---------------------------------------------------
        fetch_cycle = 0
        blocks_in_cycle = 0
        next_fetch_min = 0
        # Dispatch and commit happen in order at monotone fronts, so the
        # only occupancy either can still see is that of the front cycle
        # itself: one (cycle, count) pair each.
        last_dispatch = 0
        disp_n = 0
        last_commit = 0
        commit_n = 0
        # Issue is out of order, but every issue probe is at or after the
        # dispatch front: per-cycle issue and per-(cycle, class) FU counts
        # live in a ring of cycles that slides with that front (see
        # _slide_ring).  Counts never exceed the widths, so bytes suffice.
        counter = bytearray if max(
            issue_w, load_ports, store_ports, *(c[1] for c in classes if c)
        ) < 256 else list
        ring_size = _RING_CYCLES
        ring_mask = ring_size - 1
        ring_lo = 0
        ring_hi = ring_size
        issue_cnt = counter(ring_size)
        fu_cnt = counter(ring_size << 4)
        div_free = 0            # the single MulDiv unit, not pipelined for DIV
        fpdiv_free = 0          # FPMulDiv units, not pipelined for FPDIV
        # Per-µ-op event series are only ever read a fixed distance back
        # (the structural occupancy bounds index exactly rob/fq/iq/lq/sq
        # entries behind the append point), so fixed-size ring buffers
        # replace the append-only lists; the counters stand in for the
        # unbounded len().  Once a counter reaches the capacity, the old
        # ``series[n - size]`` read is exactly ``ring[0]``.
        rob_commits: deque[int] = deque(maxlen=rob_size)
        dispatch_cycles: deque[int] = deque(maxlen=fq_size)
        iq_issues: deque[int] = deque(maxlen=iq_size)
        lq_completes: deque[int] = deque(maxlen=lq_size)
        sq_completes: deque[int] = deque(maxlen=sq_size)
        rob_count = 0           # µ-ops committed-scheduled (old len(rob_commits))
        fq_count = 0            # µ-ops dispatched (old len(dispatch_cycles))
        iq_count = 0            # IQ-entering µ-ops (old len(iq_issues))
        lq_count = 0
        sq_count = 0
        reg_avail: dict[int, int] = {}
        store_ready: dict[int, int] = {}
        deferred_bp: deque = deque()    # (apply_cycle, pc, hist, taken, meta)
        next_prune = _PRUNE_INTERVAL
        state_peak = 0

        # CPI-stack attribution (see repro.obs.cpi).  `track` gates every
        # instrumentation block so the disabled path costs one boolean
        # check per site; none of these variables feed back into timing.
        # Per-PC attribution (repro.obs.attrib) shadows each cause variable
        # with the static PC that owns it, updated under exactly the same
        # conditions, so whenever a cause variable holds "vp_squash" or
        # "branch_redirect" its *_pc twin holds the mispredicting µ-op's PC.
        track = cpi is not None or apc
        redirect_cause = "base"         # cause of the current fetch barrier
        fe_cause = "base"               # cause of the current block's fetch time
        disp_cause = "base"
        exec_cause = "base"
        reg_cause: dict[int, str] = {}  # why each register's value is late
        redirect_pc = -1
        fe_pc = -1
        disp_pc = -1
        exec_pc = -1
        reg_pc: dict[int, int] = {}

        # Statistics, kept in locals and stored once at the end.
        measuring = warmup_uops == 0
        base_cycle = 0
        uop_index = 0
        n_uops = n_insts = n_branches = n_branch_mispredicts = n_btb_misses = 0
        n_vp_eligible = n_vp_predicted = n_vp_used = n_vp_used_correct = 0
        n_vp_squashes = n_early = n_late = 0

        pending_refetch: tuple[list[DynMicroOp], GroupHandle] | None = None
        reuse_next_group: GroupHandle | None = None
        reuse_block_pc = -1

        while upcoming is not None or pending_refetch is not None:
            if pending_refetch is not None:
                guops, reuse = pending_refetch
                pending_refetch = None
            else:
                start, end = upcoming
                upcoming = next(groups, None)
                guops = uops[start:end]
                reuse = None
                if reuse_next_group is not None:
                    if guops[0].block_pc == reuse_block_pc:
                        reuse = reuse_next_group
                    reuse_next_group = None

            block_pc = guops[0].block_pc

            # ---- fetch ------------------------------------------------------
            c = fetch_cycle if fetch_cycle >= next_fetch_min else next_fetch_min
            # Fetch-queue backpressure: this block's first µ-op can only be
            # fetched once the µ-op fetch_queue_uops earlier has dispatched.
            if fq_count >= fq_size and dispatch_cycles[0] > c:
                c = dispatch_cycles[0]
            if track:
                # The block's fetch is redirect-bound when the fetch
                # barrier is what it waited on; fetch-queue backpressure
                # and plain fetch flow are baseline behaviour.
                if next_fetch_min > fetch_cycle and next_fetch_min >= c:
                    fe_cause = redirect_cause
                    fe_pc = redirect_pc
                else:
                    fe_cause = "base"
                    fe_pc = -1
            if c > fetch_cycle:
                fetch_cycle = c
                blocks_in_cycle = 0
            if blocks_in_cycle >= fetch_blocks:
                fetch_cycle += 1
                blocks_in_cycle = 0
            if rec is not None:
                # Fetch start of the block, before any I-cache stall.
                block_fetch = fetch_cycle
            ifetch_lat = ifetch_latency(block_pc)
            block_avail = fetch_cycle + ifetch_lat - 1
            blocks_in_cycle += 1
            if ifetch_lat > 1:
                # An I-cache miss stalls fetch until the block arrives.
                fetch_cycle = block_avail
                blocks_in_cycle = 1
                fe_cause = "icache"
                fe_pc = -1
            disp_ready = block_avail + fe_depth

            # ---- value prediction (block granularity) -----------------------
            handle: GroupHandle | None = None
            if vp is not None:
                handle = fetch_group(guops, fetch_cycle, hist_state(), reuse)
                preds = handle.preds

            group_broken = False
            for k, uop in enumerate(guops):
                pred = preds[k] if handle is not None else None
                predicted_used = pred is not None and pred.confident
                dest = uop.dest
                is_load_imm = uop.is_load_imm
                eligible = dest is not None and not is_load_imm
                is_load = uop.is_load
                is_store = uop.is_store
                kind, pool, lat, early_class = classes[uop.latency_class._value_]

                # ---- dispatch ------------------------------------------------
                d = disp_ready if disp_ready > last_dispatch else last_dispatch
                if d == last_dispatch and disp_n >= decode_w:
                    d += 1
                rob_full = rob_count >= rob_size
                if rob_full and rob_commits[0] + 1 > d:
                    d = rob_commits[0] + 1
                if is_load and lq_count >= lq_size and lq_completes[0] > d:
                    d = lq_completes[0]
                if is_store and sq_count >= sq_size and sq_completes[0] > d:
                    d = sq_completes[0]

                srcs_ready = 0
                for src in uop.srcs:
                    t = reg_avail.get(src, 0)
                    if t > srcs_ready:
                        srcs_ready = t

                if eole:
                    # Early Execution is a single stage in parallel with
                    # rename (§V-A): operands must already be in the PRF
                    # *before* this µ-op dispatches, so same-cycle chains
                    # of early-executed µ-ops are not allowed (strict <).
                    early_ok = early_class and not is_load and not is_store
                    free_li = False
                    eole_early = is_load_imm or (early_ok and srcs_ready < d)
                    eole_late = predicted_used and early_ok
                    bypass_ooo = eole_early or eole_late
                else:
                    free_li = free_li_on and is_load_imm
                    eole_early = eole_late = False
                    bypass_ooo = free_li
                iq_full = iq_count >= iq_size
                if not bypass_ooo:
                    if iq_full and iq_issues[0] > d:
                        d = iq_issues[0]
                    if d == last_dispatch and disp_n >= decode_w:
                        d += 1
                if track:
                    # Which constraint set the dispatch cycle?  The largest
                    # candidate wins; occupancy bounds win ties because a
                    # full backend is the scarcer resource.  (Decode-width
                    # bumps past the max keep the winner's cause.)
                    cand = disp_ready
                    disp_cause = fe_cause
                    disp_pc = fe_pc
                    if last_dispatch > cand:
                        cand, disp_cause, disp_pc = last_dispatch, "base", -1
                    if rob_full:
                        t = rob_commits[0] + 1
                        if t >= cand:
                            cand, disp_cause, disp_pc = t, "backend_full", -1
                    if is_load and lq_count >= lq_size:
                        t = lq_completes[0]
                        if t >= cand:
                            cand, disp_cause, disp_pc = t, "backend_full", -1
                    if is_store and sq_count >= sq_size:
                        t = sq_completes[0]
                        if t >= cand:
                            cand, disp_cause, disp_pc = t, "backend_full", -1
                    if not bypass_ooo and iq_full:
                        t = iq_issues[0]
                        if t >= cand:
                            cand, disp_cause, disp_pc = t, "backend_full", -1
                if d == last_dispatch:
                    disp_n += 1
                else:
                    last_dispatch = d
                    disp_n = 1
                dispatch_cycles.append(d)
                fq_count += 1

                # ---- execute -------------------------------------------------
                if free_li or eole_early:
                    complete = d
                    if measuring and eole_early:
                        n_early += 1
                elif eole_late:
                    # Validated/executed just before commit; consumers read
                    # the predicted value from the PRF at dispatch.
                    complete = d
                    if measuring:
                        n_late += 1
                else:
                    ready = d + 1 if d + 1 > srcs_ready else srcs_ready
                    mem_addr = uop.mem_addr
                    if is_load and mem_addr is not None:
                        t = store_ready.get(mem_addr, 0)
                        if t > ready:
                            ready = t
                    c2 = ready
                    if kind == _ISSUE_DIV:
                        if div_free > c2:
                            c2 = div_free
                    elif kind == _ISSUE_FPDIV:
                        if fpdiv_free > c2:
                            c2 = fpdiv_free
                    elif kind == _ISSUE_MEM:
                        pool = load_ports if is_load else store_ports
                    cid = uop.latency_class._value_
                    # First cycle from c2 with an issue slot free and, for
                    # the pipelined units (pool > 0), a free FU of the class.
                    while True:
                        if c2 >= ring_hi:
                            ring_lo, ring_size = _slide_ring(
                                issue_cnt, fu_cnt, ring_lo, ring_size,
                                last_dispatch, c2,
                            )
                            ring_mask = ring_size - 1
                            ring_hi = ring_lo + ring_size
                        slot = c2 & ring_mask
                        if issue_cnt[slot] < issue_w and (
                            not pool or fu_cnt[(slot << 4) | cid] < pool
                        ):
                            break
                        c2 += 1
                    issue_cnt[slot] += 1
                    if pool:
                        fu_cnt[(slot << 4) | cid] += 1
                    if kind == _ISSUE_DIV:
                        div_free = c2 + lat
                    elif kind == _ISSUE_FPDIV:
                        fpdiv_free = c2 + lat
                    elif kind == _ISSUE_MEM and is_load:
                        lat = load_latency(mem_addr or 0)
                    iq_issues.append(c2)
                    iq_count += 1
                    complete = c2 + lat

                if track:
                    if bypass_ooo:
                        exec_cause = disp_cause
                        exec_pc = disp_pc
                    else:
                        # Dominant stall component behind `complete`:
                        # operand wait (inheriting the producer's cause),
                        # issue/FU contention, or execution latency.
                        dep_wait = ready - (d + 1)
                        dep_cause = "base"
                        dep_pc = -1
                        if dep_wait > 0:
                            if (
                                is_load
                                and mem_addr is not None
                                and ready > srcs_ready
                            ):
                                dep_cause = "memory"  # store-forward wait
                            else:
                                smax = 0
                                for src in uop.srcs:
                                    t = reg_avail.get(src, 0)
                                    if t > smax:
                                        smax = t
                                        dep_cause = reg_cause.get(src, "base")
                                        dep_pc = reg_pc.get(src, -1)
                        cont_wait = c2 - ready
                        cont_cause = "base"
                        if cont_wait > 0:
                            # Bumps past `ready` are issue-width or FU
                            # bound; for the unpipelined dividers the
                            # max() against the busy unit is the FU.
                            prev = (c2 - 1) & ring_mask
                            if kind == _ISSUE_DIV or kind == _ISSUE_FPDIV:
                                if issue_cnt[prev] < issue_w:
                                    cont_cause = "fu"
                            elif fu_cnt[(prev << 4) | cid] >= pool:
                                cont_cause = "fu"
                        if is_load:
                            lat_cause = (
                                "memory" if lat > l1d_hit_lat else "base"
                            )
                        else:
                            lat_cause = "fu" if lat > 1 else "base"
                        exec_cause = disp_cause
                        exec_pc = disp_pc
                        w = 0
                        if dep_wait > w:
                            w, exec_cause, exec_pc = dep_wait, dep_cause, dep_pc
                        if cont_wait > w:
                            w, exec_cause, exec_pc = cont_wait, cont_cause, -1
                        if lat - 1 > w:
                            w, exec_cause, exec_pc = lat - 1, lat_cause, -1

                if is_load:
                    lq_completes.append(complete)
                    lq_count += 1
                if is_store:
                    sq_completes.append(complete)
                    sq_count += 1
                    if uop.mem_addr is not None:
                        store_ready[uop.mem_addr] = complete

                # ---- destination availability --------------------------------
                if dest is not None:
                    if predicted_used or free_li or (eole and is_load_imm):
                        reg_avail[dest] = d
                    else:
                        reg_avail[dest] = complete
                    if track:
                        reg_cause[dest] = exec_cause
                        reg_pc[dest] = exec_pc

                if result_uop is not None and pred is not None and eligible:
                    result_uop(handle, k, uop, complete)

                # ---- branches -------------------------------------------------
                mispredicted_branch = False
                is_cond = False
                btb_miss = False
                if uop.is_branch:
                    taken = uop.branch_taken
                    is_cond = uop.is_cond_branch
                    if is_cond:
                        # Trainings due by this fetch cycle, in commit order.
                        while deferred_bp and deferred_bp[0][0] <= fetch_cycle:
                            _, b_pc, b_hist, b_taken, b_meta = deferred_bp.popleft()
                            bp_train(b_pc, b_hist, b_taken, b_meta)
                        bp_hist = hist_state()
                        pred_taken, bmeta = bp_predict(uop.pc, bp_hist)
                        mispredicted_branch = pred_taken != taken
                        if measuring:
                            n_branches += 1
                    if taken:
                        if btb_lookup(uop.pc) != uop.branch_target:
                            btb_miss = True
                            btb_install(uop.pc, uop.branch_target)
                        if is_cond:
                            push_outcome(taken)
                        push_path(uop.branch_target)
                    elif is_cond:
                        push_outcome(taken)

                # ---- commit ----------------------------------------------------
                cc = complete + be_depth
                if cc <= last_commit:
                    cc = last_commit
                    if commit_n >= commit_w:
                        cc += 1
                if track and measuring and cc > last_commit:
                    # Commit-front advance: `stats.cycles` is exactly the
                    # sum of these deltas over the measured window, so
                    # attributing each delta once keeps the stack exact.
                    cause = (
                        exec_cause
                        if complete + be_depth > last_commit
                        else "base"         # pure commit-bandwidth bumps
                    )
                    if cpi is not None:
                        cpi.account(cause, cc - last_commit)
                    if apc and (
                        cause == "vp_squash" or cause == "branch_redirect"
                    ):
                        # Same delta, charged to the owning static PC —
                        # per-PC sums equal the two stack components.
                        attrib.account(exec_pc, cause, cc - last_commit)
                if cc == last_commit:
                    commit_n += 1
                else:
                    last_commit = cc
                    commit_n = 1
                rob_commits.append(cc)
                rob_count += 1

                if is_cond:
                    deferred_bp.append((cc + 1, uop.pc, bp_hist, taken, bmeta))
                    if apc and measuring:
                        attrib.branch(uop.pc, mispredicted_branch)
                    if mispredicted_branch:
                        if measuring:
                            n_branch_mispredicts += 1
                        if rec is not None:
                            rec.instant(
                                "branch_redirect", complete + 1,
                                seq=uop.seq, pc=uop.pc,
                            )
                        if complete + 1 > next_fetch_min:
                            next_fetch_min = complete + 1
                            redirect_cause = "branch_redirect"
                            redirect_pc = uop.pc
                        if vp is not None:
                            vp.branch_squash(uop.seq, complete)
                elif btb_miss:
                    if measuring:
                        n_btb_misses += 1
                    if block_avail + 2 > next_fetch_min:
                        next_fetch_min = block_avail + 2
                        redirect_cause = "btb_redirect"
                        redirect_pc = uop.pc

                if timeline is not None:
                    timeline.append((uop.seq, uop.pc, d, complete, cc))
                if rec is not None:
                    prov = (
                        handle.prov[k]
                        if handle is not None and handle.prov is not None
                        else None
                    )
                    if prov is not None:
                        prov.used = predicted_used
                        # Final verdict; the recorder keeps the reference,
                        # so exports after the run see it.
                        if not prov.tag_match:
                            pass            # stays "no_prediction"
                        elif uop.value is None:
                            prov.verdict = "unknown"
                        elif pred.value == uop.value:
                            prov.verdict = (
                                "correct" if predicted_used
                                else "correct_unused"
                            )
                        else:
                            prov.verdict = (
                                "squash" if predicted_used
                                else "incorrect_unused"
                            )
                    rec.record_uop(
                        uop.seq, uop.pc, block_pc,
                        block_fetch, block_avail, d,
                        d if bypass_ooo else c2,
                        complete, cc, prov,
                    )

                # ---- VP validation at commit -----------------------------------
                if handle is not None and eligible:
                    commit_uop(handle, k, uop, cc)
                if measuring and eligible:
                    n_vp_eligible += 1
                    if pred is not None:
                        n_vp_predicted += 1
                        if apc:
                            a_prov = (
                                handle.prov[k]
                                if handle is not None
                                and handle.prov is not None
                                else None
                            )
                            attrib.vp_attempt(
                                uop.pc,
                                a_prov.provider if a_prov is not None else -1,
                                predicted_used,
                            )
                if predicted_used and eligible and uop.value is not None:
                    correct = pred.value == uop.value
                    if measuring:
                        n_vp_used += 1
                        if correct:
                            n_vp_used_correct += 1
                    if not correct:
                        # Commit-time squash: everything younger refetches.
                        if measuring:
                            n_vp_squashes += 1
                            if apc:
                                attrib.vp_squash(uop.pc)
                        if rec is not None:
                            # Cost = result computed → refetch barrier: the
                            # latency of detecting the misprediction at
                            # commit rather than repairing at execute.
                            rec.squash(
                                uop.seq, uop.pc, cc, cc + 1 - complete,
                                prov.policy if prov is not None else "",
                            )
                        reg_avail[dest] = cc
                        if track:
                            reg_cause[dest] = "vp_squash"
                            reg_pc[dest] = uop.pc
                        if cc + 1 > next_fetch_min:
                            next_fetch_min = cc + 1
                            redirect_cause = "vp_squash"
                            redirect_pc = uop.pc
                        remainder = guops[k + 1:]
                        if remainder:
                            next_block_pc = remainder[0].block_pc
                        elif upcoming is not None:
                            next_block_pc = uops[upcoming[0]].block_pc
                        else:
                            next_block_pc = None
                        if vp is not None:
                            vp.vp_squash(handle, uop.seq, next_block_pc, cc)
                        if remainder:
                            # Same-block refetch: the Bnew == Bflush case.
                            pending_refetch = (remainder, handle)
                            group_broken = True
                            break
                        if (
                            next_block_pc is not None
                            and next_block_pc == uop.block_pc
                        ):
                            reuse_next_group = handle
                            reuse_block_pc = next_block_pc

                # ---- stats -----------------------------------------------------
                uop_index += 1
                if measuring:
                    n_uops += 1
                    if uop.is_last_uop:
                        n_insts += 1
                elif uop_index >= warmup_uops:
                    measuring = True
                    base_cycle = last_commit

            if finish_group is not None and handle is not None and not group_broken:
                finish_group(handle, last_commit)

            # ---- bank-telemetry cadence -------------------------------------
            # Group-granular check: one `is None` test per fetch group when
            # disabled, and sampling reads bank state without touching it.
            if banks is not None and uop_index >= bank_next:
                banks.sample(uop_index)
                bank_next = uop_index + banks.interval

            # ---- store-forwarding prune -------------------------------------
            # A store's forwarding window closed once the dispatch front
            # passed its completion: dropping those entries periodically
            # keeps the map bounded by the live window plus one prune
            # interval, independent of trace length, without changing any
            # timing decision.
            if uop_index >= next_prune:
                next_prune = uop_index + _PRUNE_INTERVAL
                if ring_size + len(store_ready) > state_peak:
                    state_peak = ring_size + len(store_ready)
                store_ready = {
                    a: t for a, t in store_ready.items() if t > last_dispatch
                }

        self.debug_state_peak = max(state_peak, ring_size + len(store_ready))
        stats.cycles = max(1, last_commit - base_cycle)
        stats.uops = n_uops
        stats.insts = n_insts
        stats.branches = n_branches
        stats.branch_mispredicts = n_branch_mispredicts
        stats.btb_misses = n_btb_misses
        stats.vp_eligible = n_vp_eligible
        stats.vp_predicted = n_vp_predicted
        stats.vp_used = n_vp_used
        stats.vp_used_correct = n_vp_used_correct
        stats.vp_squashes = n_vp_squashes
        stats.early_executed = n_early
        stats.late_executed = n_late
        stats.l1d_misses = memory.l1d.misses
        stats.l2_misses = memory.l2.misses
        if cpi is not None:
            cpi.finish(stats)
        if attrib is not None:
            attrib.finish(stats)
        if banks is not None:
            banks.sample(uop_index, final=True)
        return stats
