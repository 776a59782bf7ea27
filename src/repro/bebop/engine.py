"""The BeBoP engine: predictor + speculative window + FIFO update queue.

Implements the pipeline-facing :class:`~repro.pipeline.vp.VPAdapter`
protocol at the fetch-block granularity:

* ``fetch_group`` reads the block-based D-VTAGE, substitutes speculative
  last values from the window when a more recent instance of the block is
  in flight, composes the ``Npred`` predictions, pushes the block to the
  window and the FIFO update queue, and attributes predictions to the
  group's µ-ops by byte-index tags;
* ``commit_uop``/``finish_group`` accumulate retired results and schedule
  the predictor update one cycle after the block retires (§V-B);
* ``vp_squash``/``branch_squash`` roll both structures back by sequence
  number and arm the §IV-A recovery policy for the Bnew == Bflush refetch.
"""

from __future__ import annotations

import heapq
from collections import deque

import repro.obs as obs
from repro.obs.timeline import Provenance, provider_label
from repro.isa.instruction import DynMicroOp
from repro.predictors.base import HistoryState
from repro.bebop.attribution import attribute_predictions
from repro.bebop.predictor import BlockDVTAGE, BlockReadout
from repro.bebop.recovery import RecoveryPolicy
from repro.bebop.spec_window import SpeculativeWindow
from repro.bebop.update_queue import FifoUpdateQueue, PendingBlock
from repro.pipeline.vp import GroupHandle, PredUse


class BeBoPEngine:
    """Block-based value prediction infrastructure (adapter protocol)."""

    def __init__(
        self,
        predictor: BlockDVTAGE,
        window: SpeculativeWindow | None = None,
        policy: RecoveryPolicy = RecoveryPolicy.DNRDNR,
    ) -> None:
        self.predictor = predictor
        self.window = window if window is not None else SpeculativeWindow(32)
        self.fifo = FifoUpdateQueue()
        self.policy = policy
        # (apply_cycle, pending) in commit order.
        self._deferred: deque[tuple[int, PendingBlock]] = deque()
        # Writeback fixups: (cycle, tiebreak, pending, slot, value) heap —
        # results patch the window entry as they compute (§I "last
        # computed/predicted values").
        self._result_fixups: list[tuple[int, int, PendingBlock, int, int]] = []
        self._fixup_counter = 0
        # FPCPolicy.is_confident: only the saturated level is used.
        self._max_level = predictor.fpc.max_level
        self.cold_blocks = 0      # fetches with neither window nor LVT values
        # Namespaced metrics, hoisted once from the current registry (one
        # engine per run; run_job creates it under the per-job registry).
        # `_m_on` gates the per-fetch observations so a disabled registry
        # costs one attribute check per prediction block.
        reg = obs.registry()
        self._reg = reg
        self._m_on = reg.enabled
        self._m_window_uses = reg.counter("bebop/spec_window/uses")
        self._m_cold_blocks = reg.counter("bebop/spec_window/cold_blocks")
        self._m_occupancy = reg.histogram("bebop/spec_window/occupancy")
        self._m_uq_depth = reg.histogram("bebop/update_queue/depth")
        self._m_attr_requests = reg.counter("bebop/attribution/requests")
        self._m_attr_misses = reg.counter("bebop/attribution/misses")
        # Lazily created `bebop/provider/<name>/predictions` counters, one
        # per D-VTAGE component that ever provided an attributed prediction.
        self._m_providers: dict[int, object] = {}
        self._prov = False        # fill GroupHandle.prov for the recorder
        # Attribution per static fetch group: a group's µ-ops are fixed by
        # its first µ-op and its length (fall-through code of one block),
        # so the positions and boundaries of its VP-eligible µ-ops are
        # computed once per (pc, µ-op index, length).  The slots they take
        # depend only on those boundaries and the entry's byte tags, which
        # rarely change: the group also keeps the last tags it was
        # attributed against and the resulting slots.
        # [positions, boundaries, byte tags, slots]
        self._group_meta: dict[tuple[int, int, int], list] = {}

    def set_provenance(self, enabled: bool) -> None:
        """Toggle provenance collection (called by the pipeline when a
        :class:`~repro.obs.timeline.TimelineRecorder` rides the run)."""
        self._prov = enabled

    def fold_geometry(
        self,
    ) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
        return self.predictor.fold_geometry()

    def storage_backend(self) -> str:
        return self.predictor.table_backend

    def table_banks(self) -> tuple[dict, ...]:
        """Bank descriptions for :class:`repro.obs.BankTelemetry` — the
        pipeline attaches these when a run carries a ``banks`` collector."""
        return self.predictor.table_banks()

    def _provider_counter(self, provider: int):
        m = self._m_providers.get(provider)
        if m is None:
            m = self._reg.counter(
                f"bebop/provider/{provider_label(provider)}/predictions"
            )
            self._m_providers[provider] = m
        return m

    # -- training application -------------------------------------------------

    def _apply_until(self, cycle: int) -> None:
        fixups = self._result_fixups
        window = self.window
        while fixups and fixups[0][0] <= cycle:
            _, _, pending, slot, value = heapq.heappop(fixups)
            window.correct_slot(pending.block_pc, pending.seq, slot, value)
        q = self._deferred
        update = self.predictor.update
        while q and q[0][0] <= cycle:
            _, pending = q.popleft()
            update(pending.readout, pending.retired)
            # Retire-time invalidation: the LVT now holds this instance's
            # architectural values, so the window entry (predicted values)
            # must stop shadowing it — see SpeculativeWindow.retire.
            window.retire(pending.block_pc, pending.seq)

    def flush_training(self) -> None:
        """Apply every deferred update (end of simulation)."""
        self._apply_until(1 << 62)

    # -- fetch ------------------------------------------------------------------

    def fetch_group(
        self,
        uops: list[DynMicroOp],
        cycle: int,
        hist: HistoryState,
        reuse: GroupHandle | None = None,
    ) -> GroupHandle:
        fixups = self._result_fixups
        q = self._deferred
        if (fixups and fixups[0][0] <= cycle) or (q and q[0][0] <= cycle):
            self._apply_until(cycle)
        spec_seq = None
        if reuse is not None and not self.policy.repredicts:
            # DnRR / DnRDnR: reuse the flushed block's prediction block.
            # The kept pending block keeps accumulating the refetched
            # µ-ops' results.
            pending: PendingBlock = reuse.ctx  # type: ignore[assignment]
            readout = pending.readout
            values = pending.values
            usable = self.policy.reuses_predictions
            if not usable:
                pending.use_masked = True
            source = "reuse"
        else:
            # Normal fetch, or a policy that generates a new prediction
            # block for the refetched instructions (Ideal / Repred).
            first = uops[0]
            block_pc = first.block_pc
            predictor = self.predictor
            window = self.window
            readout = predictor.read(block_pc, hist)
            spec_entry = window.lookup_entry(block_pc)
            if spec_entry is not None:
                last_values = spec_entry.values
                usable = True
                source = "spec_window"
                spec_seq = spec_entry.seq
            else:
                last_values = readout.lvt_last  # zeros when the entry is cold
                usable = readout.lvt_hit
                if usable:
                    source = "lvt"
                else:
                    self.cold_blocks += 1
                    source = "cold"
            if self._m_on:
                # Occupancy sampled before this block's insert: what the
                # hardware's associative probe actually searched.
                self._m_occupancy.observe(len(window))
                self._m_uq_depth.observe(len(self.fifo))
                if spec_entry is not None:
                    self._m_window_uses.inc()
                elif not usable:
                    self._m_cold_blocks.inc()
            values = predictor.compose(readout, last_values)
            window.insert(block_pc, first.seq, values)
            pending = PendingBlock(first.seq, block_pc, hist, readout, values)
            self.fifo.push(pending)

        # Attribute the block's predictions to its VP-eligible µ-ops.
        first = uops[0]
        key = (first.pc, first.uop_index, len(uops))
        meta = self._group_meta.get(key)
        if meta is None:
            positions = [pos for pos, uop in enumerate(uops)
                         if uop.is_vp_eligible]
            meta = self._group_meta[key] = [
                positions, [uops[pos].boundary for pos in positions],
                None, None,
            ]
        positions = meta[0]
        byte_tags = readout.byte_tags
        if byte_tags == meta[2]:
            slots = meta[3]
        else:
            slots = meta[3] = attribute_predictions(byte_tags, meta[1])
            meta[2] = byte_tags
        if self._m_on and positions:
            # An attribution miss: a VP-eligible µ-op whose byte boundary
            # matched no prediction slot (§V-B's tag-mismatch case).
            n_matched = sum(1 for slot in slots if slot is not None)
            self._m_attr_requests.inc(len(positions))
            missed = len(positions) - n_matched
            if missed:
                self._m_attr_misses.inc(missed)
            if n_matched:
                self._provider_counter(readout.provider).inc(n_matched)
        preds: list[PredUse | None] = [None] * len(uops)
        provs: list[Provenance | None] | None = (
            [None] * len(uops) if self._prov else None
        )
        policy = self.policy.value if provs is not None else ""
        conf = readout.conf
        max_level = self._max_level
        for pos, slot in zip(positions, slots):
            if slot is None:
                if provs is not None:
                    # Attribution miss: record it so the timeline can show
                    # which eligible µ-ops the block tags failed to cover.
                    provs[pos] = Provenance(
                        provider=readout.provider,
                        source=source,
                        spec_seq=spec_seq,
                        tag_match=False,
                        policy=policy,
                        verdict="no_prediction",
                    )
                continue
            confident = usable and conf[slot] >= max_level
            preds[pos] = PredUse(values[slot], confident, slot)
            if provs is not None:
                provs[pos] = Provenance(
                    provider=readout.provider,
                    conf=conf[slot],
                    source=source,
                    spec_seq=spec_seq,
                    slot=slot,
                    value=values[slot],
                    confident=confident,
                    policy=policy,
                )
        return GroupHandle(preds, hist, pending, provs)

    # -- commit -------------------------------------------------------------------

    def result_uop(
        self, handle: GroupHandle, pos: int, uop: DynMicroOp, complete_cycle: int
    ) -> None:
        """A µ-op's result computed: patch its slot in the window entry."""
        pred = handle.preds[pos]
        if pred is None or pred.slot < 0 or uop.value is None:
            return
        pending: PendingBlock = handle.ctx  # type: ignore[assignment]
        self._fixup_counter += 1
        heapq.heappush(
            self._result_fixups,
            (complete_cycle + 1, self._fixup_counter, pending, pred.slot, uop.value),
        )

    def commit_uop(
        self, handle: GroupHandle, pos: int, uop: DynMicroOp, cycle: int
    ) -> None:
        value = uop.value
        if value is not None:
            pending: PendingBlock = handle.ctx  # type: ignore[assignment]
            pending.retired.append((uop.boundary, value))

    def finish_group(self, handle: GroupHandle, cycle: int) -> None:
        """The block instance fully retired: pop it from the FIFO and apply
        the update one cycle later (§V-B: 'updated in the cycle following
        retirement')."""
        pending: PendingBlock = handle.ctx  # type: ignore[assignment]
        self.fifo.remove(pending)  # may already be gone after a Repred squash
        self._deferred.append((cycle + 1, pending))

    # -- squash ---------------------------------------------------------------------

    def vp_squash(
        self,
        handle: GroupHandle,
        flush_seq: int,
        next_block_pc: int | None,
        cycle: int,
    ) -> None:
        pending: PendingBlock = handle.ctx  # type: ignore[assignment]
        same_block = next_block_pc is not None and next_block_pc == pending.block_pc
        drop_head = same_block and self.policy.squashes_head
        self.window.squash(pending.seq, drop_equal=drop_head)
        self.fifo.squash(pending.seq, drop_equal=drop_head)
        if same_block and self.policy is RecoveryPolicy.IDEAL:
            # Ideal keeps the predictions older than the flush point and
            # tracks them at instruction granularity: the flushed instance
            # trains with what it retired before the flush, and the refetch
            # will get a brand-new prediction block.  Instruction-granular
            # consistency also means the kept window entry reflects the
            # architectural values of everything retired so far.
            self.fifo.remove(pending)
            self._deferred.append((cycle + 1, pending))
            readout: BlockReadout = pending.readout
            slots = attribute_predictions(
                readout.byte_tags, [b for b, _ in pending.retired]
            )
            fixups = {
                slot: value
                for slot, (_b, value) in zip(slots, pending.retired)
                if slot is not None
            }
            if fixups:
                self.window.correct_entry(pending.block_pc, pending.seq, fixups)

    def branch_squash(self, flush_seq: int, cycle: int) -> None:
        self.window.squash(flush_seq)
        self.fifo.squash(flush_seq)

    # -- reporting ---------------------------------------------------------------

    def storage_bits(self) -> int:
        """Predictor + speculative window storage (Table III)."""
        bits = self.predictor.storage_bits()
        if self.window.capacity:
            bits += self.window.storage_bits(self.predictor.config.npred)
        return bits

    def storage_kb(self) -> float:
        return self.storage_bits() / 8 / 1000
