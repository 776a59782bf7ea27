"""FIFO update queue (paper §III-D-c).

Predictions are made at fetch but the predictor is trained at retire, so
every in-flight prediction block — with everything visible at prediction
time that update needs (provider component, strides, confidences, the last
values the adders consumed) — waits in a FIFO queue.  Blocks are pushed at
prediction time and removed at validation time; each entry is tagged with
the sequence number of its block's first instruction so the queue can be
rolled back on pipeline flushes (§IV-A).

The queue is dimensioned so that prediction information is never lost
(§III-D-c); we model it unbounded and report the high-water mark so the
paper's ~116-blocks-in-flight estimate can be checked.
"""

from __future__ import annotations

from typing import Any


class PendingBlock:
    """One in-flight prediction block awaiting validation.

    ``readout`` is the opaque predictor-side context captured at prediction
    time; ``retired`` accumulates ``(boundary, actual)`` pairs as the
    block's result-producing µ-ops commit.
    """

    __slots__ = (
        "seq",
        "block_pc",
        "hist",
        "readout",
        "values",
        "retired",
        "use_masked",
    )

    def __init__(
        self,
        seq: int,
        block_pc: int,
        hist: Any,
        readout: Any,
        values: list[int],
    ) -> None:
        self.seq = seq
        self.block_pc = block_pc
        self.hist = hist
        self.readout = readout
        self.values = values
        self.retired: list[tuple[int, int]] = []
        # DnRDnR: refetched instructions may not *use* these predictions.
        self.use_masked = False


class FifoUpdateQueue:
    """FIFO of :class:`PendingBlock`, with sequence-number rollback."""

    def __init__(self) -> None:
        self._queue: list[PendingBlock] = []
        self.high_water_mark = 0
        self.pushes = 0

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, block: PendingBlock) -> None:
        self._queue.append(block)
        self.pushes += 1
        if len(self._queue) > self.high_water_mark:
            self.high_water_mark = len(self._queue)

    def remove(self, block: PendingBlock) -> bool:
        """Drop a specific block (validation popped it). Returns whether it
        was still queued — it may have been squashed away already."""
        try:
            self._queue.remove(block)   # identity: blocks define no __eq__
        except ValueError:
            return False
        return True

    def squash(self, flush_seq: int, drop_equal: bool = False) -> int:
        """Roll back entries younger than the flush point.

        Same semantics as the speculative window: ``seq > flush_seq`` always
        dropped, ``seq == flush_seq`` (the flushing instruction's own block)
        dropped only when the Repred policy squashes the head.
        """
        kept = [
            b
            for b in self._queue
            if b.seq < flush_seq or (not drop_equal and b.seq == flush_seq)
        ]
        dropped = len(self._queue) - len(kept)
        self._queue = kept
        return dropped
