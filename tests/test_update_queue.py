"""Unit tests for the FIFO update queue (paper §III-D-c)."""

from repro.bebop.update_queue import FifoUpdateQueue, PendingBlock
from repro.predictors.base import HistoryState


def make_block(seq, block_pc=0x40_0040):
    return PendingBlock(seq, block_pc, HistoryState(), readout=None, values=[0] * 6)


class TestFifoUpdateQueue:
    def test_fifo_order(self):
        q = FifoUpdateQueue()
        a, b = make_block(1), make_block(2)
        q.push(a)
        q.push(b)
        assert q._queue == [a, b]
        assert q.remove(a)
        assert q._queue == [b]

    def test_high_water_mark(self):
        q = FifoUpdateQueue()
        blocks = [make_block(i) for i in range(5)]
        for block in blocks:
            q.push(block)
        q.remove(blocks[0])
        q.push(make_block(9))
        assert q.high_water_mark == 5
        assert q.pushes == 6

    def test_squash_drops_younger(self):
        q = FifoUpdateQueue()
        for seq in (1, 4, 8):
            q.push(make_block(seq))
        dropped = q.squash(flush_seq=4)
        assert dropped == 1
        assert [b.seq for b in q._queue] == [1, 4]

    def test_squash_drop_equal(self):
        q = FifoUpdateQueue()
        q.push(make_block(4))
        assert q.squash(flush_seq=4, drop_equal=True) == 1
        assert len(q) == 0

    def test_remove_by_identity(self):
        q = FifoUpdateQueue()
        a, b = make_block(1), make_block(2)
        q.push(a)
        q.push(b)
        assert q.remove(a)
        assert not q.remove(a)
        assert q._queue == [b]

    def test_retired_accumulation(self):
        block = make_block(1)
        block.retired.append((3, 100))
        block.retired.append((7, 200))
        assert block.retired == [(3, 100), (7, 200)]
        assert not block.use_masked
