"""White-box tests of VTAGE/TAGE-style allocation and usefulness logic."""

from repro.predictors import DVTAGEPredictor, HistoryState, VTAGEPredictor
from repro.predictors.vtage import geometric_history_lengths

PC = 0x40_0200


class TestGeometricLengths:
    def test_paper_series(self):
        assert geometric_history_lengths(6, 2, 64) == (2, 4, 8, 16, 32, 64)

    def test_single_component(self):
        assert geometric_history_lengths(1, 2, 64) == (2,)

    def test_endpoints_exact(self):
        lengths = geometric_history_lengths(12, 8, 640)
        assert lengths[0] == 8 and lengths[-1] == 640

    def test_strictly_increasing(self):
        lengths = geometric_history_lengths(8, 2, 256)
        assert all(a < b for a, b in zip(lengths, lengths[1:]))


class TestVTAGEAllocation:
    def test_mispredict_allocates_tagged_entry(self):
        p = VTAGEPredictor()
        hist = HistoryState(0b1101, 0)
        # Train a value, then change it: the wrong prediction must allocate.
        pred = None
        for _ in range(5):
            pred = p.predict(PC, 0, hist)
            p.train(PC, 0, hist, 100, pred)
        allocated_before = sum(1 for t in p._t_tag if t != -1)
        pred = p.predict(PC, 0, hist)
        p.train(PC, 0, hist, 999, pred)  # mispredict
        allocated_after = sum(1 for t in p._t_tag if t != -1)
        assert allocated_after > allocated_before

    def test_value_installed_after_mispredict(self):
        """After training a constant, some component predicts it."""
        p = VTAGEPredictor()
        hist = HistoryState(0, 0)
        for _ in range(3):
            pred = p.predict(PC, 0, hist)
            p.train(PC, 0, hist, 42, pred)
        pred = p.predict(PC, 0, hist)
        assert pred is not None
        assert pred.value == 42

    def test_useful_reset_period(self):
        p = VTAGEPredictor(useful_reset_period=10)
        hist = HistoryState(0b111, 0)
        # Force usefulness (in the current generation), then push past the
        # reset period: every entry must read as not-useful again.  The
        # reset is a generation bump, not a table walk, so observe through
        # the logical accessor.
        all_slots = range(p.components * p.tagged_entries)
        for comp in range(p.components):
            first = comp * p.tagged_entries
            p._t_useful[first] = 1
            p._t_ugen[first] = p._useful_gen
        assert any(p._useful_value(i) == 1 for i in all_slots)
        for i in range(12):
            pred = p.predict(PC + 8 * i, 0, hist)
            p.train(PC + 8 * i, 0, hist, i, pred)
        assert all(p._useful_value(i) == 0 for i in all_slots)


class TestDVTAGEInternals:
    def test_lvt_claimed_at_fetch(self):
        p = DVTAGEPredictor()
        hist = HistoryState()
        assert p.predict(PC, 0, hist) is None  # claims the entry
        from repro.predictors.base import mix_pc, table_index
        idx = table_index(mix_pc(PC, 0), p.base_index_bits)
        assert p._l_tag[idx] != -1
        assert p._l_inflight[idx] == 1
        assert not p._l_valid[idx]

    def test_stale_train_after_steal_ignored(self):
        p = DVTAGEPredictor()
        hist = HistoryState()
        p.predict(PC, 0, hist)
        # Find another pc colliding on the same LVT index.
        from repro.predictors.base import mix_pc, table_index
        idx = table_index(mix_pc(PC, 0), p.base_index_bits)
        other = None
        for cand in range(PC + 1, PC + (1 << 20)):
            if (table_index(mix_pc(cand, 0), p.base_index_bits) == idx
                    and mix_pc(cand, 0) >> p.base_index_bits != mix_pc(PC, 0) >> p.base_index_bits):
                other = cand
                break
        assert other is not None
        p.predict(other, 0, hist)  # steals the entry
        tag_after_steal = p._l_tag[idx]
        p.train(PC, 0, hist, 123, None)  # stale train for the old owner
        assert p._l_tag[idx] == tag_after_steal  # unchanged

    def test_propagate_confidence_flag(self):
        on = DVTAGEPredictor(propagate_confidence=True)
        off = DVTAGEPredictor(propagate_confidence=False)
        assert on.propagate_confidence and not off.propagate_confidence
