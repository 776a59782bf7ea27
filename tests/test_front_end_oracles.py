"""The specialised branch front end against straightforward oracles.

* ``FoldedHistorySet`` reads its path folds from byte tables of the raw
  path register; here they must equal one incrementally updated
  :class:`FoldedHistory` register per fold and ``fold_bits`` of the raw
  register, after every push.
* ``TAGEBranchPredictor`` predicts over packed hash lanes, longest
  component first, and unpacks them only to allocate; :class:`ListTAGE`
  keeps the list-based ``predict``/``_allocate`` it replaced, and the two
  must agree on every direction, meta, allocation and table state.
* ``BranchTargetBuffer.lookup`` checks the MRU way first; it must behave
  as a per-set list kept in LRU order.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.branch import BranchTargetBuffer, TAGEBranchPredictor
from repro.branch.tage import _BranchMeta
from repro.common.bits import fold_bits, mask
from repro.common.history import PATH_FOLD_BITS, FoldedHistory, FoldedHistorySet
from repro.predictors.base import HistoryState

# ---------------------------------------------------------------------------
# Path folds
# ---------------------------------------------------------------------------


class IncrementalPathFolds:
    """One :class:`FoldedHistory` per path fold, fed bit by bit."""

    def __init__(self, idx_pairs):
        self.regs = [FoldedHistory(min(length, PATH_FOLD_BITS), width)
                     for length, width in idx_pairs]
        self.raw = 0

    def push(self, value, bits):
        for i in range(bits - 1, -1, -1):
            bit = (value >> i) & 1
            for reg in self.regs:
                reg.update(bit, (self.raw >> (reg.history_length - 1)) & 1)
            self.raw = (self.raw << 1) | bit


def _path_lanes(state):
    """Every path fold of a snapshot, unpacked from ``pfolds``."""
    layout = state.layout
    return [(state.pfolds >> p) & ((1 << width) - 1)
            for p, (_length, width) in zip(layout.path_offsets,
                                           layout.idx_pairs)]


_idx_geometries = st.lists(
    st.tuples(
        # History lengths below, at and above PATH_FOLD_BITS; widths up to
        # 24, so some exceed their (path) length.
        st.one_of(st.integers(1, 15), st.just(PATH_FOLD_BITS),
                  st.integers(17, 80)),
        st.integers(1, 24),
    ),
    min_size=1, max_size=6,
)

_path_ops = st.lists(
    st.one_of(
        st.tuples(st.just("path"), st.integers(0, 0xFFFFF), st.integers(0, 20)),
        st.tuples(st.just("outcome"), st.booleans(), st.just(0)),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(idx_pairs=_idx_geometries, path_capacity=st.integers(16, 64),
       ops=_path_ops)
def test_path_folds_match_incremental_registers(idx_pairs, path_capacity, ops):
    hset = FoldedHistorySet(640, path_capacity, idx_pairs, [])
    ref = IncrementalPathFolds(idx_pairs)
    for kind, a, b in ops:
        if kind == "path":
            hset.push_path(a, b)
            ref.push(a, b)
        else:
            hset.push_outcome(a)
        state = hset.state()
        raw = state.path
        assert raw == ref.raw & mask(path_capacity)
        lanes = _path_lanes(state)
        assert lanes == [reg.value for reg in ref.regs]
        assert lanes == [
            fold_bits(raw & mask(min(length, PATH_FOLD_BITS)),
                      PATH_FOLD_BITS, width)
            for length, width in idx_pairs
        ]


def test_path_capacity_below_the_fold_input_is_rejected():
    with pytest.raises(ValueError):
        FoldedHistorySet(64, PATH_FOLD_BITS - 1, [(8, 4)], [])


# ---------------------------------------------------------------------------
# TAGE
# ---------------------------------------------------------------------------


class ListTAGE(TAGEBranchPredictor):
    """TAGE predicting and allocating over per-component lists, as the
    predictor did before it read packed lanes longest-first."""

    def predict(self, pc, hist):
        slots = self._hash.slots(pc, hist)
        indices, tags = slots
        t_tag = self._t_tag
        hit = alt = -1
        for comp in range(self.components):
            if t_tag[indices[comp]] == tags[comp]:
                alt = hit
                hit = comp
        base_taken = self._b_ctr[(pc >> 2) & self._bimodal_mask] >= 2
        if hit < 0:
            return base_taken, _BranchMeta(0, 0, 0, base_taken, False, slots)
        index = indices[hit]
        ctr = self._t_ctr[index]
        taken = ctr >= 4
        weak = ctr == 3 or ctr == 4
        if alt >= 0:
            alt_taken = self._t_ctr[indices[alt]] >= 4
        else:
            alt_taken = base_taken
        meta = _BranchMeta(hit + 1, index, tags[hit], alt_taken, weak, slots)
        if weak and self._use_alt_on_new_alloc >= 8:
            return alt_taken, meta
        return taken, meta

    def _allocate(self, slots, provider, taken):
        indices, tags = slots
        gen = self._useful_gen
        t_useful, t_ugen = self._t_useful, self._t_ugen
        candidates = []
        for comp in range(provider, self.components):
            index = indices[comp]
            if t_ugen[index] != gen:
                t_useful[index] = 0
                t_ugen[index] = gen
            if t_useful[index] == 0:
                candidates.append(comp)
        if not candidates:
            for index in indices[provider:]:
                t_useful[index] = max(0, t_useful[index] - 1)
            return
        if len(candidates) > 1 and self._rng.chance(0.5):
            choice = candidates[0]
        else:
            choice = candidates[self._rng.next_below(len(candidates))]
        index = indices[choice]
        self._t_tag[index] = tags[choice]
        self._t_ctr[index] = 4 if taken else 3
        t_useful[index] = 0
        t_ugen[index] = gen


def _tage_state(tage):
    return (tage._bimodal.dump(), tage._tagged.dump(), tage._rng._state,
            tage._use_alt_on_new_alloc, tage._updates, tage._useful_gen)


def _scramble(tage, rng, tag_bits):
    """Random table contents, so predictions hit at every depth."""
    for col, hi in ((tage._t_tag, (1 << tag_bits) - 1), (tage._t_ctr, 7),
                    (tage._t_useful, 3), (tage._t_ugen, 1)):
        for i in range(len(col)):
            col[i] = rng.randint(-1 if col is tage._t_tag else 0, hi)
    for i in range(len(tage._b_ctr)):
        tage._b_ctr[i] = rng.randint(0, 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), components=st.integers(1, 6),
       folded=st.booleans(), scrambled=st.booleans())
def test_tage_matches_list_oracle(seed, components, folded, scrambled):
    rng = random.Random(seed)
    # Small tables and short tags: hits, aliasing and reallocation between
    # predict and train all happen within a few hundred branches.
    config = dict(bimodal_entries=64, tagged_entries=16,
                  components=components, first_tag_bits=2, min_history=2,
                  max_history=40, useful_reset_period=97, seed=seed | 1)
    tage = TAGEBranchPredictor(**config)
    oracle = ListTAGE(**config)
    if scrambled:
        _scramble(tage, random.Random(seed), 3)
        _scramble(oracle, random.Random(seed), 3)
    idx, tag = tage.fold_geometry()
    hset = FoldedHistorySet(640, 64, idx, tag)
    pcs = [rng.randrange(0, 1 << 20) << 2 for _ in range(12)]
    pending = []
    for _step in range(300):
        pc = rng.choice(pcs)
        hist = hset.state()
        if not folded:
            hist = HistoryState(hist.branch, hist.path)
        got, meta = tage.predict(pc, hist)
        want, want_meta = oracle.predict(pc, hist)
        assert got == want
        for field in ("provider", "index", "tag", "alt_taken",
                      "provider_weak"):
            assert getattr(meta, field) == getattr(want_meta, field), field
        assert tage._hash.unpack(meta.slots) == list(zip(*want_meta.slots))
        taken = rng.random() < 0.6
        pending.append((pc, hist, taken, meta, want_meta))
        # Train out of order with predict, as the pipeline's commit-time
        # training does, so entries change between the two.
        while pending and (len(pending) > 4 or rng.random() < 0.5):
            b_pc, b_hist, b_taken, b_meta, b_want = pending.pop(0)
            tage.train(b_pc, b_hist, b_taken, b_meta)
            oracle.train(b_pc, b_hist, b_taken, b_want)
            assert _tage_state(tage) == _tage_state(oracle)
        hset.push_outcome(taken)
        if taken:
            hset.push_path(rng.randrange(1 << 16))


def test_tage_train_without_predict_metadata_slots():
    """A meta without slots is rehashed from the history at train time."""
    tage = TAGEBranchPredictor()
    oracle = ListTAGE()
    hist = HistoryState(0b1011, 0b10)
    for taken in (True, False, True, True, False):
        _p, meta = tage.predict(0x4000, hist)
        _q, want = oracle.predict(0x4000, hist)
        meta.slots = None
        tage.train(0x4000, hist, taken, meta)
        oracle.train(0x4000, hist, taken, want)
        assert _tage_state(tage) == _tage_state(oracle)


# ---------------------------------------------------------------------------
# BTB
# ---------------------------------------------------------------------------


class ListBTB:
    """Each set a list of ``[tag, target]``, least recently used first."""

    def __init__(self, entries, ways):
        self.ways = ways
        self.sets = [[] for _ in range(entries // ways)]

    def _find(self, pc):
        index = (pc >> 2) % len(self.sets)
        tag = (pc >> 2) // len(self.sets)
        ways = self.sets[index]
        for entry in ways:
            if entry[0] == tag:
                ways.remove(entry)
                ways.append(entry)
                return ways, tag, entry
        return ways, tag, None

    def lookup(self, pc):
        _ways, _tag, entry = self._find(pc)
        return None if entry is None else entry[1]

    def install(self, pc, target):
        ways, tag, entry = self._find(pc)
        if entry is not None:
            entry[1] = target
            return
        if len(ways) == self.ways:
            ways.pop(0)
        ways.append([tag, target])


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ways=st.sampled_from([1, 2, 4]),
       sets=st.sampled_from([1, 2, 4]))
def test_btb_matches_list_lru(seed, ways, sets):
    rng = random.Random(seed)
    btb = BranchTargetBuffer(entries=sets * ways, ways=ways)
    model = ListBTB(sets * ways, ways)
    pcs = [rng.randrange(0, 64) << 2 for _ in range(3 * sets * ways)]
    hits = 0
    for _ in range(400):
        pc = rng.choice(pcs)
        if rng.random() < 0.6:
            got = btb.lookup(pc)
            assert got == model.lookup(pc)
            hits += got is not None
        else:
            target = rng.randrange(1 << 32)
            btb.install(pc, target)
            model.install(pc, target)
        for s, entries in enumerate(model.sets):
            base = s * ways
            count = btb._count[s]
            assert [[btb._tag[base + i], btb._target[base + i]]
                    for i in range(count)] == entries
    assert btb.hits == hits
