"""The batched front end hashes exactly like the reference formulation.

``repro.batch`` reads every TAGE and D-VTAGE slot through the serial
predictors' :class:`~repro.predictors.base.TaggedSlots`, straight from
each history snapshot's packed fold registers.  These tests recompute
every slot of a real front end with the reference
:func:`~repro.predictors.base.tagged_index` /
:func:`~repro.predictors.base.tagged_tag` over the raw history registers
(a plain :class:`HistoryState` has no folds, so they fold on demand) and
check that the fast path found each geometry's folds instead of falling
back to that on-demand path.
"""

import pytest

from repro.batch.dispatch import shared_front_end
from repro.batch.precompute import (
    U_EPOCH,
    U_IS_COND,
    U_PC,
    U_TAGE,
    geometry_key,
    tage_slots,
)
from repro.bebop import BlockDVTAGEConfig
from repro.branch.tage import TAGEBranchPredictor
from repro.common.bits import fold_bits
from repro.eval.runner import get_trace
from repro.predictors.base import HistoryState, tagged_index, tagged_tag

UOPS = 6_000

#: One geometry, and the two Fig 6a registers for its table sizes.
GEOMETRIES = {
    "default": [BlockDVTAGEConfig()],
    "fig6a_union": [
        BlockDVTAGEConfig(base_entries=1024, tagged_entries=128),
        BlockDVTAGEConfig(base_entries=2048, tagged_entries=256),
    ],
}


def reference_slots(key, state, lengths, index_bits, tag_bits, entries):
    """Every component's (index, tag), folded on demand from raw history."""
    hist = HistoryState(state.branch, state.path)
    return [
        (comp * entries + tagged_index(key, hist, length, index_bits),
         tagged_tag(key, hist, length, tag_bits[comp]))
        for comp, length in enumerate(lengths)
    ]


@pytest.fixture(scope="module", params=sorted(GEOMETRIES))
def front_end(request):
    configs = GEOMETRIES[request.param]
    fe, geos = shared_front_end(get_trace("gcc", UOPS), configs)
    return configs, fe, geos


def test_every_geometry_reads_packed_folds(front_end):
    configs, fe, geos = front_end
    layout = fe.states[0].layout
    assert len(geos) == len(configs)
    for config in configs:
        h = geos[geometry_key(config)].hash
        assert layout.component_lanes(
            h.lengths, h.index_bits, h.tag_bits
        ) is not None, f"{config} fell back to on-demand folding"
    tage = tage_slots()
    assert layout.component_lanes(
        tage.lengths, tage.index_bits, tage.tag_bits
    ) is not None


def test_dvtage_slots_match_reference(front_end):
    configs, fe, geos = front_end
    for config in configs:
        geo = geos[geometry_key(config)]
        h = geo.hash
        base_bits = config.base_entries.bit_length() - 1
        checked = set()
        for (start, _end), (key, *_rest) in zip(fe.groups, fe.group_meta):
            epoch = fe.uops[start][U_EPOCH]
            if (epoch, key) in checked:
                continue
            checked.add((epoch, key))
            (lvt_index, lvt_tag), lanes = geo.slots(epoch, key)
            assert lvt_index == fold_bits(key, 64, base_bits)
            assert lvt_tag == (key >> base_bits) & (
                (1 << config.lvt_tag_bits) - 1
            )
            assert h.unpack(lanes) == reference_slots(
                key, fe.states[epoch], h.lengths, h.index_bits, h.tag_bits,
                config.tagged_entries,
            )
        assert len(checked) > 100


def test_tage_slots_match_reference(front_end):
    _configs, fe, _geos = front_end
    tage = TAGEBranchPredictor()
    branches = [u for u in fe.uops if u[U_IS_COND]]
    assert len(branches) > 100
    for uop in branches:
        pc = uop[U_PC]
        bim_index, (indices, tags) = uop[U_TAGE]
        assert bim_index == (pc >> 2) & (tage.bimodal_entries - 1)
        assert list(zip(indices, tags)) == reference_slots(
            pc, fe.states[uop[U_EPOCH]], tage.history_lengths,
            tage.tagged_index_bits, tage.tag_bits, tage.tagged_entries,
        )


def test_no_fold_dicts_materialised(front_end):
    """The fast path never unpacks a snapshot into its fold dicts."""
    _configs, fe, _geos = front_end
    assert all(s._idx is None and s._tag is None for s in fe.states)
