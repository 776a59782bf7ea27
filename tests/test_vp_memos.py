"""The value-prediction layers' memos grow with the program, not the trace.

The predictor hot paths memoise pure functions of static keys: D-VTAGE's
LVT slot per (PC xor µ-op index), and the block D-VTAGE's LVT slot per
fetch block and its last byte-tag update per LVT entry.  Each cell runs
at two trace lengths whose static footprint (the distinct µ-ops and
blocks they touch) is the same; every memo must then have the same size
at both lengths, and never more entries than that footprint.
"""

import pytest

from repro.eval.runner import get_trace, make_bebop_engine, make_instr_predictor
from repro.pipeline import PipelineModel, baseline_vp_6_60, eole_4_60
from repro.pipeline.vp import InstructionVPAdapter

LENGTHS = (8_000, 16_000)


def footprint(uops):
    """(static µ-op keys, static blocks) the trace touches."""
    keys = {u.pc ^ u.uop_index for u in uops if u.is_vp_eligible}
    return len(keys), len({u.block_pc for u in uops})


def dvtage_memos(trace):
    adapter = InstructionVPAdapter(make_instr_predictor("d-vtage"))
    PipelineModel(baseline_vp_6_60(), adapter).run(trace)
    p = adapter.predictor
    # (memo, bound): "uops" = static µ-op keys, "blocks" = static blocks.
    return {"lvt_slots": (len(p._lvt_slots), "uops")}


def bebop_memos(trace):
    engine = make_bebop_engine()
    PipelineModel(eole_4_60(), engine).run(trace)
    p = engine.predictor
    return {"blocks": (len(p._blocks), "blocks"),
            "tag_updates": (len(p._tag_updates._last), "blocks")}


@pytest.mark.parametrize("memos", [dvtage_memos, bebop_memos],
                         ids=["dvtage", "bebop"])
@pytest.mark.parametrize("workload", ["gcc", "swim"])
def test_memos_bounded_by_static_footprint(workload, memos):
    runs = []
    for uops in LENGTHS:
        trace = get_trace(workload, uops)
        runs.append((footprint(trace.uops), memos(trace)))
    (short_fp, short), (long_fp, long) = runs
    assert short_fp == long_fp, "both lengths must cover the same code"
    static = dict(zip(("uops", "blocks"), long_fp))
    for name, (size, bound) in long.items():
        assert size == short[name][0], f"{name} grew with the trace length"
        assert 0 < size <= static[bound], (name, size, static[bound])
