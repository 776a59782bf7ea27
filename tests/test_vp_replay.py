"""The timing model fed recorded predictions reproduces the live run.

:mod:`repro.pipeline.replay` splits a value-prediction cell into the walk
and the VP layers (``examples/vp_layer_split.py``); the split is only
meaningful if replaying the recorded ``(value, confident)`` pairs through
a stub adapter gives the live run's :class:`SimStats` exactly.
"""

import pytest

from repro.bebop import (
    BeBoPEngine,
    BlockDVTAGE,
    BlockDVTAGEConfig,
    RecoveryPolicy,
    SpeculativeWindow,
)
from repro.eval.runner import get_trace, make_bebop_engine, make_instr_predictor
from repro.pipeline import PipelineModel, baseline_vp_6_60, eole_4_60
from repro.pipeline.replay import RecordingVPAdapter, ReplayVPAdapter
from repro.pipeline.vp import InstructionVPAdapter
from repro.predictors.confidence import saturating_policy

UOPS = 4_000
WARMUP = UOPS // 3

CONFIGS = {
    "dvtage": (baseline_vp_6_60,
               lambda: InstructionVPAdapter(make_instr_predictor("d-vtage"))),
    "bebop": (eole_4_60, make_bebop_engine),
    # Saturating counters reach confidence within 4K µops on both traces,
    # so the replay also carries used (and some wrong) predictions.
    "bebop-satfpc": (eole_4_60, lambda: BeBoPEngine(
        BlockDVTAGE(BlockDVTAGEConfig(), fpc=saturating_policy()),
        SpeculativeWindow(32),
        RecoveryPolicy.DNRDNR,
    )),
}


@pytest.mark.parametrize("config", sorted(CONFIGS))
@pytest.mark.parametrize("workload", ["gcc", "swim"])
def test_replay_reproduces_live_stats(workload, config):
    core, make_adapter = CONFIGS[config]
    trace = get_trace(workload, UOPS)
    recorder = RecordingVPAdapter(make_adapter())
    live = PipelineModel(core(), recorder).run(trace, warmup_uops=WARMUP)
    assert live.vp_predicted > 0
    if config != "bebop":
        # FPC keeps BeBoP unconfident this early; the others hand the
        # walk confident predictions.
        assert any(p is not None and p[1] for g in recorder.groups for p in g)

    replay = ReplayVPAdapter(recorder.groups, recorder.fold_geometry())
    replayed = PipelineModel(core(), replay).run(trace, warmup_uops=WARMUP)
    assert replayed == live
    # Every recorded group was consumed, one per fetch_group call.
    assert next(replay._handles, None) is None


def test_recording_does_not_change_the_run():
    core, make_adapter = CONFIGS["bebop"]
    trace = get_trace("gcc", UOPS)
    plain = PipelineModel(core(), make_adapter()).run(trace, warmup_uops=WARMUP)
    recorded = PipelineModel(core(), RecordingVPAdapter(make_adapter())).run(
        trace, warmup_uops=WARMUP
    )
    assert recorded == plain
