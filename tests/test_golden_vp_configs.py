"""Bit-identity of the value-prediction configs the nine golden points miss.

``tests/data/golden_stats.json`` covers one configuration per VP
organisation.  ``tests/data/golden_vp_configs.json`` adds the remaining
instruction-based predictors (LVP, 2-delta stride, stride, FCM, D-FCM) and
the D-VTAGE / BeBoP knobs the experiments sweep: partial strides (8, 16
and 32 bits), saturating confidence counters instead of FPC, and
confidence propagation at the instruction level.  Each point is the full
:class:`SimStats` of a gcc and a swim trace, checked on every available
table backend.

Regenerate (only after an intentional model change) with::

    PYTHONPATH=src python examples/capture_golden_stats.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.bebop import (
    BeBoPEngine,
    BlockDVTAGE,
    BlockDVTAGEConfig,
    RecoveryPolicy,
    SpeculativeWindow,
)
from repro.common.tables import numpy_available, use_table_backend
from repro.eval.runner import (
    get_trace,
    make_bebop_engine,
    make_instr_predictor,
    run_bebop_eole,
    run_instr_vp,
)
from repro.predictors import (
    DFCMPredictor,
    DVTAGEPredictor,
    FCMPredictor,
    StridePredictor,
)
from repro.predictors.confidence import saturating_policy

GOLDEN_VP_PATH = Path(__file__).parent / "data" / "golden_vp_configs.json"

UOPS = 24_000
WARMUP = 8_000
WORKLOADS = ("gcc", "swim")


def _instr(make):
    return lambda trace: run_instr_vp(trace, make(), WARMUP)


def _bebop(make):
    return lambda trace: run_bebop_eole(trace, make(), WARMUP)


#: config name -> callable(trace) producing SimStats.
CONFIGS = {
    "lvp": _instr(lambda: make_instr_predictor("lvp")),
    "2d-stride": _instr(lambda: make_instr_predictor("2d-stride")),
    "stride": _instr(StridePredictor),
    "fcm": _instr(FCMPredictor),
    "dfcm": _instr(DFCMPredictor),
    "dvtage-s8": _instr(lambda: DVTAGEPredictor(stride_bits=8)),
    "dvtage-s16": _instr(lambda: DVTAGEPredictor(stride_bits=16)),
    "dvtage-s32": _instr(lambda: DVTAGEPredictor(stride_bits=32)),
    "dvtage-satfpc": _instr(lambda: DVTAGEPredictor(fpc=saturating_policy())),
    "dvtage-propagate": _instr(
        lambda: DVTAGEPredictor(propagate_confidence=True)
    ),
    "bebop-s8": _bebop(lambda: make_bebop_engine(BlockDVTAGEConfig(stride_bits=8))),
    "bebop-s16": _bebop(
        lambda: make_bebop_engine(BlockDVTAGEConfig(stride_bits=16))
    ),
    "bebop-s32": _bebop(
        lambda: make_bebop_engine(BlockDVTAGEConfig(stride_bits=32))
    ),
    "bebop-satfpc": _bebop(lambda: BeBoPEngine(
        BlockDVTAGE(BlockDVTAGEConfig(), fpc=saturating_policy()),
        SpeculativeWindow(32),
        RecoveryPolicy.DNRDNR,
    )),
}

RUNS = tuple(f"{wl}/{name}" for name in CONFIGS for wl in WORKLOADS)


def vp_config_stats(key: str) -> dict:
    """The SimStats of golden point ``<workload>/<config>`` as a dict."""
    workload, config = key.split("/")
    return dataclasses.asdict(CONFIGS[config](get_trace(workload, UOPS)))


BACKENDS = [
    "python",
    pytest.param("numpy", marks=pytest.mark.skipif(
        not numpy_available(), reason="numpy backend not installed")),
]


def _golden() -> dict:
    return json.loads(GOLDEN_VP_PATH.read_text())


def test_golden_file_covers_every_config():
    golden = _golden()
    assert (golden["uops"], golden["warmup"]) == (UOPS, WARMUP)
    assert sorted(golden["runs"]) == sorted(RUNS)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("key", RUNS)
def test_vp_config_stats_bit_identical(key, backend):
    with use_table_backend(backend):
        got = vp_config_stats(key)
    assert got == _golden()["runs"][key], (
        f"{key} [{backend}]: simulation statistics diverged from the golden "
        "record"
    )
