"""End-to-end bit-identity of simulation statistics against golden records.

``tests/data/golden_stats.json`` holds the full :class:`SimStats` of nine
representative configurations (baseline, instruction-based VP flavours, EOLE
and BeBoP/EOLE, over gcc and swim traces), captured from the tree *before*
the incremental-folded-history and bounded-machine-state optimisations
landed.  The optimisations are pure performance work: every statistic must
stay bit-for-bit identical.  Any intentional model change that legitimately
shifts these numbers must regenerate the golden file and say why in the
commit message.

Regenerate with::

    PYTHONPATH=src python examples/capture_golden_stats.py
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.eval.runner import (
    get_trace,
    make_bebop_engine,
    make_instr_predictor,
    run_baseline,
    run_bebop_eole,
    run_eole_instr_vp,
    run_instr_vp,
)
from repro.predictors.perpath import PerPathStridePredictor

_GOLDEN_PATH = Path(__file__).parent / "data" / "golden_stats.json"
_GOLDEN = json.loads(_GOLDEN_PATH.read_text())


def _run(key: str):
    workload, config = key.split("/")
    trace = get_trace(workload, _GOLDEN["uops"])
    warmup = _GOLDEN["warmup"]
    if config == "baseline":
        return run_baseline(trace, warmup)
    if config == "dvtage":
        return run_instr_vp(trace, make_instr_predictor("d-vtage"), warmup)
    if config == "vtage":
        return run_instr_vp(trace, make_instr_predictor("vtage"), warmup)
    if config == "hybrid":
        return run_instr_vp(trace, make_instr_predictor("vtage-2d-stride"), warmup)
    if config == "perpath":
        return run_instr_vp(trace, PerPathStridePredictor(), warmup)
    if config == "eole-dvtage":
        return run_eole_instr_vp(trace, make_instr_predictor("d-vtage"), warmup)
    if config == "eole-bebop":
        return run_bebop_eole(trace, make_bebop_engine(), warmup)
    raise ValueError(f"unknown golden config {config!r}")


# The id suffix names the table storage, python lists; it keeps these
# cases' ids stable from when a numpy storage ran beside it.
@pytest.mark.parametrize(
    "key", sorted(_GOLDEN["runs"]), ids=lambda key: f"{key}-python"
)
def test_stats_bit_identical_to_golden(key):
    got = dataclasses.asdict(_run(key))
    want = _GOLDEN["runs"][key]
    assert got == want, (
        f"{key}: simulation statistics diverged from the golden record — "
        "optimisations must be bit-identical"
    )
