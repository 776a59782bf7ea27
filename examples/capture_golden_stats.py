"""Regenerate ``tests/data/golden_stats.json`` and ``golden_traces.json``.

The first golden file pins the full :class:`SimStats` of nine
representative configurations so ``tests/test_golden_identity.py`` can
enforce that performance work on the simulator inner loop stays
bit-identical.  The second pins a digest of every workload's dynamic trace
and the trace generator's end state, checked by
``tests/test_trace_identity.py``.  Only rerun this after an *intentional*
model change — and explain the shift in the commit message.

Usage::

    PYTHONPATH=src python examples/capture_golden_stats.py
"""

import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from repro.eval.runner import (  # noqa: E402
    get_trace,
    make_bebop_engine,
    make_instr_predictor,
    run_baseline,
    run_bebop_eole,
    run_eole_instr_vp,
    run_instr_vp,
)
from repro.predictors.perpath import PerPathStridePredictor  # noqa: E402
from tests.test_trace_identity import (  # noqa: E402
    GOLDEN_TRACES_PATH,
    RUNS as TRACE_RUNS,
    trace_record,
    workload_names,
)

UOPS = 24_000
WARMUP = 8_000

#: config name -> callable(trace) producing SimStats.
CONFIGS = {
    "baseline": lambda t: run_baseline(t, WARMUP),
    "dvtage": lambda t: run_instr_vp(t, make_instr_predictor("d-vtage"), WARMUP),
    "vtage": lambda t: run_instr_vp(t, make_instr_predictor("vtage"), WARMUP),
    "hybrid": lambda t: run_instr_vp(
        t, make_instr_predictor("vtage-2d-stride"), WARMUP
    ),
    "perpath": lambda t: run_instr_vp(t, PerPathStridePredictor(), WARMUP),
    "eole-dvtage": lambda t: run_eole_instr_vp(
        t, make_instr_predictor("d-vtage"), WARMUP
    ),
    "eole-bebop": lambda t: run_bebop_eole(t, make_bebop_engine(), WARMUP),
}

#: The nine golden (workload, config) points: every VP organisation at least
#: once, two workload behaviour classes (control-dependent gcc, strided swim).
RUNS = (
    "gcc/baseline",
    "gcc/dvtage",
    "gcc/vtage",
    "gcc/perpath",
    "gcc/eole-dvtage",
    "gcc/eole-bebop",
    "swim/dvtage",
    "swim/hybrid",
    "swim/eole-bebop",
)


def _write_json(path: Path, doc: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def main() -> None:
    out = ROOT / "tests" / "data" / "golden_stats.json"
    runs = {}
    for key in RUNS:
        workload, config = key.split("/")
        trace = get_trace(workload, UOPS)
        runs[key] = dataclasses.asdict(CONFIGS[config](trace))
        print(f"captured {key}")
    _write_json(out, {"uops": UOPS, "warmup": WARMUP, "runs": runs})
    print(f"wrote {len(runs)} golden runs -> {out}")

    # One line per workload, so a diff names the workloads that moved.
    traces = [
        f"    {json.dumps(name)}: {json.dumps(trace_record(name), sort_keys=True)}"
        for name in workload_names()
    ]
    with open(GOLDEN_TRACES_PATH, "w") as f:
        f.write(f'{{\n  "runs": {json.dumps(list(TRACE_RUNS))},\n  "traces": {{\n')
        f.write(",\n".join(traces))
        f.write("\n  }\n}\n")
    print(f"wrote {len(traces)} golden trace digests -> {GOLDEN_TRACES_PATH}")


if __name__ == "__main__":
    main()
