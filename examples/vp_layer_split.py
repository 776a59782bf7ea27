"""Split a value-prediction cell's time into the walk and the VP layers.

For each cell (gcc and swim, instruction-based D-VTAGE and BeBoP+EOLE,
the value-prediction cells of the ``sim_single`` benchmark) this runs the
simulation live while recording every prediction the pipeline is handed,
then replays those predictions through a stub adapter that does nothing
else (:mod:`repro.pipeline.replay`).  The replayed run must reproduce the
live :class:`SimStats` exactly; the tool exits non-zero if it does not.

    full        live run: timing model + predictor + engine/adapter
    replayed    the same walk fed the recorded predictions
    VP layers   full - replayed

Times are medians over five runs, scaled to the reference host with
``perfbench/hostspeed.py`` (a fixed pure-Python kernel timed between
runs), so numbers taken at different times on a shared host compare.

Usage::

    PYTHONPATH=src python examples/vp_layer_split.py            # 16K µops
    PYTHONPATH=src python examples/vp_layer_split.py --quick    # 4K, 1 run
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from hostspeed import Clock  # noqa: E402

from repro.eval.runner import (  # noqa: E402
    get_trace,
    make_bebop_engine,
    make_instr_predictor,
)
from repro.pipeline import PipelineModel, baseline_vp_6_60, eole_4_60  # noqa: E402
from repro.pipeline.replay import RecordingVPAdapter, ReplayVPAdapter  # noqa: E402
from repro.pipeline.vp import InstructionVPAdapter  # noqa: E402

WORKLOADS = ("gcc", "swim")

#: config name -> (core config factory, live adapter factory).
CONFIGS = {
    "dvtage": (baseline_vp_6_60,
               lambda: InstructionVPAdapter(make_instr_predictor("d-vtage"))),
    "bebop": (eole_4_60, make_bebop_engine),
}

CELLS = tuple(f"{wl}/{cfg}" for wl in WORKLOADS for cfg in CONFIGS)

#: (µops per cell, timed runs per side and cell): the documented run and
#: ``--quick``, a fast identity check.
FULL = (16_000, 5)
QUICK = (4_000, 1)


def record(cell: str, uops: int):
    """(live stats, recorded groups, fold geometry) of one cell."""
    workload, config = cell.split("/")
    core, make_adapter = CONFIGS[config]
    recorder = RecordingVPAdapter(make_adapter())
    stats = PipelineModel(core(), recorder).run(
        get_trace(workload, uops), warmup_uops=uops // 3
    )
    return stats, recorder.groups, recorder.fold_geometry()


def run_live(cell: str, uops: int):
    workload, config = cell.split("/")
    core, make_adapter = CONFIGS[config]
    model = PipelineModel(core(), make_adapter())
    trace = get_trace(workload, uops)
    gc.collect()            # start each timed run from the same heap state
    t0 = time.perf_counter()
    stats = model.run(trace, warmup_uops=uops // 3)
    return stats, time.perf_counter() - t0


def run_replayed(cell: str, uops: int, groups, geometry):
    workload, config = cell.split("/")
    core, _ = CONFIGS[config]
    model = PipelineModel(core(), ReplayVPAdapter(groups, geometry))
    trace = get_trace(workload, uops)
    gc.collect()
    t0 = time.perf_counter()
    stats = model.run(trace, warmup_uops=uops // 3)
    return stats, time.perf_counter() - t0


def split(uops: int, repeats: int, cells=CELLS) -> dict:
    """Per cell: median scaled full/replayed/VP seconds; raises if a
    replayed run's stats differ from the live run's."""
    recorded = {cell: record(cell, uops) for cell in cells}
    full = {cell: [] for cell in cells}
    replayed = {cell: [] for cell in cells}
    clock = Clock()
    for _ in range(repeats):
        # Alternate live and replayed runs, so a slow stretch of the host
        # hits both sides alike.
        for cell in cells:
            want, groups, geometry = recorded[cell]
            stats, dt = run_live(cell, uops)
            full[cell].append(dt * clock.scale())
            if stats != want:
                raise AssertionError(f"{cell}: live run is not repeatable")
            stats, dt = run_replayed(cell, uops, groups, geometry)
            replayed[cell].append(dt * clock.scale())
            if stats != want:
                raise AssertionError(
                    f"{cell}: replayed predictions changed the SimStats"
                )
    out = {}
    for cell in cells:
        f = statistics.median(full[cell])
        r = statistics.median(replayed[cell])
        out[cell] = {"full_s": f, "replayed_s": r, "vp_s": f - r}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="4000 µops, one run: a fast identity check")
    args = parser.parse_args(argv)
    uops, repeats = QUICK if args.quick else FULL
    result = split(uops, repeats)

    print(f"{uops} µops per cell, median of {repeats}, host-scaled ms")
    print(f"{'cell':<14}{'full':>9}{'replayed':>10}{'VP layers':>11}"
          f"{'share':>8}")
    for cell, r in result.items():
        print(f"{cell:<14}{r['full_s'] * 1e3:9.1f}{r['replayed_s'] * 1e3:10.1f}"
              f"{r['vp_s'] * 1e3:11.1f}{r['vp_s'] / r['full_s']:8.0%}")
    total = {k: sum(r[k] for r in result.values())
             for k in ("full_s", "replayed_s", "vp_s")}
    print(f"{'total':<14}{total['full_s'] * 1e3:9.1f}"
          f"{total['replayed_s'] * 1e3:10.1f}{total['vp_s'] * 1e3:11.1f}"
          f"{total['vp_s'] / total['full_s']:8.0%}")
    print("replayed SimStats identical to live: yes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
