"""Per-call cost of the branch front end, replayed outside the walk.

One ``sim_single``-style round (gcc and swim, each under the baseline,
instruction-based D-VTAGE and BeBoP+EOLE configs) runs with every call
into the front end recorded:

    TAGEBranchPredictor   predict, train
    FoldedHistorySet      state, push_outcome, push_path
    BranchTargetBuffer    lookup, install

together with the constructor arguments of every instance.  The calls are
then replayed, in their recorded order, on fresh instances built from
those arguments, with no simulation walk around them; a snapshot or a
prediction's metadata a call returned is handed on to later calls in its
replayed form.  Every replayed return must equal the recorded one (the
tool exits non-zero otherwise), which shows that each layer is a function
of its own call sequence and that the replay measured the same work.

Each replayed call is timed on its own, less the cost of an empty timer
pair, and scaled to the reference host with ``perfbench/hostspeed.py``,
so numbers taken at different times on a shared host compare.  The table
gives calls, median and 90th percentile µs per call, and the total.

Usage::

    PYTHONPATH=src python examples/layer_replay.py            # 16K µops, 3 passes
    PYTHONPATH=src python examples/layer_replay.py --quick    # 4K, 1 pass
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

from repro.branch.btb import BranchTargetBuffer  # noqa: E402
from repro.branch.tage import TAGEBranchPredictor, _BranchMeta  # noqa: E402
from repro.common.history import (  # noqa: E402
    FoldedHistorySet,
    FoldedHistoryState,
)
from repro.eval import runner  # noqa: E402

#: Recorded methods per class, in the order the table prints them.
METHODS = (
    (TAGEBranchPredictor, ("predict", "train")),
    (FoldedHistorySet, ("state", "push_outcome", "push_path")),
    (BranchTargetBuffer, ("lookup", "install")),
)

WORKLOADS = ("gcc", "swim")
CONFIGS = ("baseline", "dvtage", "bebop")

#: (µops per cell, replay passes): the documented run and ``--quick``.
FULL = (16_000, 3)
QUICK = (4_000, 1)

perf_ns = time.perf_counter_ns


class Recording:
    """Instances (class, args, kwargs) and calls (instance number, method
    name, args, return value) in the order they happened."""

    def __init__(self) -> None:
        self.instances: list[tuple[type, tuple, dict]] = []
        self.calls: list[tuple[int, str, tuple, object]] = []
        self._number: dict[int, int] = {}
        self._keep: list[object] = []

    def instance_number(self, obj) -> int:
        return self._number[id(obj)]

    def add_instance(self, obj, args: tuple, kwargs: dict) -> None:
        self._number[id(obj)] = len(self.instances)
        self._keep.append(obj)          # ids stay unique while recorded
        self.instances.append((type(obj), args, kwargs))


def _run_cell(workload: str, config: str, uops: int):
    trace = runner.get_trace(workload, uops)
    warmup = uops // 3
    if config == "baseline":
        return runner.run_baseline(trace, warmup)
    if config == "dvtage":
        return runner.run_instr_vp(
            trace, runner.make_instr_predictor("d-vtage"), warmup)
    return runner.run_bebop_eole(trace, runner.make_bebop_engine(), warmup)


def record(uops: int, cells=None) -> Recording:
    """One round of ``cells`` (default: every workload × config) with the
    front end's constructors and methods recorded."""
    rec = Recording()
    saved = []

    def wrap_init(cls):
        init = cls.__init__

        def recorded_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            if type(self) is cls:
                rec.add_instance(self, args, kwargs)
        return init, recorded_init

    def wrap_method(name, fn):
        def recorded(self, *args):
            out = fn(self, *args)
            rec.calls.append((rec.instance_number(self), name, args, out))
            return out
        return recorded

    for cls, names in METHODS:
        init, recorded_init = wrap_init(cls)
        saved.append((cls, "__init__", init))
        cls.__init__ = recorded_init
        for name in names:
            fn = cls.__dict__[name]
            saved.append((cls, name, fn))
            setattr(cls, name, wrap_method(name, fn))
    try:
        for workload, config in cells or [
            (w, c) for w in WORKLOADS for c in CONFIGS
        ]:
            _run_cell(workload, config, uops)
    finally:
        for cls, name, fn in saved:
            setattr(cls, name, fn)
    return rec


#: Fields compared of the objects a call returns and later calls take.
HANDED_ON = {
    FoldedHistoryState: ("branch", "path", "bfolds", "pfolds"),
    _BranchMeta: _BranchMeta.__slots__,
}


def _same(replayed, recorded) -> bool:
    """Equality of returns, field by field for snapshots and metas."""
    if isinstance(recorded, tuple):
        return (isinstance(replayed, tuple) and len(replayed) == len(recorded)
                and all(_same(a, b) for a, b in zip(replayed, recorded)))
    fields = HANDED_ON.get(type(recorded))
    if fields is not None:
        return type(replayed) is type(recorded) and all(
            getattr(replayed, f) == getattr(recorded, f) for f in fields)
    return replayed == recorded


def _timer_ns() -> float:
    """Median cost of an empty timer pair, in ns."""
    samples = []
    for _ in range(20_000):
        t0 = perf_ns()
        samples.append(perf_ns() - t0)
    return statistics.median(samples)


def replay(rec: Recording) -> dict[str, list[int]]:
    """Replay ``rec`` on fresh instances; raw ns per call, per method.

    Raises AssertionError at the first return that differs from the
    recorded one."""
    objs = [cls(*args, **kwargs) for cls, args, kwargs in rec.instances]
    names_of = dict(METHODS)
    fns = [{name: cls.__dict__[name] for name in names_of[cls]}
           for cls, _a, _k in rec.instances]
    counterpart: dict[int, object] = {}
    times: dict[str, list[int]] = {}
    was_on = gc.isenabled()
    gc.disable()
    try:
        for n, (number, name, args, want) in enumerate(rec.calls):
            if any(type(a) in HANDED_ON for a in args):
                args = tuple(counterpart[id(a)] if type(a) in HANDED_ON else a
                             for a in args)
            fn = fns[number][name]
            obj = objs[number]
            t0 = perf_ns()
            out = fn(obj, *args)
            dt = perf_ns() - t0
            if not _same(out, want):
                raise AssertionError(
                    f"call {n} ({type(obj).__name__}.{name}) returned "
                    f"{out!r}, recorded {want!r}"
                )
            if type(want) is FoldedHistoryState:
                counterpart[id(want)] = out
            elif name == "predict":
                counterpart[id(want[1])] = out[1]
            times.setdefault(f"{type(obj).__name__}.{name}", []).append(dt)
    finally:
        if was_on:
            gc.enable()
    return times


def per_call(uops: int, passes: int, cells=None) -> dict[str, dict]:
    """Per method: calls and host-scaled median/p90/total µs per call."""
    rec = record(uops, cells)
    timer = _timer_ns()
    pooled: dict[str, list[float]] = {}
    clock = Clock()
    for _ in range(passes):
        times = replay(rec)
        scale = clock.scale()
        for key, ns in times.items():
            pooled.setdefault(key, []).extend(
                max(0.0, t - timer) * scale / 1e3 for t in ns)
    out = {}
    for cls, names in METHODS:
        for name in names:
            key = f"{cls.__name__}.{name}"
            us = sorted(pooled.get(key, []))
            if not us:
                continue
            out[key] = {
                "calls": len(us) // passes,
                "median_us": statistics.median(us),
                "p90_us": us[min(len(us) - 1, int(0.9 * len(us)))],
                "total_ms": sum(us) / passes / 1e3,
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="4000 µops, one pass: a fast identity check")
    args = parser.parse_args(argv)
    uops, passes = QUICK if args.quick else FULL
    result = per_call(uops, passes)
    print(f"{len(WORKLOADS) * len(CONFIGS)} cells of {uops} µops, "
          f"{passes} replay pass(es), host-scaled µs per call")
    print(f"{'method':<34}{'calls':>8}{'median':>9}{'p90':>9}{'total ms':>10}")
    for key, r in result.items():
        print(f"{key:<34}{r['calls']:>8}{r['median_us']:9.2f}"
              f"{r['p90_us']:9.2f}{r['total_ms']:10.1f}")
    print("replayed returns identical to recorded: yes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
