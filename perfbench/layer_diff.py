"""Compare traced runs layer by layer.

    python3 perfbench/layer_diff.py BEFORE AFTER
    python3 perfbench/layer_diff.py --split DIR

``BEFORE`` and ``AFTER`` are directories holding the ``traced-<workload>.json``
files that ``run.py --trace 1`` writes to ``.perfbench_out/`` (copy that
directory away between the two commits).  For every workload present in
both, the first form prints each span's self time before and after, and
the delta, largest change first.

``--split`` reads one such directory and splits the Fig 6a batch win by
layer: the serial BeBoP-on-gcc cell of ``sim_single`` against one variant's
share of the batched ``fig6a_grid`` pass.  Times are also shown net of the
timing proxies (each recorded call costs ``trace.wrapper_ns``), because the
serial path makes far more proxied calls than the fused batched walk.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def load(path: Path) -> dict[str, dict]:
    """Traced runs by workload, from a directory or a single file."""
    files = sorted(path.glob("traced-*.json")) if path.is_dir() else [path]
    runs = {}
    for f in files:
        doc = json.loads(f.read_text())
        runs[doc["workload"]] = doc
    return runs


def diff(before: dict, after: dict, out=sys.stdout) -> None:
    for name in sorted(set(before) & set(after)):
        a, b = before[name]["spans"], after[name]["spans"]
        wa = before[name]["metrics"]["traced_wall_s"]
        wb = after[name]["metrics"]["traced_wall_s"]
        print(f"== {name}: traced wall {wa:.3f}s -> {wb:.3f}s "
              f"({wb - wa:+.3f}s)", file=out)
        rows = []
        for span in set(a) | set(b):
            sa = a.get(span, {}).get("self_s", 0.0)
            sb = b.get(span, {}).get("self_s", 0.0)
            rows.append((abs(sb - sa), span, sa, sb))
        print(f"   {'span':22s} {'before_s':>10s} {'after_s':>10s} "
              f"{'delta_s':>10s} {'delta':>8s}", file=out)
        for _, span, sa, sb in sorted(rows, reverse=True):
            rel = f"{(sb - sa) / sa:+.1%}" if sa else "new"
            print(f"   {span:22s} {sa:10.4f} {sb:10.4f} {sb - sa:+10.4f} "
                  f"{rel:>8s}", file=out)
        ua = before[name]["metrics"]["unattributed_s"]
        ub = after[name]["metrics"]["unattributed_s"]
        print(f"   {'unattributed':22s} {ua:10.4f} {ub:10.4f} "
              f"{ub - ua:+10.4f}", file=out)


#: Serial-path spans grouped the way ROADMAP item 1 names the layers.
SERIAL_GROUPS = {
    "front end (TAGE, BTB, folded histories)":
        ("branch.predict", "branch.train", "branch.btb", "history.op"),
    "BeBoP engine + block D-VTAGE": ("bebop.engine", "bebop.predictor"),
    "timing model (core self + memory)": ("pipeline.run", "pipeline.memory"),
    "model construction": ("bench.op",),
}


def _net(op: dict, spans, wrapper_s: float) -> tuple[float, float]:
    """(traced seconds, seconds net of proxy cost) of ``spans`` in one op.

    Each proxied call leaves ``wrapper_s`` in some span's self time; it is
    charged back to the span that made the call, approximated here as the
    group itself.
    """
    raw = sum(op["self_s"].get(s, 0.0) for s in spans)
    calls = sum(op["calls"].get(s, 0) for s in spans)
    return raw, raw - calls * wrapper_s


def split(runs: dict, out=sys.stdout) -> dict:
    """The Fig 6a batch win per variant, split by layer."""
    sim, grid = runs["sim_single"], runs["fig6a_grid"]
    cell = next(op for op in sim["ops"] if op["key"] == "gcc/bebop")
    gop = grid["ops"][0]
    variants = grid["metrics"]["batch.variants"]
    w_sim = sim["metrics"]["trace.wrapper_ns"] * 1e-9
    w_grid = grid["metrics"]["trace.wrapper_ns"] * 1e-9
    serial_total = _net(cell, cell["self_s"], w_sim)
    print("Serial BeBoP cell on gcc (sim_single, eole_4_60, 6p 2K+6x256):",
          file=out)
    result = {"serial": {}, "batched_per_variant": {}}
    for label, spans in SERIAL_GROUPS.items():
        raw, net = _net(cell, spans, w_sim)
        result["serial"][label] = net
        print(f"   {label:42s} {raw:8.4f}s traced {net:8.4f}s net", file=out)
    print(f"   {'total':42s} {serial_total[0]:8.4f}s traced "
          f"{serial_total[1]:8.4f}s net", file=out)
    groups = {
        "shared front-end precompute / variant":
            ("batch.precompute", "history.op", "branch.btb"),
        "fused walk / variant": ("batch.walk", "pipeline.memory"),
        "stacked tables + group glue / variant":
            ("batch.tables", "batch.group", "exec.sched", "exec.cache_get",
             "exec.cache_put", "bench.op"),
    }
    print(f"Batched fig6a_grid pass on gcc, per variant "
          f"({variants} variants):", file=out)
    batched = 0.0
    for label, spans in groups.items():
        raw, net = _net(gop, spans, w_grid)
        result["batched_per_variant"][label] = net / variants
        batched += net / variants
        print(f"   {label:42s} {raw / variants:8.4f}s traced "
              f"{net / variants:8.4f}s net", file=out)
    print(f"   {'total':42s} {'':16s} {batched:8.4f}s net", file=out)
    ratio = serial_total[1] / batched
    result["win"] = ratio
    print(f"Batch win: {serial_total[1]:.4f}s / {batched:.4f}s = "
          f"{ratio:.2f}x per variant", file=out)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="+", type=Path)
    parser.add_argument("--split", action="store_true",
                        help="split the Fig 6a batch win of one traced set")
    args = parser.parse_args(argv)
    if args.split:
        if len(args.paths) != 1:
            parser.error("--split takes one directory")
        split(load(args.paths[0]))
        return 0
    if len(args.paths) != 2:
        parser.error("give BEFORE and AFTER")
    diff(load(args.paths[0]), load(args.paths[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
