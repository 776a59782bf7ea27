"""CI perf guard: diff a fresh bench run against the committed trajectory.

Compares the ``wall_seconds`` of a freshly generated ``BENCH_timeline.json``
against the committed one and fails (exit 1) when any shared experiment got
more than ``--max-regression`` slower in simulated-work-per-second terms
(wall seconds are inversely proportional to µops/sec for a fixed workload,
so a 25% throughput regression is a 1.333x wall-time blowup).

Wall-clock comparisons are only meaningful on the host that produced the
baseline: when the recorded host metadata (platform / machine / python)
differs between the two files, the guard *skips* with exit 0 — a fork or a
differently provisioned runner should not fail CI on hardware it never saw.

The batched-sweep benches (``benchmarks/test_bench_batch_fig6a.py``)
additionally record a serial/batched entry pair; the guard asserts the
batched entry keeps at least ``--min-batch-speedup`` over its serial
twin.  That ratio is taken within the fresh run (same host, same
session), so it is enforced even when the wall-time diff is skipped for
a host mismatch.

Usage (what the ``perf-guard`` CI job runs)::

    PYTHONPATH=src REPRO_BENCH_TIMELINE=fresh_timeline.json \
        python -m pytest benchmarks/test_bench_core_throughput.py \
            benchmarks/test_bench_batch_fig6a.py -q
    python examples/perf_guard.py --fresh fresh_timeline.json
"""

import argparse
import json
import sys
from pathlib import Path

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: >25% µops/sec regression == wall time above 1/0.75 of the baseline.
DEFAULT_MAX_REGRESSION = 0.25

#: Host fields that must match for wall-clock numbers to be comparable.
HOST_KEYS = ("platform", "machine", "python")

#: (serial, batched) wall-second entry pairs from the batched-sweep
#: benches: the batched entry must keep a real speedup over its serial
#: reference.  Unlike the wall-time diff this is a *within-run* ratio
#: (both entries come from the fresh timeline, same host, same session),
#: so it is checked even when the committed baseline is from another
#: host.
BATCH_SPEEDUP_PAIRS = (
    (
        "batch_fig6a::test_bench_fig6a_grid_serial",
        "batch_fig6a::test_bench_fig6a_grid_batched",
    ),
)

#: Floor on serial/batched wall: two thirds of the 1.73x median measured
#: once the serial walk gained the batch walk's specialisations (the same
#: margin 2.0 had against the >= 3x the batch once had over the old walk).
DEFAULT_MIN_BATCH_SPEEDUP = 1.15


def load(path: Path) -> dict:
    with open(path) as f:
        doc = json.load(f)
    if doc.get("schema") != 1:
        sys.exit(f"{path}: unsupported BENCH_timeline schema {doc.get('schema')!r}")
    return doc


def check_batch_speedup(fresh: dict, min_speedup: float) -> list[str]:
    """Within-run check: every batched bench beats its serial twin.

    Returns the failing batched entry keys; pairs whose entries are
    absent from the fresh timeline (the batch benches did not run) are
    silently skipped.
    """
    failures = []
    walls = fresh["wall_seconds"]
    for serial_key, batched_key in BATCH_SPEEDUP_PAIRS:
        if serial_key not in walls or batched_key not in walls:
            continue
        speedup = walls[serial_key] / walls[batched_key]
        verdict = "FAIL" if speedup < min_speedup else "ok"
        print(
            f"{verdict:4s} {batched_key}: {speedup:.2f}x over serial "
            f"(floor {min_speedup:.2f}x)"
        )
        if speedup < min_speedup:
            failures.append(batched_key)
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        default=_REPO_ROOT / "BENCH_timeline.json",
        help="committed trajectory (default: repo-root BENCH_timeline.json)",
    )
    parser.add_argument(
        "--fresh", type=Path, required=True, help="timeline of the fresh bench run"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=DEFAULT_MAX_REGRESSION,
        help="max tolerated fractional µops/sec regression (default 0.25)",
    )
    parser.add_argument(
        "--min-batch-speedup",
        type=float,
        default=DEFAULT_MIN_BATCH_SPEEDUP,
        help="min serial/batched wall ratio for the batched-sweep benches "
             f"(default {DEFAULT_MIN_BATCH_SPEEDUP}; within-run, so checked "
             "even across hosts)",
    )
    args = parser.parse_args()

    baseline = load(args.baseline)
    fresh = load(args.fresh)

    batch_failures = check_batch_speedup(fresh, args.min_batch_speedup)

    mismatched = [
        k
        for k in HOST_KEYS
        if baseline.get("host", {}).get(k) != fresh.get("host", {}).get(k)
    ]
    if mismatched:
        for key in mismatched:
            print(
                f"host {key!r} differs: baseline="
                f"{baseline.get('host', {}).get(key)!r} "
                f"fresh={fresh.get('host', {}).get(key)!r}"
            )
        print("perf guard SKIPPED: wall-clock baseline is from a different host")
        return 1 if batch_failures else 0

    shared = sorted(set(baseline["wall_seconds"]) & set(fresh["wall_seconds"]))
    if not shared:
        print("perf guard SKIPPED: no shared experiments between the timelines")
        return 1 if batch_failures else 0

    max_slowdown = 1.0 / (1.0 - args.max_regression)
    failures = []
    for key in shared:
        base_wall = baseline["wall_seconds"][key]
        fresh_wall = fresh["wall_seconds"][key]
        ratio = fresh_wall / base_wall
        verdict = "FAIL" if ratio > max_slowdown else "ok"
        print(
            f"{verdict:4s} {key}: {base_wall:.2f}s -> {fresh_wall:.2f}s "
            f"({ratio:.2f}x wall, limit {max_slowdown:.2f}x)"
        )
        if ratio > max_slowdown:
            failures.append(key)

    if failures:
        print(
            f"perf guard FAILED: {len(failures)}/{len(shared)} experiment(s) "
            f"regressed more than {args.max_regression:.0%} in µops/sec"
        )
        return 1
    if batch_failures:
        print(
            f"perf guard FAILED: {len(batch_failures)} batched bench(es) "
            f"below the {args.min_batch_speedup:.2f}x serial-speedup floor"
        )
        return 1
    print(f"perf guard OK: {len(shared)} experiment(s) within budget")
    return 0


if __name__ == "__main__":
    sys.exit(main())
