"""Self-tests of the benchmark: smoke runs, output contract, failure checks.

    python3 -m pytest perfbench/tests

The smoke runs use the benchmark's own scale and its stored
``expected.json`` with one-second measured phases.  The failure-injection
tests build tiny cells and hand the workloads their own expected stats.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from repro.exec import ResultCache, stats_from_dict, stats_to_dict

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = 2_000


def run_bench(*args: str) -> tuple[int, list[str]]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    code, lines = run_bench("--workload", workload, "--seed", "3",
                            "--seconds", "1", "--trace", trace)
    assert code == 0, lines
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["end_to_end"] if trace == "0" else BENCH["per_layer"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        metrics = result["metrics"]
        assert (metrics["unattributed_frac"]["value"]
                <= run.UNATTRIBUTED_TOLERANCE)
        assert metrics["traced_wall_s"]["value"] > 0


def test_unwrapped_layer_fails_the_traced_run(monkeypatch, tmp_path):
    """With PipelineModel.run left unwrapped, the timing model's own time
    falls outside every layer span, and the traced run must fail."""
    targets = tracing._targets
    monkeypatch.setattr(tracing, "_targets", lambda: [
        t for t in targets() if t[2] != "pipeline.run"])
    monkeypatch.setattr(run, "OUT", tmp_path)
    metrics, _, failed, _ = run.run_traced(workloads.SimSingle(1),
                                           "sim_single", 1)
    assert metrics["unattributed_frac"]["value"] > run.UNATTRIBUTED_TOLERANCE
    assert failed >= 1


def test_missing_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim_single",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_seed_drives_serve_requests_only():
    a = workloads.ServeMixed(1, blocks=20)
    b = workloads.ServeMixed(2, blocks=20)
    assert a.sequence != b.sequence
    assert a.sequence == workloads.ServeMixed(1, blocks=20).sequence
    assert sum(kind == "miss" for kind, _ in a.sequence) == 20
    assert len(a.sequence) == 20 * workloads.MISS_EVERY


def test_wrong_sim_stats_count_as_failed():
    expected = workloads.capture(TINY)
    cell = expected["sim_single"]["gcc/bebop"]
    cell["cycles"] += 1
    wl = workloads.SimSingle(1, TINY, expected)
    wl.setup()
    m = wl.measure(0)
    assert sum(op.failed for op in m.ops) == 1


def test_wrong_grid_stats_count_as_failed():
    expected = workloads.capture(TINY)
    expected["fig6a_grid"]["8p 2K+6x256"]["vp_used"] += 1
    wl = workloads.Fig6aGrid(1, TINY, expected)
    wl.setup()
    m = wl.measure(0)
    wl.close()
    assert sum(op.failed for op in m.ops) == 1


def test_wrong_served_payload_counts_as_failed():
    """A blob with a valid checksum but wrong stats must still be caught."""
    wl = workloads.ServeMixed(5, blocks=40)
    wl.setup()
    try:
        spec = wl.hit_specs[0]
        wrong = stats_to_dict(wl.hit_stats[spec.digest()])
        wrong["cycles"] += 1
        ResultCache(root=wl.root).put(spec, stats_from_dict(wrong))
        m = wl.measure(1.0)
    finally:
        wl.close()
    failed = sum(op.failed for op in m.ops)
    attempted = sum(op.cells for op in m.ops)
    served = sum(s is spec for _, s in wl.sequence[:len(m.ops)])
    assert served >= 1
    assert failed == served
    assert 0 < failed / attempted < 1


def test_scaled_times_follow_the_kernel_alone(monkeypatch):
    import hostspeed

    kernel = iter([0.08, 0.08, 0.16])
    monkeypatch.setattr(hostspeed, "kernel_s", lambda: next(kernel))
    clock = hostspeed.Clock()
    assert clock.scale() == 1.0
    assert clock.scale() == pytest.approx((0.08 / 0.12) ** hostspeed.ALPHA)
    ops = [workloads.Op("a", 2.0, 1, 100, 0, scale=0.5),
           workloads.Op("a", 4.0, 1, 100, 0, scale=0.5)]
    m = workloads.Measured(ops, 6.0, 3.0, [], rounds=True)
    scaled = run.timings(m, [(1.0, 0.5)], scaled=True)
    wall = run.timings(m, [(1.0, 0.5)], scaled=False)
    assert scaled["latency_ms_mean"] == pytest.approx(1500.0)
    assert wall["latency_ms_mean"] == pytest.approx(3000.0)
    assert scaled["uops_per_s"] == pytest.approx(2 * wall["uops_per_s"])
    assert scaled["setup_s"] == pytest.approx(0.5)
