"""Shared configuration for the per-figure benchmarks.

Each ``test_bench_*`` file regenerates one table or figure of the paper at a
reduced scale (a representative workload subset, shorter traces) so the full
bench suite stays in the minutes range; the full-suite numbers recorded in
EXPERIMENTS.md are produced by ``examples/run_experiments.py``.

Every bench both *times* the regeneration (pytest-benchmark, single round —
these are minutes-long macro benchmarks, not microbenchmarks) and *asserts*
the qualitative shape the paper reports.

Each bench session additionally writes a machine-readable
``BENCH_timeline.json`` at the repository root (override the path with
``$REPRO_BENCH_TIMELINE``): schema version, generation timestamp, host and
commit metadata, and per-experiment wall-time seconds keyed by a stable
experiment id (``<file stem without test_bench_>::<test name>``).  This is
the repo's perf trajectory — future performance PRs diff their run against
the committed one.  The schema is documented in EXPERIMENTS.md.
"""

import json
import os
import platform
import subprocess
import time
from pathlib import Path

import pytest

from repro.eval.runner import RunSpec

#: BENCH_timeline.json schema version (bump on incompatible change).
BENCH_TIMELINE_SCHEMA = 1

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: experiment id -> wall seconds, accumulated over the session.
_bench_wall: dict[str, float] = {}

#: Workloads spanning the behaviour classes: strided FP (swim, wupwise),
#: window-sensitive (bzip2), control-dependent (gcc), memory-bound (mcf),
#: unpredictable (gobmk), near-constant (vortex), streaming INT (libquantum).
BENCH_WORKLOADS = (
    "swim",
    "wupwise",
    "bzip2",
    "gcc",
    "mcf",
    "gobmk",
    "vortex",
    "libquantum",
)

#: Smaller subset for the many-configuration sweeps (Fig 6/7).
SWEEP_WORKLOADS = ("swim", "wupwise", "bzip2")

BENCH_UOPS = 60_000
BENCH_WARMUP = 20_000

#: Block-based (BeBoP) configurations need longer traces: the FPC gate
#: (~129 correct predictions per entry and slot) converges at this scale.
LONG_UOPS = 120_000
LONG_WARMUP = 50_000

#: Subset for Fig 8's final-configuration comparison.
FIG8_WORKLOADS = ("swim", "wupwise", "bzip2", "gcc", "mcf", "gobmk")


@pytest.fixture(scope="session")
def bench_spec() -> RunSpec:
    return RunSpec(uops=BENCH_UOPS, warmup=BENCH_WARMUP, workloads=BENCH_WORKLOADS)


@pytest.fixture(scope="session")
def sweep_spec() -> RunSpec:
    return RunSpec(uops=LONG_UOPS, warmup=LONG_WARMUP, workloads=SWEEP_WORKLOADS)


@pytest.fixture(scope="session")
def fig8_spec() -> RunSpec:
    return RunSpec(uops=LONG_UOPS, warmup=LONG_WARMUP, workloads=FIG8_WORKLOADS)


def run_once(benchmark, fn, *args, **kwargs):
    """Run a macro-benchmark exactly once under pytest-benchmark."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)


# ---------------------------------------------------------------------------
# Bench-trajectory export: BENCH_timeline.json.
# ---------------------------------------------------------------------------

def _experiment_id(nodeid: str) -> str:
    """Stable id of one bench: ``benchmarks/test_bench_fig5a.py::test_x``
    becomes ``fig5a::test_x`` (parametrisation kept verbatim)."""
    path, _, test = nodeid.partition("::")
    stem = Path(path).stem
    prefix = "test_bench_"
    if stem.startswith(prefix):
        stem = stem[len(prefix):]
    return f"{stem}::{test}"


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(
            ["git", *args],
            cwd=_REPO_ROOT, capture_output=True, text=True, timeout=10,
            check=True,
        ).stdout.strip()
    except Exception:
        return None          # not a git checkout (e.g. a source tarball)


def _git_commit() -> str | None:
    return _git("rev-parse", "HEAD")


def _git_dirty() -> bool | None:
    """Whether the working tree differs from ``HEAD``: the timeline was
    then measured on uncommitted code, so ``commit`` names only its parent."""
    status = _git("status", "--porcelain")
    return None if status is None else bool(status)


def pytest_runtest_logreport(report):
    """Collect wall time of every passing bench's call phase."""
    if report.when == "call" and report.passed:
        _bench_wall[_experiment_id(report.nodeid)] = report.duration


def pytest_sessionfinish(session, exitstatus):
    """Write BENCH_timeline.json (only when at least one bench ran)."""
    if not _bench_wall:
        return
    out = Path(os.environ.get(
        "REPRO_BENCH_TIMELINE", _REPO_ROOT / "BENCH_timeline.json"
    ))
    doc = {
        "schema": BENCH_TIMELINE_SCHEMA,
        "generated_unix": time.time(),
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "commit": _git_commit(),
        "dirty": _git_dirty(),
        "wall_seconds": dict(sorted(_bench_wall.items())),
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    tr = session.config.pluginmanager.get_plugin("terminalreporter")
    if tr is not None:
        tr.write_line(
            f"bench timeline: {len(_bench_wall)} experiment(s) -> {out}"
        )
