"""Batched-vs-serial bit-identity: the golden contract of repro.batch.

The fused batched walk (:mod:`repro.batch.runner`) re-implements the
serial pipeline + BeBoP engine + predictors for speed; the *only*
acceptable difference is wall-clock.  Every :class:`SimStats` field must
match the serial path bit for bit — across predictor geometries,
recovery policies, speculative-window capacities and workloads — and the
golden eole-bebop records must reproduce through the batched path too.

These tests are deliberately the slowest part of the batch suite: they
run full simulations twice.  Trace lengths are trimmed to keep tier-1
wall-clock reasonable while still exercising squash/refetch/reuse paths
(the traces misbehave plenty within the first few thousand µ-ops).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.batch import (
    batch_group_key,
    batchable_groups,
    is_batchable,
    run_batched_group,
)
from repro.bebop import BlockDVTAGEConfig, RecoveryPolicy
from repro.exec.jobs import baseline_job, bebop_job, run_job

_GOLDEN_PATH = Path(__file__).parent / "data" / "golden_stats.json"
_GOLDEN = json.loads(_GOLDEN_PATH.read_text())

_UOPS = 12_000
_WARMUP = 4_000


def _assert_parity(specs):
    batched = run_batched_group(specs)
    assert len(batched) == len(specs)
    for spec, got in zip(specs, batched):
        want = dataclasses.asdict(run_job(spec))
        assert dataclasses.asdict(got) == want, (
            f"batched stats diverged from serial for {spec.label()} "
            f"(policy={spec.engine[3]}, window={spec.engine[2]})"
        )


# ---------------------------------------------------------------------------
# Grouping predicates
# ---------------------------------------------------------------------------

def test_is_batchable_accepts_only_bebop_eole():
    assert is_batchable(bebop_job("gcc"))
    assert not is_batchable(baseline_job("gcc"))


def test_batchable_groups_partitions_by_front_end_key():
    specs = [
        bebop_job("gcc", uops=_UOPS, warmup=_WARMUP),
        bebop_job("gcc", config=BlockDVTAGEConfig(npred=4),
                  uops=_UOPS, warmup=_WARMUP),
        bebop_job("swim", uops=_UOPS, warmup=_WARMUP),   # other workload
        baseline_job("gcc", uops=_UOPS, warmup=_WARMUP),  # not batchable
        bebop_job("gcc", uops=2 * _UOPS, warmup=_WARMUP),  # other trace len
    ]
    groups = batchable_groups(specs)
    # Only the two gcc/_UOPS bebop cells form a group of >= 2; the swim
    # and longer-trace singletons gain nothing from batching.
    assert list(groups.values()) == [[0, 1]]
    assert batch_group_key(specs[0]) in groups


def test_run_batched_group_rejects_mixed_groups():
    with pytest.raises(ValueError, match="front-end groups"):
        run_batched_group([
            bebop_job("gcc", uops=_UOPS, warmup=_WARMUP),
            bebop_job("swim", uops=_UOPS, warmup=_WARMUP),
        ])
    with pytest.raises(ValueError, match="not batchable"):
        run_batched_group([baseline_job("gcc", uops=_UOPS, warmup=_WARMUP)])
    assert run_batched_group([]) == []


# ---------------------------------------------------------------------------
# SimStats bit-identity
# ---------------------------------------------------------------------------

def test_fig6a_geometry_grid_parity():
    """The Fig 6a sweep axes: npred x table size, one shared trace pass."""
    specs = [
        bebop_job(
            "gcc",
            config=BlockDVTAGEConfig(
                npred=npred, base_entries=base, tagged_entries=tagged
            ),
            uops=_UOPS,
            warmup=_WARMUP,
        )
        for npred in (4, 6, 8)
        for base, tagged in ((1024, 128), (2048, 256))
    ]
    _assert_parity(specs)


def test_policy_and_window_parity():
    """Fig 7a/7b axes: every recovery policy and window capacity."""
    specs = [
        bebop_job("gcc", policy=policy, uops=_UOPS, warmup=_WARMUP)
        for policy in RecoveryPolicy
    ] + [
        bebop_job("gcc", window=window, uops=_UOPS, warmup=_WARMUP)
        for window in (None, 0, 8)
    ]
    _assert_parity(specs)


def test_config_knob_parity():
    """Non-geometry predictor knobs flow through the fused walk too."""
    specs = [
        bebop_job(
            "gcc",
            config=BlockDVTAGEConfig(
                propagate_confidence=False, monotonic_byte_tags=False
            ),
            uops=_UOPS,
            warmup=_WARMUP,
        ),
        bebop_job(
            "gcc",
            config=BlockDVTAGEConfig(components=4, max_history=32),
            uops=_UOPS,
            warmup=_WARMUP,
        ),
    ]
    _assert_parity(specs)


def test_swim_parity():
    specs = [
        bebop_job("swim", uops=_UOPS, warmup=_WARMUP),
        bebop_job("swim", config=BlockDVTAGEConfig(npred=4),
                  uops=_UOPS, warmup=_WARMUP),
    ]
    _assert_parity(specs)


# ---------------------------------------------------------------------------
# Scheduler integration
# ---------------------------------------------------------------------------

def test_scheduler_batch_knob_is_bit_identical_and_caches(tmp_path):
    """Scheduler(batch=True) groups + unstacks into the same cache cells."""
    from repro.exec import ResultCache, Scheduler

    specs = [
        bebop_job("gcc", uops=_UOPS, warmup=_WARMUP),
        baseline_job("gcc", uops=_UOPS, warmup=_WARMUP),  # not batchable
        bebop_job("gcc", config=BlockDVTAGEConfig(npred=4),
                  uops=_UOPS, warmup=_WARMUP),
    ]
    want = [dataclasses.asdict(s) for s in Scheduler().run(specs)]
    cache = ResultCache(root=tmp_path)
    got = Scheduler(cache=cache, batch=True).run(specs)
    assert [dataclasses.asdict(s) for s in got] == want
    # Batched results landed in the ordinary per-spec cache cells.
    fresh = ResultCache(root=tmp_path)
    for spec, stats in zip(specs, want):
        hit = fresh.get(spec)
        assert hit is not None and dataclasses.asdict(hit) == stats


def test_batch_eligibility_gates():
    """Chaos, obs and substituted job_fns force the per-job paths."""
    import repro.obs as obs
    from repro.exec import Scheduler

    assert Scheduler(batch=True)._batch_eligible()
    assert not Scheduler()._batch_eligible()
    assert not Scheduler(batch=True, job_fn=len)._batch_eligible()
    assert not Scheduler(batch=True, chaos=object())._batch_eligible()
    obs.enable()
    try:
        assert not Scheduler(batch=True)._batch_eligible()
    finally:
        obs.disable()


# The id suffix names the table storage, python lists; it keeps these
# cases' ids stable from when a numpy storage ran beside it.
@pytest.mark.parametrize(
    "key",
    [k for k in sorted(_GOLDEN["runs"]) if k.endswith("eole-bebop")],
    ids=lambda key: f"{key}-python",
)
def test_golden_eole_bebop_through_batched_path(key):
    """The golden records reproduce through the batched path.

    The serial half of this equality is enforced by
    ``tests/test_golden_identity.py``; together they pin
    batched == serial == golden for the BeBoP cells.
    """
    workload, _config = key.split("/")
    spec = bebop_job(workload, uops=_GOLDEN["uops"], warmup=_GOLDEN["warmup"])
    got = dataclasses.asdict(run_batched_group([spec])[0])
    assert got == _GOLDEN["runs"][key], (
        f"{key}: batched walk diverged from the golden record"
    )
