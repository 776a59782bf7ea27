#!/usr/bin/env python3
"""CI smoke: distributed sweep survives a killed worker, bit-identically.

One self-contained drill over a tiny sweep (CI's ``dist-smoke`` job, a
few seconds end to end):

1. compute the sweep serially — the reference report;
2. send the same sweep to an embedded sweep server through
   ``ServeBackend``: its lease queue carries a chaos plan (worker
   crashes + cache-blob corruption, fixed seed), and its misses go to two
   ``python -m repro.dist worker`` subprocesses (the pool has heard from
   both before the sweep starts), one of which is additionally SIGKILLed
   mid-job from outside — the hard-node-loss case chaos cannot model
   from within;
3. assert the distributed report is byte-identical to the serial one,
   that every injected fault is accounted (``exec/fault/*`` counters,
   recovered jobs), that at least one lease expired and was stolen by
   another worker, and that **zero** lease records are still held at
   shutdown.

Exit code 0 = all invariants held.  Run:

    PYTHONPATH=src python examples/dist_smoke_check.py
"""

from __future__ import annotations

import sys
import tempfile
import threading
import time
from pathlib import Path

import json

import repro.obs as obs
from repro.chaos import FaultPlan, parse_chaos_spec
from repro.dist import DistClient, WorkerPool
from repro.exec import JobSpec, ResultCache, Scheduler, stats_to_dict
from repro.serve import ServeBackend, ServerThread
from repro.serve.leases import LeaseQueue

WORKLOADS = ("swim", "gobmk", "mcf", "bzip2", "wupwise", "gcc")
SPECS = [JobSpec(workload=w, uops=4_000, warmup=1_000) for w in WORKLOADS]
CHAOS_SPEC = "crash=0.4,corrupt=0.4,seed=7"
#: Per-job sleep in the workers — widens the window so the SIGKILL below
#: reliably lands mid-job instead of between jobs.
SLOWDOWN = 0.4
LEASE_SECONDS = 1.5


def kill_when_leased(url: str, pool: WorkerPool, idx: int = 0,
                     worker: str = "w0", timeout: float = 60.0) -> None:
    """SIGKILL pool worker ``idx`` the moment the server shows it
    holding a lease — node loss lands mid-job no matter how long the
    worker subprocess takes to start."""
    client = DistClient(url)
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            leases = client.dist_status().get("leases", [])
            # Prefix match: a chaos-crashed worker respawns as w0r1, w0r2…
            # and killing the respawned incarnation is just as good a drill.
            if any(str(lease.get("worker", "")).startswith(worker)
                   for lease in leases):
                pool.kill(idx)
                return
            time.sleep(0.02)
    except Exception:
        pass                      # server shut down under us — done
    finally:
        client.close()


def render(stats_list) -> str:
    """Every stat of every cell, canonically serialized: if two renderings
    are byte-identical, any report derived from these sweeps is too."""
    return "\n".join(
        json.dumps({"workload": w, **stats_to_dict(s)}, sort_keys=True)
        for w, s in zip(WORKLOADS, stats_list)
    )


def main() -> int:
    obs.enable()
    serial = Scheduler().run(SPECS, label="smoke-serial")
    reference = render(serial)

    failures: list[str] = []
    with tempfile.TemporaryDirectory(prefix="dist-smoke-") as tmp:
        chaos = FaultPlan(parse_chaos_spec(CHAOS_SPEC))
        cache = ResultCache(root=Path(tmp) / "cache")
        leases = LeaseQueue(lease_seconds=LEASE_SECONDS,
                            retries=chaos.config.max_faults_per_job + 2,
                            chaos=chaos)
        with ServerThread(cache=cache, leases=leases) as srv:
            with WorkerPool(srv.url, 2, cache_root=str(cache.root),
                            journal_dir=Path(tmp) / "journals",
                            slowdown=SLOWDOWN) as pool:
                # Hard node loss on top of the chaos plan: SIGKILL worker 0
                # as soon as it holds a lease, i.e. mid-job.
                killer = threading.Thread(
                    target=kill_when_leased, args=(srv.url, pool),
                    daemon=True,
                )
                killer.start()
                backend = ServeBackend(srv.url)
                sched = Scheduler(cache=cache, backend=backend)
                dist = sched.run(SPECS, label="smoke-dist")
                backend.close()
                killer.join(timeout=20)
                with DistClient(srv.url) as client:
                    status = client.dist_status()
            counters = leases.counters

        report = render(dist)
        if report != reference:
            failures.append("distributed report differs from serial:\n"
                            f"--- serial ---\n{reference}\n"
                            f"--- distributed ---\n{report}")

        jobs = status.get("jobs", {})
        if jobs.get("leased", 0):
            failures.append(f"{jobs['leased']} lease record(s) leaked at "
                            f"shutdown: {status}")
        if jobs.get("done") != len(SPECS):
            failures.append(f"expected {len(SPECS)} done jobs, got {jobs}")
        if not counters.get("lease_expired"):
            failures.append(f"SIGKILL drill produced no expired lease "
                            f"(counters: {counters})")
        if not counters.get("steals"):
            failures.append(f"expired work was never stolen by another "
                            f"worker (counters: {counters})")

        injected = sum(chaos.injected.values())
        if not injected:
            failures.append("chaos plan injected no faults — the drill "
                            "tested nothing")
        if chaos.injected.get("crash", 0) and not chaos.recovered:
            failures.append(f"injected crashes were never recovered "
                            f"({chaos.injected})")
        snapshot = obs.registry().snapshot()
        for kind, count in chaos.injected.items():
            metric = snapshot.get(f"exec/fault/{kind}", 0)
            if metric < count:
                failures.append(f"exec/fault/{kind}={metric} does not "
                                f"account for {count} injection(s)")
        if chaos.injected.get("cache_corrupt", 0):
            quarantined = list(cache.quarantine_dir.glob("*.json"))
            if not quarantined:
                failures.append("corruption was injected but nothing was "
                                "quarantined — the corrupt path never ran")
        for spec, stats in zip(SPECS, dist):
            stored = cache.get(spec)
            if stored != stats:
                failures.append(f"cache serves a wrong/corrupt blob for "
                                f"{spec.workload}: {stored!r}")

        print(f"[smoke] serial == distributed over {len(SPECS)} cells")
        print(f"[smoke] lease queue counters: {counters}")
        print(f"[smoke] chaos: {chaos.summary()}")
        print(f"[smoke] pool respawns: {pool.respawns}")

    if failures:
        for failure in failures:
            print(f"[smoke] FAIL: {failure}", file=sys.stderr)
        return 1
    print("[smoke] OK: report byte-identical, all faults accounted, "
          "zero leaked leases")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
