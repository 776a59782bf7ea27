"""Tests for repro.dist: lease queue, wire protocol, workers, fault drills.

The :class:`LeaseQueue` unit tests drive a fake clock, so lease expiry,
backoff gating and retry exhaustion are asserted without sleeping.  The
integration tests run a real sweep server (``ServerThread``) whose misses
go to in-process worker threads on a cheap fake ``job_fn``, reached
through :class:`ServeBackend` and ``/v1/submit``; the heavyweight drills
— SIGKILLing a real worker subprocess mid-job, moving the work to the
server's pool when every worker is gone — use tiny real simulations and
pin the headline property end to end: results bit-identical to a serial
run.
"""

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro.exec
import repro.obs as obs
from repro.chaos import ChaosConfig, FaultPlan
from repro.common.rng import deterministic_backoff
from repro.dist import DistClient, DistWorker, WorkerPool
from repro.exec import JobSpec, ResultCache, Scheduler, baseline_job, run_job
from repro.pipeline import SimStats
from repro.serve import (
    ProtocolError,
    ServeBackend,
    ServeClient,
    ServerThread,
    protocol,
)
from repro.serve.leases import (
    DONE,
    FAILED,
    LEASED,
    QUEUED,
    LeaseQueue,
    lease_retries,
)


@pytest.fixture(autouse=True)
def _clean_slate():
    repro.exec.reset()
    obs.disable()
    yield
    repro.exec.reset()
    obs.disable()


def _fake_job(spec: JobSpec) -> SimStats:
    return SimStats(workload=spec.workload, cycles=spec.uops,
                    insts=2 * spec.uops)


def _specs(n: int) -> list[JobSpec]:
    return [baseline_job("swim", 1_000 + i, 0) for i in range(n)]


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _queue(**kwargs) -> tuple[LeaseQueue, FakeClock]:
    clock = FakeClock()
    defaults = dict(clock=clock, lease_seconds=10.0, retries=2,
                    backoff_base=0.5, backoff_cap=4.0)
    defaults.update(kwargs)
    return LeaseQueue(**defaults), clock


def _grant_digest(grant: dict) -> str:
    return grant["job"]["digest"]


# ---------------------------------------------------------------------------
# Deterministic backoff.
# ---------------------------------------------------------------------------

class TestDeterministicBackoff:
    def test_reproducible(self):
        assert (deterministic_backoff("k", 3, 0.5, 30.0)
                == deterministic_backoff("k", 3, 0.5, 30.0))

    def test_jitter_varies_by_key_and_attempt(self):
        values = {deterministic_backoff(key, attempt, 0.5, 300.0)
                  for key in ("a", "b", "c") for attempt in (1, 2, 3)}
        assert len(values) > 5  # jittered, not a shared ladder

    def test_bounded_by_jittered_exponential(self):
        for attempt in range(1, 12):
            value = deterministic_backoff("job", attempt, 0.5, 8.0)
            assert 0 < value <= 8.0
            assert value <= 0.5 * 2 ** (attempt - 1)
            # jitter factor is drawn from [0.5, 1.0)
            assert value >= min(8.0, 0.5 * 2 ** (attempt - 1)) * 0.5

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            deterministic_backoff("job", 0, 0.5, 8.0)


# ---------------------------------------------------------------------------
# Protocol documents.
# ---------------------------------------------------------------------------

class TestDistProtocol:
    SPEC = baseline_job("swim", 1_000, 0)

    def test_worker_id_validation(self):
        assert protocol.validate_worker("w0r1") == "w0r1"
        for bad in ("", "a b", "x" * 121, None, 7):
            with pytest.raises(ProtocolError):
                protocol.validate_worker(bad)

    def test_lease_grant_roundtrip(self):
        from repro.chaos import FaultAction
        grant = protocol.encode_lease_grant(
            self.SPEC, 2, 7.5, fault=FaultAction("hang", seconds=0.3),
            corrupt="truncate",
        )
        order, drain = protocol.decode_lease(grant)
        assert not drain
        assert order.spec == self.SPEC
        assert order.attempt == 2
        assert order.lease_seconds == 7.5
        assert order.fault.kind == "hang"
        assert order.fault.seconds == 0.3
        assert order.corrupt == "truncate"
        assert order.digest == self.SPEC.digest()

    def test_lease_idle_and_drain(self):
        assert protocol.decode_lease(protocol.encode_lease_idle()) \
            == (None, False)
        assert protocol.decode_lease(protocol.encode_lease_idle(drain=True)) \
            == (None, True)

    def test_lease_tampered_digest_rejected(self):
        grant = protocol.encode_lease_grant(self.SPEC, 0, 5.0)
        grant["job"]["digest"] = "0" * 64
        with pytest.raises(ProtocolError):
            protocol.decode_lease(grant)

    def test_complete_roundtrip_verifies(self):
        stats = _fake_job(self.SPEC)
        doc = protocol.encode_complete("w0", self.SPEC, stats,
                                       {"exec/job/count": 1})
        assert protocol.decode_complete(doc) == (
            "w0", self.SPEC, stats, {"exec/job/count": 1})
        # the embedded result document re-verifies standalone
        respec, restats, _ = protocol.decode_result(doc["result"])
        assert (respec, restats) == (self.SPEC, stats)

    def test_complete_tampered_stats_rejected(self):
        doc = protocol.encode_complete("w0", self.SPEC, _fake_job(self.SPEC))
        doc["result"]["stats"]["cycles"] += 1
        with pytest.raises(ProtocolError):
            protocol.decode_complete(doc)

    def test_fail_and_heartbeat_roundtrip(self):
        digest = self.SPEC.digest()
        assert protocol.decode_fail(
            protocol.encode_fail("w1", digest, "boom")
        ) == ("w1", digest, "boom")
        assert protocol.decode_heartbeat(
            protocol.encode_heartbeat("w1", digest)
        ) == ("w1", digest)


# ---------------------------------------------------------------------------
# The lease queue, on a fake clock.
# ---------------------------------------------------------------------------

class TestLeaseQueue:
    def test_submit_deduplicates_digests(self):
        queue, _ = _queue()
        specs = _specs(3)
        assert queue.submit(specs) == 3
        assert queue.submit(specs) == 0
        assert queue.counters["jobs"] == 3

    def test_submit_requeues_done_failed_and_cancelled_digests(self):
        """A new miss on a finished digest (its blob quarantined since)
        must be leased again, with a fresh retry budget."""
        queue, clock = _queue(retries=0)
        done, failed, cancelled = _specs(3)
        queue.submit([done, failed, cancelled])
        queue.lease("w0")
        queue.complete("w0", done.digest())
        queue.lease("w0")
        queue.fail("w0", failed.digest(), "boom")
        assert queue.cancel() == [cancelled]
        assert queue.status()["jobs"] == {QUEUED: 0, LEASED: 0, DONE: 1,
                                          FAILED: 2}
        assert queue.submit([done, failed, cancelled]) == 3
        assert queue.status()["jobs"][QUEUED] == 3
        grants = [queue.lease("w1") for _ in range(3)]
        assert [_grant_digest(g) for g in grants] == [
            done.digest(), failed.digest(), cancelled.digest()]
        assert all(g["job"]["attempt"] == 0 for g in grants)
        assert queue.counters["jobs"] == 6
        assert "steals" not in queue.counters

    def test_finished_jobs_leave_only_tallies(self):
        """20K finished jobs: lease, reap and cancel visit the live jobs
        alone, while status still counts every finished digest."""
        queue, _ = _queue(retries=0)
        specs = _specs(20_003)
        queue.submit(specs[:20_000])
        for i, spec in enumerate(specs[:20_000]):
            queue.lease("w0")
            if i % 4:
                queue.complete("w0", spec.digest())
            else:
                queue.fail("w0", spec.digest(), "boom")
        assert queue.lease("w0") is None
        assert queue._jobs == {}
        queue.submit(specs[20_000:] + specs[:1])    # one failed digest again
        assert list(queue._jobs) == [s.digest() for s in specs[20_000:]
                                     + specs[:1]]
        assert queue.status()["jobs"] == {QUEUED: 4, LEASED: 0, DONE: 15_000,
                                          FAILED: 4_999}
        assert len(queue.collect()) == 5_000
        assert len(queue.cancel()) == 4 and queue._jobs == {}
        assert queue.status()["jobs"][FAILED] == 5_003

    def test_lease_oldest_first_then_idle(self):
        queue, _ = _queue()
        specs = _specs(2)
        queue.submit(specs)
        assert _grant_digest(queue.lease("w0")) == specs[0].digest()
        assert _grant_digest(queue.lease("w0")) == specs[1].digest()
        assert queue.lease("w0") is None

    def test_complete_is_idempotent_first_wins(self):
        queue, _ = _queue()
        spec = _specs(1)[0]
        queue.submit([spec])
        queue.lease("w0")
        assert queue.complete("w0", spec.digest()) == "ok"
        assert queue.complete("w1", spec.digest()) == "stale"
        assert queue.status()["jobs"][DONE] == 1
        assert queue.collect() == []
        assert queue.counters["completions"] == 1
        assert queue.counters["stale_completions"] == 1

    def test_heartbeat_extends_lease(self):
        queue, clock = _queue(lease_seconds=10.0)
        spec = _specs(1)[0]
        queue.submit([spec])
        queue.lease("w0")
        clock.advance(8.0)
        assert queue.heartbeat("w0", spec.digest())
        clock.advance(8.0)          # 16s since lease, 8s since heartbeat
        assert queue.reap() == 0
        assert queue.status()["jobs"][LEASED] == 1

    def test_heartbeat_refused_for_non_holder(self):
        queue, _ = _queue()
        spec = _specs(1)[0]
        queue.submit([spec])
        queue.lease("w0")
        assert not queue.heartbeat("w1", spec.digest())
        assert not queue.heartbeat("w0", "0" * 64)

    def test_expired_lease_requeues_with_backoff(self):
        queue, clock = _queue(lease_seconds=10.0)
        spec = _specs(1)[0]
        queue.submit([spec])
        queue.lease("w0")
        clock.advance(10.1)
        assert queue.reap() == 1
        assert queue.counters["lease_expired"] == 1
        assert queue.counters["requeues"] == 1
        # backoff gates the re-lease: not immediately available...
        assert queue.lease("w1") is None
        # ...but available once the deterministic backoff has passed
        clock.advance(deterministic_backoff(spec.digest(), 1, 0.5, 4.0))
        grant = queue.lease("w1")
        assert _grant_digest(grant) == spec.digest()
        assert grant["job"]["attempt"] == 1
        # w1 took over w0's job: that's a steal, attributed to w1
        assert queue.counters["steals"] == 1
        assert queue.worker_counters["w1"]["steals"] == 1

    def test_retry_budget_exhaustion_is_terminal(self):
        queue, clock = _queue(lease_seconds=1.0, retries=2,
                              backoff_base=0.1, backoff_cap=0.2)
        spec = _specs(1)[0]
        queue.submit([spec])
        for _ in range(3):          # initial + 2 retries
            clock.advance(5.0)      # clear any backoff gate
            assert queue.lease("w0") is not None
            clock.advance(1.1)
            queue.reap()
        clock.advance(5.0)
        assert queue.lease("w0") is None
        assert queue.status()["jobs"][FAILED] == 1
        [(failed_spec, error)] = queue.collect()
        assert failed_spec == spec and "lease expired" in error
        assert queue.collect() == []      # drained exactly once

    def test_worker_fail_report_charges_attempt(self):
        queue, clock = _queue(retries=1, backoff_base=0.1, backoff_cap=0.1)
        spec = _specs(1)[0]
        queue.submit([spec])
        queue.lease("w0")
        queue.fail("w0", spec.digest(), "boom 1")
        clock.advance(1.0)
        queue.lease("w0")
        queue.fail("w0", spec.digest(), "boom 2")
        assert queue.status()["jobs"][FAILED] == 1
        assert queue.collect() == [(spec, "boom 2")]

    def test_late_completion_after_expiry_still_counts(self):
        """The first finished computation wins even if its lease expired."""
        queue, clock = _queue(lease_seconds=1.0, backoff_base=10.0,
                              backoff_cap=10.0)
        spec = _specs(1)[0]
        queue.submit([spec])
        queue.lease("w0")
        clock.advance(1.5)
        queue.reap()                # w0's lease expired, job back in queue
        assert queue.complete("w0", spec.digest()) == "ok"
        assert queue.status()["jobs"][DONE] == 1
        assert queue.lease("w1") is None   # nothing left to steal

    def test_cancel_terminates_unfinished_jobs(self):
        queue, _ = _queue()
        specs = _specs(3)
        queue.submit(specs)
        queue.lease("w0")
        assert queue.cancel() == specs
        status = queue.status()
        assert status["jobs"][FAILED] == 3
        assert status["leases"] == []
        # cancelled jobs are not reported as fresh failures
        assert queue.collect() == []

    def test_live_workers_expire_with_ttl(self):
        queue, clock = _queue(lease_seconds=1.0, worker_ttl=2.0)
        queue.touch_worker("w0")
        queue.touch_worker("w1")
        assert queue.live_workers() == 2
        clock.advance(2.5)
        queue.touch_worker("w1")
        assert queue.live_workers() == 1
        queue.reap()
        queue.touch_worker("w1")
        assert queue.live_workers() == 1

    def test_chaos_verdicts_independent_of_worker(self):
        """Injection is a function of (seed, digest, ordinal) — whoever
        steals the job gets the same verdict."""
        config = ChaosConfig(crash_rate=0.5, cache_corrupt_rate=0.5, seed=11)
        specs = _specs(6)
        grants = {}
        for worker_order in (("w0", "w1"), ("w1", "w0")):
            queue, _ = _queue(chaos=FaultPlan(config))
            queue.submit(specs)
            seen = {}
            worker = iter(worker_order * len(specs))
            while True:
                grant = queue.lease(next(worker))
                if grant is None:
                    break
                job = grant["job"]
                seen[job["digest"]] = (job["fault"], job["corrupt"])
            grants[worker_order] = seen
        first, second = grants.values()
        assert first == second
        assert any(f or c for f, c in first.values())  # the plan does fire


# ---------------------------------------------------------------------------
# Sweep server + in-process workers (fake jobs: plumbing).
# ---------------------------------------------------------------------------

def _await(condition, timeout: float = 20.0) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.01)


def _status(url: str) -> dict:
    with DistClient(url) as client:
        return client.dist_status()


def _await_live(url: str, n: int) -> None:
    """Wait until the server has heard ``n`` workers poll."""
    with DistClient(url) as client:
        _await(lambda: client.dist_status()["live_workers"] >= n)


def _run_workers(url: str, n: int, cache: ResultCache | None,
                 job_fn=_fake_job):
    """Start ``n`` in-process workers and wait until each has polled, so
    the server leases its misses; returns (workers, threads)."""
    workers, threads = [], []
    for i in range(n):
        worker = DistWorker(url, f"w{i}", cache=cache, job_fn=job_fn,
                            in_process=True, poll_interval=0.01)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        workers.append(worker)
        threads.append(thread)
    _await_live(url, n)
    return workers, threads


def _stop_workers(workers, threads):
    for worker in workers:
        worker.stop()
    for thread in threads:
        thread.join(timeout=20)
        assert not thread.is_alive()


def _sweep(url: str, specs, cache: ResultCache | None = None):
    """``specs`` through a scheduler whose backend is the server."""
    with contextlib.closing(ServeBackend(url)) as backend:
        return Scheduler(cache=cache, backend=backend).run(specs)


class TestDistIntegration:
    def test_sweep_matches_serial_and_leaks_no_leases(self, tmp_path):
        specs = _specs(8)
        expected = [_fake_job(s) for s in specs]
        cache = ResultCache(root=tmp_path / "cache")
        queue = LeaseQueue(lease_seconds=5.0)
        with ServerThread(cache=cache, leases=queue) as srv:
            workers, threads = _run_workers(srv.url, 2, cache)
            assert _sweep(srv.url, specs, cache) == expected
            status = _status(srv.url)
            _stop_workers(workers, threads)
        assert status["jobs"] == {QUEUED: 0, LEASED: 0,
                                  DONE: len(specs), FAILED: 0}
        assert status["leases"] == []
        assert queue.counters["completions"] == len(specs)
        assert srv.server.progress.jobs_done == 0

    def test_submit_miss_is_computed_by_a_live_worker(self, tmp_path):
        """A ``/v1/submit`` miss is leased to the one live worker; the
        server's own pool runs nothing."""
        spec = _specs(1)[0]
        cache = ResultCache(root=tmp_path / "cache")
        queue = LeaseQueue(lease_seconds=5.0)
        with ServerThread(cache=cache, leases=queue) as srv:
            workers, threads = _run_workers(srv.url, 1, cache)
            with ServeClient(srv.url) as client:
                assert client.submit_with_source(spec) == (_fake_job(spec),
                                                           "computed")
                served = client.metrics()["serve"]
            _stop_workers(workers, threads)
        assert queue.counters["completions"] == served["misses"] == 1
        assert srv.server.progress.jobs_done == 0
        assert cache.get(spec) == _fake_job(spec)   # the worker stored it

    def test_submit_and_sweep_of_one_digest_share_one_lease(self, tmp_path):
        gate = threading.Event()

        def _gated_job(spec):
            gate.wait(20)
            return _fake_job(spec)

        spec = _specs(1)[0]
        cache = ResultCache(root=tmp_path / "cache")
        queue = LeaseQueue(lease_seconds=5.0)
        outcomes = {}

        def _submit(url):
            with ServeClient(url) as client:
                outcomes["submit"] = client.submit_with_source(spec)

        with ServerThread(cache=cache, leases=queue) as srv:
            workers, threads = _run_workers(srv.url, 1, cache,
                                            job_fn=_gated_job)
            clients = [threading.Thread(target=_submit, args=(srv.url,))]
            clients[0].start()
            _await(lambda: queue.counters.get("leases") == 1)
            clients.append(threading.Thread(target=lambda: outcomes.update(
                sweep=_sweep(srv.url, [spec]))))
            clients[1].start()
            _await(lambda: srv.server.dedup == 1)
            gate.set()
            for client in clients:
                client.join(timeout=20)
                assert not client.is_alive()
            _stop_workers(workers, threads)
        assert outcomes == {"submit": (_fake_job(spec), "computed"),
                            "sweep": [_fake_job(spec)]}
        assert queue.counters["jobs"] == queue.counters["leases"] == 1
        assert queue.counters["completions"] == 1
        assert (srv.server.misses, srv.server.dedup) == (1, 1)

    def test_quarantined_blob_is_leased_again(self, tmp_path):
        """The queue already knows a digest whose blob was quarantined
        after its lease completed; the new miss is leased and resolves."""
        spec = _specs(1)[0]
        cache = ResultCache(root=tmp_path / "cache")
        queue = LeaseQueue(lease_seconds=5.0)
        with ServerThread(cache=cache, leases=queue) as srv:
            workers, threads = _run_workers(srv.url, 1, cache)
            with ServeClient(srv.url, timeout=20, retries=0) as client:
                assert client.submit(spec) == _fake_job(spec)
                cache.blob_path(spec.digest()).write_text("{ torn")
                assert client.submit_with_source(spec) == (_fake_job(spec),
                                                           "computed")
            _stop_workers(workers, threads)
        assert cache.corrupt == 1
        assert queue.counters["jobs"] == queue.counters["completions"] == 2
        assert list(cache.quarantine_dir.glob("*.json"))
        assert ResultCache(root=tmp_path / "cache").get(spec) == \
            _fake_job(spec)

    def test_duplicate_specs_computed_once(self, tmp_path):
        spec = _specs(1)[0]
        specs = [spec, spec, spec]
        cache = ResultCache(root=tmp_path / "cache")
        queue = LeaseQueue(lease_seconds=5.0)
        with ServerThread(cache=cache, leases=queue) as srv:
            workers, threads = _run_workers(srv.url, 1, cache)
            assert _sweep(srv.url, specs, cache) == [_fake_job(spec)] * 3
            _stop_workers(workers, threads)
        assert queue.counters["jobs"] == 1
        assert queue.counters["completions"] == 1

    def test_workers_write_journals_mergeable_on_resume(self, tmp_path):
        from repro.chaos import RunJournal, merge_journals
        specs = _specs(4)
        cache = ResultCache(root=tmp_path / "cache")
        journals = [RunJournal(tmp_path / f"w{i}.jsonl") for i in range(2)]
        queue = LeaseQueue(lease_seconds=5.0)
        with ServerThread(cache=cache, leases=queue) as srv:
            workers, threads = [], []
            for i, journal in enumerate(journals):
                worker = DistWorker(srv.url, f"w{i}", cache=cache,
                                    journal=journal, job_fn=_fake_job,
                                    in_process=True, poll_interval=0.01)
                thread = threading.Thread(target=worker.run, daemon=True)
                thread.start()
                workers.append(worker)
                threads.append(thread)
            _await_live(srv.url, 2)
            results = _sweep(srv.url, specs, cache)
            _stop_workers(workers, threads)
        for journal in journals:
            journal.close()
        merged = merge_journals([tmp_path / "w0.jsonl",
                                 tmp_path / "w1.jsonl"])
        assert len(merged) == len(specs)
        assert [merged.get(s) for s in specs] == results

    def test_terminal_remote_failure_recomputed_locally(self, tmp_path,
                                                        capsys):
        """A job whose lease retries are exhausted is computed on the
        server's own pool — the sweep still completes with correct
        results, and the fallback is warned about and counted."""
        def _always_raises(spec):
            raise RuntimeError("injected worker bug")

        specs = [baseline_job("swim", 1_000, 0)]
        expected = Scheduler().run(specs)
        cache = ResultCache(root=tmp_path / "cache")
        queue = LeaseQueue(lease_seconds=5.0, retries=1, backoff_base=0.01,
                           backoff_cap=0.02)
        with ServerThread(cache=cache, leases=queue) as srv:
            workers, threads = _run_workers(srv.url, 1, cache,
                                            job_fn=_always_raises)
            assert _sweep(srv.url, specs, cache) == expected
            _stop_workers(workers, threads)
        assert queue.counters["failures"] == 1
        assert queue.counters["fallback_jobs"] == 1
        assert "degraded" not in queue.counters
        assert srv.server.progress.jobs_done == 1
        assert "failed remotely" in capsys.readouterr().err
        # the server's pool stored the recomputed result for everyone
        assert cache.get(specs[0]) == expected[0]

    def test_degrades_to_local_pool_when_no_workers_exist(self, tmp_path):
        """With no worker registered, misses go straight to the server's
        pool: the lease queue never sees them."""
        specs = _specs(3)
        cache = ResultCache(root=tmp_path / "cache")
        queue = LeaseQueue(lease_seconds=5.0)
        with ServerThread(cache=cache, leases=queue,
                          job_fn=_fake_job) as srv:
            assert _sweep(srv.url, specs, cache) == [_fake_job(s)
                                                     for s in specs]
            status = _status(srv.url)
        assert status["jobs"] == {QUEUED: 0, LEASED: 0, DONE: 0, FAILED: 0}
        assert queue.counters == {}
        assert srv.server.progress.jobs_done == len(specs)

    def test_corrupt_verdict_quarantined_and_repaired(self, tmp_path):
        """A server-shipped corruption verdict damages the worker's
        stored blob; the worker proves repair: quarantine + clean re-put."""
        specs = _specs(3)
        expected = [_fake_job(s) for s in specs]
        chaos = FaultPlan(ChaosConfig(cache_corrupt_rate=1.0, seed=5))
        cache = ResultCache(root=tmp_path / "cache")
        queue = LeaseQueue(lease_seconds=5.0, chaos=chaos)
        with ServerThread(cache=cache, leases=queue) as srv:
            workers, threads = _run_workers(srv.url, 1, cache)
            assert _sweep(srv.url, specs, cache) == expected
            _stop_workers(workers, threads)
        assert chaos.injected.get("cache_corrupt") == len(specs)
        quarantined = list(cache.quarantine_dir.glob("*.json"))
        assert len(quarantined) == len(specs)
        # no reader is ever served corrupt bytes
        fresh = ResultCache(root=tmp_path / "cache")
        assert [fresh.get(s) for s in specs] == expected

    def test_in_process_crash_verdict_downgraded_and_recovered(self,
                                                               tmp_path):
        specs = _specs(4)
        expected = [_fake_job(s) for s in specs]
        chaos = FaultPlan(ChaosConfig(crash_rate=0.7, seed=3,
                                      max_faults_per_job=2))
        cache = ResultCache(root=tmp_path / "cache")
        queue = LeaseQueue(lease_seconds=5.0, retries=4, backoff_base=0.01,
                           backoff_cap=0.05, chaos=chaos)
        with ServerThread(cache=cache, leases=queue) as srv:
            workers, threads = _run_workers(srv.url, 2, cache)
            assert _sweep(srv.url, specs, cache) == expected
            _stop_workers(workers, threads)
        assert chaos.injected.get("crash", 0) > 0
        assert chaos.recovered > 0
        assert queue.status()["jobs"][DONE] == len(specs)

    def test_stopping_the_server_drains_a_polling_worker(self, tmp_path):
        """A worker polling while the server stops is told ``drain`` and
        leaves its loop normally."""
        cache = ResultCache(root=tmp_path / "cache")
        srv = ServerThread(cache=cache,
                           leases=LeaseQueue(lease_seconds=5.0)).start()
        worker, drains = _recording_worker(srv.url, cache)
        completed: list[int] = []
        thread = threading.Thread(
            target=lambda: completed.append(worker.run()), daemon=True)
        thread.start()
        _await(lambda: drains)
        srv.stop()
        thread.join(timeout=20)
        assert not thread.is_alive()
        assert drains and drains[-1] is True
        assert drains.count(True) == 1
        assert completed == [0]

    def test_stopping_the_server_finishes_leased_cells_on_its_pool(
            self, tmp_path):
        """A cell still leased when the server stops is computed on the
        server's pool, so ``stop()`` does not wait on it forever."""
        gate = threading.Event()

        def _gated_job(spec):
            gate.wait(20)
            return _fake_job(spec)

        spec = _specs(1)[0]
        cache = ResultCache(root=tmp_path / "cache")
        queue = LeaseQueue(lease_seconds=5.0)
        srv = ServerThread(cache=cache, leases=queue,
                           job_fn=_fake_job).start()
        workers, threads = _run_workers(srv.url, 1, cache,
                                        job_fn=_gated_job)
        outcome: list = []

        def _submit():
            with ServeClient(srv.url, retries=0) as client:
                try:
                    outcome.append(client.submit_with_source(spec))
                except Exception as exc:
                    outcome.append(exc)

        submitter = threading.Thread(target=_submit, daemon=True)
        submitter.start()
        _await(lambda: queue.counters.get("leases") == 1)
        stopper = threading.Thread(target=srv.stop, daemon=True)
        stopper.start()
        stopper.join(timeout=20)
        submitter.join(timeout=20)
        gate.set()
        _stop_workers(workers, threads)
        assert not stopper.is_alive() and not submitter.is_alive()
        assert queue.counters["cancelled"] == queue.counters[
            "fallback_jobs"] == 1
        assert srv.server.progress.jobs_done == 1
        # The handler writes its answer before stop() closes connections.
        assert outcome == [(_fake_job(spec), "computed")]


def _recording_worker(url: str, cache: ResultCache | None):
    """An in-process worker whose lease polls record their drain flag."""
    worker = DistWorker(url, "w0", cache=cache, job_fn=_fake_job,
                        in_process=True, poll_interval=0.01)
    drains: list[bool] = []
    lease = worker.client.dist_lease

    def recording_lease(worker_id):
        order, drain = lease(worker_id)
        drains.append(drain)
        return order, drain

    worker.client.dist_lease = recording_lease
    return worker, drains


class TestLeaseRetries:
    def test_default_budget(self):
        assert lease_retries() == 3
        assert lease_retries(None) == 3

    def test_chaos_budget_covers_every_injected_fault(self):
        assert lease_retries(FaultPlan(ChaosConfig(max_faults_per_job=1))) == 3
        assert lease_retries(FaultPlan(ChaosConfig(max_faults_per_job=5))) == 6


# ---------------------------------------------------------------------------
# The hard drills: real subprocess workers, real (tiny) simulations.
# ---------------------------------------------------------------------------

def _kill_when_leased(url: str, pool: WorkerPool, idx: int, worker: str,
                      outcome: list, timeout: float = 60.0) -> None:
    """SIGKILL pool worker ``idx`` the moment the server shows
    ``worker`` holding a lease — deterministic mid-job node loss
    regardless of how long subprocess startup takes."""
    client = DistClient(url)
    deadline = time.monotonic() + timeout
    try:
        while time.monotonic() < deadline:
            leases = client.dist_status().get("leases", [])
            if any(lease.get("worker") == worker for lease in leases):
                pool.kill(idx)
                outcome.append(True)
                return
            time.sleep(0.02)
        outcome.append(False)
    except Exception:
        outcome.append(False)     # server shut down under us
    finally:
        client.close()


class TestWorkerLossDrills:
    def test_sigkilled_worker_job_releases_and_finishes_elsewhere(
            self, tmp_path):
        """SIGKILL one of two real workers mid-job: its lease expires, the
        job is re-leased to the survivor, and the sweep's results are
        bit-identical to a serial run."""
        specs = [baseline_job(w, uops=2_000, warmup=500)
                 for w in ("swim", "gobmk", "mcf", "bzip2")]
        serial = Scheduler().run(specs)
        cache = ResultCache(root=tmp_path / "cache")
        killed: list = []
        queue = LeaseQueue(lease_seconds=1.0, retries=4, backoff_base=0.05,
                           backoff_cap=0.2)
        with ServerThread(cache=cache, leases=queue) as srv:
            with WorkerPool(srv.url, 2, cache_root=str(cache.root),
                            respawn=False, slowdown=0.4,
                            poll_interval=0.01) as pool:
                killer = threading.Thread(
                    target=_kill_when_leased,
                    args=(srv.url, pool, 0, "w0", killed), daemon=True,
                )
                killer.start()
                dist = _sweep(srv.url, specs, cache)
                killer.join(timeout=20)
                status = _status(srv.url)
        assert killed == [True]
        assert dist == serial
        assert status["jobs"][DONE] == len(specs)
        assert status["leases"] == []          # zero leaked lease records
        counters = queue.counters
        assert counters.get("lease_expired", 0) >= 1
        assert counters.get("requeues", 0) >= 1

    def test_losing_every_worker_degrades_to_local(self, tmp_path, capsys):
        """SIGKILL the only worker mid-job: once it has been silent for
        the queue's worker TTL, the server cancels the leased-path jobs
        and computes them on its own pool."""
        specs = [baseline_job("swim", 2_000, 500),
                 baseline_job("gobmk", 2_000, 500)]
        serial = Scheduler().run(specs)
        cache = ResultCache(root=tmp_path / "cache")
        killed: list = []
        queue = LeaseQueue(lease_seconds=1.0, retries=8, backoff_base=0.05,
                           backoff_cap=0.2)
        with ServerThread(cache=cache, leases=queue) as srv:
            with WorkerPool(srv.url, 1, cache_root=str(cache.root),
                            respawn=False, slowdown=2.0,
                            poll_interval=0.01) as pool:
                killer = threading.Thread(
                    target=_kill_when_leased,
                    args=(srv.url, pool, 0, "w0", killed), daemon=True,
                )
                killer.start()
                dist = _sweep(srv.url, specs, cache)
                killer.join(timeout=20)
        assert killed == [True]
        assert dist == serial
        assert queue.counters["degraded"] == 1
        assert queue.counters["cancelled"] == len(specs)
        assert queue.counters["fallback_jobs"] == len(specs)
        assert "completions" not in queue.counters
        assert srv.server.progress.jobs_done == len(specs)
        assert "degrading to the server's pool" in capsys.readouterr().err
        assert all(cache.get(s) == r for s, r in zip(specs, serial))


def _start_serve_process(cache_dir: Path):
    """``python -m repro.serve --port 0``; returns (process, url)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--cache-dir", str(cache_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True,
    )
    for line in proc.stdout:
        if "listening on " in line:
            return proc, line.split("listening on ", 1)[1].split()[0]
    proc.wait(timeout=10)
    raise RuntimeError("python -m repro.serve did not start")


class TestStandaloneServer:
    def test_serve_process_coordinates_a_worker_pool_sweep(self, tmp_path):
        """``python -m repro.serve`` with a two-worker pool: a
        ``ServeBackend`` sweep against it equals serial ``run_job``, every
        miss is computed by a worker, and no lease is left held."""
        specs = [baseline_job(w, uops=2_000, warmup=500)
                 for w in ("swim", "gobmk", "mcf")]
        serial = [run_job(s) for s in specs]
        cache = ResultCache(root=tmp_path / "cache")
        proc, url = _start_serve_process(cache.root)
        try:
            with WorkerPool(url, 2, cache_root=str(cache.root),
                            poll_interval=0.01):
                dist = _sweep(url, specs, cache)
                with DistClient(url) as client:
                    status = client.dist_status()
                    served = client.metrics()["serve"]
        finally:
            proc.terminate()
            proc.communicate(timeout=30)
        assert dist == serial
        assert status["jobs"] == {QUEUED: 0, LEASED: 0,
                                  DONE: len(specs), FAILED: 0}
        assert status["leases"] == []
        assert status["counters"]["completions"] == served["misses"] \
            == len(specs)

    def test_sigterm_drains_workers_and_prints_the_summary(self, tmp_path):
        """SIGTERM ends ``python -m repro.serve`` the way Ctrl-C does:
        exit 0, a polling worker hears ``drain``, the summary prints."""
        proc, url = _start_serve_process(tmp_path / "cache")
        worker, drains = _recording_worker(url, None)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        try:
            _await_live(url, 1)
        finally:
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=30)
        thread.join(timeout=20)
        assert not thread.is_alive()
        assert proc.returncode == 0
        assert "[serve] " in out and " request(s): " in out
        assert drains and drains[-1] is True
