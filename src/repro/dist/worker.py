"""Pull-model distributed workers, their client and subprocess supervisor.

A :class:`DistWorker` is one consumer loop against a sweep server: lease
one of its misses, heartbeat the lease from a side thread while
computing, write the result into the shared content-addressed cache and
the worker's own :class:`~repro.chaos.RunJournal`, then report
completion — or report failure and let the server's retry machinery
decide; it speaks the ``/v1/dist/*`` routes through :class:`DistClient`.
The loop is deliberately run-anywhere: in a thread for tests
(``in_process=True`` downgrades shipped crash/hang verdicts to transient
exceptions, exactly like the scheduler's serial path), or as a
``python -m repro.dist worker`` subprocess managed by
:class:`WorkerPool`.

The chaos contract on the distributed path mirrors the local one, with
the *decision* made server-side and shipped inside the lease:

* a ``crash`` verdict kills the worker process hard (``os._exit``) — no
  completion, no heartbeat, lease expires, job is re-queued elsewhere;
* a ``hang`` verdict sleeps past its budget and then surfaces as a
  transient failure (heartbeats keep the lease alive meanwhile — a
  sleeping worker is slow, not dead);
* a cache-corruption verdict is applied by the worker **after** storing
  its blob, then *proven handled*: the worker re-reads the blob (which
  quarantines it, counting ``exec/cache/corrupt``) and re-stores the
  clean result, so a corrupt blob is never served to anyone.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import repro.obs as obs
from repro.chaos.journal import RunJournal
from repro.chaos.plan import InjectedFault, apply_fault, corrupt_file
from repro.exec.cache import ResultCache
from repro.exec.jobs import JobSpec, run_job, run_job_observed
from repro.serve import protocol
from repro.serve.client import ServeClient

#: Consecutive coordinator round-trip failures a worker tolerates before
#: giving up (the client's own retry/backoff runs *inside* each of these).
MAX_COORDINATOR_FAILURES = 5

#: Most seconds :meth:`WorkerPool.start` waits for its workers' first
#: lease polls.
START_SECONDS = 60.0


class DistClient(ServeClient):
    """A :class:`ServeClient` that also speaks the ``/v1/dist/*`` routes."""

    def dist_status(self) -> dict:
        return self._request("GET", protocol.ROUTE_DIST_STATUS)

    def dist_lease(self, worker: str):
        """Ask for work: ``(WorkOrder or None, drain flag)``."""
        doc = self._request("POST", protocol.ROUTE_DIST_LEASE,
                            protocol.encode_worker_doc(worker))
        return protocol.decode_lease(doc)

    def dist_heartbeat(self, worker: str, digest: str) -> bool:
        doc = self._request("POST", protocol.ROUTE_DIST_HEARTBEAT,
                            protocol.encode_heartbeat(worker, digest))
        return bool(doc.get("held"))

    def dist_complete(self, worker: str, spec: JobSpec, stats,
                      metrics: dict | None = None) -> str:
        doc = self._request(
            "POST", protocol.ROUTE_DIST_COMPLETE,
            protocol.encode_complete(worker, spec, stats, metrics),
        )
        return str(doc.get("outcome", "ok"))

    def dist_fail(self, worker: str, digest: str, error: str) -> None:
        self._request("POST", protocol.ROUTE_DIST_FAIL,
                      protocol.encode_fail(worker, digest, error))


class DistWorker:
    """One lease → compute → complete loop against a sweep server.

    Parameters
    ----------
    url:
        The server's base URL.
    worker_id:
        Stable identity used for lease bookkeeping and per-worker metrics.
    cache:
        The shared :class:`ResultCache` results are written into (and
        consulted first — a job another worker already finished is served
        from disk, not recomputed).  ``None`` disables caching.
    journal:
        Optional per-worker :class:`RunJournal`; merged into the driver's
        resume state by :func:`repro.chaos.merge_journals`.
    job_fn:
        The cell executor (tests substitute counters/sleepers here).
    in_process:
        True when the worker runs as a thread of a larger process: crash
        and hang verdicts are downgraded to transient exceptions, since
        ``os._exit`` would take the host process with it.
    slowdown:
        Extra seconds slept inside every job — a testing knob that widens
        the window for SIGKILL/lease-expiry drills.
    max_idle:
        Exit after this many consecutive idle seconds (``None`` = wait for
        the coordinator's drain signal forever).
    """

    def __init__(
        self,
        url: str,
        worker_id: str,
        cache: ResultCache | None = None,
        journal: RunJournal | None = None,
        job_fn=run_job,
        poll_interval: float = 0.05,
        in_process: bool = False,
        slowdown: float = 0.0,
        max_idle: float | None = None,
    ) -> None:
        self.url = url
        self.worker_id = protocol.validate_worker(worker_id)
        self.cache = cache
        self.journal = journal
        self.job_fn = job_fn
        self.poll_interval = poll_interval
        self.in_process = in_process
        self.slowdown = slowdown
        self.max_idle = max_idle
        self.client = DistClient(url)
        # Heartbeats ride their own connection: the main client is busy
        # holding no request while computing, but keeping the two streams
        # separate means a slow completion upload never delays a beat.
        self._hb_client = DistClient(url)
        self._stop = threading.Event()
        self.completed = 0
        self.failed = 0

    def stop(self) -> None:
        self._stop.set()

    # -- the loop ----------------------------------------------------------

    def run(self) -> int:
        """Consume jobs until drained/stopped; returns jobs completed."""
        idle_since: float | None = None
        coordinator_failures = 0
        while not self._stop.is_set():
            try:
                order, drain = self.client.dist_lease(self.worker_id)
                coordinator_failures = 0
            except Exception:
                coordinator_failures += 1
                if coordinator_failures >= MAX_COORDINATOR_FAILURES:
                    break
                time.sleep(self.poll_interval)
                continue
            if order is None:
                if drain:
                    break
                now = time.monotonic()
                if idle_since is None:
                    idle_since = now
                elif (self.max_idle is not None
                      and now - idle_since > self.max_idle):
                    break
                time.sleep(self.poll_interval)
                continue
            idle_since = None
            self._run_order(order)
        self.client.close()
        self._hb_client.close()
        return self.completed

    def _run_order(self, order: protocol.WorkOrder) -> None:
        digest = order.digest
        beat = self._start_heartbeat(digest, order.lease_seconds)
        try:
            stats, metrics = self._execute(order)
            if self.journal is not None:
                self.journal.record(order.spec, stats)
            self.client.dist_complete(self.worker_id, order.spec, stats,
                                      metrics)
            self.completed += 1
        except Exception as exc:
            self.failed += 1
            try:
                self.client.dist_fail(self.worker_id, digest, repr(exc))
            except Exception:
                pass  # coordinator gone; the lease will expire on its own
        finally:
            beat.set()

    def _start_heartbeat(self, digest: str, lease_seconds: float
                         ) -> threading.Event:
        """Beat the held lease from a side thread until the event is set."""
        done = threading.Event()
        period = max(0.02, lease_seconds / 3.0)

        def _beat() -> None:
            while not done.wait(period):
                try:
                    if not self._hb_client.dist_heartbeat(self.worker_id,
                                                          digest):
                        return  # lease lost: stop beating a dead horse
                except Exception:
                    return

        threading.Thread(target=_beat, name=f"hb-{self.worker_id}",
                         daemon=True).start()
        return done

    # -- executing one order -----------------------------------------------

    def _execute(self, order: protocol.WorkOrder):
        """Run one leased job; returns ``(stats, metrics snapshot)``."""
        if order.fault is not None:
            action = order.fault
            if self.in_process and action.kind in ("crash", "hang"):
                # A threaded worker cannot survive os._exit / a long sleep;
                # downgrade like the scheduler's serial path does.
                raise InjectedFault(
                    f"injected {action.kind} (downgraded in-process)"
                )
            apply_fault(action)   # crash never returns; hang raises late
        if self.slowdown > 0:
            time.sleep(self.slowdown)
        spec = order.spec
        hit = self.cache.get(spec) if self.cache is not None else None
        if hit is not None:
            return hit, {}
        if obs.enabled():
            stats, metrics = run_job_observed(self.job_fn, spec)
        else:
            stats, metrics = self.job_fn(spec), {}
        if self.cache is not None:
            self.cache.put(spec, stats)
            if order.corrupt is not None:
                self._prove_corruption_handled(spec, order.corrupt)
        return stats, metrics

    def _prove_corruption_handled(self, spec, mode: str) -> None:
        """Apply the shipped corruption verdict, then repair through the
        cache's own integrity machinery.

        The re-read *must* miss (quarantining the damaged blob into
        ``corrupt/`` and counting ``exec/cache/corrupt``); the clean
        result is then re-stored, so no reader anywhere can ever be served
        the corrupted bytes.
        """
        corrupt_file(self.cache.blob_path(spec.digest()), mode)
        reread = self.cache.get(spec)   # quarantines; returns None
        if reread is None:
            self.cache.put(spec, self.job_fn(spec))


class WorkerPool:
    """Spawn + supervise ``python -m repro.dist worker`` subprocesses.

    A monitor thread respawns workers that exit unexpectedly (each
    respawn gets a fresh worker id, so the dead incarnation's leases are
    attributed — and expired — under the old name), bounded by
    ``max_respawns`` across the pool.  :meth:`start` returns once the
    server has heard a lease poll from each worker, so a sweep started
    next has its misses leased, not computed on the server's own pool.
    :meth:`kill` SIGKILLs one worker, which is how the chaos drills and
    the CI smoke simulate hard node loss.
    """

    def __init__(
        self,
        url: str,
        workers: int,
        cache_root: str | None = None,
        journal_dir: str | Path | None = None,
        respawn: bool = True,
        max_respawns: int = 3,
        poll_interval: float = 0.05,
        slowdown: float = 0.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.url = url
        self.workers = workers
        self.cache_root = cache_root
        self.journal_dir = Path(journal_dir) if journal_dir else None
        self.respawn = respawn
        self.max_respawns = max_respawns
        self.poll_interval = poll_interval
        self.slowdown = slowdown
        self.respawns = 0
        self._procs: list[subprocess.Popen | None] = [None] * workers
        self._incarnation = [0] * workers
        self._stopping = threading.Event()
        self._monitor: threading.Thread | None = None

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self, idx: int) -> subprocess.Popen:
        incarnation = self._incarnation[idx]
        worker_id = (f"w{idx}" if incarnation == 0
                     else f"w{idx}r{incarnation}")
        import repro
        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        cmd = [
            sys.executable, "-m", "repro.dist", "worker",
            "--coordinator-url", self.url,
            "--worker-id", worker_id,
            "--poll-interval", str(self.poll_interval),
        ]
        if self.cache_root:
            cmd += ["--cache-dir", str(self.cache_root)]
        if self.journal_dir is not None:
            self.journal_dir.mkdir(parents=True, exist_ok=True)
            cmd += ["--journal", str(self.journal_dir / f"{worker_id}.jsonl")]
        if self.slowdown > 0:
            cmd += ["--slowdown", str(self.slowdown)]
        return subprocess.Popen(cmd, env=env)

    def start(self) -> "WorkerPool":
        for idx in range(self.workers):
            self._procs[idx] = self._spawn(idx)
        self._monitor = threading.Thread(
            target=self._monitor_main, name="dist-worker-monitor", daemon=True
        )
        self._monitor.start()
        self._await_first_polls()
        return self

    def _await_first_polls(self) -> None:
        deadline = time.monotonic() + START_SECONDS
        live = 0
        with DistClient(self.url) as client:
            while time.monotonic() < deadline:
                live = client.dist_status().get("live_workers", 0)
                if live >= self.workers:
                    return
                time.sleep(0.02)
        print(f"[dist] {live} of {self.workers} worker(s) polled within "
              f"{START_SECONDS:.0f}s; until they do, misses run on the "
              f"server's pool", file=sys.stderr)

    def _monitor_main(self) -> None:
        while not self._stopping.wait(0.2):
            for idx, proc in enumerate(self._procs):
                if proc is None or proc.poll() is None:
                    continue
                if not self.respawn or self.respawns >= self.max_respawns:
                    self._procs[idx] = None
                    continue
                self.respawns += 1
                obs.counter("dist/worker_respawns").inc()
                self._incarnation[idx] += 1
                self._procs[idx] = self._spawn(idx)

    def kill(self, idx: int = 0) -> int | None:
        """SIGKILL one worker (hard node loss); returns its pid."""
        proc = self._procs[idx]
        if proc is None or proc.poll() is not None:
            return None
        proc.kill()
        proc.wait(timeout=30)
        return proc.pid

    def stop(self) -> None:
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=10)
        for proc in self._procs:
            if proc is None:
                continue
            if proc.poll() is None:
                proc.terminate()
        for proc in self._procs:
            if proc is None:
                continue
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:  # pragma: no cover - wedged
                proc.kill()
                proc.wait(timeout=10)

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
