"""The lease queue that hands sweep-server misses to ``/v1/dist/*`` workers.

:class:`LeaseQueue` is the whole distributed-correctness story in one
pure, single-threaded state machine: jobs move ``queued → leased → done``
(or ``failed`` once the retry budget is spent), a lease is held only as
long as its heartbeats keep arriving, and every transition is counted.
Time is an injectable ``clock`` callable, so lease expiry, backoff gating
and worker liveness are unit-testable by advancing a fake clock instead of
sleeping.

:class:`repro.serve.server.SweepServer` owns one queue and touches it only
from its event loop: it submits its cache misses while a worker is live,
and drains terminal failures with :meth:`LeaseQueue.collect`.  Workers
reach it over HTTP, never by sharing memory.

Chaos verdicts are drawn **here**, at lease-grant time, from the queue's
own :class:`repro.chaos.FaultPlan`: the fault a job absorbs is a pure
function of ``(seed, digest, per-job ordinal)`` no matter which worker
steals the job or how often it is re-leased, and the plan's
``exec/fault/*`` accounting (including recoveries via ``note_outcome``)
lives in one place.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Sequence

import repro.obs as obs
from repro.common.rng import deterministic_backoff
from repro.exec.jobs import JobSpec
from repro.serve import protocol

#: Job states.
QUEUED, LEASED, DONE, FAILED = "queued", "leased", "done", "failed"


class _Job:
    """One cell's place in the queue (internal to :class:`LeaseQueue`)."""

    __slots__ = ("spec", "digest", "attempts", "not_before", "state",
                 "worker", "last_worker", "lease_expires")

    def __init__(self, spec: JobSpec) -> None:
        self.spec = spec
        self.digest = spec.digest()
        self.attempts = 0          # leases charged against the retry budget
        self.not_before = 0.0      # backoff gate for the next lease
        self.state = QUEUED
        self.worker: str | None = None
        self.last_worker: str | None = None
        self.lease_expires = 0.0


class LeaseQueue:
    """Pull-model work queue with heartbeat leases and bounded retry.

    Semantics:

    * :meth:`lease` hands out the oldest queued job whose backoff gate has
      passed; the job is **stolen**, not assigned — any worker may take it,
      and a job re-leased to a different worker than last time counts as a
      steal.
    * :meth:`heartbeat` extends a held lease by ``lease_seconds``; a lease
      whose holder stops heartbeating is expired by :meth:`reap`, charged
      one attempt, and re-queued behind
      :func:`~repro.common.rng.deterministic_backoff` — until the job has
      burned ``retries`` re-queues, after which it is terminally failed.
    * :meth:`complete` is **idempotent**: results are pure functions of
      their spec, so the first completion wins and any later one (a worker
      whose lease had already been stolen) is accepted as a no-op and
      counted ``stale_completions``.

    Every transition is mirrored into plain-int :attr:`counters` (always
    on) and ``dist/*`` obs counters (when the obs layer is enabled),
    including per-worker ``jobs`` / ``steals`` / ``lease_expired``.

    Only queued and leased jobs are kept as jobs, in submission order, so
    :meth:`lease`, :meth:`reap` and :meth:`cancel` cost O(live jobs)
    however long the server has run.  A job that finishes or fails leaves
    its digest's final state behind, and :meth:`status` tallies those.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        lease_seconds: float = 30.0,
        retries: int = 3,
        backoff_base: float = 0.5,
        backoff_cap: float = 30.0,
        worker_ttl: float | None = None,
        chaos=None,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError(f"lease_seconds must be > 0, got {lease_seconds}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.clock = clock
        self.lease_seconds = lease_seconds
        self.retries = retries
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.worker_ttl = (worker_ttl if worker_ttl is not None
                           else 2.0 * lease_seconds)
        self.chaos = chaos
        # Live jobs in submission order.  An OrderedDict iterates its
        # linked list, so the entries of finished jobs cost nothing; a
        # plain dict would still walk their deleted slots.
        self._jobs: OrderedDict[str, _Job] = OrderedDict()
        self._ended: dict[str, str] = {}       # digest -> DONE or FAILED
        self._tally: dict[str, int] = {DONE: 0, FAILED: 0}
        self._workers: dict[str, float] = {}   # worker id -> last seen
        self._fresh_failures: list[tuple[JobSpec, str]] = []
        self.counters: dict[str, int] = {}
        self.worker_counters: dict[str, dict[str, int]] = {}

    # -- accounting --------------------------------------------------------

    def count(self, name: str, worker: str | None = None) -> None:
        """Add one to ``counters[name]`` and the ``dist/<name>`` metric
        (and to ``worker``'s own counters when given)."""
        self.counters[name] = self.counters.get(name, 0) + 1
        obs.counter(f"dist/{name}").inc()
        if worker is not None:
            per = self.worker_counters.setdefault(worker, {})
            per[name] = per.get(name, 0) + 1
            obs.counter(f"dist/worker/{worker}/{name}").inc()

    def touch_worker(self, worker: str) -> None:
        self._workers[worker] = self.clock()

    def live_workers(self) -> int:
        now = self.clock()
        return sum(1 for seen in self._workers.values()
                   if now - seen <= self.worker_ttl)

    # -- the server's side -------------------------------------------------

    def submit(self, specs: Sequence[JobSpec]) -> int:
        """Enqueue cells; returns the number accepted.

        A digest still queued or leased is skipped.  A finished, failed
        or cancelled one is queued again with a fresh retry budget: its
        blob may have been quarantined since, and its new miss must
        resolve.
        """
        accepted = 0
        for spec in specs:
            digest = spec.digest()
            if digest in self._jobs:
                continue
            ended = self._ended.pop(digest, None)
            if ended is not None:
                self._tally[ended] -= 1
            self._jobs[digest] = _Job(spec)
            accepted += 1
            self.count("jobs")
        return accepted

    def collect(self) -> list[tuple[JobSpec, str]]:
        """Drain the jobs that failed terminally since the last call, as
        ``(spec, error)`` pairs; each is delivered exactly once."""
        failures, self._fresh_failures = self._fresh_failures, []
        return failures

    def cancel(self) -> list[JobSpec]:
        """Terminally drop every unfinished job (its cells are computed
        elsewhere).  Returns their specs; cancelled jobs are *not*
        reported through :meth:`collect` — the canceller already knows."""
        cancelled = []
        for job in list(self._jobs.values()):
            self._end(job, FAILED)
            cancelled.append(job.spec)
            self.count("cancelled")
        return cancelled

    # -- worker side -------------------------------------------------------

    def lease(self, worker: str) -> dict | None:
        """Grant the oldest ready job to ``worker``; ``None`` when idle.

        The chaos verdicts (job fault + cache-corruption mode) are drawn
        here and shipped inside the grant, so injection is independent of
        which worker asks.
        """
        self.touch_worker(worker)
        now = self.clock()
        for digest, job in self._jobs.items():
            if job.state != QUEUED or job.not_before > now:
                continue
            job.state = LEASED
            job.worker = worker
            job.lease_expires = now + self.lease_seconds
            if job.last_worker is not None and job.last_worker != worker:
                self.count("steals", worker)
            self.count("leases", worker)
            fault = corrupt = None
            if self.chaos is not None:
                fault = self.chaos.job_fault(digest)
                corrupt = self.chaos.corrupt_verdict(digest)
            return protocol.encode_lease_grant(
                job.spec, job.attempts, self.lease_seconds,
                fault=fault, corrupt=corrupt,
            )
        return None

    def heartbeat(self, worker: str, digest: str) -> bool:
        """Extend a held lease; ``False`` when the lease is no longer
        this worker's (expired and stolen, or the job finished)."""
        self.touch_worker(worker)
        job = self._jobs.get(digest)
        if job is None or job.state != LEASED or job.worker != worker:
            return False
        job.lease_expires = self.clock() + self.lease_seconds
        return True

    def complete(self, worker: str, digest: str) -> str:
        """Record a verified completion; returns ``"ok"`` or ``"stale"``."""
        self.touch_worker(worker)
        job = self._jobs.get(digest)
        if job is None:
            self.count("stale_completions", worker)
            return "stale"
        # Accept even when the lease moved on: the result is deterministic,
        # and first-completion-wins is exactly the idempotence we want.
        self._end(job, DONE)
        self.count("completions", worker)
        if self.chaos is not None:
            self.chaos.note_outcome(digest)
        return "ok"

    def fail(self, worker: str, digest: str, error: str) -> None:
        """A worker reports a job raised; charge the attempt and re-queue."""
        self.touch_worker(worker)
        job = self._jobs.get(digest)
        if job is None:
            self.count("stale_completions", worker)
            return
        self._requeue(job, error)

    # -- expiry ------------------------------------------------------------

    def reap(self) -> int:
        """Expire leases whose heartbeats stopped; returns how many."""
        now = self.clock()
        expired = 0
        for job in list(self._jobs.values()):
            if job.state == LEASED and job.lease_expires < now:
                self.count("lease_expired", job.worker)
                self._requeue(job, f"lease expired on {job.worker}")
                expired += 1
        for worker, seen in list(self._workers.items()):
            if now - seen > self.worker_ttl:
                del self._workers[worker]
        return expired

    def _requeue(self, job: _Job, error: str) -> None:
        job.attempts += 1
        job.last_worker, job.worker = job.worker, None
        if job.attempts > self.retries:
            self._end(job, FAILED)
            self._fresh_failures.append((job.spec, error))
            self.count("failures")
            return
        job.state = QUEUED
        job.not_before = self.clock() + deterministic_backoff(
            job.digest, job.attempts, self.backoff_base, self.backoff_cap
        )
        self.count("requeues")

    def _end(self, job: _Job, state: str) -> None:
        """Retire a job: from here on only its digest's tally is kept."""
        del self._jobs[job.digest]
        self._ended[job.digest] = state
        self._tally[state] += 1

    # -- reporting ---------------------------------------------------------

    def leased(self) -> list[dict]:
        """The currently held leases (for status and leak checks)."""
        now = self.clock()
        return [
            {"digest": job.digest, "worker": job.worker,
             "expires_in": round(job.lease_expires - now, 3),
             "attempts": job.attempts}
            for job in self._jobs.values() if job.state == LEASED
        ]

    def status(self) -> dict:
        states: dict[str, int] = {QUEUED: 0, LEASED: 0, **self._tally}
        for job in self._jobs.values():
            states[job.state] += 1
        return {
            "v": protocol.PROTOCOL_VERSION,
            "jobs": states,
            "leases": self.leased(),
            "live_workers": self.live_workers(),
            "counters": dict(self.counters),
            "workers": {w: dict(c) for w, c in self.worker_counters.items()},
        }


def lease_retries(chaos=None) -> int:
    """Re-queues per job before it fails: three for worker loss, more if
    ``chaos`` may inject more faults into one job."""
    if chaos is None:
        return 3
    return max(3, chaos.config.max_faults_per_job + 1)
