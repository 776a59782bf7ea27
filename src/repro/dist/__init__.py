"""Distributed work-stealing sweep execution with lease-based fault tolerance.

The local :class:`repro.exec.Scheduler` fans cells out over one machine's
process pool; this package fans the *same* cells out over any number of
worker processes — on this host or others sharing the cache root — while
keeping every guarantee the local path has (determinism, bounded failure,
zero recompute, crash-safe resume).  The coordinator is the sweep server:
:class:`repro.serve.SweepServer` serves the ``/v1/dist/*`` routes from one
:class:`repro.serve.leases.LeaseQueue`.  This package holds its clients:

* :mod:`repro.dist.worker` — :class:`DistWorker`, the pull-model worker
  loop (lease → heartbeat → compute → cache → journal → complete), and
  :class:`WorkerPool`, a subprocess supervisor that spawns and respawns
  ``python -m repro.dist worker`` processes.
* :mod:`repro.dist.backend` — :class:`DistBackend`, a
  :class:`repro.exec.SchedulerBackend` that submits a scheduler's pending
  cells to the server and collects verified results, plus
  :class:`DistClient`, the :class:`repro.serve.ServeClient` subclass
  carrying the dist routes.

The fault model is **pull + lease**: workers *steal* jobs (no static
sharding — a slow or dead worker never strands its share), prove liveness
by heartbeating each held lease, and a lease whose heartbeats stop is
expired by the server's reaper and re-queued behind a deterministic
exponential backoff, up to a bounded retry budget.  Results are verified
end to end (the completion document carries the cache blob's own sha256
payload checksum) and completions are idempotent: a job is a pure
function of its spec, so a completion arriving after the lease was stolen
is simply accepted once and counted ``dist/stale_completions`` after
that.  Losing *every* worker degrades the driver gracefully back to the
local pool with a warning — a distributed sweep can end slow, but not
wrong and not wedged.
"""

from repro.dist.backend import DistBackend, DistClient
from repro.dist.worker import DistWorker, WorkerPool

__all__ = [
    "DistBackend",
    "DistClient",
    "DistWorker",
    "WorkerPool",
]
