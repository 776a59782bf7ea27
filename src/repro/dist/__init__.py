"""Distributed work-stealing sweep execution with lease-based fault tolerance.

The local :class:`repro.exec.Scheduler` fans cells out over one machine's
process pool; this package adds worker processes — on this host or others
sharing the cache root — to a sweep server, keeping every guarantee the
local path has (determinism, bounded failure, zero recompute, crash-safe
resume).  The server decides where a cell computes: while a worker polls
its ``/v1/dist/*`` routes, :class:`repro.serve.SweepServer` leases its
misses to the worker from one :class:`repro.serve.leases.LeaseQueue`;
with none, it computes them on its own pool.  Drivers reach it the same
way either way, through :class:`repro.serve.ServeBackend`.

:mod:`repro.dist.worker` holds :class:`DistWorker`, the pull-model worker
loop (lease → heartbeat → compute → cache → journal → complete);
:class:`DistClient`, the :class:`repro.serve.ServeClient` subclass
carrying the dist routes; and :class:`WorkerPool`, a subprocess
supervisor that spawns and respawns ``python -m repro.dist worker``
processes.

The fault model is **pull + lease**: workers *steal* jobs (no static
sharding — a slow or dead worker never strands its share), prove liveness
by heartbeating each held lease, and a lease whose heartbeats stop is
expired by the server's reaper and re-queued behind a deterministic
exponential backoff, up to a bounded retry budget.  Results are verified
end to end (the completion document carries the cache blob's own sha256
payload checksum) and completions are idempotent: a job is a pure
function of its spec, so a completion arriving after the lease was stolen
is simply accepted once and counted ``dist/stale_completions`` after
that.  A job that spends its retry budget, and every job outstanding once
no worker has been seen for the queue's worker TTL, is computed on the
server's pool with a warning — a distributed sweep can end slow, but not
wrong and not wedged.
"""

from repro.dist.worker import DistClient, DistWorker, WorkerPool

__all__ = [
    "DistClient",
    "DistWorker",
    "WorkerPool",
]
