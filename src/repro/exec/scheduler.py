"""Fan-out of experiment cells over worker processes.

The scheduler turns a list of :class:`JobSpec` into a list of
:class:`SimStats` with four guarantees:

* **Determinism** — results are collected *by submission index*, never by
  completion order, and every cell is a pure function of its spec; the
  output of ``jobs=N`` is bit-identical to ``jobs=1``.  Submission order
  itself is fixed by :func:`shard` (round-robin over workers), so a given
  (specs, jobs) pair always dispatches identically.
* **Bounded failure** — each job gets a wait timeout and a bounded number
  of retries; a hung worker is killed and its pool rebuilt rather than
  wedging the sweep.  A pool that keeps dying degrades gracefully to the
  in-process serial path.
* **Zero recompute** — when a :class:`ResultCache` is attached, cached
  cells are answered before any worker is spawned and fresh results are
  stored as they complete.
* **Crash-safe resume** — when a :class:`repro.chaos.RunJournal` is
  attached, every finished job is journaled (flushed + fsynced) the
  moment it completes, finished jobs of a previous interrupted run are
  answered from the journal instead of re-queued, and SIGINT/SIGTERM are
  trapped to flush the journal and print a resume hint.

A :class:`repro.chaos.FaultPlan` (``chaos=``) injects deterministic worker
crashes, hangs and transient exceptions through this module's retry
machinery — the chaos suite uses it to prove the guarantees above hold
under fire.  Both hooks follow the ``is None`` zero-overhead convention.

The serial path (``jobs=1``) runs in-process with no pickling and is the
reference semantics; the parallel path exists purely to buy wall-clock.
"""

from __future__ import annotations

import time
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Callable, Sequence

import repro.obs as obs
from repro.pipeline import SimStats
from repro.chaos.journal import resume_guard
from repro.chaos.plan import apply_fault, run_faulted
from repro.exec.cache import ResultCache
from repro.exec.jobs import JobSpec, run_job, run_job_observed
from repro.exec.progress import ProgressMeter

#: Consecutive pool deaths tolerated before falling back to serial.
MAX_POOL_FAILURES = 2


class JobError(RuntimeError):
    """A job exhausted its retry budget raising exceptions."""

    def __init__(self, spec: JobSpec, message: str) -> None:
        super().__init__(f"{spec.label()}: {message}")
        self.spec = spec


class JobTimeoutError(JobError):
    """A job exhausted its retry budget timing out."""

    def __init__(self, spec: JobSpec, timeout: float) -> None:
        super().__init__(spec, f"timed out after {timeout}s (retries exhausted)")


def shard(items: Sequence, nshards: int) -> list[list]:
    """Deterministic round-robin split of ``items`` into ``nshards`` lists.

    ``shard(range(5), 2) == [[0, 2, 4], [1, 3]]``.  Empty shards are kept
    so the shape depends only on ``(len(items), nshards)``.
    """
    if nshards <= 0:
        raise ValueError(f"nshards must be positive, got {nshards}")
    shards: list[list] = [[] for _ in range(nshards)]
    for i, item in enumerate(items):
        shards[i % nshards].append(item)
    return shards


def _interleave(indices: Sequence[int], nshards: int) -> list[int]:
    """Submission order: shard round-robin, then concatenate the shards."""
    return [i for s in shard(indices, nshards) for i in s]


class SchedulerBackend:
    """Where a scheduler's pending (uncached) cells actually execute.

    The :class:`Scheduler` keeps everything that is *policy* — cache and
    journal pre-checks, batched-group fusion, progress, spans, the
    journal-on-completion rule — and delegates raw execution of the
    still-pending indices to a backend.  :class:`LocalPoolBackend` is the
    historical in-process/ProcessPoolExecutor behaviour, bit for bit;
    :class:`repro.serve.ServeBackend` sends the same indices to a sweep
    server, which computes each on its own pool or leases it to a
    :mod:`repro.dist` worker.  These two are the only backends.

    Each backend defines ``execute(sched, specs, pending, results)``,
    which must fill ``results[i]`` for every ``i`` in
    ``pending`` (or raise), calling ``sched._complete(i, specs, results)``
    exactly once per index as it finishes.  A backend that already
    persisted every result into the scheduler's cache sets
    ``writes_cache`` so the scheduler does not double-store; one that can
    honour the fused batched walk sets ``supports_batch``.
    """

    #: Short name, used in logs and error messages.
    name = "abstract"
    #: The backend stores results in ``sched.cache`` itself.
    writes_cache = False
    #: Shared-front-end batched groups may run before this backend.
    supports_batch = False


class LocalPoolBackend(SchedulerBackend):
    """The historical execution path: in-process serial or a local pool.

    ``jobs <= 1`` (or a single pending cell with no timeout to enforce)
    runs in-process with no pickling — the reference semantics; otherwise
    a :class:`ProcessPoolExecutor` fans out with deterministic sharding,
    per-job timeout + bounded retry, and ordered collection.
    """

    name = "local"
    supports_batch = True

    def execute(self, sched, specs, pending, results) -> None:
        if sched.jobs <= 1 or (len(pending) == 1 and sched.timeout is None):
            sched._run_serial(specs, pending, results)
        else:
            sched._run_parallel(specs, pending, results)


class Scheduler:
    """Runs batches of cells serially or over a process pool.

    Parameters
    ----------
    jobs:
        Worker processes; ``1`` (the default) = in-process serial.
    cache:
        Optional :class:`ResultCache` consulted before dispatch.
    timeout:
        Seconds to wait on each job's result (parallel path only — the
        serial path cannot preempt a running simulation).  ``None`` waits
        forever.
    retries:
        Extra attempts after the first for a job that times out or raises.
    progress:
        Optional :class:`ProgressMeter`; one batch per :meth:`run` call.
    job_fn:
        The cell executor, ``JobSpec -> SimStats``.  Must be a picklable
        top-level callable for the parallel path; tests substitute
        counting/hanging functions here.
    chaos:
        Optional :class:`repro.chaos.FaultPlan` injecting deterministic
        faults into job executions.  A chaos-injected sweep still
        completes (with bit-identical results) as long as
        ``retries >= chaos.config.max_faults_per_job``.
    journal:
        Optional :class:`repro.chaos.RunJournal`; finished jobs are
        checkpointed as they complete and previously journaled jobs are
        not re-run.
    batch:
        When true, batchable cells sharing a front end (BeBoP sweeps on
        the same workload/trace — see :mod:`repro.batch`) run as one
        trace pass per group before the serial/parallel dispatch picks
        up the rest.  Results are bit-identical (parity-suite enforced)
        and land in the same cache cells, so this is purely a wall-clock
        lever.  Ignored when chaos injection or the observability layer
        is active, or when a non-default ``job_fn`` is installed — those
        paths need the per-job execution boundary.
    backend:
        The :class:`SchedulerBackend` pending cells execute on.  ``None``
        (the default) means :class:`LocalPoolBackend` — the behaviour this
        class always had.  A :class:`repro.serve.ServeBackend` executes
        the same cells on a sweep server (its pool or its workers).
    """

    def __init__(
        self,
        jobs: int = 1,
        cache: ResultCache | None = None,
        timeout: float | None = None,
        retries: int = 1,
        progress: ProgressMeter | None = None,
        job_fn: Callable[[JobSpec], SimStats] = run_job,
        chaos=None,
        journal=None,
        batch: bool = False,
        backend: SchedulerBackend | None = None,
    ) -> None:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.jobs = jobs
        self.cache = cache
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.job_fn = job_fn
        self.chaos = chaos
        self.journal = journal
        self.batch = batch
        self.backend = backend if backend is not None else LocalPoolBackend()

    # -- public API -------------------------------------------------------

    def run(self, specs: Sequence[JobSpec], label: str = "") -> list[SimStats]:
        """Execute every spec; results are in spec order."""
        if self.journal is not None:
            # A journaled sweep flushes + prints a resume hint on Ctrl-C,
            # SIGTERM, or any error that aborts the batch.
            with resume_guard(self.journal):
                return self._run_batch(specs, label)
        return self._run_batch(specs, label)

    def _run_batch(self, specs: Sequence[JobSpec], label: str) -> list[SimStats]:
        specs = list(specs)
        if self.progress:
            self.progress.start(len(specs), label)
        results: list[SimStats | None] = [None] * len(specs)

        with obs.span("exec/batch", label=label, jobs=self.jobs) as span:
            pending: list[int] = []
            resumed = 0
            for i, spec in enumerate(specs):
                if self.journal is not None:
                    done = self.journal.get(spec)
                    if done is not None:
                        results[i] = done
                        resumed += 1
                        self._tick(cached=True)
                        continue
                # `is not None`: an empty ResultCache is falsy (has __len__).
                hit = self.cache.get(spec) if self.cache is not None else None
                if hit is not None:
                    results[i] = hit
                    if self.journal is not None:
                        self.journal.record(spec, hit)
                    self._tick(cached=True)
                else:
                    pending.append(i)

            computed = len(pending)
            batched = 0
            if pending and self._batch_eligible():
                before = len(pending)
                pending = self._run_batched_groups(specs, pending, results)
                batched = before - len(pending)
            if pending:
                self.backend.execute(self, specs, pending, results)
                if self.cache is not None and not self.backend.writes_cache:
                    for i in pending:
                        self.cache.put(specs[i], results[i])

            span["total"] = len(specs)
            span["computed"] = computed
            span["batched"] = batched
            span["cached"] = len(specs) - computed - resumed
            span["resumed"] = resumed

        if self.progress:
            self.progress.finish()
        return results  # type: ignore[return-value]

    # -- batched groups ----------------------------------------------------

    def _batch_eligible(self) -> bool:
        """May this run use the fused batched walk at all?

        Chaos injection, per-job observability accounting and substituted
        ``job_fn``s all assume one execution per cell, so any of them
        forces the per-job paths; a backend that does not declare
        ``supports_batch`` (the serve one, whose server owns the per-job
        execution boundary) does the same.
        """
        return (
            self.batch
            and self.backend.supports_batch
            and self.chaos is None
            and self.job_fn is run_job
            and not obs.enabled()
        )

    def _run_batched_groups(self, specs, pending, results) -> list[int]:
        """Run shared-front-end groups in one trace pass each.

        Returns the indices the batched walk did not take (non-batchable
        specs, singleton groups, or groups whose batched run failed —
        those fall through to the ordinary per-job dispatch, which is
        also the retry path).
        """
        from repro.batch import batchable_groups, run_batched_group

        groups = batchable_groups([specs[i] for i in pending])
        handled: set[int] = set()
        for positions in groups.values():
            group = [pending[p] for p in positions]
            try:
                stats = run_batched_group([specs[i] for i in group])
            except Exception:
                # The batch is an optimisation, not a semantic: let the
                # per-job machinery run (and retry) these cells.
                continue
            for i, result in zip(group, stats):
                results[i] = result
                if self.cache is not None:
                    self.cache.put(specs[i], result)
                handled.add(i)
                self._complete(i, specs, results)
        return [i for i in pending if i not in handled]

    # -- serial path ------------------------------------------------------

    def _run_serial(self, specs, pending, results) -> None:
        observed = obs.enabled()
        for i in pending:
            last: Exception | None = None
            for attempt in range(1 + self.retries):
                if attempt and observed:
                    obs.counter("exec/job/retries").inc()
                try:
                    if self.chaos is not None:
                        action = self.chaos.job_fault(
                            specs[i].digest(), serial=True
                        )
                        if action is not None:
                            apply_fault(action)   # raises InjectedFault
                    if observed:
                        t0 = time.perf_counter()
                        results[i] = self.job_fn(specs[i])
                        dt = time.perf_counter() - t0
                        reg = obs.registry()
                        reg.counter("exec/job/count").inc()
                        reg.counter("exec/job/seconds").inc(dt)
                        obs.trace().emit(
                            "exec/job",
                            spec=specs[i].label(),
                            seconds=dt,
                            attempt=attempt,
                        )
                    else:
                        results[i] = self.job_fn(specs[i])
                    last = None
                    break
                except Exception as exc:
                    last = exc
            if last is not None:
                raise JobError(specs[i], f"failed after retries: {last!r}") from last
            self._complete(i, specs, results)

    # -- parallel path ----------------------------------------------------

    def _run_parallel(self, specs, pending, results) -> None:
        attempts = dict.fromkeys(pending, 0)
        queue = list(pending)
        pool_failures = 0
        while queue:
            if pool_failures >= MAX_POOL_FAILURES:
                # The pool keeps dying (OOM-killed workers, broken fork
                # environment, ...): finish deterministically in-process.
                self._run_serial(specs, queue, results)
                return
            queue, pool_broke = self._one_pass(specs, queue, attempts, results)
            pool_failures = pool_failures + 1 if pool_broke else 0

    def _one_pass(self, specs, queue, attempts, results) -> tuple[list[int], bool]:
        """One pool lifetime; returns (still-unfinished indices, pool died).

        A timed-out or crashed job poisons the whole pool: waiting is
        abandoned, already-finished survivors are harvested, the workers
        are killed, and the caller re-queues the remainder against a fresh
        pool.  A job that merely *raises* leaves the pool healthy and is
        simply retried on the next pass.
        """
        order = _interleave(queue, self.jobs)
        pool = ProcessPoolExecutor(max_workers=min(self.jobs, len(order)))
        futures: dict[int, Future] = {}
        done: set[int] = set()
        poisoned = False
        pool_broke = False
        # When observability is on, jobs run wrapped in a per-job worker
        # registry and return (stats, metrics snapshot); snapshots are
        # merged in harvest order — which is the deterministic submission
        # order — so parallel counter totals equal serial totals.
        observed = obs.enabled()
        try:
            for i in order:
                if observed:
                    target, targs = run_job_observed, (self.job_fn, specs[i])
                else:
                    target, targs = self.job_fn, (specs[i],)
                if self.chaos is not None:
                    # The verdict is computed here (parent side, so it is
                    # independent of worker scheduling) and shipped to the
                    # worker as plain data.
                    action = self.chaos.job_fault(specs[i].digest())
                    if action is not None:
                        futures[i] = pool.submit(
                            run_faulted, action, target, *targs
                        )
                        continue
                futures[i] = pool.submit(target, *targs)
            for i in order:
                try:
                    self._harvest(i, futures[i].result(timeout=self.timeout),
                                  specs, results, observed)
                    done.add(i)
                    self._complete(i, specs, results)
                except TimeoutError:
                    # A hung worker: charge the attempt and stop waiting —
                    # the pool is killed below and survivors harvested.
                    attempts[i] += 1
                    poisoned = True
                    if observed:
                        obs.counter("exec/job/retries").inc()
                        obs.trace().emit(
                            "exec/timeout",
                            spec=specs[i].label(),
                            attempt=attempts[i],
                            timeout=self.timeout,
                        )
                    if attempts[i] > self.retries:
                        raise JobTimeoutError(specs[i], self.timeout or 0.0)
                    break
                except BrokenExecutor:
                    poisoned = True
                    pool_broke = True
                    break
                except Exception as exc:
                    attempts[i] += 1
                    if observed:
                        obs.counter("exec/job/retries").inc()
                    if attempts[i] > self.retries:
                        raise JobError(
                            specs[i], f"failed after retries: {exc!r}"
                        ) from exc
        except BrokenExecutor:
            # submit() itself failed: the pool died before dispatch.
            poisoned = True
            pool_broke = True
        finally:
            # Salvage anything that finished before we stopped waiting.
            for i in order:
                if i in done:
                    continue
                fut = futures.get(i)
                if fut is not None and fut.done() and not fut.cancelled():
                    try:
                        if fut.exception() is None:
                            self._harvest(i, fut.result(), specs, results,
                                          observed)
                            done.add(i)
                            self._complete(i, specs, results)
                    except Exception:
                        pass
            if poisoned:
                _kill_pool(pool)
            else:
                pool.shutdown(wait=True, cancel_futures=True)
        return [i for i in order if i not in done], pool_broke

    def _harvest(self, i, outcome, specs, results, observed: bool) -> None:
        """Record one finished job, folding worker metrics into the parent."""
        if observed:
            results[i], snapshot = outcome
            obs.registry().merge(snapshot)
            obs.trace().emit(
                "exec/job",
                spec=specs[i].label(),
                seconds=snapshot.get("exec/job/seconds"),
                worker=True,
            )
        else:
            results[i] = outcome

    def _complete(self, i, specs, results) -> None:
        """One job finished for good: checkpoint it, account it, tick.

        The journal append happens *here* — the moment the result exists —
        not after the batch, so a kill mid-sweep loses at most the job in
        flight.
        """
        if self.journal is not None:
            self.journal.record(specs[i], results[i])
        if self.chaos is not None:
            self.chaos.note_outcome(specs[i].digest())
        self._tick()

    def _tick(self, cached: bool = False) -> None:
        if self.progress:
            self.progress.tick(cached=cached)


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Terminate a pool whose workers may be hung or dead.

    ``shutdown(wait=True)`` would block forever on a hung worker, so the
    worker processes are terminated first; the subsequent shutdown then
    only reaps corpses.  Uses the executor's private process table — there
    is no public kill switch — guarded so a stdlib change degrades to a
    plain non-waiting shutdown.
    """
    for proc in list(getattr(pool, "_processes", {}).values()):
        try:
            proc.terminate()
        except Exception:
            pass
    pool.shutdown(wait=False, cancel_futures=True)
