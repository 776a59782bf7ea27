"""The asyncio sweep-result server.

One :class:`SweepServer` turns the content-addressed result cache plus the
:class:`repro.exec.Scheduler` pool into a multi-tenant service:

* **cache hits are served from the event loop** — a submit whose digest is
  already on disk answers with one sharded-file read and never touches the
  pool;
* **misses are computed, once** — concurrent submissions of the same
  digest deduplicate onto a single in-flight computation
  (``serve/dedup``), and distinct digests queued while the pool is busy
  are batched into one scheduler run;
* **a miss computes where the workers are** — while a :mod:`repro.dist`
  worker polls the ``/v1/dist/*`` routes (``LeaseQueue.live_workers``),
  misses go to the :class:`~repro.serve.leases.LeaseQueue` and are
  leased to it; otherwise they run on the server's own pool.  A leased
  cell the workers cannot finish (retry budget spent, or every worker
  gone for the queue's worker TTL) is moved back to the pool, with a
  ``[dist]`` warning and a ``dist/fallback_jobs`` count;
* **progress streams as server-sent events** — the scheduler's
  :class:`~repro.exec.ProgressMeter` is subclassed to broadcast its
  ``start``/``tick``/``finish`` transitions to every ``/v1/progress``
  subscriber;
* **failure is accounted, not hidden** — a worker crash mid-request rides
  the scheduler's retry machinery; only a job that exhausts its retry
  budget surfaces as a 5xx (``serve/errors/5xx``), and a corrupt cache
  blob is quarantined and recomputed exactly as in direct execution;
  a lease whose heartbeats stop is expired by a background reaper and
  the cell re-leased.

The HTTP layer is a deliberately small hand-rolled HTTP/1.1 server on
``asyncio.start_server`` (stdlib only — no web framework in the
container): request line + headers + content-length body, keep-alive
connections, JSON responses; input it will not read past is answered
once and the connection closed.  Simulation itself runs in a dedicated
*runner thread* so the event loop stays free to accept thousands of
connections while the process pool grinds; results cross back via
``loop.call_soon_threadsafe``.

Routes (see :mod:`repro.serve.protocol` for the document shapes):

========  ===================  ==========================================
method    path                 behaviour
========  ===================  ==========================================
POST      ``/v1/submit``       one spec → result (cache / dedup / compute)
POST      ``/v1/sweep``        many specs → results, in request order
GET       ``/v1/result/<d>``   cache-only lookup, 404 on a miss
GET       ``/v1/progress``     SSE stream of sweep progress events
GET       ``/v1/healthz``      liveness + build identity
GET       ``/v1/metrics``      server counters + obs registry snapshot
                               (``?format=prometheus`` for text exposition)
POST      ``/v1/dist/lease``   a worker takes a cell (``drain``: stopping)
POST      ``/v1/dist/heartbeat``, ``complete``, ``fail``: a worker's lease
GET       ``/v1/dist/status``  queue, leases and per-worker counters
========  ===================  ==========================================
"""

from __future__ import annotations

import asyncio
import json
import queue
import sys
import threading
import time
from urllib.parse import parse_qs

import repro.obs as obs
from repro.exec.cache import CODE_VERSION, ResultCache
from repro.exec.jobs import JobSpec, stats_from_dict
from repro.exec.progress import ProgressMeter
from repro.exec.scheduler import Scheduler
from repro.serve import protocol
from repro.serve.leases import LeaseQueue

#: HTTP reason phrases for the statuses this server emits.
_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error", 502: "Bad Gateway",
}

#: Most header lines one request may carry; more are answered 431.
MAX_HEADER_LINES = 100

#: Seconds a keep-alive connection may idle, far above any pause in real
#: traffic (``ServeClient`` reconnects to a closed one for free).
IDLE_TIMEOUT_SECONDS = 60.0

#: Seconds a request's head and body may take once its first byte is in.
READ_TIMEOUT_SECONDS = 30.0

#: Most seconds :meth:`SweepServer.stop` waits for polling workers to
#: hear the drain signal.
DRAIN_GRACE_SECONDS = 1.0

#: Seconds between SSE keep-alive comments when no progress flows.
SSE_HEARTBEAT_SECONDS = 10.0

#: Most specs one scheduler batch absorbs from the miss queue.
BATCH_LIMIT = 512


class ServeProgress(ProgressMeter):
    """A :class:`ProgressMeter` that also broadcasts to SSE subscribers.

    The meter lives in the runner thread (the scheduler drives it); each
    transition is forwarded thread-safely to every subscribed asyncio
    queue.  Rendering is disabled — the server's progress surface *is*
    the event stream.
    """

    def __init__(self, broadcast) -> None:
        super().__init__(enabled=False)
        self._broadcast = broadcast

    def start(self, total: int, label: str = "") -> None:
        super().start(total, label)
        self._broadcast({"event": "start", "label": label, "total": total})

    def tick(self, cached: bool = False) -> None:
        super().tick(cached=cached)
        self._broadcast({
            "event": "tick", "label": self.label, "done": self.done,
            "total": self.total, "cached": self.cached,
            "throughput": round(self.throughput, 3),
        })

    def finish(self) -> float:
        dt = super().finish()
        self._broadcast({
            "event": "finish", "label": self.label, "total": self.total,
            "cached": self.cached, "seconds": round(dt, 6),
            "jobs_done": self.jobs_done,
        })
        return dt


class SweepServer:
    """The sweep-result service over one cache root, one local pool and
    the lease queue (``leases``) its misses go to while workers poll."""

    def __init__(
        self,
        cache: ResultCache | None = None,
        jobs: int = 1,
        retries: int = 1,
        timeout: float | None = None,
        chaos=None,
        host: str = "127.0.0.1",
        port: int = 0,
        job_fn=None,
        leases: LeaseQueue | None = None,
    ) -> None:
        self.cache = cache if cache is not None else ResultCache(chaos=chaos)
        self.leases = leases if leases is not None else LeaseQueue()
        self.progress = ServeProgress(self._broadcast)
        kwargs = {} if job_fn is None else {"job_fn": job_fn}
        # No cache on the scheduler: every cell it gets is a miss
        # ``_obtain`` has just read, so the runner stores results itself.
        self.scheduler = Scheduler(
            jobs=jobs, timeout=timeout, retries=retries,
            progress=self.progress, chaos=chaos, **kwargs,
        )
        self.host = host
        self.port = port
        # Request accounting (plain ints so they exist with obs disabled;
        # mirrored into the obs registry when it is enabled).
        self.requests = 0
        self.hits = 0
        self.misses = 0
        self.dedup = 0
        self.errors_4xx = 0
        self.errors_5xx = 0
        self._started = 0.0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._inflight: dict[str, asyncio.Future] = {}
        self._queue: queue.SimpleQueue = queue.SimpleQueue()
        self._runner: threading.Thread | None = None
        self._subscribers: set[asyncio.Queue] = set()
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        # Connections whose last lease poll was not answered ``drain``.
        self._pollers: set[asyncio.Task] = set()
        # Connections between reading a request and answering it.
        self._busy: set[asyncio.Task] = set()
        self._reaper: asyncio.Task | None = None
        self._closing = False     # also the drain signal for lease polls
        self._dist_routes = {
            protocol.ROUTE_DIST_LEASE: ("POST", self._dist_lease),
            protocol.ROUTE_DIST_HEARTBEAT: ("POST", self._dist_heartbeat),
            protocol.ROUTE_DIST_COMPLETE: ("POST", self._dist_complete),
            protocol.ROUTE_DIST_FAIL: ("POST", self._dist_fail),
            protocol.ROUTE_DIST_STATUS: ("GET", self._dist_status),
        }

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind, start the runner thread, begin accepting connections."""
        self._loop = asyncio.get_running_loop()
        self._started = time.monotonic()
        # Touch every serve/* metric, and the trace counters a serial
        # miss bumps, from this thread once, so the runner thread never
        # races the registry on first creation.
        for name in ("serve/requests", "serve/hits", "serve/misses",
                     "serve/dedup", "serve/errors/4xx", "serve/errors/5xx",
                     "workloads/trace/generated", "workloads/trace/sliced"):
            obs.counter(name)
        obs.histogram("serve/request_ms")
        self._runner = threading.Thread(
            target=self._runner_main, name="serve-runner", daemon=True
        )
        self._runner.start()
        self._server = await asyncio.start_server(
            self._handle_conn, self.host, self.port, backlog=2048
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._reaper = self._loop.create_task(self._reap_forever())

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def stop(self) -> None:
        """Drain workers, stop accepting, drain the runner, answer the
        requests it resolved, close live connections.

        Lease polls answer ``drain`` from here on, and cells still queued
        or leased are computed on the pool.  Handlers whose cells the
        runner's last batches resolved get up to
        :data:`DRAIN_GRACE_SECONDS` to write their answers.  Open
        connections are then closed at the transport, which feeds EOF to
        their handlers — they exit their read loop normally instead of
        being cancelled (cancellation of streams handlers is noisy on
        3.11 and loses in-flight responses).
        """
        self._closing = True
        deadline = time.monotonic() + DRAIN_GRACE_SECONDS
        while self._pollers and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        if self._reaper is not None:
            self._reaper.cancel()
            await asyncio.gather(self._reaper, return_exceptions=True)
        # No worker takes a lease from here on: the pool finishes the rest.
        for spec in self.leases.cancel():
            self._to_pool(spec)
        if self._server is not None:
            self._server.close()
        self._queue.put(None)
        for sub in list(self._subscribers):
            sub.put_nowait(None)
        if self._runner is not None:
            # run_in_executor keeps a potentially long scheduler batch off
            # the event loop while it finishes.
            await self._loop.run_in_executor(None, self._runner.join)
        if self._busy:
            # Each busy handler leaves its read loop once it has answered.
            await asyncio.wait(list(self._busy), timeout=DRAIN_GRACE_SECONDS)
        for writer in list(self._connections.values()):
            try:
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
        if self._connections:
            await asyncio.gather(*list(self._connections),
                                 return_exceptions=True)
        if self._server is not None:
            await self._server.wait_closed()

    async def _reap_forever(self) -> None:
        """Expire silent leases even when no dist request arrives."""
        period = max(0.05, self.leases.lease_seconds / 4.0)
        while True:
            await asyncio.sleep(period)
            self.leases.reap()
            self._settle_leases()

    def _settle_leases(self) -> None:
        """Move leased cells the workers will not finish to the pool.

        A job that spent its lease retry budget is recomputed here; when
        no worker has been seen for the queue's worker TTL, every job
        still queued or leased is cancelled and recomputed here too.
        """
        for spec, error in self.leases.collect():
            print(f"[dist] job {spec.digest()[:12]}… failed remotely "
                  f"({error}); recomputing locally", file=sys.stderr)
            self._to_pool(spec)
        if self.leases.live_workers() == 0:
            specs = self.leases.cancel()
            if specs:
                print(f"[dist] no live workers for "
                      f"{self.leases.worker_ttl:.1f}s with {len(specs)} "
                      f"job(s) outstanding — degrading to the server's "
                      f"pool", file=sys.stderr)
                self.leases.count("degraded")
            for spec in specs:
                self._to_pool(spec)

    def _to_pool(self, spec: JobSpec) -> None:
        self.leases.count("fallback_jobs")
        self._queue.put((spec.digest(), spec))

    # -- the runner thread: misses become scheduler batches ----------------

    def _runner_main(self) -> None:
        while True:
            item = self._queue.get()
            if item is None:
                return
            batch = [item]
            stop = False
            while len(batch) < BATCH_LIMIT:
                try:
                    extra = self._queue.get_nowait()
                except queue.Empty:
                    break
                if extra is None:
                    stop = True
                    break
                batch.append(extra)
            self._run_batch(batch)
            if stop:
                return

    def _run_batch(self, batch: list[tuple[str, JobSpec]]) -> None:
        specs = [spec for _, spec in batch]
        try:
            results = self.scheduler.run(specs, label="serve")
        except Exception:
            # One bad cell poisons a whole batch run; isolate it by
            # retrying each cell alone so only the truly failing digests
            # surface as errors.
            for digest, spec in batch:
                try:
                    stats = self.scheduler.run([spec], label="serve")[0]
                except Exception as exc:
                    self._resolve(digest, None, exc)
                else:
                    self._store(digest, spec, stats)
        else:
            for (digest, spec), stats in zip(batch, results):
                self._store(digest, spec, stats)

    def _store(self, digest: str, spec: JobSpec, stats) -> None:
        try:
            self.cache.put(spec, stats)
        except Exception as exc:    # e.g. a full disk: a 5xx, runner lives
            self._resolve(digest, None, exc)
        else:
            self._resolve(digest, stats, None)

    def _resolve(self, digest: str, stats, exc) -> None:
        try:
            self._loop.call_soon_threadsafe(self._finish, digest, stats, exc)
        except RuntimeError:  # pragma: no cover - loop torn down mid-batch
            pass

    def _finish(self, digest: str, stats, exc) -> None:
        fut = self._inflight.pop(digest, None)
        if fut is None or fut.done():  # pragma: no cover - double resolve
            return
        if exc is not None:
            fut.set_exception(exc)
        else:
            fut.set_result(stats)

    # -- obtaining results (the dedup core) --------------------------------

    async def _obtain(self, spec: JobSpec) -> tuple[object, str]:
        """One cell's stats and their source: cache, inflight, or computed.

        ``inflight`` is the dedup path — a concurrent request already
        scheduled this digest, so this request just awaits the same
        future, whether the pool or a leased worker resolves it.  The
        future is shielded: one impatient client disconnecting must not
        cancel a computation other clients (and the cache) are waiting
        on.
        """
        digest = spec.digest()
        fut = self._inflight.get(digest)
        if fut is not None:
            self.dedup += 1
            obs.counter("serve/dedup").inc()
            return await asyncio.shield(fut), "inflight"
        stats = self.cache.get(spec)
        if stats is not None:
            self.hits += 1
            obs.counter("serve/hits").inc()
            return stats, "cache"
        self.misses += 1
        obs.counter("serve/misses").inc()
        fut = self._loop.create_future()
        self._inflight[digest] = fut
        if self.leases.live_workers() > 0:
            self.leases.submit([spec])
        else:
            self._queue.put((digest, spec))
        return await asyncio.shield(fut), "computed"

    # -- SSE broadcast ------------------------------------------------------

    def _broadcast(self, event: dict) -> None:
        """Fan one progress event out to every subscriber, thread-safely.

        Called from the runner thread (via the progress meter); the
        actual queue puts happen on the event loop.
        """
        if not self._subscribers or self._loop is None:
            return
        try:
            self._loop.call_soon_threadsafe(self._fanout, event)
        except RuntimeError:  # pragma: no cover - loop torn down
            pass

    def _fanout(self, event: dict) -> None:
        for sub in list(self._subscribers):
            sub.put_nowait(event)

    # -- HTTP plumbing ------------------------------------------------------

    async def _handle_conn(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._connections[task] = writer
        try:
            while not self._closing:
                try:
                    request = await self._read_request(reader)
                except protocol.ProtocolError as exc:
                    request = exc           # answered below, then closed
                if request is None:
                    break
                t0 = time.perf_counter()
                self.requests += 1
                obs.counter("serve/requests").inc()
                if isinstance(request, protocol.ProtocolError):
                    await self._send_error(writer, request.status,
                                           str(request))
                    break
                method, path, headers, body = request
                keep = headers.get("connection", "").lower() != "close"
                self._busy.add(task)
                streamed = await self._dispatch(method, path, body, writer)
                self._busy.discard(task)
                obs.histogram("serve/request_ms").observe(
                    (time.perf_counter() - t0) * 1000.0
                )
                if streamed or not keep:
                    break
        except (ConnectionError, TimeoutError, asyncio.IncompleteReadError):
            pass
        finally:
            self._connections.pop(task, None)
            self._pollers.discard(task)
            self._busy.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        """One HTTP/1.1 request: (method, path, headers, body), or None
        when the input ends.

        A head not to read past (malformed request line, too many or too
        long lines, bad or oversized ``Content-Length``) raises
        :class:`ProtocolError`; an oversized body is never read.  One
        timer bounds the idle wait for the first byte, then the rest.
        """
        async with asyncio.timeout(IDLE_TIMEOUT_SECONDS) as timer:
            first = await reader.read(1)
            if not first:
                return None
            timer.reschedule(asyncio.get_running_loop().time()
                             + READ_TIMEOUT_SECONDS)
            line = await _head_line(reader)
            if line is None:
                return None
            try:
                method, path, _ = (first + line).decode("ascii").split()
            except ValueError:
                raise protocol.ProtocolError("bad request line") from None
            headers: dict[str, str] = {}
            for _ in range(MAX_HEADER_LINES + 1):
                line = await _head_line(reader)
                if line is None:
                    return None
                if line in (b"\r\n", b"\n"):
                    break
                key, _, value = line.decode("latin-1").partition(":")
                headers[key.strip().lower()] = value.strip()
            else:
                raise protocol.ProtocolError(
                    f"more than {MAX_HEADER_LINES} header lines", status=431
                )
            text = headers.get("content-length") or "0"
            if not (text.isascii() and text.isdigit()):
                raise protocol.ProtocolError(f"bad Content-Length {text!r}")
            digits = text.lstrip("0") or "0"   # int() caps str length
            if (len(digits) > len(str(protocol.MAX_BODY_BYTES))
                    or int(digits) > protocol.MAX_BODY_BYTES):
                raise protocol.ProtocolError("request body too large", 413)
            body = await reader.readexactly(int(digits))
        return method, path, headers, body

    async def _dispatch(self, method: str, path: str, body: bytes,
                        writer: asyncio.StreamWriter) -> bool:
        """Route one request; returns True when the response was a stream."""
        path, _, query = path.partition("?")
        try:
            if path == protocol.ROUTE_SUBMIT:
                self._need(method, "POST")
                await self._do_submit(body, writer)
            elif path == protocol.ROUTE_SWEEP:
                self._need(method, "POST")
                await self._do_sweep(body, writer)
            elif path.startswith(protocol.ROUTE_RESULT):
                self._need(method, "GET")
                await self._do_result(path[len(protocol.ROUTE_RESULT):],
                                      writer)
            elif path == protocol.ROUTE_HEALTH:
                self._need(method, "GET")
                await self._send_json(writer, 200, self._health_doc())
            elif path == protocol.ROUTE_METRICS:
                self._need(method, "GET")
                fmt = parse_qs(query).get(
                    "format", [protocol.METRICS_FORMAT_JSON])[-1]
                if fmt == protocol.METRICS_FORMAT_PROMETHEUS:
                    await self._send_json(writer, 200,
                                          self._metrics_prometheus(),
                                          protocol.PROMETHEUS_CONTENT_TYPE)
                elif fmt == protocol.METRICS_FORMAT_JSON:
                    await self._send_json(writer, 200, self._metrics_doc())
                else:
                    raise protocol.ProtocolError(
                        f"unknown metrics format {fmt!r} (use "
                        f"{protocol.METRICS_FORMAT_JSON} or "
                        f"{protocol.METRICS_FORMAT_PROMETHEUS})"
                    )
            elif path == protocol.ROUTE_PROGRESS:
                self._need(method, "GET")
                await self._do_progress(writer)
                return True
            elif path in self._dist_routes:
                expected, handler = self._dist_routes[path]
                self._need(method, expected)
                self.leases.reap()  # lazy expiry: a dist request is a tick
                doc = handler(body)
                self._settle_leases()
                await self._send_json(writer, 200, doc)
            else:
                raise protocol.ProtocolError(f"no such route: {path}",
                                             status=404)
        except protocol.ProtocolError as exc:
            await self._send_error(writer, exc.status, str(exc))
        except Exception as exc:
            # A job that exhausted its retry budget (or any internal
            # failure) is a 5xx with the cause in the body — never a
            # wrong or truncated payload.
            await self._send_error(writer, 500,
                                   f"{type(exc).__name__}: {exc}")
        return False

    def _need(self, method: str, expected: str) -> None:
        if method != expected:
            raise protocol.ProtocolError(
                f"method {method} not allowed (use {expected})", status=405
            )

    async def _send_error(self, writer: asyncio.StreamWriter, status: int,
                          message: str) -> None:
        """Count one error response and write it."""
        if status >= 500:
            self.errors_5xx += 1
            obs.counter("serve/errors/5xx").inc()
        else:
            self.errors_4xx += 1
            obs.counter("serve/errors/4xx").inc()
        await self._send_json(writer, status,
                              protocol.encode_error(status, message))

    # -- route bodies -------------------------------------------------------

    async def _do_submit(self, body: bytes,
                         writer: asyncio.StreamWriter) -> None:
        spec = protocol.decode_submit(protocol.parse_json(body))
        stats, source = await self._obtain(spec)
        await self._send_json(writer, 200,
                              protocol.encode_result(spec, stats, source))

    async def _do_sweep(self, body: bytes,
                        writer: asyncio.StreamWriter) -> None:
        specs = protocol.decode_sweep(protocol.parse_json(body))
        outcomes = await asyncio.gather(
            *(self._obtain(spec) for spec in specs)
        )
        docs = [protocol.encode_result(spec, stats, source)
                for spec, (stats, source) in zip(specs, outcomes)]
        await self._send_json(writer, 200, protocol.encode_sweep_results(docs))

    async def _do_result(self, digest: str,
                         writer: asyncio.StreamWriter) -> None:
        protocol.validate_digest(digest)
        blob = self.cache.get_blob(digest)
        if blob is None:
            raise protocol.ProtocolError(
                f"no cached result for {digest[:12]}…", status=404
            )
        self.hits += 1
        obs.counter("serve/hits").inc()
        spec = JobSpec.from_dict(blob["spec"])
        await self._send_json(
            writer, 200,
            protocol.encode_result(spec, stats_from_dict(blob["stats"]),
                                   "cache"),
        )

    async def _do_progress(self, writer: asyncio.StreamWriter) -> None:
        sub: asyncio.Queue = asyncio.Queue()
        self._subscribers.add(sub)
        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n\r\n"
            )
            snapshot = {
                "event": "snapshot", "jobs_done": self.progress.jobs_done,
                "jobs_cached": self.progress.jobs_cached,
                "inflight": len(self._inflight),
            }
            writer.write(_sse(snapshot))
            await writer.drain()
            while not self._closing:
                try:
                    event = await asyncio.wait_for(
                        sub.get(), timeout=SSE_HEARTBEAT_SECONDS
                    )
                except asyncio.TimeoutError:
                    writer.write(b": keepalive\r\n\r\n")
                    await writer.drain()
                    continue
                if event is None:
                    break
                writer.write(_sse(event))
                await writer.drain()
        finally:
            self._subscribers.discard(sub)

    def _health_doc(self) -> dict:
        return {
            "v": protocol.PROTOCOL_VERSION,
            "ok": True,
            "code_version": CODE_VERSION,
            "inflight": len(self._inflight),
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "jobs": self.scheduler.jobs,
        }

    def _metrics_doc(self) -> dict:
        return {
            "v": protocol.PROTOCOL_VERSION,
            "serve": {
                "requests": self.requests,
                "hits": self.hits,
                "misses": self.misses,
                "dedup": self.dedup,
                "errors_4xx": self.errors_4xx,
                "errors_5xx": self.errors_5xx,
                "inflight": len(self._inflight),
                "sse_subscribers": len(self._subscribers),
                "cache": {
                    "hits": self.cache.hits, "misses": self.cache.misses,
                    "stores": self.cache.stores,
                    "corrupt": self.cache.corrupt,
                },
            },
            "metrics": obs.registry().snapshot(),
        }

    def _metrics_prometheus(self) -> str:
        """Prometheus text exposition (v0.0.4) of the metrics document.

        The server's own plain-int counters are authoritative (they exist
        and count even with obs disabled); the obs registry is appended
        with those raw names excluded, so no metric family is ever
        emitted twice while registry-only metrics (request-latency
        histogram, timeline/attribution counters, ...) still show up.
        """
        from repro.obs.registry import MetricsRegistry

        own = MetricsRegistry()
        own.counter("serve/requests").inc(self.requests)
        own.counter("serve/hits").inc(self.hits)
        own.counter("serve/misses").inc(self.misses)
        own.counter("serve/dedup").inc(self.dedup)
        own.counter("serve/errors/4xx").inc(self.errors_4xx)
        own.counter("serve/errors/5xx").inc(self.errors_5xx)
        own.counter("serve/cache/hits").inc(self.cache.hits)
        own.counter("serve/cache/misses").inc(self.cache.misses)
        own.counter("serve/cache/stores").inc(self.cache.stores)
        own.counter("serve/cache/corrupt").inc(self.cache.corrupt)
        own.gauge("serve/inflight").set(len(self._inflight))
        own.gauge("serve/sse_subscribers").set(len(self._subscribers))
        own.gauge("serve/uptime_seconds").set(
            round(time.monotonic() - self._started, 3)
        )
        return own.to_prometheus() + obs.registry().to_prometheus(
            exclude=frozenset(own)
        )

    # -- the lease routes (each returns its 200 document) -------------------

    def _dist_lease(self, body: bytes) -> dict:
        worker = protocol.decode_worker_doc(protocol.parse_json(body),
                                            "lease")
        task = asyncio.current_task()
        if self._closing:
            self._pollers.discard(task)
            return protocol.encode_lease_idle(drain=True)
        self._pollers.add(task)
        grant = self.leases.lease(worker)
        return grant if grant is not None else protocol.encode_lease_idle()

    def _dist_heartbeat(self, body: bytes) -> dict:
        worker, digest = protocol.decode_heartbeat(protocol.parse_json(body))
        return {"v": protocol.PROTOCOL_VERSION,
                "held": self.leases.heartbeat(worker, digest)}

    def _dist_complete(self, body: bytes) -> dict:
        worker, spec, stats, metrics = protocol.decode_complete(
            protocol.parse_json(body)
        )
        outcome = self.leases.complete(worker, spec.digest())
        if outcome == "ok":
            self._finish(spec.digest(), stats, None)
        if metrics and obs.enabled():
            obs.registry().merge(metrics)
        return {"v": protocol.PROTOCOL_VERSION, "outcome": outcome}

    def _dist_fail(self, body: bytes) -> dict:
        worker, digest, error = protocol.decode_fail(protocol.parse_json(body))
        self.leases.fail(worker, digest, error)
        return {"v": protocol.PROTOCOL_VERSION, "outcome": "ok"}

    def _dist_status(self, body: bytes) -> dict:
        return self.leases.status()

    async def _send_json(self, writer: asyncio.StreamWriter, status: int,
                         payload: dict | str,
                         content_type: str = "application/json") -> None:
        """Write one response: a dict payload as JSON, a str as is."""
        if not isinstance(payload, str):
            payload = json.dumps(payload)
        body = payload.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode("ascii")
        writer.write(head + body)
        await writer.drain()


def _sse(event: dict) -> bytes:
    return b"data: " + json.dumps(event).encode("utf-8") + b"\r\n\r\n"


async def _head_line(reader: asyncio.StreamReader) -> bytes | None:
    """One line of a request head; ``None`` when the input ends inside it."""
    try:
        line = await reader.readline()
    except ValueError:       # longer than the stream's 64 KiB line limit
        raise protocol.ProtocolError("request head line too long",
                                     status=431) from None
    return line if line.endswith(b"\n") else None


# ---------------------------------------------------------------------------
# Running a server without owning the event loop.
# ---------------------------------------------------------------------------

class ServerThread:
    """A :class:`SweepServer` on a background thread (tests, examples).

    Usage::

        with ServerThread(cache=ResultCache(root=tmp), jobs=2) as srv:
            client = ServeClient(srv.url)
            ...

    The context manager guarantees the event loop is up and the port is
    bound on entry, and that the loop, runner thread and connections are
    torn down on exit.
    """

    def __init__(self, **kwargs) -> None:
        self.server = SweepServer(**kwargs)
        self._ready = threading.Event()
        self._stop: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread = threading.Thread(
            target=self._main, name="serve-loop", daemon=True
        )
        self._error: BaseException | None = None

    @property
    def url(self) -> str:
        return self.server.url

    def _main(self) -> None:
        try:
            asyncio.run(self._amain())
        except BaseException as exc:  # pragma: no cover - startup failure
            self._error = exc
            self._ready.set()

    async def _amain(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        await self.server.start()
        self._ready.set()
        await self._stop.wait()
        await self.server.stop()

    def start(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._error is not None:
            raise RuntimeError("server failed to start") from self._error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        self._thread.join(timeout=30)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()
