"""Blocking HTTP client for the sweep-result service.

:class:`ServeClient` speaks the :mod:`repro.serve.protocol` documents over
a keep-alive ``http.client`` connection and *verifies everything it
receives*: every result's payload checksum must match, the echoed spec
must hash to its digest, and the digest must be the one requested —
:class:`~repro.serve.protocol.ProtocolError` otherwise.  A verified
response is therefore bit-identical to what ``ResultCache.get`` would
have returned on the server's own disk.

:class:`ServeBackend` is the :class:`repro.exec.SchedulerBackend` that
sends a scheduler's pending cells to a server, so the whole experiment
layer executes against it with one line::

    repro.exec.configure(backend=ServeBackend(url))

(that is what ``examples/run_experiments.py --server-url`` and
``--dist-workers`` do).  Whether the server computes a cell on its own
pool or leases it to a :mod:`repro.dist` worker is the server's choice.
"""

from __future__ import annotations

import http.client
import json
import socket
import time
import urllib.parse
from typing import Iterator, Sequence

import repro.obs as obs
from repro.common.rng import deterministic_backoff
from repro.exec.jobs import JobSpec
from repro.exec.scheduler import SchedulerBackend
from repro.pipeline import SimStats
from repro.serve import protocol

#: HTTP statuses the client treats as *transient* and retries with
#: backoff.  Deliberately excludes 500 — the server answers 500 for a job
#: that exhausted its compute retry budget, which re-requesting would just
#: recompute and fail again.
TRANSIENT_STATUSES = frozenset({502, 503, 504})


class ServerError(RuntimeError):
    """The server answered with an error document."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServeClient:
    """One keep-alive connection to a sweep server.

    Not thread-safe (one in-flight request per instance, like the
    underlying ``http.client`` connection); spin up one client per
    thread.  ``timeout`` bounds each socket operation (``None``: no
    bound) — sweeps that compute cold cells server-side can legitimately
    take a while, so the default is generous.

    Transient failures — connect/socket errors and the
    :data:`TRANSIENT_STATUSES` responses — are retried up to ``retries``
    times with exponential backoff (``backoff * 2**k``, capped at
    ``backoff_cap``) under deterministic jitter, counted as
    ``serve/client/retries``.  A *stale keep-alive* (the server closed the
    idle connection between requests) keeps its historical fast path: the
    first reconnect is immediate and uncounted, because retrying that is
    part of speaking HTTP/1.1, not error handling.
    """

    def __init__(self, base_url: str, timeout: float | None = 600.0,
                 retries: int = 3, backoff: float = 0.25,
                 backoff_cap: float = 5.0) -> None:
        # "localhost:8123" would parse as scheme "localhost"; a schemeless
        # address is common enough on the CLI to normalise rather than
        # reject.
        if "://" not in base_url:
            base_url = "http://" + base_url
        parsed = urllib.parse.urlsplit(base_url)
        if parsed.scheme != "http":
            raise ValueError(f"only http:// served, got {base_url!r}")
        netloc = parsed.netloc  # "host:port"
        host, _, port = netloc.partition(":")
        if not host:
            raise ValueError(f"no host in server url {base_url!r}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.host = host
        self.port = int(port) if port else 80
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.backoff_cap = backoff_cap
        self.retried = 0        # backed-off retries over this client's life
        self._conn: http.client.HTTPConnection | None = None

    # -- plumbing ----------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _backoff_sleep(self, path: str, attempt: int) -> None:
        """Sleep one backed-off retry interval and account for it."""
        self.retried += 1
        obs.counter("serve/client/retries").inc()
        time.sleep(deterministic_backoff(
            f"{self.host}:{self.port}{path}", attempt,
            self.backoff, self.backoff_cap,
        ))

    def _roundtrip(self, method: str, path: str,
                   payload: bytes | None = None,
                   headers: dict | None = None) -> tuple[int, bytes]:
        """One request/response exchange with the full retry policy.

        Returns ``(status, raw body)``.  Socket-level failures get one
        immediate, uncounted reconnect (a keep-alive connection the server
        has since closed surfaces as a broken pipe / bad status on the
        *next* request — retrying that is part of speaking HTTP/1.1); any
        further failure, and any :data:`TRANSIENT_STATUSES` answer, is
        retried up to ``self.retries`` times behind
        :func:`deterministic_backoff` sleeps.
        """
        attempt = 0              # backed-off retries used so far
        reconnected = False      # the free keep-alive reconnect spent?
        while True:
            conn = self._connection()
            try:
                conn.request(method, path, body=payload,
                             headers=headers or {})
                response = conn.getresponse()
                raw = response.read()
            except (http.client.HTTPException, ConnectionError,
                    BrokenPipeError, socket.timeout, OSError):
                self.close()
                if not reconnected:
                    reconnected = True
                    continue
                attempt += 1
                if attempt > self.retries:
                    raise
                self._backoff_sleep(path, attempt)
                continue
            if response.status in TRANSIENT_STATUSES and attempt < self.retries:
                attempt += 1
                self._backoff_sleep(path, attempt)
                continue
            return response.status, raw

    def _request(self, method: str, path: str,
                 body: dict | None = None) -> dict:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        status, raw = self._roundtrip(method, path, payload, headers)
        try:
            doc = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise protocol.ProtocolError(
                f"non-JSON response (HTTP {status})", status=502
            ) from exc
        if status != 200:
            raise ServerError(status, protocol.error_message(doc))
        return doc

    # -- the service API ---------------------------------------------------

    def submit_with_source(self, spec: JobSpec) -> tuple[SimStats, str]:
        """Submit one cell; blocks until its verified result arrives.

        Also reports where it came from: cache, inflight or computed."""
        doc = self._request("POST", protocol.ROUTE_SUBMIT,
                            protocol.encode_submit(spec))
        _, stats, source = protocol.decode_result(
            doc, expect_digest=spec.digest()
        )
        return stats, source

    def sweep(self, specs: Sequence[JobSpec]) -> list[SimStats]:
        """Submit a batch; verified results come back in request order."""
        return [stats for stats, _ in self.sweep_with_sources(specs)]

    def sweep_with_sources(
        self, specs: Sequence[JobSpec]
    ) -> list[tuple[SimStats, str]]:
        specs = list(specs)
        doc = self._request("POST", protocol.ROUTE_SWEEP,
                            protocol.encode_sweep(specs))
        decoded = protocol.decode_sweep_results(
            doc, expect=[s.digest() for s in specs]
        )
        return [(stats, source) for _, stats, source in decoded]

    def result(self, digest: str) -> SimStats | None:
        """Cache-only lookup by digest; ``None`` when not cached."""
        protocol.validate_digest(digest)
        try:
            doc = self._request("GET", protocol.ROUTE_RESULT + digest)
        except ServerError as exc:
            if exc.status == 404:
                return None
            raise
        _, stats, _ = protocol.decode_result(doc, expect_digest=digest)
        return stats

    def health(self) -> dict:
        return self._request("GET", protocol.ROUTE_HEALTH)

    def metrics(self) -> dict:
        return self._request("GET", protocol.ROUTE_METRICS)

    def metrics_prometheus(self) -> str:
        """The metrics document as a Prometheus text exposition (v0.0.4).

        Returns the decoded body verbatim; the same retry rules as
        :meth:`_request` apply (JSON decoding does not — the body is
        text, and a non-200 answer is still a JSON error document).
        """
        path = (f"{protocol.ROUTE_METRICS}"
                f"?format={protocol.METRICS_FORMAT_PROMETHEUS}")
        status, raw = self._roundtrip("GET", path)
        if status != 200:
            try:
                doc = json.loads(raw)
            except (json.JSONDecodeError, UnicodeDecodeError):
                doc = {}
            raise ServerError(status, protocol.error_message(doc))
        return raw.decode("utf-8")

    def progress_events(self, limit: int | None = None,
                        timeout: float | None = None) -> Iterator[dict]:
        """Subscribe to the SSE progress stream; yields event dicts.

        Uses a dedicated connection (the stream occupies it until the
        generator is closed or ``limit`` events have arrived).  Keep-alive
        comments are filtered out.
        """
        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=timeout if timeout is not None else self.timeout,
        )
        try:
            conn.request("GET", protocol.ROUTE_PROGRESS)
            response = conn.getresponse()
            if response.status != 200:
                raise ServerError(response.status, "progress stream refused")
            seen = 0
            while limit is None or seen < limit:
                line = response.fp.readline()
                if not line:
                    break
                line = line.strip()
                if not line.startswith(b"data: "):
                    continue  # heartbeat comment or blank separator
                yield json.loads(line[len(b"data: "):])
                seen += 1
        finally:
            conn.close()


class ServeBackend(SchedulerBackend):
    """Execute a scheduler's pending cells on a sweep server.

    The cells go over ``/v1/sweep`` in chunks of at most
    :data:`~repro.serve.protocol.MAX_SWEEP_SPECS`, and each verified
    result fills its slot in request order.  ``writes_cache`` is set: the
    server (or the worker it leased a cell to) stores what it computes.
    The client has no socket timeout, since a chunk's answer takes as
    long as its slowest cell; the server bounds each job itself.
    """

    name = "serve"
    writes_cache = True

    def __init__(self, url: str) -> None:
        self.client = ServeClient(url, timeout=None)

    def execute(self, sched, specs, pending, results) -> None:
        for lo in range(0, len(pending), protocol.MAX_SWEEP_SPECS):
            chunk = pending[lo: lo + protocol.MAX_SWEEP_SPECS]
            outcomes = self.client.sweep([specs[i] for i in chunk])
            for i, stats in zip(chunk, outcomes):
                results[i] = stats
                sched._complete(i, specs, results)

    def close(self) -> None:
        self.client.close()
