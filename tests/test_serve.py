"""Tests for repro.serve: protocol, server+client, chaos, golden identity.

The integration tests run a real :class:`SweepServer` on a background
thread (``ServerThread``) with a cheap fake ``job_fn`` so the HTTP
plumbing — dedup, ordering, verification, error accounting — is
exercised without paying for simulations.  Bit-identity of the *real*
compute path over HTTP is pinned by ``TestGoldenOverHTTP``, which
replays the committed golden-stats configurations through a server and
compares byte-for-byte against ``tests/data/golden_stats.json``.
"""

import contextlib
import dataclasses
import http.client
import http.server
import json
import logging
import re
import socket
import threading
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro.exec
import repro.obs as obs
from repro.dist import DistClient
from repro.eval import experiments
from repro.eval.runner import RunSpec
from repro.exec import (
    ResultCache,
    baseline_job,
    bebop_job,
    instr_vp_job,
    stats_to_dict,
)
from repro.pipeline import SimStats
from repro.serve import (
    ProtocolError,
    ServeBackend,
    ServeClient,
    ServerError,
    ServerThread,
)
from repro.serve import protocol
from repro.serve import server as server_module

TINY = RunSpec(uops=4_000, warmup=1_000, workloads=("swim", "gobmk"))


@pytest.fixture(autouse=True)
def _reset_default_scheduler():
    """ServeBackend tests configure the default; leave it serial."""
    yield
    repro.exec.reset()


def _fake_job(spec):
    """Cheap stand-in cell: stats derived from the spec, no simulation."""
    return SimStats(workload=spec.workload, cycles=spec.uops,
                    insts=2 * spec.uops)


def _slow_fake_job(spec):
    time.sleep(0.4)
    return _fake_job(spec)


def _raising_job(spec):
    raise RuntimeError(f"boom: {spec.workload}")


# ---------------------------------------------------------------------------
# Protocol documents.
# ---------------------------------------------------------------------------

class TestProtocol:
    def test_digest_validation(self):
        good = baseline_job("swim", 2000, 500).digest()
        assert protocol.is_digest(good)
        for bad in ("", "xyz", good[:-1], good + "0", good.upper(),
                    None, 42, "../" + good[3:]):
            assert not protocol.is_digest(bad)
            with pytest.raises(ProtocolError):
                protocol.validate_digest(bad)

    def test_submit_roundtrip(self):
        spec = bebop_job("swim", uops=2000, warmup=500)
        doc = protocol.encode_submit(spec)
        assert doc["v"] == protocol.PROTOCOL_VERSION
        again = protocol.decode_submit(json.loads(json.dumps(doc)))
        assert again == spec
        assert again.digest() == spec.digest()

    def test_version_mismatch_rejected(self):
        doc = protocol.encode_submit(baseline_job("swim", 2000, 500))
        doc["v"] = protocol.PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError, match="version"):
            protocol.decode_submit(doc)

    def test_malformed_spec_rejected(self):
        with pytest.raises(ProtocolError, match="spec"):
            protocol.decode_submit({"v": protocol.PROTOCOL_VERSION,
                                    "spec": {"workload": "swim"}})

    def test_sweep_limits(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            protocol.decode_sweep({"v": protocol.PROTOCOL_VERSION,
                                   "specs": []})
        too_many = [baseline_job("swim", 2000, 500).as_dict()] * (
            protocol.MAX_SWEEP_SPECS + 1)
        with pytest.raises(ProtocolError, match="exceeds"):
            protocol.decode_sweep({"v": protocol.PROTOCOL_VERSION,
                                   "specs": too_many})

    def test_result_roundtrip_and_verification(self):
        spec = baseline_job("swim", 2000, 500)
        stats = _fake_job(spec)
        doc = protocol.encode_result(spec, stats, "cache")
        spec2, stats2, source = protocol.decode_result(
            json.loads(json.dumps(doc)), expect_digest=spec.digest())
        assert (spec2, source) == (spec, "cache")
        assert stats_to_dict(stats2) == stats_to_dict(stats)

    def test_tampered_stats_fail_checksum(self):
        spec = baseline_job("swim", 2000, 500)
        doc = protocol.encode_result(spec, _fake_job(spec), "cache")
        doc["stats"]["cycles"] += 1
        with pytest.raises(ProtocolError, match="checksum"):
            protocol.decode_result(doc)

    def test_wrong_digest_rejected(self):
        spec = baseline_job("swim", 2000, 500)
        other = baseline_job("gobmk", 2000, 500)
        doc = protocol.encode_result(spec, _fake_job(spec), "computed")
        with pytest.raises(ProtocolError, match="digest"):
            protocol.decode_result(doc, expect_digest=other.digest())

    def test_unknown_source_rejected(self):
        spec = baseline_job("swim", 2000, 500)
        doc = protocol.encode_result(spec, _fake_job(spec), "cache")
        doc["source"] = "guessed"
        with pytest.raises(ProtocolError, match="source"):
            protocol.decode_result(doc)

    def test_sweep_results_length_must_match(self):
        spec = baseline_job("swim", 2000, 500)
        doc = protocol.encode_sweep_results(
            [protocol.encode_result(spec, _fake_job(spec), "cache")])
        with pytest.raises(ProtocolError, match="expected 2"):
            protocol.decode_sweep_results(
                doc, expect=[spec.digest(), spec.digest()])

    def test_parse_json_guards(self):
        with pytest.raises(ProtocolError, match="JSON"):
            protocol.parse_json(b"{ nope")
        with pytest.raises(ProtocolError, match="object"):
            protocol.parse_json(b"[1, 2]")
        big = b" " * (protocol.MAX_BODY_BYTES + 1)
        with pytest.raises(ProtocolError) as err:
            protocol.parse_json(big)
        assert err.value.status == 413


# ---------------------------------------------------------------------------
# Server + client integration (fake jobs — plumbing only).
# ---------------------------------------------------------------------------

@pytest.fixture()
def server(tmp_path):
    srv = ServerThread(cache=ResultCache(root=tmp_path), jobs=1,
                       job_fn=_fake_job).start()
    try:
        yield srv
    finally:
        srv.stop()


class TestServer:
    def test_submit_cold_then_warm(self, server):
        spec = baseline_job("swim", 2000, 500)
        with ServeClient(server.url) as client:
            stats, source = client.submit_with_source(spec)
            assert source == "computed"
            assert stats_to_dict(stats) == stats_to_dict(_fake_job(spec))
            again, source = client.submit_with_source(spec)
            assert source == "cache"
            assert again == stats
        assert server.server.misses == 1
        assert server.server.hits == 1

    def test_sweep_preserves_request_order(self, server):
        specs = [baseline_job(w, 2000 + i, 500)
                 for i, w in enumerate(("swim", "gobmk", "mcf", "gcc"))]
        with ServeClient(server.url) as client:
            out = client.sweep(specs)
        assert [s.workload for s in out] == [s.workload for s in specs]
        assert [s.cycles for s in out] == [s.uops for s in specs]

    def test_result_route(self, server):
        spec = baseline_job("swim", 2000, 500)
        other = baseline_job("gobmk", 4000, 500)
        with ServeClient(server.url) as client:
            assert client.result(spec.digest()) is None   # not cached yet
            computed = client.submit(spec)
            cached = client.result(spec.digest())
            assert cached == computed
            assert client.result(other.digest()) is None
            with pytest.raises(ProtocolError):
                client.result("not-a-digest")

    def test_concurrent_same_digest_deduplicates(self, tmp_path):
        srv = ServerThread(cache=ResultCache(root=tmp_path), jobs=1,
                           job_fn=_slow_fake_job).start()
        try:
            spec = baseline_job("swim", 2000, 500)
            sources = []

            def one():
                with ServeClient(srv.url) as client:
                    sources.append(client.submit_with_source(spec)[1])

            threads = [threading.Thread(target=one) for _ in range(3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert sorted(sources) == ["computed", "inflight", "inflight"]
            assert srv.server.misses == 1
            assert srv.server.dedup == 2
        finally:
            srv.stop()

    def test_health_and_metrics_documents(self, server):
        with ServeClient(server.url) as client:
            health = client.health()
            assert health["ok"] is True
            assert protocol.ROUTE_SUBMIT  # route constants exist
            client.submit(baseline_job("swim", 2000, 500))
            metrics = client.metrics()
        serve = metrics["serve"]
        assert serve["requests"] >= 2
        assert serve["misses"] == 1
        assert serve["cache"]["stores"] == 1

    def test_metrics_prometheus_exposition(self, server):
        sample = re.compile(
            r'^[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{le="[^"]+"\})? '
            r'(?:[+-]?(?:\d+(?:\.\d+)?(?:[eE][+-]?\d+)?|Inf|NaN))$'
        )
        with ServeClient(server.url) as client:
            client.submit(baseline_job("swim", 2000, 500))
            text = client.metrics_prometheus()
            doc = client.metrics()   # JSON stays the default, unchanged
        assert doc["v"] == protocol.PROTOCOL_VERSION and "serve" in doc
        families = set()
        for line in text.splitlines():
            if line.startswith("# HELP ") or line.startswith("# TYPE "):
                continue
            assert sample.match(line), f"invalid exposition line: {line!r}"
            families.add(line.split("{")[0].split(" ")[0])
        # Every serve counter of the JSON document is exposed.
        for name in ("requests", "hits", "misses", "dedup", "errors_4xx",
                     "errors_5xx", "inflight", "sse_subscribers"):
            assert f"repro_serve_{name}" in families, name
        assert "repro_serve_cache_stores" in families
        assert "repro_serve_uptime_seconds" in families
        # A family is never exposed twice (server counters are excluded
        # from the obs-registry pass).
        types = [l for l in text.splitlines() if l.startswith("# TYPE ")]
        assert len(types) == len(set(types))
        assert "repro_serve_requests 0" not in text.splitlines()

    def test_metrics_prometheus_includes_obs_registry(self, server):
        import repro.obs as obs
        obs.enable()
        try:
            with ServeClient(server.url) as client:
                client.submit(baseline_job("swim", 2000, 500))
                text = client.metrics_prometheus()
            # The request-latency histogram lives only in the registry.
            assert "# TYPE repro_serve_request_ms histogram" in text
            assert 'repro_serve_request_ms_bucket{le="+Inf"}' in text
        finally:
            obs.disable()

    def test_metrics_unknown_format_is_4xx(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.server.port)
        try:
            conn.request("GET", protocol.ROUTE_METRICS + "?format=xml")
            resp = conn.getresponse()
            body = json.loads(resp.read())
            assert resp.status == 400
            assert "unknown metrics format" in body["error"]
        finally:
            conn.close()

    def test_progress_stream_sees_sweep(self, server):
        events = []
        done = threading.Event()

        def subscribe():
            with ServeClient(server.url) as sub:
                # The runner batches opportunistically: two cold specs may
                # arrive as one sweep of 2 or two sweeps of 1 — read finish
                # events until the meter's cumulative count covers both.
                for event in sub.progress_events(limit=12, timeout=10):
                    events.append(event)
                    if (event.get("event") == "finish"
                            and event["jobs_done"] >= 2):
                        break
            done.set()

        t = threading.Thread(target=subscribe)
        t.start()
        time.sleep(0.2)                       # let the subscription land
        with ServeClient(server.url) as client:
            client.sweep([baseline_job(w, 2000, 500)
                          for w in ("swim", "gobmk")])
        assert done.wait(timeout=10)
        t.join()
        kinds = [e.get("event") for e in events]
        assert "start" in kinds and "finish" in kinds
        finishes = [e for e in events if e.get("event") == "finish"]
        assert finishes[-1]["jobs_done"] == 2    # cumulative meter count

    def test_malformed_requests_are_4xx(self, server):
        conn = http.client.HTTPConnection("127.0.0.1", server.server.port,
                                          timeout=10)
        try:
            conn.request("POST", "/v1/submit", body=b"{ nope",
                         headers={"Content-Type": "application/json"})
            resp = conn.getresponse()
            doc = json.loads(resp.read())
            assert resp.status == 400
            assert "JSON" in doc["error"]

            conn.request("GET", "/v1/no-such-route")
            resp = conn.getresponse()
            assert resp.status == 404
            resp.read()
        finally:
            conn.close()
        assert server.server.errors_4xx >= 2

    def test_client_survives_server_connection_close(self, server):
        """A keep-alive client reconnects transparently mid-session."""
        spec = baseline_job("swim", 2000, 500)
        with ServeClient(server.url) as client:
            client.submit(spec)
            client._conn.close()              # stale socket, client keeps it
            assert client.submit_with_source(spec)[1] == "cache"


# ---------------------------------------------------------------------------
# The request reader on hostile input, and the merged route table.
# ---------------------------------------------------------------------------

#: Statuses a request may be answered with (500 would mean the server
#: mishandled its input, not that the input was bad).
_ALLOWED_STATUSES = {200, 400, 404, 405, 413, 431, 502}

_ROUTES = sorted(getattr(protocol, name) for name in dir(protocol)
                 if name.startswith("ROUTE_"))
_SERVE_ROUTES = [r for r in _ROUTES if not r.startswith("/v1/dist/")]
_DIST_ROUTES = [r for r in _ROUTES if r.startswith("/v1/dist/")]


def _exchange(port: int, payload: bytes, half_close: bool = True,
              timeout: float = 10.0) -> tuple[bytes, bool]:
    """Send raw bytes; read until the server closes or a stream head is in.

    Returns ``(received, closed)``.  ``half_close`` ends the request side
    after sending, so a truncated request is truncated at EOF.  A reset
    after the server answered counts as a close: the server may close
    with the rest of a refused request unread.
    """
    data = b""
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout) as sock:
        try:
            sock.sendall(payload)
            if half_close:
                sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                return data, True
            except socket.timeout:
                return data, False
            if not chunk:
                return data, True
            data += chunk
            head = data.split(b"\r\n\r\n", 1)[0].lower()
            if b"text/event-stream" in head and b"\r\n\r\n" in data:
                return data, False          # an SSE stream stays open


def _responses(raw: bytes) -> list[int]:
    """The statuses of the well-formed responses ``raw`` consists of."""
    statuses = []
    while raw:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head: {raw[:200]!r}"
        status_line, *lines = head.decode("ascii").split("\r\n")
        match = re.fullmatch(r"HTTP/1\.1 (\d{3}) [A-Za-z ]+", status_line)
        assert match, f"bad status line: {status_line!r}"
        headers = dict(line.lower().split(": ", 1) for line in lines)
        statuses.append(int(match.group(1)))
        if headers.get("content-type") == "text/event-stream":
            break
        length = int(headers["content-length"])
        assert len(rest) >= length, "truncated response body"
        body, raw = rest[:length], rest[length:]
        if headers["content-type"] == "application/json":
            doc = json.loads(body)
            assert isinstance(doc, dict)
            if statuses[-1] != 200:
                assert doc["status"] == statuses[-1] and doc["error"]
    return statuses


class _Records(logging.Handler):
    """Collects the error records asyncio logs (unhandled exceptions)."""

    def __init__(self) -> None:
        super().__init__(logging.ERROR)
        self.records: list[logging.LogRecord] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@contextlib.contextmanager
def _asyncio_errors():
    handler = _Records()
    logger = logging.getLogger("asyncio")
    logger.addHandler(handler)
    try:
        yield handler.records
    finally:
        logger.removeHandler(handler)


@pytest.fixture(scope="module")
def fuzz_server(tmp_path_factory):
    srv = ServerThread(cache=ResultCache(root=tmp_path_factory.mktemp("fz")),
                       jobs=1, job_fn=_fake_job).start()
    try:
        with _asyncio_errors() as records:
            yield srv, records
    finally:
        srv.stop()


_TOKEN = st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                 min_size=1, max_size=12)
_JSON_BODY = st.fixed_dictionaries(
    {"v": st.sampled_from([1, 1, 2, "1"])},
    optional={
        "worker": st.one_of(_TOKEN, st.integers()),
        "digest": st.one_of(_TOKEN, st.just("a" * 64)),
        "error": _TOKEN,
        "spec": st.dictionaries(_TOKEN, st.integers(), max_size=3),
        "specs": st.lists(st.dictionaries(_TOKEN, st.integers(),
                                          max_size=2), max_size=2),
        "result": st.dictionaries(_TOKEN, _TOKEN, max_size=2),
    },
).map(lambda doc: json.dumps(doc).encode())


@st.composite
def _requests(draw):
    """Raw request bytes, and whether they were cut short."""
    method = draw(st.sampled_from(["GET", "POST", "PUT", "HEAD", "DELETE"])
                  | _TOKEN)
    path = draw(st.sampled_from(_ROUTES)
                | st.sampled_from(_ROUTES).map(lambda r: r + "x")
                | st.sampled_from(_ROUTES).map(
                    lambda r: r + "?format=prometheus")
                | st.builds(lambda r, t: r + t, st.sampled_from(_ROUTES),
                            _TOKEN)
                | _TOKEN.map(lambda t: "/" + t))
    body = draw(st.binary(max_size=64) | _JSON_BODY)
    length_kind = draw(st.sampled_from(
        ["missing", "exact", "negative", "text", "huge"]))
    head = [f"{method} {path} HTTP/1.1", "Host: fuzz"]
    if length_kind == "missing":
        body = b""
    elif length_kind == "exact":
        head.append(f"Content-Length: {len(body)}")
    elif length_kind == "negative":
        head.append(f"Content-Length: -{draw(st.integers(1, 10**6))}")
    elif length_kind == "text":
        head.append("Content-Length: " + draw(
            st.sampled_from(["abc", "1.5", "0x10", "1e3", "+5", "\xb2"])
            | _TOKEN.filter(lambda t: not t.isdigit())))
    else:
        head.append("Content-Length: " + str(draw(st.sampled_from([
            protocol.MAX_BODY_BYTES + 1, 10**12, 10**200]))))
    head += [f"X-Fill-{i}: {i}" for i in range(draw(st.integers(0, 300)))]
    raw = ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
    cut = draw(st.none() | st.integers(0, len(raw) - 1))
    return (raw, False) if cut is None else (raw[:cut], True)


class TestHostileRequests:
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(request=_requests())
    @example(request=(b"POST /v1/submit HTTP/1.1\r\nContent-Length: -5"
                      b"\r\n\r\n", False))
    @example(request=(b"POST /v1/dist/lease HTTP/1.1\r\n"
                      b"Content-Length: abc\r\n\r\n", False))
    @example(request=(b"GET /v1/dist/status HTTP/1.1\r\n"
                      + b"X-Fill: 1\r\n" * 5000 + b"\r\n", False))
    @example(request=(b"POST /v1/sweep HTTP/1.1\r\nContent-Length: "
                      + str(protocol.MAX_BODY_BYTES + 1).encode()
                      + b"\r\n\r\n", False))
    @example(request=(b"GET /v1/dist/status HTTP/1.1\r\n\r\n", False))
    @example(request=(b"GET /v1/progress HTTP/1.1\r\n\r\n", False))
    @example(request=(b"GET /v1/healt", True))
    def test_every_request_gets_one_response_or_a_clean_close(
            self, fuzz_server, request):
        srv, records = fuzz_server
        raw, truncated = request
        data, closed = _exchange(srv.server.port, raw)
        statuses = _responses(data)
        if truncated:
            assert len(statuses) <= 1, statuses
        else:
            assert len(statuses) == 1, (raw[:200], data[:300])
        assert set(statuses) <= _ALLOWED_STATUSES, statuses
        assert closed or statuses == [200]          # SSE stays open
        assert records == [], [r.getMessage() for r in records]

    @pytest.mark.parametrize("length", ["-5", "abc"])
    def test_bad_content_length_is_400_then_close(self, server, caplog,
                                                  length):
        data, closed = _exchange(
            server.server.port,
            f"POST /v1/submit HTTP/1.1\r\nContent-Length: {length}"
            f"\r\n\r\n".encode(), half_close=False)
        assert _responses(data) == [400]
        assert closed
        assert "Content-Length" in json.loads(data.split(b"\r\n\r\n")[1])[
            "error"]
        assert not [r for r in caplog.records if r.name == "asyncio"]
        assert server.server.errors_4xx == 1

    def test_header_flood_is_431_then_close(self, server):
        flood = b"X-Fill: 1\r\n" * 5000
        data, closed = _exchange(
            server.server.port,
            b"GET /v1/healthz HTTP/1.1\r\n" + flood + b"\r\n",
            half_close=False)
        assert _responses(data) == [431]
        assert closed

    def test_oversized_body_is_413_before_it_is_read(self, server):
        """The 413 arrives, and the connection closes, while the client
        has sent only the head: the body is neither awaited nor read."""
        data, closed = _exchange(
            server.server.port,
            b"POST /v1/sweep HTTP/1.1\r\nContent-Length: "
            + str(protocol.MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n",
            half_close=False)
        assert _responses(data) == [413]
        assert closed

    def test_stalled_and_idle_connections_are_timed_out(self, server,
                                                        monkeypatch):
        monkeypatch.setattr(server_module, "READ_TIMEOUT_SECONDS", 0.2)
        monkeypatch.setattr(server_module, "IDLE_TIMEOUT_SECONDS", 0.4)
        port = server.server.port
        t0 = time.monotonic()
        data, closed = _exchange(port, b"GET /v1/heal", half_close=False)
        assert (data, closed) == (b"", True)    # stalled mid request line
        data, closed = _exchange(port, b"", half_close=False)
        assert (data, closed) == (b"", True)    # never sent a byte
        assert time.monotonic() - t0 < 5.0
        # A keep-alive client whose idle connection was closed reconnects.
        spec = baseline_job("swim", 2000, 500)
        with ServeClient(server.url, retries=0) as client:
            client.submit(spec)
            time.sleep(0.6)
            assert client.submit_with_source(spec)[1] == "cache"
            assert client.retried == 0

    def test_dist_and_serve_routes_do_not_mask_each_other(self, server):
        """Both route sets answer on one server, each with its own
        documents, and share the request and error accounting."""
        digest = "0" * 64
        with DistClient(server.url) as dist:
            status = dist.dist_status()
        assert set(status) >= {"jobs", "leases", "counters"}
        assert status["jobs"] == {"queued": 0, "leased": 0, "done": 0,
                                  "failed": 0}
        with ServeClient(server.url, retries=0) as client:
            assert client.health()["ok"] is True
        conn = http.client.HTTPConnection("127.0.0.1", server.server.port,
                                          timeout=10)
        try:
            for method, path, expected in (
                    ("GET", protocol.ROUTE_RESULT + digest, 404),
                    ("GET", protocol.ROUTE_DIST_LEASE, 405),
                    ("POST", protocol.ROUTE_DIST_STATUS, 405),
                    ("GET", "/v1/dist/nope", 404),
                    ("GET", protocol.ROUTE_RESULT + "v1/dist/status", 400)):
                conn.request(method, path)
                resp = conn.getresponse()
                resp.read()
                assert resp.status == expected, (method, path)
        finally:
            conn.close()
        assert server.server.requests == 7
        assert server.server.errors_4xx == 5


# ---------------------------------------------------------------------------
# Client retry policy, against a scripted stub server.
# ---------------------------------------------------------------------------

class _ScriptedHandler(http.server.BaseHTTPRequestHandler):
    """Answers each request with the next status from ``statuses``
    (then 200s forever).  Shared mutable class state — tests run one
    stub at a time."""

    statuses: list = []
    hits = 0

    def do_GET(self):
        type(self).hits += 1
        status = self.statuses.pop(0) if self.statuses else 200
        body = json.dumps(
            {"ok": True} if status == 200 else {"error": f"scripted {status}"}
        ).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):             # silence stderr
        pass


@contextlib.contextmanager
def _scripted_server(statuses):
    _ScriptedHandler.statuses = list(statuses)
    _ScriptedHandler.hits = 0
    httpd = http.server.ThreadingHTTPServer(("127.0.0.1", 0),
                                            _ScriptedHandler)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{httpd.server_address[1]}"
    finally:
        httpd.shutdown()
        httpd.server_close()
        thread.join(timeout=10)


class TestClientRetries:
    def test_transient_statuses_retried_to_success(self):
        obs.enable()
        try:
            before = obs.registry().snapshot().get("serve/client/retries", 0)
            with _scripted_server([503, 502]) as url:
                client = ServeClient(url, retries=3, backoff=0.01,
                                     backoff_cap=0.02)
                assert client.health() == {"ok": True}
                client.close()
            assert client.retried == 2
            after = obs.registry().snapshot()["serve/client/retries"]
            assert after - before == 2
        finally:
            obs.disable()

    def test_500_is_not_transient(self):
        """500 marks a job that exhausted its compute retries server-side;
        re-requesting would recompute and fail again — raise immediately."""
        with _scripted_server([500]) as url:
            client = ServeClient(url, retries=3, backoff=0.01)
            with pytest.raises(ServerError) as err:
                client.health()
            client.close()
        assert err.value.status == 500
        assert client.retried == 0
        assert _ScriptedHandler.hits == 1

    def test_persistent_transient_status_surfaces_after_budget(self):
        with _scripted_server([503] * 10) as url:
            client = ServeClient(url, retries=2, backoff=0.01,
                                 backoff_cap=0.02)
            with pytest.raises(ServerError) as err:
                client.health()
            client.close()
        assert err.value.status == 503
        assert client.retried == 2
        assert _ScriptedHandler.hits == 3     # initial + 2 retries

    def test_connect_failure_retried_then_raised(self):
        # grab a port nothing listens on
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        client = ServeClient(f"http://127.0.0.1:{port}", retries=1,
                             backoff=0.01, backoff_cap=0.02)
        with pytest.raises(OSError):
            client.health()
        # one free keep-alive reconnect, then the counted retry budget
        assert client.retried == 1

    def test_zero_retries_still_has_the_keepalive_fast_path(self, server):
        spec = baseline_job("swim", 2000, 500)
        with ServeClient(server.url, retries=0) as client:
            client.submit(spec)
            client._conn.close()
            assert client.submit_with_source(spec)[1] == "cache"
            assert client.retried == 0

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            ServeClient("http://localhost:1", retries=-1)


class TestServeBackend:
    def test_experiments_run_identically_through_server(self, tmp_path):
        """fig5a through a real server == fig5a computed locally."""
        local = experiments.fig5a(TINY)

        with ServerThread(cache=ResultCache(root=tmp_path), jobs=2) as srv:
            backend = ServeBackend(srv.url)
            try:
                repro.exec.configure(backend=backend)
                remote = experiments.fig5a(TINY)
            finally:
                backend.close()
        assert remote == local

    def test_chunks_large_sweeps(self, server, monkeypatch):
        monkeypatch.setattr(protocol, "MAX_SWEEP_SPECS", 4)
        specs = [baseline_job("swim", 2000 + 2 * i, 500) for i in range(10)]
        backend = ServeBackend(server.url)
        try:
            sched = repro.exec.Scheduler(backend=backend)
            out = sched.run(specs)
        finally:
            backend.close()
        assert [s.cycles for s in out] == [s.uops for s in specs]
        assert server.server.requests == 3         # 4 + 4 + 2 specs
        assert server.server.misses == len(specs)


# ---------------------------------------------------------------------------
# Chaos on the server path.
# ---------------------------------------------------------------------------

class TestServeChaos:
    def test_transient_fault_is_retried_to_success(self, tmp_path):
        from repro.chaos import ChaosConfig, FaultPlan
        plan = FaultPlan(ChaosConfig(exception_rate=1.0, seed=7,
                                     max_faults_per_job=1))
        srv = ServerThread(cache=ResultCache(root=tmp_path), jobs=1,
                           retries=2, chaos=plan, job_fn=_fake_job).start()
        try:
            spec = baseline_job("swim", 2000, 500)
            with ServeClient(srv.url) as client:
                stats, source = client.submit_with_source(spec)
            assert source == "computed"
            assert stats_to_dict(stats) == stats_to_dict(_fake_job(spec))
            assert srv.server.errors_5xx == 0
        finally:
            srv.stop()

    def test_exhausted_retries_surface_as_5xx(self, tmp_path):
        srv = ServerThread(cache=ResultCache(root=tmp_path), jobs=1,
                           retries=1, job_fn=_raising_job).start()
        try:
            with ServeClient(srv.url) as client:
                with pytest.raises(ServerError) as err:
                    client.submit(baseline_job("swim", 2000, 500))
                assert err.value.status == 500
                assert "boom" in str(err.value)
                # The server stays healthy and accounts the failure.
                assert client.health()["ok"] is True
            assert srv.server.errors_5xx == 1
        finally:
            srv.stop()

    def test_corrupt_blob_is_quarantined_and_recomputed(self, tmp_path):
        cache = ResultCache(root=tmp_path)
        srv = ServerThread(cache=cache, jobs=1, job_fn=_fake_job).start()
        try:
            spec = baseline_job("swim", 2000, 500)
            with ServeClient(srv.url) as client:
                first = client.submit(spec)
                cache._path(spec).write_text('{"tampered": true}')
                again, source = client.submit_with_source(spec)
            assert source == "computed"               # not served corrupt
            assert again == first
            assert cache.corrupt == 1                 # quarantined, not lost
            assert any(cache.quarantine_dir.iterdir())
            assert cache.get(spec) is not None        # re-stored verified
        finally:
            srv.stop()


# ---------------------------------------------------------------------------
# Golden bit-identity through HTTP.
# ---------------------------------------------------------------------------

_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_stats.json").read_text())


def _golden_spec(key: str):
    """The JobSpec equivalent of a golden-stats configuration.

    ``gcc/perpath`` has no JobSpec form (``PerPathStridePredictor`` is not
    part of the :func:`make_instr_predictor` vocabulary), so the HTTP
    golden suite covers the other eight configurations; the ninth stays
    pinned by ``test_golden_identity.py``.
    """
    workload, config = key.split("/")
    uops, warmup = _GOLDEN["uops"], _GOLDEN["warmup"]
    if config == "baseline":
        return baseline_job(workload, uops, warmup)
    if config == "dvtage":
        return instr_vp_job(workload, "d-vtage", uops, warmup)
    if config == "vtage":
        return instr_vp_job(workload, "vtage", uops, warmup)
    if config == "hybrid":
        return instr_vp_job(workload, "vtage-2d-stride", uops, warmup)
    if config == "eole-dvtage":
        return instr_vp_job(workload, "d-vtage", uops, warmup, eole=True)
    if config == "eole-bebop":
        return bebop_job(workload, uops=uops, warmup=warmup)
    return None


_HTTP_KEYS = [k for k in sorted(_GOLDEN["runs"]) if _golden_spec(k)]


class TestGoldenOverHTTP:
    """The bit-identity contract of the service: a result obtained over
    HTTP equals the committed golden record, field for field."""

    @pytest.fixture(scope="class")
    def golden_server(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("serve-golden")
        srv = ServerThread(cache=ResultCache(root=root), jobs=2).start()
        try:
            yield srv
        finally:
            srv.stop()

    def test_covers_all_spec_expressible_configs(self):
        assert len(_HTTP_KEYS) == len(_GOLDEN["runs"]) - 1  # all but perpath

    @pytest.mark.parametrize("key", _HTTP_KEYS)
    def test_http_result_bit_identical_to_golden(self, golden_server, key):
        with ServeClient(golden_server.url) as client:
            stats = client.submit(_golden_spec(key))
        assert dataclasses.asdict(stats) == _GOLDEN["runs"][key], (
            f"{key}: HTTP result diverged from the golden record — the "
            "serve path must be bit-identical to direct execution"
        )
