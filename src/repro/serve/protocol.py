"""Wire protocol of the sweep-result service.

One module, imported by both :mod:`repro.serve.server` and
:mod:`repro.serve.client`, owns everything that crosses the HTTP
boundary: route names, the versioned JSON request/response shapes, digest
validation, and the end-to-end integrity rule.  Keeping encode and decode
side by side is what makes the bit-identity contract checkable — a result
document carries the same sha256 payload checksum the on-disk cache blobs
carry (:func:`repro.exec.payload_checksum` over ``{"spec", "stats"}``),
so the *client* verifies that what it received is exactly what the server
read from the cache or computed, and that the spec echoed back hashes to
the digest it asked for.

Requests and responses are plain JSON documents tagged with ``"v":
PROTOCOL_VERSION``; a server receiving a newer-versioned request (or a
client receiving a newer-versioned response) rejects it instead of
guessing.  Digests are the :meth:`repro.exec.JobSpec.digest` sha256 hex
strings; anything that does not look like one is rejected *before* it can
reach the filesystem layer.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from repro.chaos.plan import CORRUPT_MODES, FaultAction, JOB_FAULT_KINDS
from repro.exec.cache import CODE_VERSION, payload_checksum
from repro.exec.jobs import JobSpec, stats_from_dict, stats_to_dict
from repro.pipeline import SimStats

#: Version tag carried by every request and response document.
PROTOCOL_VERSION = 1

#: Maximum specs accepted in one ``/v1/sweep`` request.
MAX_SWEEP_SPECS = 4096

#: Maximum request body the server will read, in bytes.
MAX_BODY_BYTES = 16 * 1024 * 1024

# -- routes -----------------------------------------------------------------

ROUTE_SUBMIT = "/v1/submit"          # POST {v, spec} -> result document
ROUTE_SWEEP = "/v1/sweep"            # POST {v, specs: [...]} -> {results}
ROUTE_RESULT = "/v1/result/"         # GET  /v1/result/<digest> (cache only)
ROUTE_PROGRESS = "/v1/progress"      # GET  server-sent events stream
ROUTE_HEALTH = "/v1/healthz"         # GET  liveness + identity
ROUTE_METRICS = "/v1/metrics"        # GET  obs registry + server counters

# Lease routes of :mod:`repro.dist` workers.  Workers PULL the server's
# misses (lease), prove liveness (heartbeat) and push outcomes (complete /
# fail).
ROUTE_DIST_LEASE = "/v1/dist/lease"          # POST {v, worker} -> {job|null}
ROUTE_DIST_HEARTBEAT = "/v1/dist/heartbeat"  # POST {v, worker, digest}
ROUTE_DIST_COMPLETE = "/v1/dist/complete"    # POST {v, worker, result, ...}
ROUTE_DIST_FAIL = "/v1/dist/fail"            # POST {v, worker, digest, error}
ROUTE_DIST_STATUS = "/v1/dist/status"        # GET  queue + worker status

#: ``?format=`` values the metrics route accepts.  JSON is (and stays)
#: the default; Prometheus is the text exposition format v0.0.4.
METRICS_FORMAT_JSON = "json"
METRICS_FORMAT_PROMETHEUS = "prometheus"

#: Content-Type of a Prometheus text exposition response.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Where a result came from, as reported in the ``source`` field.
SOURCES = ("cache", "computed", "inflight")

_DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")


class ProtocolError(ValueError):
    """A malformed, oversized, or version-incompatible message.

    ``status`` is the HTTP status the server answers with (the client
    raises the error directly).
    """

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def is_digest(value: object) -> bool:
    """Whether ``value`` is a well-formed sha256 hex digest."""
    return isinstance(value, str) and bool(_DIGEST_RE.match(value))


def validate_digest(value: object) -> str:
    if not is_digest(value):
        raise ProtocolError(f"malformed digest: {str(value)[:80]!r}")
    return value  # type: ignore[return-value]


def _check_version(doc: dict, kind: str) -> None:
    v = doc.get("v")
    if v != PROTOCOL_VERSION:
        raise ProtocolError(
            f"{kind}: protocol version {v!r} not supported "
            f"(this build speaks v{PROTOCOL_VERSION})"
        )


def parse_json(raw: bytes, kind: str = "request") -> dict:
    """Bytes → dict, with protocol-level (not stack-trace) failures."""
    if len(raw) > MAX_BODY_BYTES:
        raise ProtocolError(f"{kind} body exceeds {MAX_BODY_BYTES} bytes",
                            status=413)
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProtocolError(f"{kind}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ProtocolError(f"{kind}: expected a JSON object")
    return doc


# -- submit -----------------------------------------------------------------

def encode_submit(spec: JobSpec) -> dict:
    return {"v": PROTOCOL_VERSION, "spec": spec.as_dict()}


def decode_submit(doc: dict) -> JobSpec:
    _check_version(doc, "submit")
    return _decode_spec(doc.get("spec"))


def _decode_spec(data: object) -> JobSpec:
    if not isinstance(data, dict):
        raise ProtocolError("missing or malformed 'spec' object")
    try:
        return JobSpec.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid spec: {exc}") from exc


# -- sweep ------------------------------------------------------------------

def encode_sweep(specs: list[JobSpec]) -> dict:
    return {"v": PROTOCOL_VERSION, "specs": [s.as_dict() for s in specs]}


def decode_sweep(doc: dict) -> list[JobSpec]:
    _check_version(doc, "sweep")
    specs = doc.get("specs")
    if not isinstance(specs, list) or not specs:
        raise ProtocolError("sweep: 'specs' must be a non-empty list")
    if len(specs) > MAX_SWEEP_SPECS:
        raise ProtocolError(
            f"sweep: {len(specs)} specs exceeds the limit of "
            f"{MAX_SWEEP_SPECS}", status=413,
        )
    return [_decode_spec(s) for s in specs]


# -- results ----------------------------------------------------------------

def encode_result(spec: JobSpec, stats: SimStats, source: str) -> dict:
    """One finished cell, checksummed exactly like a cache blob."""
    payload = {"spec": spec.as_dict(), "stats": stats_to_dict(stats)}
    return {
        "v": PROTOCOL_VERSION,
        "digest": spec.digest(),
        "source": source,
        "code_version": CODE_VERSION,
        "sha256": payload_checksum(payload),
        **payload,
    }


def decode_result(doc: dict, expect_digest: str | None = None
                  ) -> tuple[JobSpec, SimStats, str]:
    """Verify and unpack one result document.

    Raises :class:`ProtocolError` unless (a) the sha256 matches the
    payload, (b) the echoed spec hashes to the document's digest, and (c)
    when ``expect_digest`` is given, the digest is the one asked for —
    together these make a wrong-payload response impossible to mistake
    for a result.
    """
    _check_version(doc, "result")
    spec = _decode_spec(doc.get("spec"))
    digest = validate_digest(doc.get("digest"))
    stats_data = doc.get("stats")
    if not isinstance(stats_data, dict):
        raise ProtocolError("result: missing 'stats' object")
    payload = {"spec": doc["spec"], "stats": stats_data}
    if doc.get("sha256") != payload_checksum(payload):
        raise ProtocolError("result: payload checksum mismatch", status=502)
    if spec.digest() != digest:
        raise ProtocolError("result: spec does not hash to its digest",
                            status=502)
    if expect_digest is not None and digest != expect_digest:
        raise ProtocolError(
            f"result: got digest {digest[:12]}… for request "
            f"{expect_digest[:12]}…", status=502,
        )
    source = doc.get("source")
    if source not in SOURCES:
        raise ProtocolError(f"result: unknown source {source!r}")
    try:
        stats = stats_from_dict(stats_data)
    except TypeError as exc:
        raise ProtocolError(f"result: malformed stats ({exc})") from exc
    return spec, stats, source


def encode_sweep_results(docs: list[dict]) -> dict:
    return {"v": PROTOCOL_VERSION, "results": docs}


def decode_sweep_results(doc: dict, expect: list[str]
                         ) -> list[tuple[JobSpec, SimStats, str]]:
    """Verify a sweep response against the digests that were requested."""
    _check_version(doc, "sweep results")
    results = doc.get("results")
    if not isinstance(results, list) or len(results) != len(expect):
        got = len(results) if isinstance(results, list) else "no"
        raise ProtocolError(
            f"sweep: expected {len(expect)} results, got {got}", status=502
        )
    return [decode_result(r, expect_digest=d)
            for r, d in zip(results, expect)]


# -- distributed sweeps (repro.dist) ----------------------------------------
#
# Everything the sweep server and its pull-model workers exchange.  Result
# documents reuse encode_result / decode_result above — a worker's
# completion carries the same checksummed payload a cache blob does, so the
# server verifies worker output exactly as it would verify its own disk.

_WORKER_RE = re.compile(r"^[\w.:-]{1,120}$")


def validate_worker(value: object) -> str:
    """A worker id: short, printable, safe to embed in metric names."""
    if not isinstance(value, str) or not _WORKER_RE.match(value):
        raise ProtocolError(f"malformed worker id: {str(value)[:80]!r}")
    return value


@dataclass(frozen=True)
class WorkOrder:
    """One leased job, as decoded by a worker.

    ``fault`` and ``corrupt`` are chaos verdicts drawn by the
    *server* (so injection stays deterministic no matter which worker
    steals the job) and shipped as plain data; the worker fires them with
    :func:`repro.chaos.apply_fault` / :func:`repro.chaos.corrupt_file`.
    """

    spec: JobSpec
    attempt: int
    lease_seconds: float
    fault: FaultAction | None = None
    corrupt: str | None = None

    @property
    def digest(self) -> str:
        return self.spec.digest()


def encode_worker_doc(worker: str, **extra) -> dict:
    """The ``{v, worker, ...}`` shape lease/heartbeat/fail requests share."""
    return {"v": PROTOCOL_VERSION, "worker": worker, **extra}


def decode_worker_doc(doc: dict, kind: str) -> str:
    _check_version(doc, kind)
    return validate_worker(doc.get("worker"))


def encode_lease_grant(spec: JobSpec, attempt: int, lease_seconds: float,
                       fault: FaultAction | None = None,
                       corrupt: str | None = None) -> dict:
    job = {
        "digest": spec.digest(),
        "spec": spec.as_dict(),
        "attempt": attempt,
        "lease_seconds": lease_seconds,
        "fault": None if fault is None else {"kind": fault.kind,
                                             "seconds": fault.seconds},
        "corrupt": corrupt,
    }
    return {"v": PROTOCOL_VERSION, "job": job}


def encode_lease_idle(drain: bool = False) -> dict:
    """No work right now; ``drain`` tells the worker to exit for good."""
    return {"v": PROTOCOL_VERSION, "job": None, "drain": drain}


def decode_lease(doc: dict) -> tuple[WorkOrder | None, bool]:
    """A lease response → ``(work order or None, drain flag)``."""
    _check_version(doc, "lease")
    job = doc.get("job")
    if job is None:
        return None, bool(doc.get("drain"))
    if not isinstance(job, dict):
        raise ProtocolError("lease: 'job' must be an object or null")
    spec = _decode_spec(job.get("spec"))
    if spec.digest() != validate_digest(job.get("digest")):
        raise ProtocolError("lease: spec does not hash to its digest",
                            status=502)
    fault_doc = job.get("fault")
    fault = None
    if fault_doc is not None:
        if (not isinstance(fault_doc, dict)
                or fault_doc.get("kind") not in JOB_FAULT_KINDS):
            raise ProtocolError("lease: malformed fault verdict")
        fault = FaultAction(fault_doc["kind"],
                            float(fault_doc.get("seconds", 0.0)))
    corrupt = job.get("corrupt")
    if corrupt is not None and corrupt not in CORRUPT_MODES:
        raise ProtocolError(f"lease: unknown corrupt mode {corrupt!r}")
    try:
        attempt = int(job.get("attempt", 0))
        lease_seconds = float(job.get("lease_seconds", 0.0))
    except (TypeError, ValueError) as exc:
        raise ProtocolError(f"lease: malformed job numbers ({exc})") from exc
    return WorkOrder(spec, attempt, lease_seconds, fault, corrupt), False


def encode_complete(worker: str, spec: JobSpec, stats: SimStats,
                    metrics: dict | None = None) -> dict:
    return {
        "v": PROTOCOL_VERSION,
        "worker": worker,
        "result": encode_result(spec, stats, "computed"),
        "metrics": metrics or {},
    }


def decode_complete(doc: dict) -> tuple[str, JobSpec, SimStats, dict]:
    """→ ``(worker, spec, stats, metrics)``.

    The embedded result document goes through the full
    :func:`decode_result` verification chain, so the server never serves
    a completion a client would reject.
    """
    worker = decode_worker_doc(doc, "complete")
    result = doc.get("result")
    if not isinstance(result, dict):
        raise ProtocolError("complete: missing 'result' document")
    spec, stats, _source = decode_result(result)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        raise ProtocolError("complete: 'metrics' must be an object")
    return worker, spec, stats, metrics


def encode_fail(worker: str, digest: str, error: str) -> dict:
    return encode_worker_doc(worker, digest=digest, error=str(error)[:2000])


def decode_fail(doc: dict) -> tuple[str, str, str]:
    worker = decode_worker_doc(doc, "fail")
    digest = validate_digest(doc.get("digest"))
    error = doc.get("error")
    if not isinstance(error, str):
        raise ProtocolError("fail: 'error' must be a string")
    return worker, digest, error


def encode_heartbeat(worker: str, digest: str) -> dict:
    return encode_worker_doc(worker, digest=digest)


def decode_heartbeat(doc: dict) -> tuple[str, str]:
    worker = decode_worker_doc(doc, "heartbeat")
    return worker, validate_digest(doc.get("digest"))


# -- errors -----------------------------------------------------------------

def encode_error(status: int, message: str) -> dict:
    return {"v": PROTOCOL_VERSION, "error": message, "status": status}


def error_message(doc: dict) -> str:
    """Best-effort extraction of an error body's message."""
    if isinstance(doc, dict) and isinstance(doc.get("error"), str):
        return doc["error"]
    return "unknown server error"
