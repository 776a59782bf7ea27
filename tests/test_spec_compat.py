"""Wire and cache compatibility of :class:`JobSpec` documents.

Cache blobs, journal records and serve requests written by older builds
carry a ``"table_backend"`` key in their spec dict.  These tests pin

* the literal ``digest()`` of one baseline, one instruction-VP and one
  BeBoP spec, so any change to the digest (and with it every cached
  cell's address) fails loudly;
* that a submit document and a cache blob carrying
  ``"table_backend": "numpy"`` decode to that same digest, hit
  :meth:`ResultCache.get`, and are served by ``/v1/result/<digest>``
  with a verifying checksum.
"""

import json

import pytest

from repro.exec import ResultCache, baseline_job, bebop_job, instr_vp_job
from repro.exec.cache import payload_checksum
from repro.exec.jobs import JobSpec, stats_to_dict
from repro.pipeline import SimStats
from repro.serve import ServeClient, ServerThread
from repro.serve import protocol

#: (builder output, digest captured when specs still carried a backend).
PINNED = {
    "baseline": (
        lambda: baseline_job("swim", 2000, 500),
        "20cd9cc91b0035d04c108900818ec6cea2df1cf656ca15bbccd1f0576836eaf8",
    ),
    "instr": (
        lambda: instr_vp_job("gcc", "d-vtage", 3000, 1000),
        "1fb1b78cf2e7735d99291fac224c321ce41635557b5af1961048c4bc72600636",
    ),
    "bebop": (
        lambda: bebop_job("gcc", uops=4000, warmup=1000),
        "d9ec432aba36bb2c85faa8c7abe7b8e8a00dada43c5783ba66cd8e51de274532",
    ),
}


def _legacy_spec_dict(spec: JobSpec) -> dict:
    """``spec`` as an older build wrote it: with a ``table_backend`` key."""
    return dict(spec.as_dict(), table_backend="numpy")


def _fake_job(spec):
    """Cheap stand-in cell: stats derived from the spec, no simulation."""
    return SimStats(workload=spec.workload, cycles=spec.uops,
                    insts=2 * spec.uops)


def _write_legacy_blob(cache: ResultCache, spec: JobSpec) -> SimStats:
    """Store ``spec``'s cell exactly as an older build laid the blob out."""
    stats = _fake_job(spec)
    payload = {"spec": _legacy_spec_dict(spec),
               "stats": stats_to_dict(stats)}
    path = cache.blob_path(spec.digest())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(dict(payload, sha256=payload_checksum(payload))))
    return stats


@pytest.mark.parametrize("name", sorted(PINNED))
def test_digest_is_pinned(name):
    build, digest = PINNED[name]
    assert build().digest() == digest


@pytest.mark.parametrize("name", sorted(PINNED))
def test_legacy_submit_document_decodes_to_pinned_digest(name):
    build, digest = PINNED[name]
    doc = {"v": protocol.PROTOCOL_VERSION,
           "spec": _legacy_spec_dict(build())}
    spec = protocol.decode_submit(json.loads(json.dumps(doc)))
    assert spec.digest() == digest


@pytest.mark.parametrize("name", sorted(PINNED))
def test_legacy_cache_blob_is_a_hit(name, tmp_path):
    """A blob whose stored spec names a backend still verifies and hits."""
    build, digest = PINNED[name]
    cache = ResultCache(root=tmp_path)
    stats = _write_legacy_blob(cache, build())
    legacy = protocol.decode_submit(
        {"v": protocol.PROTOCOL_VERSION, "spec": _legacy_spec_dict(build())}
    )
    assert cache.get(legacy) == stats
    assert (cache.hits, cache.misses, cache.corrupt) == (1, 0, 0)
    assert cache.get_blob(digest)["spec"]["table_backend"] == "numpy"


def test_legacy_cache_blob_is_served(tmp_path):
    """``/v1/result/<digest>`` serves a legacy blob; the client verifies
    the response checksum and digest before returning the stats."""
    cache = ResultCache(root=tmp_path)
    blobs = {name: _write_legacy_blob(cache, build())
             for name, (build, _) in PINNED.items()}
    srv = ServerThread(cache=ResultCache(root=tmp_path), jobs=1,
                       job_fn=_fake_job).start()
    try:
        with ServeClient(srv.url) as client:
            for name, (build, digest) in PINNED.items():
                assert client.result(digest) == blobs[name]
                stats, source = client.submit_with_source(build())
                assert (stats, source) == (blobs[name], "cache")
        assert srv.server.misses == 0
    finally:
        srv.stop()
