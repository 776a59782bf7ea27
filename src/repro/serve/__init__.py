"""The sweep-result service: the result cache behind an HTTP front-end.

:mod:`repro.exec` already owns content-addressed JobSpec digests,
sha256-verified cache blobs, and a retrying process-pool scheduler; this
package puts an asyncio (stdlib-only) HTTP server in front of them so
many clients on many hosts share one set of simulation results instead
of recomputing it per process:

* :mod:`repro.serve.protocol` — the versioned JSON wire documents,
  digest validation, and the checksum rule both sides verify;
* :mod:`repro.serve.server` — :class:`SweepServer` (submit / sweep /
  result / SSE progress / health / metrics routes, cache-hit fast path,
  in-flight dedup, scheduler batching, and the ``/v1/dist/*`` lease
  routes: while a :mod:`repro.dist` worker polls them, misses are leased
  to it instead of computed on the server's pool) and
  :class:`ServerThread`;
* :mod:`repro.serve.leases` — :class:`~repro.serve.leases.LeaseQueue`,
  the lease state machine behind the dist routes;
* :mod:`repro.serve.client` — :class:`ServeClient`, the verifying
  blocking client, and :class:`ServeBackend`, the
  :class:`repro.exec.SchedulerBackend` that sends every experiment sweep
  to a server (``repro.exec.configure(backend=ServeBackend(url))``);
* ``python -m repro.serve`` — the server CLI, which
  ``python -m repro.dist worker`` processes pull leased misses from.

Results over HTTP are bit-identical to direct :meth:`ResultCache.get`:
the response payload carries the exact cache-blob checksum and the
client refuses anything that fails it.  ``examples/serve_loadgen.py``
hammers a server with thousands of concurrent clients and publishes
latency histograms through :mod:`repro.obs`.
"""

from __future__ import annotations

from repro.serve.client import ServeBackend, ServeClient, ServerError
from repro.serve.protocol import (
    MAX_SWEEP_SPECS,
    PROTOCOL_VERSION,
    ProtocolError,
    is_digest,
    validate_digest,
)
from repro.serve.server import ServerThread, ServeProgress, SweepServer

__all__ = [
    "MAX_SWEEP_SPECS",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ServeBackend",
    "ServeClient",
    "ServeProgress",
    "ServerError",
    "ServerThread",
    "SweepServer",
    "is_digest",
    "validate_digest",
]
