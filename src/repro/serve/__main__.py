"""Run a sweep-result server:  ``python -m repro.serve [options]``.

Serves the content-addressed result cache over HTTP (see
:mod:`repro.serve`): cache hits answer instantly, misses are computed on
a local worker pool with concurrent requests for the same digest
deduplicated into one computation, and ``/v1/progress`` streams sweep
progress as server-sent events.

The cache root follows the usual precedence: ``--cache-dir``, then
``$REPRO_BEBOP_CACHE``, then ``$REPRO_CACHE_DIR``, then
``~/.cache/repro-bebop`` — point the server and its CLI clients at one
``REPRO_CACHE_DIR`` to share a root without flags.

While ``python -m repro.dist worker`` processes poll it, misses are
leased to them instead (30 s leases, default retry budget; ``--chaos``
also feeds its lease queue).  SIGTERM and Ctrl-C both stop it cleanly:
polling workers hear ``drain`` and the request summary is printed.

Try it::

    python -m repro.serve --port 8100 --jobs 4 &
    curl -s localhost:8100/v1/healthz
    python examples/run_experiments.py --quick --server-url localhost:8100
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys

import repro.obs as obs
from repro.exec.cache import ResultCache
from repro.serve.leases import LeaseQueue, lease_retries
from repro.serve.server import SweepServer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8100,
                        help="bind port (default 8100; 0 = ephemeral)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes for cache misses "
                             "(default 1 = in-process serial)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache root (default: "
                             "$REPRO_BEBOP_CACHE, $REPRO_CACHE_DIR, or "
                             "~/.cache/repro-bebop)")
    parser.add_argument("--retries", type=int, default=1,
                        help="extra attempts per failing job (default 1)")
    parser.add_argument("--job-timeout", type=float, default=None,
                        metavar="S", help="seconds to wait per parallel job")
    parser.add_argument("--chaos", default=None, metavar="SPEC",
                        help="inject deterministic faults into the compute "
                             "path, e.g. 'exception=0.2,crash=0.05,seed=7'")
    parser.add_argument("--no-obs", action="store_true",
                        help="do not enable the metrics registry "
                             "(/v1/metrics then reports server counters "
                             "only)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    if not args.no_obs:
        obs.enable()

    chaos = None
    if args.chaos:
        from repro.chaos import FaultPlan, parse_chaos_spec
        try:
            chaos = FaultPlan(parse_chaos_spec(args.chaos))
        except ValueError as exc:
            parser.error(str(exc))
        print(f"[serve] chaos enabled: {chaos.config}", flush=True)

    cache = ResultCache(root=args.cache_dir, chaos=chaos)
    server = SweepServer(
        cache=cache, jobs=args.jobs, retries=args.retries,
        timeout=args.job_timeout, chaos=chaos,
        host=args.host, port=args.port,
        leases=LeaseQueue(retries=lease_retries(chaos), chaos=chaos),
    )

    async def _serve() -> None:
        await server.start()
        terminated = asyncio.Event()
        asyncio.get_running_loop().add_signal_handler(signal.SIGTERM,
                                                      terminated.set)
        print(f"[serve] listening on {server.url} "
              f"(cache {cache.dir}, {args.jobs} worker(s))", flush=True)
        try:
            await terminated.wait()           # or until Ctrl-C
        finally:
            await server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        pass
    finally:
        print(f"\n[serve] {server.requests} request(s): "
              f"{server.hits} hit(s), {server.misses} scheduled, "
              f"{server.dedup} deduplicated, "
              f"{server.errors_4xx}+{server.errors_5xx} error(s)")
        print(f"[serve] {cache.summary()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
