"""Command line entry point of the distributed sweep layer: one worker.

::

    # The sweep server whose misses the worker computes (same cache root):
    python -m repro.serve --port 8200 --cache-dir /shared/cache

    # One pull-model worker against it:
    python -m repro.dist worker --server-url http://host:8200 \
        --cache-dir /shared/cache --journal /shared/journals/w0.jsonl

    # A driver sending its sweeps there; the misses go to the worker:
    python examples/run_experiments.py --quick --server-url host:8200

Workers exit on the server's drain signal, after ``--max-idle`` seconds
without work, or on SIGTERM; their exit code is 0 when every job they
took either completed or was handed back through the retry machinery.
``examples/run_experiments.py --dist-workers N`` wires all of this
together (embedded server + local worker pool) in one flag.
"""

from __future__ import annotations

import argparse
import sys


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.dist",
        description="distributed sweep workers (the server is "
                    "python -m repro.serve)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("worker", help="run one pull-model worker")
    cmd.add_argument("--server-url", required=True,
                     help="base URL of the sweep server that leases the jobs")
    cmd.add_argument("--worker-id", default=None,
                     help="stable worker identity (default: host-pid)")
    cmd.add_argument("--cache-dir", default=None,
                     help="shared result-cache root")
    cmd.add_argument("--journal", default=None,
                     help="per-worker run journal path")
    cmd.add_argument("--poll-interval", type=float, default=0.05,
                     help="seconds between idle lease polls")
    cmd.add_argument("--slowdown", type=float, default=0.0,
                     help="extra seconds slept per job (testing knob)")
    cmd.add_argument("--max-idle", type=float, default=None,
                     help="exit after this many idle seconds")

    args = parser.parse_args(argv)
    if args.worker_id is None:
        import os
        import socket
        args.worker_id = f"{socket.gethostname()[:40]}-{os.getpid()}"

    from repro.chaos.journal import RunJournal
    from repro.dist.worker import DistWorker
    from repro.exec.cache import ResultCache

    cache = (ResultCache(root=args.cache_dir) if args.cache_dir
             else ResultCache())
    journal = RunJournal(args.journal) if args.journal else None
    worker = DistWorker(
        args.server_url,
        args.worker_id,
        cache=cache,
        journal=journal,
        poll_interval=args.poll_interval,
        slowdown=args.slowdown,
        max_idle=args.max_idle,
    )
    try:
        completed = worker.run()
    finally:
        if journal is not None:
            journal.close()
    print(f"[dist] worker {args.worker_id}: {completed} job(s) completed, "
          f"{worker.failed} failure(s) reported", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
