#!/usr/bin/env python3
"""Regenerate every table and figure of the paper at full scale.

Runs the complete 36-workload suite through every experiment of Section VI
and writes a text report (the source of EXPERIMENTS.md's measured numbers).
Sweeps fan out over ``--jobs`` worker processes and finished cells are
served from the on-disk result cache (``~/.cache/repro-bebop/`` or
``$REPRO_BEBOP_CACHE``), so only the first cold run at a given scale is
the long one — a warm re-run completes in seconds.  Use --quick for a
reduced sanity run and --no-cache to force recomputation.

With ``--obs`` the run is instrumented by the :mod:`repro.obs`
observability layer: CPI-stack, provenance and H2P-attribution sections
are appended to the report (cycle attribution per
workload/configuration, plus the worst hard-to-predict PCs and their
share of squash/redirect recovery cycles), key execution metrics are
printed, and ``--obs-out PATH`` additionally exports the event trace as
JSONL (first line: the full metrics snapshot).  ``--metrics-out PATH``
writes the final metrics registry as a Prometheus text exposition;
``--bank-telemetry`` (with ``--bank-interval N``) samples predictor
table-bank occupancy/utility during the H2P runs.

With ``--timeline OUT`` one additional short traced simulation (BeBoP
on EOLE_4_60, first workload of the run) is recorded per-µop by a
:class:`repro.obs.TimelineRecorder` and exported as a Chrome
``trace_event`` JSON (open in https://ui.perfetto.dev) or, with
``--timeline-format konata``, as a Konata pipeline log; a
prediction-provenance report section is appended as well.

With ``--resume PATH`` the run keeps a crash-safe JSONL job journal at
PATH: every finished cell is checkpointed the moment it completes, and a
re-run with the same ``--resume PATH`` after a crash, OOM kill, or Ctrl-C
re-runs *only* the unfinished cells (results are bit-identical to an
uninterrupted run).  Passing a not-yet-existing PATH starts a fresh
journal; SIGINT/SIGTERM print the exact resume command.

With ``--chaos SPEC`` (e.g. ``--chaos exception=0.2,crash=0.05,seed=7``)
deterministic faults are injected into the sweep — worker crashes, hangs,
transient exceptions, cache-blob corruption — to rehearse the recovery
machinery; results are unchanged as long as the default retry budget
covers ``max_faults`` (it does).

With ``--server-url URL`` no cell is computed locally at all: every sweep
is submitted to a running sweep server (``python -m repro.serve``), which
answers cached digests instantly and computes the rest — on its own pool,
or, while ``python -m repro.dist worker`` processes poll it (on any host
sharing its cache root), on those workers.  Results are verified (payload
checksum + digest) and bit-identical to a local run, so reports come out
byte-identical too.

With ``--dist-workers N`` the same path runs on this host: an embedded
sweep server leases its misses to N ``python -m repro.dist worker``
subprocesses that pull jobs, heartbeat while computing, and write results
into the shared cache; a killed or hung worker's lease expires and its
job is retried elsewhere, so the report stays byte-identical to a serial
run.  ``--chaos`` combines with ``--dist-workers`` — verdicts are drawn by
the server's lease queue, so worker crashes and corrupt cache blobs
rehearse the full distributed recovery path.

With ``--batch-variants`` the BeBoP sweep grids (Fig 6a/6b/7a/7b) run
each workload's variant set as one batched trace pass instead of one
full simulation per cell: the shared front end (trace decode, branch
redirects, folded histories) executes once and per-variant predictor
state lives on a variant axis of the table banks.  Results, digests and
cache cells are bit-identical to the serial path (parity-suite
enforced); only wall-clock changes.  See EXPERIMENTS.md "Batched
sweeps".

Run:  python examples/run_experiments.py [--quick] [--batch-variants]
                                         [--jobs N] [--no-cache]
                                         [--skip ID ...] [--out report.txt]
                                         [--obs] [--obs-out trace.jsonl]
                                         [--timeline OUT.json]
                                         [--timeline-format chrome|konata]
                                         [--metrics-out metrics.prom]
                                         [--bank-telemetry]
                                         [--bank-interval N]
                                         [--resume journal.jsonl]
                                         [--chaos k=v,...]
"""

import argparse
import os
import sys
import time

import repro.exec
import repro.obs as obs
from repro.eval import experiments, reporting
from repro.eval.experiments import (
    FIG5A_PREDICTORS,
    KNOWN_EXPERIMENTS,
    aggregate,
    validate_experiment_ids,
)
from repro.eval.runner import RunSpec


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="reduced scale: 8 workloads, shorter traces")
    parser.add_argument("--out", default=None, help="also write report here")
    parser.add_argument("--skip", nargs="*", default=[], metavar="ID",
                        help=f"experiment ids to skip; known: "
                             f"{', '.join(KNOWN_EXPERIMENTS)}")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="worker processes per sweep (default 1 = serial; "
                             "try your core count)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not consult or populate the on-disk result "
                             "cache")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="result cache root (default ~/.cache/repro-bebop "
                             "or $REPRO_BEBOP_CACHE)")
    parser.add_argument("--job-timeout", type=float, default=None, metavar="S",
                        help="seconds to wait per parallel job before "
                             "retrying it (default: no timeout)")
    parser.add_argument("--batch-variants", action="store_true",
                        help="run BeBoP sweep cells that share a workload "
                             "and trace length (the Fig 6a/6b/7a/7b grids) "
                             "as one batched trace pass per group; results "
                             "and cache cells are bit-identical, only "
                             "wall-clock changes (ignored for cells the "
                             "batched walk does not cover, and under "
                             "--obs/--chaos)")
    parser.add_argument("--obs", action="store_true",
                        help="enable the observability layer: CPI-stack "
                             "report section + execution metrics")
    parser.add_argument("--obs-out", default=None, metavar="PATH",
                        help="write the event trace as JSONL to PATH "
                             "(implies --obs; first line is the metrics "
                             "snapshot)")
    parser.add_argument("--timeline", default=None, metavar="PATH",
                        help="run one short traced simulation and write the "
                             "per-µop pipeline timeline to PATH "
                             "(implies --obs)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the final metrics registry as a "
                             "Prometheus text exposition (v0.0.4) to PATH "
                             "(implies --obs)")
    parser.add_argument("--bank-telemetry", action="store_true",
                        help="sample every predictor table bank during the "
                             "h2p experiment (occupancy / tag-valid / "
                             "useful-bit snapshots; implies --obs)")
    parser.add_argument("--bank-interval", type=int, default=10_000,
                        metavar="UOPS",
                        help="µ-ops between bank-telemetry snapshots "
                             "(default 10000; only with --bank-telemetry)")
    parser.add_argument("--timeline-format", default="chrome",
                        choices=("chrome", "konata"),
                        help="timeline export format: Chrome trace_event "
                             "JSON for Perfetto (default) or a Konata "
                             "pipeline log")
    parser.add_argument("--resume", default=None, metavar="JOURNAL",
                        help="crash-safe JSONL job journal: checkpoint "
                             "every finished cell there and, if the file "
                             "already holds results from an interrupted "
                             "run, re-run only the unfinished cells")
    parser.add_argument("--chaos", default=None, metavar="SPEC",
                        help="inject deterministic faults, e.g. "
                             "'exception=0.2,crash=0.05,hang=0.1,"
                             "corrupt=0.1,seed=7' (keys: crash, hang, "
                             "exception, corrupt, seed, hang_seconds, "
                             "max_faults)")
    parser.add_argument("--server-url", default=None, metavar="URL",
                        help="execute every sweep against a running sweep "
                             "server (python -m repro.serve) instead of "
                             "locally; the server computes misses on its "
                             "pool, or on its 'python -m repro.dist "
                             "worker' processes while any poll it; "
                             "incompatible with --jobs/--chaos/--resume/"
                             "--cache-dir/--no-cache")
    parser.add_argument("--dist-workers", type=int, default=0, metavar="N",
                        help="run sweeps on distributed workers: embed a "
                             "sweep server and spawn N 'python -m "
                             "repro.dist worker' subprocesses that pull "
                             "its misses and write the shared cache "
                             "(requires the cache; --chaos faults are "
                             "drawn by the server's lease queue)")
    parser.add_argument("--lease-seconds", type=float, default=30.0,
                        metavar="S",
                        help="job lease duration for the embedded "
                             "server (--dist-workers); a lease whose "
                             "worker stops heartbeating for this long is "
                             "re-queued (default 30)")
    args = parser.parse_args()
    if args.obs_out or args.timeline or args.metrics_out or args.bank_telemetry:
        args.obs = True
    if args.bank_interval < 1:
        parser.error(f"--bank-interval must be >= 1, got {args.bank_interval}")

    try:
        validate_experiment_ids(args.skip)
    except ValueError as exc:
        parser.error(str(exc))
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")

    if args.obs:
        obs.enable()

    chaos = None
    journal = None
    cache = None
    backend = None
    dist_server = None
    dist_pool = None
    progress = repro.exec.ProgressMeter()
    use_dist = bool(args.dist_workers)
    if args.dist_workers < 0:
        parser.error(f"--dist-workers must be >= 0, got {args.dist_workers}")
    if use_dist and args.server_url:
        parser.error("--dist-workers embeds its own server; use one "
                     "of --dist-workers / --server-url")
    if use_dist and args.no_cache:
        parser.error("--dist-workers needs the shared result cache "
                     "(its workers write it); drop --no-cache")
    if use_dist and args.batch_variants:
        parser.error("--batch-variants needs local execution (workers own "
                     "the per-job boundary); drop it for distributed runs")
    if args.server_url:
        for flag, conflicting in (("--jobs", args.jobs != 1),
                                  ("--chaos", bool(args.chaos)),
                                  ("--resume", bool(args.resume)),
                                  ("--cache-dir", bool(args.cache_dir)),
                                  ("--no-cache", args.no_cache),
                                  ("--batch-variants", args.batch_variants)):
            if conflicting:
                parser.error(f"{flag} configures local execution and "
                             f"cannot be combined with --server-url "
                             f"(those knobs belong to the server)")
        from repro.serve import ServeBackend
        try:
            backend = ServeBackend(args.server_url)
            health = backend.client.health()
        except ValueError as exc:
            parser.error(str(exc))
        except Exception as exc:
            parser.error(f"no sweep server at {args.server_url}: {exc}")
        print(f"[serve] using server at {args.server_url} "
              f"(code version {health['code_version']}, "
              f"{health['jobs']} server worker(s))")
        repro.exec.configure(progress=progress, backend=backend)
    else:
        if args.chaos:
            from repro.chaos import FaultPlan, parse_chaos_spec
            try:
                config = parse_chaos_spec(args.chaos)
            except ValueError as exc:
                parser.error(str(exc))
            chaos = FaultPlan(config)
            print(f"[exec] chaos enabled: {config}")

        if args.resume:
            from repro.chaos import RunJournal, merge_journals
            _ensure_parent(args.resume)
            journal = RunJournal(args.resume)
            if journal.loaded:
                print(f"[exec] resuming: {journal.loaded} finished job(s) "
                      f"loaded from {args.resume}")
            if journal.skipped_lines:
                print(f"[exec] journal: {journal.skipped_lines} invalid "
                      f"line(s) ignored")
            # A previous distributed run checkpointed per-worker journals
            # next to the driver's; fold them in so their finished jobs
            # count as done no matter which process recorded them.
            workers_dir = _worker_journal_dir(args.resume)
            worker_journals = sorted(workers_dir.glob("*.jsonl"))
            if worker_journals:
                before = len(journal)
                merge_journals(worker_journals, into=journal)
                print(f"[dist] merged {len(worker_journals)} worker "
                      f"journal(s): {len(journal) - before} additional "
                      f"finished job(s)")

        if not args.no_cache:
            # On the distributed path blob corruption is injected by the
            # *workers* (the server ships the verdicts), so the
            # driver's own cache must not double-inject.
            cache = repro.exec.ResultCache(
                root=args.cache_dir, chaos=None if use_dist else chaos
            )

        if use_dist:
            from repro.dist import WorkerPool
            from repro.serve import ServeBackend, ServerThread
            from repro.serve.leases import LeaseQueue, lease_retries
            # The server's own pool computes what the workers cannot
            # finish, with this run's --jobs and --job-timeout; its cache
            # shares the root but keeps its own counters.
            dist_server = ServerThread(
                cache=repro.exec.ResultCache(root=cache.root),
                jobs=args.jobs, timeout=args.job_timeout,
                leases=LeaseQueue(lease_seconds=args.lease_seconds,
                                  retries=lease_retries(chaos), chaos=chaos),
            ).start()
            journal_dir = (_worker_journal_dir(args.resume)
                           if args.resume else None)
            # Returns once every worker has polled, so the first sweep's
            # misses are leased rather than computed on the server's pool.
            dist_pool = WorkerPool(
                dist_server.url, args.dist_workers,
                cache_root=str(cache.root), journal_dir=journal_dir,
            ).start()
            print(f"[dist] embedded sweep server at {dist_server.url}, "
                  f"{args.dist_workers} worker process(es)")
            backend = ServeBackend(dist_server.url)

        retries = max(1, chaos.config.max_faults_per_job) if chaos else 1
        repro.exec.configure(jobs=args.jobs, cache=cache,
                             timeout=args.job_timeout, progress=progress,
                             retries=retries,
                             chaos=None if use_dist else chaos,
                             journal=journal, batch=args.batch_variants,
                             backend=backend)
        if args.batch_variants:
            print("[exec] batched variant sweeps enabled")

    if args.quick:
        spec = RunSpec(
            uops=60_000,
            warmup=20_000,
            workloads=("swim", "wupwise", "bzip2", "gcc",
                       "mcf", "gobmk", "vortex", "libquantum"),
        )
    else:
        spec = RunSpec()

    sections: list[str] = []

    def section(name, fn):
        if name in args.skip:
            print(f"[skip] {name}")
            return
        t0 = time.time()
        print(f"[run ] {name} ...", flush=True)
        sections.append(fn())
        print(f"[done] {name} in {time.time() - t0:.0f}s", flush=True)

    section("table2", lambda: reporting.render_table2(
        experiments.table2_ipc(spec)))
    section("table3", lambda: reporting.render_table3(
        experiments.table3_storage()))
    section("fig5a", lambda: reporting.render_per_workload(
        "Fig 5a — predictors over Baseline_6_60",
        experiments.fig5a(spec), list(FIG5A_PREDICTORS)))

    def fig5b_text():
        r = experiments.fig5b(spec)
        agg = aggregate(r)
        lines = ["Fig 5b — EOLE_4_60 over Baseline_VP_6_60", ""]
        lines += [f"  {n:12s} {v:6.3f}" for n, v in r.items()]
        lines.append(f"  gmean {agg['gmean']:.3f} min {agg['min']:.3f} "
                     f"max {agg['max']:.3f}")
        return "\n".join(lines)

    section("fig5b", fig5b_text)
    section("fig6a", lambda: reporting.render_box_summary(
        "Fig 6a — Npred / size sweep (over EOLE_4_60)",
        experiments.fig6a(spec)))
    section("fig6b", lambda: reporting.render_box_summary(
        "Fig 6b — base/tagged size sweep (over EOLE_4_60)",
        experiments.fig6b(spec)))
    section("partial_strides", lambda: reporting.render_partial_strides(
        experiments.partial_strides(spec)))
    section("fig7a", lambda: reporting.render_box_summary(
        "Fig 7a — recovery policies (over EOLE_4_60)",
        experiments.fig7a(spec)))
    section("fig7b", lambda: reporting.render_box_summary(
        "Fig 7b — window sizes (over EOLE_4_60)",
        experiments.fig7b(spec)))

    def fig8_text():
        r = experiments.fig8(spec)
        order = ["Baseline_VP_6_60", "EOLE_4_60", "Small_4p", "Small_6p",
                 "Medium", "Large"]
        per_workload = {
            w: {c: r[c][w] for c in order} for w in spec.names()
        }
        return reporting.render_per_workload(
            "Fig 8 — final configurations over Baseline_6_60",
            per_workload, order)

    section("fig8", fig8_text)
    if args.obs:
        section("cpi_stack", lambda: reporting.render_cpi_stack(
            experiments.cpi_stack(spec)))
        section("provenance", lambda: reporting.render_provenance(
            experiments.provenance(spec)))
        section("h2p", lambda: reporting.render_h2p(
            experiments.h2p(
                spec,
                bank_interval=(args.bank_interval
                               if args.bank_telemetry else None),
            )))

    report = ("\n\n" + "=" * 78 + "\n\n").join(sections)
    print()
    print(report)
    if args.out:
        _ensure_parent(args.out)
        with open(args.out, "w") as f:
            f.write(report + "\n")
        print(f"\nreport written to {args.out}")

    if args.server_url:
        print(f"\n[serve] client: {progress.summary()}")
        try:
            served = backend.client.metrics().get("serve", {})
            print(f"[serve] server: {served.get('requests', 0)} request(s), "
                  f"{served.get('hits', 0)} hit(s), "
                  f"{served.get('misses', 0)} scheduled, "
                  f"{served.get('dedup', 0)} deduplicated")
        except Exception as exc:                   # summary only — best effort
            print(f"[serve] server metrics unavailable: {exc}")
    else:
        print(f"\n[exec] {args.jobs} worker(s): {progress.summary()}")
    if backend is not None:
        backend.close()
    if cache is not None:
        print(f"[exec] {cache.summary()}")
    if journal is not None:
        print(f"[exec] {journal.summary()}")
        journal.close()
    if chaos is not None:
        print(f"[exec] {chaos.summary()}")

    if use_dist:
        status = None
        try:
            from repro.dist import DistClient
            with DistClient(dist_server.url) as dist_client:
                status = dist_client.dist_status()
        except Exception as exc:               # summary only — best effort
            print(f"[dist] server status unavailable: {exc}")
        dist_pool.stop()
        dist_server.stop()
        if status is not None:
            counters = status.get("counters", {})
            jobs = status.get("jobs", {})
            bits = [f"{counters.get('completions', 0)} completion(s)",
                    f"{counters.get('steals', 0)} steal(s)",
                    f"{counters.get('lease_expired', 0)} expired lease(s)",
                    f"{counters.get('requeues', 0)} requeue(s)"]
            if dist_pool.respawns:
                bits.append(f"{dist_pool.respawns} worker respawn(s)")
            print(f"[dist] {', '.join(bits)}")
            leaked = jobs.get("leased", 0)
            if leaked:
                print(f"[dist] WARNING: {leaked} lease(s) still held at "
                      f"shutdown", file=sys.stderr)

    if args.obs:
        snapshot = obs.registry().snapshot()
        keys = ("exec/job/count", "exec/job/seconds", "exec/job/retries",
                "exec/cache/hits", "exec/cache/misses",
                "bebop/spec_window/uses", "bebop/attribution/misses")
        shown = {k: snapshot[k] for k in keys if k in snapshot}
        print(f"[obs ] {len(snapshot)} metrics; "
              + ", ".join(f"{k}={v:g}" if isinstance(v, float) else f"{k}={v}"
                          for k, v in shown.items()))
        buf = obs.trace()
        if args.obs_out:
            _ensure_parent(args.obs_out)
            records = buf.export_jsonl(
                args.obs_out, header={"kind": "metrics", "metrics": snapshot}
            )
            print(f"[obs ] {records} trace records written to {args.obs_out}"
                  + (f" ({buf.dropped} older events dropped from the ring)"
                     if buf.dropped else ""))
        if args.timeline:
            export_timeline(args.timeline, args.timeline_format, spec)
        if args.metrics_out:
            _ensure_parent(args.metrics_out)
            exposition = obs.registry().to_prometheus()
            with open(args.metrics_out, "w") as f:
                f.write(exposition)
            print(f"[obs ] {len(exposition.splitlines())} Prometheus "
                  f"exposition line(s) written to {args.metrics_out}")
    return 0


def _worker_journal_dir(resume_path: str) -> "Path":
    """Per-worker journals live next to the driver's resume journal in a
    ``<resume>.workers/`` directory, one ``<worker-id>.jsonl`` each."""
    from pathlib import Path
    return Path(resume_path + ".workers")


def _ensure_parent(path: str) -> None:
    """Create the parent directory of an output path when it is missing
    (so `--out sub/dir/report.txt` works on a fresh checkout)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)


def export_timeline(path: str, fmt: str, spec: RunSpec) -> None:
    """One short traced run (BeBoP on EOLE_4_60, first workload of the
    run's suite) recorded per-µop and exported to ``path``."""
    from repro.eval.runner import get_trace, make_bebop_engine, run_bebop_eole
    from repro.obs import TimelineRecorder

    workload = spec.names()[0]
    trace = get_trace(workload, spec.uops)
    rec = TimelineRecorder()
    run_bebop_eole(trace, make_bebop_engine(), spec.warmup, recorder=rec)
    _ensure_parent(path)
    if fmt == "konata":
        lines = rec.export_konata(path)
        print(f"[obs ] {lines} Konata log lines ({workload}, "
              f"{rec.recorded} µops) written to {path}")
    else:
        events = rec.export_chrome(path)
        print(f"[obs ] {events} Chrome trace events ({workload}, "
              f"{rec.recorded} µops, {len(rec.squashes)} squashes) "
              f"written to {path}; open in https://ui.perfetto.dev")


if __name__ == "__main__":
    sys.exit(main())
