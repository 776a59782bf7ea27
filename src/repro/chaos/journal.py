"""Crash-safe sweep checkpointing: the per-run JSONL job journal.

A :class:`RunJournal` records one JSON line per finished job — digest,
spec, stats, and a sha256 payload checksum — flushed and fsynced as it is
appended, so the journal on disk is always a consistent prefix of the
sweep no matter how the process dies (OOM kill, ``kill -9``, power loss).
Re-attaching the same journal path resumes the sweep: finished jobs are
answered from the journal (their JSON round-trip is exact, so resumed
results are bit-identical to uninterrupted ones) and only unfinished jobs
are re-queued.  Records carry the :data:`repro.exec.cache.CODE_VERSION`
salt; a journal written by a semantically different simulator build is
ignored rather than trusted.

:func:`resume_guard` is the interactive half: it traps SIGINT/SIGTERM
around a journaled sweep so a Ctrl-C (or a polite ``kill``) flushes the
journal and prints the ``--resume`` hint before the process exits.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import threading
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Iterator

import repro.obs as obs

if TYPE_CHECKING:  # pragma: no cover - typing only; avoids an import cycle
    from repro.exec.jobs import JobSpec
    from repro.pipeline import SimStats

#: Journal record layout version (independent of the cache CODE_VERSION).
JOURNAL_SCHEMA = 1


def _exec_jobs():
    """Deferred import: :mod:`repro.exec.jobs` imports the eval runner,
    which would cycle back through this package at import time."""
    import repro.exec.jobs as jobs
    return jobs


def _code_version() -> str:
    from repro.exec.cache import CODE_VERSION
    return CODE_VERSION


def default_journal_path(name: str = "sweep") -> Path:
    """``<cache root>/journals/<name>.jsonl`` — journals live under the
    cache directory so one ``rm -rf`` clears all derived state."""
    from repro.exec.cache import default_cache_root
    return default_cache_root() / "journals" / f"{name}.jsonl"


def read_journal(path: str | os.PathLike, version: str | None = None
                 ) -> tuple[dict[str, tuple[dict, "SimStats"]], int, int]:
    """Read one journal file into ``{digest: (spec_dict, stats)}``.

    Returns ``(records, skipped, duplicates)``.  The validity rules are
    exactly :class:`RunJournal`'s: torn/foreign/other-version lines and
    checksum mismatches are skipped and counted, and only the *first*
    record per digest within one file counts (an append-only journal
    cannot legitimately complete one digest twice).
    """
    from repro.exec.cache import payload_checksum
    jobs = _exec_jobs()
    if version is None:
        version = _code_version()
    records: dict[str, tuple[dict, "SimStats"]] = {}
    skipped = 0
    duplicates = 0
    with open(path, encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                if rec.get("version") != version:
                    skipped += 1
                    continue
                digest = rec["digest"]
                payload = {"spec": rec["spec"], "stats": rec["stats"]}
                if rec.get("sha256") != payload_checksum(payload):
                    skipped += 1
                    continue
                stats = jobs.stats_from_dict(rec["stats"])
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                skipped += 1
                continue
            if digest in records:
                duplicates += 1
                continue
            records[digest] = (rec["spec"], stats)
    return records, skipped, duplicates


class RunJournal:
    """Append-only JSONL record of per-job outcomes, keyed by spec digest.

    Opening an existing path loads every valid record (torn trailing
    lines — the signature of a mid-append crash — are skipped and
    counted, as are records from other code versions or with checksum
    mismatches); :meth:`record` appends exactly one line per digest, so a
    resumed sweep can never journal a duplicate completion.
    """

    def __init__(self, path: str | os.PathLike, version: str | None = None) -> None:
        self.path = Path(path)
        self.version = version if version is not None else _code_version()
        self._done: dict[str, "SimStats"] = {}
        self._fh = None
        self.loaded = 0          # valid records recovered from disk at open
        self.appended = 0        # records written by this instance
        self.hits = 0            # jobs answered from the journal
        self.skipped_lines = 0   # torn/foreign/checksum-failed lines
        self.duplicates = 0      # same-digest lines beyond the first
        if self.path.exists():
            self._load()

    # -- reading -----------------------------------------------------------

    def _load(self) -> None:
        records, self.skipped_lines, self.duplicates = read_journal(
            self.path, self.version
        )
        self._done = {digest: stats for digest, (_, stats) in records.items()}
        self.loaded = len(self._done)

    def get(self, spec: "JobSpec") -> "SimStats | None":
        """The journaled result of ``spec``, or ``None`` if unfinished."""
        stats = self._done.get(spec.digest())
        if stats is not None:
            self.hits += 1
            obs.counter("exec/journal/resumed").inc()
        return stats

    def __len__(self) -> int:
        return len(self._done)

    # -- writing -----------------------------------------------------------

    def record(self, spec: "JobSpec", stats: "SimStats") -> bool:
        """Append one finished job; returns ``False`` if already journaled.

        The line is flushed *and* fsynced before this returns: once a job
        is reported complete, no crash can un-complete it.
        """
        from repro.exec.cache import payload_checksum
        jobs = _exec_jobs()
        digest = spec.digest()
        if digest in self._done:
            return False
        payload = {"spec": spec.as_dict(), "stats": jobs.stats_to_dict(stats)}
        rec = {
            "schema": JOURNAL_SCHEMA,
            "version": self.version,
            "digest": digest,
            "sha256": payload_checksum(payload),
            **payload,
        }
        line = json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n"
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")
        self._fh.write(line)
        self.flush()
        self._done[digest] = stats
        self.appended += 1
        obs.counter("exec/journal/records").inc()
        return True

    def flush(self) -> None:
        """Push appended records to stable storage."""
        if self._fh is not None:
            self._fh.flush()
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    # -- reporting ---------------------------------------------------------

    def summary(self) -> str:
        text = (f"journal {self.path}: {self.loaded} resumed, "
                f"{self.appended} recorded")
        if self.skipped_lines:
            text += f", {self.skipped_lines} invalid line(s) skipped"
        return text

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MergedJournal:
    """Read-only resume view folded from several per-worker journals.

    Duck-types :class:`RunJournal`'s read half (:meth:`get`,
    ``in``, ``len``) so resume logic can consume either.  It owns no file
    handle and refuses :meth:`record` — pass ``into=`` to
    :func:`merge_journals` when the merged state must also be persisted.
    """

    def __init__(self, done: dict, sources: int, skipped_lines: int,
                 duplicates: int) -> None:
        self._done = done
        self.sources = sources
        self.loaded = len(done)
        self.skipped_lines = skipped_lines
        self.duplicates = duplicates
        self.hits = 0

    def get(self, spec: "JobSpec") -> "SimStats | None":
        stats = self._done.get(spec.digest())
        if stats is not None:
            self.hits += 1
            obs.counter("exec/journal/resumed").inc()
        return stats

    def __contains__(self, spec: "JobSpec") -> bool:
        return spec.digest() in self._done

    def __len__(self) -> int:
        return len(self._done)

    def record(self, spec, stats) -> bool:
        raise TypeError(
            "MergedJournal is read-only; merge into a RunJournal "
            "(merge_journals(paths, into=journal)) to record new jobs"
        )

    def summary(self) -> str:
        text = (f"merged journal ({self.sources} source(s)): "
                f"{self.loaded} finished job(s)")
        if self.skipped_lines:
            text += f", {self.skipped_lines} invalid line(s) skipped"
        return text


def merge_journals(paths, into: RunJournal | None = None):
    """Fold multiple per-worker journals into one resume view.

    A distributed sweep writes one journal per worker; on ``--resume`` all
    of them (plus the driver's own) must count as finished work.  Records
    are folded **last-writer-wins on digest** across ``paths`` (in the
    order given — sort paths for a stable fold), and each journal's
    torn/foreign/tampered lines are skipped per file exactly as
    :class:`RunJournal` would.  Results are deterministic per digest, so
    which journal wins never changes the stats — last-writer-wins is
    about surviving duplicated completions, not choosing between answers.

    Without ``into`` the fold is returned as a read-only
    :class:`MergedJournal`.  With ``into`` (a writable
    :class:`RunJournal`), every digest the fold has and ``into`` lacks is
    **appended to it** — the primary journal becomes the consolidated
    resume state, so a later resume needs only that one file — and
    ``into`` is returned.  Paths that do not exist are skipped (a worker
    that never completed a job has no journal); unreadable ones raise.
    """
    folded: dict[str, tuple[dict, "SimStats"]] = {}
    sources = 0
    skipped = 0
    duplicates = 0
    for path in paths:
        path = Path(path)
        if not path.exists():
            continue
        records, file_skipped, file_duplicates = read_journal(path)
        sources += 1
        skipped += file_skipped
        duplicates += file_duplicates
        for digest, rec in records.items():
            if digest in folded:
                duplicates += 1
            folded[digest] = rec          # last writer (later path) wins
    if into is None:
        return MergedJournal(
            {digest: stats for digest, (_, stats) in folded.items()},
            sources, skipped, duplicates,
        )
    jobs = _exec_jobs()
    for digest, (spec_dict, stats) in folded.items():
        if digest not in into._done:
            into.record(jobs.JobSpec.from_dict(spec_dict), stats)
    return into


@contextmanager
def resume_guard(journal: RunJournal, stream=None) -> Iterator[None]:
    """Trap SIGINT/SIGTERM around a journaled sweep.

    Both signals are converted to :class:`KeyboardInterrupt` so ``finally``
    blocks (pool shutdown, file handles) run; on the way out of *any*
    abnormal exit the journal is flushed and a resume hint naming the
    journal path is printed.  Signal handlers can only be installed from
    the main thread — elsewhere the guard degrades to flush-and-hint only.
    """
    out = stream if stream is not None else sys.stderr

    def _to_interrupt(signum, frame):
        raise KeyboardInterrupt(f"signal {signum}")

    previous: dict[int, object] = {}
    if threading.current_thread() is threading.main_thread():
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                previous[sig] = signal.signal(sig, _to_interrupt)
            except (ValueError, OSError):  # pragma: no cover - exotic hosts
                pass
    try:
        yield
    except BaseException:
        journal.flush()
        print(
            f"\n[exec] sweep interrupted — {len(journal)} finished job(s) "
            f"journaled to {journal.path}\n"
            f"[exec] resume with: --resume {journal.path}",
            file=out,
        )
        raise
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
