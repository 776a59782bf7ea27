"""Content-addressed on-disk result store with payload integrity checking.

Finished cells never recompute: results are JSON blobs keyed by the
:meth:`JobSpec.digest` under a per-code-version directory, so

* a warm re-run of ``examples/run_experiments.py`` costs file reads only;
* bumping :data:`CODE_VERSION` (whenever simulator semantics change in a
  way that alters results) orphans every old blob instead of serving
  stale numbers — old version directories can simply be deleted;
* ``rm -rf ~/.cache/repro-bebop`` (or the directory named by
  ``$REPRO_BEBOP_CACHE``) is always a safe full invalidation.

Writes are atomic (temp file + rename, with the temp file unlinked even
when serialization dies mid-way) so a crashed or parallel writer can never
leave a half-written blob that a later reader trusts.  Every blob carries
a sha256 checksum of its ``{"spec", "stats"}`` payload, verified on
:meth:`ResultCache.get`: a blob that fails to parse *or* fails its
checksum is treated as a miss and **quarantined** into a ``corrupt/``
subdirectory — never silently deleted — so corruption stays diagnosable
(``exec/cache/corrupt`` counts each quarantine).  The optional ``chaos``
hook lets a :class:`repro.chaos.FaultPlan` corrupt freshly written blobs
on purpose, which is how the chaos suite proves all of the above.

The store is built to be **shared**: blobs are sharded into 256
subdirectories by the first two hex digits of their digest (so thousands
of concurrent :mod:`repro.serve` clients never contend on one flat
directory), legacy flat blobs are migrated into their shards the first
time a cache is opened on an old root, and every maintenance scan
(:meth:`prune`, :meth:`clear`, the stale-tmp sweep) tolerates entries
vanishing underneath it — another process pruning the same root is
ordinary operation, not an error.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

import repro.obs as obs
from repro.pipeline import SimStats
from repro.exec.jobs import JobSpec, stats_from_dict, stats_to_dict

#: Salt mixed into every cache path.  Bump on any change to the simulator
#: that alters results for an unchanged JobSpec, or to the blob format.
#: ("2": blobs gained the sha256 payload checksum.)
CODE_VERSION = "2"

#: Environment variable overriding the default cache root.
CACHE_ENV = "REPRO_BEBOP_CACHE"

#: Generic shared-root override: lets a :mod:`repro.serve` server and its
#: CLI clients point at one cache root without threading ``--cache-dir``
#: through every entry point.  Consulted after :data:`CACHE_ENV`.
CACHE_ENV_SHARED = "REPRO_CACHE_DIR"

#: Subdirectory (under the version dir) quarantined corrupt blobs go to.
QUARANTINE_DIR = "corrupt"

#: Blobs are sharded by this many leading hex digits of the digest.
SHARD_CHARS = 2

#: Glob matching blob paths across every shard directory.
_SHARD_GLOB = "[0-9a-f]" * SHARD_CHARS + "/*.json"


def default_cache_root() -> Path:
    """The cache root, resolved with documented precedence.

    1. an explicit ``root=`` argument (the caller never reaches here);
    2. ``$REPRO_BEBOP_CACHE`` — the project-specific override;
    3. ``$REPRO_CACHE_DIR`` — the generic shared-root override, meant for
       pointing a sweep server and many CLI clients at one root;
    4. ``~/.cache/repro-bebop``.
    """
    for env in (CACHE_ENV, CACHE_ENV_SHARED):
        value = os.environ.get(env)
        if value:
            return Path(value)
    return Path.home() / ".cache" / "repro-bebop"


def payload_checksum(payload: dict) -> str:
    """sha256 over the canonical JSON of a ``{"spec", "stats"}`` payload.

    The same canonicalisation (sorted keys, tight separators) is used by
    the result cache and the run journal, so a record can be verified by
    whichever layer reads it back.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class ResultCache:
    """JSON-blob store consulted before dispatch, written after completion.

    Counters (``hits`` / ``misses`` / ``stores`` / ``evictions`` /
    ``corrupt``) cover the lifetime of this instance; :meth:`summary`
    renders them for reports.  ``max_entries`` bounds the version
    directory — oldest blobs (by mtime) are evicted once the bound is
    exceeded.  ``chaos`` is an optional :class:`repro.chaos.FaultPlan`
    that may deliberately corrupt blobs right after they are stored
    (``None``, the default, costs one attribute check).
    """

    def __init__(
        self,
        root: str | os.PathLike | None = None,
        version: str = CODE_VERSION,
        max_entries: int | None = None,
        chaos=None,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_root()
        self.version = version
        self.dir = self.root / f"v{version}"
        self.max_entries = max_entries
        self.chaos = chaos
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        self.corrupt = 0
        self._migrate_flat_blobs()
        self._sweep_stale_tmp()

    def _migrate_flat_blobs(self) -> None:
        """Move legacy flat ``<digest>.json`` blobs into their shards.

        Caches written before sharding kept every blob directly under the
        version directory; opening such a root migrates them in place
        (atomic per-blob rename) so old results keep being served.  A
        concurrent migrator racing on the same root is harmless: whoever
        renames first wins, the loser's source has simply vanished.
        """
        if not self.dir.is_dir():
            return
        for path in self.dir.glob("*.json"):
            shard = self.dir / path.name[:SHARD_CHARS]
            try:
                shard.mkdir(parents=True, exist_ok=True)
                os.replace(path, shard / path.name)
            except OSError:  # pragma: no cover - racing migrator, fine
                pass

    def _sweep_stale_tmp(self) -> None:
        """Remove ``*.tmp<pid>`` litter a crashed writer may have left."""
        if not self.dir.is_dir():
            return
        for pattern in ("*.tmp*", "[0-9a-f]" * SHARD_CHARS + "/*.tmp*"):
            for path in self.dir.glob(pattern):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing writer, fine
                    pass

    def _path(self, spec: JobSpec) -> Path:
        return self.blob_path(spec.digest())

    def blob_path(self, digest: str) -> Path:
        """The sharded on-disk path a digest's blob lives (or would live) at.

        Public because distributed workers need the location of a blob
        they just stored — e.g. to apply a server-shipped chaos
        corruption verdict to the file — without re-deriving the sharding
        rule.  The path is returned whether or not a blob exists there.
        """
        return self.dir / digest[:SHARD_CHARS] / f"{digest}.json"

    def _blobs(self):
        """Every stored blob path, across all shard directories."""
        return self.dir.glob(_SHARD_GLOB)

    @property
    def quarantine_dir(self) -> Path:
        """Where corrupt blobs are preserved for diagnosis."""
        return self.dir / QUARANTINE_DIR

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt blob aside (never serve it, never destroy it)."""
        try:
            qdir = self.quarantine_dir
            qdir.mkdir(parents=True, exist_ok=True)
            os.replace(path, qdir / path.name)
        except OSError:
            # Cannot preserve it (e.g. the file vanished or the move
            # failed): at least make sure it is never read again.
            path.unlink(missing_ok=True)
        self.corrupt += 1
        obs.counter("exec/cache/corrupt").inc()

    def get(self, spec: JobSpec) -> SimStats | None:
        """The cached result of ``spec``, or ``None`` on a miss.

        Integrity is verified end to end: the blob must parse, carry a
        checksum, and the checksum must match the payload.  Anything less
        is quarantined and reported as a miss.
        """
        blob = self._read_verified(self._path(spec))
        if blob is None:
            return None
        return stats_from_dict(blob["stats"])

    def get_blob(self, digest: str) -> dict | None:
        """The verified ``{"spec", "stats", "sha256"}`` blob of a digest.

        The digest-keyed twin of :meth:`get`, for callers — the
        :mod:`repro.serve` result route — that hold only the content
        address, not the spec.  Counts hits/misses exactly like
        :meth:`get`.
        """
        return self._read_verified(self.blob_path(digest))

    def _read_verified(self, path: Path) -> dict | None:
        """Read + integrity-check one blob; quarantine anything broken."""
        try:
            with open(path, "rb") as f:
                raw = f.read()
        except FileNotFoundError:
            self.misses += 1
            obs.counter("exec/cache/misses").inc()
            return None
        except OSError:  # pragma: no cover - unreadable mount etc.
            self.misses += 1
            obs.counter("exec/cache/misses").inc()
            return None
        try:
            blob = json.loads(raw)
            payload = {"spec": blob["spec"], "stats": blob["stats"]}
            if blob.get("sha256") != payload_checksum(payload):
                raise ValueError("payload checksum mismatch")
            stats_from_dict(blob["stats"])
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                TypeError, ValueError):
            # Corrupt, truncated or foreign blob: quarantine + recompute.
            self._quarantine(path)
            self.misses += 1
            obs.counter("exec/cache/misses").inc()
            return None
        self.hits += 1
        obs.counter("exec/cache/hits").inc()
        return blob

    def put(self, spec: JobSpec, stats: SimStats) -> None:
        """Store a finished result (atomic: temp file + rename)."""
        path = self._path(spec)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"spec": spec.as_dict(), "stats": stats_to_dict(stats)}
        blob = dict(payload, sha256=payload_checksum(payload))
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        try:
            with open(tmp, "w") as f:
                json.dump(blob, f)
            os.replace(tmp, path)
        finally:
            # After a successful replace the temp name is gone; this only
            # fires when serialization or the write itself raised mid-way.
            tmp.unlink(missing_ok=True)
        self.stores += 1
        obs.counter("exec/cache/stores").inc()
        if self.chaos is not None:
            self.chaos.corrupt_blob(path, spec.digest())
        if self.max_entries is not None:
            self.prune(self.max_entries)

    def prune(self, max_entries: int) -> int:
        """Evict oldest blobs until at most ``max_entries`` remain.

        Tolerates concurrent deleters (another client pruning the same
        shared root): a blob that vanishes between the scan and the stat
        or unlink simply does not count as one of *our* evictions.
        """
        blobs = []
        for path in self._blobs():
            try:
                blobs.append((path.stat().st_mtime, path.name, path))
            except FileNotFoundError:
                continue
        blobs.sort()
        evicted = 0
        for _, _, path in blobs[: max(0, len(blobs) - max_entries)]:
            try:
                path.unlink()
            except FileNotFoundError:
                continue
            evicted += 1
        self.evictions += evicted
        if evicted:
            obs.counter("exec/cache/evictions").inc(evicted)
        return evicted

    def clear(self) -> int:
        """Remove every blob of this cache's version; returns the count.

        Like :meth:`prune`, entries deleted underneath us by a concurrent
        client are skipped, not fatal.
        """
        removed = 0
        if self.dir.is_dir():
            for path in self._blobs():
                try:
                    path.unlink()
                except FileNotFoundError:
                    continue
                removed += 1
        return removed

    def __len__(self) -> int:
        if not self.dir.is_dir():
            return 0
        return sum(1 for _ in self._blobs())

    def summary(self) -> str:
        text = (
            f"cache {self.dir}: {self.hits} hits, {self.misses} misses, "
            f"{self.stores} stored, {self.evictions} evicted"
        )
        if self.corrupt:
            text += f", {self.corrupt} quarantined"
        return text
