"""Deterministic fault injection for the execution layer.

The paper's engine is built around recovering from misspeculation; this
module gives the *infrastructure* the same discipline.  A :class:`FaultPlan`
decides — deterministically, from a seed — which jobs of a sweep are hit by
which failure mode:

* ``crash``     — the worker process dies hard (``os._exit``), breaking the
  whole process pool mid-flight;
* ``hang``      — the worker sleeps past the scheduler's job timeout;
* ``exception`` — a transient :class:`InjectedFault` is raised in place of
  the result;
* cache-blob corruption — a just-written result blob is bit-flipped,
  truncated, or replaced with foreign JSON (:meth:`FaultPlan.corrupt_blob`).

Decisions are pure functions of ``(seed, job digest, per-job fault
ordinal)``: they do not depend on pool completion order, worker count, or
wall clock, so the *same* faults fire on every run of the same sweep with
the same seed — a chaos test is exactly as reproducible as the simulation
it perturbs.  The plan itself lives in the scheduler's (parent) process;
workers receive only the picklable :class:`FaultAction` verdict, which
keeps injection trivially consistent across process boundaries.

Every injection increments an ``exec/fault/<kind>`` counter and every job
that completes despite at least one injected fault increments
``exec/fault/recovered``, so observability snapshots account for each
fault and each recovery.  The whole layer follows the ``rec is None``
zero-overhead convention: a scheduler or cache holding ``chaos=None`` pays
one attribute check and nothing else.
"""

from __future__ import annotations

import hashlib
import os
import time
from dataclasses import dataclass, fields

import repro.obs as obs
from repro.common.rng import XorShift64

#: Job-level fault kinds, in the fixed order the plan draws them.
JOB_FAULT_KINDS = ("crash", "hang", "exception")

#: Cache-blob corruption modes :meth:`FaultPlan.corrupt_blob` picks from.
CORRUPT_MODES = ("bitflip", "truncate", "foreign")

#: The foreign blob mode writes valid-but-alien JSON: it parses fine and
#: must be rejected by the cache's payload checksum, not the JSON decoder.
FOREIGN_BLOB = b'{"kind": "chaos-foreign-blob", "stats": {"cycles": 1}}'


class InjectedFault(RuntimeError):
    """A transient failure injected by a :class:`FaultPlan`."""


@dataclass(frozen=True)
class FaultAction:
    """One fault verdict, shipped (picklably) to wherever it must fire."""

    kind: str                 # one of JOB_FAULT_KINDS
    seconds: float = 0.0      # hang duration, for kind == "hang"


@dataclass(frozen=True)
class ChaosConfig:
    """Rates and knobs of a fault plan.

    Rates are independent per-draw probabilities in ``[0, 1]``; at most one
    job fault fires per draw (drawn in ``crash``, ``hang``, ``exception``
    order) and at most :attr:`max_faults_per_job` per job, so a sweep run
    with ``retries >= max_faults_per_job`` is guaranteed to complete.
    """

    seed: int = 0xC4A05
    crash_rate: float = 0.0
    hang_rate: float = 0.0
    exception_rate: float = 0.0
    cache_corrupt_rate: float = 0.0
    hang_seconds: float = 300.0
    max_faults_per_job: int = 1

    def __post_init__(self) -> None:
        for name in ("crash_rate", "hang_rate", "exception_rate",
                     "cache_corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        if self.hang_seconds <= 0:
            raise ValueError(
                f"hang_seconds must be positive, got {self.hang_seconds}"
            )
        if self.max_faults_per_job < 0:
            raise ValueError(
                f"max_faults_per_job must be >= 0, "
                f"got {self.max_faults_per_job}"
            )


#: CLI shorthand aliases accepted by :func:`parse_chaos_spec`.
_SPEC_ALIASES = {
    "crash": "crash_rate",
    "hang": "hang_rate",
    "exception": "exception_rate",
    "corrupt": "cache_corrupt_rate",
    "max_faults": "max_faults_per_job",
}


def parse_chaos_spec(spec: str) -> ChaosConfig:
    """Parse ``"exception=0.2,crash=0.05,seed=7"`` into a :class:`ChaosConfig`.

    Keys are :class:`ChaosConfig` field names or the short aliases
    ``crash`` / ``hang`` / ``exception`` / ``corrupt`` / ``max_faults``.
    """
    known = {f.name for f in fields(ChaosConfig)}
    kwargs: dict[str, float | int] = {}
    for part in filter(None, (p.strip() for p in spec.split(","))):
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(f"malformed chaos spec item {part!r} (want k=v)")
        field = _SPEC_ALIASES.get(key, key)
        if field not in known:
            raise ValueError(
                f"unknown chaos spec key {key!r}; known: "
                f"{', '.join(sorted(known) + sorted(_SPEC_ALIASES))}"
            )
        kwargs[field] = (int(value, 0) if field in ("seed", "max_faults_per_job")
                         else float(value))
    return ChaosConfig(**kwargs)  # type: ignore[arg-type]


class FaultPlan:
    """Seeded, stateful fault oracle for one sweep (or driver run).

    The per-decision randomness is an own :class:`XorShift64` stream seeded
    from ``sha256(seed / scope / digest / ordinal)`` — independent of every
    simulator RNG and of call order, so two plans built from the same
    :class:`ChaosConfig` return identical verdicts for identical jobs.
    State (how many faults each job has absorbed) lives in the parent
    process only; it is what bounds injection so sweeps still complete.
    """

    def __init__(self, config: ChaosConfig | None = None) -> None:
        self.config = config if config is not None else ChaosConfig()
        self._job_faults: dict[str, int] = {}     # digest -> injected so far
        self._cache_faults: dict[str, int] = {}
        self.injected: dict[str, int] = {}        # kind -> total injected
        self.recovered = 0

    # -- the deterministic core -------------------------------------------

    def _stream(self, scope: str, digest: str, ordinal: int) -> XorShift64:
        key = f"{self.config.seed}/{scope}/{digest}/{ordinal}"
        raw = hashlib.sha256(key.encode("utf-8")).digest()
        return XorShift64(int.from_bytes(raw[:8], "big") | 1)

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1
        obs.counter(f"exec/fault/{kind}").inc()

    # -- job faults --------------------------------------------------------

    def job_fault(self, digest: str, serial: bool = False) -> FaultAction | None:
        """The fault (if any) to inject into this execution of ``digest``.

        ``serial`` marks the in-process path, which cannot survive a real
        ``os._exit`` or an unbounded sleep: ``crash`` and ``hang`` verdicts
        are downgraded to transient exceptions there, keeping the injection
        *count* per job identical between serial and parallel runs.
        """
        config = self.config
        ordinal = self._job_faults.get(digest, 0)
        if ordinal >= config.max_faults_per_job:
            return None
        rng = self._stream("job", digest, ordinal)
        kind = None
        for candidate, rate in (("crash", config.crash_rate),
                                ("hang", config.hang_rate),
                                ("exception", config.exception_rate)):
            if rng.chance(rate) and kind is None:
                kind = candidate
        if kind is None:
            return None
        if serial and kind in ("crash", "hang"):
            kind = "exception"
        self._job_faults[digest] = ordinal + 1
        self._count(kind)
        if kind == "hang":
            return FaultAction("hang", seconds=config.hang_seconds)
        return FaultAction(kind)

    def note_outcome(self, digest: str) -> None:
        """A job completed; if it absorbed any fault, count the recovery."""
        if self._job_faults.get(digest, 0):
            self.recovered += 1
            obs.counter("exec/fault/recovered").inc()

    # -- cache corruption --------------------------------------------------

    def corrupt_verdict(self, digest: str) -> str | None:
        """Decide (and account) whether this job's cache blob is corrupted.

        The decision half of :meth:`corrupt_blob`, split out so a
        *server* process can draw the verdict and ship the mode to a
        remote worker as plain data (the worker applies it with
        :func:`corrupt_file` after writing its blob).  Deterministic in
        ``(seed, digest, ordinal)`` like every other verdict.
        """
        config = self.config
        ordinal = self._cache_faults.get(digest, 0)
        if ordinal >= config.max_faults_per_job:
            return None
        rng = self._stream("cache", digest, ordinal)
        if not rng.chance(config.cache_corrupt_rate):
            return None
        mode = CORRUPT_MODES[rng.next_below(len(CORRUPT_MODES))]
        self._cache_faults[digest] = ordinal + 1
        self._count("cache_corrupt")
        return mode

    def corrupt_blob(self, path: os.PathLike | str, digest: str) -> str | None:
        """Maybe corrupt the just-written blob at ``path``; returns the mode.

        Corruption is applied in place (bit flip in the middle byte, hard
        truncation, or replacement with well-formed foreign JSON) so the
        cache's integrity checking — not the filesystem — has to catch it.
        """
        mode = self.corrupt_verdict(digest)
        if mode is not None:
            corrupt_file(path, mode)
        return mode

    # -- reporting ---------------------------------------------------------

    def summary(self) -> str:
        total = sum(self.injected.values())
        kinds = ", ".join(f"{k}={v}" for k, v in sorted(self.injected.items()))
        return (f"chaos seed {self.config.seed:#x}: {total} fault(s) injected"
                + (f" ({kinds})" if kinds else "")
                + f", {self.recovered} job(s) recovered")


def corrupt_file(path: os.PathLike | str, mode: str) -> None:
    """Damage ``path`` in place according to ``mode``."""
    with open(path, "rb") as f:
        raw = f.read()
    if mode == "bitflip" and raw:
        mid = len(raw) // 2
        raw = raw[:mid] + bytes([raw[mid] ^ 0x01]) + raw[mid + 1:]
    elif mode == "truncate":
        raw = raw[: len(raw) // 2]
    else:  # foreign
        raw = FOREIGN_BLOB
    with open(path, "wb") as f:
        f.write(raw)


# ---------------------------------------------------------------------------
# Worker-side execution of a verdict.  Top-level and picklable, like
# repro.exec.jobs.run_job, so ProcessPoolExecutor can ship them.
# ---------------------------------------------------------------------------

def apply_fault(action: FaultAction) -> None:
    """Fire one fault verdict in the current process.

    ``crash`` never returns; ``hang`` sleeps for the action's duration and
    then raises (so an un-timed-out hang still resolves as a transient
    failure rather than a wrong result); ``exception`` raises immediately.
    """
    if action.kind == "crash":
        os._exit(86)
    if action.kind == "hang":
        time.sleep(action.seconds)
        raise InjectedFault(f"injected hang outlived {action.seconds}s")
    raise InjectedFault("injected transient fault")


def run_faulted(action: FaultAction | None, fn, *args):
    """Fire ``action`` (if any) before running the real payload ``fn``.

    With a live verdict the payload is never reached — the faulted
    execution dies, hangs or raises, and the *retry* (submitted without a
    verdict once the job's fault budget is spent) computes the result.
    """
    if action is not None:
        apply_fault(action)
    return fn(*args)
