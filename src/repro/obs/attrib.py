"""Per-static-PC misprediction-cost attribution.

"Branch Prediction Is Not a Solved Problem" (Lin & Tarsa) observes that
almost all remaining misprediction cost hides in a handful of
hard-to-predict (H2P) static instructions.  This collector makes that
measurable here: it rides a :class:`~repro.pipeline.core.PipelineModel`
run (its ``attrib`` probe) and charges every squash/redirect recovery
cycle — the *same* commit-front deltas the CPI stack attributes to
``vp_squash`` and ``branch_redirect`` — to the static PC of the
mispredicting µ-op.  The pipeline shadows its cause-propagation chain
with the owning PC under the same gating, so per-PC attributed cycles
sum **exactly** to the ``vp_squash + branch_redirect`` CPI-stack
components of the same run (tests enforce this per workload class).

Alongside the cycles, each PC accumulates prediction attempts, used
predictions, squashes, branch executions/mispredicts and a
providing-component histogram (from the PR 3 :class:`~repro.obs.timeline.
Provenance` records, filled whenever attribution rides the run).

Memory stays O(k) on arbitrarily long traces through a bounded
top-k-plus-sampled-tail structure: when the record table exceeds its
limit, everything outside the top ``top_k`` records (ranked by
attributed cycles) is folded into an exact aggregate *tail* — the tail
keeps exact cycle totals (the exact-sum contract survives compaction)
plus a deterministic sample of evicted records for inspection; only
per-PC detail of cold PCs is lost.

Like the CPI-stack collector the attribution is passive: it never reads
or perturbs machine state, so an attributed run's
:class:`~repro.pipeline.stats.SimStats` are bit-identical to a plain
run's, and a run without one costs one boolean check per site.
"""

from __future__ import annotations

#: CPI-stack causes whose recovery cycles are charged to a static PC.
ATTRIBUTED_CAUSES = ("vp_squash", "branch_redirect")


class PCRecord:
    """Everything attributed to one static PC."""

    __slots__ = ("pc", "branches", "branch_mispredicts", "vp_attempts",
                 "vp_used", "vp_squashes", "cycles", "by_cause", "providers")

    def __init__(self, pc: int) -> None:
        self.pc = pc
        self.branches = 0             # conditional-branch executions
        self.branch_mispredicts = 0
        self.vp_attempts = 0          # eligible µ-ops that had a prediction
        self.vp_used = 0              # predictions the FPC gate released
        self.vp_squashes = 0          # wrong used predictions (commit squash)
        self.cycles = 0               # attributed recovery cycles
        self.by_cause: dict[str, int] = {}
        self.providers: dict[int, int] = {}   # provider id -> attempts

    @property
    def kind(self) -> str:
        """µ-op class as seen by the recovery machinery."""
        branch = self.branches > 0
        vp = self.vp_attempts > 0
        if branch and vp:
            return "mixed"
        if branch:
            return "branch"
        if vp:
            return "vp"
        return "other"

    def as_dict(self) -> dict:
        """JSON-ready form (experiment rows, reports)."""
        return {
            "pc": self.pc,
            "kind": self.kind,
            "branches": self.branches,
            "branch_mispredicts": self.branch_mispredicts,
            "vp_attempts": self.vp_attempts,
            "vp_used": self.vp_used,
            "vp_squashes": self.vp_squashes,
            "cycles": self.cycles,
            "by_cause": dict(self.by_cause),
            "providers": {str(p): n for p, n in sorted(self.providers.items())},
        }


class PCAttribution:
    """Bounded per-PC recovery-cost collector (see module docstring).

    ``top_k`` bounds how many exact per-PC records survive a compaction;
    ``limit`` (default ``max(4 * top_k, 128)``) is the table size that
    triggers one.  ``tail_samples`` records evicted into the tail are
    kept verbatim (first evicted wins — deterministic), so a truncated
    run still shows *what kind* of PCs the tail holds.
    """

    def __init__(self, top_k: int = 32, tail_samples: int = 8,
                 limit: int | None = None) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.top_k = top_k
        self.tail_samples = tail_samples
        self.limit = limit if limit is not None else max(4 * top_k, 128)
        if self.limit <= top_k:
            raise ValueError(
                f"limit ({self.limit}) must exceed top_k ({top_k})"
            )
        self._records: dict[int, PCRecord] = {}
        # Exact aggregate of everything compacted away.  tail_pcs counts
        # evictions (a PC evicted twice counts twice — approximate);
        # tail_cycles is exact, which is what the sum contract needs.
        self.tail_cycles = 0
        self.tail_by_cause: dict[str, int] = {}
        self.tail_pcs = 0
        self.tail_sampled: list[PCRecord] = []
        self.compactions = 0
        # Filled by finish().
        self.workload = ""
        self.config = ""
        self.cycles = 0

    # -- recording (called by the pipeline; must stay cheap) ----------------

    def _rec(self, pc: int) -> PCRecord:
        r = self._records.get(pc)
        if r is None:
            if len(self._records) >= self.limit:
                self._compact()
            r = self._records[pc] = PCRecord(pc)
        return r

    def vp_attempt(self, pc: int, provider: int = -1,
                   used: bool = False) -> None:
        r = self._rec(pc)
        r.vp_attempts += 1
        if used:
            r.vp_used += 1
        if provider >= 0:
            r.providers[provider] = r.providers.get(provider, 0) + 1

    def vp_squash(self, pc: int) -> None:
        self._rec(pc).vp_squashes += 1

    def branch(self, pc: int, mispredicted: bool) -> None:
        r = self._rec(pc)
        r.branches += 1
        if mispredicted:
            r.branch_mispredicts += 1

    def account(self, pc: int, cause: str, delta: int) -> None:
        """Charge ``delta`` recovery cycles of ``cause`` to ``pc``."""
        r = self._rec(pc)
        r.cycles += delta
        r.by_cause[cause] = r.by_cause.get(cause, 0) + delta

    def _rank_key(self, r: PCRecord):
        # Costliest first; deterministic tiebreak by PC.
        return (-r.cycles, -(r.vp_squashes + r.branch_mispredicts),
                -(r.vp_attempts + r.branches), r.pc)

    def _compact(self) -> None:
        ranked = sorted(self._records.values(), key=self._rank_key)
        for r in ranked[self.top_k:]:
            self.tail_cycles += r.cycles
            for cause, cycles in r.by_cause.items():
                self.tail_by_cause[cause] = (
                    self.tail_by_cause.get(cause, 0) + cycles
                )
            self.tail_pcs += 1
            if len(self.tail_sampled) < self.tail_samples:
                self.tail_sampled.append(r)
        self._records = {r.pc: r for r in ranked[: self.top_k]}
        self.compactions += 1

    def finish(self, stats) -> None:
        """Seal against a finished run's :class:`SimStats` (mirrors
        :meth:`~repro.obs.cpi.CPIStackCollector.finish`)."""
        self.workload = stats.workload
        self.config = stats.config
        self.cycles = stats.cycles

    # -- reading ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def top(self, n: int | None = None) -> list[PCRecord]:
        """Records ranked costliest-first (all of them when ``n`` is None)."""
        ranked = sorted(self._records.values(), key=self._rank_key)
        return ranked if n is None else ranked[:n]

    def total_cycles(self) -> int:
        """All attributed recovery cycles — exactly the run's
        ``vp_squash + branch_redirect`` CPI-stack components."""
        return sum(r.cycles for r in self._records.values()) + self.tail_cycles

    def cause_cycles(self) -> dict[str, int]:
        """Attributed cycles per cause, tail included."""
        out = dict.fromkeys(ATTRIBUTED_CAUSES, 0)
        for r in self._records.values():
            for cause, cycles in r.by_cause.items():
                out[cause] = out.get(cause, 0) + cycles
        for cause, cycles in self.tail_by_cause.items():
            out[cause] = out.get(cause, 0) + cycles
        return out

    def share(self, n: int) -> float:
        """Fraction of attributed cycles the ``n`` costliest PCs own
        (0.0 when nothing was attributed)."""
        total = self.total_cycles()
        if not total:
            return 0.0
        return sum(r.cycles for r in self.top(n)) / total

    def summary(self, top: int = 10, shares: tuple[int, ...] = (1, 5, 10)
                ) -> dict:
        """JSON-ready roll-up (what the ``h2p`` experiment rows carry)."""
        return {
            "workload": self.workload,
            "config": self.config,
            "cycles": self.cycles,
            "attributed_cycles": self.total_cycles(),
            "by_cause": self.cause_cycles(),
            "pcs": [r.as_dict() for r in self.top(top)],
            "distinct_pcs": len(self._records),
            "shares": {n: self.share(n) for n in shares},
            "tail": {
                "cycles": self.tail_cycles,
                "by_cause": dict(self.tail_by_cause),
                "evictions": self.tail_pcs,
                "compactions": self.compactions,
                "sampled": [r.as_dict() for r in self.tail_sampled],
            },
        }
