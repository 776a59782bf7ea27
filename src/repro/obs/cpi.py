"""CPI-stack accounting for the trace-driven pipeline model.

The timing model commits µ-ops in order and ``stats.cycles`` is exactly the
advance of the commit front over the measured window.  The collector
exploits that: every time the commit front moves forward by ``delta``
cycles, those cycles are attributed to the *dominant cause* of the gap —
why the committing µ-op finished as late as it did — so the per-cause
components **sum exactly to** ``stats.cycles`` by construction (the
property :func:`CPIStack.check` enforces and the tests assert).

Causes follow the classic top-down breakdown, adapted to this model's
events:

``base``
    Issue/commit bandwidth, dependence chains on single-cycle ops, L1-hit
    load latency — cycles the paper's Baseline_6_60 pays by design.
``icache``
    Front end stalled on an instruction-block miss.
``branch_redirect`` / ``btb_redirect`` / ``vp_squash``
    Fetch barriers: conditional-branch mispredictions resolved at execute,
    BTB misses on taken branches at decode, and commit-time value
    misprediction squashes (the cost BeBoP's recovery policies trade).
``backend_full``
    Dispatch blocked on ROB / IQ / LQ / SQ occupancy.
``memory``
    Load misses (beyond the L1 hit latency), store-forwarding waits, and
    dependence chains rooted in them.
``fu``
    Functional-unit contention and long execution latencies (DIV, FP).

Attribution is a heuristic — overlapped stalls have no unique owner — but
the *total* is exact, deltas are assigned deterministically, and dependence
chains inherit their root cause (a consumer waiting on a load miss counts
as ``memory``, not ``base``), which is what makes the stack actionable.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Component order used by every renderer and JSONL export.
CPI_COMPONENTS = (
    "base",
    "icache",
    "branch_redirect",
    "btb_redirect",
    "vp_squash",
    "backend_full",
    "memory",
    "fu",
)


@dataclass
class CPIStack:
    """One run's finished cycle breakdown."""

    workload: str = ""
    config: str = ""
    cycles: int = 0
    insts: int = 0
    components: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(CPI_COMPONENTS, 0)
    )

    @property
    def cpi(self) -> float:
        return self.cycles / self.insts if self.insts else 0.0

    def fraction(self, cause: str) -> float:
        return self.components[cause] / self.cycles if self.cycles else 0.0

    def check(self) -> None:
        """Raise unless the components sum exactly to ``cycles``."""
        total = sum(self.components.values())
        if total != self.cycles:
            raise AssertionError(
                f"CPI stack for {self.workload}/{self.config} sums to "
                f"{total}, expected cycles={self.cycles}"
            )

    def as_dict(self) -> dict:
        """JSON-ready form (component order preserved)."""
        return {
            "workload": self.workload,
            "config": self.config,
            "cycles": self.cycles,
            "insts": self.insts,
            "components": {c: self.components[c] for c in CPI_COMPONENTS},
        }


class CPIStackCollector:
    """Accumulates commit-front advances, one dominant cause per delta.

    The pipeline model calls :meth:`account` once per measured µ-op whose
    commit moved the commit front, and :meth:`finish` once at the end of
    the run.  The collector is passive — it never reads or perturbs machine
    state — which is why obs-enabled runs produce bit-identical
    :class:`~repro.pipeline.stats.SimStats`.
    """

    __slots__ = ("components", "stack")

    def __init__(self) -> None:
        self.components: dict[str, int] = dict.fromkeys(CPI_COMPONENTS, 0)
        self.stack: CPIStack | None = None

    def account(self, cause: str, delta: int) -> None:
        self.components[cause] += delta

    def finish(self, stats) -> CPIStack:
        """Seal the stack against a finished run's :class:`SimStats`.

        ``stats.cycles`` is clamped to ``max(1, ...)`` by the model; when
        the measured window committed nothing the clamp cycle lands in
        ``base`` so the exact-sum invariant holds unconditionally.
        """
        total = sum(self.components.values())
        if total < stats.cycles:
            self.components["base"] += stats.cycles - total
        self.stack = CPIStack(
            workload=stats.workload,
            config=stats.config,
            cycles=stats.cycles,
            insts=stats.insts,
            components=dict(self.components),
        )
        self.stack.check()
        return self.stack
