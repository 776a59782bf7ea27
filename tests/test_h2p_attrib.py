"""Per-PC recovery-cost attribution and table-bank telemetry.

The contracts under test, in order of importance:

* **instrumentation invisibility** — a run with attribution *and* bank
  telemetry riding along produces :class:`SimStats` bit-identical to the
  golden nine-configuration records (same file as
  ``test_golden_identity``);
* **exact-sum** — per-PC attributed cycles sum exactly (not
  approximately) to the ``vp_squash + branch_redirect`` CPI-stack
  components of the same run, per workload class, and the sum survives
  top-k compaction;
* **H2P concentration** — on the ``h2p_hard`` kernel the 10 costliest
  PCs own at least 80% of the squash/redirect cycles (the kernel is
  built so recovery cost concentrates in a handful of µ-ops).
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.eval.runner import (
    RunSpec,
    get_trace,
    make_bebop_engine,
    make_instr_predictor,
    run_baseline,
    run_bebop_eole,
    run_eole_instr_vp,
    run_instr_vp,
)
from repro.obs import (
    ATTRIBUTED_CAUSES,
    BankTelemetry,
    CPIStackCollector,
    PCAttribution,
    Probes,
    TimelineRecorder,
)
from repro.predictors.perpath import PerPathStridePredictor
from repro.workloads.suite import get_spec

_GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_stats.json").read_text()
)

UOPS, WARMUP = 24_000, 8_000


def _run_instrumented(key: str):
    """One golden configuration with all four probes riding along."""
    workload, config = key.split("/")
    trace = get_trace(workload, _GOLDEN["uops"])
    warmup = _GOLDEN["warmup"]
    probes = Probes(
        cpi=CPIStackCollector(),
        recorder=TimelineRecorder(),
        attrib=PCAttribution(),
        banks=BankTelemetry(interval=4_000),
    )
    if config == "baseline":
        stats = run_baseline(trace, warmup, probes)
    elif config == "dvtage":
        stats = run_instr_vp(trace, make_instr_predictor("d-vtage"), warmup,
                             probes)
    elif config == "vtage":
        stats = run_instr_vp(trace, make_instr_predictor("vtage"), warmup,
                             probes)
    elif config == "hybrid":
        stats = run_instr_vp(trace, make_instr_predictor("vtage-2d-stride"),
                             warmup, probes)
    elif config == "perpath":
        stats = run_instr_vp(trace, PerPathStridePredictor(), warmup, probes)
    elif config == "eole-dvtage":
        stats = run_eole_instr_vp(trace, make_instr_predictor("d-vtage"),
                                  warmup, probes)
    elif config == "eole-bebop":
        stats = run_bebop_eole(trace, make_bebop_engine(), warmup, probes)
    else:
        raise ValueError(f"unknown golden config {config!r}")
    return trace, stats, probes


class TestGoldenIdentityInstrumented:
    @pytest.mark.parametrize("key", sorted(_GOLDEN["runs"]))
    def test_attrib_and_banks_are_invisible(self, key):
        trace, stats, probes = _run_instrumented(key)
        assert dataclasses.asdict(stats) == _GOLDEN["runs"][key], (
            f"{key}: the probes perturbed the simulation — observers must "
            "be passive"
        )
        # The exact-sum contract holds on every configuration too.
        want = sum(probes.cpi.stack.components[c] for c in ATTRIBUTED_CAUSES)
        assert probes.attrib.total_cycles() == want
        assert sum(probes.attrib.cause_cycles().values()) == want
        # Every µ-op is recorded, re-fetched instances once more each.
        assert probes.recorder.recorded >= len(trace.uops)
        assert probes.banks.snapshots[-1]["final"]


class TestExactSum:
    #: One representative per workload class, plus the H2P kernel.
    WORKLOADS = ("swim", "gcc", "gobmk", "h2p_hard")

    def test_per_class_sums_match_cpi_stack(self):
        by_class_stack: dict[str, int] = {}
        by_class_attrib: dict[str, int] = {}
        for name in self.WORKLOADS:
            trace = get_trace(name, UOPS)
            cpi = CPIStackCollector()
            attrib = PCAttribution()
            run_bebop_eole(trace, make_bebop_engine(), WARMUP,
                           probes=Probes(cpi=cpi, attrib=attrib))
            category = get_spec(name).category
            want = sum(cpi.stack.components[c] for c in ATTRIBUTED_CAUSES)
            by_class_stack[category] = (
                by_class_stack.get(category, 0) + want
            )
            by_class_attrib[category] = (
                by_class_attrib.get(category, 0) + attrib.total_cycles()
            )
            # Per-cause totals decompose the same way.
            for cause in ATTRIBUTED_CAUSES:
                assert (attrib.cause_cycles()[cause]
                        == cpi.stack.components[cause]), (name, cause)
        assert by_class_attrib == by_class_stack
        assert set(by_class_stack) == {"INT", "FP"}

    def test_baseline_attributes_only_branch_redirects(self):
        trace = get_trace("gobmk", UOPS)
        cpi = CPIStackCollector()
        attrib = PCAttribution()
        run_baseline(trace, WARMUP, probes=Probes(cpi=cpi, attrib=attrib))
        cycles = attrib.cause_cycles()
        assert cycles["vp_squash"] == 0
        assert cycles["branch_redirect"] == cpi.stack.components[
            "branch_redirect"]


class TestH2PKernel:
    def test_top10_own_at_least_80_percent(self):
        trace = get_trace("h2p_hard", UOPS)
        cpi = CPIStackCollector()
        attrib = PCAttribution()
        run_bebop_eole(trace, make_bebop_engine(), WARMUP,
                       probes=Probes(cpi=cpi, attrib=attrib))
        assert attrib.total_cycles() > 0, "kernel must generate recovery cost"
        assert attrib.share(10) >= 0.80
        # The worst PCs are the hard branches / stepping loads by design.
        worst = attrib.top(2)
        assert all(r.cycles > 0 for r in worst)

    def test_summary_shape(self):
        trace = get_trace("h2p_hard", UOPS)
        attrib = PCAttribution()
        stats = run_bebop_eole(trace, make_bebop_engine(), WARMUP,
                               probes=Probes(attrib=attrib))
        s = attrib.summary(top=5)
        assert s["workload"] == stats.workload
        assert s["cycles"] == stats.cycles
        assert len(s["pcs"]) <= 5
        assert set(s["shares"]) == {1, 5, 10}
        assert s["pcs"] == sorted(s["pcs"], key=lambda r: -r["cycles"])
        for rec in s["pcs"]:
            assert rec["kind"] in ("branch", "vp", "mixed", "other")
            assert sum(rec["by_cause"].values()) == rec["cycles"]


class TestCompaction:
    def test_exact_sum_survives_compaction(self):
        attrib = PCAttribution(top_k=2, tail_samples=2, limit=4)
        total = 0
        for pc in range(64):
            attrib.account(pc, "branch_redirect", pc + 1)
            total += pc + 1
        assert attrib.compactions > 0
        assert len(attrib) <= attrib.limit
        assert attrib.total_cycles() == total
        assert attrib.cause_cycles()["branch_redirect"] == total
        assert len(attrib.tail_sampled) <= 2
        assert attrib.share(2) <= 1.0

    def test_fresh_record_is_not_evicted_by_its_own_insert(self):
        # Compaction runs *before* the triggering insert: the new record
        # must survive so its subsequent cycles are never orphaned.
        attrib = PCAttribution(top_k=1, tail_samples=1, limit=2)
        attrib.account(1, "vp_squash", 100)
        attrib.account(2, "vp_squash", 50)
        attrib.account(3, "vp_squash", 10)   # triggers compaction
        assert 3 in attrib._records
        attrib.account(3, "vp_squash", 5)
        assert attrib.total_cycles() == 165

    def test_validation(self):
        with pytest.raises(ValueError, match="top_k"):
            PCAttribution(top_k=0)
        with pytest.raises(ValueError, match="limit"):
            PCAttribution(top_k=8, limit=8)


class TestBankTelemetry:
    def test_bebop_banks_register_and_sample(self):
        trace = get_trace("gcc", UOPS)
        banks = BankTelemetry(interval=4_000)
        run_bebop_eole(trace, make_bebop_engine(), WARMUP,
                       probes=Probes(banks=banks))
        assert set(banks.bank_names) == {"lvt", "vt0", "tagged"}
        assert banks.samples >= 2
        snaps = banks.snapshots
        assert snaps[-1]["final"]
        assert [s["uop"] for s in snaps] == sorted(s["uop"] for s in snaps)
        for snap in snaps:
            for name, bank in snap["banks"].items():
                assert 0.0 <= bank["occupancy"] <= 1.0, name
        # Occupancy only grows as the predictor warms (monotone fill of
        # a cold table is the expected warmup curve shape).
        curve = banks.curve("tagged")
        assert curve[-1][1] >= curve[0][1]
        summary = banks.summary()
        assert summary["interval"] == 4_000
        assert set(summary["banks"]) == {"lvt", "vt0", "tagged"}

    def test_snapshot_bound_decimates(self):
        from repro.common.tables import Field, TableBank
        banks = BankTelemetry(interval=1, max_snapshots=4)
        banks.register("b", TableBank(8, [Field("v")]))
        for i in range(64):
            banks.sample(i)
        assert len(banks.snapshots) <= 4
        assert banks.samples == 64
        assert banks.snapshots[-1]["uop"] == 63

    def test_tag_occupancy_useful_mass_and_age(self):
        """Tagged-bank samples: valid-tag occupancy per component, useful
        mass, and entry age counted in snapshots a tag survived."""
        from repro.common.tables import Field, TableBank
        bank = TableBank(8, [Field("tag", default=-1), Field("useful")])
        banks = BankTelemetry(interval=1)
        banks.register("b", bank, components=2, tag_field="tag",
                       tag_invalid=-1, useful_field="useful")
        # Fill component 0 fully and half of component 1.
        tags, useful = bank.col("tag"), bank.col("useful")
        tags[:6] = [7] * 6
        useful[0] = 3
        snap = banks.sample(0)["banks"]["b"]
        assert [c["occupancy"] for c in snap["components"]] == [1.0, 0.5]
        assert snap["occupancy"] == pytest.approx(0.75)
        assert snap["useful_mass"] == 3
        # Entries whose tag survives age by one per snapshot; a retagged
        # entry restarts at zero.
        banks.sample(1)
        tags[4] = 9
        snap = banks.sample(2)["banks"]["b"]
        assert snap["components"][0]["mean_age"] == 2.0
        assert snap["components"][1]["mean_age"] == 1.0

    def test_register_validation(self):
        from repro.common.tables import Field, TableBank
        banks = BankTelemetry()
        bank = TableBank(8, [Field("v")])
        banks.register("b", bank)
        with pytest.raises(ValueError, match="already registered"):
            banks.register("b", bank)
        with pytest.raises(ValueError, match="split into"):
            banks.register("c", TableBank(9, [Field("v")]), components=2)
        with pytest.raises(ValueError, match="interval"):
            BankTelemetry(interval=0)
