"""Per-µop timeline tracing: recorder semantics, pipeline integration,
provenance analytics and the Chrome/Konata exports."""

import json

import pytest

import repro.obs as obs
from repro.eval.runner import get_trace, make_bebop_engine, run_bebop_eole
from repro.obs import Probes, Provenance, TimelineRecorder, UopTimeline
from repro.obs.timeline import TIMELINE_STAGES, provider_label
from repro.pipeline import BASELINE_6_60, PipelineModel, baseline_vp_6_60
from repro.pipeline.vp import InstructionVPAdapter, PredUse
from repro.predictors import DVTAGEPredictor
from repro.workloads import generate_trace
from repro.workloads.kernels import build_strided_kernel


@pytest.fixture(autouse=True)
def _obs_off():
    yield
    obs.disable()


def _record(rec, n, prov_every=0):
    """n synthetic µ-ops with increasing cycles; every ``prov_every``-th
    carries a provenance record."""
    for i in range(n):
        prov = None
        if prov_every and i % prov_every == 0:
            prov = Provenance(provider=1, conf=3, source="lvt", slot=0,
                              value=i, confident=True, policy="dnrdnr")
        rec.record_uop(i, 0x1000 + 4 * i, 0x1000, i, i + 1, i + 3, i + 4,
                       i + 5, i + 8, prov)


class TestRecorder:
    def test_records_and_lengths(self):
        rec = TimelineRecorder()
        _record(rec, 5)
        assert len(rec) == 5
        assert rec.recorded == 5
        assert rec.dropped == 0
        u = rec.uops()[0]
        assert isinstance(u, UopTimeline)
        assert u.stage_cycles() == {
            "fetch": 0, "decode": 1, "dispatch": 3, "issue": 4,
            "execute": 5, "commit": 8,
        }

    def test_capacity_bound_drops_oldest_first(self):
        rec = TimelineRecorder(capacity=3)
        _record(rec, 10)
        assert len(rec) == 3
        assert rec.recorded == 10
        assert rec.dropped == 7
        assert [u.seq for u in rec.uops()] == [7, 8, 9]

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            TimelineRecorder(capacity=0)

    def test_provider_label(self):
        assert provider_label(0) == "vt0"
        assert provider_label(1) == "t0"
        assert provider_label(6) == "t5"

    def test_squash_and_instant_events(self):
        rec = TimelineRecorder()
        rec.squash(7, 0x40, cycle=100, cost=12, policy="dnrdnr")
        rec.instant("branch_redirect", 50, seq=3)
        assert rec.squashes[0].cost == 12
        assert rec.instants[0]["cycle"] == 50

    def test_squash_cost_summary(self):
        rec = TimelineRecorder()
        for cost in (1, 2, 3, 5, 9):
            rec.squash(0, 0, cycle=0, cost=cost, policy="dnrr")
        s = rec.squash_cost_summary()
        assert s["count"] == 5
        assert s["min"] == 1 and s["max"] == 9
        assert s["mean"] == pytest.approx(4.0)
        # power-of-two ceil buckets: 1, 2, 3→4, 5→8, 9→16
        assert s["histogram"] == {"le_2^0": 1, "le_2^1": 1, "le_2^2": 1,
                                  "le_2^3": 1, "le_2^4": 1}

    def test_empty_squash_summary(self):
        assert TimelineRecorder().squash_cost_summary()["count"] == 0


class TestProvenanceSummary:
    def test_shares_and_accuracy(self):
        rec = TimelineRecorder()
        for verdict, used in (("correct", True), ("correct", True),
                              ("squash", True), ("correct_unused", False)):
            rec.record_uop(0, 0, 0, 0, 0, 0, 0, 0, 0, Provenance(
                provider=2, source="spec_window", used=used, verdict=verdict,
            ))
        rec.record_uop(0, 0, 0, 0, 0, 0, 0, 0, 0, Provenance(
            provider=0, source="lvt", used=True, verdict="correct",
        ))
        rec.record_uop(0, 0, 0, 0, 0, 0, 0, 0, 0, Provenance(
            tag_match=False, verdict="no_prediction",
        ))
        rec.record_uop(0, 0, 0, 0, 0, 0, 0, 0, 0, None)  # not predicted
        s = rec.provenance_summary()
        assert s["predictions"] == 5
        assert s["attribution"] == {"requests": 6, "misses": 1}
        assert s["window"] == {"spec_window": 4, "lvt": 1}
        t1 = s["components"]["t1"]
        assert t1["predictions"] == 4 and t1["used"] == 3
        assert t1["correct"] == 2
        assert t1["share"] == pytest.approx(4 / 5)
        assert t1["accuracy"] == pytest.approx(2 / 3)
        vt0 = s["components"]["vt0"]
        assert vt0["share"] == pytest.approx(1 / 5)
        assert vt0["accuracy"] == 1.0


class TestChromeExport:
    def test_required_keys_and_structure(self, tmp_path):
        rec = TimelineRecorder()
        _record(rec, 4, prov_every=2)
        rec.squash(1, 0x1004, cycle=9, cost=4, policy="dnrdnr")
        rec.instant("branch_redirect", 6, seq=2)
        path = tmp_path / "trace.json"
        n = rec.export_chrome(path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == n
        for e in events:
            for key in ("ph", "ts", "pid", "tid"):
                assert key in e
        # One metadata name record per stage track.
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == set(TIMELINE_STAGES)
        # One complete slice per stage per µ-op.
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == 4 * len(TIMELINE_STAGES)
        assert all(e["dur"] >= 0 for e in slices)
        # Provenance rides the commit-track slice of predicted µ-ops.
        commit_tid = len(TIMELINE_STAGES)
        with_prov = [e for e in slices if "provenance" in e["args"]]
        assert len(with_prov) == 2
        assert all(e["tid"] == commit_tid for e in with_prov)
        assert with_prov[0]["args"]["provenance"]["provider"] == "t0"
        # Squashes and redirects are instant events.
        instants = [e for e in events if e["ph"] == "i"]
        assert {e["name"] for e in instants} == {"vp_squash",
                                                 "branch_redirect"}
        assert doc["otherData"]["uops"] == 4

    def test_counts_dropped_uops(self, tmp_path):
        rec = TimelineRecorder(capacity=2)
        _record(rec, 5)
        doc = rec.to_chrome_trace()
        assert doc["otherData"]["uops"] == 2
        assert doc["otherData"]["dropped_uops"] == 3

    def test_dropped_records_warn_and_count_at_export(self, tmp_path,
                                                      capsys):
        obs.enable()
        try:
            rec = TimelineRecorder(capacity=2)
            _record(rec, 5)
            rec.export_chrome(tmp_path / "trace.json")
            err = capsys.readouterr().err
            assert "3 of 5" in err and "truncated" in err
            assert obs.registry().value("obs/timeline/dropped") == 3
            # The Konata exporter warns (and counts) the same way.
            rec.export_konata(tmp_path / "konata.log")
            assert "3 of 5" in capsys.readouterr().err
            assert obs.registry().value("obs/timeline/dropped") == 6
        finally:
            obs.disable()

    def test_no_warning_without_drops(self, tmp_path, capsys):
        rec = TimelineRecorder()
        _record(rec, 3)
        rec.export_chrome(tmp_path / "trace.json")
        assert capsys.readouterr().err == ""


class TestKonataExport:
    def test_header_and_retirement(self, tmp_path):
        rec = TimelineRecorder()
        _record(rec, 3, prov_every=1)
        rec.uops()[1].prov.verdict = "squash"
        path = tmp_path / "konata.log"
        lines_written = rec.export_konata(path)
        lines = path.read_text().splitlines()
        assert lines_written == len(lines)
        assert lines[0] == "Kanata\t0004"
        assert lines[1].startswith("C=\t")
        retire = [l for l in lines if l.startswith("R\t")]
        assert len(retire) == 3
        # The squashed µ-op retires with flush type 1.
        assert [l.split("\t")[3] for l in retire] == ["0", "1", "0"]
        # Cycle advances are deltas.
        assert all(int(l.split("\t")[1]) > 0 for l in lines
                   if l.startswith("C\t"))


class _LyingAdapter(InstructionVPAdapter):
    """Forces confident wrong predictions: every use squashes."""

    def fetch_group(self, uops, cycle, hist, reuse=None):
        handle = super().fetch_group(uops, cycle, hist, reuse)
        for i, u in enumerate(uops):
            if u.is_vp_eligible and u.value is not None:
                handle.preds[i] = PredUse((u.value + 1) & ((1 << 64) - 1),
                                          True)
        return handle


def _kernel_trace(n=4000):
    kr = build_strided_kernel(seed=1, trip=16)
    return generate_trace(kr.program, n, init_mem=kr.init_mem)


class TestPipelineIntegration:
    def test_stats_bit_identical_with_recorder(self):
        trace = _kernel_trace()
        adapter = InstructionVPAdapter(DVTAGEPredictor())
        plain = PipelineModel(baseline_vp_6_60(), adapter).run(
            trace, warmup_uops=500
        )
        rec = TimelineRecorder()
        adapter2 = InstructionVPAdapter(DVTAGEPredictor())
        traced = PipelineModel(baseline_vp_6_60(), adapter2).run(
            trace, warmup_uops=500, probes=Probes(recorder=rec)
        )
        assert plain == traced
        assert rec.recorded == len(trace.uops)

    def test_stage_cycles_monotonic(self):
        trace = _kernel_trace()
        rec = TimelineRecorder()
        PipelineModel(BASELINE_6_60).run(trace, probes=Probes(recorder=rec))
        for u in rec.uops():
            assert (u.fetch <= u.decode <= u.dispatch <= u.issue
                    <= u.complete <= u.commit)

    def test_instr_vp_provenance_and_verdicts(self):
        trace = _kernel_trace()
        rec = TimelineRecorder()
        adapter = InstructionVPAdapter(DVTAGEPredictor())
        stats = PipelineModel(baseline_vp_6_60(), adapter).run(
            trace, probes=Probes(recorder=rec)
        )
        provs = [u.prov for u in rec.uops() if u.prov is not None]
        assert provs, "D-VTAGE predicted nothing on a strided kernel"
        assert all(p.source == "inst" for p in provs)
        used_correct = sum(1 for p in provs if p.verdict == "correct")
        assert used_correct == stats.vp_used_correct  # warmup=0: 1:1
        squashed = sum(1 for p in provs if p.verdict == "squash")
        assert squashed == stats.vp_squashes

    def test_forced_squashes_recorded_with_cost(self):
        trace = _kernel_trace(3000)
        rec = TimelineRecorder()
        stats = PipelineModel(
            baseline_vp_6_60(), _LyingAdapter(DVTAGEPredictor())
        ).run(trace, probes=Probes(recorder=rec))
        assert stats.vp_squashes > 100
        assert len(rec.squashes) == stats.vp_squashes
        # Cost spans result-complete to the refetch barrier: >= the
        # back-end depth, since validation happens at commit.
        assert all(s.cost >= 1 for s in rec.squashes)
        assert rec.squash_cost_summary()["count"] == stats.vp_squashes

    def test_provenance_disabled_when_recorder_absent(self):
        trace = _kernel_trace(1000)
        adapter = InstructionVPAdapter(DVTAGEPredictor())
        model = PipelineModel(baseline_vp_6_60(), adapter)
        rec = TimelineRecorder()
        model.run(trace, probes=Probes(recorder=rec))
        assert adapter._prov is True
        model.run(trace)  # next untraced run switches provenance back off
        assert adapter._prov is False


class TestBeBoPIntegration:
    def test_provenance_counts_match_metrics(self):
        trace = get_trace("gcc", 12_000)
        obs.enable()
        rec = TimelineRecorder()
        run_bebop_eole(trace, make_bebop_engine(), 3_000,
                       probes=Probes(recorder=rec))
        snapshot = obs.registry().snapshot()
        obs.disable()
        summary = rec.provenance_summary()
        assert summary["predictions"] > 0
        # Per-component counts sum to the registry's provider counters.
        reg_counts = {
            name.split("/")[2]: value
            for name, value in snapshot.items()
            if name.startswith("bebop/provider/")
        }
        prov_counts = {
            comp: row["predictions"]
            for comp, row in summary["components"].items()
        }
        assert prov_counts == reg_counts
        assert sum(prov_counts.values()) == summary["predictions"]
        assert (summary["attribution"]["requests"]
                == snapshot["bebop/attribution/requests"])
        assert (summary["attribution"]["misses"]
                == snapshot.get("bebop/attribution/misses", 0))

    def test_every_attributed_uop_has_block_provenance(self):
        trace = get_trace("swim", 8_000)
        rec = TimelineRecorder()
        stats = run_bebop_eole(trace, make_bebop_engine(), 0,
                               probes=Probes(recorder=rec))
        matched = [u.prov for u in rec.uops()
                   if u.prov is not None and u.prov.tag_match]
        assert len(matched) == stats.vp_predicted
        assert all(p.source in ("spec_window", "lvt", "cold", "reuse")
                   for p in matched)
        assert all(p.slot >= 0 for p in matched)
        assert all(p.policy == "dnrdnr" for p in matched)
        # Spec-window anchors name the providing in-flight instance.
        spec = [p for p in matched if p.source == "spec_window"]
        assert spec and all(p.spec_seq is not None for p in spec)

    def test_bebop_stats_bit_identical_with_recorder(self):
        trace = get_trace("mcf", 10_000)
        plain = run_bebop_eole(trace, make_bebop_engine(), 2_000)
        rec = TimelineRecorder()
        traced = run_bebop_eole(trace, make_bebop_engine(), 2_000,
                                probes=Probes(recorder=rec))
        assert plain == traced

    def test_chrome_export_of_real_run_is_valid(self, tmp_path):
        trace = get_trace("gcc", 12_000)
        rec = TimelineRecorder()
        run_bebop_eole(trace, make_bebop_engine(), 3_000,
                       probes=Probes(recorder=rec))
        assert rec.recorded >= 10_000
        path = tmp_path / "timeline.json"
        rec.export_chrome(path)
        doc = json.loads(path.read_text())
        assert all(k in e for e in doc["traceEvents"]
                   for k in ("ph", "ts", "pid", "tid"))
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == rec.recorded * len(TIMELINE_STAGES)


class TestProvenanceExperiment:
    def test_provenance_experiment_runs(self):
        from repro.eval.experiments import provenance
        from repro.eval.reporting import render_provenance
        from repro.eval.runner import RunSpec

        result = provenance(RunSpec(uops=8_000, warmup=2_000,
                                    workloads=("swim",)))
        row = result["swim"]
        assert row["predictions"] > 0
        assert set(row["squash_cost"]) == {"ideal", "repred", "dnrdnr",
                                           "dnrr"}
        text = render_provenance(result)
        assert "swim" in text
        assert "dnrr" in text
