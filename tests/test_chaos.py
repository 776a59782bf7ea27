"""Tests for repro.chaos: deterministic fault injection, the crash-safe
run journal, and cache integrity under deliberate corruption.

The headline property, asserted end to end: a sweep run under injected
crashes, hangs, transient exceptions, and cache corruption completes with
results **bit-identical** to a fault-free serial run.
"""

import io
import json
import os
import signal
import time

import pytest

import repro.exec
import repro.obs as obs
from repro.chaos import (
    CORRUPT_MODES,
    ChaosConfig,
    FaultAction,
    FaultPlan,
    InjectedFault,
    RunJournal,
    apply_fault,
    parse_chaos_spec,
    resume_guard,
    run_faulted,
)
from repro.eval import experiments
from repro.eval.runner import RunSpec
from repro.exec import JobSpec, ResultCache, Scheduler, baseline_job
from repro.pipeline import SimStats

TINY = RunSpec(uops=4_000, warmup=1_000, workloads=("swim", "gobmk"))


@pytest.fixture(autouse=True)
def _clean_slate():
    """Serial default scheduler and observability off, before and after."""
    repro.exec.reset()
    obs.disable()
    yield
    repro.exec.reset()
    obs.disable()


# ---------------------------------------------------------------------------
# Worker functions: top-level so the parallel paths can pickle them.
# ---------------------------------------------------------------------------

def _fake_job(spec: JobSpec) -> SimStats:
    return SimStats(workload=spec.workload, cycles=spec.uops, insts=2 * spec.uops)


def _specs(n: int) -> list[JobSpec]:
    return [baseline_job("swim", 1_000 + i, 0) for i in range(n)]


# ---------------------------------------------------------------------------
# Configuration and CLI spec parsing
# ---------------------------------------------------------------------------

class TestChaosConfig:
    def test_defaults_are_valid_and_quiet(self):
        config = ChaosConfig()
        assert config.crash_rate == config.hang_rate == 0.0
        assert config.max_faults_per_job == 1

    @pytest.mark.parametrize("field", ["crash_rate", "hang_rate",
                                       "exception_rate", "cache_corrupt_rate"])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(ValueError, match=field):
            ChaosConfig(**{field: 1.5})
        with pytest.raises(ValueError, match=field):
            ChaosConfig(**{field: -0.1})

    def test_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="hang_seconds"):
            ChaosConfig(hang_seconds=0)
        with pytest.raises(ValueError, match="max_faults_per_job"):
            ChaosConfig(max_faults_per_job=-1)


class TestParseChaosSpec:
    def test_aliases(self):
        config = parse_chaos_spec("crash=0.05,hang=0.1,exception=0.2,"
                                  "corrupt=0.3,max_faults=2")
        assert config.crash_rate == 0.05
        assert config.hang_rate == 0.1
        assert config.exception_rate == 0.2
        assert config.cache_corrupt_rate == 0.3
        assert config.max_faults_per_job == 2

    def test_full_field_names_and_hex_seed(self):
        config = parse_chaos_spec("exception_rate=1, seed=0xBEEF, "
                                  "hang_seconds=2.5")
        assert config.exception_rate == 1.0
        assert config.seed == 0xBEEF
        assert config.hang_seconds == 2.5

    def test_empty_spec_is_defaults(self):
        assert parse_chaos_spec("") == ChaosConfig()

    def test_rejects_unknown_key(self):
        with pytest.raises(ValueError, match="unknown chaos spec key"):
            parse_chaos_spec("explode=1")

    def test_rejects_malformed_item(self):
        with pytest.raises(ValueError, match="malformed"):
            parse_chaos_spec("crash")

    def test_out_of_range_value_propagates(self):
        with pytest.raises(ValueError, match="crash_rate"):
            parse_chaos_spec("crash=2.0")


# ---------------------------------------------------------------------------
# FaultPlan determinism
# ---------------------------------------------------------------------------

class TestFaultPlanDeterminism:
    CONFIG = ChaosConfig(seed=7, crash_rate=0.3, hang_rate=0.3,
                         exception_rate=0.3)

    def _verdicts(self, plan, digests):
        return [plan.job_fault(d) for d in digests]

    def test_same_seed_same_verdicts(self):
        digests = [s.digest() for s in _specs(64)]
        a = self._verdicts(FaultPlan(self.CONFIG), digests)
        b = self._verdicts(FaultPlan(self.CONFIG), digests)
        assert a == b
        assert any(v is not None for v in a)      # the rates actually fire
        assert any(v is None for v in a)          # ... and actually miss

    def test_verdicts_independent_of_query_order(self):
        digests = [s.digest() for s in _specs(64)]
        forward = dict(zip(digests, self._verdicts(FaultPlan(self.CONFIG),
                                                   digests)))
        backward = dict(zip(reversed(digests),
                            self._verdicts(FaultPlan(self.CONFIG),
                                           list(reversed(digests)))))
        assert forward == backward

    def test_different_seed_different_plan(self):
        digests = [s.digest() for s in _specs(64)]
        a = self._verdicts(FaultPlan(self.CONFIG), digests)
        other = ChaosConfig(seed=8, crash_rate=0.3, hang_rate=0.3,
                            exception_rate=0.3)
        b = self._verdicts(FaultPlan(other), digests)
        assert a != b

    def test_zero_rates_never_fire(self):
        plan = FaultPlan(ChaosConfig())
        assert all(plan.job_fault(s.digest()) is None for s in _specs(32))
        assert plan.injected == {}

    def test_max_faults_per_job_caps_injection(self):
        plan = FaultPlan(ChaosConfig(exception_rate=1.0, max_faults_per_job=2))
        digest = _specs(1)[0].digest()
        assert plan.job_fault(digest) == FaultAction("exception")
        assert plan.job_fault(digest) == FaultAction("exception")
        assert plan.job_fault(digest) is None     # budget spent
        assert plan._job_faults.get(digest, 0) == 2

    def test_serial_downgrades_crash_and_hang(self):
        plan = FaultPlan(ChaosConfig(crash_rate=1.0))
        digest = _specs(1)[0].digest()
        action = plan.job_fault(digest, serial=True)
        assert action == FaultAction("exception")
        assert plan.injected == {"exception": 1}

    def test_hang_action_carries_duration(self):
        plan = FaultPlan(ChaosConfig(hang_rate=1.0, hang_seconds=123.0))
        action = plan.job_fault(_specs(1)[0].digest())
        assert action == FaultAction("hang", seconds=123.0)

    def test_recovery_accounting(self):
        plan = FaultPlan(ChaosConfig(exception_rate=1.0))
        faulted, clean = (s.digest() for s in _specs(2))
        plan.job_fault(faulted)
        plan.note_outcome(faulted)                # absorbed a fault: recovery
        plan.note_outcome(clean)                  # clean job: not a recovery
        assert plan.recovered == 1
        assert "1 job(s) recovered" in plan.summary()

    def test_corrupt_mode_deterministic(self, tmp_path):
        config = ChaosConfig(cache_corrupt_rate=1.0)
        digest = _specs(1)[0].digest()
        payloads = []
        modes = []
        for run in range(2):
            blob = tmp_path / f"blob{run}.json"
            blob.write_bytes(b'{"spec": 1, "stats": 2}')
            modes.append(FaultPlan(config).corrupt_blob(blob, digest))
            payloads.append(blob.read_bytes())
        assert modes[0] in CORRUPT_MODES
        assert modes == [modes[0]] * 2
        assert payloads[0] == payloads[1]


# ---------------------------------------------------------------------------
# Worker-side verdict execution
# ---------------------------------------------------------------------------

class TestApplyFault:
    def test_exception_raises(self):
        with pytest.raises(InjectedFault):
            apply_fault(FaultAction("exception"))

    def test_hang_sleeps_then_raises(self):
        t0 = time.monotonic()
        with pytest.raises(InjectedFault, match="hang"):
            apply_fault(FaultAction("hang", seconds=0.05))
        assert time.monotonic() - t0 >= 0.05

    def test_run_faulted_without_verdict_runs_payload(self):
        spec = _specs(1)[0]
        assert run_faulted(None, _fake_job, spec) == _fake_job(spec)

    def test_run_faulted_with_verdict_never_reaches_payload(self):
        calls = []
        with pytest.raises(InjectedFault):
            run_faulted(FaultAction("exception"), calls.append, "x")
        assert calls == []


# ---------------------------------------------------------------------------
# Faulted sweeps complete with bit-identical results
# ---------------------------------------------------------------------------

class TestFaultedSweeps:
    def test_serial_sweep_absorbs_exceptions_and_counts_them(self):
        specs = _specs(6)
        clean = Scheduler(job_fn=_fake_job).run(specs)

        obs.enable()
        plan = FaultPlan(ChaosConfig(exception_rate=1.0))
        out = Scheduler(job_fn=_fake_job, retries=1, chaos=plan).run(specs)
        snapshot = obs.registry().snapshot()
        obs.disable()

        assert out == clean
        assert plan.injected == {"exception": len(specs)}
        assert plan.recovered == len(specs)
        assert snapshot["exec/fault/exception"] == len(specs)
        assert snapshot["exec/fault/recovered"] == len(specs)

    def test_parallel_sweep_survives_worker_crashes(self):
        specs = _specs(4)
        clean = Scheduler(job_fn=_fake_job).run(specs)
        plan = FaultPlan(ChaosConfig(crash_rate=1.0))
        out = Scheduler(jobs=2, retries=1, job_fn=_fake_job, chaos=plan).run(specs)
        assert out == clean
        assert plan.injected["crash"] == len(specs)
        assert plan.recovered == len(specs)

    def test_parallel_sweep_survives_hung_workers(self):
        specs = _specs(2)
        clean = Scheduler(job_fn=_fake_job).run(specs)
        plan = FaultPlan(ChaosConfig(hang_rate=1.0, hang_seconds=300.0))
        sched = Scheduler(jobs=2, timeout=1.5, retries=1, job_fn=_fake_job,
                          chaos=plan)
        t0 = time.monotonic()
        out = sched.run(specs)
        assert out == clean
        assert plan.injected["hang"] == len(specs)
        # The injected 300s sleeps were killed, not waited out.
        assert time.monotonic() - t0 < 60

    def test_real_sweep_under_mixed_faults_is_bit_identical(self, tmp_path):
        """The acceptance property: fig5a under crash+hang+exception+cache
        corruption equals the fault-free serial run, bit for bit."""
        repro.exec.reset()
        reference = experiments.fig5a(TINY)

        plan = FaultPlan(ChaosConfig(
            seed=3, crash_rate=0.4, hang_rate=0.3, exception_rate=1.0,
            cache_corrupt_rate=0.5, hang_seconds=0.05,
        ))
        cache = ResultCache(root=tmp_path, chaos=plan)
        repro.exec.configure(jobs=2, retries=1, cache=cache, chaos=plan)
        faulted = experiments.fig5a(TINY)

        assert faulted == reference
        assert sum(plan.injected.values()) > 0    # the storm actually hit
        assert plan.recovered > 0

    def test_completion_needs_retry_budget(self):
        """retries < max_faults_per_job is the documented way to lose."""
        plan = FaultPlan(ChaosConfig(exception_rate=1.0, max_faults_per_job=2))
        with pytest.raises(repro.exec.JobError):
            Scheduler(job_fn=_fake_job, retries=1, chaos=plan).run(_specs(1))


# ---------------------------------------------------------------------------
# Cache integrity: checksums and quarantine
# ---------------------------------------------------------------------------

class TestCacheIntegrity:
    def _store_one(self, tmp_path, chaos=None):
        cache = ResultCache(root=tmp_path, chaos=chaos)
        spec = _specs(1)[0]
        cache.put(spec, _fake_job(spec))
        return cache, spec

    def test_bitflip_is_quarantined_not_deleted(self, tmp_path):
        cache, spec = self._store_one(tmp_path)
        path = cache._path(spec)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        path.write_bytes(bytes(raw))

        assert cache.get(spec) is None
        assert not path.exists()                          # never served again
        assert (cache.quarantine_dir / path.name).exists()  # preserved
        assert cache.corrupt == 1
        assert "1 quarantined" in cache.summary()

    def test_foreign_blob_fails_checksum_not_parse(self, tmp_path):
        """Valid JSON with the wrong payload must be caught by the checksum."""
        cache, spec = self._store_one(tmp_path)
        blob = json.loads(cache._path(spec).read_bytes())
        blob["stats"]["cycles"] += 1                       # plausible tamper
        cache._path(spec).write_text(json.dumps(blob))
        assert cache.get(spec) is None
        assert cache.corrupt == 1

    def test_truncated_blob_is_a_miss(self, tmp_path):
        cache, spec = self._store_one(tmp_path)
        raw = cache._path(spec).read_bytes()
        cache._path(spec).write_bytes(raw[: len(raw) // 2])
        assert cache.get(spec) is None
        assert (cache.quarantine_dir / cache._path(spec).name).exists()

    def test_quarantined_blobs_do_not_count_as_entries(self, tmp_path):
        cache, spec = self._store_one(tmp_path)
        assert len(cache) == 1
        cache._path(spec).write_text("{ not json")
        cache.get(spec)
        assert len(cache) == 0                   # corrupt/ is out of band
        assert cache.prune(0) == 0               # and never pruned

    def test_chaos_corruption_recomputes_then_heals(self, tmp_path):
        """End to end: every stored blob corrupted once; the next sweep
        quarantines + recomputes; the third is served clean from disk."""
        specs = _specs(3)
        plan = FaultPlan(ChaosConfig(cache_corrupt_rate=1.0))
        cache = ResultCache(root=tmp_path, chaos=plan)
        first = Scheduler(cache=cache, job_fn=_fake_job).run(specs)
        assert plan.injected["cache_corrupt"] == len(specs)

        second = Scheduler(cache=cache, job_fn=_fake_job).run(specs)
        assert second == first
        assert cache.corrupt == len(specs)       # all quarantined
        assert cache.stores == 2 * len(specs)    # all recomputed
        # Per-digest corruption is capped, so the re-stored blobs are clean:
        third = Scheduler(cache=cache, job_fn=_fake_job).run(specs)
        assert third == first
        assert cache.hits == len(specs)

    def test_put_never_leaves_tmp_litter(self, tmp_path):
        cache, spec = self._store_one(tmp_path)
        assert list(cache.dir.glob("*.tmp*")) == []


# ---------------------------------------------------------------------------
# RunJournal: crash-safe checkpointing
# ---------------------------------------------------------------------------

class TestRunJournal:
    def test_record_and_reload_roundtrip_exact(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        specs = _specs(3)
        with RunJournal(path) as journal:
            for spec in specs:
                assert journal.record(spec, _fake_job(spec))
            assert journal.appended == 3

        again = RunJournal(path)
        assert again.loaded == 3
        for spec in specs:
            assert again.get(spec) == _fake_job(spec)
        assert again.hits == 3

    def test_duplicate_record_is_refused_once_per_digest(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        spec = _specs(1)[0]
        with RunJournal(path) as journal:
            assert journal.record(spec, _fake_job(spec))
            assert not journal.record(spec, _fake_job(spec))
        assert len(path.read_text().splitlines()) == 1

    def test_torn_tail_is_skipped_not_fatal(self, tmp_path):
        """A crash mid-append leaves a partial last line; reload must
        recover the intact prefix."""
        path = tmp_path / "sweep.jsonl"
        specs = _specs(2)
        with RunJournal(path) as journal:
            for spec in specs:
                journal.record(spec, _fake_job(spec))
        with open(path, "a") as f:
            f.write('{"schema": 1, "version": "2", "digest": "dead')  # torn

        again = RunJournal(path)
        assert again.loaded == 2
        assert again.skipped_lines == 1

    def test_version_salt_rejects_other_builds(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        spec = _specs(1)[0]
        with RunJournal(path, version="0-other-build") as journal:
            journal.record(spec, _fake_job(spec))
        current = RunJournal(path)
        assert current.loaded == 0
        assert current.skipped_lines == 1
        assert current.get(spec) is None

    def test_tampered_record_fails_its_checksum(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        spec = _specs(1)[0]
        with RunJournal(path) as journal:
            journal.record(spec, _fake_job(spec))
        rec = json.loads(path.read_text())
        rec["stats"]["cycles"] += 1
        path.write_text(json.dumps(rec) + "\n")
        assert RunJournal(path).loaded == 0


class TestMergeJournals:
    def _write(self, path, specs):
        with RunJournal(path) as journal:
            for spec in specs:
                journal.record(spec, _fake_job(spec))

    def test_fold_across_workers_last_writer_wins(self, tmp_path):
        from repro.chaos import merge_journals
        specs = _specs(4)
        self._write(tmp_path / "w0.jsonl", specs[:3])   # overlap: specs[2]
        self._write(tmp_path / "w1.jsonl", specs[2:])
        merged = merge_journals([tmp_path / "w0.jsonl",
                                 tmp_path / "w1.jsonl"])
        assert len(merged) == 4
        assert merged.sources == 2
        assert merged.duplicates == 1
        for spec in specs:
            assert spec in merged
            assert merged.get(spec) == _fake_job(spec)

    def test_merged_view_is_read_only(self, tmp_path):
        from repro.chaos import merge_journals
        spec = _specs(1)[0]
        self._write(tmp_path / "w0.jsonl", [spec])
        merged = merge_journals([tmp_path / "w0.jsonl"])
        with pytest.raises(TypeError):
            merged.record(spec, _fake_job(spec))

    def test_torn_and_foreign_lines_skipped_per_journal(self, tmp_path):
        from repro.chaos import merge_journals
        specs = _specs(2)
        self._write(tmp_path / "w0.jsonl", specs)
        with open(tmp_path / "w0.jsonl", "a") as f:
            f.write('{"schema": 1, "version": "2", "digest": "dead')  # torn
        with RunJournal(tmp_path / "w1.jsonl",
                        version="0-other-build") as foreign:
            foreign.record(_specs(3)[2], _fake_job(_specs(3)[2]))
        merged = merge_journals([tmp_path / "w0.jsonl",
                                 tmp_path / "w1.jsonl"])
        assert len(merged) == 2           # foreign-build record not trusted
        assert merged.skipped_lines == 2  # one torn + one foreign

    def test_missing_paths_skipped_into_appends_new_digests(self, tmp_path):
        """merge_journals(paths, into=driver) consolidates worker journals
        into the driver's resume journal — exactly the --resume flow."""
        from repro.chaos import merge_journals
        specs = _specs(4)
        driver_path = tmp_path / "driver.jsonl"
        self._write(driver_path, specs[:2])
        self._write(tmp_path / "w0.jsonl", specs[1:])   # overlap: specs[1]
        driver = RunJournal(driver_path)
        out = merge_journals(
            [tmp_path / "w0.jsonl", tmp_path / "never-spawned.jsonl"],
            into=driver,
        )
        assert out is driver
        assert len(driver) == 4
        driver.close()
        # the consolidated journal alone resumes the full sweep
        again = RunJournal(driver_path)
        assert again.loaded == 4
        for spec in specs:
            assert again.get(spec) == _fake_job(spec)


# ---------------------------------------------------------------------------
# Scheduler + journal: interrupted sweeps resume where they stopped
# ---------------------------------------------------------------------------

def _interrupt_after(n):
    """A job_fn that raises KeyboardInterrupt after ``n`` successes."""
    calls = []

    def job(spec):
        if len(calls) >= n:
            raise KeyboardInterrupt("simulated Ctrl-C")
        calls.append(spec.workload)
        return _fake_job(spec)

    return job, calls


class TestSchedulerResume:
    def test_interrupted_sweep_resumes_only_unfinished_jobs(self, tmp_path):
        path = tmp_path / "sweep.jsonl"
        specs = _specs(5)
        full = Scheduler(job_fn=_fake_job).run(specs)

        job, calls = _interrupt_after(3)
        hint = io.StringIO()
        journal = RunJournal(path)
        with pytest.raises(KeyboardInterrupt):
            with resume_guard(journal, stream=hint):
                Scheduler(job_fn=job, journal=journal).run(specs)
        journal.close()
        assert len(calls) == 3
        assert "3 finished job(s)" in hint.getvalue()
        assert f"--resume {path}" in hint.getvalue()

        resumed_journal = RunJournal(path)
        assert resumed_journal.loaded == 3
        counted = []

        def counting(spec):
            counted.append(spec.workload)
            return _fake_job(spec)

        try:
            out = Scheduler(job_fn=counting, journal=resumed_journal).run(specs)
        finally:
            resumed_journal.close()
        assert out == full                        # bit-identical rows
        assert len(counted) == 2                  # only the unfinished jobs
        assert resumed_journal.hits == 3
        assert len(resumed_journal) == len(specs)

    def test_sigterm_is_trapped_and_prints_hint(self, tmp_path):
        journal = RunJournal(tmp_path / "sweep.jsonl")
        hint = io.StringIO()
        with pytest.raises(KeyboardInterrupt):
            with resume_guard(journal, stream=hint):
                os.kill(os.getpid(), signal.SIGTERM)
                time.sleep(1)                     # give delivery a beat
        assert "resume with" in hint.getvalue()
        # The previous handlers were restored on the way out.
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

    def test_experiments_resume_through_configured_scheduler(self, tmp_path):
        """repro.eval.experiments rides the journal transparently."""
        path = tmp_path / "fig5a.jsonl"
        total = len(TINY.names()) * (1 + len(experiments.FIG5A_PREDICTORS))

        repro.exec.configure(journal=RunJournal(path))
        cold = experiments.fig5a(TINY)
        assert cold.meta["journal_recorded"] == total
        repro.exec.current_scheduler().journal.close()

        journal = RunJournal(path)
        repro.exec.configure(journal=journal)
        warm = experiments.fig5a(TINY)
        assert warm == cold
        assert journal.loaded == total
        assert warm.meta["journal_resumed"] == total
        assert warm.meta["journal_recorded"] == 0
