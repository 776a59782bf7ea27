"""Tests for SimStats, the gmean helper and CoreConfig."""

import pytest

from repro.pipeline.config import (
    BASELINE_6_60,
    ConfigError,
    baseline_vp_6_60,
    eole_4_60,
)
from repro.pipeline.stats import SimStats, gmean


class TestSimStats:
    def test_ipc(self):
        s = SimStats(cycles=100, insts=150, uops=200)
        assert s.ipc == 1.5

    def test_zero_cycles(self):
        s = SimStats()
        assert s.ipc == 0.0
        assert s.vp_accuracy == 0.0
        assert s.vp_coverage == 0.0
        assert s.branch_mpki == 0.0

    def test_vp_ratios(self):
        s = SimStats(vp_eligible=100, vp_used=40, vp_used_correct=39)
        assert s.vp_coverage == 0.4
        assert s.vp_accuracy == 0.975

    def test_mpki(self):
        s = SimStats(insts=10_000, branch_mispredicts=25)
        assert s.branch_mpki == 2.5


class TestSpeedupHelpers:
    def test_gmean(self):
        assert abs(gmean([2.0, 8.0]) - 4.0) < 1e-12
        assert gmean([1.0]) == 1.0

    def test_gmean_rejects_empty_and_nonpositive(self):
        with pytest.raises(ValueError):
            gmean([])
        with pytest.raises(ValueError):
            gmean([1.0, 0.0])


class TestCoreConfig:
    def test_baseline_is_table1(self):
        c = BASELINE_6_60
        assert (c.rob_size, c.iq_size, c.lq_size, c.sq_size) == (192, 60, 72, 48)
        assert c.issue_width == 6 and not c.vp_enabled

    def test_vp_variant(self):
        c = baseline_vp_6_60()
        assert c.vp_enabled and not c.eole and c.issue_width == 6

    def test_eole_variant(self):
        c = eole_4_60()
        assert c.vp_enabled and c.eole and c.issue_width == 4
        # Late Execution adds a stage (§V-A).
        assert c.back_end_depth == BASELINE_6_60.back_end_depth + 1

    def test_with_returns_copy(self):
        c = BASELINE_6_60.with_(issue_width=2)
        assert c.issue_width == 2
        assert BASELINE_6_60.issue_width == 6

    def test_frozen(self):
        with pytest.raises(Exception):
            BASELINE_6_60.issue_width = 1  # type: ignore[misc]


class TestCoreConfigValidation:
    def test_rejects_nonpositive_width(self):
        with pytest.raises(ConfigError, match="issue_width must be positive"):
            BASELINE_6_60.with_(issue_width=0)

    def test_rejects_nonpositive_structure_sizes(self):
        for field in ("rob_size", "iq_size", "lq_size", "sq_size"):
            with pytest.raises(ConfigError, match=f"{field} must be positive"):
                BASELINE_6_60.with_(**{field: -1})

    def test_rejects_non_power_of_two_block(self):
        with pytest.raises(ConfigError, match="power of two"):
            BASELINE_6_60.with_(fetch_block_bytes=12)

    def test_reports_every_violation_at_once(self):
        """One ConfigError listing ALL violations, not just the first."""
        with pytest.raises(ConfigError) as info:
            BASELINE_6_60.with_(rob_size=-1, issue_width=0,
                                fetch_block_bytes=12)
        err = info.value
        assert err.config_name == BASELINE_6_60.name
        assert len(err.violations) == 3
        text = str(err)
        assert "rob_size must be positive, got -1" in text
        assert "issue_width must be positive, got 0" in text
        assert "fetch_block_bytes must be a power of two, got 12" in text

    def test_is_a_value_error(self):
        """Callers that catch ValueError keep working."""
        with pytest.raises(ValueError):
            BASELINE_6_60.with_(decode_width=0)

    def test_nonpositive_power_of_two_reported_once(self):
        """A zero block size is one violation (positivity), not two."""
        with pytest.raises(ConfigError) as info:
            BASELINE_6_60.with_(fetch_block_bytes=0)
        assert len(info.value.violations) == 1


class TestExtraIsGone:
    def test_simstats_has_no_extra_view(self):
        """The deprecated ``SimStats.extra`` read-through view is deleted:
        ad-hoc counters belong in :mod:`repro.obs` namespaced metrics.
        Guard against reintroduction under the old name."""
        stats = SimStats()
        assert not hasattr(stats, "extra")
        assert not hasattr(stats, "_extra")

    def test_no_production_code_references_extra(self):
        """No module under ``src/repro`` may reference ``.extra`` at all
        (grep-style, so a reintroduction fails loudly)."""
        import re
        from pathlib import Path

        import repro

        src_root = Path(repro.__file__).resolve().parent
        pattern = re.compile(r"\.extra\b")
        offenders = []
        for path in sorted(src_root.rglob("*.py")):
            rel = path.relative_to(src_root).as_posix()
            for lineno, line in enumerate(
                path.read_text().splitlines(), start=1
            ):
                if pattern.search(line):
                    offenders.append(f"{rel}:{lineno}: {line.strip()}")
        assert not offenders, (
            "production code must not reference SimStats.extra:\n"
            + "\n".join(offenders)
        )
