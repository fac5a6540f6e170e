"""End-to-end pipeline and report tests."""

import pytest

from repro.apps.btree import BTree
from repro.apps.hashmap_atomic import HashmapAtomic
from repro.core import (
    AnalysisReport,
    BugKind,
    Finding,
    Mumak,
    MumakConfig,
    PHASE_FAULT_INJECTION,
    PHASE_TRACE_ANALYSIS,
)
from repro.workloads import generate_workload

WORKLOAD = generate_workload(150, seed=3)


class TestPipeline:
    @pytest.mark.slow
    def test_clean_target_no_bugs(self):
        result = Mumak().analyze(lambda: BTree(bugs=(), spt=True), WORKLOAD)
        assert result.report.bugs == []

    @pytest.mark.slow
    def test_phases_can_be_disabled(self):
        config = MumakConfig(run_trace_analysis=False)
        result = Mumak(config).analyze(
            lambda: BTree(bugs={"btree.pf4"}, spt=True), WORKLOAD
        )
        assert result.trace_stats is None
        assert result.report.performance_bugs() == []
        config = MumakConfig(run_fault_injection=False)
        result = Mumak(config).analyze(
            lambda: BTree(bugs={"btree.c1_count_outside_tx"}, spt=True),
            WORKLOAD,
        )
        assert result.fault_injection is None
        assert result.report.correctness_bugs() == []

    @pytest.mark.slow
    def test_both_phases_contribute(self):
        result = Mumak().analyze(
            lambda: BTree(
                bugs={"btree.c1_count_outside_tx", "btree.pf4"}, spt=True
            ),
            WORKLOAD,
        )
        phases = {f.phase for f in result.report.bugs}
        assert phases == {PHASE_FAULT_INJECTION, PHASE_TRACE_ANALYSIS}

    @pytest.mark.slow
    def test_trace_findings_have_sites(self):
        result = Mumak().analyze(
            lambda: BTree(bugs={"btree.pf4", "btree.pn3"}, spt=True), WORKLOAD
        )
        for finding in result.report.performance_bugs():
            assert finding.site and "btree.py" in finding.site

    @pytest.mark.slow
    def test_jobs_other_than_one_is_refused(self):
        """In-process injection is serial; a parallel campaign runs in
        shard processes, and the refusal says so."""
        assert MumakConfig(jobs=1).jobs == 1
        with pytest.raises(ValueError, match="shards"):
            MumakConfig(jobs=2)

    def test_resources_tracked(self):
        result = Mumak().analyze(lambda: BTree(bugs=(), spt=True), WORKLOAD)
        assert result.resources.total_seconds > 0
        assert result.resources.peak_tool_bytes > 0
        assert result.resources.pm_overhead() == 1.0

    def test_deterministic_across_runs(self):
        factory = lambda: HashmapAtomic(
            bugs={"hashmap_atomic.c2_bucket_link_order"}
        )
        first = Mumak().analyze(factory, WORKLOAD)
        second = Mumak().analyze(factory, WORKLOAD)
        assert {f.dedup_key() for f in first.report.bugs} == {
            f.dedup_key() for f in second.report.bugs
        }


class TestReport:
    def make(self, site="a.py:1:f", warning=False,
             phase=PHASE_TRACE_ANALYSIS, kind=BugKind.REDUNDANT_FLUSH):
        return Finding(
            kind=kind, phase=phase, message="m", site=site,
            is_warning=warning,
        )

    def test_dedup_by_site_and_kind(self):
        report = AnalysisReport()
        assert report.add(self.make())
        assert not report.add(self.make())
        assert report.duplicates_filtered == 1
        assert len(report.bugs) == 1

    def test_warning_and_bug_do_not_collide(self):
        report = AnalysisReport()
        report.add(self.make(warning=False))
        report.add(self.make(warning=True))
        assert len(report.bugs) == 1
        assert len(report.warnings) == 1

    def test_fault_injection_dedup_by_stack(self):
        report = AnalysisReport()
        a = Finding(
            kind=BugKind.CRASH_CONSISTENCY, phase=PHASE_FAULT_INJECTION,
            message="m", stack=("x", "y"),
        )
        b = Finding(
            kind=BugKind.CRASH_CONSISTENCY, phase=PHASE_FAULT_INJECTION,
            message="m", stack=("x", "z"),
        )
        assert report.add(a)
        assert report.add(b)
        assert not report.add(a)

    def test_render_includes_paths_and_errors(self):
        report = AnalysisReport()
        report.add(
            Finding(
                kind=BugKind.CRASH_CONSISTENCY,
                phase=PHASE_FAULT_INJECTION,
                message="boom",
                stack=("main:1:main", "persist:9:persist"),
                recovery_error="count mismatch",
            )
        )
        text = report.render()
        assert "at main:1:main" in text
        assert "recovery failed: count mismatch" in text

    def test_counts_by_kind(self):
        report = AnalysisReport()
        report.add(self.make(site="s1"))
        report.add(self.make(site="s2"))
        report.add(self.make(site="s3", kind=BugKind.REDUNDANT_FENCE))
        counts = report.counts_by_kind()
        assert counts[BugKind.REDUNDANT_FLUSH] == 2
        assert counts[BugKind.REDUNDANT_FENCE] == 1
