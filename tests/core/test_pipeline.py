"""End-to-end pipeline and report tests."""

import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.errors import ConfigError
from repro.instrument.tracer import GRANULARITY_PERSISTENCY, GRANULARITY_STORE
from repro.pmem.faultmodel import MODELS, FaultModelConfig
from repro.sched.config import SchedConfig
from repro.workloads import generate_workload

WORKLOAD = generate_workload(150, seed=3)
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")
SPEC = {"target": "btree", "options": {"spt": True}, "ops": 20,
        "workload_seed": 0}


def _file(tmp):
    path = tmp / "a-file"
    path.write_text("x\n")
    return str(path)


#: Configs the CLI refuses, each with a substring of the refusal line.
#: Before the refusal table, the library ran every one of them: on
#: bug-free btree, ``timeout_seconds=0`` reported 30 false bugs,
#: ``step_budget=0`` 36, and ``max_injections=-1`` ran no injections.
REFUSED = {
    "timeout-zero": (lambda tmp: {"timeout_seconds": 0}, "--timeout"),
    "step-budget-zero": (lambda tmp: {"step_budget": 0}, "--step-budget"),
    "max-injections-negative": (
        lambda tmp: {"max_injections": -1}, "--max-injections"
    ),
    "fleet-slices-zero": (lambda tmp: {"fleet_slices": 0}, "--fleet-slices"),
    "fleet-with-shards": (
        lambda tmp: {"fleet_dir": str(tmp / "fleet"), "shards": 2,
                     "campaign_spec": SPEC},
        "incompatible",
    ),
    "fleet-without-spec": (
        lambda tmp: {"fleet_dir": str(tmp / "fleet")}, "campaign_spec"
    ),
    # A worker cannot rebuild the workload without these: it died with
    # KeyError('ops') and the supervisor fell back to local execution.
    "fleet-spec-without-workload": (
        lambda tmp: {"fleet_dir": str(tmp / "fleet"),
                     "campaign_spec": {"target": "btree"}},
        "campaign_spec",
    ),
    "transport-chaos-without-fleet": (
        lambda tmp: {"transport_chaos": "drop=0.5"},
        "--transport-chaos requires --fleet",
    ),
    "chaos-unparsable": (lambda tmp: {"chaos": "explode=1"}, "explode"),
    "shards-with-replay": (
        lambda tmp: {"shards": 2, "engine": "replay"}, "--engine trace"
    ),
    "sched-single-threaded": (
        lambda tmp: {"sched": SchedConfig(threads=2)},
        "multi-threaded target",
    ),
    "checkpoint-dir-missing": (
        lambda tmp: {"checkpoint_path": str(tmp / "no" / "c.jsonl")},
        "directory does not exist",
    ),
    "obs-dir-is-a-file": (lambda tmp: {"obs_dir": _file(tmp)}, "directory"),
}


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


class TestLibraryRefusals:
    """``Mumak.analyze`` refuses what the CLI refuses, before detection."""

    @pytest.fixture
    def no_detection(self, monkeypatch):
        def detect(*args, **kwargs):
            raise AssertionError("detection ran before the refusal")

        monkeypatch.setattr("repro.core.pipeline.run_instrumented", detect)
        monkeypatch.setattr("repro.sched.campaign.detect_schedules", detect)

    @pytest.mark.parametrize("case", sorted(REFUSED))
    def test_refused_before_detection(self, case, tmp_path, no_detection):
        knobs, words = REFUSED[case]
        config = MumakConfig(**knobs(tmp_path))
        with pytest.raises(ConfigError, match=words) as refusal:
            Mumak(config).analyze(
                lambda: BTree(bugs=(), spt=True), WORKLOAD[:20]
            )
        assert len(str(refusal.value).splitlines()) == 1
        assert isinstance(refusal.value, ValueError)

    def test_serial_analyze_leaves_the_fabric_unimported(self):
        """The chaos-spec rows import repro.fabric only for a spec."""
        script = (
            "import sys\n"
            "from repro.apps.btree import BTree\n"
            "from repro.core import Mumak, MumakConfig\n"
            "from repro.workloads import generate_workload\n"
            "Mumak(MumakConfig(max_injections=2)).analyze(\n"
            "    lambda: BTree(bugs=(), spt=True), generate_workload(20))\n"
            "print([m for m in sys.modules if m.startswith('repro.fabric')])\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True,
            text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"


FAULT_MODELS = st.builds(
    FaultModelConfig,
    model=st.sampled_from(MODELS),
    torn_writes=st.booleans(),
    media_errors=st.booleans(),
    samples=st.integers(1, 8),
    seed=st.integers(0, 2**32),
    media_bit_flips=st.integers(0, 4),
    media_poisoned_lines=st.integers(0, 4),
)
SCHEDS = st.none() | st.builds(
    SchedConfig,
    threads=st.integers(1, 4),
    seed=st.integers(0, 1000),
    samples=st.integers(1, 16),
)
CONFIGS = st.builds(
    MumakConfig,
    granularity=st.sampled_from((GRANULARITY_PERSISTENCY, GRANULARITY_STORE)),
    require_store_since_last=st.booleans(),
    engine=st.sampled_from(("trace", "replay")),
    eadr=st.booleans(),
    max_injections=st.none() | st.integers(0, 10**6),
    seed=st.integers(0, 2**32),
    timeout_seconds=st.none() | st.floats(1e-3, 1e4),
    step_budget=st.none() | st.integers(1, 10**9),
    max_retries=st.integers(0, 4),
    recovery_cache=st.sampled_from(("on", "off", "/elsewhere/c.vcache")),
    machine_pool=st.integers(0, 2),
    fault_model=FAULT_MODELS,
    sched=SCHEDS,
)


class TestFingerprintPayloadRoundTrip:
    """A fleet worker runs the config it rebuilds from the manifest's
    verified fingerprint payload, so the rebuild must be the campaign the
    supervisor fingerprinted."""

    @given(config=CONFIGS)
    @settings(max_examples=200, deadline=None)
    def test_rebuilt_config_is_the_same_campaign(self, config):
        payload = json.loads(json.dumps(config.fingerprint_payload("btree")))
        rebuilt = MumakConfig.from_fingerprint_payload(
            payload, **config.worker_knobs()
        )
        assert rebuilt.fingerprint("btree") == config.fingerprint("btree")
        for family in ("torn_enabled", "reorder_enabled", "media_enabled"):
            assert getattr(rebuilt.fault_model, family) == getattr(
                config.fault_model, family
            )
        assert rebuilt.sched == config.sched
        ours, theirs = config.injector("btree"), rebuilt.injector("btree")
        assert theirs.harness == ours.harness
        assert theirs.recovery.scope == ours.recovery.scope
        assert theirs.recovery.cache_enabled == ours.recovery.cache_enabled
        assert theirs.recovery.machine_pool == ours.recovery.machine_pool


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
