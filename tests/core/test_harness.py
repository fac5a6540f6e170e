"""Tests for the hardened campaign runner (repro.core.harness).

Covers the three pillars of the harness: watchdogged oracle execution,
containment with retry + quarantine, and checkpoint/resume (including the
interrupted-equals-uninterrupted property).
"""

import os
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.btree import BTree
from repro.core import Mumak, MumakConfig
from repro.core.fault_injection import DetectionRun, FaultInjector
from repro.core.harness import (
    CampaignImageSource,
    CampaignJournal,
    HarnessConfig,
    InjectionTask,
    campaign_fingerprint,
    execute_injection,
    load_checkpoint,
    read_journal,
    result_to_record,
    run_campaign,
    supervised_call,
)
from repro.core.oracle import (
    TRACE_CHAR_LIMIT,
    RecoveryStatus,
    format_capped_trace,
    run_recovery,
)
from repro.errors import CheckpointError, WatchdogTimeout
from repro.instrument.runner import run_instrumented
from repro.instrument.tracer import MinimalTracer
from repro.pmem.crashsim import prefix_image
from repro.pmem.faultmodel import FaultModelConfig
from repro.pmem.incremental import ENGINE_IMAGE_INCREMENTAL, MaterialisedImage
from repro.workloads import generate_workload
from tests.core.monkey import SLOT_A, CrashMonkey, make_tool_code_raiser

# --------------------------------------------------------------------- #
# fixtures
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def monkey_run():
    """One traced CrashMonkey execution: (initial_image, trace, final)."""
    tracer = MinimalTracer()
    artifacts = run_instrumented(lambda: CrashMonkey("ok"), [], hooks=[tracer])
    return (
        artifacts.initial_image,
        tracer.events,
        artifacts.machine.crash_image(),
    )


def monkey_tasks(trace):
    """One task per distinct prefix length — a spread of crash states."""
    seqs = sorted({e.seq for e in trace}) + [trace[-1].seq + 1]
    return [
        InjectionTask(index=i, stack=(f"op{i}", f"fp{i}"), seq=seq)
        for i, seq in enumerate(seqs)
    ]


def records(campaign):
    return [result_to_record(r) for r in campaign.results]


class RecordingSource:
    """An image source that remembers every image it hands out."""

    def __init__(self, source):
        self.source = source
        self.images = []

    def __call__(self, task):
        image = self.source(task)
        self.images.append(image)
        return image

    def release(self, image):
        self.source.release(image)


class ZombieMonkey(CrashMonkey):
    """Recovery blocks past the watchdog's grace period, then writes to
    its medium once ``gate`` opens (the abandoned thread's last act)."""

    def __init__(self, gate, scribbled):
        super().__init__("ok")
        self.gate = gate
        self.scribbled = scribbled

    def recover(self, machine):
        try:
            self.gate.wait(10.0)
        finally:
            machine.medium.write(SLOT_A, b"\xff")
            self.scribbled.set()


# --------------------------------------------------------------------- #
# pillar 1: supervised calls + watchdogged oracle execution
# --------------------------------------------------------------------- #


class TestSupervisedCall:
    def test_no_timeout_is_a_plain_call(self):
        assert supervised_call(lambda: 42) == 42

    def test_fast_call_returns_under_timeout(self):
        assert supervised_call(lambda: "ok", timeout_seconds=5.0) == "ok"

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError, match="boom"):
            supervised_call(lambda: (_ for _ in ()).throw(ValueError("boom")))

    def test_pure_python_hang_is_interrupted(self):
        def hang():
            while True:
                pass

        started = time.monotonic()
        with pytest.raises(WatchdogTimeout):
            supervised_call(hang, timeout_seconds=0.2)
        assert time.monotonic() - started < 10.0


class TestWatchdoggedOracle:
    def test_hanging_recovery_becomes_hung(self, monkey_run):
        _, _, final = monkey_run
        config = HarnessConfig(timeout_seconds=0.3)
        task = InjectionTask(index=0, stack=("fp",), seq=0)
        result = execute_injection(
            task, lambda _t: final, lambda: CrashMonkey("hang"), config
        )
        assert result.outcome.status is RecoveryStatus.HUNG
        assert result.finding is not None
        assert "hang" in result.finding.message

    def test_machine_spin_hits_the_step_budget(self, monkey_run):
        _, _, final = monkey_run
        config = HarnessConfig(step_budget=5000)
        task = InjectionTask(index=0, stack=("fp",), seq=0)
        result = execute_injection(
            task, lambda _t: final, lambda: CrashMonkey("spin"), config
        )
        assert result.outcome.status is RecoveryStatus.RESOURCE_EXHAUSTED
        assert result.finding is not None
        assert "budget" in result.finding.message

    def test_target_recursion_is_a_genuine_crash(self, monkey_run):
        _, _, final = monkey_run
        outcome = run_recovery(lambda: CrashMonkey("recurse"), final)
        assert outcome.status is RecoveryStatus.CRASHED
        assert "RecursionError" in outcome.error
        assert len(outcome.trace) <= TRACE_CHAR_LIMIT + 64

    def test_reported_unrecoverable_still_works(self, monkey_run):
        _, _, final = monkey_run
        outcome = run_recovery(lambda: CrashMonkey("report"), final)
        assert outcome.status is RecoveryStatus.REPORTED_UNRECOVERABLE

    def test_clean_image_recovers_ok(self, monkey_run):
        initial, _, _ = monkey_run
        outcome = run_recovery(lambda: CrashMonkey("report"), initial)
        assert outcome.status is RecoveryStatus.OK

    def test_disarm_after_recovery(self, monkey_run):
        """The watchdog must not leak into later use of the machine."""
        _, _, final = monkey_run
        outcome = run_recovery(
            lambda: CrashMonkey("ok"), final, step_budget=10
        )
        assert outcome.status is RecoveryStatus.OK

    def test_hung_recovery_abandons_its_pooled_variant(self, monkey_run):
        """A media variant is patched onto a pooled buffer; a recovery
        that outlives the watchdog's grace must leak that buffer, not
        return it to the pool, and the next task's image is exact even
        after the zombie writes to the leaked one."""
        initial, trace, _ = monkey_run
        source = RecordingSource(
            CampaignImageSource(
                [DetectionRun(-1, trace, initial_image=initial)],
                fault_model=FaultModelConfig(media_errors=True),
                image_engine=ENGINE_IMAGE_INCREMENTAL,
            )
        )
        seq = trace[-1].seq + 1
        variant = source.source.factory(-1).plan(seq)[0]
        gate, scribbled = threading.Event(), threading.Event()
        result = execute_injection(
            InjectionTask(index=0, stack=("fp",), seq=seq, variant=variant),
            source,
            lambda: ZombieMonkey(gate, scribbled),
            HarnessConfig(timeout_seconds=0.1),
        )
        assert result.outcome.status is RecoveryStatus.HUNG
        (hung,) = source.images
        assert isinstance(hung, MaterialisedImage)
        assert hung.abandoned and hung.poisoned_lines
        gate.set()
        assert scribbled.wait(10.0)

        fresh = source(InjectionTask(index=1, stack=("fp",), seq=seq))
        assert fresh.pm_buffer is not hung.pm_buffer
        assert bytes(fresh) == prefix_image(initial, trace, seq)
        assert fresh.poisoned_lines == ()
        assert source.source.stats.pool_misses == 2


class TestInfraClassification:
    def test_tool_code_memoryerror_is_infra(self, monkey_run):
        _, _, final = monkey_run
        boom = make_tool_code_raiser(
            "def boom():\n    raise MemoryError('simulator oom')\n"
        )

        class InfraMonkey(CrashMonkey):
            def recover(self, machine):
                boom()

        outcome = run_recovery(lambda: InfraMonkey(), final)
        assert outcome.status is RecoveryStatus.INFRA_ERROR
        assert not outcome.status.is_bug

    def test_infra_outcome_is_retried_then_quarantined(self, monkey_run):
        _, _, final = monkey_run
        boom = make_tool_code_raiser(
            "def boom():\n    raise MemoryError('simulator oom')\n"
        )

        class InfraMonkey(CrashMonkey):
            def recover(self, machine):
                boom()

        config = HarnessConfig(max_retries=2)
        task = InjectionTask(index=0, stack=("fp",), seq=0)
        result = execute_injection(
            task, lambda _t: final, InfraMonkey, config
        )
        assert result.outcome is None
        assert result.quarantine is not None
        assert result.attempts == 3
        assert "MemoryError" in result.quarantine.error

    def test_target_memoryerror_is_a_finding(self, monkey_run):
        _, _, final = monkey_run

        class OomMonkey(CrashMonkey):
            def recover(self, machine):
                raise MemoryError("target recovery allocated too much")

        outcome = run_recovery(lambda: OomMonkey(), final)
        assert outcome.status is RecoveryStatus.CRASHED


# --------------------------------------------------------------------- #
# pillar 2: containment, retry, quarantine
# --------------------------------------------------------------------- #


class FlakyFactory:
    """App factory that raises transiently before succeeding."""

    def __init__(self, failures, exc=MemoryError):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc(f"transient #{self.calls}")
        return CrashMonkey("ok")


class TestContainment:
    def test_transient_factory_failure_is_retried(self, monkey_run):
        _, _, final = monkey_run
        factory = FlakyFactory(failures=2)
        config = HarnessConfig(max_retries=2)
        task = InjectionTask(index=0, stack=("fp",), seq=0)
        result = execute_injection(task, lambda _t: final, factory, config)
        assert result.outcome.status is RecoveryStatus.OK
        assert result.attempts == 3

    def test_exhausted_retries_quarantine(self, monkey_run):
        _, _, final = monkey_run
        factory = FlakyFactory(failures=99)
        config = HarnessConfig(max_retries=1)
        task = InjectionTask(index=0, stack=("a", "b"), seq=7)
        result = execute_injection(task, lambda _t: final, factory, config)
        assert result.quarantine is not None
        assert result.attempts == 2
        assert result.quarantine.phase == "recovery"
        assert "MemoryError" in result.quarantine.error
        assert "[quarantined]" in result.quarantine.render()

    def test_materialise_failure_is_contained(self):
        def bad_image(_task):
            raise OSError("disk gone")

        config = HarnessConfig(max_retries=1)
        task = InjectionTask(index=0, stack=("fp",), seq=0)
        result = execute_injection(
            task, bad_image, lambda: CrashMonkey("ok"), config
        )
        assert result.quarantine is not None
        assert result.quarantine.phase == "materialise"

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HarnessConfig(max_retries=-1)


class TestCampaignLevel:
    def test_quarantine_reaches_the_report(self, monkey_run):
        """Quarantined injections surface in the rendered report."""
        initial, trace, _ = monkey_run
        from repro.core.report import AnalysisReport

        factory = FlakyFactory(failures=10_000)
        campaign = run_campaign(
            monkey_tasks(trace)[:2],
            CampaignImageSource(
                [DetectionRun(-1, trace, initial_image=initial)]
            ),
            factory,
            config=HarnessConfig(max_retries=1),
        )
        assert len(campaign.quarantined) == 2
        report = AnalysisReport()
        report.extend_quarantined(campaign.quarantined)
        text = report.render()
        assert "quarantined" in text
        assert "not findings" in text

    def test_mixed_campaign_completes(self, monkey_run):
        initial, trace, _ = monkey_run
        campaign = run_campaign(
            monkey_tasks(trace),
            CampaignImageSource(
                [DetectionRun(-1, trace, initial_image=initial)]
            ),
            lambda: CrashMonkey("report"),
            config=HarnessConfig(),
        )
        statuses = {o.status for _, o in campaign.outcomes}
        assert RecoveryStatus.OK in statuses
        assert RecoveryStatus.REPORTED_UNRECOVERABLE in statuses
        assert campaign.quarantined == []


# --------------------------------------------------------------------- #
# pillar 3: checkpoint / resume
# --------------------------------------------------------------------- #


def run_monkey_campaign(monkey_run, journal=None, resume_state=None,
                        behaviour="report"):
    initial, trace, _ = monkey_run
    return run_campaign(
        monkey_tasks(trace),
        CampaignImageSource(
            [DetectionRun(-1, trace, initial_image=initial)]
        ),
        lambda: CrashMonkey(behaviour),
        config=HarnessConfig(),
        journal=journal,
        resume_state=resume_state,
    )


class TestJournal:
    def test_round_trip(self, monkey_run, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with CampaignJournal(path, "fp123", seed=7, interval=2) as journal:
            baseline = run_monkey_campaign(monkey_run, journal=journal)
        header, raw = read_journal(path)
        assert header["fingerprint"] == "fp123"
        assert header["seed"] == 7
        assert len(raw) == len(baseline.results)
        restored = load_checkpoint(path, "fp123")
        assert sorted(restored) == [r.task.index for r in baseline.results]
        for result in baseline.results:
            again = restored[result.task.index]
            assert again.restored
            assert result_to_record(again) == result_to_record(result)

    def test_fingerprint_mismatch_on_open(self, monkey_run, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        CampaignJournal(path, "fp-one").close()
        with pytest.raises(CheckpointError, match="refusing to append"):
            CampaignJournal(path, "fp-two")

    def test_fingerprint_mismatch_on_load(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        CampaignJournal(path, "fp-one").close()
        with pytest.raises(CheckpointError, match="fp-two"):
            load_checkpoint(path, "fp-two")

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(str(tmp_path / "nope.jsonl"))

    def test_torn_trailing_line_is_tolerated(self, monkey_run, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        with CampaignJournal(path, "fp", interval=1) as journal:
            run_monkey_campaign(monkey_run, journal=journal)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "injection", "i": 99, "torn...')
        header, raw = read_journal(path)
        assert header is not None
        assert all(r["i"] != 99 for r in raw)
        assert 99 not in load_checkpoint(path, "fp")

    def test_midfile_corruption_raises(self, tmp_path):
        path = str(tmp_path / "campaign.jsonl")
        journal = CampaignJournal(path, "fp")
        journal.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("garbage not json\n")
            fh.write('{"type":"injection","i":0,"stack":[],"seq":0}\n')
        with pytest.raises(CheckpointError, match="corrupt"):
            read_journal(path)

    def test_fingerprint_is_stable_and_order_independent(self):
        a = campaign_fingerprint({"x": 1, "y": "z"})
        b = campaign_fingerprint({"y": "z", "x": 1})
        c = campaign_fingerprint({"x": 2, "y": "z"})
        assert a == b != c


class TestResumeEquivalence:
    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10_000))
    def test_interrupted_plus_resumed_equals_uninterrupted(
        self, monkey_run_global, tmp_journal_dir, cut
    ):
        """Property: truncate the journal *anywhere* (header loss, torn
        line, mid-record cut), resume, and the merged campaign is
        byte-identical to an uninterrupted one."""
        path = os.path.join(tmp_journal_dir, f"cut{cut}.jsonl")
        with CampaignJournal(path, "fp", interval=1) as journal:
            baseline = run_monkey_campaign(monkey_run_global, journal=journal)
        size = os.path.getsize(path)
        with open(path, "rb+") as fh:
            fh.truncate(cut % (size + 1))
        try:
            resume_state = load_checkpoint(path, "fp")
        except CheckpointError:
            resume_state = {}  # unusable checkpoint: start over
        resumed = run_monkey_campaign(
            monkey_run_global, resume_state=resume_state
        )
        assert records(resumed) == records(baseline)
        restored = sum(1 for r in resumed.results if r.restored)
        assert restored == len(resume_state)


# Module-scoped fixtures are not visible inside @given-wrapped methods
# taking fixtures positionally unless declared; expose them as plain
# fixtures here.
@pytest.fixture(scope="module")
def monkey_run_global(monkey_run):
    return monkey_run


@pytest.fixture(scope="module")
def tmp_journal_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("journals"))


@pytest.mark.slow
class TestPipelineResume:
    def test_resumed_report_is_byte_identical(self, tmp_path):
        workload = generate_workload(40, seed=5)
        factory = lambda: BTree(  # noqa: E731
            bugs={"btree.c1_count_outside_tx"}, spt=True
        )
        plain = Mumak(MumakConfig()).analyze(factory, workload)
        reference = plain.report.render()

        # Full run with journaling, then truncate to simulate a crash.
        path = str(tmp_path / "ckpt.jsonl")
        config = MumakConfig(checkpoint_path=path, checkpoint_interval=1)
        Mumak(config).analyze(factory, workload)
        lines = open(path, "r", encoding="utf-8").read().splitlines(True)
        assert len(lines) > 3  # header + several injections
        keep = 1 + (len(lines) - 1) // 2
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:keep])

        resumed = Mumak(MumakConfig()).analyze(
            factory, workload, resume_from=path
        )
        assert resumed.report.render() == reference
        assert resumed.fault_injection.stats.resumed == keep - 1

    def test_resume_refuses_foreign_fingerprint(self, tmp_path):
        workload = generate_workload(40, seed=5)
        path = str(tmp_path / "ckpt.jsonl")
        config = MumakConfig(checkpoint_path=path)
        Mumak(config).analyze(
            lambda: BTree(bugs=(), spt=True), workload
        )
        with pytest.raises(CheckpointError):
            # Different engine config ⇒ different fingerprint.
            Mumak(MumakConfig(max_injections=3)).analyze(
                lambda: BTree(bugs=(), spt=True),
                workload,
                resume_from=path,
            )

    def test_checkpoint_bytes_accounted(self, tmp_path):
        workload = generate_workload(40, seed=5)
        path = str(tmp_path / "ckpt.jsonl")
        result = Mumak(MumakConfig(checkpoint_path=path)).analyze(
            lambda: BTree(bugs=(), spt=True), workload
        )
        assert result.resources.checkpoint_bytes == os.path.getsize(path)


# --------------------------------------------------------------------- #
# end to end: the monkey under the full fault injector
# --------------------------------------------------------------------- #


class TestFaultInjectorSurvivesTheMonkey:
    def test_staged_campaign_completes_with_findings_and_hangs(self):
        injector = FaultInjector(
            harness=HarnessConfig(timeout_seconds=0.3)
        )
        result = injector.run(lambda: CrashMonkey("staged"), [])
        statuses = {o.status for _, o in result.outcomes}
        assert RecoveryStatus.HUNG in statuses
        assert RecoveryStatus.REPORTED_UNRECOVERABLE in statuses
        assert result.stats.hung >= 1
        assert result.stats.recovery_failures == len(result.findings)
        assert result.stats.recovery_failures >= 2
        messages = {f.message for f in result.findings}
        assert any("hang" in m for m in messages)

    def test_spin_campaign_is_stopped_by_the_budget_alone(self):
        injector = FaultInjector(
            harness=HarnessConfig(step_budget=20_000)
        )
        result = injector.run(lambda: CrashMonkey("spin"), [])
        assert result.stats.resource_exhausted >= 1
        statuses = {o.status for _, o in result.outcomes}
        assert RecoveryStatus.RESOURCE_EXHAUSTED in statuses

    def test_capped_trace_helper(self):
        try:
            raise ValueError("x" * 10_000)
        except ValueError as err:
            text = format_capped_trace(err, char_limit=500)
        assert len(text) <= 500 + 32
        assert "[trace truncated]" in text
