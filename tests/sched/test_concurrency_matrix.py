"""Ground-truth concurrency-bug matrix for the ``--sched`` campaigns.

Each multi-threaded target carries exactly one seeded concurrency bug,
and the matrix is binary: the bug MUST be caught by a scheduled campaign
and MUST stay invisible to the single-threaded engine (the thread bodies
serialised in program order are crash-consistent — the defect only
exists between threads).  Attribution is part of the contract: findings
name the schedule sample and the per-thread dynamic occurrence
(``<sched:t1#0>``), and two runs of the same spec render byte-identical
reports.
"""

import pytest

from repro.apps import THREADED_APPLICATIONS
from repro.cli import main
from repro.core import Mumak, MumakConfig
from repro.sched.config import SchedConfig
from repro.workloads import generate_workload

N_OPS = 16
SEED = 7
SCHED = SchedConfig(threads=2, seed=3, samples=4)

#: target -> substring of the recovery error its seeded bug produces.
MATRIX = {
    "msgqueue_tso": "consumption flag persisted before payload",
    "worklog_alloc": "allocated twice",
}


def run(name, sched=SCHED, **kwargs):
    config = MumakConfig(
        seed=SEED, sched=sched, run_trace_analysis=False, **kwargs
    )
    workload = generate_workload(N_OPS, seed=SEED)
    return Mumak(config).analyze(THREADED_APPLICATIONS[name], workload)


def recovery_failures(result):
    return [f for f in result.report.findings if f.recovery_error]


def fingerprintable(result):
    return [
        (f.variant, f.seq, f.stack, f.message, f.recovery_error, f.sched)
        for f in result.report.findings
    ]


class TestMatrix:
    def test_matrix_covers_every_threaded_target(self):
        assert set(MATRIX) == set(THREADED_APPLICATIONS)

    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_bug_caught_under_sched(self, name):
        result = run(name)
        failures = recovery_failures(result)
        assert failures, "scheduled campaign found no recovery failure"
        assert any(MATRIX[name] in f.recovery_error for f in failures)

    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_bug_invisible_single_threaded(self, name):
        """The serialised (program-order) execution is crash-consistent:
        no interleaving ⇒ no bug, under the whole prefix fault family."""
        result = run(name, sched=None)
        assert recovery_failures(result) == []

    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_findings_carry_schedule_attribution(self, name):
        result = run(name)
        for finding in recovery_failures(result):
            assert finding.sched is not None and finding.sched >= 0
            assert any("<sched:" in frame for frame in finding.stack)
        rendered = result.report.render()
        assert "exposed under schedule sample" in rendered

    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_attribution_byte_stable_across_runs(self, name):
        first = run(name)
        second = run(name)
        assert fingerprintable(first) == fingerprintable(second)
        assert first.report.render() == second.report.render()

    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_dpor_aliasing_feeds_the_verdict_cache(self, name):
        """Interleavings with the same persisted-write extent bytes must
        collapse onto one verdict-cache digest (DPOR-style pruning)."""
        stats = run(name).fault_injection.stats
        assert stats.recovery.cache_hits > 0

    @pytest.mark.parametrize("name", sorted(MATRIX))
    def test_schedule_stats_are_surfaced(self, name):
        stats = run(name).fault_injection.stats
        assert stats.schedules == SCHED.samples
        assert stats.sched_threads == SCHED.threads


class TestCLI:
    def test_sched_campaign_exits_nonzero_on_bug(self, capsys):
        code = main([
            "analyze", "msgqueue_tso",
            "--sched", "threads=2,seed=3,samples=2",
            "--ops", "16", "--seed", "7", "--no-warnings",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "schedules: 2 sample(s) x 2 thread(s)" in out
        assert "exposed under schedule sample" in out

    def test_threaded_target_requires_sched_flag(self, capsys):
        assert main(["analyze", "msgqueue_tso", "--ops", "16"]) == 2
        assert "--sched" in capsys.readouterr().err

    def test_sched_requires_threaded_target(self, capsys):
        code = main([
            "analyze", "btree", "--sched", "threads=2", "--ops", "16",
        ])
        assert code == 2
        assert "multi-threaded target" in capsys.readouterr().err

    def test_sched_rejects_replay_engine(self, capsys):
        code = main([
            "analyze", "msgqueue_tso", "--sched", "threads=2",
            "--engine", "replay", "--ops", "16",
        ])
        assert code == 2
        assert "--engine trace" in capsys.readouterr().err

    def test_bad_spec_is_a_usage_error(self, capsys):
        code = main([
            "analyze", "msgqueue_tso", "--sched", "threads=9",
            "--ops", "16",
        ])
        assert code == 2
        assert "1..4" in capsys.readouterr().err

    def test_targets_marks_threaded_entries(self, capsys):
        assert main(["targets"]) == 0
        out = capsys.readouterr().out
        assert "msgqueue_tso" in out
        assert "[threaded: --sched]" in out

    def test_bugs_lists_concurrency_registry(self, capsys):
        assert main(["bugs", "msgqueue_tso"]) == 0
        out = capsys.readouterr().out
        assert "msgqueue_tso.c1_unfenced_publish" in out
        assert "concurrency" in out
