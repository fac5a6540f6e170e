"""Determinism and resume contracts under ``--sched``.

The schedule axis must not cost any of the campaign fabric's existing
guarantees:

* serial and ``--shards N`` runs of the same spec write byte-identical
  checkpoint journals and produce identical findings;
* the campaign fingerprint binds the schedule spec, so a checkpoint
  written under one schedule seed is *refused* (``CheckpointError``) —
  never silently misread — when resumed under another.
"""

import pytest

from repro.apps import THREADED_APPLICATIONS
from repro.core import Mumak, MumakConfig
from repro.errors import CheckpointError
from repro.sched.config import SchedConfig
from repro.workloads import generate_workload

N_OPS = 16
SEED = 7
SCHED = SchedConfig(threads=2, seed=3, samples=4)
TARGET = "msgqueue_tso"


def run(checkpoint=None, resume_from=None, sched=SCHED, **kwargs):
    config = MumakConfig(
        seed=SEED,
        sched=sched,
        run_trace_analysis=False,
        checkpoint_path=checkpoint,
        **kwargs,
    )
    workload = generate_workload(N_OPS, seed=SEED)
    return Mumak(config).analyze(
        THREADED_APPLICATIONS[TARGET], workload, resume_from=resume_from
    )


def fingerprintable(result):
    return [
        (f.variant, f.seq, f.stack, f.message, f.recovery_error, f.sched)
        for f in result.report.findings
    ]


class TestExecutionModeEquivalence:
    def test_serial_jobs_shards_byte_identical_journals(self, tmp_path):
        journals = {}
        results = {}
        for tag, extra in (
            ("serial", {}),
            ("shards", {"shards": 2}),
        ):
            path = tmp_path / f"{tag}.ckpt.jsonl"
            results[tag] = run(checkpoint=str(path), **extra)
            journals[tag] = path.read_bytes()
        assert len(journals["serial"]) > 0
        assert journals["serial"] == journals["shards"]
        assert (
            fingerprintable(results["serial"])
            == fingerprintable(results["shards"])
        )
        shapes = {
            tag: (
                result.fault_injection.stats.schedules,
                result.fault_injection.stats.sched_threads,
            )
            for tag, result in results.items()
        }
        assert shapes == {
            tag: (SCHED.samples, SCHED.threads) for tag in results
        }


class TestScheduleBoundResume:
    def test_fingerprint_binds_the_schedule_spec(self):
        base = MumakConfig(seed=SEED, sched=SCHED)
        other_seed = MumakConfig(
            seed=SEED, sched=SchedConfig(threads=2, seed=4, samples=4)
        )
        unscheduled = MumakConfig(seed=SEED)
        prints = {
            c.fingerprint(TARGET) for c in (base, other_seed, unscheduled)
        }
        assert len(prints) == 3

    def test_checkpoint_refused_under_another_schedule_seed(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt.jsonl")
        run(checkpoint=path)
        with pytest.raises(CheckpointError):
            run(
                resume_from=path,
                sched=SchedConfig(threads=2, seed=4, samples=4),
            )

    def test_resume_under_the_same_spec_restores_everything(self, tmp_path):
        path = str(tmp_path / "campaign.ckpt.jsonl")
        first = run(checkpoint=path)
        resumed = run(resume_from=path)
        assert resumed.fault_injection.stats.resumed > 0
        assert fingerprintable(resumed) == fingerprintable(first)
