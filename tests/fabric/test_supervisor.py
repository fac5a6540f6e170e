"""ShardSupervisor behaviour with synthetic worker bodies.

These tests drive the supervisor directly — deterministic worker
suicides (hard SIGKILL), drain-on-stop, respawn budgets — without the
cost of a real injection campaign.  The pipeline-level equivalence
tests live in test_fabric_campaign.py.
"""

import json
import os
import signal
import threading
import time

import pytest

from repro.core.harness import (
    CampaignJournal,
    InjectionResult,
    InjectionTask,
    read_journal,
)
from repro.errors import FabricError
from repro.fabric import (
    FabricConfig,
    ShardSupervisor,
    cleanup_shard_artifacts,
    find_shard_journals,
)

FP = "fp-supervisor-test"


def _tasks(count):
    return [
        InjectionTask(index=i, stack=(f"pt{i}",), seq=i) for i in range(count)
    ]


def _result(task):
    return InjectionResult(task=task)


def _journal_all(shard_id, tasks, journal_path, beacon, stop):
    """A well-behaved worker: journal every task, honour the stop event."""
    with CampaignJournal(journal_path, FP, interval=1) as journal:
        for task in tasks:
            if stop.is_set():
                break
            result = _result(task)
            journal.record(result)
            beacon.note(result)
            time.sleep(0.005)


def _die_once_then_finish(shard_id, tasks, journal_path, beacon, stop):
    """First incarnation: journal one task, then SIGKILL itself (the
    hardest death — no cleanup, no flush beyond the journal's own
    fsync).  The respawn sees its journaled progress and finishes."""
    first_life = True
    if os.path.exists(journal_path):
        _, records = read_journal(journal_path)
        first_life = not records
    # The supervisor hands a respawn only the tasks its journal does not
    # already cover — the body just executes what it was given.
    with CampaignJournal(journal_path, FP, interval=1) as journal:
        for position, task in enumerate(tasks):
            result = _result(task)
            journal.record(result)
            beacon.note(result)
            if first_life and position == 0:
                os.kill(os.getpid(), signal.SIGKILL)


def _die_holding_the_event_lock_once(
    shard_id, tasks, journal_path, beacon, stop
):
    """First incarnation: SIGKILLed while it holds its event queue's
    write lock, as a chaos kill landing mid-``note`` does.  The respawn
    must still report progress and finish."""
    if not os.path.exists(journal_path):
        CampaignJournal(journal_path, FP, interval=1).close()
        beacon._events._wlock.acquire()
        os.kill(os.getpid(), signal.SIGKILL)
    _journal_all(shard_id, tasks, journal_path, beacon, stop)


def _run(tasks, body, tmp_path, config=None, stop=None, base_records=None):
    ckpt = str(tmp_path / "camp.jsonl")
    supervisor = ShardSupervisor(
        tasks,
        body,
        ckpt,
        FP,
        seed=0,
        config=config or FabricConfig(shards=2, tick_seconds=0.01),
        stop=stop,
        base_records=base_records,
    )
    return ckpt, supervisor, supervisor.run()


class TestHappyPath:
    def test_all_tasks_journal_and_merge(self, tmp_path):
        tasks = _tasks(9)
        ckpt, supervisor, result = _run(tasks, _journal_all, tmp_path)
        assert not result.drained
        assert sorted(result.records) == list(range(9))
        assert [r.task.index for r in result.results] == list(range(9))
        assert not any(r.restored for r in result.results)
        header, records = read_journal(ckpt)
        assert header["fingerprint"] == FP
        assert [r["i"] for r in records] == list(range(9))
        # Shard journals survive the merge (the caller retires them
        # after folding verdict caches); cleanup removes every one.
        assert len(find_shard_journals(ckpt)) == 2
        cleanup_shard_artifacts(ckpt)
        assert find_shard_journals(ckpt) == []
        assert supervisor.stats.deaths == 0

    def test_base_records_short_circuit_completed_campaign(self, tmp_path):
        # The caller (inject_sharded) partitions only the *todo* tasks;
        # a fully restored campaign hands the supervisor no tasks at all
        # and the merge still rewrites the journal from base records.
        base = {
            t.index: {
                "type": "injection",
                "i": t.index,
                "stack": list(t.stack),
                "seq": t.seq,
                "variant": t.variant,
                "attempts": 1,
                "outcome": None,
                "finding": None,
                "quarantine": None,
            }
            for t in _tasks(6)
        }
        ckpt, supervisor, result = _run(
            [], _journal_all, tmp_path, base_records=base
        )
        assert sorted(result.records) == list(range(6))
        assert all(r.restored for r in result.results)
        assert supervisor.stats.spawns == 0  # nothing left to execute
        header, records = read_journal(ckpt)
        assert [r["i"] for r in records] == list(range(6))


class TestDeathRecovery:
    def test_sigkill_death_respawns_and_completes(self, tmp_path):
        tasks = _tasks(10)
        ckpt, supervisor, result = _run(
            tasks, _die_once_then_finish, tmp_path
        )
        # Every shard died exactly once (hard SIGKILL) and was respawned.
        assert supervisor.stats.deaths == 2
        assert supervisor.stats.respawns == 2
        assert sorted(result.records) == list(range(10))
        header, records = read_journal(ckpt)
        assert [r["i"] for r in records] == list(range(10))

    def test_sigkill_merge_equals_clean_run(self, tmp_path):
        tasks = _tasks(10)
        (tmp_path / "clean").mkdir()
        (tmp_path / "killed").mkdir()
        clean_ckpt, _, _ = _run(
            tasks, _journal_all, tmp_path / "clean"
        )
        killed_ckpt, _, _ = _run(
            tasks, _die_once_then_finish, tmp_path / "killed"
        )
        clean = open(clean_ckpt, "rb").read()
        killed = open(killed_ckpt, "rb").read()
        assert clean == killed  # byte-identical despite two SIGKILLs

    def test_death_holding_the_event_lock_does_not_wedge_the_respawn(
        self, tmp_path
    ):
        outcome = []
        runner = threading.Thread(
            target=lambda: outcome.append(
                _run(_tasks(4), _die_holding_the_event_lock_once, tmp_path)
            ),
            daemon=True,
        )
        runner.start()
        runner.join(timeout=60)
        assert not runner.is_alive(), "a respawned shard wedged"
        _, supervisor, result = outcome[0]
        assert supervisor.stats.deaths == 2
        assert sorted(result.records) == list(range(4))

    def test_respawn_budget_exhaustion_raises(self, tmp_path):
        def always_die(shard_id, tasks, journal_path, beacon, stop):
            # Journal nothing: the shard makes no progress, ever.
            CampaignJournal(journal_path, FP, interval=1).close()
            os.kill(os.getpid(), signal.SIGKILL)

        ckpt = str(tmp_path / "camp.jsonl")
        supervisor = ShardSupervisor(
            _tasks(4),
            always_die,
            ckpt,
            FP,
            seed=0,
            config=FabricConfig(
                shards=1, tick_seconds=0.01, max_respawns=2
            ),
        )
        with pytest.raises(FabricError, match="respawn"):
            supervisor.run()
        # The error message promises the checkpoint survives for resume.
        assert find_shard_journals(ckpt)  # shard journal left for triage


class TestDrain:
    def test_preset_stop_drains_and_second_run_completes(self, tmp_path):
        tasks = _tasks(20)
        stop = threading.Event()
        stop.set()  # drain before the first task boundary
        ckpt, _, first = _run(tasks, _journal_all, tmp_path, stop=stop)
        assert first.drained
        done = set(first.records)
        assert len(done) < 20  # SIGTERM landed before completion
        header, records = read_journal(ckpt)
        assert sorted(r["i"] for r in records) == sorted(done)

        # Resume: completed records restore, the rest execute.
        ckpt2, _, second = _run(
            tasks,
            _journal_all,
            tmp_path,
            base_records=dict(first.records),
        )
        assert not second.drained
        assert sorted(second.records) == list(range(20))
        restored = {r.task.index for r in second.results if r.restored}
        assert restored == done

    def test_drained_merge_is_prefix_consistent(self, tmp_path):
        """A drained journal is a valid journal: header + a subset of
        records, loadable by the ordinary checkpoint reader."""
        stop = threading.Event()
        stop.set()
        ckpt, _, result = _run(
            _tasks(12), _journal_all, tmp_path, stop=stop
        )
        header, records = read_journal(ckpt)
        assert header["fingerprint"] == FP
        for record in records:
            assert record["i"] in result.records
        # The merge ran even though the campaign drained.
        assert header is not None
