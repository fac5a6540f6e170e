"""Pipeline-level fabric equivalence: sharded / chaos-killed / resumed
campaigns are byte-identical to serial ones.

This is the tentpole's acceptance contract.  Every test compares the
merged campaign journal (and the rendered report) against the serial
reference — not statistics, not counts: the exact bytes.
"""

import json
import os

import pytest

from repro.apps.btree import BTree
from repro.core import Mumak, MumakConfig
from repro.errors import CheckpointError
from repro.fabric import find_shard_journals, shard_journal_path
from repro.workloads import generate_workload

OPS = 80


def _factory():
    return BTree(bugs={"btree.c1_count_outside_tx"}, spt=True)


def _workload():
    return generate_workload(OPS, seed=0)


def _analyze_factory(tmp_path, name, resume=False, **knobs):
    ckpt = str(tmp_path / f"{name}.jsonl")
    config = MumakConfig(
        checkpoint_path=ckpt, checkpoint_interval=1, **knobs
    )
    result = Mumak(config).analyze(
        _factory, _workload(), resume_from=ckpt if resume else None
    )
    return ckpt, result


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serial")
    ckpt, result = _analyze_factory(tmp, "serial")
    return {
        "journal": open(ckpt, "rb").read(),
        "render": result.report.render(),
        "vcache": open(ckpt + ".vcache", "rb").read(),
    }


@pytest.mark.slow
class TestShardedEqualsSerial:
    def test_journal_and_render_identical(self, serial, tmp_path):
        ckpt, result = _analyze_factory(tmp_path, "sharded", shards=3)
        assert open(ckpt, "rb").read() == serial["journal"]
        assert result.report.render() == serial["render"]
        assert result.fault_injection.stats.shards == 3
        assert find_shard_journals(ckpt) == []  # artifacts retired

    def test_shards_relay_the_phase_split(self, tmp_path):
        """Each shard relays its materialise/recovery wall-clock sums,
        so a sharded run's phase split is not zero."""
        _, result = _analyze_factory(tmp_path, "split", shards=2)
        stats = result.fault_injection.stats
        assert stats.materialise_seconds > 0
        assert stats.recovery_seconds > 0
        assert (
            result.resources.detail_seconds["fault_injection.recovery"]
            == stats.recovery_seconds
        )

    def test_verdict_cache_merged_from_shards(self, serial, tmp_path):
        ckpt, _ = _analyze_factory(tmp_path, "cached", shards=2)
        # Same scope, same verdicts — the shard caches folded into one
        # campaign cache equivalent to the serial one (same digest set;
        # line order may differ, so compare the parsed records).
        def digests(raw):
            return {
                json.loads(line)["d"]
                for line in raw.decode().splitlines()[1:]
            }

        assert digests(open(ckpt + ".vcache", "rb").read()) == digests(
            serial["vcache"]
        )


@pytest.mark.slow
class TestChaosEqualsSerial:
    def test_sigkill_storm_is_byte_identical(self, serial, tmp_path):
        # kill-worker=1.0: the first max-kills progress events each
        # SIGKILL a live shard — guaranteed worker deaths mid-campaign.
        ckpt, result = _analyze_factory(
            tmp_path,
            "chaos",
            shards=2,
            chaos="kill-worker=1.0,seed=3,max-kills=2",
        )
        stats = result.fault_injection.stats
        assert stats.chaos_kills >= 1
        assert open(ckpt, "rb").read() == serial["journal"]
        assert result.report.render() == serial["render"]

    def test_seeded_chaos_requeue_determinism(self, serial, tmp_path):
        # A different seed and probability: schedule changes, output
        # must not.
        ckpt, result = _analyze_factory(
            tmp_path, "chaos2", shards=2, chaos="kill-worker=0.25,seed=7"
        )
        assert open(ckpt, "rb").read() == serial["journal"]
        stats = result.fault_injection.stats
        assert stats.shard_respawns == stats.shard_deaths


@pytest.mark.slow
class TestResume:
    def test_truncated_checkpoint_resumes_byte_identical(
        self, serial, tmp_path
    ):
        ckpt, _ = _analyze_factory(tmp_path, "cut", shards=2)
        lines = open(ckpt, "r", encoding="utf-8").read().splitlines(True)
        keep = 1 + (len(lines) - 1) // 2
        with open(ckpt, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:keep])

        _, result = _analyze_factory(
            tmp_path, "cut", shards=2, resume=True
        )
        stats = result.fault_injection.stats
        assert open(ckpt, "rb").read() == serial["journal"]
        assert result.report.render() == serial["render"]
        assert stats.resumed == keep - 1
        # Zero re-verification: every pre-truncation verdict stayed in
        # the campaign cache, so the re-executed injections replay from
        # memory instead of re-running recovery.
        assert stats.recovery_cache_misses == 0
        assert stats.recovery_cache_hits > 0
        assert stats.recovery_cache_loaded > 0

    def test_stray_shard_journals_fold_into_resume(self, serial, tmp_path):
        # Simulate a crash *between* shard completion and merge: the
        # campaign journal holds a prefix, a stray .shard1 file holds
        # more records that never made it into the merge.
        ckpt, _ = _analyze_factory(tmp_path, "stray", shards=2)
        lines = open(ckpt, "r", encoding="utf-8").read().splitlines(True)
        third = (len(lines) - 1) // 3
        with open(ckpt, "w", encoding="utf-8") as fh:
            fh.writelines(lines[: 1 + third])
        with open(shard_journal_path(ckpt, 1), "w", encoding="utf-8") as fh:
            fh.writelines([lines[0]] + lines[1 + third : 1 + 2 * third])

        _, result = _analyze_factory(
            tmp_path, "stray", shards=2, resume=True
        )
        assert open(ckpt, "rb").read() == serial["journal"]
        # Both the journaled prefix and the stray's records restored.
        assert result.fault_injection.stats.resumed == 2 * third
        assert find_shard_journals(ckpt) == []  # strays retired

    def test_foreign_fingerprint_stray_fails_resume(self, tmp_path):
        ckpt, _ = _analyze_factory(tmp_path, "foreign", shards=2)
        header = {
            "type": "header",
            "version": 1,
            "fingerprint": "not-this-campaign",
            "seed": 0,
        }
        with open(shard_journal_path(ckpt, 0), "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
        with pytest.raises(CheckpointError, match="stale .shard"):
            _analyze_factory(tmp_path, "foreign", shards=2, resume=True)

    def test_fresh_run_sweeps_stale_shard_artifacts(self, serial, tmp_path):
        # A *fresh* (non-resume) campaign must not trip over strays from
        # an unrelated earlier run — it sweeps them and starts clean.
        ckpt = str(tmp_path / "swept.jsonl")
        with open(shard_journal_path(ckpt, 0), "w", encoding="utf-8") as fh:
            fh.write('{"type":"header","fingerprint":"stale","version":1}\n')
        ckpt, result = _analyze_factory(tmp_path, "swept", shards=2)
        assert open(ckpt, "rb").read() == serial["journal"]
        assert find_shard_journals(ckpt) == []
