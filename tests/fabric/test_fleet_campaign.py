"""Fleet-fabric equivalence: campaigns distributed over a shared-dir
transport — with live workers, under transport chaos, with expired
leases racing, or with no workers at all — merge to a campaign journal
byte-identical to the serial run.

Worker processes are exercised as threads here (same code path as
``mumak fleet worker``, minus the process boundary — that is covered by
the CI fleet-chaos-smoke job); the supervisor runs through the ordinary
``Mumak.analyze`` pipeline."""

import json
import os
import threading
import types

import pytest

from repro.apps.btree import BTree
from repro.core import Mumak, MumakConfig
from repro.core.harness import JOURNAL_VERSION, campaign_fingerprint
from repro.errors import FleetError
from repro.fabric import find_shard_journals
from repro.fabric.fleet import (
    COMPLETE_NAME,
    DRAIN_NAME,
    FleetConfig,
    FleetSupervisor,
    build_manifest,
    run_fleet_worker,
)
from repro.fabric.transport import DirTransport
from repro.workloads import generate_workload

OPS = 60
BUGS = ["btree.c1_count_outside_tx"]


def _factory():
    return BTree(bugs=set(BUGS), spt=True)


def _workload():
    return generate_workload(OPS, seed=0)


def _spec():
    return {
        "target": "btree",
        "options": {"spt": True, "bugs": list(BUGS)},
        "ops": OPS,
        "workload_seed": 0,
    }


def _analyze(tmp_path, name, fleet_dir=None, **knobs):
    ckpt = str(tmp_path / f"{name}.jsonl")
    config = MumakConfig(
        checkpoint_path=ckpt,
        checkpoint_interval=1,
        fleet_dir=fleet_dir,
        campaign_spec=_spec() if fleet_dir else None,
        **knobs,
    )
    result = Mumak(config).analyze(_factory, _workload())
    return ckpt, result


def _start_worker(root, wid, summaries, errors, **kw):
    kw.setdefault("poll_seconds", 0.05)
    kw.setdefault("idle_timeout", 120.0)
    kw.setdefault("manifest_timeout", 120.0)

    def body():
        try:
            summaries.append(run_fleet_worker(root, worker_id=wid, **kw))
        except BaseException as err:  # surfaced by the test, not lost
            errors.append(err)

    thread = threading.Thread(target=body, daemon=True)
    thread.start()
    return thread


@pytest.fixture(scope="module")
def serial(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("serial")
    ckpt, result = _analyze(tmp, "serial")
    return {
        "journal": open(ckpt, "rb").read(),
        "render": result.report.render(),
        "vcache": open(ckpt + ".vcache", "rb").read(),
    }


@pytest.mark.slow
class TestFleetEqualsSerial:
    def test_no_workers_degrades_to_local_and_matches(
        self, serial, tmp_path
    ):
        fleet = str(tmp_path / "fleet")
        ckpt, result = _analyze(
            tmp_path, "fallback", fleet_dir=fleet,
            fleet_patience_seconds=0.3,
        )
        stats = result.fault_injection.stats
        assert open(ckpt, "rb").read() == serial["journal"]
        assert result.report.render() == serial["render"]
        assert stats.fleet_slices == 4
        assert stats.fleet_workers == 0
        assert stats.fleet_local_fallback_tasks == stats.injections
        assert find_shard_journals(ckpt) == []  # artifacts retired

    def test_thread_worker_serves_every_slice(self, serial, tmp_path):
        fleet = str(tmp_path / "fleet")
        os.makedirs(fleet)
        summaries, errors = [], []
        worker = _start_worker(fleet, "tw1", summaries, errors)
        ckpt, result = _analyze(
            tmp_path, "fleet", fleet_dir=fleet,
            fleet_patience_seconds=120.0,
        )
        worker.join(timeout=60)
        assert not worker.is_alive() and not errors
        stats = result.fault_injection.stats
        assert open(ckpt, "rb").read() == serial["journal"]
        assert result.report.render() == serial["render"]
        assert stats.fleet_workers == 1
        assert stats.fleet_deliveries >= 4  # one per slice
        assert stats.fleet_duplicate_tasks == 0
        assert stats.fleet_local_fallback_tasks == 0
        summary = summaries[0]
        assert summary.claims == 4
        assert summary.tasks_run == stats.injections
        # Zero re-verification across slices: every lease after the
        # first adopts the verdicts already shipped by earlier slices.
        assert summary.adopted_verdicts > 0

        # The merged campaign vcache carries the same verdicts as the
        # serial one (order may differ).
        def digests(raw):
            return {
                json.loads(line)["d"]
                for line in raw.decode().splitlines()[1:]
            }

        assert digests(open(ckpt + ".vcache", "rb").read()) == digests(
            serial["vcache"]
        )

    def test_transport_chaos_is_byte_identical(self, serial, tmp_path):
        fleet = str(tmp_path / "fleet")
        os.makedirs(fleet)
        summaries, errors = [], []
        worker = _start_worker(fleet, "cw1", summaries, errors)
        ckpt, result = _analyze(
            tmp_path, "chaos", fleet_dir=fleet,
            fleet_patience_seconds=120.0,
            fleet_ttl_seconds=1.0,
            transport_chaos="drop=0.5,dup=0.5,torn=0.3,seed=3",
        )
        worker.join(timeout=60)
        assert not worker.is_alive() and not errors
        stats = result.fault_injection.stats
        assert open(ckpt, "rb").read() == serial["journal"]
        assert result.report.render() == serial["render"]
        assert stats.fleet_deliveries > 0
        # The seeded schedule duplicates at least one delivery; the
        # merge counts and discards the overlap instead of re-folding.
        assert stats.fleet_duplicate_tasks > 0

    def test_two_workers_under_chaos_match(self, serial, tmp_path):
        fleet = str(tmp_path / "fleet")
        os.makedirs(fleet)
        summaries, errors = [], []
        workers = [
            _start_worker(fleet, wid, summaries, errors)
            for wid in ("race1", "race2")
        ]
        ckpt, result = _analyze(
            tmp_path, "race", fleet_dir=fleet,
            fleet_patience_seconds=120.0,
            fleet_ttl_seconds=1.0,
            transport_chaos="drop=0.3,dup=0.3,torn=0.2,seed=11",
        )
        for worker in workers:
            worker.join(timeout=60)
        assert not any(w.is_alive() for w in workers) and not errors
        assert open(ckpt, "rb").read() == serial["journal"]
        assert result.report.render() == serial["render"]
        assert len(summaries) == 2

    def test_reused_fleet_dir_is_refused(self, tmp_path):
        fleet = str(tmp_path / "fleet")
        transport = DirTransport(fleet)
        foreign_payload = {"target": "other", "ops": 1}
        manifest = build_manifest(
            campaign_fingerprint(foreign_payload), foreign_payload, 0,
            FleetConfig(root=fleet), {"target": "other"},
        )
        transport.put(
            "campaign/manifest", json.dumps(manifest).encode()
        )
        with pytest.raises(FleetError, match="fresh directory"):
            _analyze(
                tmp_path, "reused", fleet_dir=fleet,
                fleet_patience_seconds=0.2,
            )


# ------------------------------------------------------------------ #
# the lease-expiry race, deterministically
# ------------------------------------------------------------------ #

PAYLOAD = {"synthetic": True}
FP = campaign_fingerprint(PAYLOAD)


def _record_line(obj) -> bytes:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":")
    ).encode() + b"\n"


def _slice_journal(indices) -> bytes:
    out = _record_line({
        "type": "header", "version": JOURNAL_VERSION,
        "fingerprint": FP, "seed": 0,
    })
    for i in indices:
        out += _record_line({"type": "injection", "i": i})
    return out


class TestLeaseExpiryRace:
    def test_two_holders_of_one_slice_fold_idempotently(self, tmp_path):
        """Worker A's lease on slice 0 expired mid-flight; worker B
        re-ran the slice under the next fencing token.  Both deliveries
        arrive.  The merge must count the overlap — never fold a record
        twice, never re-verify."""
        fleet = str(tmp_path / "fleet")
        transport = DirTransport(fleet)
        # The full claim history of the race…
        for token, holder in ((1, "wA"), (2, "wB")):
            transport.put(f"lease/0.t{token}", json.dumps(
                {"holder": holder, "deadline": 0.0}
            ).encode())
        # …and both holders' (byte-identical) deliveries, plus wB's
        # delivery of slice 1.
        transport.put("journal/0.t1", _slice_journal([0, 2, 4, 6]))
        transport.put("journal/0.t2", _slice_journal([0, 2, 4, 6]))
        transport.put("journal/1.t1", _slice_journal([1, 3, 5, 7]))

        def never_run_locally(slice_id, tasks, journal_path, stop):
            raise AssertionError("local fallback must not trigger")

        supervisor = FleetSupervisor(
            tasks=[types.SimpleNamespace(index=i) for i in range(8)],
            checkpoint_path=str(tmp_path / "ckpt.jsonl"),
            fingerprint=FP,
            fingerprint_payload=PAYLOAD,
            seed=0,
            config=FleetConfig(
                root=fleet, slices=2, tick_seconds=0.01,
                patience_seconds=60.0,
            ),
            spec={"target": "synthetic"},
            local_runner=never_run_locally,
        )
        result = supervisor.run()
        assert set(result.records) == set(range(8))
        assert supervisor.stats.deliveries == 3
        assert supervisor.stats.duplicate_tasks == 4  # wA∩wB overlap
        assert supervisor.stats.releases == 1  # the t1→t2 reclaim
        assert result.drained is False
        # The merged journal holds each record exactly once.
        with open(str(tmp_path / "ckpt.jsonl"), "rb") as fh:
            lines = fh.read().splitlines()
        indices = [
            json.loads(line)["i"]
            for line in lines[1:]
            if json.loads(line).get("type") == "injection"
        ]
        assert indices == sorted(indices) and len(set(indices)) == 8


class TestLateStop:
    def test_stop_after_every_delivery_completes(self, tmp_path):
        """Every slice was delivered before the stop arrived: nothing is
        left undone, so the campaign is complete and the finish marker
        says so (workers stop on it instead of waiting for a resume)."""
        fleet = str(tmp_path / "fleet")
        transport = DirTransport(fleet)
        transport.put("journal/0.t1", _slice_journal([0, 2, 4, 6]))
        transport.put("journal/1.t1", _slice_journal([1, 3, 5, 7]))
        stop = threading.Event()
        stop.set()

        def never_run_locally(slice_id, tasks, journal_path, stop):
            raise AssertionError("local fallback must not trigger")

        supervisor = FleetSupervisor(
            tasks=[types.SimpleNamespace(index=i) for i in range(8)],
            checkpoint_path=str(tmp_path / "ckpt.jsonl"),
            fingerprint=FP,
            fingerprint_payload=PAYLOAD,
            seed=0,
            config=FleetConfig(
                root=fleet, slices=2, tick_seconds=0.01,
                patience_seconds=60.0,
            ),
            spec={"target": "synthetic"},
            local_runner=never_run_locally,
            stop=stop,
        )
        result = supervisor.run()
        assert set(result.records) == set(range(8))
        assert result.drained is False
        assert transport.get(COMPLETE_NAME) == b"done"
        # The stop itself was seen and broadcast to the workers.
        assert transport.get(DRAIN_NAME) == b"drain"
