"""The multiprocess shard supervisor: fault-tolerant campaign fabric.

PRs 1–5 hardened the *in-process* campaign runner: watchdogs, thread
containment, checkpoint journals, verdict caching.  One failure domain
remained — the campaign process itself.  A segfaulting native recovery
procedure, an OOM kill, or an operator ``kill -9`` took the whole
campaign down.  The fabric closes that gap:

* the failure-point space is partitioned **deterministically** across
  ``shards`` worker *processes* (``task.index % shards`` — stable under
  respawn, resume, and shard-count changes on the merge side);
* each shard runs the ordinary in-process executor against its slice,
  journaling every completion to its own ``<checkpoint>.shardK``
  (fsynced per record — the shard journal is the supervisor's ground
  truth, the event pipe is advisory);
* the supervisor detects shard death (process exit with work remaining)
  and requeues the *remaining* slice — computed from the shard journal,
  never from in-memory state — onto a worker respawned at the next
  tick; a shard that dies past ``max_respawns`` fails
  the campaign loudly (:class:`~repro.errors.FabricError`);
* per-shard liveness rides on the heartbeat events shards emit; the
  (parent-side) :class:`~repro.obs.HeartbeatMonitor` turns silence into
  ``worker_stalled`` telemetry;
* a drain request (SIGTERM/SIGINT via
  :class:`~repro.fabric.signals.DrainController`) SIGTERMs every shard
  once, waits ``drain_grace_seconds`` for them to flush and exit, then
  escalates to SIGKILL — either way every journaled record survives and
  ``--resume`` continues exactly where the signal landed;
* built-in chaos (:mod:`repro.fabric.chaos`) plans seeded random
  kills at spawn time, and a shard SIGKILLs itself right after the
  progress beat its kill was planned at, to prove all of the above:
  campaign output is byte-identical to a serial run *by construction*,
  because every injection is deterministic and the merge
  (:mod:`repro.fabric.merge`) is order-insensitive.

Workers are ``fork``-spawned (Linux), so the closures carrying the
image source and application factory cross into children without
pickling.  Each shard writes its events to a **private**
``SimpleQueue`` — single writer per pipe, so a SIGKILL mid-``put``
cannot wedge a lock any *other* shard needs, and event tuples are small
enough that pipe writes stay atomic (``PIPE_BUF``).  Lost events are
tolerated by design; only journals are trusted.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import os
import signal
import threading
import time
import traceback
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro.core.harness import journal_mismatch, scan_journal
from repro.errors import CheckpointError, FabricError
from repro.fabric.chaos import ChaosConfig, ChaosMonkey
from repro.fabric.merge import (
    cleanup_shard_artifacts,
    merge_journals,
    results_from_records,
    shard_journal_path,
)
from repro.fabric.signals import shard_worker_signals
from repro.obs.spans import NULL_TELEMETRY

#: Exit status a shard uses for an unhandled exception in its body.
SHARD_FAILED_EXIT = 70

#: When a chaos spec leaves ``max-kills`` unset, the supervisor caps the
#: monkey at this many kills per shard, so chaos always terminates.
DEFAULT_KILLS_PER_SHARD = 2


@dataclasses.dataclass
class FabricConfig:
    """Shard-supervisor knobs."""

    #: Worker processes the failure-point space is partitioned across.
    shards: int = 2
    #: Chaos mode (None/disabled = off).
    chaos: Optional[ChaosConfig] = None
    #: Supervisor poll cadence, in seconds.
    tick_seconds: float = 0.02
    #: Grace between drain SIGTERM and SIGKILL escalation.
    drain_grace_seconds: float = 10.0
    #: Shard deaths tolerated per shard before the campaign fails.
    max_respawns: int = 8

    def __post_init__(self):
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")


@dataclasses.dataclass
class FabricStats:
    """Supervisor bookkeeping; the campaign record nests it and
    publishes it as ``fabric_*``."""

    shards: int = 0
    spawns: int = 0
    deaths: int = 0
    respawns: int = 0
    chaos_kills: int = 0
    drained_shards: int = 0
    merged_records: int = 0
    events: int = 0


@dataclasses.dataclass
class FabricResult:
    """What a fabric campaign produced."""

    results: list
    records: Dict[int, dict]
    drained: bool
    stats: FabricStats


class ShardBeacon:
    """The shard-side progress relay: duck-types ``HeartbeatMonitor``.

    ``run_campaign`` calls ``note`` per completion — the beacon forwards
    a tiny advisory tuple to the supervisor's event pipe.  Everything
    else is a no-op: real accounting happens parent-side.  With a chaos
    kill planned (``kill_at``), the beacon SIGKILLs its own process right
    after sending that beat, unless a drain (``stop``) has begun.
    """

    def __init__(self, shard_id: int, events, kill_at: Optional[int] = None,
                 stop: Optional[threading.Event] = None):
        self.shard_id = shard_id
        self._events = events
        self._kill_at = kill_at
        self._stop = stop
        self._beats = 0

    def note(self, result) -> None:
        outcome = getattr(result, "outcome", None)
        self._events.put(
            (
                "hb",
                self.shard_id,
                {
                    "i": result.task.index,
                    "r": bool(getattr(result, "restored", False)),
                    "q": getattr(result, "quarantine", None) is not None,
                    "h": (
                        outcome is not None
                        and getattr(outcome.status, "name", "") == "HUNG"
                    ),
                },
            )
        )
        self._beats += 1
        if self._beats == self._kill_at and not (
            self._stop is not None and self._stop.is_set()
        ):
            os.kill(os.getpid(), signal.SIGKILL)

    def stats(self, payload: dict) -> None:
        """Best-effort end-of-shard stats relay (lost on SIGKILL)."""
        self._events.put(("stats", self.shard_id, payload))

    def finish(self) -> None:
        pass


class _ProgressBeat:
    """Parent-side result stand-in rebuilt from a beacon ``hb`` tuple,
    shaped for :meth:`HeartbeatMonitor.note`'s ``getattr`` probes."""

    class _Status:
        def __init__(self, name):
            self.name = name

    class _Outcome:
        def __init__(self, name):
            self.status = _ProgressBeat._Status(name)

    def __init__(self, flags: dict):
        self.restored = bool(flags.get("r"))
        self.quarantine = object() if flags.get("q") else None
        self.outcome = self._Outcome("HUNG") if flags.get("h") else None


@dataclasses.dataclass
class _Shard:
    """Supervisor-side state of one shard."""

    id: int
    tasks: list
    path: str
    queue: object
    process: object = None
    respawns: int = 0
    done: bool = False
    #: The beat the current spawn kills itself after (chaos), or None.
    kill_at: Optional[int] = None


def _shard_entry(worker_body, shard_id, tasks, journal_path, events,
                 kill_at=None):
    """Forked child entry: wire signals, run the body, report failure.

    ``os._exit`` (not ``sys.exit``) on both paths: a forked child must
    not run the parent's atexit handlers or flush the parent's inherited
    streams.  The body is responsible for closing its own journal and
    cache before returning.
    """
    stop = threading.Event()
    shard_worker_signals(stop)
    beacon = ShardBeacon(shard_id, events, kill_at, stop)
    try:
        worker_body(shard_id, tasks, journal_path, beacon, stop)
    except BaseException:  # noqa: BLE001 - anything is a shard failure
        try:
            events.put(
                ("failed", shard_id, traceback.format_exc(limit=20))
            )
        except Exception:  # pragma: no cover - dead pipe
            pass
        os._exit(SHARD_FAILED_EXIT)
    os._exit(0)


class ShardSupervisor:
    """Deterministic partition → supervised shards → merged campaign.

    ``worker_body(shard_id, tasks, journal_path, beacon, stop_event)``
    is the campaign closure executed inside each forked shard; it must
    journal every completion to ``journal_path`` (fingerprint-checked)
    and honour ``stop_event`` as a graceful-drain request.  The
    supervisor owns everything else: partitioning, liveness, death
    requeue, chaos, drain, and the final merge.
    """

    def __init__(
        self,
        tasks: Sequence,
        worker_body: Callable,
        checkpoint_path: str,
        fingerprint: str,
        seed: int,
        config: Optional[FabricConfig] = None,
        base_records: Optional[Dict[int, dict]] = None,
        restored_indices: Optional[Set[int]] = None,
        telemetry=NULL_TELEMETRY,
        heartbeat=None,
        stop: Optional[threading.Event] = None,
        on_stats: Optional[Callable[[int, dict], None]] = None,
        warn: Optional[Callable[[str], None]] = None,
    ):
        self.config = config or FabricConfig()
        self.tasks = list(tasks)
        self.worker_body = worker_body
        self.checkpoint_path = checkpoint_path
        self.fingerprint = fingerprint
        self.seed = seed
        self.base_records = dict(base_records or {})
        self.restored_indices = set(
            self.base_records if restored_indices is None else restored_indices
        )
        self.telemetry = telemetry
        self.heartbeat = heartbeat
        self.stop = stop
        self.on_stats = on_stats
        self.warn = warn
        self.stats = FabricStats(shards=self.config.shards)
        # Linux fork: the worker_body closure (image source, app
        # factory, recovery config) crosses into children as-is.
        self._ctx = multiprocessing.get_context("fork")
        chaos = self.config.chaos
        self._monkey = None
        if chaos is not None and chaos.enabled:
            cap = (
                chaos.max_kills
                if chaos.max_kills is not None
                else DEFAULT_KILLS_PER_SHARD * self.config.shards
            )
            self._monkey = ChaosMonkey(chaos, cap)

    # -- partition ---------------------------------------------------- #

    def _partition(self) -> List[_Shard]:
        slices: Dict[int, list] = {k: [] for k in range(self.config.shards)}
        for task in self.tasks:
            slices[task.index % self.config.shards].append(task)
        return [
            _Shard(
                id=k,
                tasks=slices[k],
                path=shard_journal_path(self.checkpoint_path, k),
                queue=self._ctx.SimpleQueue(),
            )
            for k in range(self.config.shards)
            if slices[k]
        ]

    def _remaining(self, shard: _Shard) -> list:
        """The shard's unfinished tasks, from its journal (ground truth).

        Tolerates the torn trailing line a SIGKILL mid-write leaves
        (that injection simply re-runs); mid-file corruption and another
        campaign's journal stay fatal.
        """
        if not os.path.exists(shard.path):
            return list(shard.tasks)
        try:
            header, records, _, _ = scan_journal(shard.path)
        except CheckpointError as err:
            raise FabricError(
                f"shard {shard.id} journal is corrupt mid-file: {err}"
            )
        differs = journal_mismatch(header, self.fingerprint)
        if differs:
            raise FabricError(
                f"shard journal {shard.path!r} {differs}; delete the "
                "stale .shard* files"
            )
        done = {
            record["i"]
            for record in records
            if record.get("type") == "injection"
        }
        return [task for task in shard.tasks if task.index not in done]

    # -- lifecycle ----------------------------------------------------- #

    def _spawn(self, shard: _Shard, remaining: list) -> None:
        if shard.respawns:
            # A SIGKILL can land while the dead incarnation holds its
            # event queue's write lock, which nothing would ever release
            # and every later ``put`` would wait on: fold what it sent,
            # then give the respawn a fresh queue.
            self._pump_shard(shard)
            shard.queue.close()
            shard.queue = self._ctx.SimpleQueue()
        shard.kill_at = (
            self._monkey.plan(len(remaining))
            if self._monkey is not None
            else None
        )
        process = self._ctx.Process(
            target=_shard_entry,
            args=(
                self.worker_body,
                shard.id,
                remaining,
                shard.path,
                shard.queue,
                shard.kill_at,
            ),
            name=f"mumak-shard-{shard.id}",
            daemon=True,
        )
        process.start()
        shard.process = process
        self.stats.spawns += 1
        self.telemetry.event(
            "fabric/shard_spawned",
            shard=shard.id,
            pid=process.pid,
            tasks=len(remaining),
            respawns=shard.respawns,
            kill_at=shard.kill_at,
        )

    def _signal_all(self, signum: int) -> None:
        for shard in self._shards:
            process = shard.process
            if process is not None and process.is_alive():
                try:
                    os.kill(process.pid, signum)
                except (ProcessLookupError, OSError):  # pragma: no cover
                    pass

    # -- events --------------------------------------------------------- #

    def _pump_events(self) -> None:
        for shard in self._shards:
            self._pump_shard(shard)

    def _pump_shard(self, shard: _Shard) -> None:
        while not shard.queue.empty():
            try:
                event = shard.queue.get()
            except (EOFError, OSError):  # pragma: no cover - dead pipe
                break
            self._handle_event(event)

    def _handle_event(self, event) -> None:
        self.stats.events += 1
        kind = event[0]
        if kind == "hb":
            _, shard_id, flags = event
            if self.heartbeat is not None:
                self.heartbeat.note_worker(shard_id)
                self.heartbeat.note(_ProgressBeat(flags))
        elif kind == "stats":
            _, shard_id, payload = event
            if self.on_stats is not None:
                self.on_stats(shard_id, payload)
        elif kind == "failed":
            _, shard_id, trace = event
            self.telemetry.event(
                "fabric/shard_failed", shard=shard_id, trace=trace
            )
            if self.warn is not None:
                first = trace.strip().splitlines()[-1] if trace else "?"
                self.warn(f"shard {shard_id} failed: {first}")

    # -- the supervision loop ------------------------------------------- #

    def run(self) -> FabricResult:
        self._shards = self._partition()
        with self.telemetry.span(
            "fabric/campaign",
            shards=self.config.shards,
            tasks=len(self.tasks),
            chaos=(
                self.config.chaos.kill_worker
                if self.config.chaos is not None
                else 0.0
            ),
        ):
            for shard in self._shards:
                remaining = self._remaining(shard)
                if remaining:
                    self._spawn(shard, remaining)
                else:
                    # Every assigned index already journaled (stray
                    # shard journal from a crashed previous run).
                    shard.done = True
            self._supervise()
            records = self._merge()
        results = results_from_records(records, self.restored_indices)
        return FabricResult(
            results=results,
            records=records,
            # Work left undone, not a stop seen: a stop that lands after
            # every shard journaled its slice leaves a complete campaign.
            drained=any(task.index not in records for task in self.tasks),
            stats=self.stats,
        )

    def _supervise(self) -> None:
        draining = False
        drain_deadline = None
        killed = False
        while not all(shard.done for shard in self._shards):
            now = time.monotonic()
            if (
                not draining
                and self.stop is not None
                and self.stop.is_set()
            ):
                draining = True
                drain_deadline = now + self.config.drain_grace_seconds
                self.telemetry.event(
                    "fabric/drain_requested",
                    grace=self.config.drain_grace_seconds,
                )
                self._signal_all(signal.SIGTERM)
            if draining and not killed and now >= drain_deadline:
                # Grace expired: shards that have not flushed and left
                # lose only their in-flight injection (torn-tail safe).
                killed = True
                self.telemetry.event("fabric/drain_escalated")
                self._signal_all(signal.SIGKILL)
            self._pump_events()
            self._reap(draining)
            if self.heartbeat is not None:
                self.heartbeat.check_stalls()
            time.sleep(self.config.tick_seconds)
        # Late advisory events (a shard may exit between pumps).
        self._pump_events()
        if self.heartbeat is not None:
            self.heartbeat.finish()

    def _reap(self, draining: bool) -> None:
        for shard in self._shards:
            if shard.done:
                continue
            process = shard.process
            if process is None:
                # Died last tick: respawn it, unless draining.
                if draining:
                    shard.done = True
                    self.stats.drained_shards += 1
                else:
                    self._spawn(shard, self._remaining(shard))
                continue
            if process.is_alive():
                continue
            process.join()
            exitcode = process.exitcode
            remaining = self._remaining(shard)
            if not remaining:
                shard.done = True
                self.telemetry.event(
                    "fabric/shard_finished",
                    shard=shard.id,
                    exitcode=exitcode,
                )
            elif draining:
                shard.done = True
                self.stats.drained_shards += 1
                self.telemetry.event(
                    "fabric/shard_drained",
                    shard=shard.id,
                    exitcode=exitcode,
                    remaining=len(remaining),
                )
            else:
                self._on_death(shard, exitcode, remaining)

    def _on_death(self, shard: _Shard, exitcode, remaining: list) -> None:
        self.stats.deaths += 1
        if shard.kill_at is not None and exitcode == -signal.SIGKILL:
            # The spawn's planned chaos kill landed.
            self.stats.chaos_kills += 1
            self.telemetry.event(
                "fabric/chaos_kill",
                shard=shard.id,
                beat=shard.kill_at,
                kills=self.stats.chaos_kills,
            )
        shard.respawns += 1
        self.telemetry.event(
            "fabric/shard_death",
            shard=shard.id,
            exitcode=exitcode,
            remaining=len(remaining),
            respawns=shard.respawns,
        )
        if shard.respawns > self.config.max_respawns:
            raise FabricError(
                f"shard {shard.id} died {shard.respawns} times "
                f"(last exit code {exitcode}) with {len(remaining)} "
                "injections remaining; exceeding max_respawns="
                f"{self.config.max_respawns} — the campaign checkpoint "
                "is intact and resumable"
            )
        shard.process = None
        self.stats.respawns += 1

    # -- merge ---------------------------------------------------------- #

    def _merge(self) -> Dict[int, dict]:
        records = merge_journals(
            self.checkpoint_path,
            self.fingerprint,
            self.seed,
            base_records=self.base_records,
            warn=self.warn,
        )
        self.stats.merged_records = len(records)
        self.telemetry.event(
            "fabric/merged",
            records=len(records),
            shards=len(self._shards),
        )
        return records


__all__ = [
    "DEFAULT_KILLS_PER_SHARD",
    "FabricConfig",
    "FabricResult",
    "FabricStats",
    "SHARD_FAILED_EXIT",
    "ShardBeacon",
    "ShardSupervisor",
    "_shard_entry",
]
