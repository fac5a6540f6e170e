"""The cross-host fleet: lease-based shard transport + idempotent merge.

PR 6's shard fabric made the campaign survive worker *processes* dying;
this module makes it survive worker *hosts* — and every way a shared
transport can betray them — while keeping the same proof obligation:
the merged campaign journal is byte-identical to a serial run.

The protocol, over any :class:`~repro.fabric.transport.Transport`:

* the supervisor publishes a **campaign manifest**
  (``campaign/manifest``): everything a worker host needs to rebuild
  the campaign deterministically — target, workload parameters,
  injector knobs, fault model, recovery scope — plus the campaign
  fingerprint *and* the payload it was derived from, so a worker
  recomputes and refuses a foreign or tampered manifest;
* workers (:func:`run_fleet_worker`, ``mumak fleet worker <dir>``)
  rebuild the campaign once (one instrumented run per host — the warm
  worker then serves many leases), claim failure-point slices through
  the :class:`~repro.fabric.lease.LeaseQueue`, execute them with the
  ordinary in-process campaign runner, and ship the fsynced slice
  journal + verdict-cache delta back as ``journal/<slice>.t<token>`` /
  ``vcache/<slice>.t<token>``;
* the supervisor trusts **record coverage, not worker claims**: a slice
  is complete when every one of its task indices is present in the
  folded records.  A dropped upload (the worker believes it landed!)
  simply leaves coverage incomplete; the lease expires and the slice
  re-runs elsewhere.  Deliveries fold first-wins by injection index —
  execution is deterministic, so duplicates are byte-identical and the
  overlap is *counted* (``fleet_duplicate_tasks``), never re-verified
  (workers adopt every shipped vcache before each lease);
* torn uploads fold their clean prefix or are refused outright
  (fingerprint-checked header), exactly like a torn local journal;
* worker heartbeats ride the transport (``hb/<id>``); the supervisor
  detects liveness by *content change*, not timestamps, so hosts need
  no clock agreement beyond the coarse lease TTL;
* **graceful degradation**: when no worker shows a sign of life for
  ``patience_seconds`` (or the transport keeps failing past the retry
  budget), the supervisor warns once and finishes the remaining slices
  locally — a dead fleet degrades to PR 6 behaviour, it never fails
  the campaign.

Transport chaos (``--transport-chaos drop=P,dup=P,torn=P,delay=MS``)
perturbs exactly the uploads this protocol claims to absorb; the chaos
acceptance test is ``cmp serial.jsonl fleet.jsonl``.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Set

from repro import jsonlog
from repro.core.harness import (
    campaign_fingerprint,
    fold_injections,
    journal_header,
    journal_mismatch,
)
from repro.errors import FleetError, TransportError, TransportMissing
from repro.fabric.chaos import TransportChaosConfig
from repro.fabric.lease import LeaseQueue
from repro.fabric.merge import (
    merge_journals,
    results_from_records,
    shard_journal_path,
)
from repro.fabric.transport import (
    ChaosTransport,
    DirTransport,
    Transport,
    reliable,
)
from repro.obs.spans import NULL_TELEMETRY

#: Transport object names of the campaign-control plane.
MANIFEST_NAME = "campaign/manifest"
COMPLETE_NAME = "campaign/complete"
DRAIN_NAME = "campaign/drain"

#: Prefixes of the data/liveness plane.
JOURNAL_PREFIX = "journal/"
VCACHE_PREFIX = "vcache/"
HEARTBEAT_PREFIX = "hb/"
WORKER_PREFIX = "workers/"
FIN_PREFIX = "fin/"

#: Manifest format version (refuse-don't-misread on mismatch).
MANIFEST_VERSION = 1


@dataclasses.dataclass
class FleetConfig:
    """Fleet-supervisor knobs."""

    #: Shared transport directory (the fleet's rendezvous).
    root: str
    #: Failure-point slices the campaign is partitioned into (the unit
    #: of lease/claim/re-run; more slices = finer-grained recovery).
    slices: int = 4
    #: Lease TTL: a slice whose holder neither renews nor delivers
    #: within this window is reclaimed by any worker.
    ttl_seconds: float = 30.0
    #: Supervisor poll cadence, in seconds.
    tick_seconds: float = 0.05
    #: How long the supervisor waits without any sign of worker life
    #: (enrollment, heartbeat change, delivery) before finishing the
    #: campaign on local execution.
    patience_seconds: float = 10.0
    #: Grace window after a drain request for in-flight deliveries.
    drain_grace_seconds: float = 2.0
    #: Transport-operation retries before an operation is abandoned.
    transport_retries: int = 4
    #: Seeded transport faults applied by *workers* (None = off).
    chaos: Optional[TransportChaosConfig] = None

    def __post_init__(self):
        if self.slices < 1:
            raise ValueError(f"fleet slices must be >= 1, got {self.slices}")
        if self.ttl_seconds <= 0:
            raise ValueError("fleet ttl_seconds must be > 0")


@dataclasses.dataclass
class FleetStats:
    """Supervisor bookkeeping; the campaign record nests it and
    publishes it as ``fleet_*``."""

    slices: int = 0
    workers: int = 0
    deliveries: int = 0
    torn_deliveries: int = 0
    refused_deliveries: int = 0
    duplicate_tasks: int = 0
    releases: int = 0
    transport_retries: int = 0
    local_fallback_tasks: int = 0
    merged_records: int = 0


@dataclasses.dataclass
class FleetResult:
    """What a fleet campaign produced."""

    results: list
    records: Dict[int, dict]
    drained: bool
    stats: FleetStats
    #: Locally spooled copies of every delivered verdict-cache payload
    #: (the caller folds them into the campaign cache, then deletes).
    vcache_paths: List[str] = dataclasses.field(default_factory=list)


# --------------------------------------------------------------------- #
# manifest
# --------------------------------------------------------------------- #


def build_manifest(
    fingerprint: str,
    fingerprint_payload: dict,
    seed: int,
    config: FleetConfig,
    spec: dict,
) -> dict:
    """The campaign manifest a worker host rebuilds the campaign from."""
    return {
        "type": "mumak-fleet-manifest",
        "version": MANIFEST_VERSION,
        "fingerprint": fingerprint,
        "fingerprint_payload": fingerprint_payload,
        "seed": seed,
        "slices": config.slices,
        "ttl_seconds": config.ttl_seconds,
        "transport_chaos": (
            config.chaos.spec()
            if config.chaos is not None and config.chaos.enabled
            else None
        ),
        "spec": spec,
    }


def parse_manifest(data: bytes) -> dict:
    """Decode + verify a manifest payload.

    The fingerprint is **recomputed** from the embedded payload and
    compared — a worker never trusts the fingerprint field alone, so a
    tampered or torn manifest is refused, not executed.
    """
    try:
        manifest = json.loads(data.decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as err:
        raise FleetError(f"unreadable fleet manifest: {err}")
    if (
        not isinstance(manifest, dict)
        or manifest.get("type") != "mumak-fleet-manifest"
        or manifest.get("version") != MANIFEST_VERSION
    ):
        raise FleetError(
            "not a version-%s fleet manifest" % MANIFEST_VERSION
        )
    payload = manifest.get("fingerprint_payload")
    recomputed = campaign_fingerprint(payload)
    if recomputed != manifest.get("fingerprint"):
        raise FleetError(
            "fleet manifest fingerprint mismatch: manifest claims "
            f"{manifest.get('fingerprint')!r} but its payload hashes to "
            f"{recomputed!r}; refusing to execute a tampered campaign"
        )
    return manifest


# --------------------------------------------------------------------- #
# delivery folding
# --------------------------------------------------------------------- #


def fold_journal_bytes(
    data: bytes,
    fingerprint: str,
    records: Dict[int, dict],
    warn: Optional[Callable[[str], None]] = None,
    origin: str = "delivery",
) -> tuple:
    """Fold a shipped slice-journal payload into ``records``.

    Returns ``(folded, duplicates, torn)``.  The contract mirrors the
    on-disk shard merge, hardened for transport damage: a payload
    truncated at *any* byte either folds its clean record prefix or is
    refused whole — it can never corrupt ``records``, because a line
    that does not parse (or a header that is not this campaign's) stops
    the fold before anything bad lands.  First writer wins on duplicate
    indices; execution is deterministic, so the duplicate is
    byte-identical and only *counted*.
    """
    header, lines, _, torn = jsonlog.parse(data, strict=False)
    if header is None or header.get("type") != "header":
        if header is not None and warn is not None:
            warn(f"fleet: {origin} has no journal header; refused")
        return 0, 0, True
    differs = journal_mismatch(header, fingerprint)
    if differs:
        if warn is not None:
            warn(f"fleet: {origin} {differs}; refused")
        return 0, 0, False
    return fold_injections(lines, records) + (torn,)


# --------------------------------------------------------------------- #
# the supervisor
# --------------------------------------------------------------------- #


class FleetSupervisor:
    """Publish the manifest, fold deliveries, re-lease, degrade, merge.

    ``local_runner(slice_id, tasks, journal_path, stop_event)`` executes
    a slice in-process (the PR 6 shard body) — the degradation path when
    the fleet goes quiet.  The supervisor never *requires* remote
    workers: a fleet campaign with zero enrolled hosts completes locally
    after ``patience_seconds``, merged through the identical machinery.
    """

    def __init__(
        self,
        tasks: Sequence,
        checkpoint_path: str,
        fingerprint: str,
        fingerprint_payload: dict,
        seed: int,
        config: FleetConfig,
        spec: dict,
        local_runner: Callable,
        base_records: Optional[Dict[int, dict]] = None,
        restored_indices: Optional[Set[int]] = None,
        telemetry=NULL_TELEMETRY,
        heartbeat=None,
        stop: Optional[threading.Event] = None,
        warn: Optional[Callable[[str], None]] = None,
        transport: Optional[Transport] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.tasks = list(tasks)
        self.checkpoint_path = checkpoint_path
        self.fingerprint = fingerprint
        self.fingerprint_payload = fingerprint_payload
        self.seed = seed
        self.config = config
        self.spec = spec
        self.local_runner = local_runner
        self.records: Dict[int, dict] = dict(base_records or {})
        self.restored_indices = set(
            self.records if restored_indices is None else restored_indices
        )
        self.telemetry = telemetry
        self.heartbeat = heartbeat
        self.stop = stop
        self.warn = warn
        self.transport = transport or DirTransport(config.root)
        self.stats = FleetStats(slices=config.slices)
        self.vcache_paths: List[str] = []
        self._clock = clock
        self._sleep = sleep
        self._slice_indices: Dict[int, Set[int]] = {
            k: set() for k in range(config.slices)
        }
        for task in self.tasks:
            self._slice_indices[task.index % config.slices].add(task.index)
        self._processed: Set[str] = set()
        self._hb_state: Dict[str, bytes] = {}
        self._lease_tokens: Dict[int, int] = {}
        self._fin_published: Set[int] = set()
        self._fallback_warned = False

    # -- transport plumbing -------------------------------------------- #

    def _count_retry(self, _attempt: int) -> None:
        # Stats only: the campaign record exports fleet_* once, at
        # campaign end; a registry write here would double-count.
        self.stats.transport_retries += 1

    def _reliable(self, operation, *args, key: str):
        return reliable(
            operation,
            *args,
            retries=self.config.transport_retries,
            key=key,
            on_retry=self._count_retry,
        )

    # -- slice accounting ----------------------------------------------- #

    def _slice_complete(self, slice_id: int) -> bool:
        return self._slice_indices[slice_id] <= self.records.keys()

    def _incomplete_slices(self) -> List[int]:
        return [
            k
            for k in range(self.config.slices)
            if not self._slice_complete(k)
        ]

    def _publish_fin(self) -> None:
        for slice_id in range(self.config.slices):
            if (
                slice_id not in self._fin_published
                and self._slice_complete(slice_id)
            ):
                try:
                    self._reliable(
                        self.transport.put,
                        f"{FIN_PREFIX}{slice_id}",
                        b"done",
                        key=f"fin-{slice_id}",
                    )
                except TransportError:
                    continue  # retried next tick
                self._fin_published.add(slice_id)

    # -- pumping the transport ------------------------------------------ #

    def _pump(self, now: float) -> bool:
        """One supervision tick; returns True on any sign of worker life."""
        alive = False
        try:
            alive |= self._pump_heartbeats()
            alive |= self._pump_deliveries()
            self._observe_leases()
        except TransportError as err:
            # The retry budget inside _reliable was already exhausted;
            # a broken transport is a *quiet fleet*, not a failure.
            self.telemetry.event("fleet/transport_error", error=str(err))
        return alive

    def _pump_heartbeats(self) -> bool:
        changed = False
        names = self._reliable(
            self.transport.list, HEARTBEAT_PREFIX, key="hb-list"
        )
        workers = set()
        for name in names:
            worker = name[len(HEARTBEAT_PREFIX):]
            workers.add(worker)
            try:
                payload = self.transport.get(name)
            except (TransportMissing, TransportError):
                continue
            if self._hb_state.get(name) != payload:
                self._hb_state[name] = payload
                changed = True
                if self.heartbeat is not None:
                    self.heartbeat.note_worker(worker)
        if len(workers) > self.stats.workers:
            self.stats.workers = len(workers)
        return changed

    def _pump_deliveries(self) -> bool:
        any_new = False
        names = self._reliable(
            self.transport.list, JOURNAL_PREFIX, key="journal-list"
        )
        for name in names:
            if name in self._processed:
                continue
            self._processed.add(name)
            any_new = True
            try:
                data = self._reliable(
                    self.transport.get, name, key=f"get-{name}"
                )
            except (TransportMissing, TransportError):
                continue
            folded, duplicates, torn = fold_journal_bytes(
                data,
                self.fingerprint,
                self.records,
                warn=self.warn,
                origin=name,
            )
            self.stats.deliveries += 1
            self.stats.duplicate_tasks += duplicates
            if torn:
                self.stats.torn_deliveries += 1
                if folded == 0:
                    self.stats.refused_deliveries += 1
            self.telemetry.event(
                "fleet/delivery",
                name=name,
                folded=folded,
                duplicates=duplicates,
                torn=torn,
            )
            self._spool_vcache(name)
        return any_new

    def _spool_vcache(self, journal_name: str) -> None:
        """Fetch the verdict-cache companion of a delivery, if shipped."""
        stem = journal_name[len(JOURNAL_PREFIX):]
        if stem.endswith(".dup"):
            stem = stem[: -len(".dup")]
        cache_name = VCACHE_PREFIX + stem
        if cache_name in self._processed:
            return
        try:
            data = self.transport.get(cache_name)
        except (TransportMissing, TransportError):
            return  # not shipped (yet) or dropped in flight
        self._processed.add(cache_name)
        path = (
            f"{self.checkpoint_path}.fleetcache{len(self.vcache_paths)}"
        )
        with open(path, "wb") as fh:
            fh.write(data)
        self.vcache_paths.append(path)

    def _observe_leases(self) -> None:
        """Count lease reclaims off the claim-token history."""
        from repro.fabric.lease import parse_claim_name

        for name in self.transport.list("lease/"):
            parsed = parse_claim_name(name)
            if parsed is None:
                continue
            slice_id, token = parsed
            previous = self._lease_tokens.get(slice_id, 0)
            if token > previous:
                if previous > 0:
                    self.stats.releases += token - previous
                    self.telemetry.event(
                        "fleet/release", slice=slice_id, token=token
                    )
                self._lease_tokens[slice_id] = token

    # -- degradation ---------------------------------------------------- #

    def _run_locally(self, slice_ids: List[int]) -> None:
        if not self._fallback_warned:
            self._fallback_warned = True
            message = (
                f"fleet: no live workers within "
                f"{self.config.patience_seconds:.0f}s; finishing "
                f"{len(slice_ids)} slice(s) on local execution"
            )
            if self.warn is not None:
                self.warn(message)
            self.telemetry.event(
                "fleet/local_fallback", slices=len(slice_ids)
            )
        for slice_id in slice_ids:
            if self.stop is not None and self.stop.is_set():
                return
            remaining = [
                task
                for task in self.tasks
                if task.index % self.config.slices == slice_id
                and task.index not in self.records
            ]
            if not remaining:
                continue
            journal_path = shard_journal_path(
                self.checkpoint_path, slice_id
            )
            self.local_runner(slice_id, remaining, journal_path, self.stop)
            self.stats.local_fallback_tasks += len(remaining)
            # Fold from disk so slice completion sees the coverage
            # (merge_journals re-reads the same file at the end).
            with open(journal_path, "rb") as fh:
                fold_journal_bytes(
                    fh.read(),
                    self.fingerprint,
                    self.records,
                    warn=self.warn,
                    origin=journal_path,
                )

    # -- the supervision loop ------------------------------------------- #

    def run(self) -> FleetResult:
        self._publish_manifest()
        with self.telemetry.span(
            "fleet/campaign",
            slices=self.config.slices,
            tasks=len(self.tasks),
        ):
            self._supervise()
            # Work left undone, not a stop seen: a stop that lands after
            # every slice was delivered leaves a complete campaign.
            drained = bool(self._incomplete_slices())
            try:
                self._reliable(
                    self.transport.put,
                    DRAIN_NAME if drained else COMPLETE_NAME,
                    b"done",
                    key="finish-marker",
                )
            except TransportError:
                pass  # workers will idle out on their own budget
            records = self._merge()
        results = results_from_records(records, self.restored_indices)
        return FleetResult(
            results=results,
            records=records,
            drained=drained,
            stats=self.stats,
            vcache_paths=list(self.vcache_paths),
        )

    def _publish_manifest(self) -> None:
        manifest = build_manifest(
            self.fingerprint,
            self.fingerprint_payload,
            self.seed,
            self.config,
            self.spec,
        )
        data = json.dumps(manifest, sort_keys=True).encode()
        try:
            existing = self._reliable(
                self.transport.get, MANIFEST_NAME, key="manifest-get"
            )
        except TransportMissing:
            existing = None
        if existing is not None:
            published = parse_manifest(existing)
            if published["fingerprint"] != self.fingerprint:
                raise FleetError(
                    f"fleet dir {self.config.root!r} already hosts "
                    f"campaign {published['fingerprint']!r}, not "
                    f"{self.fingerprint!r}; point --fleet at a fresh "
                    "directory"
                )
        self._reliable(
            self.transport.put, MANIFEST_NAME, data, key="manifest-put"
        )
        self.telemetry.event(
            "fleet/manifest_published",
            fingerprint=self.fingerprint,
            slices=self.config.slices,
        )

    def _supervise(self) -> None:
        draining = False
        drain_deadline = None
        last_alive = self._clock()
        self._publish_fin()
        while self._incomplete_slices():
            now = self._clock()
            if (
                not draining
                and self.stop is not None
                and self.stop.is_set()
            ):
                draining = True
                drain_deadline = now + self.config.drain_grace_seconds
                try:
                    self._reliable(
                        self.transport.put, DRAIN_NAME, b"drain",
                        key="drain-marker",
                    )
                except TransportError:
                    pass
                self.telemetry.event("fleet/drain_requested")
            if self._pump(now):
                last_alive = now
            self._publish_fin()
            if not self._incomplete_slices():
                break
            if draining:
                if now >= drain_deadline:
                    break  # merge the partials; --resume finishes
            elif now - last_alive >= self.config.patience_seconds:
                self._run_locally(self._incomplete_slices())
                self._publish_fin()
                last_alive = self._clock()
            if self.heartbeat is not None:
                self.heartbeat.check_stalls()
            self._sleep(self.config.tick_seconds)
        # One final pump: a delivery may have landed this tick.
        self._pump(self._clock())
        self._publish_fin()
        if self.heartbeat is not None:
            self.heartbeat.finish()

    def _merge(self) -> Dict[int, dict]:
        records = merge_journals(
            self.checkpoint_path,
            self.fingerprint,
            self.seed,
            base_records=self.records,
            warn=self.warn,
        )
        self.stats.merged_records = len(records)
        self.telemetry.event(
            "fleet/merged",
            records=len(records),
            deliveries=self.stats.deliveries,
            duplicates=self.stats.duplicate_tasks,
        )
        return records


# --------------------------------------------------------------------- #
# the worker
# --------------------------------------------------------------------- #


class _WorkerBeacon:
    """Worker-side progress relay: duck-types ``HeartbeatMonitor``.

    Each completion bumps the heartbeat object (content change = the
    supervisor's liveness signal), renews the lease past half-TTL, and
    polls the drain marker so a supervisor-side Ctrl-C stops remote
    slices at the next task boundary.
    """

    def __init__(self, worker, queue: LeaseQueue, lease, stop_event):
        self.worker = worker
        self.queue = queue
        self.lease = lease
        self.stop_event = stop_event
        self.beats = 0

    def note(self, result) -> None:
        self.beats += 1
        self.worker._beat(slice_id=self.lease.slice_id, done=self.beats)
        now = self.queue._clock()
        if now >= self.lease.deadline - self.queue.ttl_seconds / 2.0:
            try:
                self.lease = self.queue.renew(self.lease)
            except TransportError:
                pass  # renewal is best-effort; expiry just re-leases
        if self.worker._should_stop():
            self.stop_event.set()

    def finish(self) -> None:
        pass


@dataclasses.dataclass
class WorkerSummary:
    """What one ``mumak fleet worker`` invocation did."""

    worker_id: str
    claims: int = 0
    tasks_run: int = 0
    adopted_verdicts: int = 0
    transport_retries: int = 0
    drained: bool = False
    reason: str = ""


def run_fleet_worker(
    root: str,
    worker_id: Optional[str] = None,
    workdir: Optional[str] = None,
    poll_seconds: float = 0.2,
    idle_timeout: float = 60.0,
    manifest_timeout: float = 60.0,
    transport: Optional[Transport] = None,
    notice: Optional[Callable[[str], None]] = None,
    stop_event: Optional[threading.Event] = None,
    clock: Callable[[], float] = time.monotonic,
    sleep: Callable[[float], None] = time.sleep,
) -> WorkerSummary:
    """One worker host: rebuild the campaign, then serve leases.

    The worker is *stateless beyond its warm campaign*: everything it
    ships is named by (slice, fencing token), everything it adopts is
    content-addressed, and everything it believes about completion
    comes from the transport.  Kill it at any point and the only cost
    is a re-leased slice.
    """
    import os
    import tempfile

    if worker_id is None:
        worker_id = f"w{os.getpid()}"
    base = transport or DirTransport(root)
    summary = WorkerSummary(worker_id=worker_id)

    def say(line: str) -> None:
        if notice is not None:
            notice(line)

    # -- manifest ------------------------------------------------------- #
    deadline = clock() + manifest_timeout
    manifest_data = None
    while manifest_data is None:
        try:
            manifest_data = base.get(MANIFEST_NAME)
        except TransportMissing:
            if clock() >= deadline:
                raise FleetError(
                    f"no campaign manifest appeared in {root!r} within "
                    f"{manifest_timeout:.0f}s; is the supervisor running "
                    "(mumak analyze --fleet DIR)?"
                )
            sleep(poll_seconds)
    manifest = parse_manifest(manifest_data)
    fingerprint = manifest["fingerprint"]
    seed = manifest["seed"]
    slices = manifest["slices"]
    spec = manifest["spec"]

    chaos_spec = manifest.get("transport_chaos")
    fleet_transport: Transport = base
    if chaos_spec:
        fleet_transport = ChaosTransport(
            base, TransportChaosConfig.parse(chaos_spec), key=worker_id
        )

    def count_retry(_attempt: int) -> None:
        summary.transport_retries += 1

    # -- rebuild the campaign (one instrumented run per worker) --------- #
    say(f"[fleet:{worker_id}] rebuilding campaign {fingerprint[:12]}…")
    injector, source, tasks, app_factory = _rebuild_campaign(spec)
    say(
        f"[fleet:{worker_id}] warm: {len(tasks)} task(s) across "
        f"{slices} slice(s)"
    )

    queue = LeaseQueue(
        fleet_transport,
        slices,
        manifest["ttl_seconds"],
        holder=worker_id,
    )
    try:
        base.put(WORKER_PREFIX + worker_id, b"enrolled")
    except TransportError:
        pass

    worker = _WorkerIO(base, worker_id)
    worker._beat(slice_id=-1, done=0)

    def marker_present(name: str) -> bool:
        try:
            base.get(name)
            return True
        except (TransportMissing, TransportError):
            return False

    own_tmp = None
    if workdir is None:
        own_tmp = tempfile.TemporaryDirectory(prefix="mumak-fleet-worker-")
        workdir = own_tmp.name
    try:
        last_work = clock()
        while True:
            if stop_event is not None and stop_event.is_set():
                summary.reason = "stopped"
                break
            if marker_present(COMPLETE_NAME):
                summary.reason = "campaign complete"
                break
            if marker_present(DRAIN_NAME):
                summary.drained = True
                summary.reason = "campaign drained"
                break
            try:
                done = {
                    int(name[len(FIN_PREFIX):])
                    for name in fleet_transport.list(FIN_PREFIX)
                    if name[len(FIN_PREFIX):].isdigit()
                }
            except TransportError:
                count_retry(1)
                sleep(poll_seconds)
                continue
            if len(done) >= slices:
                summary.reason = "all slices finished"
                break
            try:
                lease = queue.claim(done)
            except TransportError:
                # A flaky transport round: treat as nothing claimable
                # and retry next poll rather than killing the worker.
                count_retry(1)
                lease = None
            if lease is None:
                if clock() - last_work >= idle_timeout:
                    summary.reason = "idle timeout"
                    break
                worker._beat(slice_id=-1, done=summary.tasks_run)
                sleep(poll_seconds)
                continue
            last_work = clock()
            summary.claims += 1
            say(
                f"[fleet:{worker_id}] lease slice {lease.slice_id} "
                f"(token {lease.token})"
            )
            ran = _run_lease(
                lease,
                queue,
                tasks,
                slices,
                source,
                app_factory,
                injector,
                fingerprint,
                seed,
                worker,
                fleet_transport,
                workdir,
                summary,
                count_retry,
                stop_event,
            )
            summary.tasks_run += ran
            last_work = clock()
    finally:
        if own_tmp is not None:
            own_tmp.cleanup()
    say(
        f"[fleet:{worker_id}] done: {summary.claims} lease(s), "
        f"{summary.tasks_run} task(s) — {summary.reason}"
    )
    return summary


class _WorkerIO:
    """The worker's tiny control-plane I/O (heartbeats, drain probes)."""

    def __init__(self, base: Transport, worker_id: str):
        self.base = base
        self.worker_id = worker_id
        self._beats = 0

    def _beat(self, slice_id: int, done: int) -> None:
        self._beats += 1
        payload = json.dumps(
            {
                "worker": self.worker_id,
                "beat": self._beats,
                "slice": slice_id,
                "done": done,
            },
            sort_keys=True,
        ).encode()
        try:
            self.base.put(HEARTBEAT_PREFIX + self.worker_id, payload)
        except TransportError:
            pass  # liveness is advisory; journals are ground truth

    def _should_stop(self) -> bool:
        try:
            self.base.get(DRAIN_NAME)
            return True
        except (TransportMissing, TransportError):
            return False


def _rebuild_campaign(spec: dict):
    """Deterministically reconstruct the campaign from a manifest spec.

    Everything here mirrors what ``mumak analyze`` does locally: same
    app factory, same workload generator, same planner — so the task
    list (and every injection result) is identical on every host.
    """
    # Imported lazily: repro.core imports this package for the fabric.
    from repro.apps import APPLICATIONS
    from repro.core.fault_injection import FaultInjector
    from repro.core.harness import HarnessConfig
    from repro.pmem.faultmodel import FaultModelConfig
    from repro.recovery import RecoveryEngineConfig
    from repro.workloads import generate_workload

    target = spec["target"]
    if target not in APPLICATIONS:
        raise FleetError(
            f"fleet manifest names unknown target {target!r}; "
            "is this worker running the same mumak version?"
        )
    cls = APPLICATIONS[target]
    options = dict(spec.get("options") or {})
    if options.get("bugs") is not None:
        options["bugs"] = frozenset(options["bugs"])
    elif "bugs" in options:
        del options["bugs"]

    def app_factory():
        return cls(**options)

    workload = generate_workload(
        spec["ops"], seed=spec["workload_seed"]
    )
    harness = HarnessConfig(
        timeout_seconds=spec.get("timeout_seconds"),
        step_budget=spec.get("step_budget"),
        max_retries=spec.get("max_retries", 2),
    )
    recovery_cfg = None
    if spec.get("recovery_cache_enabled", True):
        recovery_cfg = RecoveryEngineConfig.resolve(
            "on",
            spec.get("machine_pool", 1),
            spec["scope"],
            None,
        )
    injector = FaultInjector(
        granularity=spec["granularity"],
        require_store_since_last=spec["require_store_since_last"],
        max_injections=spec.get("max_injections"),
        harness=harness,
        fault_model=FaultModelConfig(**spec["fault_model"]),
        image_engine=spec.get("image_engine", "incremental"),
        recovery=recovery_cfg,
    )
    runs = [injector.detect(app_factory, workload, spec["seed"])]
    source, tasks = injector.plan(runs)
    return injector, source, tasks, app_factory


def _run_lease(
    lease,
    queue: LeaseQueue,
    tasks,
    slices: int,
    source,
    app_factory,
    injector,
    fingerprint: str,
    seed: int,
    worker: _WorkerIO,
    fleet_transport: Transport,
    workdir: str,
    summary: WorkerSummary,
    count_retry,
    stop_event: Optional[threading.Event],
) -> int:
    """Execute one leased slice and ship its journal + vcache delta."""
    import os

    slice_tasks = [
        task for task in tasks if task.index % slices == lease.slice_id
    ]
    if not slice_tasks:
        _ship(
            fleet_transport,
            lease,
            jsonlog.dumps(journal_header(fingerprint, seed)).encode(),
            None,
            count_retry,
        )
        return 0
    journal_path = os.path.join(
        workdir, f"slice{lease.slice_id}.t{lease.token}.jsonl"
    )

    def shipped_caches():
        for name in fleet_transport.list(VCACHE_PREFIX):
            try:
                yield fleet_transport.get(name)
            except (TransportMissing, TransportError):
                continue

    stop = stop_event or threading.Event()
    # Every shipped verdict is adopted before running: a re-leased or
    # duplicated slice replays from memory instead of re-verifying.
    _, engine = injector.run_slice(
        source, slice_tasks, app_factory, journal_path, fingerprint,
        seed, donors=shipped_caches(),
        heartbeat=_WorkerBeacon(worker, queue, lease, stop), stop=stop,
    )
    if engine is not None:
        summary.adopted_verdicts += engine.stats.cache_loaded
    with open(journal_path, "rb") as fh:
        journal_bytes = fh.read()
    cache_bytes = None
    if engine is not None and engine.cache is not None:
        with open(engine.cache.path, "rb") as fh:
            cache_bytes = fh.read()
    _ship(fleet_transport, lease, journal_bytes, cache_bytes, count_retry)
    return len(slice_tasks)


def _ship(
    fleet_transport: Transport,
    lease,
    journal_bytes: bytes,
    cache_bytes: Optional[bytes],
    count_retry,
) -> None:
    """Publish the slice artifacts under the lease's fencing token.

    vcache first: a delivery whose journal landed but whose cache was
    dropped still folds (the cache is an accelerator); the reverse order
    could fold a journal before its verdicts are adoptable.
    """
    stem = f"{lease.slice_id}.t{lease.token}"
    if cache_bytes is not None:
        try:
            reliable(
                fleet_transport.put,
                VCACHE_PREFIX + stem,
                cache_bytes,
                key=f"ship-vcache-{stem}",
                on_retry=count_retry,
            )
        except TransportError:
            pass  # the cache is optional; the journal is not
    try:
        reliable(
            fleet_transport.put,
            JOURNAL_PREFIX + stem,
            journal_bytes,
            key=f"ship-journal-{stem}",
            on_retry=count_retry,
        )
    except TransportError:
        pass  # the lease will expire and the slice re-runs elsewhere


__all__ = [
    "COMPLETE_NAME",
    "DRAIN_NAME",
    "FIN_PREFIX",
    "FleetConfig",
    "FleetResult",
    "FleetStats",
    "FleetSupervisor",
    "HEARTBEAT_PREFIX",
    "JOURNAL_PREFIX",
    "MANIFEST_NAME",
    "MANIFEST_VERSION",
    "VCACHE_PREFIX",
    "WORKER_PREFIX",
    "WorkerSummary",
    "build_manifest",
    "fold_journal_bytes",
    "parse_manifest",
    "run_fleet_worker",
]
