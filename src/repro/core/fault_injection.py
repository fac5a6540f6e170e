"""Mumak's fault-injection phase (paper, section 4.1).

Three steps, each requiring less instrumentation than the previous one:

1. **Detection** — run the instrumented target once, capturing the call
   stack at every failure-point candidate (persistency instructions
   preceded by at least one PM store, by default) and building the failure
   point tree.
2. **Injection** — for every unique failure point, materialise the
   deterministic program-order-prefix crash state.  Two engines exist,
   and both are image sources of the one plan → execute → fold path:

   * ``trace`` (default): derive every crash image from the single
     recorded trace.  Execution is deterministic, so the image obtained by
     re-running up to a failure point is byte-identical to the prefix of
     the recorded trace — this engine simply skips the redundant
     re-executions.
   * ``replay``: faithfully re-execute the workload once per failure
     point and crash it gracefully at the first candidate with that
     failure point's call stack (as the Pin implementation does); the
     point's adversarial variants reuse the image.

   The two engines write byte-identical journal records (tested); the
   ablation benchmark quantifies the replay engine's cost.
3. **Recovery** — run the application's recovery procedure, uninstrumented,
   on each crash image; a failure is a reported bug carrying the complete
   code path of the failure point and the recovery error (plus the
   recovery call trace when recovery crashed abruptly).

Both engines route every recovery through the hardened campaign runner
(:mod:`repro.core.harness`): watchdogged oracle execution, per-injection
containment with retry + quarantine, and checkpoint journaling + resume.
"""

from __future__ import annotations

import dataclasses
import os
import threading
from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple,
)

from repro.core.fpt import FailurePointTree
from repro.core.harness import (
    CampaignImageSource,
    CampaignJournal,
    CampaignResult,
    HarnessConfig,
    InjectionResult,
    InjectionTask,
    QuarantineRecord,
    run_campaign,
    same_injection,
    split_resumed,
)
from repro.core.oracle import RecoveryOutcome, RecoveryStatus
from repro.core.report import Finding, ModelComparison
from repro.errors import CrashInjected
from repro.instrument.runner import run_instrumented
from repro.obs.heartbeat import HeartbeatMonitor
from repro.obs.metrics import merge_record, publish_record
from repro.obs.spans import NULL_TELEMETRY
from repro.instrument.tracer import (
    GRANULARITY_PERSISTENCY,
    FailurePointObserver,
    MinimalTracer,
)
from repro.pmem.events import MemoryEvent
from repro.pmem.faultmodel import VARIANT_PREFIX, FaultModelConfig
from repro.pmem.incremental import (
    ENGINE_IMAGE_INCREMENTAL,
    ImageEngineStats,
    validate_image_engine,
)
from repro.pmem.machine import PMachine
from repro.recovery import RecoveryEngine, RecoveryEngineStats
from repro.recovery.engine import CACHE_SUFFIX

if TYPE_CHECKING:
    # Lazy at run time: repro.fabric depends on this package's harness.
    from repro.fabric import FabricStats
    from repro.fabric.fleet import FleetStats

# ``run_campaign`` and ``run_instrumented`` are called through this
# module's globals: the benchmark's layer tracer (``perfbench/tracer.py``)
# patches them here by name.

ENGINE_TRACE = "trace"
ENGINE_REPLAY = "replay"


@dataclass
class FaultInjectionStats:
    """The campaign record: the evaluation tables' bookkeeping.

    Detection seeds the campaign's own tallies; the injections' are
    computed in one place, from the folded results
    (:meth:`FaultInjector._collect`), so every executor fills them the
    same way.  Every other counter has one owner, nested here as that
    owner's record: the image source's, the recovery engine's, and —
    when that executor ran — the shard or fleet supervisor's.
    """

    candidates: int = 0
    unique_failure_points: int = 0
    injections: int = 0
    recovery_failures: int = 0
    executions: int = 0
    trace_length: int = 0
    #: Injections of non-prefix fault-model variants (torn/reorder/media).
    adversarial_injections: int = 0
    #: Recoveries that died on an unhandled uncorrectable media error.
    media_faults: int = 0
    # Hardened-runner bookkeeping.
    quarantined: int = 0
    hung: int = 0
    resource_exhausted: int = 0
    #: Containment retries of the injections this run executed.
    retries: int = 0
    #: Injections restored from a checkpoint instead of re-executed.
    resumed: int = 0
    # Concurrency-aware campaigns (repro.sched).
    #: Schedule samples the campaign's crash points were drawn from
    #: (0 = single-threaded campaign).
    schedules: int = 0
    #: Simulated threads per schedule sample.
    sched_threads: int = 0
    #: Which crash-image engine materialised the campaign's images.
    image_engine: str = ""
    #: Wall-clock spent materialising crash images vs running recovery.
    materialise_seconds: float = 0.0
    recovery_seconds: float = 0.0
    #: The image source's counters, summed over every process that
    #: relayed them (:mod:`repro.pmem.incremental`).
    image: ImageEngineStats = field(default_factory=ImageEngineStats)
    #: The recovery engines' counters, likewise (:mod:`repro.recovery`).
    recovery: RecoveryEngineStats = field(
        default_factory=RecoveryEngineStats
    )
    #: The shard supervisor's record (None unless ``--shards`` ran).
    fabric: Optional[FabricStats] = None
    #: The fleet supervisor's record (None unless ``--fleet`` ran).
    fleet: Optional[FleetStats] = None

    def publish(self, registry) -> None:
        """Export the record, each number under one name: the tallies
        as ``campaign_*``, the materialise/recovery wall-clock split as
        ``campaign_phase_split_seconds{phase,engine}``, and each nested
        record under its owner's prefix."""
        publish_record(
            registry, "campaign", self,
            exclude=("materialise_seconds", "recovery_seconds"),
        )
        for phase in ("materialise", "recovery"):
            registry.counter(
                "campaign_phase_split_seconds",
                phase=phase,
                engine=self.image_engine,
            ).inc(getattr(self, f"{phase}_seconds"))
        publish_record(
            registry, "image_engine", self.image, engine=self.image_engine
        )
        publish_record(registry, "recovery_engine", self.recovery)
        if self.fabric is not None:
            publish_record(registry, "fabric", self.fabric)
        if self.fleet is not None:
            publish_record(registry, "fleet", self.fleet)


@dataclass
class FaultInjectionResult:
    findings: List[Finding]
    stats: FaultInjectionStats
    tree: FailurePointTree
    outcomes: List[Tuple[Tuple[str, ...], RecoveryOutcome]] = field(
        default_factory=list
    )
    quarantined: List[QuarantineRecord] = field(default_factory=list)
    #: Prefix-vs-adversarial summary (populated when the fault model
    #: materialises any non-prefix variant).
    comparison: Optional[ModelComparison] = None
    #: True when the campaign stopped early on a graceful drain request
    #: (SIGTERM/SIGINT): every completed injection was journaled and the
    #: remainder resumes via the checkpoint.
    drained: bool = False


@dataclass
class DetectionRun:
    """One instrumented execution's products, which injection plans from.

    Detection always yields a list of runs: one with ``sched == -1`` for
    an ordinary campaign, one per schedule sample under ``--sched``
    (:class:`repro.sched.campaign.ScheduleRun`).  Every task carries its
    run's ``sched`` id, and the campaign's image source dispatches on it.
    """

    sched: int
    #: The event trace crash images are built from.
    trace: List[MemoryEvent] = field(default_factory=list)
    tree: FailurePointTree = field(default_factory=FailurePointTree)
    initial_image: bytes = b""
    #: Failure-point candidates the observer saw.
    candidates: int = 0
    #: Simulated threads the run was scheduled over (0 = unscheduled).
    threads: int = 0


class FaultInjector:
    """Configurable fault-injection engine.

    Every campaign takes one path: detect a list of runs, :meth:`plan`
    them into tasks served by one image source, execute the tasks —
    in this process (:meth:`inject`), across shard processes
    (:meth:`inject_sharded`), or across fleet hosts
    (:meth:`inject_fleet`) — and fold the results into one
    :class:`FaultInjectionResult`.
    """

    def __init__(
        self,
        granularity: str = GRANULARITY_PERSISTENCY,
        require_store_since_last: bool = True,
        engine: str = ENGINE_TRACE,
        max_injections: Optional[int] = None,
        harness: Optional[HarnessConfig] = None,
        fault_model: Optional[FaultModelConfig] = None,
        image_engine: str = ENGINE_IMAGE_INCREMENTAL,
        telemetry=NULL_TELEMETRY,
        heartbeat_interval: float = 0.0,
        heartbeat_sink=None,
        recovery=None,
        stop: Optional[threading.Event] = None,
        stall_window: float = 0.0,
    ):
        if engine not in (ENGINE_TRACE, ENGINE_REPLAY):
            raise ValueError(f"unknown injection engine {engine!r}")
        self.granularity = granularity
        self.require_store_since_last = require_store_since_last
        self.engine = engine
        self.max_injections = max_injections
        self.harness = harness or HarnessConfig()
        self.fault_model = fault_model or FaultModelConfig()
        #: Observation-only telemetry endpoint (:mod:`repro.obs`); the
        #: inert default keeps the hot path free of branches.
        self.telemetry = telemetry
        #: Heartbeat cadence in wall-clock seconds (0 = no heartbeats)
        #: and the renderer sink (the CLI passes a stderr writer).
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_sink = heartbeat_sink
        #: Crash-image engine: ``"incremental"`` (production default —
        #: O(changed bytes) per failure point) or ``"replay"`` (the
        #: differential-testing reference; O(T) per failure point).
        #: Findings, reports, and checkpoint journals are byte-identical
        #: across the two (property-tested).
        self.image_engine = validate_image_engine(image_engine)
        #: Recovery-engine config (:class:`repro.recovery.
        #: RecoveryEngineConfig`) — verdict cache + machine pool.
        #: ``None`` (or a disabled config) runs every recovery on a
        #: freshly booted machine with no cache.
        self.recovery = recovery
        #: Graceful-drain request (a :class:`threading.Event`, typically
        #: owned by a :class:`repro.fabric.DrainController`).  When set,
        #: the campaign stops at the next task boundary, flushes its
        #: checkpoint, and reports ``drained=True``.
        self.stop = stop
        #: Per-shard (or per-fleet-worker) stall window for the
        #: heartbeat monitor (seconds; 0 = off).
        self.stall_window = stall_window

    # ------------------------------------------------------------------ #
    # the shared campaign pieces
    # ------------------------------------------------------------------ #

    def recovery_engine(self, source, journal_path=None, donors=()):
        """The recovery engine of the campaign ``source`` serves, or None
        when disabled.

        Digests cover the source's extent, the union of every run's
        persisted-write extent, so two crash images that agree on every
        byte any run ever persisted — equivalent interleavings,
        DPOR-style — collapse to one verdict within and across runs, and
        every engine of one campaign (local, shard, or fleet slice)
        hashes the same bytes.  With ``journal_path`` the engine serves
        one shard or fleet slice
        (:meth:`repro.recovery.RecoveryEngine.for_slice`).
        """
        if self.recovery is None or not self.recovery.enabled:
            return None
        extent = source.extent
        if journal_path is not None:
            return RecoveryEngine.for_slice(
                self.recovery, extent, journal_path, donors
            )
        return RecoveryEngine(
            self.recovery, extent=extent, telemetry=self.telemetry
        )

    def _campaign_cache(self) -> List[str]:
        """The campaign-wide verdict cache file, if one persists (as a
        list: every shard or slice engine adopts it as a donor)."""
        if self.recovery is None or not self.recovery.enabled:
            return []
        path = self.recovery.cache_path
        return [path] if path is not None else []

    def _stats(self, runs) -> FaultInjectionStats:
        """A campaign's bookkeeping, seeded from its detection runs."""
        return FaultInjectionStats(
            candidates=sum(run.candidates for run in runs),
            unique_failure_points=sum(
                run.tree.failure_point_count for run in runs
            ),
            trace_length=sum(len(run.trace) for run in runs),
            executions=len(runs),
            schedules=len(runs) if runs[0].sched >= 0 else 0,
            sched_threads=runs[0].threads,
        )

    def plan(
        self, runs, reexecute=None
    ) -> Tuple[CampaignImageSource, List[InjectionTask]]:
        """The campaign's image source and its deterministic task plan.

        Runs contribute in order with contiguous task indices, so
        journal and fabric identity (``task.index``) is campaign-wide;
        each task also carries its run's schedule id.  Within a run:
        one prefix task per failure point (first, so finding dedup
        attributes dual-reachable bugs to the graceful crash),
        adversarial variants riding after.  The planner is the run's
        factory in the source, so materialising the variants consumes
        the same memoized history pass.  ``reexecute`` is the replay
        engine's prefix builder (see :class:`CampaignImageSource`).
        """
        source = CampaignImageSource(
            runs,
            fault_model=self.fault_model,
            image_engine=self.image_engine,
            reexecute=reexecute,
        )
        adversarial = self.fault_model.is_adversarial
        tasks: List[InjectionTask] = []

        def room() -> bool:
            return self.max_injections is None or (
                len(tasks) < self.max_injections
            )

        with self.telemetry.span(
            "campaign/injection/planner", engine=self.image_engine
        ):
            for run in runs:
                planner = source.factory(run.sched) if adversarial else None
                for stack, node in run.tree.failure_points():
                    if not room():
                        break
                    node.visited = True
                    tasks.append(
                        InjectionTask(
                            index=len(tasks),
                            stack=stack,
                            seq=node.first_seq,
                            sched=run.sched,
                        )
                    )
                    if planner is not None:
                        for variant in planner.plan(node.first_seq):
                            if not room():
                                break
                            tasks.append(
                                InjectionTask(
                                    index=len(tasks),
                                    stack=stack,
                                    seq=node.first_seq,
                                    variant=variant,
                                    sched=run.sched,
                                )
                            )
        return source, tasks

    def _heartbeat(self, total: int) -> Optional[HeartbeatMonitor]:
        """A live progress monitor, or None when inert (no telemetry and
        no sink, or a zero interval)."""
        monitor = HeartbeatMonitor(
            total=total,
            interval_seconds=self.heartbeat_interval,
            telemetry=self.telemetry,
            sink=self.heartbeat_sink,
            stall_window_seconds=self.stall_window,
        )
        return monitor if monitor.active else None

    # ------------------------------------------------------------------ #
    # step 1: detection
    # ------------------------------------------------------------------ #

    def detect(self, app_factory, workload, seed: int = 0) -> DetectionRun:
        """One instrumented run: the failure point tree and the trace."""
        tree = FailurePointTree()
        observer = FailurePointObserver(
            lambda stack, event: tree.insert(stack, seq=event.seq),
            granularity=self.granularity,
            require_store_since_last=self.require_store_since_last,
        )
        tracer = MinimalTracer()
        artifacts = run_instrumented(
            app_factory, workload, hooks=[tracer, observer], seed=seed
        )
        return DetectionRun(
            sched=-1,
            trace=tracer.events,
            tree=tree,
            initial_image=artifacts.initial_image,
            candidates=observer.candidates_seen,
        )

    # ------------------------------------------------------------------ #
    # steps 2+3: execute the plan
    # ------------------------------------------------------------------ #

    def run(
        self,
        app_factory: Callable[[], Any],
        workload: Sequence,
        seed: int = 0,
        journal: Optional[CampaignJournal] = None,
        resume_state: Optional[Dict[int, InjectionResult]] = None,
    ) -> FaultInjectionResult:
        """Detection, then injection in this process."""
        return self.inject(
            app_factory,
            [self.detect(app_factory, workload, seed)],
            workload=workload,
            seed=seed,
            journal=journal,
            resume_state=resume_state,
        )

    def inject(
        self,
        app_factory: Callable[[], Any],
        runs: Sequence[DetectionRun],
        workload: Sequence = (),
        seed: int = 0,
        journal: Optional[CampaignJournal] = None,
        resume_state: Optional[Dict[int, InjectionResult]] = None,
    ) -> FaultInjectionResult:
        """Injection over detected runs, serially in this process.
        ``workload``/``seed`` serve only the replay engine, which
        re-executes the target per failure point."""
        stats = self._stats(runs)
        reexecute = None
        if self.engine == ENGINE_REPLAY:
            reexecute = _Reexecution(self, app_factory, workload, seed)
        source, tasks = self.plan(runs, reexecute=reexecute)
        engine = self.recovery_engine(source)
        campaign = run_campaign(
            tasks,
            source,
            app_factory,
            config=self.harness,
            journal=journal,
            resume_state=resume_state,
            telemetry=self.telemetry,
            heartbeat=self._heartbeat(len(tasks)),
            recovery=engine,
            stop=self.stop,
        )
        if engine is not None:
            merge_record(stats.recovery, engine.close())
        if reexecute is not None:
            stats.executions += reexecute.executions
        return self._collect(campaign, stats, runs, source)

    def run_slice(
        self,
        source: CampaignImageSource,
        tasks: Sequence[InjectionTask],
        app_factory,
        journal_path: str,
        fingerprint: str,
        seed: int = 0,
        donors=(),
        heartbeat=None,
        stop: Optional[threading.Event] = None,
        telemetry=NULL_TELEMETRY,
    ) -> Tuple[CampaignResult, Optional[RecoveryEngine]]:
        """One shard or fleet slice of a campaign, run in this process.

        The ordinary executor over ``tasks``, journaled record by record
        to ``journal_path`` (slice journals are the fabric's ground truth
        for requeue and merge), with a slice verdict cache that first
        adopts every verdict in ``donors`` — zero re-verification for
        work an earlier leg already did.  Returns the slice's campaign
        result and its closed recovery engine (None when off).
        """
        journal = CampaignJournal(
            journal_path, fingerprint, seed=seed, interval=1
        )
        engine = None
        try:
            engine = self.recovery_engine(source, journal_path, donors)
            campaign = run_campaign(
                tasks,
                source,
                app_factory,
                config=self.harness,
                journal=journal,
                telemetry=telemetry,
                heartbeat=heartbeat,
                recovery=engine,
                stop=stop,
            )
        finally:
            if engine is not None:
                engine.close()
            journal.close()
        return campaign, engine

    def inject_sharded(
        self,
        app_factory,
        runs: Sequence[DetectionRun],
        fabric,
        checkpoint_path: str,
        fingerprint: str,
        seed: int = 0,
        resume_state: Optional[Dict[int, InjectionResult]] = None,
        base_records: Optional[Dict[int, dict]] = None,
    ) -> FaultInjectionResult:
        """Run the campaign across shard *processes*.

        ``fabric`` is a :class:`repro.fabric.FabricConfig`; the tasks are
        partitioned deterministically across its shards, each shard
        journals its slice to ``<checkpoint_path>.shardK`` (with a
        per-shard verdict cache), and the supervisor merges everything
        back into ``checkpoint_path`` — byte-identical to the journal a
        serial run writes, whatever workers die along the way.

        ``resume_state``/``base_records`` carry an earlier run's
        completed injections (results for filtering, raw journal records
        for the merge).  Each shard relays its image and recovery-engine
        stats and its materialise/recovery wall-clock sums back
        best-effort (a SIGKILLed shard's are lost); per-injection timings
        stay process-local and are never journaled.
        """
        # Lazy: repro.fabric depends on this package's harness module.
        from repro.fabric import ShardSupervisor

        stats = self._stats(runs)
        source, tasks = self.plan(runs)
        todo, restored = split_resumed(tasks, resume_state)
        donors = self._campaign_cache()

        def worker_body(shard_id, shard_tasks, journal_path, beacon, stop):
            """Runs inside the forked shard: one slice, journaled per
            record; every verdict a drained or crashed leg persisted
            replays from memory."""
            # The source's counters are cumulative and the fork copied
            # the parent's planning-time numbers; relay only what THIS
            # shard adds, or the parent would count planning per shard.
            image_baseline = dataclasses.asdict(source.stats)
            campaign, engine = self.run_slice(
                source, shard_tasks, app_factory, journal_path,
                fingerprint, seed, donors=donors, heartbeat=beacon,
                stop=stop,
            )
            image_total = dataclasses.asdict(source.stats)
            beacon.stats(
                {
                    "image": {
                        key: image_total[key] - image_baseline[key]
                        for key in image_total
                    },
                    "recovery": (
                        dataclasses.asdict(engine.stats)
                        if engine is not None
                        else None
                    ),
                    "materialise_seconds": campaign.materialise_seconds,
                    "recovery_seconds": campaign.recovery_seconds,
                }
            )

        def absorb_shard_stats(shard_id, payload):
            merge_record(stats.image, payload.get("image") or {})
            merge_record(stats.recovery, payload.get("recovery") or {})
            stats.materialise_seconds += payload.get(
                "materialise_seconds", 0.0
            )
            stats.recovery_seconds += payload.get("recovery_seconds", 0.0)

        supervisor = ShardSupervisor(
            todo,
            worker_body,
            checkpoint_path,
            fingerprint,
            seed,
            config=fabric,
            base_records=base_records,
            restored_indices={result.task.index for result in restored},
            telemetry=self.telemetry,
            heartbeat=self._heartbeat(len(todo)),
            stop=self.stop,
            on_stats=absorb_shard_stats,
            warn=self.heartbeat_sink,
        )
        fabric_result = supervisor.run()
        stats.fabric = fabric_result.stats
        return self._fold_distributed(
            fabric_result, stats, runs, source, tasks, checkpoint_path
        )

    def inject_fleet(
        self,
        app_factory,
        runs: Sequence[DetectionRun],
        fleet,
        checkpoint_path: str,
        fingerprint: str,
        fingerprint_payload: dict,
        spec: dict,
        seed: int = 0,
        resume_state: Optional[Dict[int, InjectionResult]] = None,
        base_records: Optional[Dict[int, dict]] = None,
    ) -> FaultInjectionResult:
        """Run the campaign across worker *hosts*.

        ``fleet`` is a :class:`repro.fabric.fleet.FleetConfig`; the
        tasks are partitioned into lease-able slices published over the
        fleet transport, remote workers (``mumak fleet worker``) execute
        and ship them back, and the supervisor folds deliveries
        idempotently into ``checkpoint_path`` — byte-identical to the
        serial journal whatever the transport drops, duplicates, or
        tears.  With no live workers the campaign degrades to local
        execution after the fleet's patience window.

        ``spec`` is the campaign-reconstruction recipe published in the
        manifest (see :func:`repro.fabric.fleet.build_manifest`);
        ``fingerprint_payload`` is the dict ``fingerprint`` was hashed
        from, shipped so workers can refuse a tampered manifest.  The
        local fallback's engine counters join the campaign record;
        remote workers' do not come back.
        """
        # Lazy: repro.fabric depends on this package's harness module.
        from repro.fabric.fleet import FleetSupervisor

        stats = self._stats(runs)
        source, tasks = self.plan(runs)
        todo, restored = split_resumed(tasks, resume_state)
        donors = self._campaign_cache()

        def local_runner(slice_id, slice_tasks, journal_path, stop):
            """The degradation path: one fleet slice, in this process,
            journaled exactly like an in-host shard so the ordinary
            merge machinery picks it up.  Verdicts that made it back
            over the transport are just as good locally."""
            campaign, engine = self.run_slice(
                source, slice_tasks, app_factory, journal_path,
                fingerprint, seed,
                donors=donors + supervisor.vcache_paths, stop=stop,
                telemetry=self.telemetry,
            )
            if engine is not None:
                merge_record(stats.recovery, engine.stats)
            stats.materialise_seconds += campaign.materialise_seconds
            stats.recovery_seconds += campaign.recovery_seconds

        supervisor = FleetSupervisor(
            todo,
            checkpoint_path,
            fingerprint,
            fingerprint_payload,
            seed,
            config=fleet,
            spec=spec,
            local_runner=local_runner,
            base_records=base_records,
            restored_indices={result.task.index for result in restored},
            telemetry=self.telemetry,
            heartbeat=self._heartbeat(len(todo)),
            stop=self.stop,
            warn=self.heartbeat_sink,
        )
        fleet_result = supervisor.run()
        stats.fleet = fleet_result.stats
        return self._fold_distributed(
            fleet_result, stats, runs, source, tasks, checkpoint_path,
            spools=fleet_result.vcache_paths,
        )

    # ------------------------------------------------------------------ #
    # the fold
    # ------------------------------------------------------------------ #

    def _fold_distributed(
        self, result, stats, runs, source, tasks, checkpoint_path, spools=()
    ) -> FaultInjectionResult:
        """Fold a shard or fleet campaign back into one.

        Every shard and delivered verdict cache joins the campaign-wide
        cache (duplicated deliveries then replay from it on resume
        instead of re-verifying), every shard artifact is retired (the
        merged journal and cache are now the single source of truth,
        drained or complete), and only results of this campaign's plan
        are kept: records beyond it stay in the merged journal, exactly
        as a serial append-mode journal keeps them, but are not campaign
        results.  The campaign is drained when some planned task has no
        record — as in a serial campaign, a stop that arrives after the
        last record leaves it complete.
        """
        # Lazy: repro.fabric depends on this package's harness module.
        from repro.fabric import (
            cleanup_shard_artifacts,
            find_shard_journals,
            merge_vcaches,
        )

        for campaign_cache in self._campaign_cache():
            merge_vcaches(
                campaign_cache,
                self.recovery.scope,
                [
                    path + CACHE_SUFFIX
                    for path in find_shard_journals(checkpoint_path)
                ]
                + list(spools),
            )
        for spool in spools:
            try:
                os.remove(spool)
            except FileNotFoundError:
                pass
        cleanup_shard_artifacts(checkpoint_path)
        planned = {task.index: task for task in tasks}
        results = [
            done
            for done in result.results
            if done.task.index in planned
            and same_injection(done.task, planned[done.task.index])
        ]
        campaign = CampaignResult(
            results=results, drained=len(results) < len(planned)
        )
        return self._collect(campaign, stats, runs, source)

    def _collect(
        self,
        campaign: CampaignResult,
        stats: FaultInjectionStats,
        runs: Sequence[DetectionRun],
        source: CampaignImageSource,
    ) -> FaultInjectionResult:
        """Fill the campaign record from the folded results — the same
        way for every executor — and publish it."""
        # Image accounting done in this process: planning, serial
        # execution, fleet local fallback (shards relay theirs through
        # the stats beacon).
        merge_record(stats.image, source.stats)
        stats.image_engine = self.image_engine
        findings: List[Finding] = []
        outcomes: List[Tuple[Tuple[str, ...], RecoveryOutcome]] = []
        for result in campaign.results:
            stats.injections += 1
            if result.task.variant != VARIANT_PREFIX:
                stats.adversarial_injections += 1
            if result.restored:
                stats.resumed += 1
            else:
                stats.retries += result.attempts - 1
            if result.quarantine is not None:
                stats.quarantined += 1
                continue
            outcome = result.outcome
            outcomes.append((result.task.stack, outcome))
            if outcome.status is RecoveryStatus.HUNG:
                stats.hung += 1
            elif outcome.status is RecoveryStatus.RESOURCE_EXHAUSTED:
                stats.resource_exhausted += 1
            elif outcome.status is RecoveryStatus.MEDIA_ERROR:
                stats.media_faults += 1
            if result.finding is not None:
                stats.recovery_failures += 1
                findings.append(result.finding)
        stats.materialise_seconds += campaign.materialise_seconds
        stats.recovery_seconds += campaign.recovery_seconds
        if self.telemetry.enabled:
            self._publish(stats, campaign.results)
        comparison = (
            self._compare(findings, stats)
            if self.fault_model.is_adversarial
            else None
        )
        return FaultInjectionResult(
            findings,
            stats,
            runs[0].tree,
            outcomes,
            quarantined=campaign.quarantined,
            comparison=comparison,
            drained=campaign.drained,
        )

    def _publish(
        self, stats: FaultInjectionStats, results: Sequence[InjectionResult]
    ) -> None:
        """The campaign's one trip to the registry: the record, then the
        outcome and quarantine tallies of the injections this run
        executed (restored ones were counted by the run that did)."""
        registry = self.telemetry.registry
        stats.publish(registry)
        for result in results:
            if result.restored:
                continue
            if result.quarantine is not None:
                registry.counter(
                    "quarantined_injections",
                    phase=result.quarantine.phase,
                    variant=result.task.variant,
                ).inc()
            else:
                registry.counter(
                    "recovery_outcomes",
                    status=result.outcome.status.value,
                    variant=result.task.variant,
                ).inc()

    def _compare(
        self, findings: List[Finding], stats: FaultInjectionStats
    ) -> ModelComparison:
        """Prefix-vs-adversarial summary over the raw (pre-dedup) findings."""
        prefix_keys = set()
        adversarial_keys: Dict[Tuple, Finding] = {}
        for finding in findings:
            key = finding.dedup_key()
            if (finding.variant or VARIANT_PREFIX) == VARIANT_PREFIX:
                prefix_keys.add(key)
            else:
                adversarial_keys.setdefault(key, finding)
        only = [
            (finding.variant or "?", finding.message)
            for key, finding in sorted(
                adversarial_keys.items(), key=lambda kv: repr(kv[0])
            )
            if key not in prefix_keys
        ]
        return ModelComparison(
            model=self.fault_model.model,
            prefix_injections=stats.injections - stats.adversarial_injections,
            adversarial_injections=stats.adversarial_injections,
            prefix_bugs=len(prefix_keys),
            adversarial_bugs=len(adversarial_keys),
            adversarial_only=only,
        )


class _ReplayInjector(FailurePointObserver):
    """Hook that crashes the target gracefully at the first failure-point
    candidate whose call stack is ``stack``."""

    def __init__(self, stack, granularity, require_store):
        super().__init__(
            self._on_candidate,
            granularity=granularity,
            require_store_since_last=require_store,
        )
        self._stack = stack
        self.image: Optional[bytes] = None

    def _on_candidate(self, stack, event: MemoryEvent) -> None:
        if stack == self._stack:
            # Capture the graceful-crash state *now*, before Python unwind
            # handlers (transaction aborts etc.) can run.
            self.image = self._machine.graceful_crash_image()
            raise CrashInjected(event.seq)

    def __call__(self, event: MemoryEvent, machine: PMachine) -> None:
        self._machine = machine
        super().__call__(event, machine)


class _Reexecution:
    """The replay engine's prefix builder.

    Re-executes the target once per failure point and crashes it at the
    point's first candidate; the point's adversarial variants follow it
    in the plan and reuse the image.  Execution is deterministic, so the
    image equals the trace engine's, and the campaign bills the
    re-execution to ``materialise``.
    """

    def __init__(self, injector: FaultInjector, app_factory, workload, seed):
        self._injector = injector
        self._execution = (app_factory, workload, seed)
        #: Target executions this builder made.
        self.executions = 0
        self._last: Tuple[Optional[Tuple[str, ...]], bytes] = (None, b"")

    def __call__(self, task: InjectionTask) -> bytes:
        if self._last[0] != task.stack:
            hook = _ReplayInjector(
                task.stack,
                self._injector.granularity,
                self._injector.require_store_since_last,
            )
            app_factory, workload, seed = self._execution
            run_instrumented(app_factory, workload, hooks=[hook], seed=seed)
            self.executions += 1
            if hook.image is None:
                raise RuntimeError(
                    "re-execution never reached the failure point at seq "
                    f"{task.seq}"
                )
            self._last = (task.stack, hook.image)
        return self._last[1]
