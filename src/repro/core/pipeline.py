"""The Mumak analysis pipeline (paper, Figure 1).

Given only an application factory (the "binary") and a workload, the
pipeline:

1. instruments the target and runs it once, producing the two by-products:
   the failure point tree and the PM access trace;
2. injects one fault per unique failure point and consults the recovery
   oracle (fault-injection phase);
3. single-passes the trace for misuse patterns and resolves debug
   information for flagged instructions (trace-analysis phase);
4. merges both phases' findings into one deduplicated report.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Sequence

from repro.core.fault_injection import (
    ENGINE_TRACE,
    DetectionRun,
    FaultInjectionResult,
    FaultInjector,
)
from repro.core.fpt import FailurePointTree
from repro.core.harness import (
    CampaignJournal,
    HarnessConfig,
    campaign_fingerprint,
    checkpoint_records,
    journal_mismatch,
    result_from_record,
    scan_journal,
)
from repro.core.report import AnalysisReport
from repro.core.resources import (
    PhaseTimer,
    ResourceUsage,
    estimate_trace_bytes,
)
from repro.core.trace_analysis import (
    TraceAnalysisStats,
    TraceAnalyzer,
    findings_with_sites,
    resolve_sites,
    resolve_sites_scheduled,
)
from repro.errors import CheckpointError, ConfigError
from repro.instrument.runner import run_instrumented
from repro.instrument.tracer import (
    GRANULARITY_PERSISTENCY,
    FailurePointObserver,
    MinimalTracer,
)
from repro.obs import NULL_TELEMETRY, Telemetry, write_run_dir
from repro.pmem.faultmodel import FaultModelConfig
from repro.pmem.incremental import ENGINE_IMAGE_INCREMENTAL
from repro.recovery import RecoveryEngineConfig, recovery_scope
from repro.sched.config import SchedConfig

#: Mumak's CPU-load factor from the paper's Table 2 (1.20-1.44).
MUMAK_CPU_LOAD = 1.3


@dataclass
class MumakConfig:
    """Analysis knobs; the defaults are the paper's design choices."""

    granularity: str = GRANULARITY_PERSISTENCY
    require_store_since_last: bool = True
    engine: str = ENGINE_TRACE
    include_warnings: bool = True
    detect_dirty_overwrites: bool = False
    #: Analyse for an eADR platform (persistence domain includes caches).
    eadr: bool = False
    max_injections: Optional[int] = None
    run_fault_injection: bool = True
    run_trace_analysis: bool = True
    seed: int = 0
    # ---- hardened campaign runner (repro.core.harness) ---- #
    #: Wall-clock deadline per recovery call (None = unlimited).
    timeout_seconds: Optional[float] = None
    #: Machine step budget per recovery call (None = unlimited).
    step_budget: Optional[int] = None
    #: Containment retries before an injection is quarantined.
    max_retries: int = 2
    #: Always 1: in-process injection is serial, and a parallel
    #: campaign runs in shard processes (``shards``).  Any other value
    #: is refused.
    jobs: int = 1
    #: Path of the campaign checkpoint journal (None = no checkpointing).
    checkpoint_path: Optional[str] = None
    #: Journal flush/fsync cadence, in injections.
    checkpoint_interval: int = 25
    # ---- multiprocess campaign fabric (repro.fabric) ---- #
    #: Worker *processes* the failure-point space is partitioned across
    #: (1 = in-process execution; >1 routes the trace-engine campaign
    #: through the shard supervisor).  Output is byte-identical to a
    #: serial run whatever workers die along the way.
    shards: int = 1
    #: Chaos-mode spec (``kill-worker=P[,seed=S][,max-kills=K]``) —
    #: SIGKILLs live shards at seeded random to exercise worker-death
    #: recovery.  Implies the fabric path even with ``shards == 1``.
    chaos: Optional[str] = None
    #: Graceful-drain request: a :class:`threading.Event` (typically a
    #: :class:`repro.fabric.DrainController`'s) checked at every task
    #: boundary.  When set, the campaign flushes its checkpoint and
    #: returns partial results with ``drained=True``.
    stop_event: Optional[object] = None
    # ---- cross-host fleet fabric (repro.fabric.fleet) ---- #
    #: Shared transport directory for a cross-host fleet campaign
    #: (None = no fleet).  The supervisor publishes the campaign
    #: manifest there; ``mumak fleet worker DIR`` processes claim and
    #: execute failure-point slices over it.  Output stays
    #: byte-identical to a serial run whatever the transport drops,
    #: duplicates, or tears.
    fleet_dir: Optional[str] = None
    #: Failure-point slices the fleet campaign is partitioned into.
    fleet_slices: int = 4
    #: Lease TTL before an unrenewed slice is reclaimed, in seconds.
    fleet_ttl_seconds: float = 30.0
    #: Window without any worker activity before the supervisor
    #: finishes remaining slices locally, in seconds.
    fleet_patience_seconds: float = 10.0
    #: Transport-chaos spec (``drop=P,dup=P,torn=P,delay=MS,seed=S``)
    #: applied to worker uploads (None = reliable transport).
    transport_chaos: Optional[str] = None
    #: Campaign-reconstruction recipe published in the fleet manifest
    #: (target name, app options, workload parameters).  Built by the
    #: CLI; required when ``fleet_dir`` is set.
    campaign_spec: Optional[dict] = None
    #: Per-shard (or per-fleet-worker) silence window, in seconds,
    #: before a ``worker_stalled`` event is emitted (0 = off).
    stall_window_seconds: float = 0.0
    # ---- concurrency-aware schedules (repro.sched) ---- #
    #: Concurrency-aware campaign: run the target's thread bodies under
    #: K seeded x86-TSO schedule samples and draw crash points from every
    #: sample's interleaving (None = ordinary single-threaded campaign).
    #: Requires the trace engine and a multi-threaded target
    #: (:class:`repro.apps.threaded.ThreadedPMApplication`).
    sched: Optional[SchedConfig] = None
    # ---- adversarial fault model (repro.pmem.faultmodel) ---- #
    #: Crash-image materialisation model; the default is the paper's
    #: graceful program-order-prefix crash.
    fault_model: FaultModelConfig = field(default_factory=FaultModelConfig)
    # ---- crash-image engine (repro.pmem.incremental) ---- #
    #: ``"incremental"`` (production default: one forward pass, pooled
    #: COW buffers, O(changed bytes) per failure point) or ``"replay"``
    #: (the differential-testing reference that rebuilds every image
    #: from scratch).  Findings, reports, and checkpoint journals are
    #: byte-identical across engines.
    image_engine: str = ENGINE_IMAGE_INCREMENTAL
    # ---- recovery engine (repro.recovery) ---- #
    #: Verdict memo cache: ``"on"`` (default; persists next to the
    #: checkpoint journal when checkpointing is active), ``"off"``, or
    #: an explicit cache-file path.  Identical crash images are
    #: verified once; the digest binds target, oracle budgets,
    #: fault-model family, and poison set, so replays are sound.
    #: Findings, journals, and reports are byte-identical on/off
    #: (differential-tested).
    recovery_cache: str = "on"
    #: Machines kept booted per campaign (per shard process under
    #: ``shards``) for recovery-run reuse (0 = construct a fresh
    #: machine per recovery, the legacy path).
    machine_pool: int = 1
    # ---- observability (repro.obs) ---- #
    #: Record structured telemetry (spans + metrics registry) for this
    #: analysis.  Strictly observation-only: findings, campaign
    #: fingerprints, and checkpoint journals are byte-identical with
    #: telemetry on or off (differential-tested), and the fingerprint
    #: deliberately excludes every ``obs_*`` knob.
    obs_enabled: bool = False
    #: Directory receiving ``telemetry.jsonl`` + ``metrics.prom`` +
    #: ``metrics.json`` after the analysis (None = keep in memory only;
    #: read them off ``MumakResult.telemetry``).  Implies
    #: ``obs_enabled``.
    obs_dir: Optional[str] = None
    #: Live-progress heartbeat cadence in seconds (0 = off).  Heartbeats
    #: are recorded as events and, when ``obs_sink`` is set (the CLI
    #: passes a stderr writer), rendered live.
    obs_heartbeat_seconds: float = 0.0
    #: Callable receiving rendered heartbeat lines (None = events only).
    obs_sink: Optional[Callable[[str], None]] = None

    def __post_init__(self):
        if self.jobs != 1:
            raise ValueError(
                f"jobs={self.jobs}: in-process injection is serial; use "
                "shards=N to run the campaign in N worker processes"
            )

    @property
    def obs_active(self) -> bool:
        return self.obs_enabled or self.obs_dir is not None

    def harness_config(self) -> HarnessConfig:
        return HarnessConfig(
            timeout_seconds=self.timeout_seconds,
            step_budget=self.step_budget,
            max_retries=self.max_retries,
        )

    def fingerprint_payload(self, target_name: str) -> dict:
        """The dict the campaign fingerprint is hashed from.

        Published verbatim in the fleet manifest so worker hosts can
        recompute the fingerprint and refuse a tampered manifest; every
        value must therefore survive a JSON round-trip unchanged.
        """
        return {
            "target": target_name,
            "granularity": self.granularity,
            "require_store_since_last": self.require_store_since_last,
            "engine": self.engine,
            "eadr": self.eadr,
            "max_injections": self.max_injections,
            "seed": self.seed,
            "timeout_seconds": self.timeout_seconds,
            "step_budget": self.step_budget,
            # Variant plans and images depend on the fault model, so a
            # prefix checkpoint must not resume a torn campaign (and
            # vice versa).
            "fault_model": self.fault_model.payload(),
            # Task indices and seqs are meaningless across schedule
            # configs, so a checkpoint written under one schedule seed
            # (or under a single-threaded campaign) is refused by any
            # other.
            "sched": self.sched.payload() if self.sched is not None else None,
        }

    def fingerprint(self, target_name: str) -> str:
        """Campaign identity used to guard checkpoint resumption.

        Deliberately excludes checkpoint knobs, ``image_engine``, the
        recovery-engine knobs (``recovery_cache`` / ``machine_pool``),
        and the fabric/fleet knobs (``shards`` / ``chaos`` /
        ``stop_event`` / ``fleet_*`` / ``transport_chaos``): serial,
        sharded, fleet, and chaos-killed campaigns are equivalent by
        construction, where the journal lives does not change what it
        records, and both the incremental image engine and the recovery
        engine are differential-tested byte-identical to their
        references — a campaign checkpointed under one setting may
        resume under another.
        """
        return campaign_fingerprint(self.fingerprint_payload(target_name))


#: The refusal table, consulted by :meth:`Mumak.analyze` before detection:
#: a config that could not reproduce the serial journal bytes, or names a
#: path the campaign cannot use, is refused in one line naming the CLI
#: flag.  Numeric bounds: ``(flag, field, low)``; ``None`` is unbounded.
_BOUNDS = (
    ("--max-injections", "max_injections", 0),
    ("--step-budget", "step_budget", 1),
    ("--retries", "max_retries", 0),
    ("--shards", "shards", 1),
    ("--checkpoint-interval", "checkpoint_interval", 1),
    ("--machine-pool", "machine_pool", 0),
    ("--obs-heartbeat", "obs_heartbeat_seconds", 0),
    ("--stall-window", "stall_window_seconds", 0),
    ("--fleet-patience", "fleet_patience_seconds", 0),
    ("--fleet-slices", "fleet_slices", 1),
)


def _spec_error(spec: Optional[str], parser: str) -> Optional[str]:
    """Why a chaos spec does not parse; loads repro.fabric only for one."""
    if spec is not None:
        from repro.fabric import chaos

        try:
            getattr(chaos, parser).parse(spec)
        except chaos.ChaosSpecError as err:
            return str(err)
    return None


def _file_error(path: Optional[str]) -> Optional[str]:
    """Why the campaign cannot write the file ``path``."""
    if path is None:
        return None
    if os.path.isdir(path):
        return "is a directory"
    if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
        return "directory does not exist"
    return None


#: Duration, combination and path rows: ``(condition, message)``.  A true
#: ``condition(config, app_factory)`` refuses with the message, formatted
#: with the condition's result as ``{0}`` and the config as ``{c}``.
_REFUSALS = (
    (lambda c, _: c.timeout_seconds is not None and c.timeout_seconds <= 0,
     "--timeout must be > 0"),
    (lambda c, _: c.fleet_ttl_seconds <= 0, "--fleet-ttl must be > 0"),
    (lambda c, app: c.sched and not hasattr(app(), "thread_bodies"),
     "--sched requires a multi-threaded target (see 'mumak targets')"),
    (lambda c, _: c.sched and c.engine != ENGINE_TRACE,
     "--sched requires --engine trace"),
    (lambda c, _: c.sched and c.fleet_dir is not None,
     "--sched is incompatible with --fleet (schedule samples are "
     "process-local detection products)"),
    (lambda c, _: _spec_error(c.chaos, "ChaosConfig"), "{0}"),
    (lambda c, _: (c.shards > 1 or c.chaos) and c.engine != ENGINE_TRACE,
     "--shards/--chaos require --engine trace"),
    (lambda c, _: c.transport_chaos is not None and c.fleet_dir is None,
     "--transport-chaos requires --fleet DIR"),
    (lambda c, _: _spec_error(c.transport_chaos, "TransportChaosConfig"),
     "{0}"),
    (lambda c, _: c.fleet_dir is not None and (c.shards > 1 or c.chaos),
     "--fleet is incompatible with --shards/--chaos (one fabric at a "
     "time: lease slices already partition the campaign)"),
    (lambda c, _: c.fleet_dir is not None and c.engine != ENGINE_TRACE,
     "--fleet requires --engine trace"),
    (lambda c, _: c.fleet_dir is not None
     and "target" not in (c.campaign_spec or {}),
     "--fleet needs a campaign_spec naming the target (the CLI builds it)"),
    (lambda c, _: _file_error(c.checkpoint_path),
     "--checkpoint {c.checkpoint_path}: {0}"),
    (lambda c, _: c.recovery_cache not in ("on", "off")
     and _file_error(c.recovery_cache),
     "--recovery-cache {c.recovery_cache}: {0}"),
    (lambda c, _: c.fleet_dir and os.path.isfile(c.fleet_dir),
     "--fleet {c.fleet_dir}: not a directory"),
    (lambda c, _: c.obs_dir and os.path.isfile(c.obs_dir),
     "--obs {c.obs_dir}: not a directory"),
)


def _check_config(config: MumakConfig, app_factory: Callable[[], Any]) -> None:
    """Raise :class:`~repro.errors.ConfigError` with the one line of the
    first table row that refuses ``config``; return if none does."""
    for flag, name, low in _BOUNDS:
        value = getattr(config, name)
        if value is not None and value < low:
            raise ConfigError(f"{flag} must be >= {low}")
    for condition, message in _REFUSALS:
        hit = condition(config, app_factory)
        if hit:
            raise ConfigError(message.format(hit, c=config))


def _results(records: Dict[int, dict]) -> dict:
    """Resume state: the results journal ``records`` hold, by index."""
    return {
        index: result_from_record(record)
        for index, record in records.items()
    }


@dataclass
class MumakResult:
    report: AnalysisReport
    resources: ResourceUsage
    fault_injection: Optional[FaultInjectionResult] = None
    trace_stats: Optional[TraceAnalysisStats] = None
    tree: Optional[FailurePointTree] = None
    trace_length: int = 0
    #: Finalized :class:`~repro.obs.Telemetry` when observability was on
    #: (``None`` otherwise).  Holds the metrics registry and the ordered
    #: event stream; pass it to :func:`repro.obs.write_run_dir` to export.
    telemetry: Optional[Telemetry] = None

    def render(self) -> str:
        return self.report.render()


class Mumak:
    """The tool: black-box, two-pronged PM bug detection."""

    def __init__(self, config: Optional[MumakConfig] = None):
        self.config = config or MumakConfig()

    def analyze(
        self,
        app_factory: Callable[[], Any],
        workload: Sequence,
        resume_from: Optional[str] = None,
    ) -> MumakResult:
        """Run the full analysis.

        ``resume_from`` names a checkpoint journal written by an earlier
        (interrupted) run of the *same* campaign — config, seed, and
        target are fingerprint-checked — whose completed injections are
        restored instead of re-executed.  The resumed report is
        byte-identical to an uninterrupted run.

        A refused config raises :class:`~repro.errors.ConfigError` first.
        """
        config = self.config
        _check_config(config, app_factory)
        usage = ResourceUsage(cpu_load=MUMAK_CPU_LOAD)
        timer = PhaseTimer(usage)
        report = AnalysisReport()
        telemetry = Telemetry() if config.obs_active else NULL_TELEMETRY

        # Step 1: instrumented execution(s) -> trace + failure point tree.
        # Detection yields a list of runs: one for an ordinary campaign,
        # one per schedule sample under --sched.  The first run's trace
        # and tree stand in wherever the pipeline needs "the" trace
        # (trace analysis, the result).
        with timer.phase("instrumented_run"):
            with telemetry.span("campaign/instrumented_run"):
                if config.sched is not None:
                    from repro.sched.campaign import detect_schedules

                    runs, artifacts = detect_schedules(
                        app_factory,
                        workload,
                        config.sched,
                        seed=config.seed,
                        granularity=config.granularity,
                        require_store_since_last=(
                            config.require_store_since_last
                        ),
                    )
                else:
                    tree = FailurePointTree()
                    tracer = MinimalTracer()
                    observer = FailurePointObserver(
                        lambda stack, event: tree.insert(stack, seq=event.seq),
                        granularity=config.granularity,
                        require_store_since_last=(
                            config.require_store_since_last
                        ),
                    )
                    artifacts = run_instrumented(
                        app_factory,
                        workload,
                        hooks=[tracer, observer],
                        seed=config.seed,
                    )
                    runs = [
                        DetectionRun(
                            sched=-1,
                            trace=tracer.events,
                            tree=tree,
                            initial_image=artifacts.initial_image,
                            candidates=observer.candidates_seen,
                        )
                    ]
        trace_events = runs[0].trace
        usage.pool_bytes = artifacts.machine.medium.size
        usage.note_bytes(
            sum(
                estimate_trace_bytes(run.trace) + 200 * run.tree.node_count()
                for run in runs
            )
        )

        # Step 2: fault injection against the recovery oracle, through
        # the hardened campaign runner (watchdog, containment, journal).
        fi_result = None
        if config.run_fault_injection:
            target_name = getattr(artifacts.app, "name", "target")
            # The recovery scope binds everything that can change a
            # recovery *verdict* into the verdict-cache digests: a
            # cached outcome recorded under one oracle budget (or
            # target) can never be replayed under another.
            recovery_config = RecoveryEngineConfig.resolve(
                config.recovery_cache,
                config.machine_pool,
                recovery_scope(
                    {
                        "target": target_name,
                        "timeout_seconds": config.timeout_seconds,
                        "step_budget": config.step_budget,
                    }
                ),
                config.checkpoint_path,
            )
            injector = FaultInjector(
                granularity=config.granularity,
                require_store_since_last=config.require_store_since_last,
                engine=config.engine,
                max_injections=config.max_injections,
                harness=config.harness_config(),
                fault_model=config.fault_model,
                image_engine=config.image_engine,
                telemetry=telemetry,
                heartbeat_interval=config.obs_heartbeat_seconds,
                heartbeat_sink=config.obs_sink,
                recovery=recovery_config,
                stop=config.stop_event,
                stall_window=config.stall_window_seconds,
            )
            fingerprint = config.fingerprint(target_name)
            distributed = (
                config.fleet_dir is not None or config.shards > 1
                or bool(config.chaos)
            )
            resumed = self._open_checkpoint(
                fingerprint, resume_from, distributed
            )
            with timer.phase("fault_injection"), telemetry.span(
                "campaign/injection"
            ):
                if distributed:
                    fi_result = self._inject_distributed(
                        injector,
                        app_factory,
                        runs,
                        target_name,
                        recovery_config,
                        usage,
                        resumed,
                    )
                else:
                    fi_result = self._inject_local(
                        injector,
                        app_factory,
                        workload,
                        runs,
                        fingerprint,
                        usage,
                        resumed,
                    )
            report.extend(fi_result.findings)
            report.extend_quarantined(fi_result.quarantined)
            report.set_model_comparison(fi_result.comparison)
            # One crash image is materialised at a time.
            usage.note_bytes(
                usage.peak_tool_bytes + artifacts.machine.medium.size
            )

        # Step 3: trace analysis + debug-info resolution.
        trace_stats = None
        if config.run_trace_analysis:
            analyzer = TraceAnalyzer(
                pm_size=artifacts.machine.medium.size,
                include_warnings=config.include_warnings,
                detect_dirty_overwrites=config.detect_dirty_overwrites,
                eadr=config.eadr,
            )
            with timer.phase("trace_analysis"):
                with telemetry.span("campaign/trace_analysis"):
                    pending, trace_stats = analyzer.analyze(trace_events)
                    if config.sched is not None:
                        # Sample 0's trace was analysed; the debug-info
                        # re-run must replay the very same interleaving.
                        sites = resolve_sites_scheduled(
                            app_factory,
                            workload,
                            config.sched,
                            {p.seq for p in pending},
                            seed=config.seed,
                        )
                    else:
                        sites = resolve_sites(
                            app_factory,
                            workload,
                            {p.seq for p in pending},
                            seed=config.seed,
                        )
                    report.extend(findings_with_sites(pending, sites))

        # Observation-only export: publish the resource accounting into
        # the metrics registry, freeze the event stream, and (optionally)
        # write the run directory.  None of this feeds back into the
        # analysis: the report above is already complete.
        if telemetry.enabled:
            usage.publish(telemetry.registry)
            telemetry.finalize()
            if config.obs_dir is not None:
                write_run_dir(telemetry, config.obs_dir)

        return MumakResult(
            report=report,
            resources=usage,
            fault_injection=fi_result,
            trace_stats=trace_stats,
            tree=runs[0].tree,
            trace_length=len(trace_events),
            telemetry=telemetry if telemetry.enabled else None,
        )

    def _open_checkpoint(
        self, fingerprint: str, resume_from: Optional[str], distributed: bool
    ) -> Dict[int, dict]:
        """The one fresh-or-resume rule, applied before any injection by
        every executor; returns the journal records to resume from.

        A checkpoint that exists and is another campaign's journal is
        refused (:class:`~repro.errors.CheckpointError`) and left as it
        is.  Without ``resume_from`` this campaign's checkpoint starts
        afresh, so each record is written once, and shard or fleet runs
        sweep the stray shard journals of an abandoned run.
        ``resume_from`` is read once; shard and fleet runs also fold the
        stray shard journals a crash before their merge left behind (a
        missing checkpoint is then fine).
        """
        path = self.config.checkpoint_path
        if path is not None and path != resume_from and os.path.exists(path):
            differs = journal_mismatch(scan_journal(path)[0], fingerprint)
            if differs:
                raise CheckpointError(
                    f"checkpoint {path!r} {differs}; refusing to overwrite "
                    "another campaign's journal"
                )
            os.remove(path)
        strays = distributed and path is not None
        if resume_from is None:
            if strays:
                from repro.fabric import cleanup_shard_artifacts

                cleanup_shard_artifacts(path)
            return {}
        records: Dict[int, dict] = {}
        if strays:
            from repro.fabric import collect_shard_records

            records = collect_shard_records(path, fingerprint)
        if os.path.exists(resume_from) or not records:
            journal = checkpoint_records(resume_from, fingerprint)
            for index, record in records.items():
                journal.setdefault(index, record)
            records = journal
        return records

    def _inject_local(
        self,
        injector: FaultInjector,
        app_factory,
        workload,
        runs,
        fingerprint: str,
        usage,
        resumed: Dict[int, dict],
    ) -> FaultInjectionResult:
        """The injection phase, serially in this process."""
        config = self.config
        journal = None
        if config.checkpoint_path is not None:
            journal = CampaignJournal(
                config.checkpoint_path,
                fingerprint,
                seed=config.seed,
                interval=config.checkpoint_interval,
            )
        try:
            return injector.inject(
                app_factory,
                runs,
                workload=workload,
                seed=config.seed,
                journal=journal,
                resume_state=_results(resumed),
            )
        finally:
            if journal is not None:
                journal.close()
                usage.checkpoint_bytes = journal.bytes_written

    def _inject_distributed(
        self,
        injector: FaultInjector,
        app_factory,
        runs,
        target_name: str,
        recovery_config,
        usage,
        resumed: Dict[int, dict],
    ) -> FaultInjectionResult:
        """The injection phase across shard processes or fleet hosts.

        Both fabrics always journal (shard and slice journals are their
        ground truth for requeue and merge), so a campaign without
        ``--checkpoint`` runs against a temporary journal discarded with
        the run.
        """
        import dataclasses
        import tempfile

        from repro.fabric import ChaosConfig, FabricConfig
        from repro.fabric.chaos import TransportChaosConfig
        from repro.fabric.fleet import FleetConfig

        config = self.config
        fingerprint = config.fingerprint(target_name)
        if config.fleet_dir is not None:
            fleet_config = FleetConfig(
                root=config.fleet_dir,
                slices=config.fleet_slices,
                ttl_seconds=config.fleet_ttl_seconds,
                patience_seconds=config.fleet_patience_seconds,
                chaos=(
                    TransportChaosConfig.parse(config.transport_chaos)
                    if config.transport_chaos
                    else None
                ),
            )
            spec = dict(config.campaign_spec)
            spec.update(
                {
                    "seed": config.seed,
                    "granularity": config.granularity,
                    "require_store_since_last": (
                        config.require_store_since_last
                    ),
                    "max_injections": config.max_injections,
                    "timeout_seconds": config.timeout_seconds,
                    "step_budget": config.step_budget,
                    "max_retries": config.max_retries,
                    "fault_model": dataclasses.asdict(config.fault_model),
                    "image_engine": config.image_engine,
                    "recovery_cache_enabled": recovery_config.cache_enabled,
                    "machine_pool": config.machine_pool,
                    "scope": recovery_config.scope,
                }
            )
        else:
            fabric_config = FabricConfig(
                shards=config.shards,
                chaos=(
                    ChaosConfig.parse(config.chaos) if config.chaos else None
                ),
            )
        with tempfile.TemporaryDirectory(prefix="mumak-fabric-") as tmp:
            checkpoint = config.checkpoint_path or os.path.join(
                tmp, "campaign.journal"
            )
            if config.fleet_dir is not None:
                fi_result = injector.inject_fleet(
                    app_factory,
                    runs,
                    fleet_config,
                    checkpoint,
                    fingerprint,
                    config.fingerprint_payload(target_name),
                    spec,
                    seed=config.seed,
                    resume_state=_results(resumed),
                    base_records=resumed,
                )
            else:
                fi_result = injector.inject_sharded(
                    app_factory,
                    runs,
                    fabric_config,
                    checkpoint,
                    fingerprint,
                    seed=config.seed,
                    resume_state=_results(resumed),
                    base_records=resumed,
                )
            if config.checkpoint_path is not None and os.path.exists(
                checkpoint
            ):
                usage.checkpoint_bytes = os.path.getsize(checkpoint)
        return fi_result
