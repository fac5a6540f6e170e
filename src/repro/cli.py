"""Command-line frontend: ``mumak``.

The analog of the Bash script that coordinates Mumak's analysis (paper,
section 5), plus entry points for regenerating every experiment.

Usage examples::

    mumak targets                         # list analysable applications
    mumak bugs btree                      # list a target's seeded bugs
    mumak analyze btree --ops 300 --spt   # black-box analysis
    mumak analyze btree --bugs none       # analyse the bug-free variant
    mumak tools                           # Tables 1 and 3
    mumak experiment fig3                 # regenerate a paper artefact
    mumak analyze btree --obs runs/btree  # record telemetry to a run dir
    mumak obs report runs/btree           # per-phase attribution table
"""

from __future__ import annotations

import argparse
import os
import sys

from repro.apps import (
    APPLICATIONS,
    THREADED_APPLICATIONS,
    resolve_application,
)
from repro.apps.bugs import REGISTRY, bugs_for_app, default_bugs_for
from repro.core import Mumak, MumakConfig
from repro.errors import CheckpointError
from repro.fabric import (
    ChaosConfig,
    ChaosSpecError,
    DrainController,
    INTERRUPT_EXIT_CODE,
    TransportChaosConfig,
)
from repro.pmem.faultmodel import MODELS, FaultModelConfig
from repro.pmem.incremental import ENGINE_IMAGE_INCREMENTAL, IMAGE_ENGINES
from repro.recovery import VerdictCacheError
from repro.sched.config import SchedConfig
from repro.workloads import generate_workload

#: Every analysable target (single-threaded KV stores + multi-threaded
#: schedule targets), for CLI argument choices.
ALL_TARGETS = sorted({**APPLICATIONS, **THREADED_APPLICATIONS})


def emit(text: str = "", stream=None) -> None:
    """The CLI's single output writer.

    Every command routes its user-facing text through here (reports and
    tables to stdout; diagnostics and live heartbeats to stderr), so
    output redirection and testing have exactly one seam.
    """
    print(text, file=stream if stream is not None else sys.stdout)


def _heartbeat_sink(line: str) -> None:
    """Live heartbeat renderer: stderr, so stdout stays machine-clean."""
    emit(line, stream=sys.stderr)


def _add_analyze(sub) -> None:
    parser = sub.add_parser("analyze", help="run Mumak on a target")
    parser.add_argument("target", choices=ALL_TARGETS)
    parser.add_argument("--ops", type=int, default=300,
                        help="workload size (default 300)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spt", action="store_true",
                        help="single put per transaction (where supported)")
    parser.add_argument(
        "--bugs", default="default",
        help="'default' (as published), 'none', or comma-separated bug ids",
    )
    parser.add_argument("--no-warnings", action="store_true",
                        help="suppress warning-level findings")
    parser.add_argument("--engine", choices=["trace", "replay"],
                        default="trace")
    parser.add_argument("--image-engine", choices=list(IMAGE_ENGINES),
                        default=ENGINE_IMAGE_INCREMENTAL,
                        dest="image_engine",
                        help="crash-image materialisation engine: "
                             "'incremental' (default; one forward pass, "
                             "pooled copy-on-write buffers, O(changed "
                             "bytes) per failure point) or 'replay' (the "
                             "differential-testing reference that "
                             "rebuilds every image from scratch). "
                             "Findings and checkpoints are byte-identical "
                             "across engines.")
    parser.add_argument("--no-fault-injection", action="store_true",
                        help="skip the fault-injection phase "
                             "(trace analysis only)")
    # Concurrency-aware schedules (repro.sched).
    parser.add_argument("--sched", default=None, metavar="SPEC",
                        help="concurrency-aware campaign: run the "
                             "target's thread bodies under K seeded "
                             "x86-TSO schedule samples and draw crash "
                             "points from every interleaving; SPEC is "
                             "threads=N[,seed=S][,samples=K] (threads "
                             "1-4). Requires a multi-threaded target "
                             "(" + ", ".join(sorted(THREADED_APPLICATIONS))
                             + ") and --engine trace; findings and "
                             "checkpoints are byte-identical between "
                             "serial and --shards runs of the same spec")
    parser.add_argument("--max-injections", type=int, default=None,
                        metavar="N",
                        help="cap the number of injected faults")
    # Hardened campaign runner (repro.core.harness).
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="wall-clock watchdog per recovery call; "
                             "hung recoveries are reported, not fatal")
    parser.add_argument("--step-budget", type=int, default=None,
                        metavar="N",
                        help="machine step budget per recovery call")
    parser.add_argument("--retries", type=int, default=2, metavar="N",
                        help="containment retries before an injection "
                             "is quarantined (default 2)")
    parser.add_argument("--checkpoint", default=None, metavar="PATH",
                        help="journal campaign state to PATH every "
                             "--checkpoint-interval injections")
    parser.add_argument("--checkpoint-interval", type=int, default=25,
                        metavar="K",
                        help="checkpoint flush cadence (default 25)")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted campaign from "
                             "--checkpoint (fingerprint-checked; the "
                             "resumed report is byte-identical to an "
                             "uninterrupted run)")
    # Multiprocess campaign fabric (repro.fabric).
    parser.add_argument("--shards", type=int, default=1, metavar="N",
                        help="partition the failure-point space across "
                             "N worker processes supervised for "
                             "death/respawn (default 1 = in-process; "
                             "findings, reports, and checkpoints are "
                             "byte-identical to a serial run)")
    parser.add_argument("--chaos", default=None, metavar="SPEC",
                        help="chaos mode: SIGKILL live shard workers at "
                             "seeded random to exercise worker-death "
                             "recovery; SPEC is "
                             "kill-worker=P[,seed=S][,max-kills=K] "
                             "(output stays byte-identical to a serial "
                             "run)")
    # Cross-host fleet fabric (repro.fabric.fleet).
    parser.add_argument("--fleet", default=None, metavar="DIR",
                        help="run the campaign across worker hosts via "
                             "the shared transport directory DIR: this "
                             "process supervises (publishes the campaign "
                             "manifest, folds deliveries, merges), "
                             "'mumak fleet worker DIR' processes claim "
                             "and execute failure-point slices; with no "
                             "live workers the campaign finishes locally."
                             " Output is byte-identical to a serial run")
    parser.add_argument("--fleet-slices", type=int, default=4,
                        metavar="N", dest="fleet_slices",
                        help="failure-point slices the fleet campaign "
                             "is partitioned into (default 4)")
    parser.add_argument("--fleet-ttl", type=float, default=30.0,
                        metavar="SECONDS", dest="fleet_ttl",
                        help="lease TTL before an unrenewed slice is "
                             "reclaimed by another worker (default 30)")
    parser.add_argument("--fleet-patience", type=float, default=10.0,
                        metavar="SECONDS", dest="fleet_patience",
                        help="window without any worker activity before "
                             "the supervisor finishes remaining slices "
                             "locally (default 10)")
    parser.add_argument("--transport-chaos", default=None, metavar="SPEC",
                        dest="transport_chaos",
                        help="seeded transport faults on worker uploads: "
                             "SPEC is drop=P,dup=P,torn=P,delay=MS,"
                             "seed=S (lost, duplicated, truncated "
                             "deliveries + delayed heartbeats; the "
                             "merged journal stays byte-identical to a "
                             "serial run). Requires --fleet")
    parser.add_argument("--stall-window", type=float, default=0.0,
                        metavar="SECONDS", dest="stall_window",
                        help="report a worker/shard as stalled (one "
                             "worker_stalled event + metric, and a "
                             "stderr line with --obs-heartbeat) after "
                             "SECONDS without progress (default 0 = "
                             "off)")
    # Recovery engine (repro.recovery).
    parser.add_argument("--recovery-cache", default="on",
                        metavar="ON|OFF|PATH", dest="recovery_cache",
                        help="verdict memo cache for identical crash "
                             "images: 'on' (default; persists next to "
                             "--checkpoint when checkpointing, so "
                             "--resume skips re-verification), 'off', "
                             "or an explicit cache-file path. Findings "
                             "and checkpoints are byte-identical "
                             "on/off")
    parser.add_argument("--machine-pool", type=int, default=1,
                        metavar="N", dest="machine_pool",
                        help="booted machines kept per campaign (per "
                             "shard process with --shards) and reused "
                             "across recovery runs by full-state reset "
                             "(default 1; 0 boots a fresh machine per "
                             "recovery)")
    # Adversarial fault model (repro.pmem.faultmodel).
    parser.add_argument("--fault-model", choices=list(MODELS),
                        default="prefix", dest="fault_model",
                        help="crash-image model: 'prefix' (the paper's "
                             "graceful crash, default), 'torn' (tear "
                             "in-flight multi-word stores), 'reorder' "
                             "(sample dirty-line write-back orders), or "
                             "'adversarial' (all families + media errors)")
    parser.add_argument("--torn-writes", action="store_true",
                        help="additionally tear unflushed multi-word "
                             "stores (implied by --fault-model torn/"
                             "adversarial)")
    parser.add_argument("--media-errors", action="store_true",
                        help="additionally plant poisoned lines and bit "
                             "flips on the recovered medium (implied by "
                             "--fault-model adversarial)")
    parser.add_argument("--adversarial-samples", type=int, default=2,
                        metavar="K",
                        help="adversarial variants per failure point per "
                             "family (default 2)")
    parser.add_argument("--fault-seed", type=int, default=0, metavar="S",
                        help="seed for all adversarial sampling; the same "
                             "seed reproduces byte-identical crash images "
                             "and findings (default 0)")
    # Observability (repro.obs) — strictly observation-only: findings,
    # fingerprints, and checkpoints are byte-identical with --obs on/off.
    parser.add_argument("--obs", default=None, metavar="DIR",
                        dest="obs_dir",
                        help="record structured telemetry (spans + "
                             "metrics) and write telemetry.jsonl, "
                             "metrics.prom, and metrics.json into DIR; "
                             "render the run with 'mumak obs report DIR'")
    parser.add_argument("--obs-heartbeat", type=float, default=0.0,
                        metavar="SECONDS", dest="obs_heartbeat",
                        help="print a live campaign progress line "
                             "(failure points/s, ETA, quarantine/hang "
                             "counts) to stderr every SECONDS "
                             "(default 0 = off)")


def _resume_flags(args) -> str:
    """The complete command that resumes this exact campaign.

    Not just ``--resume``: a drained 8-shard (or fleet) campaign resumed
    without its ``--shards``/``--fleet``/``--chaos`` flags would
    silently finish under a different execution shape, so the hint
    carries everything needed to paste verbatim.
    """
    parts = [
        f"mumak analyze {args.target}",
        f"--checkpoint {args.checkpoint}",
        "--resume",
    ]
    if getattr(args, "sched", None):
        parts.append(f"--sched {args.sched}")
    if getattr(args, "fleet", None):
        parts.append(f"--fleet {args.fleet}")
        if args.fleet_slices != 4:
            parts.append(f"--fleet-slices {args.fleet_slices}")
    if args.shards > 1:
        parts.append(f"--shards {args.shards}")
    if args.chaos:
        parts.append(f"--chaos {args.chaos}")
    if getattr(args, "transport_chaos", None):
        parts.append(f"--transport-chaos {args.transport_chaos}")
    return " ".join(parts)


def _cmd_analyze(args) -> int:
    cls = resolve_application(args.target)
    options = {}
    if args.spt:
        options["spt"] = True
    if args.bugs == "none":
        options["bugs"] = frozenset()
    elif args.bugs != "default":
        options["bugs"] = frozenset(args.bugs.split(","))
        unknown = sorted(options["bugs"] - REGISTRY.keys())
        if unknown:
            emit(f"--bugs: unknown bug id(s) {', '.join(unknown)} (list "
                 f"them with 'mumak bugs {args.target}')", stream=sys.stderr)
            return 2

    sched_config = None
    if args.sched is not None:
        try:
            sched_config = SchedConfig.parse(args.sched)
        except ValueError as err:
            emit(str(err), stream=sys.stderr)
            return 2
        if args.target not in THREADED_APPLICATIONS:
            emit(f"--sched requires a multi-threaded target "
                 f"({', '.join(sorted(THREADED_APPLICATIONS))}); "
                 f"{args.target!r} is single-threaded", stream=sys.stderr)
            return 2
        if args.engine != "trace":
            emit("--sched requires --engine trace", stream=sys.stderr)
            return 2
        if args.fleet:
            emit("--sched is incompatible with --fleet (schedule "
                 "samples are process-local detection products)",
                 stream=sys.stderr)
            return 2
    elif args.target in THREADED_APPLICATIONS:
        emit(f"{args.target!r} is a multi-threaded target; pass "
             f"--sched threads=N[,seed=S][,samples=K]", stream=sys.stderr)
        return 2

    if args.resume and not args.checkpoint:
        emit("--resume requires --checkpoint PATH", stream=sys.stderr)
        return 2
    for flag, value, low in (
        ("--ops", args.ops, 0),
        ("--max-injections", args.max_injections, 0),
        ("--step-budget", args.step_budget, 1),
        ("--retries", args.retries, 0),
        ("--shards", args.shards, 1),
        ("--adversarial-samples", args.adversarial_samples, 1),
        ("--checkpoint-interval", args.checkpoint_interval, 1),
        ("--machine-pool", args.machine_pool, 0),
        ("--obs-heartbeat", args.obs_heartbeat, 0),
        ("--stall-window", args.stall_window, 0),
        ("--fleet-patience", args.fleet_patience, 0),
    ):
        if value is not None and value < low:
            emit(f"{flag} must be >= {low}", stream=sys.stderr)
            return 2
    for flag, value in (
        ("--timeout", args.timeout),
        ("--fleet-ttl", args.fleet_ttl),
    ):
        if value is not None and value <= 0:
            emit(f"{flag} must be > 0", stream=sys.stderr)
            return 2
    recovery_cache = args.recovery_cache
    if recovery_cache.lower() in ("on", "off"):
        recovery_cache = recovery_cache.lower()
    elif not os.path.isdir(os.path.dirname(os.path.abspath(recovery_cache))):
        emit(f"--recovery-cache {recovery_cache}: directory does not exist",
             stream=sys.stderr)
        return 2
    if args.chaos is not None:
        try:
            ChaosConfig.parse(args.chaos)
        except ChaosSpecError as err:
            emit(str(err), stream=sys.stderr)
            return 2
    if (args.shards > 1 or args.chaos) and args.engine != "trace":
        emit("--shards/--chaos require --engine trace",
             stream=sys.stderr)
        return 2
    if args.transport_chaos is not None:
        if not args.fleet:
            emit("--transport-chaos requires --fleet DIR",
                 stream=sys.stderr)
            return 2
        try:
            TransportChaosConfig.parse(args.transport_chaos)
        except ChaosSpecError as err:
            emit(str(err), stream=sys.stderr)
            return 2
    if args.fleet:
        if args.fleet_slices < 1:
            emit("--fleet-slices must be >= 1", stream=sys.stderr)
            return 2
        if args.shards > 1 or args.chaos:
            emit("--fleet is incompatible with --shards/--chaos "
                 "(one fabric at a time: lease slices already "
                 "partition the campaign)", stream=sys.stderr)
            return 2
        if args.engine != "trace":
            emit("--fleet requires --engine trace", stream=sys.stderr)
            return 2

    def factory():
        return cls(**options)

    workload = generate_workload(args.ops, seed=args.seed)
    fault_model = FaultModelConfig(
        model=args.fault_model,
        torn_writes=args.torn_writes,
        media_errors=args.media_errors,
        samples=args.adversarial_samples,
        seed=args.fault_seed,
    )
    # Two-stage signal handling: the first SIGINT/SIGTERM requests a
    # graceful drain (checkpoint + verdict cache flushed, resumable via
    # --resume), a second one force-exits 130.  The drain notice carries
    # the *complete* resume command (shards/fleet/chaos flags included)
    # so the operator can paste it verbatim.
    drain = DrainController(
        notice=lambda line: emit(line, stream=sys.stderr),
        resume_hint=(
            _resume_flags(args) if args.checkpoint else "--resume"
        ),
    )
    campaign_spec = None
    if args.fleet:
        spec_options = {}
        if args.spt:
            spec_options["spt"] = True
        if "bugs" in options:
            spec_options["bugs"] = sorted(options["bugs"])
        campaign_spec = {
            "target": args.target,
            "options": spec_options,
            "ops": args.ops,
            "workload_seed": args.seed,
        }
    config = MumakConfig(
        include_warnings=not args.no_warnings,
        engine=args.engine,
        seed=args.seed,
        run_fault_injection=not args.no_fault_injection,
        max_injections=args.max_injections,
        timeout_seconds=args.timeout,
        step_budget=args.step_budget,
        max_retries=args.retries,
        checkpoint_path=args.checkpoint,
        checkpoint_interval=args.checkpoint_interval,
        shards=args.shards,
        chaos=args.chaos,
        fleet_dir=args.fleet,
        fleet_slices=args.fleet_slices,
        fleet_ttl_seconds=args.fleet_ttl,
        fleet_patience_seconds=args.fleet_patience,
        transport_chaos=args.transport_chaos,
        campaign_spec=campaign_spec,
        stop_event=drain.stop_event,
        stall_window_seconds=args.stall_window,
        fault_model=fault_model,
        image_engine=args.image_engine,
        recovery_cache=recovery_cache,
        machine_pool=args.machine_pool,
        obs_dir=args.obs_dir,
        obs_heartbeat_seconds=args.obs_heartbeat,
        obs_sink=_heartbeat_sink if args.obs_heartbeat > 0 else None,
        sched=sched_config,
    )
    resume_from = args.checkpoint if args.resume else None
    with drain:
        try:
            result = Mumak(config).analyze(
                factory, workload, resume_from=resume_from
            )
        except (CheckpointError, VerdictCacheError) as err:
            # A missing or foreign checkpoint, or a verdict cache
            # recorded under another scope: refusal, not a traceback.
            emit(str(err), stream=sys.stderr)
            return 2
    emit(result.report.render(include_warnings=not args.no_warnings))
    summary = [f"[{args.target}] trace: {result.trace_length} events"]
    if result.fault_injection is not None:
        stats = result.fault_injection.stats
        summary.append(f"failure points: {stats.unique_failure_points}")
        summary.append(f"injections: {stats.injections}")
        if stats.schedules:
            summary.append(
                f"schedules: {stats.schedules} sample(s) x "
                f"{stats.sched_threads} thread(s)"
            )
        if stats.adversarial_injections:
            summary.append(
                f"adversarial: {stats.adversarial_injections}"
            )
        if stats.media_faults:
            summary.append(f"media faults: {stats.media_faults}")
        if stats.resumed:
            summary.append(f"resumed: {stats.resumed}")
        if stats.hung or stats.resource_exhausted:
            summary.append(
                f"hung: {stats.hung} | "
                f"budget-exhausted: {stats.resource_exhausted}"
            )
        if stats.quarantined:
            summary.append(f"quarantined: {stats.quarantined}")
        if stats.fleet_slices:
            fleet_bits = (
                f"fleet: {stats.fleet_slices} slice(s), "
                f"{stats.fleet_workers} worker(s), "
                f"{stats.fleet_deliveries} delivery(ies)"
            )
            extras = []
            if stats.fleet_releases:
                extras.append(f"re-leases {stats.fleet_releases}")
            if stats.fleet_duplicate_tasks:
                extras.append(
                    f"duplicates {stats.fleet_duplicate_tasks}"
                )
            if stats.fleet_transport_retries:
                extras.append(
                    f"transport retries {stats.fleet_transport_retries}"
                )
            if stats.fleet_local_fallback_tasks:
                extras.append(
                    f"local fallback {stats.fleet_local_fallback_tasks}"
                )
            if extras:
                fleet_bits += " (" + ", ".join(extras) + ")"
            summary.append(fleet_bits)
        if stats.shards:
            shard_bits = f"shards: {stats.shards}"
            if stats.shard_deaths or stats.chaos_kills:
                shard_bits += (
                    f" (deaths {stats.shard_deaths}, "
                    f"respawns {stats.shard_respawns}"
                )
                if stats.chaos_kills:
                    shard_bits += f", chaos kills {stats.chaos_kills}"
                shard_bits += ")"
            summary.append(shard_bits)
        summary.append(
            f"image engine: {stats.image_engine} "
            f"(materialise {stats.materialise_seconds:.2f}s, "
            f"recovery {stats.recovery_seconds:.2f}s)"
        )
        if stats.recovery_cache_hits or stats.recovery_cache_misses:
            summary.append(
                "recovery cache: "
                f"{stats.recovery_cache_hits} hits / "
                f"{stats.recovery_cache_misses} misses "
                f"(pool reuses: {stats.recovery_pool_reuses})"
            )
    else:
        summary.append("fault injection: skipped (trace analysis only)")
    summary.append(f"wall: {result.resources.total_seconds:.1f}s")
    for phase in sorted(result.resources.phase_seconds):
        summary.append(
            f"{phase}: {result.resources.phase_seconds[phase]:.2f}s"
        )
    emit("\n" + " | ".join(summary))
    if args.obs_dir is not None:
        emit(
            f"[obs] telemetry written to {args.obs_dir} "
            f"(render with: mumak obs report {args.obs_dir})",
            stream=sys.stderr,
        )
    fi = result.fault_injection
    if fi is not None and fi.drained:
        resume_hint = (
            f" — resume with: {_resume_flags(args)}"
            if args.checkpoint
            else " (no --checkpoint: partial results were discarded)"
        )
        emit(
            f"[mumak] campaign drained after {stats.injections} "
            f"injection(s){resume_hint}",
            stream=sys.stderr,
        )
        return INTERRUPT_EXIT_CODE
    return 1 if result.report.bugs else 0


def _cmd_targets(_args) -> int:
    for name in ALL_TARGETS:
        cls = (APPLICATIONS.get(name) or THREADED_APPLICATIONS[name])
        tag = "  [threaded: --sched]" if name in THREADED_APPLICATIONS else ""
        emit(f"{name:22s} {cls.codebase_kloc:6.1f} kloc  "
             f"{len(default_bugs_for(name)):2d} seeded bugs{tag}")
    return 0


def _cmd_bugs(args) -> int:
    specs = bugs_for_app(args.target)
    if not specs:
        emit(f"no seeded bugs registered for {args.target!r}")
        return 0
    for spec in specs:
        marker = "correctness" if spec.is_correctness else "performance"
        emit(f"{spec.bug_id:45s} {marker:12s} {spec.kind.value:18s} "
             f"[{spec.expected_detector}]")
        if spec.is_correctness:
            emit(f"    {spec.description}")
    return 0


def _cmd_tools(_args) -> int:
    from repro.experiments.tables import render_table1, render_table3

    emit(render_table1())
    emit()
    emit(render_table3())
    return 0


def _cmd_fleet(args) -> int:
    from repro.errors import FleetError, TransportError
    from repro.fabric.fleet import run_fleet_worker

    try:
        summary = run_fleet_worker(
            args.dir,
            worker_id=args.worker_id,
            poll_seconds=args.poll,
            idle_timeout=args.idle_timeout,
            manifest_timeout=args.manifest_timeout,
            notice=lambda line: emit(line, stream=sys.stderr),
        )
    except (FleetError, TransportError) as err:
        # A foreign/tampered manifest, a vanished transport root, or no
        # supervisor at all: refusal, not a traceback.
        emit(str(err), stream=sys.stderr)
        return 2
    emit(
        f"[fleet] worker {summary.worker_id}: {summary.claims} lease(s), "
        f"{summary.tasks_run} task(s), {summary.adopted_verdicts} "
        f"verdict(s) adopted — {summary.reason}"
    )
    return 0


def _cmd_obs(args) -> int:
    from repro.obs import report_run

    try:
        emit(report_run(args.run_dir))
    except (OSError, ValueError) as err:
        # Missing/empty run dirs and corrupt/truncated telemetry files
        # are user-facing conditions, not tracebacks: one line, exit 2.
        # (ValueError covers json.JSONDecodeError from a damaged
        # telemetry.jsonl.)
        emit(str(err) or f"cannot read run dir {args.run_dir!r}",
             stream=sys.stderr)
        return 2
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.common import SCALE_BENCH, SCALE_QUICK

    scale = SCALE_QUICK if args.scale == "quick" else SCALE_BENCH
    name = args.name
    if name == "fig3":
        from repro.experiments.fig3_coverage import render, run_fig3

        emit(render(run_fig3(scale.coverage_sizes)))
    elif name == "fig4":
        from repro.experiments.fig4_performance import (
            render_fig4,
            render_table2,
            run_fig4,
        )

        result = run_fig4(scale)
        emit(render_fig4(result))
        emit()
        emit(render_table2(result))
    elif name == "fig5":
        from repro.experiments.fig5_scalability import render, run_fig5

        emit(render(run_fig5(scale.scalability_ops)))
    elif name == "coverage":
        from repro.experiments.coverage import render, run_full_coverage

        emit(render(run_full_coverage(n_ops=scale.bug_ops)))
    elif name == "newbugs":
        from repro.experiments.new_bugs import render, run_new_bugs

        emit(render(run_new_bugs(n_ops=scale.bug_ops)))
    elif name == "adversarial":
        from repro.experiments.adversarial import render, run_adversarial

        emit(render(run_adversarial()))
    elif name == "tables":
        return _cmd_tools(args)
    else:  # pragma: no cover - argparse restricts choices
        raise AssertionError(name)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mumak",
        description="Black-box persistent-memory bug detection "
                    "(reproduction of Mumak, EuroSys'23)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    _add_analyze(sub)
    sub.add_parser("targets", help="list analysable applications")
    bugs_parser = sub.add_parser("bugs", help="list a target's seeded bugs")
    bugs_parser.add_argument("target", choices=ALL_TARGETS + ["pmdk"])
    sub.add_parser("tools", help="print Tables 1 and 3")
    exp = sub.add_parser("experiment", help="regenerate a paper artefact")
    exp.add_argument(
        "name",
        choices=["fig3", "fig4", "fig5", "coverage", "newbugs",
                 "adversarial", "tables"],
    )
    exp.add_argument("--scale", choices=["quick", "bench"], default="quick")
    fleet = sub.add_parser(
        "fleet", help="cross-host fleet campaign utilities"
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)
    worker = fleet_sub.add_parser(
        "worker",
        help="serve a fleet campaign as a worker host: wait for the "
             "manifest in the shared transport directory, claim "
             "failure-point slices under TTL'd leases, execute them, "
             "and ship journals + verdict caches back (run one per "
             "host; the supervisor is 'mumak analyze ... --fleet DIR')",
    )
    worker.add_argument(
        "dir",
        help="shared transport directory (the supervisor's --fleet DIR)",
    )
    worker.add_argument("--id", default=None, dest="worker_id",
                        metavar="NAME",
                        help="worker identity (default: w<pid>)")
    worker.add_argument("--poll", type=float, default=0.2,
                        metavar="SECONDS",
                        help="transport poll cadence (default 0.2)")
    worker.add_argument("--idle-timeout", type=float, default=60.0,
                        metavar="SECONDS", dest="idle_timeout",
                        help="exit after SECONDS with nothing claimable "
                             "(default 60)")
    worker.add_argument("--manifest-timeout", type=float, default=60.0,
                        metavar="SECONDS", dest="manifest_timeout",
                        help="give up if no campaign manifest appears "
                             "within SECONDS (default 60)")
    obs = sub.add_parser("obs", help="observability utilities")
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_report = obs_sub.add_parser(
        "report",
        help="render the per-phase attribution table (p50/p95/max by "
             "fault-model variant and worker) from a run directory "
             "written by 'analyze --obs DIR'",
    )
    obs_report.add_argument(
        "run_dir",
        help="run directory (or a telemetry.jsonl inside one)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "targets": _cmd_targets,
        "bugs": _cmd_bugs,
        "tools": _cmd_tools,
        "experiment": _cmd_experiment,
        "fleet": _cmd_fleet,
        "obs": _cmd_obs,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
