"""Fault-tolerant campaign execution (the hardened runner).

Mumak's central loop runs an *untrusted, black-box* recovery procedure
once per unique failure point.  The paper's Pin implementation gets crash
isolation for free — each recovery is a separate process — but this
in-process pipeline must build the same robustness explicitly, or a
single hung, runaway, or infrastructure-crashing recovery kills an entire
multi-thousand-injection campaign with no partial report.

Three pillars, all routed through :func:`run_campaign`:

1. **Watchdogged oracle execution** — every recovery runs under a
   deadline enforced two ways: a wall-clock timeout (machine-level
   deadline checks plus a supervising thread that asynchronously
   interrupts pure-Python infinite loops) and a machine step budget.
   Runaway recoveries become ``RecoveryStatus.HUNG`` /
   ``RecoveryStatus.RESOURCE_EXHAUSTED`` outcomes; the campaign continues.
2. **Per-injection containment with retry + quarantine** — any exception
   while materialising a crash image, constructing the app, or consulting
   the oracle is captured with (capped) context, retried up to N times,
   then quarantined.  Partial results are always delivered.
3. **Checkpoint / resume** — :class:`CampaignJournal` journals campaign
   state (fingerprint, per-injection outcomes, findings, quarantines) to
   a JSON-lines file every K injections; an interrupted campaign resumed
   from its checkpoint renders a report byte-identical to an
   uninterrupted run (property-tested).
"""
from __future__ import annotations

import ctypes
import hashlib
import json
import os
import threading
import time
import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import jsonlog
from repro.core.oracle import (
    RecoveryOutcome,
    RecoveryStatus,
    format_capped_trace,
    run_recovery,
)
from repro.core.report import Finding, PHASE_FAULT_INJECTION
from repro.core.taxonomy import BugKind
from repro.errors import CheckpointError, WatchdogTimeout
from repro.obs.spans import NULL_TELEMETRY
from repro.recovery.cache import outcome_from_record
from repro.recovery.digest import persisted_write_extent
from repro.pmem.faultmodel import (
    VARIANT_PREFIX,
    AdversarialImageFactory,
    CrashImage,
    FaultModelConfig,
)
from repro.pmem.incremental import (
    ENGINE_IMAGE_INCREMENTAL,
    ENGINE_IMAGE_REPLAY,
    ImageEngineStats,
    IncrementalImageEngine,
    MaterialisedImage,
    validate_image_engine,
)

#: Checkpoint journal format version.
JOURNAL_VERSION = 1
#: The journal header keys that identify a campaign's checkpoint.
JOURNAL_IDENTITY = ("version", "fingerprint")


class TornJournalWarning(UserWarning):
    """A checkpoint journal ended in a torn (half-written) line.

    The torn tail is skipped on read and truncated before append — an
    interrupted or killed campaign loses at most the injections after
    its last flush, never the whole journal.
    """


#: Torn-tail sightings per journal path this process, for warning dedup:
#: a resume flow legitimately reads the same torn journal several times
#: (load_checkpoint, the merge's base-record read, the append repair),
#: and one tear is one event, not three warnings.
_TORN_SEEN: Dict[str, int] = {}
_TORN_SEEN_LOCK = threading.Lock()


def _note_torn(path: str) -> bool:
    """Record a torn-tail sighting; True when it deserves a warning
    (first sighting of this path in this process)."""
    key = os.path.abspath(path)
    with _TORN_SEEN_LOCK:
        _TORN_SEEN[key] = _TORN_SEEN.get(key, 0) + 1
        return _TORN_SEEN[key] == 1


def torn_warning_count(path: str) -> int:
    """How many torn-tail sightings ``path`` has accumulated (the
    first warned, the rest were deduplicated)."""
    with _TORN_SEEN_LOCK:
        return _TORN_SEEN.get(os.path.abspath(path), 0)


def reset_torn_warnings() -> None:
    """Forget all torn-tail sightings (tests; a fresh campaign run)."""
    with _TORN_SEEN_LOCK:
        _TORN_SEEN.clear()


# --------------------------------------------------------------------- #
# configuration
# --------------------------------------------------------------------- #


@dataclass
class HarnessConfig:
    """Knobs of the hardened campaign runner.

    The defaults are fully backwards compatible: no watchdog, no
    checkpointing, quarantine after two retries.
    """

    #: Wall-clock deadline per recovery call (None = unlimited).
    timeout_seconds: Optional[float] = None
    #: Machine step budget per recovery call (None = unlimited).
    step_budget: Optional[int] = None
    #: Containment retries before an injection is quarantined.
    max_retries: int = 2

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


# --------------------------------------------------------------------- #
# watchdogged (supervised) calls
# --------------------------------------------------------------------- #


def _async_raise(thread_ident: int, exc_type: type) -> bool:
    """Raise ``exc_type`` asynchronously inside another thread.

    Pure-Python code honours the exception at its next bytecode boundary;
    threads blocked in C calls do not (the caller then abandons the
    daemon thread).  Returns True when the interrupt was delivered.
    """
    try:
        res = ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(thread_ident), ctypes.py_object(exc_type)
        )
    except Exception:  # pragma: no cover - platform without ctypes API
        return False
    if res > 1:  # pragma: no cover - undo on over-delivery, per CPython docs
        ctypes.pythonapi.PyThreadState_SetAsyncExc(
            ctypes.c_ulong(thread_ident), None
        )
        return False
    return res == 1


def supervised_call(
    fn: Callable[[], Any],
    timeout_seconds: Optional[float] = None,
    grace_seconds: float = 1.0,
) -> Any:
    """Run ``fn`` under a wall-clock watchdog.

    Without a timeout this is a plain call (zero overhead).  With one,
    ``fn`` runs in a supervised worker thread; on deadline overrun a
    :class:`~repro.errors.WatchdogTimeout` is asynchronously raised inside
    the worker (pure-Python hangs stop at the next bytecode boundary and
    surface through ``fn``'s own handling), and if the worker still does
    not stop within the grace period it is abandoned (daemon thread) and
    ``WatchdogTimeout`` is raised to the caller.
    """
    if timeout_seconds is None:
        return fn()
    box: Dict[str, Any] = {}

    def runner():
        try:
            box["result"] = fn()
        except BaseException as err:  # noqa: BLE001 - transported to caller
            box["error"] = err

    worker = threading.Thread(
        target=runner, daemon=True, name="mumak-watchdog-call"
    )
    worker.start()
    worker.join(timeout_seconds)
    if worker.is_alive():
        _async_raise(worker.ident, WatchdogTimeout)
        worker.join(grace_seconds)
        if worker.is_alive():
            raise WatchdogTimeout(
                timeout_seconds,
                f"supervised call exceeded its {timeout_seconds:.3f}s "
                "deadline and did not stop; worker thread abandoned",
            )
    if "error" in box:
        raise box["error"]
    if "result" in box:
        return box["result"]
    raise WatchdogTimeout(timeout_seconds)  # pragma: no cover - defensive


# --------------------------------------------------------------------- #
# tasks, results, quarantine
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class InjectionTask:
    """One fault injection: a unique failure point to probe.

    ``variant`` names the fault-model variant whose crash image this
    injection materialises (``"prefix"`` is the paper's graceful crash;
    ``"torn:N"``/``"reorder:N"``/``"media:N"`` are adversarial — see
    :mod:`repro.pmem.faultmodel`).  Variant identity is part of the
    checkpoint record, so resuming a campaign under a different fault
    model never silently reuses the wrong results.

    ``sched`` is the schedule sample this failure point was observed
    under (``-1`` for single-threaded program-order campaigns).  Like
    the variant it is part of the checkpoint record and of all resume
    identity checks, so a checkpoint can never mix schedules.
    """

    index: int
    stack: Tuple[str, ...]
    seq: int
    variant: str = VARIANT_PREFIX
    sched: int = -1


def task_order_key(task: InjectionTask) -> Tuple[int, int]:
    """Deterministic campaign order of a task: (schedule id, index).

    Single-threaded campaigns have ``sched == -1`` everywhere, so the
    key degenerates to plain index order — byte-compatible with every
    journal written before the schedule axis existed.
    """
    return (task.sched, task.index)


def same_injection(a: InjectionTask, b: InjectionTask) -> bool:
    """Whether two tasks probe the same crash image: a checkpointed or
    shipped result stands in for a planned task only when this holds."""
    return (a.stack, a.variant, a.sched, a.seq) == (
        b.stack, b.variant, b.sched, b.seq
    )


@dataclass
class QuarantineRecord:
    """An injection the harness gave up on (tool trouble, not a finding)."""

    stack: Tuple[str, ...]
    seq: Optional[int]
    phase: str  # "materialise" | "recovery"
    attempts: int
    error: str
    trace: Optional[str] = None

    def render(self) -> str:
        where = self.stack[-1] if self.stack else f"seq {self.seq}"
        return (
            f"  [quarantined] {where} ({self.phase}, "
            f"{self.attempts} attempt(s)): {self.error}"
        )


@dataclass
class InjectionResult:
    """What one injection produced (exactly one of outcome/quarantine)."""

    task: InjectionTask
    outcome: Optional[RecoveryOutcome] = None
    finding: Optional[Finding] = None
    quarantine: Optional[QuarantineRecord] = None
    attempts: int = 1
    #: True when reconstructed from a checkpoint rather than executed.
    restored: bool = False
    #: Per-phase wall-clock: crash-image materialisation vs oracle
    #: recovery.  Deliberately *not* serialised to the checkpoint journal
    #: (timings are run-local; journals stay byte-identical across
    #: engines and machines).
    materialise_seconds: float = 0.0
    recovery_seconds: float = 0.0


def split_resumed(
    tasks: Sequence[InjectionTask],
    resume_state: Optional[Dict[int, InjectionResult]],
) -> Tuple[List[InjectionTask], List[InjectionResult]]:
    """Partition a plan into the tasks still to run and the results a
    checkpoint already holds for the others (the one resume filter).
    The fingerprint omits the workload and the target's options, so a
    record of another injection at a planned index is refused."""
    todo: List[InjectionTask] = []
    restored: List[InjectionResult] = []
    for task in tasks:
        done = resume_state.get(task.index) if resume_state else None
        if done is None:
            todo.append(task)
        elif same_injection(done.task, task):
            restored.append(done)
        else:
            raise CheckpointError(
                f"checkpoint record {task.index} is another workload's "
                "injection (--ops/--spt/--bugs changed?); start afresh"
            )
    return todo, restored


@dataclass
class CampaignResult:
    """Merged, deterministic (index-sorted) results of a campaign."""

    results: List[InjectionResult] = field(default_factory=list)
    #: True when the campaign stopped early on a drain request (graceful
    #: SIGTERM/SIGINT): every completed result was journaled and the
    #: remainder is resumable via the checkpoint.
    drained: bool = False

    @property
    def outcomes(self) -> List[Tuple[Tuple[str, ...], RecoveryOutcome]]:
        return [
            (r.task.stack, r.outcome)
            for r in self.results
            if r.outcome is not None
        ]

    @property
    def findings(self) -> List[Finding]:
        return [r.finding for r in self.results if r.finding is not None]

    @property
    def quarantined(self) -> List[QuarantineRecord]:
        return [
            r.quarantine for r in self.results if r.quarantine is not None
        ]

    @property
    def materialise_seconds(self) -> float:
        """Total wall-clock spent materialising crash images."""
        return sum(r.materialise_seconds for r in self.results)

    @property
    def recovery_seconds(self) -> float:
        """Total wall-clock spent inside the recovery oracle."""
        return sum(r.recovery_seconds for r in self.results)


def make_finding(
    stack: Tuple[str, ...],
    seq: Optional[int],
    outcome: RecoveryOutcome,
    variant: str = VARIANT_PREFIX,
    sched: Optional[int] = None,
) -> Optional[Finding]:
    """The fault-injection finding for a bug outcome (None otherwise).

    ``variant`` attributes the finding to the fault-model variant whose
    crash image exposed it; ``sched`` to the schedule sample (None for
    single-threaded campaigns).
    """
    if outcome is None or not outcome.status.is_bug:
        return None
    messages = {
        RecoveryStatus.HUNG: (
            "recovery hangs on the post-failure state at this failure "
            "point (watchdog deadline exceeded)"
        ),
        RecoveryStatus.RESOURCE_EXHAUSTED: (
            "recovery exhausts its execution budget on the post-failure "
            "state at this failure point"
        ),
        RecoveryStatus.MEDIA_ERROR: (
            "recovery crashes on an unhandled media error (poisoned "
            "line) in the post-failure state at this failure point"
        ),
    }
    message = messages.get(
        outcome.status,
        "recovery cannot handle the post-failure state at this failure "
        "point",
    )
    return Finding(
        kind=BugKind.CRASH_CONSISTENCY,
        phase=PHASE_FAULT_INJECTION,
        message=message,
        site=stack[-1] if stack else None,
        stack=stack,
        seq=seq,
        recovery_error=outcome.error,
        recovery_trace=outcome.trace,
        variant=variant,
        sched=sched,
    )


def _sched_of(task: InjectionTask) -> Optional[int]:
    """Finding-attribution form of a task's schedule id (None when off)."""
    sched = getattr(task, "sched", -1)
    return sched if sched >= 0 else None


# --------------------------------------------------------------------- #
# per-injection containment
# --------------------------------------------------------------------- #


def _unpack_image(materialised) -> Tuple[Any, Tuple[int, ...]]:
    """Normalise an image source's product to ``(image, poisoned_lines)``.

    Image sources may return raw bytes (a prefix image), a
    :class:`~repro.pmem.faultmodel.CrashImage` carrying media-error
    state, or a pooled :class:`~repro.pmem.incremental.MaterialisedImage`
    (a prefix image or a variant patched onto one, with its own poison
    set) — the latter is passed through *unconverted* so the recovered
    machine can adopt its buffer without copying.
    """
    if isinstance(materialised, CrashImage):
        return materialised.data, materialised.poisoned_lines
    if isinstance(materialised, MaterialisedImage):
        return materialised, materialised.poisoned_lines
    return bytes(materialised), ()


def execute_injection(
    task: InjectionTask,
    image_for: Callable[[InjectionTask], bytes],
    app_factory: Callable[[], Any],
    config: HarnessConfig,
    telemetry=NULL_TELEMETRY,
    recovery=None,
) -> InjectionResult:
    """One injection under full containment.

    Materialise the crash image, consult the oracle under the watchdog,
    retry tool-side failures up to ``config.max_retries`` times, then
    quarantine.  Never raises.

    ``telemetry`` (observation-only) receives one
    ``campaign/injection/materialise`` and one
    ``campaign/injection/recovery`` span *per attempt*, fed the same
    ``perf_counter`` deltas the result's materialise/recovery accounting
    accumulates — the two accountings agree by construction.

    ``recovery`` (a :class:`~repro.recovery.RecoveryEngine`, optional)
    adds the recovery engine to the hot path: the materialised image is
    digested and looked up in the verdict cache (a hit replays the
    memoised outcome, skipping the oracle entirely — the digest binds
    scope/variant/poisons so the replay is sound), misses run through
    the engine's machine-template pool and are stored back.  Digest +
    lookup time is billed to a separate ``recovery/cache`` span, never
    to the materialise/recovery accounting, so those splits remain
    engine-independent.
    """
    attempts = 0
    phase = "materialise"
    last_error = "unknown"
    last_trace: Optional[str] = None
    mat_seconds = 0.0
    rec_seconds = 0.0
    caching = recovery is not None and recovery.caching
    machine_pool = recovery.pool if recovery is not None else None
    digest_value = None
    # Pooled-image protocol: an image source exposing ``release`` hands
    # out reusable MaterialisedImage buffers; hand them back when the
    # recovery attempt is over (an abandoned watchdog thread may still
    # be writing one — it is marked abandoned and leaked instead).
    release = getattr(image_for, "release", None)

    def give_back(materialised) -> None:
        if release is not None and isinstance(materialised, MaterialisedImage):
            release(materialised)

    while attempts <= config.max_retries:
        attempts += 1
        image = None
        try:
            phase = "materialise"
            start = time.perf_counter()
            image, poisoned_lines = _unpack_image(image_for(task))
            elapsed = time.perf_counter() - start
            mat_seconds += elapsed
            telemetry.record_span(
                "campaign/injection/materialise", elapsed,
                task=task.index, variant=task.variant, attempt=attempts,
            )
            if caching:
                phase = "recovery-cache"
                start = time.perf_counter()
                digest_value = recovery.digest(
                    image, poisoned_lines, variant=task.variant
                )
                record = recovery.lookup(digest_value)
                telemetry.record_span(
                    "campaign/injection/recovery/cache",
                    time.perf_counter() - start,
                    task=task.index, variant=task.variant,
                    hit=record is not None,
                )
                if record is not None:
                    give_back(image)
                    outcome = outcome_from_record(
                        record, stack_key=task.stack
                    )
                    return InjectionResult(
                        task,
                        outcome=outcome,
                        finding=make_finding(
                            task.stack, task.seq, outcome,
                            variant=task.variant, sched=_sched_of(task),
                        ),
                        attempts=attempts,
                        materialise_seconds=mat_seconds,
                        recovery_seconds=rec_seconds,
                    )
            phase = "recovery"
            start = time.perf_counter()
            try:
                outcome = supervised_call(
                    lambda: run_recovery(
                        app_factory,
                        image,
                        timeout=config.timeout_seconds,
                        step_budget=config.step_budget,
                        stack_key=task.stack,
                        poisoned_lines=poisoned_lines,
                        telemetry=telemetry,
                        machine_pool=machine_pool,
                    ),
                    config.timeout_seconds,
                )
            finally:
                elapsed = time.perf_counter() - start
                rec_seconds += elapsed
                telemetry.record_span(
                    "campaign/injection/recovery", elapsed,
                    task=task.index, variant=task.variant,
                    attempt=attempts,
                )
        except WatchdogTimeout as err:
            # Unkillable hang: the worker thread was abandoned.  This is
            # a definitive HUNG classification, not tool trouble — do not
            # retry (re-running would hang again and leak another thread).
            # The abandoned thread may still write the pooled buffer, so
            # the image is abandoned (leaked), never reused.
            if isinstance(image, MaterialisedImage):
                image.abandon()
            outcome = RecoveryOutcome(
                RecoveryStatus.HUNG,
                error=f"{type(err).__name__}: {err}",
                stack_key=task.stack,
            )
            if caching and digest_value is not None:
                # A hang is a property of the image (the watchdog
                # budgets are part of the digest scope), so memoise it:
                # other points collapsing onto this image should not
                # each burn a full timeout.
                recovery.store(digest_value, outcome)
            return InjectionResult(
                task,
                outcome=outcome,
                finding=make_finding(
                    task.stack, task.seq, outcome, variant=task.variant,
                    sched=_sched_of(task),
                ),
                attempts=attempts,
                materialise_seconds=mat_seconds,
                recovery_seconds=rec_seconds,
            )
        except Exception as err:  # noqa: BLE001 - containment boundary
            give_back(image)
            last_error = f"{type(err).__name__}: {err}"
            last_trace = format_capped_trace(err)
            continue
        give_back(image)
        if outcome.status.is_infrastructure:
            # The oracle already classified this as tool trouble; treat
            # it like a contained exception (retry, then quarantine).
            # Never cached: harness trouble says nothing about the image.
            last_error = outcome.error or "infrastructure error"
            last_trace = outcome.trace
            continue
        if caching and digest_value is not None:
            recovery.store(digest_value, outcome)
        return InjectionResult(
            task,
            outcome=outcome,
            finding=make_finding(
                task.stack, task.seq, outcome, variant=task.variant,
                sched=_sched_of(task),
            ),
            attempts=attempts,
            materialise_seconds=mat_seconds,
            recovery_seconds=rec_seconds,
        )
    return InjectionResult(
        task,
        quarantine=QuarantineRecord(
            stack=task.stack,
            seq=task.seq,
            phase=phase,
            attempts=attempts,
            error=last_error,
            trace=last_trace,
        ),
        attempts=attempts,
        materialise_seconds=mat_seconds,
        recovery_seconds=rec_seconds,
    )


# --------------------------------------------------------------------- #
# crash-image materialisation
# --------------------------------------------------------------------- #


class CampaignImageSource:
    """The crash-image source of a whole campaign.

    A campaign is a list of detection runs (one for an ordinary
    campaign, one per schedule sample under ``--sched``), and every task
    carries its run's schedule id.  Each run gets a prefix builder on
    its first task, so a shard that only executes tasks of one run pays
    for one:

    * ``image_engine="incremental"``: an
      :class:`~repro.pmem.incremental.IncrementalImageEngine` handing
      every task a pooled copy-on-write buffer — moving between
      consecutive failure points costs O(changed bytes), an adversarial
      variant is patched onto the buffer in place, and the recovery
      oracle adopts the buffer without copying;
    * ``"replay"``: the same running image, copied whole per failure
      point, with every adversarial variant rebuilt from the trace —
      the differential-testing reference the image-engine tests
      (``tests/pmem``, ``tests/core``) compare the incremental engine
      against;
    * ``reexecute`` (the ``--engine replay`` ablation): a callable that
      returns a task's prefix image by re-executing the target.

    Adversarial variants are materialised from the prefix image at their
    failure point by the run's planner factory (:meth:`factory`), and one
    :class:`~repro.pmem.incremental.ImageEngineStats` counts the planners
    and every builder.  Tasks arrive run by run, so only the current
    run's prefix builder is kept; a task of an earlier run (a fleet
    requeue) rebuilds its run's.

    :attr:`extent` is the campaign's persisted-write extent over every
    run: every crash image differs from the pristine pool only inside
    it.  The verdict digester hashes it, and the incremental engine
    backs its running image, its pooled buffers and every variant patch
    only up to its end; the buffers keep the pool's logical size, so
    recovery boots on the full pool.
    """

    def __init__(
        self,
        runs: Sequence,
        fault_model: Optional[FaultModelConfig] = None,
        image_engine: str = ENGINE_IMAGE_REPLAY,
        reexecute: Optional[Callable[[InjectionTask], bytes]] = None,
    ):
        self.image_engine = validate_image_engine(image_engine)
        self.fault_model = fault_model or FaultModelConfig()
        self.stats = ImageEngineStats()
        self._runs = {run.sched: run for run in runs}
        self.extent = persisted_write_extent(
            event for run in runs for event in run.trace
        )
        self._reexecute = reexecute
        self._factories: Dict[int, AdversarialImageFactory] = {}
        #: The current run's schedule id and prefix builder.
        self._current: Optional[Tuple[int, IncrementalImageEngine]] = None
        #: Pooled buffers must go back to the engine that issued them.
        self._owner: Dict[int, IncrementalImageEngine] = {}

    def factory(self, sched: int) -> AdversarialImageFactory:
        """The run's planner factory; it also materialises the variants."""
        factory = self._factories.get(sched)
        if factory is None:
            run = self._runs[sched]
            factory = self._factories[sched] = AdversarialImageFactory(
                self.fault_model, self._initial(run), run.trace,
                image_engine=self.image_engine, stats=self.stats,
            )
        return factory

    def _initial(self, run) -> bytes:
        """The run's initial image, cut at the extent's end when the
        incremental engine builds the campaign's images from it.

        Every initial image is the snapshot of a freshly booted machine
        (``run_instrumented``, ``run_scheduled``), so it is zero above
        the extent, and so is every crash image built from it: the
        extent-backed medium recovery boots on reads exactly those
        zeros.  The extent is line-aligned and covers every traced
        write, so no builder clips a write at the cut.  The replay
        image engine keeps the full pool, and so does a campaign that
        persists nothing (no extent).
        """
        incremental = self.image_engine == ENGINE_IMAGE_INCREMENTAL
        if self.extent is None or not incremental:
            return run.initial_image
        return run.initial_image[:self.extent[1]]

    def _engine(self, sched: int) -> IncrementalImageEngine:
        if self._current is None or self._current[0] != sched:
            run = self._runs[sched]
            self._current = (
                sched,
                IncrementalImageEngine(
                    self._initial(run), run.trace, stats=self.stats,
                    image_size=len(run.initial_image),
                ),
            )
        return self._current[1]

    def __call__(self, task: InjectionTask):
        if self._reexecute is not None:
            prefix = self._reexecute(task)
        elif self.image_engine == ENGINE_IMAGE_INCREMENTAL:
            engine = self._engine(task.sched)
            prefix = engine.checkout(task.seq)
            self._owner[id(prefix)] = engine
        else:
            prefix = self._engine(task.sched).image_at(task.seq)
        if task.variant == VARIANT_PREFIX:
            return prefix
        return self.factory(task.sched).materialise(
            task.seq, task.variant, prefix_image=prefix
        )

    def release(self, image) -> None:
        """Hand a pooled buffer back to the engine that issued it."""
        engine = self._owner.pop(id(image), None)
        if engine is not None:
            engine.release(image)


# --------------------------------------------------------------------- #
# checkpoint journal
# --------------------------------------------------------------------- #


def _outcome_to_dict(outcome: RecoveryOutcome) -> dict:
    return {
        "status": outcome.status.value,
        "error": outcome.error,
        "trace": outcome.trace,
        "stack_key": list(outcome.stack_key) if outcome.stack_key else None,
    }


def _outcome_from_dict(data: dict) -> RecoveryOutcome:
    return RecoveryOutcome(
        status=RecoveryStatus(data["status"]),
        error=data.get("error"),
        trace=data.get("trace"),
        stack_key=tuple(data["stack_key"]) if data.get("stack_key") else None,
    )


def _finding_to_dict(finding: Finding) -> dict:
    data = {
        "kind": finding.kind.value,
        "phase": finding.phase,
        "message": finding.message,
        "site": finding.site,
        "stack": list(finding.stack),
        "is_warning": finding.is_warning,
        "seq": finding.seq,
        "recovery_error": finding.recovery_error,
        "recovery_trace": finding.recovery_trace,
        "variant": finding.variant,
    }
    # Emitted only for scheduled campaigns: single-threaded journals stay
    # byte-identical to every release before the schedule axis existed.
    if finding.sched is not None:
        data["sched"] = finding.sched
    return data


def _finding_from_dict(data: dict) -> Finding:
    return Finding(
        kind=BugKind(data["kind"]),
        phase=data["phase"],
        message=data["message"],
        site=data.get("site"),
        stack=tuple(data.get("stack") or ()),
        is_warning=bool(data.get("is_warning")),
        seq=data.get("seq"),
        recovery_error=data.get("recovery_error"),
        recovery_trace=data.get("recovery_trace"),
        variant=data.get("variant", VARIANT_PREFIX),
        sched=data.get("sched"),
    )


def _quarantine_to_dict(record: QuarantineRecord) -> dict:
    return {
        "stack": list(record.stack),
        "seq": record.seq,
        "phase": record.phase,
        "attempts": record.attempts,
        "error": record.error,
        "trace": record.trace,
    }


def _quarantine_from_dict(data: dict) -> QuarantineRecord:
    return QuarantineRecord(
        stack=tuple(data.get("stack") or ()),
        seq=data.get("seq"),
        phase=data["phase"],
        attempts=data["attempts"],
        error=data["error"],
        trace=data.get("trace"),
    )


def result_to_record(result: InjectionResult) -> dict:
    record = {
        "type": "injection",
        "i": result.task.index,
        "stack": list(result.task.stack),
        "seq": result.task.seq,
        "variant": result.task.variant,
        "attempts": result.attempts,
        "outcome": (
            _outcome_to_dict(result.outcome) if result.outcome else None
        ),
        "finding": (
            _finding_to_dict(result.finding) if result.finding else None
        ),
        "quarantine": (
            _quarantine_to_dict(result.quarantine)
            if result.quarantine
            else None
        ),
    }
    # The schedule id joins the record only for scheduled campaigns, so
    # legacy (single-threaded) journals remain byte-identical.
    if result.task.sched >= 0:
        record["sched"] = result.task.sched
    return record


def result_from_record(record: dict) -> InjectionResult:
    task = InjectionTask(
        index=record["i"],
        stack=tuple(record.get("stack") or ()),
        seq=record.get("seq"),
        variant=record.get("variant", VARIANT_PREFIX),
        sched=record.get("sched", -1),
    )
    return InjectionResult(
        task=task,
        outcome=(
            _outcome_from_dict(record["outcome"])
            if record.get("outcome")
            else None
        ),
        finding=(
            _finding_from_dict(record["finding"])
            if record.get("finding")
            else None
        ),
        quarantine=(
            _quarantine_from_dict(record["quarantine"])
            if record.get("quarantine")
            else None
        ),
        attempts=record.get("attempts", 1),
        restored=True,
    )


def journal_header(fingerprint: Optional[str], seed: int = 0) -> dict:
    """The first line of a checkpoint journal."""
    return {
        "type": "header",
        "version": JOURNAL_VERSION,
        "fingerprint": fingerprint,
        "seed": seed,
    }


def journal_mismatch(
    header: Optional[dict], fingerprint: Optional[str]
) -> str:
    """How the journal headed ``header`` differs from campaign
    ``fingerprint``'s (:data:`JOURNAL_IDENTITY`); empty when it does not,
    or has no header (an empty or torn log).  A None ``fingerprint``
    checks the version alone."""
    if header is None:
        return ""
    identity = JOURNAL_IDENTITY if fingerprint is not None else ("version",)
    return jsonlog.mismatch(header, journal_header(fingerprint), identity)


def fold_injections(records, into: Dict[int, dict]) -> Tuple[int, int]:
    """Fold journal ``records`` into ``into`` by injection index, first
    writer wins: a duplicate is a deterministic re-execution, identical
    to the record it repeats.  Returns ``(folded, duplicates)``."""
    folded = duplicates = 0
    for record in records:
        if record.get("type") != "injection" or "i" not in record:
            continue
        if into.setdefault(record["i"], record) is record:
            folded += 1
        else:
            duplicates += 1
    return folded, duplicates


class CampaignJournal:
    """JSON-lines checkpoint writer with periodic durability.

    One header line (format version + campaign fingerprint + seed), then
    one line per completed injection.  Records are buffered and flushed +
    fsynced every ``interval`` injections so an interrupted campaign
    loses at most K results.  Opening an existing journal for the same
    campaign appends after truncating a torn tail; another campaign's
    journal raises :class:`~repro.errors.CheckpointError`.
    """

    def __init__(
        self,
        path: str,
        fingerprint: str,
        seed: int = 0,
        interval: int = 25,
    ):
        self.path = path
        self.fingerprint = fingerprint
        self.interval = max(1, interval)
        self._since_flush = 0
        try:
            self._fh, _, self.bytes_written = jsonlog.append(
                path,
                journal_header(fingerprint, seed),
                JOURNAL_IDENTITY,
                on_torn=lambda clean: _warn_repair(path, clean),
            )
        except jsonlog.CorruptLog as err:
            raise _corrupt(path, err)
        except jsonlog.ForeignLog as err:
            raise CheckpointError(
                f"checkpoint {path!r} {err}; refusing to append"
            )
        if self.bytes_written:
            self.flush()

    def record(self, result: InjectionResult) -> None:
        line = jsonlog.dumps(result_to_record(result))
        self._fh.write(line)
        self.bytes_written += len(line)
        self._since_flush += 1
        if self._since_flush >= self.interval:
            self.flush()

    def flush(self) -> None:
        self._since_flush = 0
        self._fh.flush()
        try:
            os.fsync(self._fh.fileno())
        except OSError:  # pragma: no cover - fsync-less filesystems
            pass

    def close(self) -> None:
        if not self._fh.closed:
            self.flush()
            self._fh.close()

    def __enter__(self) -> "CampaignJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _corrupt(path: str, err: jsonlog.CorruptLog) -> CheckpointError:
    return CheckpointError(f"corrupt checkpoint {path!r} at line {err.line}")


def _warn_repair(path: str, clean: int) -> None:
    """The append repair's torn-tail warning, deduplicated with the
    read-side one: one tear, one warning per process."""
    if _note_torn(path):
        warnings.warn(
            f"checkpoint {path!r} ends in a torn line; truncating to its "
            f"last {clean} clean bytes before appending",
            TornJournalWarning,
            stacklevel=5,
        )


def scan_journal(path: str):
    """Parse a checkpoint journal, tracking the clean byte prefix.

    Returns ``(header, records, clean_bytes, torn)``: ``clean_bytes`` is
    the length of the longest prefix of the file made of complete,
    parseable lines, and ``torn`` is True when a half-written trailing
    line (crash or kill mid-write, or a final line whose newline never
    landed) follows it.  The torn tail is *skipped*, never fatal —
    corruption anywhere before it raises
    :class:`~repro.errors.CheckpointError`.
    """
    try:
        return jsonlog.read(path)
    except jsonlog.CorruptLog as err:
        raise _corrupt(path, err)


def read_journal(path: str, warn=None):
    """Read a checkpoint journal; tolerates a torn trailing line.

    Returns ``(header, records)``; header is None for an empty file.
    ``warn`` (a callable taking one message string, default
    :func:`warnings.warn` with :class:`TornJournalWarning`) is invoked
    when a torn trailing line was skipped — once per file per process
    (a resume flow reads the same journal several times; one tear is
    one event, see :func:`torn_warning_count`), repeats are counted
    silently.
    """
    header, records, _, torn = scan_journal(path)
    if torn and _note_torn(path):
        message = (
            f"checkpoint {path!r} ends in a torn (half-written) line; "
            "skipping it — the interrupted injection will re-run "
            "(further torn-tail warnings for this file are deduplicated)"
        )
        if warn is not None:
            warn(message)
        else:
            warnings.warn(message, TornJournalWarning, stacklevel=2)
    return header, records


def checkpoint_records(
    path: str, fingerprint: Optional[str] = None
) -> Dict[int, dict]:
    """The injection records of the checkpoint at ``path``, by index.

    Raises :class:`~repro.errors.CheckpointError` when it does not
    exist, is corrupt, or is another campaign's journal.
    """
    if not os.path.exists(path):
        raise CheckpointError(f"checkpoint {path!r} does not exist")
    header, journal = read_journal(path)
    differs = journal_mismatch(header, fingerprint)
    if differs:
        raise CheckpointError(
            f"checkpoint {path!r} {differs} (config/seed/target changed?)"
        )
    records: Dict[int, dict] = {}
    fold_injections(journal, records)
    return records


def load_checkpoint(
    path: str, fingerprint: Optional[str] = None
) -> Dict[int, InjectionResult]:
    """Load completed injections from a checkpoint, keyed by task index."""
    return {
        index: result_from_record(record)
        for index, record in checkpoint_records(path, fingerprint).items()
    }


def campaign_fingerprint(payload: dict) -> str:
    """Stable identity of a campaign configuration (for resume safety)."""
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# --------------------------------------------------------------------- #
# the campaign runner
# --------------------------------------------------------------------- #


def _record_checkpoint(journal, result, telemetry) -> None:
    """Journal one result, attributing the write to the checkpoint phase."""
    start = time.perf_counter()
    journal.record(result)
    telemetry.record_span(
        "campaign/injection/checkpoint",
        time.perf_counter() - start,
        task=result.task.index,
    )


def run_campaign(
    tasks: Sequence[InjectionTask],
    image_source: CampaignImageSource,
    app_factory: Callable[[], Any],
    config: Optional[HarnessConfig] = None,
    journal: Optional[CampaignJournal] = None,
    resume_state: Optional[Dict[int, InjectionResult]] = None,
    telemetry=NULL_TELEMETRY,
    heartbeat=None,
    recovery=None,
    stop: Optional[threading.Event] = None,
) -> CampaignResult:
    """Run an injection campaign to completion, whatever the targets do.

    Tasks run one after another, in plan order.  ``resume_state`` (from
    :func:`load_checkpoint`) short-circuits already-completed tasks;
    ``journal`` checkpoints each fresh result as it completes, so the
    journal is in campaign order.  ``telemetry`` (a
    :class:`repro.obs.Telemetry`, observation-only) and ``heartbeat`` (a
    :class:`repro.obs.HeartbeatMonitor`) stream spans and progress; both
    default to inert.

    ``stop`` (a :class:`threading.Event`, optional) requests a graceful
    drain: the campaign stops picking up new work at the next task
    boundary, flushes the journal, and returns a partial
    :class:`CampaignResult` with ``drained=True`` — resuming from the
    checkpoint completes it with byte-identical journal records.

    ``recovery`` (a :class:`~repro.recovery.RecoveryEngine`, optional)
    routes every recovery through the engine's verdict cache and machine
    pool.
    """
    config = config or HarnessConfig()
    campaign = CampaignResult()
    todo, restored = split_resumed(tasks, resume_state)
    for result in restored:
        campaign.results.append(result)
        if heartbeat is not None:
            heartbeat.note(result)

    for task in todo:
        if stop is not None and stop.is_set():
            campaign.drained = True
            break
        result = execute_injection(
            task, image_source, app_factory, config,
            telemetry=telemetry, recovery=recovery,
        )
        campaign.results.append(result)
        if journal is not None:
            _record_checkpoint(journal, result, telemetry)
        if heartbeat is not None:
            heartbeat.note(result)

    if heartbeat is not None:
        heartbeat.finish()
    if journal is not None:
        journal.flush()
    campaign.results.sort(key=lambda r: task_order_key(r.task))
    return campaign
