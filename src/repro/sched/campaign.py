"""Composing seeded schedules with the fault-injection campaign.

One scheduled campaign runs K *samples* (seeded interleavings) of the
target.  Each sample is detected independently — its own trace, its own
failure-point tree — and contributes tasks tagged with its schedule id.
A crash point is then the product (interleaving prefix × drain state ×
fault variant): the interleaving decides which stores committed, the
drain state is whatever still sat in a TSO buffer (invisible to the
crash by construction), and the fault variant mutates the committed
prefix exactly as in single-threaded campaigns.

Failure points are *occurrence-expanded*: the same syntactic flush/fence
site reached N times under a schedule becomes N distinct crash points
(``<sched:t0#2>`` synthetic frames), because under concurrency the k-th
dynamic occurrence is where the interesting interleavings live — the
first occurrence of a site is usually the benign one.  The blowup is
pruned downstream by DPOR-style equivalence: two crash points (within or
across samples) whose images agree on the campaign-wide persisted-write
extent collapse to one verdict-cache digest, so equivalent interleavings
are never re-verified.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.fault_injection import DetectionRun
from repro.core.fpt import FailurePointTree
from repro.instrument.tracer import (
    GRANULARITY_PERSISTENCY,
    FailurePointObserver,
    MinimalTracer,
)
from repro.sched.config import SchedConfig
from repro.sched.runner import ScheduleArtifacts, run_scheduled


def derive_schedule_seed(base_seed: int, sample: int) -> int:
    """The per-sample scheduler seed, hash-derived from the base seed.

    Mirrors :func:`repro.pmem.faultmodel.derive_rng`: neighbouring
    samples get uncorrelated interleavings while two runs of the same
    campaign get identical ones.
    """
    digest = hashlib.sha256(
        f"mumak-sched:v1:{base_seed}:{sample}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass
class ScheduleRun(DetectionRun):
    """One sample's detection products (``sched`` is the sample index)."""

    #: The derived scheduler seed this sample ran under.
    schedule_seed: int = 0
    #: The interleaving taken, e.g. ``("s0", "d0", "s1", ...)``.
    schedule_trace: Tuple[str, ...] = ()


def _detect_one(
    app_factory: Callable[[], Any],
    workload: Sequence,
    sched: SchedConfig,
    sample: int,
    seed: int,
    granularity: str,
    require_store_since_last: bool,
    step_limit: Optional[int],
    deadline: Optional[float],
) -> Tuple[ScheduleRun, ScheduleArtifacts]:
    tracer = MinimalTracer()
    tree = FailurePointTree()
    occurrences: Dict[Tuple[Tuple[str, ...], str], int] = {}
    scheduler_box: Dict[str, Any] = {}

    def on_candidate(stack, event):
        # Occurrence expansion: attribute the candidate to the thread the
        # scheduler is currently stepping ("setup" outside the drive
        # loop) and make every dynamic occurrence its own failure point.
        scheduler = scheduler_box.get("scheduler")
        label = "setup"
        if scheduler is not None and scheduler.current_label:
            label = scheduler.current_label
        key = (stack, label)
        occ = occurrences.get(key, 0)
        occurrences[key] = occ + 1
        tree.insert(stack + (f"<sched:{label}#{occ}>",), seq=event.seq)

    observer = FailurePointObserver(
        on_candidate,
        granularity=granularity,
        require_store_since_last=require_store_since_last,
    )
    artifacts = run_scheduled(
        app_factory,
        workload,
        sched,
        derive_schedule_seed(sched.seed, sample),
        hooks=(tracer, observer),
        seed=seed,
        step_limit=step_limit,
        deadline=deadline,
        scheduler_box=scheduler_box,
    )
    run = ScheduleRun(
        sched=sample,
        schedule_seed=artifacts.schedule_seed,
        schedule_trace=artifacts.schedule_trace,
        trace=tracer.events,
        tree=tree,
        initial_image=artifacts.initial_image,
        candidates=observer.candidates_seen,
        threads=sched.threads,
    )
    return run, artifacts


def detect_schedules(
    app_factory: Callable[[], Any],
    workload: Sequence,
    sched: SchedConfig,
    seed: int = 0,
    granularity: str = GRANULARITY_PERSISTENCY,
    require_store_since_last: bool = True,
    step_limit: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Tuple[List[ScheduleRun], ScheduleArtifacts]:
    """Run the detection phase once per schedule sample.

    Returns the per-sample runs plus sample 0's execution artifacts (the
    pipeline reads pool metadata and the app name from them, exactly as
    it does from the single-threaded detection run).  Samples whose
    initial image equals sample 0's share its object, so hundreds of
    samples hold one copy.
    """
    runs: List[ScheduleRun] = []
    first: Optional[ScheduleArtifacts] = None
    for sample in range(sched.samples):
        run, artifacts = _detect_one(
            app_factory,
            workload,
            sched,
            sample,
            seed,
            granularity,
            require_store_since_last,
            step_limit,
            deadline,
        )
        if runs and run.initial_image == runs[0].initial_image:
            run.initial_image = runs[0].initial_image
        runs.append(run)
        if first is None:
            first = artifacts
    assert first is not None
    return runs, first
