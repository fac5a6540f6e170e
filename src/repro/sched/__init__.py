"""Concurrency-aware crash exploration: a seeded x86-TSO scheduler.

``repro.sched`` runs 2–4 application threads as coroutines over a shared
:class:`~repro.pmem.machine.PMachine`, each behind an x86-TSO per-thread
store buffer (:mod:`repro.pmem.tso`).  A seeded scheduler interleaves
thread steps with store-buffer drain choices, so a crash point becomes the
product (interleaving prefix × drain state × fault variant).

The package is deliberately excluded from captured backtraces (see
:mod:`repro.instrument.backtrace`): failure points are attributed to
application thread-body frames, annotated with a ``<sched:...>`` synthetic
frame that names the thread and the dynamic occurrence.
"""

from repro.sched.config import SchedConfig
from repro.sched.scheduler import ThreadCtx, TSOScheduler
from repro.sched.runner import ScheduleArtifacts, run_scheduled
from repro.sched.campaign import (
    ScheduleRun,
    detect_schedules,
    derive_schedule_seed,
)

__all__ = [
    "SchedConfig",
    "ThreadCtx",
    "TSOScheduler",
    "ScheduleArtifacts",
    "run_scheduled",
    "ScheduleRun",
    "detect_schedules",
    "derive_schedule_seed",
]
