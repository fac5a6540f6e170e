"""Recovery execution engine.

Everything between "crash image materialised" and "RecoveryOutcome
recorded" lives here.  Three cooperating pieces:

* :mod:`repro.recovery.digest` — a content-addressed image digester.
  The digest binds the canonical persisted bytes (bounded to the
  campaign's persisted-write extent), the post-crash poison set, the
  fault-model *family* of the variant, and a recovery scope (target +
  oracle budget config), so a torn-campaign verdict can never alias a
  prefix one, and a verdict computed under one step budget can never be
  replayed under another.

* :mod:`repro.recovery.cache` — a verdict memo cache keyed by those
  digests.  Identical crash images are verified once; every other
  failure point that collapses onto the same digest — within one run or
  across schedule samples — replays the cached
  :class:`~repro.core.oracle.RecoveryOutcome`.  The cache persists to a
  JSONL file alongside the campaign checkpoint (scope-fingerprinted,
  like checkpoint resume), so ``--resume`` skips re-verification.

* :mod:`repro.recovery.pool` — a machine-template pool.  Recovery runs
  are served by cheap full-state reset + image adoption of a pooled
  :class:`~repro.pmem.machine.PMachine` instead of constructing a fresh
  machine per run.

:mod:`repro.recovery.engine` composes the pieces behind a single
:class:`RecoveryEngine` facade that the harness consumes.  The engine
is observation-equivalent by contract: findings, checkpoint journals,
and rendered reports are byte-identical with the engine on vs. off
(``tests/recovery/`` is the differential battery).
"""

from repro.recovery.cache import VerdictCache, VerdictCacheError
from repro.recovery.digest import (
    ImageDigester,
    persisted_write_extent,
    recovery_scope,
)
from repro.recovery.engine import (
    RecoveryEngine,
    RecoveryEngineConfig,
    RecoveryEngineStats,
)
from repro.recovery.pool import MachineTemplatePool

__all__ = [
    "ImageDigester",
    "MachineTemplatePool",
    "RecoveryEngine",
    "RecoveryEngineConfig",
    "RecoveryEngineStats",
    "VerdictCache",
    "VerdictCacheError",
    "persisted_write_extent",
    "recovery_scope",
]
