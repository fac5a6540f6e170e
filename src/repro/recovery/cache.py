"""The verdict memo cache: digest → recovery outcome.

Identical crash images are verified once.  The cache is thread-safe and
optionally persists to a JSONL file next to the campaign checkpoint so
``--resume`` skips re-verification entirely.

Persistence follows the checkpoint-journal discipline from PR 1:

* line 1 is a header binding the format version and the recovery
  *scope* (see :func:`repro.recovery.digest.recovery_scope`); loading a
  cache written under a different scope raises
  :class:`VerdictCacheError` instead of silently replaying verdicts
  recorded under different oracle budgets;
* each further line is one ``{"d": digest, "o": outcome}`` record, in
  the canonical line of :mod:`repro.jsonlog`;
* a torn trailing line (crash mid-write) is dropped on load and
  truncated before the next append, as in the checkpoint journal;
  corruption anywhere else raises.

What is cached: every deterministic outcome — ``OK``, bugs,
``HUNG``/``RESOURCE_EXHAUSTED`` (the watchdog budgets are part of the
digest scope, so a hang is a property of the image, not the run), and
``MEDIA_ERROR``.  What is **never** cached: ``INFRA_ERROR`` — harness
trouble is retryable and says nothing about the image.
"""

import os
import threading

from repro import jsonlog

CACHE_VERSION = 1
_HEADER_TYPE = "mumak-verdict-cache"
#: The cache header keys that identify a cache this campaign may adopt.
_IDENTITY = ("type", "version", "scope")


class VerdictCacheError(RuntimeError):
    """A persisted verdict cache cannot be adopted (scope/version)."""


def outcome_to_record(outcome) -> dict:
    """Serialise a :class:`~repro.core.oracle.RecoveryOutcome` (minus its
    per-task ``stack_key``, which is rebound at replay time)."""
    return {
        "status": outcome.status.name,
        "error": outcome.error,
        "trace": outcome.trace,
    }


def outcome_from_record(record: dict, stack_key=None):
    """Rehydrate a cached verdict as a ``RecoveryOutcome`` bound to the
    replaying task's ``stack_key``."""
    # Imported lazily: repro.core.harness imports this package, so a
    # top-level repro.core import here would be circular.
    from repro.core.oracle import RecoveryOutcome, RecoveryStatus

    return RecoveryOutcome(
        status=RecoveryStatus[record["status"]],
        error=record["error"],
        trace=record["trace"],
        stack_key=stack_key,
    )


class VerdictCache:
    """Thread-safe digest → outcome-record map with JSONL persistence."""

    def __init__(self, scope: str, path=None):
        self.scope = scope
        self.path = path
        self.loaded = 0
        self.bytes_written = 0
        self._lock = threading.Lock()
        self._verdicts = {}
        self._stream = None
        if path is None:
            return
        try:
            self._stream, records, self.bytes_written = jsonlog.append(
                path, self._header(), _IDENTITY
            )
        except jsonlog.CorruptLog as err:
            raise VerdictCacheError(
                f"{path}:{err.line}: corrupt verdict record"
            )
        except jsonlog.ForeignLog as err:
            raise VerdictCacheError(
                f"{path}: verdict cache {err} — delete the cache file or "
                "point --recovery-cache at a fresh path"
            )
        self._stream.flush()
        self._adopt(records)

    def _header(self) -> dict:
        return {
            "type": _HEADER_TYPE,
            "version": CACHE_VERSION,
            "scope": self.scope,
        }

    def _adopt(self, records) -> int:
        """Memoise every verdict of ``records`` not known yet (first
        writer wins), in memory only; returns how many."""
        adopted = 0
        with self._lock:
            for record in records:
                digest, outcome = record.get("d"), record.get("o")
                if digest is None or outcome is None:
                    continue
                if digest not in self._verdicts:
                    self._verdicts[digest] = outcome
                    adopted += 1
            self.loaded += adopted
        return adopted

    # -- the memo ----------------------------------------------------

    def lookup(self, digest: str):
        """The cached outcome record for ``digest``, or ``None``."""
        with self._lock:
            return self._verdicts.get(digest)

    def store(self, digest: str, outcome) -> bool:
        """Memoise a ``RecoveryOutcome`` under ``digest``.

        Infrastructure errors are refused — they are retryable harness
        trouble, not a property of the image.  Returns whether the
        verdict was newly recorded.
        """
        return self.store_record(digest, outcome_to_record(outcome))

    def store_record(self, digest: str, record: dict) -> bool:
        """Memoise an already-serialised verdict record (cache merges).

        Same refusal rules as :meth:`store`: infrastructure errors and
        already-known digests are skipped.  Returns whether the verdict
        was newly recorded.
        """
        if record.get("status") == "INFRA_ERROR":
            return False
        with self._lock:
            if digest in self._verdicts:
                return False
            self._verdicts[digest] = record
            if self._stream is not None:
                line = jsonlog.dumps({"d": digest, "o": record})
                self._stream.write(line)
                self._stream.flush()
                self.bytes_written += len(line)
        return True

    def records(self) -> dict:
        """A snapshot of every ``digest -> record`` pair (for merges)."""
        with self._lock:
            return dict(self._verdicts)

    def adopt(self, data: bytes) -> int:
        """Pre-load verdicts from another cache's bytes, in memory only.

        Shard workers and fleet slices adopt the campaign-wide cache and
        every shipped one this way; adopted verdicts are *not* re-written
        to this cache's own stream (the supervisor's merge deduplicates
        by digest anyway).  Lenient: a payload torn at any byte, by a
        kill or in flight, adopts its clean prefix, and one whose header
        is torn or carries a foreign scope adopts nothing (verdicts
        recorded under different oracle budgets must not replay here).
        Returns the number of newly adopted verdicts.
        """
        header, records, _, _ = jsonlog.parse(data, strict=False)
        if header is None or jsonlog.mismatch(
            header, self._header(), _IDENTITY
        ):
            return 0
        return self._adopt(records)

    def __len__(self):
        with self._lock:
            return len(self._verdicts)

    def close(self):
        with self._lock:
            if self._stream is not None:
                self._stream.flush()
                os.fsync(self._stream.fileno())
                self._stream.close()
                self._stream = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
