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
* each further line is one ``{"d": digest, "o": outcome}`` record with
  sorted keys and canonical separators;
* a torn trailing line (crash mid-write) is tolerated and dropped;
  corruption anywhere else raises.

What is cached: every deterministic outcome — ``OK``, bugs,
``HUNG``/``RESOURCE_EXHAUSTED`` (the watchdog budgets are part of the
digest scope, so a hang is a property of the image, not the run), and
``MEDIA_ERROR``.  What is **never** cached: ``INFRA_ERROR`` — harness
trouble is retryable and says nothing about the image.
"""

import json
import os
import threading

CACHE_VERSION = 1
_HEADER_TYPE = "mumak-verdict-cache"


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
        if path is not None:
            self._open(path)

    # -- persistence -------------------------------------------------

    def _open(self, path):
        if os.path.exists(path):
            self._load(path)
        header_needed = not self._verdicts and self.loaded == 0
        if header_needed and os.path.exists(path):
            # Existing but header-only / empty file: rewrite cleanly.
            header_needed = os.path.getsize(path) == 0
        mode = "a" if os.path.exists(path) and not header_needed else "w"
        self._stream = open(path, mode, encoding="utf-8")
        if mode == "w":
            line = self._dump({
                "type": _HEADER_TYPE,
                "version": CACHE_VERSION,
                "scope": self.scope,
            })
            self._stream.write(line)
            self._stream.flush()
            self.bytes_written += len(line)

    def _load(self, path):
        with open(path, "r", encoding="utf-8") as stream:
            lines = stream.read().splitlines()
        if not lines:
            return
        header = self._parse(lines[0], what="header")
        if (
            header.get("type") != _HEADER_TYPE
            or header.get("version") != CACHE_VERSION
        ):
            raise VerdictCacheError(
                f"{path}: not a version-{CACHE_VERSION} verdict cache "
                f"(header: {lines[0][:80]!r})"
            )
        if header.get("scope") != self.scope:
            raise VerdictCacheError(
                f"{path}: verdict cache was recorded under scope "
                f"{header.get('scope')!r} but this campaign's recovery "
                f"scope is {self.scope!r}; the oracle config differs — "
                "delete the cache file or point --recovery-cache at a "
                "fresh path"
            )
        for position, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                if position == len(lines):
                    break  # torn trailing line: drop it
                raise VerdictCacheError(
                    f"{path}:{position}: corrupt verdict record"
                )
            self._verdicts[record["d"]] = record["o"]
            self.loaded += 1

    @staticmethod
    def _parse(line: str, what: str) -> dict:
        try:
            parsed = json.loads(line)
        except json.JSONDecodeError:
            raise VerdictCacheError(
                f"verdict cache {what} is not valid JSON: {line[:80]!r}"
            )
        if not isinstance(parsed, dict):
            raise VerdictCacheError(
                f"verdict cache {what} is not an object: {line[:80]!r}"
            )
        return parsed

    @staticmethod
    def _dump(payload: dict) -> str:
        return json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        ) + "\n"

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
        # Compared by name, not identity, to avoid importing
        # repro.core.oracle at module scope (circular import).
        if outcome.status.name == "INFRA_ERROR":
            return False
        record = outcome_to_record(outcome)
        with self._lock:
            if digest in self._verdicts:
                return False
            self._verdicts[digest] = record
            if self._stream is not None:
                line = self._dump({"d": digest, "o": record})
                self._stream.write(line)
                self._stream.flush()
                self.bytes_written += len(line)
        return True

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
                line = self._dump({"d": digest, "o": record})
                self._stream.write(line)
                self._stream.flush()
                self.bytes_written += len(line)
        return True

    def records(self) -> dict:
        """A snapshot of every ``digest -> record`` pair (for merges)."""
        with self._lock:
            return dict(self._verdicts)

    def adopt(self, path) -> int:
        """Pre-load verdicts from another cache file, in memory only.

        The donor file must carry this cache's scope (refused
        otherwise, exactly like :meth:`_load`); adopted verdicts are
        *not* re-written to this cache's own stream — shard workers
        adopt the campaign-wide cache cheaply, and the supervisor's
        merge deduplicates by digest anyway.  A missing donor is a
        no-op.  Returns the number of newly adopted verdicts.
        """
        if path is None or not os.path.exists(path):
            return 0
        donor = VerdictCache(self.scope)
        donor._load(path)
        adopted = 0
        with self._lock:
            for digest, record in donor._verdicts.items():
                if digest not in self._verdicts:
                    self._verdicts[digest] = record
                    adopted += 1
                    self.loaded += 1
        return adopted

    def adopt_bytes(self, data: bytes) -> int:
        """Pre-load verdicts from a cache *payload* delivered over a
        fleet transport, in memory only.

        Unlike :meth:`adopt`, this is deliberately lenient: a shipped
        cache may have been truncated at any byte in flight (torn
        upload), so the longest clean prefix is adopted and the rest is
        dropped — never raised.  A payload whose header is unreadable
        or carries a foreign scope adopts nothing (verdicts recorded
        under different oracle budgets must not replay here).  Returns
        the number of newly adopted verdicts.
        """
        try:
            lines = data.decode("utf-8").splitlines()
        except UnicodeDecodeError:
            lines = data.decode("utf-8", "replace").splitlines()
        if not lines:
            return 0
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            return 0
        if (
            not isinstance(header, dict)
            or header.get("type") != _HEADER_TYPE
            or header.get("version") != CACHE_VERSION
            or header.get("scope") != self.scope
        ):
            return 0
        adopted = 0
        with self._lock:
            for line in lines[1:]:
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                    digest, outcome = record["d"], record["o"]
                except (json.JSONDecodeError, KeyError, TypeError):
                    break  # clean prefix ends here (torn in flight)
                if digest not in self._verdicts:
                    self._verdicts[digest] = outcome
                    adopted += 1
                    self.loaded += 1
        return adopted

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
