"""Crash-consistent merging of shard artifacts into campaign artifacts.

Each shard worker journals its slice of the campaign to
``<checkpoint>.shardK`` (and caches verdicts in
``<checkpoint>.shardK.vcache``).  When every shard has finished — or the
campaign drained on a signal — the supervisor folds the per-shard
artifacts back into the *one* campaign checkpoint and verdict cache a
serial run would have written:

* :func:`merge_journals` unions the already-known records (resume state)
  with every shard journal, sorts by injection index, and rewrites the
  campaign journal **atomically** (temp file + fsync + ``os.replace``) —
  a crash mid-merge leaves either the old journal or the new one, never
  a half-merged hybrid.  The merged bytes are identical to the journal a
  serial campaign writes: same header dump, same record dump, same
  ascending-index order (serial completion order *is* index order).
* :func:`merge_vcaches` folds shard verdict caches into the campaign
  cache through :meth:`~repro.recovery.cache.VerdictCache.store_record`,
  which deduplicates by digest and keeps refusing ``INFRA_ERROR``.

Because the shard journals stay on disk until the merged journal has
been atomically replaced, a crash *between* shard completion and merge
loses nothing: the next run finds the stray ``.shardK`` files, folds
their records into its resume state (:func:`collect_shard_records`), and
cleans them up after its own merge.
"""

from __future__ import annotations

import dataclasses
import json
import os
import re
from typing import Dict, Iterable, List, Optional, Set

from repro.core.harness import (
    JOURNAL_VERSION,
    read_journal,
    result_from_record,
)
from repro.errors import CheckpointError
from repro.recovery.cache import VerdictCache, VerdictCacheError

#: Shard journal name: ``<checkpoint>.shard<id>`` (its verdict cache
#: rides at ``<checkpoint>.shard<id>.vcache``).
_SHARD_RE = re.compile(r"\.shard\d+$")


def shard_journal_path(checkpoint_path: str, shard_id: int) -> str:
    return f"{checkpoint_path}.shard{shard_id}"


def find_shard_journals(checkpoint_path: str) -> List[str]:
    """Every on-disk shard journal of ``checkpoint_path``, sorted.

    Matches ``<checkpoint>.shard<digits>`` exactly — the ``.vcache``
    companions are not journals.  Includes strays left by a previous
    run that crashed between shard completion and merge.
    """
    directory = os.path.dirname(checkpoint_path) or "."
    base = os.path.basename(checkpoint_path)
    if not os.path.isdir(directory):
        return []
    found = []
    for name in os.listdir(directory):
        if not name.startswith(base):
            continue
        if _SHARD_RE.search(name[len(base):]) and name[len(base):].startswith(
            ".shard"
        ):
            found.append(os.path.join(directory, name))
    return sorted(found)


def _shard_records(
    path: str, fingerprint: str, records: Dict[int, dict], warn=None
) -> int:
    """Fold one shard journal's injection records into ``records``.

    First writer wins on duplicate indices — duplicates only arise when
    the same injection was (deterministically) re-executed, so the
    records are identical anyway.  A fingerprint mismatch is fatal: the
    shard file belongs to a different campaign configuration and must
    not be silently folded in.
    """
    header, shard_records = read_journal(path, warn=warn)
    if header is None:
        return 0
    if header.get("fingerprint") != fingerprint:
        raise CheckpointError(
            f"shard journal {path!r} belongs to campaign "
            f"{header.get('fingerprint')!r}, not {fingerprint!r}; "
            "delete the stale .shard* files or point --checkpoint at "
            "a fresh path"
        )
    folded = 0
    for record in shard_records:
        if record.get("type") != "injection":
            continue
        if records.setdefault(record["i"], record) is record:
            folded += 1
    return folded


def collect_shard_records(
    checkpoint_path: str, fingerprint: str, warn=None
) -> Dict[int, dict]:
    """Records recoverable from stray shard journals (crash recovery)."""
    records: Dict[int, dict] = {}
    for path in find_shard_journals(checkpoint_path):
        _shard_records(path, fingerprint, records, warn=warn)
    return records


def merge_journals(
    checkpoint_path: str,
    fingerprint: str,
    seed: int,
    base_records: Optional[Dict[int, dict]] = None,
    shard_paths: Optional[Iterable[str]] = None,
    warn=None,
) -> Dict[int, dict]:
    """Atomically rewrite the campaign journal from shard journals.

    ``base_records`` are the records already known before this run's
    shards executed (the resume state); ``shard_paths`` defaults to
    every on-disk shard journal of ``checkpoint_path``.  Returns the
    merged index → record map.
    """
    records: Dict[int, dict] = dict(base_records or {})
    if shard_paths is None:
        shard_paths = find_shard_journals(checkpoint_path)
    for path in shard_paths:
        if os.path.exists(path):
            _shard_records(path, fingerprint, records, warn=warn)

    # Byte-identical to CampaignJournal's own serialisation: one dump
    # shape for the header and every record, ascending injection index
    # (= serial completion order).
    def dump(payload: dict) -> str:
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    tmp_path = checkpoint_path + ".merge.tmp"
    with open(tmp_path, "w", encoding="utf-8") as tmp:
        tmp.write(
            dump(
                {
                    "type": "header",
                    "version": JOURNAL_VERSION,
                    "fingerprint": fingerprint,
                    "seed": seed,
                }
            )
            + "\n"
        )
        for index in sorted(records):
            tmp.write(dump(records[index]) + "\n")
        tmp.flush()
        os.fsync(tmp.fileno())
    os.replace(tmp_path, checkpoint_path)
    _fsync_directory(os.path.dirname(checkpoint_path) or ".")
    return records


def merge_vcaches(
    target_path: str, scope: str, donor_paths: Iterable[str]
) -> int:
    """Fold shard verdict caches into the campaign cache at
    ``target_path`` (created if absent).  Deduplicates by digest; the
    scope check rides on :class:`VerdictCache` itself.  A missing donor,
    or one whose header a kill or the transport tore, is an accelerator
    lost, never an error.  Returns the number of newly persisted
    verdicts."""
    merged = 0
    with VerdictCache(scope, path=target_path) as cache:
        for path in donor_paths:
            if not os.path.exists(path):
                continue
            try:
                donor = VerdictCache(scope, path=path)
            except VerdictCacheError:
                continue
            with donor:
                for digest, record in sorted(donor.records().items()):
                    if cache.store_record(digest, record):
                        merged += 1
    return merged


def results_from_records(
    records: Dict[int, dict], restored_indices: Set[int] = frozenset()
):
    """Rehydrate merged journal records as campaign results.

    Records the *previous* run completed (``restored_indices``) keep
    ``restored=True`` — exactly what ``run_campaign`` reports for
    resume-state short-circuits; records this run's shards executed are
    fresh work, so their ``restored`` flag is cleared.
    """
    results = []
    for index in sorted(records):
        result = result_from_record(records[index])
        if index not in restored_indices:
            result = dataclasses.replace(result, restored=False)
        results.append(result)
    return results


def cleanup_shard_artifacts(checkpoint_path: str) -> int:
    """Delete every shard journal and shard verdict cache.  Called only
    after both merges have landed; returns the number of files removed."""
    removed = 0
    for path in find_shard_journals(checkpoint_path):
        for victim in (path, path + ".vcache"):
            try:
                os.remove(victim)
                removed += 1
            except FileNotFoundError:
                pass
    return removed


def _fsync_directory(directory: str) -> None:
    """Make the ``os.replace`` durable (best-effort on exotic FS)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - unopenable directory
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync-less filesystems
        pass
    finally:
        os.close(fd)


__all__ = [
    "cleanup_shard_artifacts",
    "collect_shard_records",
    "find_shard_journals",
    "merge_journals",
    "merge_vcaches",
    "results_from_records",
    "shard_journal_path",
]
