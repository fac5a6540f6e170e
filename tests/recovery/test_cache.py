"""Verdict-cache unit tests: memoisation policy and persistence format."""

import json

import pytest

from repro.core.oracle import RecoveryOutcome, RecoveryStatus
from repro.recovery.cache import (
    VerdictCache,
    VerdictCacheError,
    outcome_from_record,
    outcome_to_record,
)

SCOPE = "cafebabe00000000"


def outcome(status=RecoveryStatus.OK, error=None, trace=None,
            stack=("f", "g")):
    return RecoveryOutcome(
        status=status, error=error, trace=trace, stack_key=stack
    )


# --------------------------------------------------------------------- #
# memoisation policy
# --------------------------------------------------------------------- #


def test_lookup_miss_then_hit():
    cache = VerdictCache(SCOPE)
    assert cache.lookup("d1") is None
    assert cache.store("d1", outcome()) is True
    record = cache.lookup("d1")
    assert record == {"status": "OK", "error": None, "trace": None}
    assert len(cache) == 1


def test_store_is_first_writer_wins():
    cache = VerdictCache(SCOPE)
    assert cache.store("d1", outcome()) is True
    assert cache.store(
        "d1", outcome(RecoveryStatus.CRASHED, error="late")
    ) is False
    assert cache.lookup("d1")["status"] == "OK"


def test_infra_errors_are_never_cached():
    """Harness trouble is retryable; it says nothing about the image."""
    cache = VerdictCache(SCOPE)
    assert cache.store(
        "d1", outcome(RecoveryStatus.INFRA_ERROR, error="oom")
    ) is False
    assert cache.lookup("d1") is None
    assert len(cache) == 0


@pytest.mark.parametrize("status", [
    RecoveryStatus.OK,
    RecoveryStatus.REPORTED_UNRECOVERABLE,
    RecoveryStatus.CRASHED,
    RecoveryStatus.HUNG,
    RecoveryStatus.RESOURCE_EXHAUSTED,
    RecoveryStatus.MEDIA_ERROR,
])
def test_deterministic_statuses_are_cacheable(status):
    """Hangs/exhaustion included: the watchdog budgets live in the
    digest scope, so a hang is a property of the image."""
    cache = VerdictCache(SCOPE)
    assert cache.store("d", outcome(status, error="e")) is True


def test_round_trip_rebinds_the_stack_key():
    """The cached verdict is task-agnostic; replay rebinds the stack."""
    record = outcome_to_record(
        outcome(RecoveryStatus.CRASHED, error="boom", trace="tb")
    )
    replayed = outcome_from_record(record, stack_key=("other", "stack"))
    assert replayed.status is RecoveryStatus.CRASHED
    assert replayed.error == "boom"
    assert replayed.trace == "tb"
    assert replayed.stack_key == ("other", "stack")


# --------------------------------------------------------------------- #
# persistence
# --------------------------------------------------------------------- #


def test_persist_and_reload(tmp_path):
    path = str(tmp_path / "verdicts.vcache")
    with VerdictCache(SCOPE, path=path) as cache:
        cache.store("d1", outcome())
        cache.store("d2", outcome(RecoveryStatus.HUNG, error="hung"))
        assert cache.bytes_written > 0
    reloaded = VerdictCache(SCOPE, path=path)
    assert reloaded.loaded == 2
    assert reloaded.lookup("d2")["status"] == "HUNG"
    # Reloaded entries are not re-persisted; appends keep working.
    assert reloaded.store("d3", outcome()) is True
    reloaded.close()
    assert VerdictCache(SCOPE, path=path).loaded == 3


def test_scope_mismatch_is_refused(tmp_path):
    path = str(tmp_path / "verdicts.vcache")
    with VerdictCache(SCOPE, path=path) as cache:
        cache.store("d1", outcome())
    with pytest.raises(VerdictCacheError) as excinfo:
        VerdictCache("deadbeef00000000", path=path)
    assert "scope" in str(excinfo.value)


def test_foreign_header_is_refused(tmp_path):
    path = tmp_path / "not-a-cache.jsonl"
    path.write_text('{"type":"something-else","version":1}\n')
    with pytest.raises(VerdictCacheError):
        VerdictCache(SCOPE, path=str(path))


def test_future_version_is_refused(tmp_path):
    path = tmp_path / "verdicts.vcache"
    path.write_text(json.dumps({
        "type": "mumak-verdict-cache", "version": 999, "scope": SCOPE,
    }) + "\n")
    with pytest.raises(VerdictCacheError):
        VerdictCache(SCOPE, path=str(path))


def test_torn_trailing_line_is_dropped(tmp_path):
    """A crash mid-append loses at most the final record."""
    path = str(tmp_path / "verdicts.vcache")
    with VerdictCache(SCOPE, path=path) as cache:
        cache.store("d1", outcome())
        cache.store("d2", outcome())
    with open(path, "a", encoding="utf-8") as stream:
        stream.write('{"d":"d3","o":{"status":"OK"')  # torn write
    reloaded = VerdictCache(SCOPE, path=path)
    assert reloaded.loaded == 2
    assert reloaded.lookup("d3") is None
    # The next append lands after the clean prefix, not on the fragment.
    reloaded.store("d3", outcome())
    reloaded.close()
    again = VerdictCache(SCOPE, path=path)
    assert again.loaded == 3
    assert sorted(again.records()) == ["d1", "d2", "d3"]


def test_mid_file_corruption_raises(tmp_path):
    path = str(tmp_path / "verdicts.vcache")
    with VerdictCache(SCOPE, path=path) as cache:
        cache.store("d1", outcome())
    with open(path, "a", encoding="utf-8") as stream:
        stream.write("{corrupt\n")
        stream.write(json.dumps(
            {"d": "d2", "o": outcome_to_record(outcome())}
        ) + "\n")
    with pytest.raises(VerdictCacheError):
        VerdictCache(SCOPE, path=path)


def test_empty_file_is_rewritten_cleanly(tmp_path):
    path = tmp_path / "verdicts.vcache"
    path.write_text("")
    cache = VerdictCache(SCOPE, path=str(path))
    cache.store("d1", outcome())
    cache.close()
    assert VerdictCache(SCOPE, path=str(path)).loaded == 1


def test_in_memory_cache_never_touches_disk(tmp_path):
    cache = VerdictCache(SCOPE)  # no path
    cache.store("d1", outcome())
    cache.close()
    assert cache.bytes_written == 0
    assert list(tmp_path.iterdir()) == []
