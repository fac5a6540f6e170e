"""Fleet wire-format robustness: manifests, delivery folding, and the
truncate-at-any-byte property (satellite of the transport tentpole).

A payload cut at *any* byte in flight must either fold its clean prefix
or be refused whole — corruption of supervisor state is never an
option.  Hypothesis drives the truncation point."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.harness import (
    JOURNAL_VERSION,
    campaign_fingerprint,
    scan_journal,
)
from repro.errors import FleetError
from repro.fabric.chaos import TransportChaosConfig
from repro.fabric.fleet import (
    FleetConfig,
    build_manifest,
    fold_journal_bytes,
    parse_manifest,
)
from repro.recovery.cache import VerdictCache

PAYLOAD = {"target": "btree", "seed": 0, "ops": 80}
FINGERPRINT = campaign_fingerprint(PAYLOAD)


def _line(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


def _journal(indices, fingerprint=FINGERPRINT) -> bytes:
    out = _line({
        "type": "header", "version": JOURNAL_VERSION,
        "fingerprint": fingerprint, "seed": 0,
    })
    for i in indices:
        out += _line({"type": "injection", "i": i, "status": "OK",
                      "detail": "x" * 20})
    return out


class TestFoldJournalBytes:
    def test_clean_payload_folds_every_record(self):
        records = {}
        folded, dups, torn = fold_journal_bytes(
            _journal([0, 4, 8]), FINGERPRINT, records
        )
        assert (folded, dups, torn) == (3, 0, False)
        assert set(records) == {0, 4, 8}

    def test_duplicates_are_counted_first_writer_wins(self):
        records = {}
        fold_journal_bytes(_journal([0, 4]), FINGERPRINT, records)
        before = dict(records)
        folded, dups, torn = fold_journal_bytes(
            _journal([0, 4, 8]), FINGERPRINT, records
        )
        assert (folded, dups) == (1, 2)
        assert all(records[i] is before[i] for i in before)

    def test_foreign_fingerprint_is_refused_whole(self):
        records = {}
        warned = []
        folded, dups, torn = fold_journal_bytes(
            _journal([0], fingerprint="someone-else"),
            FINGERPRINT, records, warn=warned.append,
        )
        assert (folded, dups, torn) == (0, 0, False)
        assert records == {}
        assert "refused" in warned[0]

    def test_headerless_payload_is_refused_whole(self):
        records = {}
        warned = []
        data = _line({"type": "injection", "i": 0})
        folded, dups, torn = fold_journal_bytes(
            data, FINGERPRINT, records, warn=warned.append,
        )
        assert (folded, dups, torn) == (0, 0, True)
        assert records == {}

    def test_empty_payload_is_torn_not_folded(self):
        assert fold_journal_bytes(b"", FINGERPRINT, {}) == (0, 0, True)

    @given(cut=st.integers(min_value=0, max_value=len(_journal(range(8)))))
    @settings(max_examples=200, deadline=None)
    def test_truncation_at_any_byte_folds_a_clean_prefix(self, cut):
        full = _journal(range(8))
        reference = {}
        fold_journal_bytes(full, FINGERPRINT, reference)
        records = {}
        folded, dups, torn = fold_journal_bytes(
            full[:cut], FINGERPRINT, records
        )
        # Whatever survived is a *prefix* of the true records — never a
        # mangled record, never an out-of-order subset.
        assert dups == 0
        assert set(records) == set(range(folded))
        for i, record in records.items():
            assert record == reference[i]
        if folded == 8:
            # Everything folded: at most the final newline was cut.
            assert cut >= len(full) - 1
        # The strict file reader sees exactly the records the fold took.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cut.jsonl")
            with open(path, "wb") as fh:
                fh.write(full[:cut])
            _, scanned, _, _ = scan_journal(path)
        assert {record["i"]: record for record in scanned} == records

    @given(
        cut=st.integers(min_value=0, max_value=120),
        junk=st.binary(max_size=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_truncation_plus_trailing_junk_never_corrupts(self, cut, junk):
        full = _journal(range(3))
        records = {}
        fold_journal_bytes(full[:cut] + junk, FINGERPRINT, records)
        reference = {}
        fold_journal_bytes(full, FINGERPRINT, reference)
        for i, record in records.items():
            assert record == reference[i]


def _manifest_bytes() -> bytes:
    manifest = build_manifest(
        FINGERPRINT, PAYLOAD, seed=0,
        config=FleetConfig(root="/tmp/x", slices=4),
        spec={"target": "btree"},
    )
    return json.dumps(manifest, sort_keys=True).encode()


class TestParseManifest:
    def test_round_trip(self):
        manifest = parse_manifest(_manifest_bytes())
        assert manifest["fingerprint"] == FINGERPRINT
        assert manifest["slices"] == 4
        assert manifest["transport_chaos"] is None

    def test_chaos_spec_rides_the_manifest(self):
        config = FleetConfig(
            root="/tmp/x",
            chaos=TransportChaosConfig.parse("drop=0.3,seed=2"),
        )
        manifest = build_manifest(
            FINGERPRINT, PAYLOAD, 0, config, {"target": "btree"}
        )
        parsed = TransportChaosConfig.parse(manifest["transport_chaos"])
        assert parsed.drop == 0.3 and parsed.seed == 2

    def test_tampered_fingerprint_is_refused(self):
        manifest = json.loads(_manifest_bytes())
        manifest["fingerprint_payload"]["ops"] = 9999  # tamper
        with pytest.raises(FleetError, match="fingerprint mismatch"):
            parse_manifest(json.dumps(manifest).encode())

    def test_wrong_version_is_refused(self):
        manifest = json.loads(_manifest_bytes())
        manifest["version"] = 99
        with pytest.raises(FleetError, match="version"):
            parse_manifest(json.dumps(manifest).encode())

    @given(cut=st.integers(min_value=0, max_value=len(_manifest_bytes())))
    @settings(max_examples=150, deadline=None)
    def test_truncation_at_any_byte_parses_or_refuses(self, cut):
        data = _manifest_bytes()[:cut]
        try:
            manifest = parse_manifest(data)
        except FleetError:
            return  # refusal is the correct torn-manifest outcome
        # The only parse that may succeed is the complete, verified one.
        assert manifest["fingerprint"] == FINGERPRINT
        assert campaign_fingerprint(
            manifest["fingerprint_payload"]
        ) == FINGERPRINT


def _cache_bytes(scope="scope-a", n=6) -> bytes:
    out = _line({
        "type": "mumak-verdict-cache", "version": 1, "scope": scope,
    })
    for i in range(n):
        out += _line({
            "d": f"digest-{i}",
            "o": {"status": "OK", "error": None, "trace": None},
        })
    return out


class TestAdoptBytes:
    def test_clean_payload_adopts_everything(self):
        cache = VerdictCache("scope-a")
        assert cache.adopt(_cache_bytes()) == 6
        assert len(cache) == 6

    def test_foreign_scope_adopts_nothing(self):
        cache = VerdictCache("scope-b")
        assert cache.adopt(_cache_bytes(scope="scope-a")) == 0
        assert len(cache) == 0

    @given(cut=st.integers(min_value=0, max_value=len(_cache_bytes())))
    @settings(max_examples=150, deadline=None)
    def test_truncation_at_any_byte_adopts_a_clean_prefix(self, cut):
        cache = VerdictCache("scope-a")
        adopted = cache.adopt(_cache_bytes()[:cut])
        # Adopted digests are exactly the first `adopted` ones, with
        # intact outcome records — a half-written record never lands.
        assert set(cache.records()) == {
            f"digest-{i}" for i in range(adopted)
        }
        for record in cache.records().values():
            assert record == {"status": "OK", "error": None, "trace": None}
        # Loading the same bytes as a cache file gives the same verdicts.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "cut.vcache")
            with open(path, "wb") as fh:
                fh.write(_cache_bytes()[:cut])
            with VerdictCache("scope-a", path=path) as loaded:
                assert loaded.records() == cache.records()
