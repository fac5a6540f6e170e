"""Fleet transport contract: atomic put/get/list/create, seeded chaos,
and the bounded retry wrapper."""

import os
import threading

import pytest

from repro.errors import TransportError, TransportMissing
from repro.fabric.chaos import TransportChaosConfig
from repro.fabric.transport import (
    ChaosTransport,
    DirTransport,
    Transport,
    reliable,
    validate_name,
)


class TestValidateName:
    @pytest.mark.parametrize("name", [
        "journal/0.t1", "campaign/manifest", "hb/w1", "a/b/c",
    ])
    def test_accepts_relative_slash_names(self, name):
        assert validate_name(name) == name

    @pytest.mark.parametrize("name", [
        "", "/abs", "trailing/", "a//b", "../escape", "a/../b",
        "a/./b", ".tmp-123", "journal/.tmp-x",
    ])
    def test_rejects_escapes_and_reserved(self, name):
        with pytest.raises(TransportError):
            validate_name(name)


class TestDirTransport:
    def test_put_get_round_trip(self, tmp_path):
        t = DirTransport(str(tmp_path))
        t.put("journal/0.t1", b"hello")
        assert t.get("journal/0.t1") == b"hello"

    def test_get_missing_raises_missing_not_error(self, tmp_path):
        t = DirTransport(str(tmp_path))
        with pytest.raises(TransportMissing):
            t.get("journal/absent")

    def test_put_overwrites_atomically(self, tmp_path):
        t = DirTransport(str(tmp_path))
        t.put("a/b", b"one")
        t.put("a/b", b"two")
        assert t.get("a/b") == b"two"

    def test_list_is_sorted_and_prefix_filtered(self, tmp_path):
        t = DirTransport(str(tmp_path))
        for name in ("journal/2.t1", "journal/0.t1", "vcache/0.t1"):
            t.put(name, b"x")
        assert t.list("journal/") == ["journal/0.t1", "journal/2.t1"]
        assert t.list() == ["journal/0.t1", "journal/2.t1", "vcache/0.t1"]

    def test_list_never_shows_tmp_spool(self, tmp_path):
        t = DirTransport(str(tmp_path))
        t.put("a/b", b"x")
        assert all(".tmp" not in name for name in t.list())

    def test_create_is_first_writer_wins(self, tmp_path):
        t = DirTransport(str(tmp_path))
        assert t.create("lease/0.t1", b"alice") is True
        assert t.create("lease/0.t1", b"bob") is False
        assert t.get("lease/0.t1") == b"alice"

    def test_create_race_has_exactly_one_winner(self, tmp_path):
        t = DirTransport(str(tmp_path))
        wins = []
        barrier = threading.Barrier(8)

        def contend(i):
            barrier.wait()
            if t.create("lease/3.t1", b"%d" % i):
                wins.append(i)

        threads = [
            threading.Thread(target=contend, args=(i,)) for i in range(8)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        assert len(wins) == 1
        assert t.get("lease/3.t1") == b"%d" % wins[0]

    def test_two_views_of_one_root_agree(self, tmp_path):
        a = DirTransport(str(tmp_path))
        b = DirTransport(str(tmp_path))
        a.put("journal/0.t1", b"from-a")
        assert b.get("journal/0.t1") == b"from-a"
        assert b.list("journal/") == ["journal/0.t1"]


class TestChaosTransport:
    def _chaos(self, tmp_path, spec, key="w"):
        inner = DirTransport(str(tmp_path))
        return ChaosTransport(
            inner, TransportChaosConfig.parse(spec), key=key
        ), inner

    def test_drop_loses_the_upload_silently(self, tmp_path):
        chaos, inner = self._chaos(tmp_path, "drop=1.0,seed=1")
        chaos.put("journal/0.t1", b"data")
        assert chaos.dropped == 1
        assert inner.list("journal/") == []

    def test_dup_publishes_a_second_object(self, tmp_path):
        chaos, inner = self._chaos(tmp_path, "dup=1.0,seed=1")
        chaos.put("journal/0.t1", b"data")
        assert chaos.duplicated == 1
        assert inner.list("journal/") == [
            "journal/0.t1", "journal/0.t1.dup",
        ]
        assert inner.get("journal/0.t1.dup") == b"data"

    def test_torn_truncates_to_a_strict_prefix(self, tmp_path):
        chaos, inner = self._chaos(tmp_path, "torn=1.0,seed=1")
        payload = b"0123456789" * 20
        chaos.put("journal/0.t1", payload)
        assert chaos.torn == 1
        delivered = inner.get("journal/0.t1")
        assert 1 <= len(delivered) < len(payload)
        assert payload.startswith(delivered)

    def test_control_plane_is_never_perturbed(self, tmp_path):
        chaos, inner = self._chaos(
            tmp_path, "drop=1.0,dup=1.0,torn=1.0,seed=1"
        )
        chaos.put("campaign/manifest", b"manifest")
        chaos.put("lease/0.t1", b"claim")
        assert inner.get("campaign/manifest") == b"manifest"
        assert inner.get("lease/0.t1") == b"claim"
        assert chaos.dropped == chaos.duplicated == chaos.torn == 0

    def test_heartbeats_are_delayed_not_dropped(self, tmp_path):
        chaos, inner = self._chaos(
            tmp_path, "drop=1.0,delay=50,seed=1"
        )
        naps = []
        chaos._sleep = naps.append
        chaos.put("hb/w1", b"beat")
        assert naps == [0.05]
        assert chaos.delayed == 1
        assert inner.get("hb/w1") == b"beat"

    def test_same_seed_same_fault_schedule(self, tmp_path):
        def schedule(sub, key):
            chaos, _ = self._chaos(
                tmp_path / sub, "drop=0.4,dup=0.4,torn=0.3,seed=9",
                key=key,
            )
            for i in range(40):
                chaos.put(f"journal/{i}.t1", b"payload-%d" % i)
            return (chaos.dropped, chaos.duplicated, chaos.torn)

        first = schedule("a", "w1")
        assert schedule("b", "w1") == first
        assert schedule("c", "w2") != first  # per-worker key reseeds


class _Flaky(Transport):
    """get() fails N times, then succeeds; counts calls."""

    def __init__(self, failures, exc=TransportError):
        self.failures = failures
        self.exc = exc
        self.calls = 0

    def get(self, name):
        self.calls += 1
        if self.calls <= self.failures:
            raise self.exc("flaky")
        return b"ok"


class TestReliable:
    def test_retries_transport_error_until_success(self):
        flaky = _Flaky(failures=2)
        retried = []
        out = reliable(flaky.get, "x", retries=4, on_retry=retried.append)
        assert out == b"ok"
        assert retried == [1, 2]

    def test_exhausted_budget_reraises(self):
        flaky = _Flaky(failures=10)
        with pytest.raises(TransportError):
            reliable(flaky.get, "x", retries=3)
        assert flaky.calls == 4  # initial try + 3 retries

    def test_missing_is_an_answer_not_a_failure(self):
        flaky = _Flaky(failures=10, exc=TransportMissing)
        with pytest.raises(TransportMissing):
            reliable(flaky.get, "x", retries=3)
        assert flaky.calls == 1  # absence is never retried
