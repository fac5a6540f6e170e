"""Lease protocol: TTL claims, fencing tokens, reclaim at the next token."""

import json

import pytest

from repro.fabric.lease import Lease, LeaseQueue, parse_claim_name
from repro.fabric.transport import DirTransport


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def _queue(tmp_path, holder="w1", clock=None, ttl=10.0, slices=2):
    return LeaseQueue(
        DirTransport(str(tmp_path)),
        slices=slices,
        ttl_seconds=ttl,
        holder=holder,
        clock=clock or FakeClock(),
    )


def test_parse_claim_name():
    assert parse_claim_name("lease/3.t7") == (3, 7)
    assert parse_claim_name("lease/3.t7.dup") is None
    assert parse_claim_name("journal/3.t7") is None


def test_first_claim_gets_token_one(tmp_path):
    q = _queue(tmp_path)
    lease = q.claim()
    assert (lease.slice_id, lease.token, lease.holder) == (0, 1, "w1")
    assert q.transport.get("lease/0.t1")  # the claim object landed


def test_claims_exhaust_the_slices_then_return_none(tmp_path):
    q = _queue(tmp_path, slices=3)
    claimed = {q.claim().slice_id for _ in range(3)}
    assert claimed == {0, 1, 2}
    assert q.claim() is None  # everything is validly held


def test_done_slices_are_never_claimed(tmp_path):
    q = _queue(tmp_path, slices=2)
    lease = q.claim(done={0})
    assert lease.slice_id == 1
    assert q.claim(done={0, 1}) is None


def test_unexpired_claim_blocks_other_holders(tmp_path):
    clock = FakeClock()
    q1 = _queue(tmp_path, holder="w1", clock=clock, slices=1)
    q2 = _queue(tmp_path, holder="w2", clock=clock, slices=1)
    assert q1.claim() is not None
    assert q2.claim() is None


def test_expired_claim_is_reclaimed_at_next_token(tmp_path):
    clock = FakeClock()
    q1 = _queue(tmp_path, holder="w1", clock=clock, slices=1, ttl=10.0)
    q2 = _queue(tmp_path, holder="w2", clock=clock, slices=1, ttl=10.0)
    first = q1.claim()
    clock.advance(10.0)  # deadline reached: expired
    second = q2.claim()
    assert second is not None
    assert second.token == first.token + 1  # the fence
    assert q1.latest_claims()[0] == second  # both views see the new token


def test_renew_extends_the_deadline(tmp_path):
    clock = FakeClock()
    q = _queue(tmp_path, clock=clock, slices=1, ttl=10.0)
    other = _queue(tmp_path, holder="w2", clock=clock, slices=1, ttl=10.0)
    lease = q.claim()
    clock.advance(8.0)
    lease = q.renew(lease)
    clock.advance(8.0)  # 16s since claim, 8s since renewal
    assert other.claim() is None  # renewal kept the lease alive
    assert other.latest_claims()[0] == lease


def test_unreadable_claim_fences_but_expires_immediately(tmp_path):
    clock = FakeClock()
    q = _queue(tmp_path, clock=clock, slices=1)
    # A torn claim upload: the object exists (its token fences) but its
    # body is garbage — it must not wedge the slice forever.
    q.transport.put("lease/0.t5", b"\xff not json")
    lease = q.claim()
    assert lease is not None
    assert lease.token == 6  # fenced above the unreadable claim


def test_latest_claims_ignores_foreign_and_low_tokens(tmp_path):
    q = _queue(tmp_path, slices=2)
    for name, deadline in (("lease/0.t1", 1.0), ("lease/0.t3", 2.0)):
        q.transport.put(name, json.dumps(
            {"holder": "x", "deadline": deadline}
        ).encode())
    q.transport.put("lease/9.t1", b"{}")  # slice out of range: ignored
    latest = q.latest_claims()
    assert set(latest) == {0}
    assert latest[0].token == 3


def test_lease_payload_round_trips(tmp_path):
    lease = Lease(slice_id=2, token=4, holder="w9", deadline=123.5)
    body = json.loads(lease.payload().decode())
    assert body == {
        "slice": 2, "token": 4, "holder": "w9", "deadline": 123.5,
    }
    assert lease.name == "lease/2.t4"
    assert lease.expired(123.5) and not lease.expired(123.0)


def test_queue_validates_parameters(tmp_path):
    with pytest.raises(ValueError):
        _queue(tmp_path, slices=0)
    with pytest.raises(ValueError):
        _queue(tmp_path, ttl=0.0)
