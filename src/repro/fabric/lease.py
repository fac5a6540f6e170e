"""TTL'd leases with fencing tokens over the fleet transport.

The fleet partitions the campaign's failure-point space into *slices*
(``task.index % slices``, the same arithmetic the in-host shard fabric
uses) and hands each slice out under a **lease**: a claim object at
``lease/<slice>.t<token>`` whose creation is arbitrated by the
transport's atomic ``create``.  The pieces:

* **Fencing tokens** — monotonically increasing per slice.  A claim is
  only valid while its token is the *highest* for that slice; a worker
  whose lease expired and was reclaimed keeps running (we cannot reach
  into a partitioned host), but every object it ships is named with its
  stale token, so its delivery is folded idempotently rather than
  trusted as authoritative.  At-least-once execution, exactly-once
  merge.
* **TTL deadlines** — each claim carries a deadline; a lease whose
  holder has neither renewed nor delivered by then is *expired* and may
  be reclaimed by anyone (including the original holder) at the next
  token.
* **Renewal** — holders extend their deadline by overwriting the claim
  object (a plain ``put``: the name already encodes the token, so
  overwrite cannot race a *different* claim).

Nothing here deletes claim objects: the full claim history is the
audit trail (``fleet_releases`` counts reclaims), and completed slices
are marked by the supervisor, not inferred from lease state.
"""

from __future__ import annotations

import dataclasses
import json
import re
import time
from typing import Callable, Dict, Optional

from repro.errors import TransportError, TransportMissing
from repro.fabric.transport import Transport

#: Transport prefix for lease claim objects.
LEASE_PREFIX = "lease/"

_CLAIM_RE = re.compile(r"^lease/(\d+)\.t(\d+)$")


@dataclasses.dataclass
class Lease:
    """One claim on one slice: who holds it, under which token, until when."""

    slice_id: int
    token: int
    holder: str
    deadline: float

    @property
    def name(self) -> str:
        return f"{LEASE_PREFIX}{self.slice_id}.t{self.token}"

    def payload(self) -> bytes:
        return json.dumps(
            {"slice": self.slice_id, "token": self.token,
             "holder": self.holder, "deadline": self.deadline},
            sort_keys=True,
        ).encode()

    def expired(self, now: float) -> bool:
        return now >= self.deadline


def parse_claim_name(name: str) -> Optional[tuple]:
    """``lease/<slice>.t<token>`` -> ``(slice, token)`` or None."""
    match = _CLAIM_RE.match(name)
    if not match:
        return None
    return int(match.group(1)), int(match.group(2))


class LeaseQueue:
    """The lease protocol, as a worker sees it.

    All state lives in the transport; a ``LeaseQueue`` is just a view
    plus the claim/renew/reclaim operations.  Two queues on two hosts
    watching the same transport agree by construction.
    """

    def __init__(
        self,
        transport: Transport,
        slices: int,
        ttl_seconds: float,
        holder: str,
        clock: Callable[[], float] = time.time,
    ):
        if slices < 1:
            raise ValueError(f"slices must be >= 1, got {slices}")
        if ttl_seconds <= 0:
            raise ValueError(f"ttl_seconds must be > 0, got {ttl_seconds}")
        self.transport = transport
        self.slices = slices
        self.ttl_seconds = float(ttl_seconds)
        self.holder = holder
        self._clock = clock

    # -- shared view ---------------------------------------------------- #

    def latest_claims(self) -> Dict[int, Lease]:
        """The highest-token claim per slice, decoded from the transport.

        A claim object that cannot be fetched or parsed (torn upload,
        transient I/O) still *counts* for fencing — its token is taken
        from the name — but its deadline is treated as already passed,
        so an unreadable claim never wedges a slice forever.
        """
        latest: Dict[int, Lease] = {}
        for name in self.transport.list(LEASE_PREFIX):
            parsed = parse_claim_name(name)
            if parsed is None:
                continue
            slice_id, token = parsed
            if slice_id >= self.slices:
                continue
            current = latest.get(slice_id)
            if current is not None and current.token >= token:
                continue
            latest[slice_id] = self._decode(name, slice_id, token)
        return latest

    def _decode(self, name: str, slice_id: int, token: int) -> Lease:
        try:
            body = json.loads(self.transport.get(name).decode())
            return Lease(
                slice_id=slice_id,
                token=token,
                holder=str(body["holder"]),
                deadline=float(body["deadline"]),
            )
        except (TransportMissing, TransportError, ValueError, KeyError,
                TypeError):
            # Unreadable claim: fence on the token, expire immediately.
            return Lease(slice_id=slice_id, token=token, holder="?",
                         deadline=float("-inf"))

    # -- worker side ---------------------------------------------------- #

    def claim(self, done: Optional[set] = None) -> Optional[Lease]:
        """Try to claim one available slice; None when nothing is claimable.

        A slice is claimable when it is not in ``done`` and has either
        no claim yet or only an expired one.  Expired slices are
        re-claimed at ``token + 1`` (the fence); a worker that loses the
        race for one slice moves on to the next.
        """
        done = done or set()
        now = self._clock()
        latest = self.latest_claims()
        for slice_id in range(self.slices):
            if slice_id in done:
                continue
            current = latest.get(slice_id)
            if current is None:
                token = 1
            elif current.expired(now):
                token = current.token + 1
            else:
                continue
            lease = Lease(
                slice_id=slice_id,
                token=token,
                holder=self.holder,
                deadline=now + self.ttl_seconds,
            )
            if self.transport.create(lease.name, lease.payload()):
                return lease
        return None

    def renew(self, lease: Lease) -> Lease:
        """Extend a held lease's deadline (overwrite is safe: the name
        pins the token, and only the holder writes under it)."""
        renewed = dataclasses.replace(
            lease, deadline=self._clock() + self.ttl_seconds
        )
        self.transport.put(renewed.name, renewed.payload())
        return renewed


__all__ = ["LEASE_PREFIX", "Lease", "LeaseQueue", "parse_claim_name"]
