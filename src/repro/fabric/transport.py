"""The fleet transport: atomic ``put``/``get``/``list`` between hosts.

The cross-host half of the fabric needs exactly one thing from the
outside world: a shared namespace where workers can publish bytes
*atomically* and the supervisor can enumerate what arrived.  Everything
else — leases, fencing, idempotent merge — is built on these four
primitives:

* ``put(name, data)`` — publish ``data`` under ``name`` with
  **rename-commit** semantics: a reader either sees the complete object
  or no object, never a half-written one (a *torn* upload is a fault
  the chaos layer injects deliberately, see :class:`ChaosTransport`);
* ``get(name)`` — the complete bytes, or :class:`TransportMissing`;
* ``list(prefix)`` — sorted names under a prefix (eventually complete:
  an object that was ``put`` before the ``list`` is visible);
* ``create(name, data)`` — atomic create-if-absent; the arbiter the
  lease queue's fencing tokens are built on.

:class:`DirTransport` implements the contract over a shared directory
(NFS mount, fuse-mounted object store, plain local dir for tests/CI).
An SSH or HTTP transport slots in by implementing the same four
methods; nothing above this module knows about directories.

:class:`ChaosTransport` wraps any transport with seeded faults — dropped,
duplicated, and torn uploads plus delayed heartbeats — so the fleet's
proof obligation (merged output byte-identical to a serial run, whatever
the transport does) is testable on a laptop.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, List, Optional

from repro.errors import TransportError, TransportMissing

#: Object-name prefixes carrying campaign *data* (journals, verdict
#: caches, delivery manifests) — the uploads transport chaos perturbs.
DATA_PREFIXES = ("journal/", "vcache/", "done/")

#: Object-name prefix for worker heartbeats — the uploads transport
#: chaos *delays*.
HEARTBEAT_PREFIX = "hb/"


def validate_name(name: str) -> str:
    """A transport object name: relative, ``/``-separated, no escapes."""
    if not name or name.startswith("/") or name.endswith("/"):
        raise TransportError(f"bad transport object name {name!r}")
    for part in name.split("/"):
        if part in ("", ".", "..") or part.startswith(".tmp"):
            raise TransportError(f"bad transport object name {name!r}")
    return name


class Transport:
    """Abstract fleet transport (see module docstring for the contract)."""

    def put(self, name: str, data: bytes) -> None:
        raise NotImplementedError

    def get(self, name: str) -> bytes:
        raise NotImplementedError

    def list(self, prefix: str = "") -> List[str]:
        raise NotImplementedError

    def create(self, name: str, data: bytes) -> bool:
        """Atomically publish ``data`` under ``name`` iff absent.

        Returns True when this call created the object; False when it
        already existed (somebody else won the race)."""
        raise NotImplementedError


class DirTransport(Transport):
    """Shared-directory transport with rename-commit atomicity.

    ``put`` writes to a private temp file (fsynced), then ``os.replace``s
    it into place and fsyncs the directory — the same crash-consistency
    discipline the campaign journal merge uses.  ``create`` commits with
    ``os.link`` (fails-if-exists is atomic on POSIX, including NFS),
    which is what makes lease claims race-free without any server-side
    coordination.
    """

    def __init__(self, root: str):
        self.root = os.path.abspath(root)
        self._tmp = os.path.join(self.root, ".tmp")
        self._counter = 0
        self._lock = threading.Lock()
        try:
            os.makedirs(self._tmp, exist_ok=True)
        except OSError as err:
            raise TransportError(
                f"cannot initialise transport root {root!r}: {err}"
            )

    # -- helpers -------------------------------------------------------- #

    def _path(self, name: str) -> str:
        return os.path.join(self.root, *validate_name(name).split("/"))

    def _tmp_file(self, data: bytes) -> str:
        with self._lock:
            self._counter += 1
            counter = self._counter
        # pid + instance id + counter: two transports in one process
        # (thread-hosted workers, tests) must never share a spool file.
        path = os.path.join(
            self._tmp, f".tmp-{os.getpid()}-{id(self):x}-{counter}"
        )
        with open(path, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        return path

    @staticmethod
    def _fsync_dir(directory: str) -> None:
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

    # -- the contract --------------------------------------------------- #

    def put(self, name: str, data: bytes) -> None:
        target = self._path(name)
        tmp = self._tmp_file(data)
        try:
            os.makedirs(os.path.dirname(target), exist_ok=True)
            os.replace(tmp, target)
            self._fsync_dir(os.path.dirname(target))
        except OSError as err:
            raise TransportError(f"put {name!r} failed: {err}")

    def get(self, name: str) -> bytes:
        try:
            with open(self._path(name), "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            raise TransportMissing(f"no transport object {name!r}")
        except OSError as err:
            raise TransportError(f"get {name!r} failed: {err}")

    def list(self, prefix: str = "") -> List[str]:
        found = []
        try:
            for dirpath, dirnames, filenames in os.walk(self.root):
                dirnames[:] = [
                    d for d in dirnames if not d.startswith(".tmp")
                ]
                for filename in filenames:
                    rel = os.path.relpath(
                        os.path.join(dirpath, filename), self.root
                    )
                    name = rel.replace(os.sep, "/")
                    if name.startswith(prefix):
                        found.append(name)
        except OSError as err:
            raise TransportError(f"list {prefix!r} failed: {err}")
        return sorted(found)

    def create(self, name: str, data: bytes) -> bool:
        target = self._path(name)
        tmp = self._tmp_file(data)
        try:
            os.makedirs(os.path.dirname(target), exist_ok=True)
            os.link(tmp, target)
            self._fsync_dir(os.path.dirname(target))
            return True
        except FileExistsError:
            return False
        except OSError as err:
            raise TransportError(f"create {name!r} failed: {err}")
        finally:
            try:
                os.unlink(tmp)
            except OSError:  # pragma: no cover - tmp already gone
                pass


class ChaosTransport(Transport):
    """Seeded transport faults: drop/duplicate/tear uploads, delay beats.

    Wraps any :class:`Transport`.  Faults apply only to ``put`` of
    campaign-data objects (:data:`DATA_PREFIXES`) — reads, listings, and
    lease claims stay reliable, because the fleet's claim is that *lost
    and mangled deliveries* never corrupt the merged campaign, not that
    a worker can operate with no working transport at all (that case is
    the supervisor's local-fallback path).  Heartbeat objects are
    delayed by ``delay_ms`` instead, exercising stall detection.

    The RNG is seeded per instance from ``(seed, key)`` so a worker's
    fault schedule is reproducible; as with kill chaos, what is asserted
    is that campaign *output* is invariant under any schedule.
    """

    def __init__(self, inner: Transport, config, key: str = ""):
        import random

        self.inner = inner
        self.config = config
        self.dropped = 0
        self.duplicated = 0
        self.torn = 0
        self.delayed = 0
        self._rng = random.Random(f"{config.seed}:{key}")
        self._sleep: Callable[[float], None] = time.sleep

    def put(self, name: str, data: bytes) -> None:
        if name.startswith(HEARTBEAT_PREFIX) and self.config.delay_ms > 0:
            self.delayed += 1
            self._sleep(self.config.delay_ms / 1000.0)
            self.inner.put(name, data)
            return
        if not name.startswith(DATA_PREFIXES):
            self.inner.put(name, data)
            return
        if self._rng.random() < self.config.drop:
            # Silently lost in flight: the worker believes the upload
            # landed.  The lease expires and the slice re-runs — the
            # nastiest failure mode, absorbed by design.
            self.dropped += 1
            return
        if len(data) > 1 and self._rng.random() < self.config.torn:
            # Truncated mid-upload (a transport without rename-commit,
            # or a crashed relay): the merge folds the clean prefix or
            # refuses, never corrupts.
            self.torn += 1
            data = data[: self._rng.randrange(1, len(data))]
        self.inner.put(name, data)
        if self._rng.random() < self.config.dup:
            # Delivered twice (at-least-once transports do this): the
            # merge is idempotent, so the duplicate is counted and
            # discarded, not re-verified.
            self.duplicated += 1
            self.inner.put(name + ".dup", data)

    def get(self, name: str) -> bytes:
        return self.inner.get(name)

    def list(self, prefix: str = "") -> List[str]:
        return self.inner.list(prefix)

    def create(self, name: str, data: bytes) -> bool:
        return self.inner.create(name, data)


def reliable(
    operation: Callable,
    *args,
    retries: int = 4,
    on_retry: Optional[Callable[[int], None]] = None,
):
    """Run a transport operation with a bounded retry loop.

    Retries :class:`TransportError` (not :class:`TransportMissing` —
    absence is an answer, not a failure) up to ``retries`` times at
    once; re-raises when the budget is exhausted so callers can degrade
    gracefully.  ``on_retry`` observes each retry (the fleet counts them
    as ``fleet_transport_retries``).
    """
    attempt = 0
    while True:
        try:
            return operation(*args)
        except TransportMissing:
            raise
        except TransportError:
            attempt += 1
            if attempt > retries:
                raise
            if on_retry is not None:
                on_retry(attempt)


__all__ = [
    "ChaosTransport",
    "DATA_PREFIXES",
    "DirTransport",
    "HEARTBEAT_PREFIX",
    "Transport",
    "reliable",
    "validate_name",
]
