"""Machine-template pooling.

Constructing a :class:`~repro.pmem.machine.PMachine` per recovery run —
medium, cache, tracing scaffolding — is the dominant share of the
``recovery/boot`` sub-span PR 4's telemetry isolated.  The pool keeps a
small set of booted machines per campaign and serves recovery runs by a
cheap full-state reset + crash-image adoption
(:meth:`~repro.pmem.machine.PMachine.reset_to_image`) instead of
construction.

The reset is contractually equivalent to a fresh boot: machine state
after ``reset_to_image(image)`` is indistinguishable from
``PMachine.from_image(image)`` (property-tested in
``tests/recovery/test_pool.py``).  The pool is thread-safe so a late
release from an abandoned watchdog thread (PR 1's hang containment)
cannot corrupt it; an abandoned machine simply rejoins the pool once
its thread unwinds, and the next acquire fully resets it.
"""

import threading

from repro.pmem.machine import PMachine


class MachineTemplatePool:
    """A bounded pool of reusable recovery machines."""

    def __init__(self, size: int):
        self.size = max(0, int(size))
        self.boots = 0
        self.reuses = 0
        self._lock = threading.Lock()
        self._idle = []

    def acquire(self, image, poisoned_lines=()) -> PMachine:
        """A machine adopted onto ``image``, pooled or freshly booted."""
        machine = None
        if self.size:
            with self._lock:
                if self._idle:
                    machine = self._idle.pop()
        if machine is not None:
            machine.reset_to_image(image, poisoned_lines=poisoned_lines)
            self.reuses += 1
            return machine
        self.boots += 1
        return PMachine.from_image(image, poisoned_lines=poisoned_lines)

    def release(self, machine: PMachine) -> bool:
        """Return ``machine`` to the pool (dropped when full/disabled)."""
        if machine is None or not self.size:
            return False
        with self._lock:
            if len(self._idle) >= self.size:
                return False
            self._idle.append(machine)
            return True

    def __len__(self):
        with self._lock:
            return len(self._idle)
