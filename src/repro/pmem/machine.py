"""The simulated machine implementing x86 relaxed, buffered persistency.

This is the hardware substrate everything else runs on.  It follows the
semantics laid out in section 2 of the Mumak paper:

* ``store`` writes land in volatile CPU cache lines and can stay there
  indefinitely; they are *visible* to loads but not *persistent*.
* ``clflush`` writes a cache line back to the medium immediately and is
  ordered with respect to other stores.
* ``clflushopt`` and ``clwb`` are *weak* flushes: they only take effect at
  the next fence, until which they may be buffered (and, on real hardware,
  reordered).  ``clflushopt`` additionally invalidates the line.
* ``sfence``/``mfence`` execute all buffered flushes and non-temporal
  stores, making them durable.
* ``ntstore`` bypasses the cache but is still buffered until a fence.
* read-modify-write atomics act as fences.
* the cache may also evict dirty lines on its own (policy-controlled),
  which persists data nondeterministically — the reason missing-flush bugs
  can hide.  Eviction never changes what loads observe: a line dropped
  after a weak flush is read, and refilled, from the buffered snapshot
  until its fence.

A *crash* discards every volatile structure; only the medium survives.

Applications address two disjoint regions through the same instruction
interface: persistent memory at ``[0, pm_size)`` and a volatile region at
``VOLATILE_BASE + x`` (the analog of ordinary DRAM mapped alongside the DAX
mapping).  Detection tools know the PM mapping range — just as real tools
know which address range ``mmap`` returned for the DAX file — and use it to
classify accesses.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.errors import PMemError, StepBudgetExceeded, WatchdogTimeout
from repro.pmem.cache import Cache, CacheLine, EvictionPolicy
from repro.pmem.constants import (
    CACHE_LINE_SIZE,
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_POOL_SIZE,
    cache_lines_spanned,
)
from repro.pmem.events import MemoryEvent, Opcode
from repro.pmem.medium import Medium

#: Base of the volatile (DRAM) address region.  Anything at or above this
#: address never survives a crash.
VOLATILE_BASE = 1 << 40

#: ``address & _LINE_MASK`` is the base of the address's cache line
#: (:func:`~repro.pmem.constants.cache_line_of`, inlined by the ops).
_LINE_MASK = ~(CACHE_LINE_SIZE - 1)

#: The unarmed watchdog's next check: a step count no run reaches.
_NEVER = 1 << 62

EventHook = Callable[[MemoryEvent, "PMachine"], None]


def _boot_medium(image, size: Optional[int] = None) -> Medium:
    """The medium a machine boots on ``image``.

    A pooled, copy-on-write crash image
    (:class:`repro.pmem.incremental.MaterialisedImage`) is adopted
    without a copy: the medium reuses its ``pm_buffer``, which may hold
    only the low bytes of the pool, and takes the image's logical size
    from ``len(image)``.  The image then starts a write log so the
    incremental engine can reconcile the buffer in O(recovery-dirtied
    bytes) when it is returned to the pool.  Any other image is copied.
    """
    buffer = getattr(image, "pm_buffer", None)
    if buffer is None:
        return Medium.from_image(image, size=size)
    medium = Medium(len(image), buffer=buffer)
    adopted = getattr(image, "on_adopted", None)
    if adopted is not None:
        adopted(medium)
    return medium


class PMachine:
    """A single-hart machine with persistent and volatile memory.

    Event hooks registered with :meth:`add_hook` observe every PM-relevant
    instruction; this is the attachment surface the instrumentation layer
    (the Pin analog) uses.  Accesses to the volatile region are also
    reported, since a black-box tool sees every instruction and must decide
    for itself which addresses are persistent.
    """

    def __init__(
        self,
        pm_size: int = DEFAULT_POOL_SIZE,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        eviction: Optional[EvictionPolicy] = None,
        trace_loads: bool = False,
        trace_volatile: bool = False,
        eadr: bool = False,
        medium: Optional[Medium] = None,
    ):
        self.medium = medium if medium is not None else Medium(pm_size)
        self.cache = Cache(cache_capacity, eviction)
        self.trace_loads = trace_loads
        self.trace_volatile = trace_volatile
        #: Enhanced Asynchronous DRAM Refresh (paper, section 2): the
        #: persistence domain extends to the CPU caches, so cache-resident
        #: stores survive a crash without explicit flushes.  Fences are
        #: still required to order weakly-ordered (non-temporal) stores,
        #: and instruction-order-induced inconsistencies remain possible —
        #: which is why Mumak's fault-injection findings still apply.
        self.eadr = eadr
        #: Buffered weak flushes: line base -> line data snapshotted at flush
        #: time, applied to the medium by the next fence (insertion ordered).
        self._pending_flushes: "OrderedDict[int, Tuple[bytes, Opcode]]" = OrderedDict()
        #: Buffered non-temporal stores, applied by the next fence.
        self._pending_nt: List[Tuple[int, bytes]] = []
        #: Volatile DRAM overlay for addresses >= VOLATILE_BASE.
        self._volatile: Dict[int, int] = {}
        #: A tuple, rebuilt by every change: :meth:`_emit` iterates the
        #: snapshot it read, so a hook may remove itself mid-dispatch.
        self._hooks: Tuple[EventHook, ...] = ()
        self._seq = 0
        self.crashed = False
        #: Runaway-execution watchdog (armed by the campaign harness).
        self.arm_watchdog()

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #

    @classmethod
    def from_image(
        cls,
        image: bytes,
        poisoned_lines: Iterable[int] = (),
        pm_size: Optional[int] = None,
        **kwargs,
    ) -> "PMachine":
        """Boot a fresh machine whose medium holds a crash image.

        ``poisoned_lines`` marks cache-line bases of the recovered medium
        as uncorrectable media errors: any load (or cache fill) touching
        one raises :class:`~repro.errors.MediaError` until the full line
        is rewritten without being read (a whole-line store or a
        non-temporal store, mirroring ``movdir64b`` semantics).
        ``pm_size`` is the pool's logical size when ``image`` holds only
        its low bytes (default: ``len(image)``).
        """
        medium = _boot_medium(image, pm_size)
        for base in poisoned_lines:
            medium.poison_line(base)
        return cls(pm_size=medium.size, medium=medium, **kwargs)

    def reset_to_image(
        self, image: bytes, poisoned_lines: Iterable[int] = ()
    ) -> "PMachine":
        """Re-adopt this machine onto a new crash image.

        Contractually equivalent to ``PMachine.from_image(image,
        poisoned_lines, **same-config)``: every piece of mutable state
        is rebuilt or cleared, so a pooled machine serving its Nth
        recovery run is indistinguishable from a fresh boot
        (property-tested in ``tests/recovery/test_pool.py``).  Only the
        construction-time config (cache capacity/policy, trace flags,
        ``eadr``) survives — which is exactly what the machine-template
        pool wants to amortise.
        """
        self.medium = _boot_medium(image)
        for base in poisoned_lines:
            self.medium.poison_line(base)
        # A fresh Cache (not drop_all) so eviction counters and policy
        # state match a fresh boot exactly.
        self.cache = Cache(self.cache.capacity, self.cache.policy)
        self._pending_flushes.clear()
        self._pending_nt.clear()
        self._volatile.clear()
        self._hooks = ()
        self._seq = 0
        self.crashed = False
        self.arm_watchdog()  # disarm + zero the step counter
        return self

    # ------------------------------------------------------------------ #
    # hook plumbing
    # ------------------------------------------------------------------ #

    def add_hook(self, hook: EventHook) -> None:
        self._hooks += (hook,)

    def remove_hook(self, hook: EventHook) -> None:
        hooks = list(self._hooks)
        hooks.remove(hook)
        self._hooks = tuple(hooks)

    def clear_hooks(self) -> None:
        self._hooks = ()

    @property
    def instruction_count(self) -> int:
        """Value the next emitted event's ``seq`` will take."""
        return self._seq

    # ------------------------------------------------------------------ #
    # runaway-execution watchdog
    # ------------------------------------------------------------------ #

    @property
    def steps(self) -> int:
        """Machine operations executed since the watchdog was last armed.

        Unlike :attr:`instruction_count` this counts *every* machine-level
        operation (including untraced loads), so an uninstrumented recovery
        procedure spinning on PM reads still advances it.
        """
        return self._steps

    def arm_watchdog(
        self,
        step_limit: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> None:
        """Arm (or, with both ``None``, disarm) the execution watchdog.

        ``step_limit`` bounds the number of machine operations before
        :class:`~repro.errors.StepBudgetExceeded` is raised;  ``deadline``
        is an absolute :func:`time.monotonic` instant after which
        :class:`~repro.errors.WatchdogTimeout` is raised.  The campaign
        harness arms this before handing the machine to an untrusted
        recovery procedure so runaway executions cannot stall a campaign.
        """
        self._steps = 0
        self._step_limit = step_limit
        self._watchdog_deadline = deadline
        self._plan_next_check()

    # Every op counts its step inline, ``steps = self._steps + 1``, and
    # calls :meth:`_check_watchdog` only once ``steps`` passes
    # ``_next_check``: the step limit, or the next multiple of 64 while a
    # deadline is armed, whichever comes first.

    def _plan_next_check(self) -> None:
        steps = self._steps
        limit = self._step_limit
        next_check = _NEVER if limit is None else limit
        if self._watchdog_deadline is not None:
            next_check = min(next_check, steps | 0x3F)
        self._next_check = next_check

    def _check_watchdog(self) -> None:
        if self._step_limit is not None and self._steps > self._step_limit:
            raise StepBudgetExceeded(self._step_limit)
        if (
            self._watchdog_deadline is not None
            and (self._steps & 0x3F) == 0
            and time.monotonic() > self._watchdog_deadline
        ):
            raise WatchdogTimeout(0.0, "machine overran its watchdog deadline")
        self._plan_next_check()

    def _step(self) -> None:
        steps = self._steps = self._steps + 1
        if steps > self._next_check:
            self._check_watchdog()

    def _emit(
        self,
        opcode: Opcode,
        address: Optional[int] = None,
        size: int = 0,
        data: Optional[bytes] = None,
    ) -> None:
        """Count one traced instruction and show it to the hooks.

        The event is built only when a hook listens: the recovery oracle
        runs on hook-free machines, where every op still advances
        :attr:`instruction_count` but needs no event.
        """
        seq = self._seq
        self._seq = seq + 1
        hooks = self._hooks
        if hooks:
            event = MemoryEvent(seq, opcode, address, size, data)
            for hook in hooks:
                hook(event, self)

    # ------------------------------------------------------------------ #
    # address classification
    # ------------------------------------------------------------------ #

    def is_persistent(self, address: int) -> bool:
        """True if the address lies in (or below) the persistent mapping.

        Negative addresses are classified as persistent so that they fault
        with an out-of-bounds error, like any wild pointer would — they
        must not silently read volatile zeros.
        """
        return address < VOLATILE_BASE

    # ------------------------------------------------------------------ #
    # volatile region
    # ------------------------------------------------------------------ #

    def _volatile_write(self, address: int, data: bytes) -> None:
        for i, byte in enumerate(data):
            self._volatile[address + i] = byte

    def _volatile_read(self, address: int, size: int) -> bytes:
        return bytes(self._volatile.get(address + i, 0) for i in range(size))

    # ------------------------------------------------------------------ #
    # stores and loads
    # ------------------------------------------------------------------ #

    def store(self, address: int, data: bytes) -> None:
        """Regular (cached, write-back) store."""
        if self.crashed:
            raise PMemError("machine has crashed; no further execution")
        steps = self._steps = self._steps + 1
        if steps > self._next_check:
            self._check_watchdog()
        data = bytes(data)
        size = len(data)
        if address >= VOLATILE_BASE:
            self._volatile_write(address, data)
            if self.trace_volatile:
                self._emit(Opcode.STORE, address, size, data)
            return
        self.medium.check_bounds(address, size)
        base = address & _LINE_MASK
        offset = address - base
        lines = self.cache._lines
        line = lines.get(base)
        if line is not None and 0 < size <= CACHE_LINE_SIZE - offset:
            # Inside one cached line: write it in place and refresh its
            # recency, as Cache.get does, so eviction picks the same
            # victims.  Other stores install, evict and write back below.
            lines.move_to_end(base)
            line.data[offset:offset + size] = data
            line.dirty_mask |= ((1 << size) - 1) << offset
        else:
            self._write_through_cache(address, data)
        if self._pending_nt:
            self._trim_pending_nt(address, size)
        self._emit(Opcode.STORE, address, size, data)

    def _write_through_cache(self, address: int, data: bytes) -> None:
        cursor = address
        remaining = memoryview(data)
        while remaining:
            base = cursor & _LINE_MASK
            offset = cursor - base
            chunk = min(len(remaining), CACHE_LINE_SIZE - offset)
            line = self.cache.get(base)
            if line is None:
                if offset == 0 and chunk == CACHE_LINE_SIZE:
                    # Whole-line store: no fill read needed (write
                    # combining).  Crucially, this lets recovery code
                    # rewrite a *poisoned* line without faulting, the
                    # same way ``movdir64b`` clears poison on hardware.
                    line = CacheLine(base, bytes(CACHE_LINE_SIZE))
                elif base in self._pending_flushes:
                    # Eviction dropped this line after a weak flush: its
                    # buffered snapshot is newer than the medium.
                    line = CacheLine(base, self._pending_flushes[base][0])
                else:
                    line = CacheLine(
                        base, self.medium.read(base, CACHE_LINE_SIZE)
                    )
                victim = self.cache.install(line)
                if victim is not None:
                    # Write-back eviction: the victim's data silently
                    # becomes durable, and supersedes the older snapshot
                    # a weak flush may have buffered for it (the fence
                    # must not write that snapshot back over it).
                    self.medium.write(victim.base, victim.copy_data())
                    self._pending_flushes.pop(victim.base, None)
            line.write(offset, bytes(remaining[:chunk]))
            cursor += chunk
            remaining = remaining[chunk:]

    def load(self, address: int, size: int) -> bytes:
        if self.crashed:
            raise PMemError("machine has crashed; no further execution")
        steps = self._steps = self._steps + 1
        if steps > self._next_check:
            self._check_watchdog()
        if address >= VOLATILE_BASE:
            value = self._volatile_read(address, size)
            if self.trace_loads and self.trace_volatile:
                self._emit(Opcode.LOAD, address, size)
            return value
        base = address & _LINE_MASK
        offset = address - base
        if offset + size <= CACHE_LINE_SIZE and not self._pending_nt:
            # One line, no buffered NT bytes to overlay: one lookup.
            line = self.cache._lines.get(base)
            if line is not None:
                self.medium.check_bounds(address, size)
                value = bytes(line.data[offset:offset + size])
            elif base in self._pending_flushes:
                # Eviction dropped the line after a weak flush: its
                # buffered snapshot is the newest copy until the fence.
                self.medium.check_bounds(address, size)
                value = self._pending_flushes[base][0][offset:offset + size]
            else:
                value = self.medium.read(address, size)
        else:
            self.medium.check_bounds(address, size)
            value = self._load_lines(address, size)
        if self.trace_loads:
            self._emit(Opcode.LOAD, address, size)
        return value

    def _load_lines(self, address: int, size: int) -> bytes:
        """Read ``[address, address+size)`` line by line, cache over
        buffered weak-flush snapshots (of lines eviction dropped) over
        medium, with buffered non-temporal bytes on top."""
        result = bytearray(size)
        cursor = address
        produced = 0
        pending = self._pending_flushes
        while produced < size:
            base = cursor & _LINE_MASK
            offset = cursor - base
            chunk = min(size - produced, CACHE_LINE_SIZE - offset)
            line = self.cache.peek(base)
            if line is not None:
                result[produced:produced + chunk] = line.data[offset:offset + chunk]
            elif base in pending:
                result[produced:produced + chunk] = pending[base][0][offset:offset + chunk]
            else:
                result[produced:produced + chunk] = self.medium.read(cursor, chunk)
            cursor += chunk
            produced += chunk
        # Non-temporal stores bypass the cache but are visible to this hart.
        for nt_addr, nt_data in self._pending_nt:
            lo = max(nt_addr, address)
            hi = min(nt_addr + len(nt_data), address + size)
            if lo < hi:
                result[lo - address:hi - address] = nt_data[lo - nt_addr:hi - nt_addr]
        return bytes(result)

    def ntstore(self, address: int, data: bytes) -> None:
        """Non-temporal store: bypasses the cache, durable at the next fence."""
        if self.crashed:
            raise PMemError("machine has crashed; no further execution")
        self._step()
        data = bytes(data)
        if not self.is_persistent(address):
            self._volatile_write(address, data)
            if self.trace_volatile:
                self._emit(Opcode.NT_STORE, address, len(data), data)
            return
        self.medium.check_bounds(address, len(data))
        # If the line is cached, keep the cached copy coherent.
        for base in cache_lines_spanned(address, len(data)):
            line = self.cache.peek(base)
            if line is not None:
                lo = max(base, address)
                hi = min(base + CACHE_LINE_SIZE, address + len(data))
                line.data[lo - base:hi - base] = data[lo - address:hi - address]
        self._trim_pending_nt(address, len(data))
        self._pending_nt.append((address, data))
        self._emit(Opcode.NT_STORE, address, len(data), data)

    def _trim_pending_nt(self, address: int, size: int) -> None:
        """Drop buffered non-temporal bytes superseded by a later write.

        Program-order-later data to the same bytes must win both for
        visibility and at a graceful crash; keeping the stale NT bytes
        would resurrect them at the next fence.
        """
        if not self._pending_nt:
            return
        lo, hi = address, address + size
        trimmed = []
        for nt_addr, nt_data in self._pending_nt:
            nt_lo, nt_hi = nt_addr, nt_addr + len(nt_data)
            if nt_hi <= lo or nt_lo >= hi:
                trimmed.append((nt_addr, nt_data))
                continue
            if nt_lo < lo:
                trimmed.append((nt_lo, nt_data[: lo - nt_lo]))
            if nt_hi > hi:
                trimmed.append((hi, nt_data[hi - nt_lo:]))
        self._pending_nt = trimmed

    # ------------------------------------------------------------------ #
    # flushes and fences
    # ------------------------------------------------------------------ #

    def clflush(self, address: int) -> None:
        """Strongly ordered flush: persists the line immediately.

        A line an earlier ``clwb``/``clflushopt`` marked clean still
        waits for its fence; ``clflush`` writes it back too, before
        invalidating: the line itself (at least as new as its pending
        snapshot) or, when eviction dropped the clean line, the snapshot
        the fence would have written.
        """
        if self.crashed:
            raise PMemError("machine has crashed; no further execution")
        steps = self._steps = self._steps + 1
        if steps > self._next_check:
            self._check_watchdog()
        if address < VOLATILE_BASE:
            self.medium.check_bounds(address, 1)
            base = address & _LINE_MASK
            lines = self.cache._lines
            line = lines.get(base)
            pending = self._pending_flushes.pop(base, None)
            if line is not None:
                if line.dirty_mask or pending is not None:
                    self.medium.write(base, bytes(line.data))
                del lines[base]
            elif pending is not None:
                self.medium.write(base, pending[0])
        self._emit(Opcode.CLFLUSH, address, CACHE_LINE_SIZE)

    def clflushopt(self, address: int) -> None:
        self._weak_flush(address, Opcode.CLFLUSHOPT)

    def clwb(self, address: int) -> None:
        self._weak_flush(address, Opcode.CLWB)

    def _weak_flush(self, address: int, opcode: Opcode) -> None:
        if self.crashed:
            raise PMemError("machine has crashed; no further execution")
        steps = self._steps = self._steps + 1
        if steps > self._next_check:
            self._check_watchdog()
        if address < VOLATILE_BASE:
            self.medium.check_bounds(address, 1)
            base = address & _LINE_MASK
            line = self.cache._lines.get(base)
            if line is not None and line.dirty_mask:
                # Snapshot at flush time: stores issued after this flush and
                # before the fence are NOT covered by it.
                pending = self._pending_flushes
                pending[base] = (bytes(line.data), opcode)
                pending.move_to_end(base)
                line.dirty_mask = 0
        self._emit(opcode, address, CACHE_LINE_SIZE)

    def sfence(self) -> None:
        if self.crashed:
            raise PMemError("machine has crashed; no further execution")
        steps = self._steps = self._steps + 1
        if steps > self._next_check:
            self._check_watchdog()
        if self._pending_flushes or self._pending_nt:
            self._drain_persistence_buffers()
        self._emit(Opcode.SFENCE)

    def mfence(self) -> None:
        if self.crashed:
            raise PMemError("machine has crashed; no further execution")
        steps = self._steps = self._steps + 1
        if steps > self._next_check:
            self._check_watchdog()
        if self._pending_flushes or self._pending_nt:
            self._drain_persistence_buffers()
        self._emit(Opcode.MFENCE)

    def _drain_persistence_buffers(self) -> None:
        for base, (snapshot, opcode) in self._pending_flushes.items():
            self.medium.write(base, snapshot)
            if opcode is Opcode.CLFLUSHOPT:
                line = self.cache.peek(base)
                if line is not None and not line.dirty:
                    self.cache.invalidate(base)
        self._pending_flushes.clear()
        for address, data in self._pending_nt:
            self.medium.write(address, data)
        self._pending_nt.clear()

    def rmw_u64(self, address: int, func: Callable[[int], int]) -> Tuple[int, int]:
        """Atomic read-modify-write of an aligned 8-byte word.

        Acts as a full fence (paper, section 2).  The *new* value is made
        durable immediately: the locked instruction's write is persisted as
        part of its atomic commitment on ADR platforms only once flushed,
        but crucially its fence semantics drain all buffered flushes.  The
        written value itself still lives in the cache like a normal store.

        Returns ``(old_value, new_value)``.
        """
        if self.crashed:
            raise PMemError("machine has crashed; no further execution")
        self._step()
        if address % 8 != 0:
            raise PMemError(f"rmw address 0x{address:x} is not 8-byte aligned")
        self._drain_persistence_buffers()
        if self.is_persistent(address):
            self.medium.check_bounds(address, 8)
            old = int.from_bytes(self.load(address, 8), "little")
            new = func(old) & (2 ** 64 - 1)
            self._write_through_cache(address, new.to_bytes(8, "little"))
            self._trim_pending_nt(address, 8)
        else:
            old = int.from_bytes(self._volatile_read(address, 8), "little")
            new = func(old) & (2 ** 64 - 1)
            self._volatile_write(address, new.to_bytes(8, "little"))
        self._emit(Opcode.RMW, address, 8, new.to_bytes(8, "little"))
        return old, new

    def cas_u64(self, address: int, expected: int, desired: int) -> bool:
        """Atomic compare-and-swap; fence semantics like all RMW ops."""
        swapped = []

        def update(old: int) -> int:
            if old == expected:
                swapped.append(True)
                return desired
            return old

        self.rmw_u64(address, update)
        return bool(swapped)

    def faa_u64(self, address: int, delta: int) -> int:
        """Atomic fetch-and-add; returns the previous value."""
        old, _ = self.rmw_u64(address, lambda v: (v + delta) & (2 ** 64 - 1))
        return old

    # ------------------------------------------------------------------ #
    # convenience persistence helpers (what libraries build on)
    # ------------------------------------------------------------------ #

    def flush_range(self, address: int, size: int, opcode: Opcode = Opcode.CLWB) -> None:
        """Issue one flush per cache line spanned by ``[address, address+size)``."""
        if opcode is Opcode.CLWB:
            flush = self.clwb
        elif opcode is Opcode.CLFLUSHOPT:
            flush = self.clflushopt
        elif opcode is Opcode.CLFLUSH:
            flush = self.clflush
        else:
            raise KeyError(opcode)
        for base in cache_lines_spanned(address, size):
            flush(base)

    def persist(self, address: int, size: int) -> None:
        """The ``pmem_persist`` idiom: flush every spanned line, then fence."""
        self.flush_range(address, size)
        self.sfence()

    def lines_in_range(self, address: int, size: int):
        """Cache-line bases spanned by a byte range."""
        return cache_lines_spanned(address, size)

    def dirty_lines_in_range(self, address: int, size: int):
        """Bases of the spanned lines that currently hold unflushed stores.

        Libraries that track modifications at cache-line granularity (as
        PMDK does) use this to avoid flushing lines they never dirtied.
        """
        bases = []
        for base in cache_lines_spanned(address, size):
            line = self.cache.peek(base)
            if line is not None and line.dirty:
                bases.append(base)
        return bases

    # ------------------------------------------------------------------ #
    # crash machinery
    # ------------------------------------------------------------------ #

    def crash_image(self) -> bytes:
        """The post-failure PM contents if the machine lost power *now*.

        On an ADR platform, volatile caches, buffered flushes, and
        buffered non-temporal stores are all lost; only what already
        reached the medium survives.  On an eADR platform the caches are
        inside the persistence domain: cache-resident stores and buffered
        flush snapshots survive, while non-temporal stores still need
        their fence (they bypass the now-persistent caches).
        """
        if not self.eadr:
            return self.medium.snapshot()
        image = bytearray(self.medium.snapshot())
        for base, (snapshot, _) in self._pending_flushes.items():
            image[base:base + CACHE_LINE_SIZE] = snapshot
        for line in self.cache.lines():
            if line.dirty:
                image[line.base:line.base + CACHE_LINE_SIZE] = line.copy_data()
        return bytes(image)

    def graceful_crash_image(self) -> bytes:
        """The post-failure state Mumak's graceful crash produces.

        "We crash the application gracefully ... after guaranteeing that
        pending stores are persisted before each failure point" (paper,
        section 4.1): every store issued so far — cached, buffered, or
        non-temporal — is persisted, so the image is exactly the
        program-order prefix of the execution.
        """
        image = bytearray(self.medium.snapshot())
        # Oldest data first: buffered weak-flush snapshots, then buffered
        # non-temporal stores, then the current dirty lines (the newest
        # visible data, which program order says must win).
        for base, (snapshot, _) in self._pending_flushes.items():
            image[base:base + CACHE_LINE_SIZE] = snapshot
        for address, data in self._pending_nt:
            image[address:address + len(data)] = data
        for line in self.cache.lines():
            if line.dirty:
                image[line.base:line.base + CACHE_LINE_SIZE] = line.copy_data()
        return bytes(image)

    def crash(self) -> bytes:
        """Crash the machine: capture the image and refuse further work."""
        image = self.crash_image()
        self.cache.drop_all()
        self._pending_flushes.clear()
        self._pending_nt.clear()
        self._volatile.clear()
        self.crashed = True
        return image

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #

    def dirty_line_count(self) -> int:
        return len(self.cache.dirty_lines())

    def pending_flush_count(self) -> int:
        return len(self._pending_flushes)

    def pending_nt_count(self) -> int:
        return len(self._pending_nt)
