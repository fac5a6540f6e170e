"""Hypothesis property tests over the machine's persistency semantics."""

import types
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import (
    MediaError,
    OutOfBoundsError,
    PMemError,
    StepBudgetExceeded,
    WatchdogTimeout,
)
from repro.instrument.tracer import MinimalTracer
from repro.pmem import CACHE_LINE_SIZE, VOLATILE_BASE, PMachine
from repro.pmem import machine as machine_module
from repro.pmem.cache import CacheLine, LRUEviction, RandomEviction
from repro.pmem.constants import cache_line_of, cache_lines_spanned
from repro.pmem.events import MemoryEvent, Opcode
from repro.pmem.incremental import MaterialisedImage

PM_SIZE = 32 * 1024
#: The shortest script the state-space properties draw.  Without a
#: ``min_size`` a ``max_size=60`` list averages 4-5 ops, so few scripts
#: evict or touch more than a couple of lines; at 20 most do both.
MIN_OPS = 20

op_strategy = st.tuples(
    st.sampled_from(["store", "clwb", "clflushopt", "clflush", "sfence",
                     "mfence", "nt", "rmw"]),
    st.integers(0, 30),   # slot
    st.integers(1, 255),  # value byte
)


#: ``clflush`` of a line a weak flush already marked clean must still
#: write the byte back: loads and the crash image both need it.
CLFLUSH_AFTER_WEAK_FLUSH = [
    [("store", 0, 1), ("clwb", 0, 1), ("clflush", 0, 1)],
    [("store", 0, 1), ("clflushopt", 0, 1), ("clflush", 0, 1)],
]


def byte_model(script):
    """Program-order-newest value per byte address (the visible model)."""
    model = {}
    for op, slot, value in script:
        addr = 256 + slot * CACHE_LINE_SIZE
        if op in ("store", "nt"):
            model[addr] = value
        elif op == "rmw":
            base = addr & ~7
            for i, byte in enumerate(value.to_bytes(8, "little")):
                model[base + i] = byte
    return model


def drive(machine, script):
    """Apply a script of (op, slot, value) steps; returns a visible-state
    model dict slot -> last written byte."""
    visible = {}
    for op, slot, value in script:
        addr = 256 + slot * CACHE_LINE_SIZE
        if op == "store":
            machine.store(addr, bytes([value]))
            visible[slot] = value
        elif op == "nt":
            machine.ntstore(addr, bytes([value]))
            visible[slot] = value
        elif op == "rmw":
            machine.rmw_u64(addr & ~7, lambda v: value)
            visible[slot] = value
        elif op == "clwb":
            machine.clwb(addr)
        elif op == "clflushopt":
            machine.clflushopt(addr)
        elif op == "clflush":
            machine.clflush(addr)
        elif op == "sfence":
            machine.sfence()
        else:
            machine.mfence()
    return visible


class TestVisibilityProperties:
    @settings(deadline=None, max_examples=60)
    @given(st.lists(op_strategy, min_size=MIN_OPS, max_size=50))
    @example(CLFLUSH_AFTER_WEAK_FLUSH[0])
    @example(CLFLUSH_AFTER_WEAK_FLUSH[1])
    def test_loads_always_see_latest_store(self, script):
        machine = PMachine(pm_size=PM_SIZE)
        visible = drive(machine, script)
        for slot, value in visible.items():
            addr = 256 + slot * CACHE_LINE_SIZE
            low = machine.load(addr & ~7, 8)
            assert value in low, (
                f"slot {slot}: wrote {value}, line starts {low!r}"
            )

    @pytest.mark.parametrize("script", CLFLUSH_AFTER_WEAK_FLUSH)
    def test_clflush_after_weak_flush_persists_the_line(self, script):
        machine = PMachine(pm_size=PM_SIZE)
        drive(machine, script + [("sfence", 0, 1)])
        assert machine.crash_image()[256] == 1

    @settings(deadline=None, max_examples=60)
    @given(st.lists(op_strategy, min_size=MIN_OPS, max_size=50))
    def test_crash_never_invents_data(self, script):
        """Every nonzero byte in the crash image was stored at some point."""
        machine = PMachine(pm_size=PM_SIZE)
        written = set()
        for op, slot, value in script:
            if op in ("store", "nt", "rmw"):
                written.add(value)
        drive(machine, script)
        image = machine.crash_image()
        for byte in image:
            assert byte == 0 or byte in written

    @settings(deadline=None, max_examples=40)
    @given(st.lists(op_strategy, min_size=MIN_OPS, max_size=50))
    def test_graceful_image_supersets_power_loss(self, script):
        """Whatever survives power loss also survives a graceful crash —
        except where program order wrote something *newer*: the graceful
        image is the program-order prefix (paper §4.1), so a durable byte
        may legitimately be superseded by the newest visible value (e.g.
        a drained NT store overwritten by a later RMW)."""
        machine = PMachine(pm_size=PM_SIZE)
        drive(machine, script)
        model = byte_model(script)
        hard = machine.crash_image()
        graceful = machine.graceful_crash_image()
        for index, byte in enumerate(hard):
            if byte:
                assert graceful[index] in (byte, model.get(index)), (
                    f"byte {index}: hard={byte}, "
                    f"graceful={graceful[index]}, newest={model.get(index)}"
                )

    @settings(deadline=None, max_examples=40)
    @given(st.lists(op_strategy, min_size=MIN_OPS, max_size=40))
    def test_eadr_image_supersets_adr(self, script):
        """An eADR machine never loses anything an ADR one keeps —
        except where the (persistent) caches hold something *newer*: a
        flushed-then-overwritten line keeps its flush snapshot on ADR
        but its newest cache-resident value on eADR."""
        adr = PMachine(pm_size=PM_SIZE)
        eadr = PMachine(pm_size=PM_SIZE, eadr=True)
        drive(adr, script)
        drive(eadr, script)
        model = byte_model(script)
        adr_image = adr.crash_image()
        eadr_image = eadr.crash_image()
        for index, byte in enumerate(adr_image):
            if byte:
                assert eadr_image[index] in (byte, model.get(index)), (
                    f"byte {index}: adr={byte}, "
                    f"eadr={eadr_image[index]}, newest={model.get(index)}"
                )


#: A line evicted between its weak flush and the fence: clean (the
#: buffered snapshot is its only copy) and, once stored to again, dirty
#: (its write-back is newer than the snapshot the fence would write).
EVICTED_BEFORE_FENCE = [
    ([("store", 0, 1), ("store", 1, 2), ("clwb", 1, 1), ("store", 2, 3)], 0),
    ([("store", 0, 1), ("clwb", 0, 1), ("store", 0, 2), ("store", 1, 3),
      ("store", 2, 4), ("sfence", 0, 1)], 1),
]


class TestEvictionProperties:
    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(op_strategy, min_size=MIN_OPS, max_size=60),
        st.sampled_from(["lru", "random"]),
        st.integers(0, 100),
    )
    def test_eviction_only_persists_real_data(self, script, policy, seed):
        """Eviction may persist *more* than the no-eviction machine, but
        only bytes that were genuinely stored."""
        policy_obj = LRUEviction() if policy == "lru" else RandomEviction(seed)
        machine = PMachine(
            pm_size=PM_SIZE, cache_capacity=4, eviction=policy_obj
        )
        written = {value for op, _, value in script if op in ("store", "nt", "rmw")}
        drive(machine, script)
        for byte in machine.crash_image():
            assert byte == 0 or byte in written

    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(op_strategy, min_size=MIN_OPS, max_size=60),
        st.integers(0, 50),
    )
    @example(*EVICTED_BEFORE_FENCE[0])
    @example(*EVICTED_BEFORE_FENCE[1])
    def test_visibility_immune_to_eviction(self, script, seed):
        """Eviction must never change what loads observe."""
        plain = PMachine(pm_size=PM_SIZE)
        evicting = PMachine(
            pm_size=PM_SIZE, cache_capacity=2, eviction=RandomEviction(seed)
        )
        visible = drive(plain, script)
        drive(evicting, script)
        for slot in visible:
            addr = 256 + slot * CACHE_LINE_SIZE
            assert plain.load(addr, 8) == evicting.load(addr, 8)


# --------------------------------------------------------------------- #
# the extent-backed medium against a flat reference
# --------------------------------------------------------------------- #

#: A small pool, so random stores keep crossing the end of the backed
#: bytes, the pool's last line and the pool's end.
FLAT_SIZE = 1024
LINES = FLAT_SIZE // CACHE_LINE_SIZE


class FlatMedium:
    """The reference medium: one pool-sized ``bytearray``, every byte
    backed from the start."""

    def __init__(self, image):
        self.data = bytearray(image)
        self.size = len(image)
        self.poisoned = set()

    def check_bounds(self, address, size):
        if address < 0 or size < 0 or address + size > self.size:
            raise OutOfBoundsError(address, size, self.size)

    def read(self, address, size):
        self.check_bounds(address, size)
        for base in cache_lines_spanned(address, size):
            if base in self.poisoned:
                raise MediaError(address, size, base)
        return bytes(self.data[address:address + size])

    def write(self, address, data):
        self.check_bounds(address, len(data))
        self.data[address:address + len(data)] = data
        end = address + len(data)
        for base in cache_lines_spanned(address, len(data)):
            if address <= base and base + CACHE_LINE_SIZE <= end:
                self.poisoned.discard(base)

    def snapshot(self):
        return bytes(self.data)

    def poison_line(self, base):
        if base % CACHE_LINE_SIZE:
            raise ValueError(f"unaligned poison base {base}")
        self.check_bounds(base, CACHE_LINE_SIZE)
        self.poisoned.add(base)

    @property
    def poisoned_lines(self):
        return tuple(sorted(self.poisoned))


address_strategy = st.one_of(
    st.integers(0, FLAT_SIZE - 1),
    # The pool's last two lines and just past its end.
    st.integers(FLAT_SIZE - 2 * CACHE_LINE_SIZE, FLAT_SIZE + 8),
    st.integers(-8, -1),
)
medium_op = st.one_of(
    st.tuples(
        st.sampled_from(["store", "nt"]),
        address_strategy,
        st.integers(1, 3 * CACHE_LINE_SIZE),  # multi-line stores
        st.integers(0, 255),
    ),
    st.tuples(
        st.just("load"), address_strategy,
        st.integers(0, 2 * CACHE_LINE_SIZE),
    ),
    st.tuples(st.sampled_from(["clwb", "clflushopt", "clflush"]),
              address_strategy),
    st.tuples(st.sampled_from(["sfence", "mfence"])),
    st.tuples(st.just("rmw"), address_strategy, st.integers(0, 2 ** 64 - 1)),
    st.tuples(st.just("poison"), st.integers(-1, LINES)),
    # Crash, then boot both media on the crash image: the full image,
    # or its low bytes (at least up to its last nonzero byte) adopted
    # or copied with the pool's logical size.
    st.tuples(st.just("crash"), st.sampled_from(["full", "adopt", "copy"]),
              st.integers(0, FLAT_SIZE)),
)


def machine_config():
    """A two-line LRU cache: one op in seven crashes the machine and
    empties its cache, so with four lines only about one script in ten
    ever evicted; with two, most scripts of ``MIN_OPS`` or more do."""
    return {"cache_capacity": 2, "eviction": LRUEviction()}


def step(machine, op):
    kind = op[0]
    if kind in ("store", "nt"):
        _, address, length, value = op
        data = bytes((value + i) & 0xFF for i in range(length))
        write = machine.store if kind == "store" else machine.ntstore
        write(address, data)
    elif kind == "load":
        return machine.load(op[1], op[2])
    elif kind in ("clwb", "clflushopt", "clflush"):
        getattr(machine, kind)(op[1])
    elif kind in ("sfence", "mfence"):
        getattr(machine, kind)()
    elif kind == "rmw":
        return machine.rmw_u64(op[1] & ~7, lambda _old: op[2])
    elif kind == "poison":
        machine.medium.poison_line(op[1] * CACHE_LINE_SIZE)
    return None


def outcome(machine, op):
    try:
        return ("ok", step(machine, op))
    except Exception as err:  # noqa: BLE001 - the type is compared
        return ("raised", type(err))


def reboot(image, poisoned, mode, cut):
    """Boot the extent-backed and the flat machine on ``image``."""
    flat = PMachine(
        pm_size=FLAT_SIZE, medium=FlatMedium(image), **machine_config()
    )
    for base in poisoned:
        flat.medium.poison_line(base)
    low = image[:max(cut, len(image.rstrip(b"\0")))]
    if mode == "full":
        boot = image
    elif mode == "adopt":
        boot = MaterialisedImage(bytearray(low), 0, FLAT_SIZE)
    else:
        boot = low
    backed = PMachine.from_image(
        boot, poisoned_lines=poisoned, pm_size=FLAT_SIZE, **machine_config()
    )
    assert backed.medium.size == FLAT_SIZE
    return backed, flat


class TestExtentBackedMedium:
    @settings(deadline=None, max_examples=150)
    @given(st.lists(medium_op, min_size=MIN_OPS, max_size=60))
    def test_matches_a_flat_medium(self, script):
        """Loads, exception types, crash images, graceful images and
        poison sets are those of a flat pool-sized medium."""
        backed = PMachine(pm_size=FLAT_SIZE, **machine_config())
        flat = PMachine(
            pm_size=FLAT_SIZE, medium=FlatMedium(bytes(FLAT_SIZE)),
            **machine_config()
        )
        for op in script:
            if op[0] == "crash":
                image = backed.crash()
                assert image == flat.crash()
                poisoned = backed.medium.poisoned_lines
                assert poisoned == flat.medium.poisoned_lines
                backed, flat = reboot(image, poisoned, op[1], op[2])
                continue
            assert outcome(backed, op) == outcome(flat, op), op
        assert backed.crash_image() == flat.crash_image()
        assert backed.graceful_crash_image() == flat.graceful_crash_image()
        assert backed.medium.poisoned_lines == flat.medium.poisoned_lines


# --------------------------------------------------------------------- #
# the load and emit fast paths against the per-line reference
# --------------------------------------------------------------------- #

class ReferenceMachine(PMachine):
    """The reference: the parent's ops, each through its helpers.

    Every load walks its lines one by one and overlays the buffered NT
    bytes; every store goes through ``Cache.get`` and ``CacheLine.write``;
    every flush and fence counts its step through ``_step`` and looks its
    line up through the cache's methods; every op builds its event,
    hooked or not, and shows it to a copy of the hook list."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._hooks = []

    def add_hook(self, hook):
        self._hooks.append(hook)

    def remove_hook(self, hook):
        self._hooks.remove(hook)

    def clear_hooks(self):
        self._hooks.clear()

    def arm_watchdog(self, step_limit=None, deadline=None):
        self._steps = 0
        self._step_limit = step_limit
        self._watchdog_deadline = deadline
        self._watchdog_armed = step_limit is not None or deadline is not None

    def _step(self):
        self._steps += 1
        if not self._watchdog_armed:
            return
        if self._step_limit is not None and self._steps > self._step_limit:
            raise StepBudgetExceeded(self._step_limit)
        if (
            self._watchdog_deadline is not None
            and (self._steps & 0x3F) == 0
            and machine_module.time.monotonic() > self._watchdog_deadline
        ):
            raise WatchdogTimeout(0.0, "machine overran its watchdog deadline")

    def store(self, address, data):
        if self.crashed:
            raise PMemError("machine has crashed; no further execution")
        self._step()
        data = bytes(data)
        if not self.is_persistent(address):
            self._volatile_write(address, data)
            if self.trace_volatile:
                self._emit(Opcode.STORE, address, len(data), data)
            return
        self.medium.check_bounds(address, len(data))
        self._write_through_cache(address, data)
        self._trim_pending_nt(address, len(data))
        self._emit(Opcode.STORE, address, len(data), data)

    def _write_through_cache(self, address, data):
        cursor = address
        remaining = memoryview(data)
        while remaining:
            base = cache_line_of(cursor)
            offset = cursor - base
            chunk = min(len(remaining), CACHE_LINE_SIZE - offset)
            line = self.cache.get(base)
            if line is None:
                pending = self._pending_flushes.get(base)
                if offset == 0 and chunk == CACHE_LINE_SIZE:
                    line = CacheLine(base, bytes(CACHE_LINE_SIZE))
                elif pending is not None:
                    line = CacheLine(base, pending[0])
                else:
                    line = CacheLine(
                        base, self.medium.read(base, CACHE_LINE_SIZE)
                    )
                victim = self.cache.install(line)
                if victim is not None:
                    self.medium.write(victim.base, victim.copy_data())
                    self._pending_flushes.pop(victim.base, None)
            line.write(offset, bytes(remaining[:chunk]))
            cursor += chunk
            remaining = remaining[chunk:]

    def load(self, address, size):
        if self.crashed:
            raise PMemError("machine has crashed; no further execution")
        self._step()
        if not self.is_persistent(address):
            value = self._volatile_read(address, size)
            if self.trace_loads and self.trace_volatile:
                self._emit(Opcode.LOAD, address, size)
            return value
        self.medium.check_bounds(address, size)
        result = bytearray(size)
        cursor = address
        produced = 0
        while produced < size:
            base = cache_line_of(cursor)
            offset = cursor - base
            chunk = min(size - produced, CACHE_LINE_SIZE - offset)
            line = self.cache.peek(base)
            pending = self._pending_flushes.get(base)
            if line is not None:
                result[produced:produced + chunk] = line.data[offset:offset + chunk]
            elif pending is not None:
                result[produced:produced + chunk] = pending[0][offset:offset + chunk]
            else:
                result[produced:produced + chunk] = self.medium.read(cursor, chunk)
            cursor += chunk
            produced += chunk
        for nt_addr, nt_data in self._pending_nt:
            lo = max(nt_addr, address)
            hi = min(nt_addr + len(nt_data), address + size)
            if lo < hi:
                result[lo - address:hi - address] = nt_data[lo - nt_addr:hi - nt_addr]
        if self.trace_loads:
            self._emit(Opcode.LOAD, address, size)
        return bytes(result)

    def clflush(self, address):
        if self.crashed:
            raise PMemError("machine has crashed; no further execution")
        self._step()
        if self.is_persistent(address):
            self.medium.check_bounds(address, 1)
            base = cache_line_of(address)
            line = self.cache.peek(base)
            pending = self._pending_flushes.pop(base, None)
            if line is not None:
                if line.dirty or pending is not None:
                    self.medium.write(base, line.copy_data())
                self.cache.invalidate(base)
            elif pending is not None:
                self.medium.write(base, pending[0])
        self._emit(Opcode.CLFLUSH, address, CACHE_LINE_SIZE)

    def _weak_flush(self, address, opcode):
        if self.crashed:
            raise PMemError("machine has crashed; no further execution")
        self._step()
        if self.is_persistent(address):
            self.medium.check_bounds(address, 1)
            base = cache_line_of(address)
            line = self.cache.peek(base)
            if line is not None and line.dirty:
                self._pending_flushes[base] = (line.copy_data(), opcode)
                self._pending_flushes.move_to_end(base)
                line.mark_clean()
        self._emit(opcode, address, CACHE_LINE_SIZE)

    def sfence(self):
        if self.crashed:
            raise PMemError("machine has crashed; no further execution")
        self._step()
        self._drain_persistence_buffers()
        self._emit(Opcode.SFENCE)

    def mfence(self):
        if self.crashed:
            raise PMemError("machine has crashed; no further execution")
        self._step()
        self._drain_persistence_buffers()
        self._emit(Opcode.MFENCE)

    def _emit(self, opcode, address=None, size=0, data=None):
        event = MemoryEvent(
            seq=self._seq, opcode=opcode, address=address, size=size, data=data
        )
        self._seq += 1
        for hook in list(self._hooks):
            hook(event, self)
        return event


#: Loads that stay inside one line (the fast path), in PM, at the
#: pool's end and in the volatile region.
one_line_load = st.tuples(
    st.just("load"),
    st.one_of(
        st.integers(0, FLAT_SIZE - 1),
        st.integers(FLAT_SIZE - 8, FLAT_SIZE + 8),
        st.integers(VOLATILE_BASE, VOLATILE_BASE + 64),
    ),
    st.integers(0, 8),
)
volatile_store = st.tuples(
    st.sampled_from(["store", "nt"]),
    st.integers(VOLATILE_BASE, VOLATILE_BASE + 64),
    st.integers(1, 16),
    st.integers(0, 255),
)
fast_path_op = st.one_of(medium_op, one_line_load, volatile_store)


#: Ops on the pool's first eight lines, so a cache of one to four lines
#: keeps evicting: mostly stores, inside one line (the in-place path),
#: straddling or covering lines, or empty; then loads, flushes, fences,
#: NT stores and RMW.
hot_address = st.builds(
    lambda line, offset: line * CACHE_LINE_SIZE + offset,
    st.integers(0, 7), st.integers(0, CACHE_LINE_SIZE - 1),
)
hot_store = st.tuples(
    st.just("store"),
    hot_address,
    st.one_of(st.integers(0, 8), st.integers(0, CACHE_LINE_SIZE + 8)),
    st.integers(0, 255),
)
hot_line_op = st.one_of(
    hot_store,
    hot_store,
    hot_store,
    st.tuples(st.just("nt"), hot_address, st.integers(1, 16),
              st.integers(0, 255)),
    st.tuples(st.just("load"), hot_address, st.integers(0, 16)),
    st.tuples(st.sampled_from(["clwb", "clflushopt", "clflush"]),
              hot_address),
    st.tuples(st.sampled_from(["sfence", "mfence"])),
    st.tuples(st.just("rmw"), hot_address, st.integers(0, 2 ** 64 - 1)),
)
#: Stores, weak and strong flushes and fences on three lines: a line is
#: flushed, stored to again and flushed again before its fence.
weak_flush_op = st.one_of(
    st.tuples(st.just("store"), st.integers(0, 3 * CACHE_LINE_SIZE - 1),
              st.integers(1, 16), st.integers(0, 255)),
    st.tuples(st.sampled_from(["clwb", "clflushopt", "clwb", "clflush"]),
              st.integers(0, 3 * CACHE_LINE_SIZE - 1)),
    st.tuples(st.sampled_from(["sfence", "mfence"])),
)


def eviction(policy, seed):
    return LRUEviction() if policy == "lru" else RandomEviction(seed)


def machine_state(machine):
    """The cache lines in recency order with their bytes and dirty masks,
    the eviction count, the buffered weak-flush snapshots in order, and
    the medium's bytes and write count."""
    cache = machine.cache
    return (
        [(line.base, bytes(line.data), line.dirty_mask)
         for line in cache.lines()],
        cache.eviction_count,
        list(machine._pending_flushes.items()),
        machine.medium.snapshot(),
        machine.medium.write_count,
    )


def traced_pair(machines, trace_loads):
    """Attach one tracer per machine, or none when ``trace_loads`` is None."""
    if trace_loads is None:
        return None
    tracers = []
    for machine in machines:
        machine.trace_loads = trace_loads
        tracer = MinimalTracer()
        machine.add_hook(tracer)
        tracers.append(tracer)
    return tracers


#: Store to line A, then line B, then A again in place: only the in-place
#: store's recency refresh makes B, not A, the least recently used line.
IN_PLACE_REFRESH = [
    ("store", 0, 8, 1), ("store", CACHE_LINE_SIZE, 8, 2), ("store", 8, 8, 3),
]


class TestFastPathMatchesReference:
    @settings(deadline=None, max_examples=150)
    @given(
        st.lists(fast_path_op, min_size=MIN_OPS, max_size=60),
        st.sampled_from([None, False, True]),
    )
    @example(IN_PLACE_REFRESH, None)
    def test_matches_the_per_line_machine(self, script, trace_loads):
        """Loads, exception types, events, instruction counts and crash
        images are the reference machine's, hooked (with or without
        traced loads) or hook-free; the cache (lines, recency, dirty
        masks), buffered flushes and medium are its after every op."""
        fast = PMachine(pm_size=FLAT_SIZE, **machine_config())
        ref = ReferenceMachine(pm_size=FLAT_SIZE, **machine_config())
        tracers = traced_pair((fast, ref), trace_loads)
        for op in script:
            if op[0] == "crash":
                image = fast.crash()
                assert image == ref.crash()
                poisoned = fast.medium.poisoned_lines
                assert poisoned == ref.medium.poisoned_lines
                assert fast.instruction_count == ref.instruction_count
                if tracers is not None:
                    assert tracers[0].events == tracers[1].events
                fast = PMachine.from_image(
                    image, poisoned_lines=poisoned, **machine_config()
                )
                ref = ReferenceMachine.from_image(
                    image, poisoned_lines=poisoned, **machine_config()
                )
                tracers = traced_pair((fast, ref), trace_loads)
                continue
            assert outcome(fast, op) == outcome(ref, op), op
            assert machine_state(fast) == machine_state(ref), op
        assert fast.instruction_count == ref.instruction_count
        assert fast.steps == ref.steps
        if tracers is not None:
            assert tracers[0].events == tracers[1].events
        assert fast.crash_image() == ref.crash_image()
        assert fast.graceful_crash_image() == ref.graceful_crash_image()


    @settings(deadline=None, max_examples=120)
    @given(
        st.lists(hot_line_op, min_size=20, max_size=80),
        st.sampled_from(["lru", "random"]),
        st.integers(0, 50),
        st.integers(1, 4),
    )
    def test_in_place_stores_evict_the_same_victims(
        self, script, policy, seed, capacity
    ):
        """Stores into cached lines are written in place; the cache's
        recency order, its victims and their write-backs, and the medium
        stay the reference's after every op, under LRU and random
        eviction."""
        fast, ref = (
            cls(pm_size=FLAT_SIZE, cache_capacity=capacity,
                eviction=eviction(policy, seed))
            for cls in (PMachine, ReferenceMachine)
        )
        for op in script:
            assert outcome(fast, op) == outcome(ref, op), op
            assert machine_state(fast) == machine_state(ref), op

    @settings(deadline=None, max_examples=120)
    @given(st.lists(weak_flush_op, min_size=10, max_size=80))
    def test_weak_flushes_buffer_the_same_snapshots(self, script):
        """A weak flush snapshots its line and cleans it: the buffered
        snapshots, their order and opcodes, and every line's dirty mask
        are the reference's after every op."""
        fast = PMachine(pm_size=FLAT_SIZE, **machine_config())
        ref = ReferenceMachine(pm_size=FLAT_SIZE, **machine_config())
        for op in script:
            assert outcome(fast, op) == outcome(ref, op), op
            assert machine_state(fast) == machine_state(ref), op

    @settings(deadline=None, max_examples=80)
    @given(
        st.lists(fast_path_op, min_size=1, max_size=20),
        st.one_of(st.none(), st.integers(0, 300)),
        st.one_of(st.none(), st.integers(0, 300)),
    )
    def test_armed_watchdog_trips_at_the_same_step(
        self, script, step_limit, deadline_op
    ):
        """Armed with a step limit, a deadline or both, the machine
        raises the reference's error at the reference's step, and keeps
        doing so on every later op.  The clock reads the op's index, so
        a deadline passes at op ``deadline_op``."""
        ops = (script * (320 // len(script) + 1))[:320]
        now = [0.0]
        clock = types.SimpleNamespace(monotonic=lambda: now[0])
        fast = PMachine(pm_size=FLAT_SIZE, **machine_config())
        ref = ReferenceMachine(pm_size=FLAT_SIZE, **machine_config())
        deadline = None if deadline_op is None else deadline_op - 0.5
        for machine in (fast, ref):
            machine.arm_watchdog(step_limit=step_limit, deadline=deadline)
        with mock.patch.object(machine_module, "time", clock):
            for index, op in enumerate(ops):
                now[0] = float(index)
                assert outcome(fast, op) == outcome(ref, op), (index, op)
                assert fast.steps == ref.steps

    @settings(deadline=None, max_examples=60)
    @given(st.lists(fast_path_op, max_size=40), st.integers(0, 30))
    def test_a_hook_may_remove_itself_mid_dispatch(self, script, calls):
        """A hook that removes itself after ``calls + 1`` events stops
        seeing events at once, while the hooks around it see every event,
        the one it left on included."""
        logs = []
        for cls in (PMachine, ReferenceMachine):
            machine = cls(pm_size=FLAT_SIZE, **machine_config())
            before, after = MinimalTracer(), MinimalTracer()
            seen = []

            def quitter(event, machine, seen=seen):
                seen.append(event)
                if len(seen) > calls:
                    machine.remove_hook(quitter)

            for hook in (before, quitter, after):
                machine.add_hook(hook)
            for op in script:
                outcome(machine, op)
            assert after.events == before.events
            assert seen == before.events[:calls + 1]
            logs.append((before.events, seen, machine.instruction_count))
        assert logs[0] == logs[1]


class _CountingEvent(MemoryEvent):
    """Counts constructions: a tuple is built by ``__new__`` alone."""

    built = 0

    def __new__(cls, *args, **kwargs):
        _CountingEvent.built += 1
        return super().__new__(cls, *args, **kwargs)


def _rbtree():
    from repro.apps.rbtree import RBTree

    return RBTree(bugs=())


def _mid_transaction_image():
    """A graceful crash image of rbtree cut at instruction 300: its
    recovery rolls an undo log back, so it stores, flushes and fences."""
    from repro.errors import CrashInjected
    from repro.instrument import run_instrumented
    from repro.workloads import generate_workload

    def cut(event, machine):
        if event.seq == 300:
            raise CrashInjected(event.seq)

    artifacts = run_instrumented(
        _rbtree, generate_workload(40, seed=3), hooks=[cut]
    )
    assert artifacts.injected is not None
    return artifacts.machine.graceful_crash_image()


def test_hook_free_recovery_builds_no_event(monkeypatch):
    from repro.core.oracle import RecoveryStatus, run_recovery

    image = _mid_transaction_image()
    monkeypatch.setattr("repro.pmem.machine.MemoryEvent", _CountingEvent)
    _CountingEvent.built = 0

    outcome = run_recovery(_rbtree, image)
    assert outcome.status is RecoveryStatus.OK
    assert _CountingEvent.built == 0

    bare = PMachine.from_image(image)
    _rbtree().recover(bare)
    assert _CountingEvent.built == 0
    hooked = PMachine.from_image(image)
    tracer = MinimalTracer()
    hooked.add_hook(tracer)
    _rbtree().recover(hooked)
    # The hook-free machine counted every instruction the hooked one
    # showed its hook, and built none of the events.
    assert hooked.instruction_count == bare.instruction_count > 0
    assert _CountingEvent.built == len(tracer.events) == bare.instruction_count
