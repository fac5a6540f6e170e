"""Hypothesis property tests over the machine's persistency semantics."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import MediaError, OutOfBoundsError
from repro.pmem import CACHE_LINE_SIZE, PMachine
from repro.pmem.cache import LRUEviction, RandomEviction
from repro.pmem.constants import cache_lines_spanned
from repro.pmem.incremental import MaterialisedImage

PM_SIZE = 32 * 1024

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
    @given(st.lists(op_strategy, max_size=50))
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
    @given(st.lists(op_strategy, max_size=50))
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
    @given(st.lists(op_strategy, max_size=50))
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
    @given(st.lists(op_strategy, max_size=40))
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


class TestEvictionProperties:
    @settings(deadline=None, max_examples=30)
    @given(
        st.lists(op_strategy, max_size=60),
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
    @given(st.lists(op_strategy, min_size=1, max_size=60), st.integers(0, 50))
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
    return {"cache_capacity": 4, "eviction": LRUEviction()}


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
    @given(st.lists(medium_op, max_size=60))
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
