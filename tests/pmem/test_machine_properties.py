"""Hypothesis property tests over the machine's persistency semantics."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.pmem import CACHE_LINE_SIZE, PMachine
from repro.pmem.cache import LRUEviction, RandomEviction

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
