"""Differential test battery for the incremental crash-image engine.

The contract under test (``repro.pmem.incremental``'s module docstring):
the production O(T) engine is *byte-for-byte equivalent* to the replay
reference in ``repro.pmem.crashsim`` —

* :meth:`IncrementalImageEngine.image_at` ≡ :func:`prefix_image` at every
  failure point, regardless of query order;
* :class:`IncrementalHistoryIndex` ≡ :func:`build_line_histories` (same
  line set, same stores, same mandatory frontier, same candidate cuts)
  at every failure point, from one shared pass;
* :class:`AdversarialImageFactory` plans and materialises *identical*
  variants (data, poison sets, ids) under ``--image-engine incremental``
  and ``--image-engine replay``, for the torn, reorder, and media
  families, under the same ``--fault-seed``;
* the checkout/release snapshot pool reconciles recovery-dirtied pooled
  buffers back to the exact prefix image (copy-on-write bookkeeping).

Traces are randomized (hypothesis drives the generator seeds and explicit
op scripts) so the equivalence is exercised across overlapping stores,
NT stores, weak flushes, fences, and RMW fence semantics — not just the
happy paths the campaigns happen to produce.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OutOfBoundsError
from repro.pmem.constants import CACHE_LINE_SIZE
from repro.pmem.crashsim import build_line_histories, prefix_image
from repro.pmem.events import MemoryEvent, Opcode
from repro.pmem.faultmodel import (
    AdversarialImageFactory,
    FaultModelConfig,
)
from repro.pmem.incremental import (
    ENGINE_IMAGE_INCREMENTAL,
    ENGINE_IMAGE_REPLAY,
    IMAGE_ENGINES,
    DeltaJournal,
    ImageEngineStats,
    IncrementalHistoryIndex,
    IncrementalImageEngine,
    MaterialisedImage,
    validate_image_engine,
)
from repro.pmem.machine import VOLATILE_BASE, PMachine
from repro.pmem.medium import Medium

SIZE = 1024

STORE_OPS = (Opcode.STORE, Opcode.NT_STORE, Opcode.RMW)
FLUSH_OPS = (Opcode.CLFLUSH, Opcode.CLFLUSHOPT, Opcode.CLWB)
FENCE_OPS = (Opcode.SFENCE, Opcode.MFENCE)


# --------------------------------------------------------------------- #
# randomized trace generation
# --------------------------------------------------------------------- #


def make_trace(seed, n_events=120, size=SIZE):
    """A random but well-formed PM trace over a small region.

    Mixes overlapping stores of every kind (including multi-line and
    multi-atomic-unit ones — the torn model's candidates), strong and
    weak flushes, fences, and the occasional volatile-region store that
    every crash-image path must ignore.
    """
    rng = random.Random(seed)
    events = []
    seq = 0
    for _ in range(n_events):
        seq += 1
        roll = rng.random()
        if roll < 0.55:
            op = STORE_OPS[rng.randrange(len(STORE_OPS))]
            length = rng.choice((1, 4, 8, 16, 24, 32))
            if rng.random() < 0.05:
                address = VOLATILE_BASE + rng.randrange(0, 256)
            else:
                address = rng.randrange(0, size - 32)
            data = bytes(rng.randrange(256) for _ in range(length))
            events.append(
                MemoryEvent(seq, op, address=address, size=length, data=data)
            )
        elif roll < 0.85:
            op = FLUSH_OPS[rng.randrange(len(FLUSH_OPS))]
            address = rng.randrange(0, size)
            events.append(
                MemoryEvent(seq, op, address=address, size=CACHE_LINE_SIZE)
            )
        else:
            events.append(
                MemoryEvent(seq, FENCE_OPS[rng.randrange(len(FENCE_OPS))])
            )
    return events


def make_initial(seed, size=SIZE):
    rng = random.Random(seed ^ 0x5EED)
    return bytes(rng.randrange(256) for _ in range(size))


def fail_seqs(trace, stride=3):
    """A spread of failure points: every ``stride``-th event seq, plus
    the boundaries (before the first event, past the last)."""
    seqs = sorted({event.seq for event in trace})
    points = set(seqs[::stride])
    points.update((0, seqs[0], seqs[-1] + 1))
    return sorted(points)


#: Explicit op scripts (hypothesis shrinks these into minimal
#: counterexamples far better than generator seeds).
op_entry = st.tuples(
    st.sampled_from(
        ["store", "nt", "rmw", "clflush", "clflushopt", "clwb",
         "sfence", "mfence"]
    ),
    st.integers(0, 7),    # cache-line slot
    st.integers(0, 56),   # offset within the line
    st.integers(1, 32),   # store length
    st.integers(0, 255),  # byte value
)


def trace_from_script(script):
    events = []
    for seq, (kind, slot, offset, length, value) in enumerate(script, 1):
        address = slot * CACHE_LINE_SIZE + offset
        if kind in ("store", "nt", "rmw"):
            op = {"store": Opcode.STORE, "nt": Opcode.NT_STORE,
                  "rmw": Opcode.RMW}[kind]
            data = bytes((value + i) & 0xFF for i in range(length))
            events.append(
                MemoryEvent(seq, op, address=address, size=length, data=data)
            )
        elif kind in ("clflush", "clflushopt", "clwb"):
            op = {"clflush": Opcode.CLFLUSH,
                  "clflushopt": Opcode.CLFLUSHOPT,
                  "clwb": Opcode.CLWB}[kind]
            events.append(
                MemoryEvent(seq, op, address=address, size=CACHE_LINE_SIZE)
            )
        else:
            op = Opcode.SFENCE if kind == "sfence" else Opcode.MFENCE
            events.append(MemoryEvent(seq, op))
    return events


# --------------------------------------------------------------------- #
# prefix-image equivalence
# --------------------------------------------------------------------- #


class TestPrefixEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_in_order_queries_match_replay(self, seed):
        initial = make_initial(seed)
        trace = make_trace(seed)
        engine = IncrementalImageEngine(initial, trace)
        for fs in fail_seqs(trace):
            assert engine.image_at(fs) == prefix_image(initial, trace, fs)
        # A forward-only sweep never falls back to a full rebuild.
        assert engine.stats.full_rebuilds == 0

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), order_seed=st.integers(0, 100))
    def test_random_order_queries_match_replay(self, seed, order_seed):
        initial = make_initial(seed)
        trace = make_trace(seed)
        engine = IncrementalImageEngine(initial, trace)
        points = fail_seqs(trace)
        random.Random(order_seed).shuffle(points)
        for fs in points:
            assert engine.image_at(fs) == prefix_image(initial, trace, fs)

    @settings(max_examples=25, deadline=None)
    @given(script=st.lists(op_entry, min_size=1, max_size=60))
    def test_script_traces_match_replay(self, script):
        initial = make_initial(1)
        trace = trace_from_script(script)
        engine = IncrementalImageEngine(initial, trace)
        for fs in fail_seqs(trace, stride=1):
            assert engine.image_at(fs) == prefix_image(initial, trace, fs)

    def test_backward_query_rebuilds(self):
        initial = make_initial(3)
        trace = make_trace(3)
        engine = IncrementalImageEngine(initial, trace)
        last = trace[-1].seq + 1
        assert engine.image_at(last) == prefix_image(initial, trace, last)
        assert engine.image_at(5) == prefix_image(initial, trace, 5)
        assert engine.stats.full_rebuilds == 1
        assert engine.image_at(last) == prefix_image(initial, trace, last)

    def test_volatile_writes_never_reach_the_image(self):
        initial = bytes(SIZE)
        trace = [
            MemoryEvent(1, Opcode.STORE, address=VOLATILE_BASE + 8,
                        size=4, data=b"\xff" * 4),
            MemoryEvent(2, Opcode.STORE, address=0, size=4, data=b"abcd"),
        ]
        engine = IncrementalImageEngine(initial, trace)
        image = engine.image_at(3)
        assert image[:4] == b"abcd"
        assert image == prefix_image(initial, trace, 3)


# --------------------------------------------------------------------- #
# delta journal
# --------------------------------------------------------------------- #


class TestDeltaJournal:
    def test_filters_match_apply_write_semantics(self):
        trace = [
            MemoryEvent(1, Opcode.STORE, address=0, size=4, data=b"abcd"),
            MemoryEvent(2, Opcode.CLFLUSH, address=0, size=CACHE_LINE_SIZE),
            MemoryEvent(3, Opcode.SFENCE),
            MemoryEvent(4, Opcode.STORE, address=VOLATILE_BASE,
                        size=4, data=b"zzzz"),
            MemoryEvent(5, Opcode.NT_STORE, address=8, size=4, data=b"wxyz"),
        ]
        journal = DeltaJournal(trace)
        assert journal.write_count == 2  # flush/fence/volatile filtered

    def test_apply_range_is_half_open_and_counts_bytes(self):
        trace = [
            MemoryEvent(1, Opcode.STORE, address=0, size=4, data=b"aaaa"),
            MemoryEvent(3, Opcode.STORE, address=4, size=2, data=b"bb"),
            MemoryEvent(5, Opcode.STORE, address=0, size=4, data=b"cccc"),
        ]
        journal = DeltaJournal(trace)
        buffer = bytearray(8)
        assert journal.apply_range(buffer, 0, 5) == 6
        assert bytes(buffer) == b"aaaabb\x00\x00"
        assert journal.apply_range(buffer, 5, 6) == 4
        assert bytes(buffer) == b"ccccbb\x00\x00"
        assert journal.apply_range(buffer, 6, 100) == 0

    def test_out_of_bounds_write_raises(self):
        trace = [
            MemoryEvent(1, Opcode.STORE, address=SIZE - 2, size=4,
                        data=b"abcd"),
        ]
        journal = DeltaJournal(trace)
        with pytest.raises(OutOfBoundsError):
            journal.apply_range(bytearray(SIZE), 0, 2)

    def test_engine_validation(self):
        assert validate_image_engine(ENGINE_IMAGE_REPLAY) == "replay"
        assert validate_image_engine(ENGINE_IMAGE_INCREMENTAL) == "incremental"
        assert set(IMAGE_ENGINES) == {"replay", "incremental"}
        with pytest.raises(ValueError):
            validate_image_engine("magic")


# --------------------------------------------------------------------- #
# history-index equivalence (one pass vs per-point replay)
# --------------------------------------------------------------------- #


class TestHistoryIndexEquivalence:
    def assert_index_matches(self, initial, trace):
        index = IncrementalHistoryIndex(trace, len(initial))
        for fs in fail_seqs(trace, stride=1):
            replay = build_line_histories(trace, fs)
            replay_lines = sorted(replay.values(), key=lambda h: h.base)
            views = index.lines_at(fs)
            assert [v.base for v in views] == [h.base for h in replay_lines]
            for view, line in zip(views, replay_lines):
                assert view.stores == line.stores
                assert view.mandatory_seq == line.mandatory_seq
                assert view.candidate_cut_seqs() == line.candidate_cut_seqs()
                assert view.cut_count() == len(line.candidate_cut_seqs())
                # render() equivalence at every candidate cut.
                for cut in line.candidate_cut_seqs():
                    a, b = bytearray(initial), bytearray(initial)
                    view.render(a, cut)
                    line.render(b, cut)
                    assert a == b

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_traces(self, seed):
        self.assert_index_matches(make_initial(seed), make_trace(seed, 80))

    @settings(max_examples=15, deadline=None)
    @given(script=st.lists(op_entry, min_size=1, max_size=40))
    def test_script_traces(self, script):
        self.assert_index_matches(make_initial(1), trace_from_script(script))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_torn_candidates_match_replay_analysis(self, seed):
        initial = make_initial(seed)
        trace = make_trace(seed)
        index = IncrementalHistoryIndex(trace, len(initial))
        replay = AdversarialImageFactory(
            FaultModelConfig(model="adversarial"), initial, trace,
            image_engine=ENGINE_IMAGE_REPLAY,
        )
        for fs in fail_seqs(trace):
            replay._analyse(fs)
            expected = [e.seq for e in replay._cache_candidates]
            got = [e.seq for e in index.torn_candidates_at(fs)]
            assert got == expected, f"torn candidates diverge at seq {fs}"
            assert (
                list(index.written_lines_at(fs))
                == replay._cache_written_lines
            )

    def test_torn_candidates_backward_query_resets(self):
        seed = 11
        initial = make_initial(seed)
        trace = make_trace(seed)
        index = IncrementalHistoryIndex(trace, len(initial))
        points = fail_seqs(trace)
        high, low = points[-1], points[len(points) // 2]
        replay = AdversarialImageFactory(
            FaultModelConfig(model="torn"), initial, trace,
            image_engine=ENGINE_IMAGE_REPLAY,
        )
        index.torn_candidates_at(high)
        got = [e.seq for e in index.torn_candidates_at(low)]
        replay._analyse(low)
        assert got == [e.seq for e in replay._cache_candidates]


# --------------------------------------------------------------------- #
# fault-model variant equivalence across engines
# --------------------------------------------------------------------- #


def paired_factories(config, initial, trace):
    return (
        AdversarialImageFactory(
            config, initial, trace, image_engine=ENGINE_IMAGE_REPLAY
        ),
        AdversarialImageFactory(
            config, initial, trace, image_engine=ENGINE_IMAGE_INCREMENTAL
        ),
    )


class TestFactoryEquivalence:
    def assert_factories_agree(self, config, initial, trace):
        replay, incremental = paired_factories(config, initial, trace)
        for fs in fail_seqs(trace):
            plan_r = replay.plan(fs)
            plan_i = incremental.plan(fs)
            assert plan_r == plan_i, f"plans diverge at seq {fs}"
            for variant in ["prefix"] + plan_r:
                img_r = replay.materialise(fs, variant)
                img_i = incremental.materialise(fs, variant)
                assert img_r.variant == img_i.variant
                assert img_r.poisoned_lines == img_i.poisoned_lines
                assert img_r.data == img_i.data, (
                    f"{variant} image diverges at seq {fs}"
                )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_torn_variants(self, seed):
        self.assert_factories_agree(
            FaultModelConfig(model="torn", samples=3, seed=7),
            make_initial(seed), make_trace(seed, 80),
        )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_reorder_variants(self, seed):
        self.assert_factories_agree(
            FaultModelConfig(model="reorder", samples=3, seed=7),
            make_initial(seed), make_trace(seed, 80),
        )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_adversarial_all_families(self, seed):
        self.assert_factories_agree(
            FaultModelConfig(model="adversarial", samples=2, seed=13),
            make_initial(seed), make_trace(seed, 80),
        )

    @settings(max_examples=10, deadline=None)
    @given(script=st.lists(op_entry, min_size=4, max_size=40))
    def test_adversarial_script_traces(self, script):
        self.assert_factories_agree(
            FaultModelConfig(model="adversarial", samples=2, seed=5),
            make_initial(1), trace_from_script(script),
        )

    def test_torn_with_supplied_prefix_image(self):
        """The campaign's image source hands the engine's prefix image
        to ``materialise``; the result must not depend on that
        shortcut."""
        seed = 4
        initial = make_initial(seed)
        trace = make_trace(seed)
        config = FaultModelConfig(model="torn", samples=3, seed=7)
        replay, incremental = paired_factories(config, initial, trace)
        engine = IncrementalImageEngine(initial, trace)
        for fs in fail_seqs(trace):
            prefix = engine.image_at(fs)
            for variant in incremental.plan(fs):
                with_hint = incremental.materialise(
                    fs, variant, prefix_image=prefix
                )
                without = replay.materialise(fs, variant)
                assert with_hint.data == without.data

    def test_incremental_factory_builds_one_history_pass(self):
        seed = 9
        initial = make_initial(seed)
        trace = make_trace(seed)
        stats = ImageEngineStats()
        factory = AdversarialImageFactory(
            FaultModelConfig(model="adversarial", samples=2, seed=3),
            initial, trace,
            image_engine=ENGINE_IMAGE_INCREMENTAL, stats=stats,
        )
        for fs in fail_seqs(trace):
            for variant in factory.plan(fs):
                factory.materialise(fs, variant)
        assert stats.history_passes == 1


# --------------------------------------------------------------------- #
# snapshot pool: checkout / recovery dirt / release reconciliation
# --------------------------------------------------------------------- #


class TestSnapshotPool:
    def checkout_recover_release(self, engine, fs, dirt_seed):
        """Simulate one oracle round trip: checkout, adopt into a medium,
        scribble recovery dirt through it, release."""
        image = engine.checkout(fs)
        medium = Medium(buffer=image.pm_buffer)
        image.on_adopted(medium)
        rng = random.Random(dirt_seed)
        for _ in range(rng.randrange(1, 6)):
            address = rng.randrange(0, SIZE - 16)
            medium.write(
                address, bytes(rng.randrange(256) for _ in range(16))
            )
        engine.release(image)
        return image

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_reconciliation_restores_exact_prefix(self, seed):
        initial = make_initial(seed)
        trace = make_trace(seed)
        engine = IncrementalImageEngine(initial, trace, pool_size=1)
        for i, fs in enumerate(fail_seqs(trace)):
            image = engine.checkout(fs)
            assert bytes(image) == prefix_image(initial, trace, fs), (
                f"pooled image diverges at seq {fs}"
            )
            medium = Medium(buffer=image.pm_buffer)
            image.on_adopted(medium)
            rng = random.Random(seed * 1000 + i)
            for _ in range(rng.randrange(0, 5)):
                address = rng.randrange(0, SIZE - 16)
                medium.write(
                    address, bytes(rng.randrange(256) for _ in range(16))
                )
            engine.release(image)
        stats = engine.stats
        assert stats.pool_misses == 1  # first checkout only
        assert stats.pool_hits == stats.images - 1

    def test_full_restore_dirt_is_reconciled(self):
        """``Medium.restore`` (recovery rebuilding the whole pool) logs
        the full range; the next checkout must still be exact."""
        seed = 21
        initial = make_initial(seed)
        trace = make_trace(seed)
        engine = IncrementalImageEngine(initial, trace)
        points = fail_seqs(trace)
        image = engine.checkout(points[1])
        medium = Medium(buffer=image.pm_buffer)
        image.on_adopted(medium)
        medium.restore(b"\xde" * SIZE)
        engine.release(image)
        fresh = engine.checkout(points[2])
        assert bytes(fresh) == prefix_image(initial, trace, points[2])
        assert engine.stats.dirty_bytes_restored >= SIZE

    def test_abandoned_buffers_are_leaked(self):
        seed = 22
        initial = make_initial(seed)
        trace = make_trace(seed)
        engine = IncrementalImageEngine(initial, trace, pool_size=2)
        points = fail_seqs(trace)
        image = engine.checkout(points[1])
        buffer = image.pm_buffer
        image.abandon()
        engine.release(image)  # must not return to the pool
        fresh = engine.checkout(points[2])
        assert fresh.pm_buffer is not buffer
        assert engine.stats.pool_misses == 2
        assert bytes(fresh) == prefix_image(initial, trace, points[2])
        # A zombie write to the abandoned buffer cannot corrupt anything.
        buffer[0] ^= 0xFF
        assert bytes(fresh) == prefix_image(initial, trace, points[2])

    def test_out_of_order_checkout_rebuilds(self):
        """A requeued task can ask for an *earlier* failure point than
        the pooled buffer's version; reconciliation must not run
        backwards — the buffer is rebuilt from the running image."""
        seed = 23
        initial = make_initial(seed)
        trace = make_trace(seed)
        engine = IncrementalImageEngine(initial, trace, pool_size=1)
        points = fail_seqs(trace)
        high, low = points[-1], points[1]
        engine.release(engine.checkout(high))
        image = engine.checkout(low)
        assert bytes(image) == prefix_image(initial, trace, low)

    def test_release_none_and_pool_cap(self):
        seed = 24
        initial = make_initial(seed)
        trace = make_trace(seed)
        engine = IncrementalImageEngine(initial, trace, pool_size=2)
        engine.release(None)  # no-op
        fs = fail_seqs(trace)[1]
        images = [engine.checkout(fs) for _ in range(3)]
        for image in images:
            engine.release(image)
        assert len(engine._pool) == 2  # capped at pool_size

    def test_machine_adopts_pooled_buffer_without_copy(self):
        """``PMachine.from_image`` must build the medium *around* the
        pooled buffer (zero copy) and register the write log."""
        seed = 25
        initial = make_initial(seed)
        trace = make_trace(seed)
        engine = IncrementalImageEngine(initial, trace)
        fs = fail_seqs(trace)[2]
        image = engine.checkout(fs)
        machine = PMachine.from_image(image)
        machine.store(0, b"\xaa\xbb")
        machine.clflush(0)
        machine.sfence()
        # Zero copy: the store went straight into the pooled buffer...
        assert image.pm_buffer[0:2] == bytearray(b"\xaa\xbb")
        # ...and the write log captured it for reconciliation.
        dirty = image.consume_dirty()
        assert any(address == 0 for address, _ in dirty)

    def test_materialised_image_bytes_protocol(self):
        image = MaterialisedImage(bytearray(b"abcd"), version=3)
        assert len(image) == 4
        assert bytes(image) == b"abcd"
        assert image.tobytes() == b"abcd"
        assert image.consume_dirty() == []
        image.reset(9)
        assert image.version == 9
