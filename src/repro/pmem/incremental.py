"""The incremental crash-image engine (crashsim's O(T) hot path).

:mod:`repro.pmem.crashsim` defines crash-image *semantics* by replay:
:func:`~repro.pmem.crashsim.prefix_image` re-applies the whole trace for
every failure point, and
:func:`~repro.pmem.crashsim.build_line_histories` re-simulates the
persistence state machine per query.  Both are O(T) *per failure point*,
making an injection campaign O(T²) in trace length — the exact per-crash-
state cost blow-up that motivates Mumak over Yat/Witcher-style tools.

This module is the production engine: one forward pass over the trace,
shared by every consumer, with replay kept as the differential-testing
reference (``--image-engine replay``).  Three pieces:

* :class:`IncrementalImageEngine` — maintains one running prefix image
  and a :class:`DeltaJournal` (the trace's PM writes, indexed by seq).
  Moving between consecutive failure points applies only the writes in
  between: O(changed bytes), not O(T).
* :class:`SnapshotPool` semantics, built into the engine's
  :meth:`~IncrementalImageEngine.checkout`/:meth:`~IncrementalImageEngine.release`
  cycle — recovery runs against pooled copy-on-write buffers.  The
  recovered machine adopts the pooled buffer *without copying*
  (:meth:`~repro.pmem.machine.PMachine.from_image` duck-types on
  :attr:`MaterialisedImage.pm_buffer`) and logs every medium write.
  Torn, reorder and media variants are patches on the same buffer; on
  the next checkout only the patched and recovery-dirtied ranges are
  restored from the pristine running image and the inter-failure-point
  deltas re-applied.  A full ``bytearray`` copy happens once per pooled
  buffer, not once per injection or variant.
* :class:`IncrementalHistoryIndex` — one O(T) pass computing, per cache
  line, the full store history and the mandatory-durability step
  function, so torn/reorder/media fault-model variants all consume the
  same pass instead of re-running ``build_line_histories`` per variant.

Everything here is *proved equivalent* to the replay reference by the
differential test battery (``tests/pmem/test_image_engine.py``):
byte-identical images at every failure point, for every fault-model
variant, under the same ``--fault-seed``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right, insort
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.pmem.constants import (
    ATOMIC_WRITE_SIZE,
    CACHE_LINE_SIZE,
    cache_lines_spanned,
)
from repro.pmem.crashsim import apply_write
from repro.pmem.events import STORES, MemoryEvent, Opcode
from repro.pmem.machine import VOLATILE_BASE

#: Image-engine names (the CLI's ``--image-engine`` vocabulary).
ENGINE_IMAGE_INCREMENTAL = "incremental"
ENGINE_IMAGE_REPLAY = "replay"
IMAGE_ENGINES = (ENGINE_IMAGE_REPLAY, ENGINE_IMAGE_INCREMENTAL)


def validate_image_engine(engine: str) -> str:
    if engine not in IMAGE_ENGINES:
        raise ValueError(
            f"unknown image engine {engine!r}; choose from {IMAGE_ENGINES}"
        )
    return engine


# --------------------------------------------------------------------- #
# accounting
# --------------------------------------------------------------------- #


@dataclass
class ImageEngineStats:
    """What the image engine did, in bytes and images.

    ``bytes_copied`` counts full-buffer copies (replay rebuilds, pool
    misses); ``delta_bytes_applied`` counts journal bytes applied between
    failure points; ``dirty_bytes_restored`` counts recovery-dirtied
    bytes undone on pooled buffers.  For the incremental engine the sum
    of the latter two is the O(changed bytes) cost the tentpole claims;
    for the replay reference ``bytes_copied`` grows as O(P·S) and
    ``delta_bytes_applied`` as O(P·T).  The campaign record nests these
    counters and publishes them as ``image_engine_*{engine}``.
    """

    images: int = 0
    bytes_copied: int = 0
    delta_bytes_applied: int = 0
    dirty_bytes_restored: int = 0
    full_rebuilds: int = 0
    pool_hits: int = 0
    pool_misses: int = 0
    #: Full persistence-state-machine passes (replay reference only;
    #: the incremental index performs exactly one, at construction).
    history_passes: int = 0


# --------------------------------------------------------------------- #
# the delta journal
# --------------------------------------------------------------------- #


class DeltaJournal:
    """Seq-indexed view of one trace's persistent writes.

    The journal stores *references* into the recorded trace (no byte is
    copied); ``apply_range`` replays exactly the writes with
    ``from_seq <= seq < to_seq`` onto a buffer — the per-failure-point
    delta that makes consecutive materialisations O(changed bytes).

    Filtering matches :func:`~repro.pmem.crashsim.apply_write` semantics
    exactly: volatile-region and data-less events are skipped, while
    out-of-bounds PM writes still raise through ``apply_write`` (a trace
    containing one is corrupt and must not silently produce images).
    """

    def __init__(self, trace: Sequence[MemoryEvent]):
        self._writes: List[MemoryEvent] = [
            event
            for event in trace
            if event.opcode in STORES
            and event.data is not None
            and event.address is not None
            and event.address < VOLATILE_BASE
        ]
        self._seqs: List[int] = [event.seq for event in self._writes]

    @property
    def write_count(self) -> int:
        return len(self._writes)

    def apply_range(self, buffer: bytearray, from_seq: int, to_seq: int) -> int:
        """Apply writes with ``from_seq <= seq < to_seq``; returns bytes."""
        lo = bisect_left(self._seqs, from_seq)
        hi = bisect_left(self._seqs, to_seq)
        applied = 0
        for event in self._writes[lo:hi]:
            apply_write(buffer, event)
            applied += len(event.data)
        return applied


# --------------------------------------------------------------------- #
# pooled copy-on-write image views
# --------------------------------------------------------------------- #


class MaterialisedImage:
    """A mutable, pool-backed crash image handed to the recovery oracle.

    :attr:`pm_buffer` is the adoption hook:
    :meth:`~repro.pmem.machine.PMachine.from_image` detects it and builds
    the recovered medium *around* the buffer (no copy), registering a
    write log through :meth:`on_adopted` so the pool can later undo
    exactly the ranges recovery dirtied.

    ``version`` is the failure-point seq whose prefix image the buffer
    held when checked out; together with the write log it is the
    copy-on-write bookkeeping the engine reconciles on reuse.

    An adversarial variant is a *patch* on the checked-out prefix image
    (:meth:`repro.pmem.faultmodel.AdversarialImageFactory.materialise`):
    the factory records every range it rewrites through :meth:`patched`
    and sets :attr:`poisoned_lines` for a media variant, and the next
    checkout reverts the patch together with the recovery writes.

    The buffer may hold only the low bytes of the image: ``size`` is the
    image's logical size (the pool's), every byte above the buffer is
    zero, and ``len()`` and ``bytes()`` are those of the full logical
    image.  Recovery may grow the buffer past where it started (the
    adopting medium backs every write); the next checkout cuts it back.
    """

    __slots__ = ("pm_buffer", "size", "version", "abandoned",
                 "poisoned_lines", "_write_log", "_patches")

    def __init__(
        self, buffer: bytearray, version: int, size: Optional[int] = None
    ):
        self.pm_buffer = buffer
        self.size = len(buffer) if size is None else size
        self.version = version
        self.abandoned = False
        #: Poisoned cache-line bases of the media variant patched on.
        self.poisoned_lines: Tuple[int, ...] = ()
        self._write_log: Optional[List[Tuple[int, int]]] = None
        self._patches: List[Tuple[int, int]] = []

    # -- factory-side protocol ----------------------------------------- #

    def patched(self, address: int, length: int) -> None:
        """Record that a variant patch rewrites ``[address,
        address+length)`` of the prefix image."""
        self._patches.append((address, length))

    # -- oracle-side protocol ------------------------------------------ #

    def on_adopted(self, medium) -> None:
        """Called by ``PMachine.from_image`` when a medium adopts the
        buffer; starts the medium's write log."""
        self._write_log = medium.start_write_log()

    def abandon(self) -> None:
        """Mark the buffer as unsafe to reuse (an abandoned watchdog
        thread may still be writing it); the pool will leak it."""
        self.abandoned = True

    # -- pool-side protocol -------------------------------------------- #

    def consume_dirty(self) -> List[Tuple[int, int]]:
        """Every range that differs from the prefix image at
        :attr:`version`: the variant patch plus the recovery writes."""
        ranges = self._patches + (self._write_log or [])
        self._write_log = None
        self._patches = []
        return ranges

    def reset(self, version: int) -> None:
        # The next task may be a prefix one: it must not inherit this
        # variant's poison set (a wrong digest and verdict).
        self.version = version
        self.poisoned_lines = ()
        self._write_log = None
        self._patches = []

    # -- bytes-like conveniences --------------------------------------- #

    def __len__(self) -> int:
        return self.size

    def __bytes__(self) -> bytes:
        return bytes(self.pm_buffer).ljust(self.size, b"\0")

    tobytes = __bytes__


class IncrementalImageEngine:
    """Single-forward-pass prefix-image materialiser with a snapshot pool.

    ``advance(seq)`` moves the running image to the program-order prefix
    at ``seq`` by applying only the journal deltas in between (a backward
    move falls back to one full rebuild).  ``image_at`` returns immutable
    bytes (compat API); ``checkout``/``release`` hand out pooled mutable
    buffers for the oracle to recover against and reconcile them on
    reuse.

    ``initial`` may hold only the low bytes of the pool, as long as it
    reaches the end of every write in ``trace`` (the campaign passes
    its persisted-write extent): the running image and every pooled
    buffer are then that long, and ``image_size`` (default
    ``len(initial)``) is the logical size the images report.

    Not thread-safe: a campaign's image source owns one engine per
    detection run.
    """

    def __init__(
        self,
        initial: bytes,
        trace: Sequence[MemoryEvent],
        stats: Optional[ImageEngineStats] = None,
        pool_size: int = 2,
        image_size: Optional[int] = None,
    ):
        self._initial = bytes(initial)
        self._size = len(initial) if image_size is None else image_size
        self._journal = DeltaJournal(trace)
        self._running = bytearray(self._initial)
        self._version = 0
        self.stats = stats if stats is not None else ImageEngineStats()
        self._pool: List[MaterialisedImage] = []
        self._pool_size = max(1, pool_size)

    @property
    def version(self) -> int:
        return self._version

    def running_view(self) -> memoryview:
        """Read-only view of the running image (valid until ``advance``)."""
        return memoryview(self._running).toreadonly()

    def advance(self, fail_seq: int) -> None:
        """Make the running image the program-order prefix at ``fail_seq``."""
        if fail_seq < self._version:
            self._running[:] = self._initial
            self._version = 0
            self.stats.full_rebuilds += 1
            self.stats.bytes_copied += len(self._initial)
        self.stats.delta_bytes_applied += self._journal.apply_range(
            self._running, self._version, fail_seq
        )
        self._version = fail_seq

    def image_at(self, fail_seq: int) -> bytes:
        """Immutable prefix image at ``fail_seq`` (compat with
        :func:`~repro.pmem.crashsim.prefix_image`)."""
        self.advance(fail_seq)
        self.stats.images += 1
        self.stats.bytes_copied += len(self._running)
        return bytes(self._running).ljust(self._size, b"\0")

    # -- snapshot pool ------------------------------------------------- #

    def checkout(self, fail_seq: int) -> MaterialisedImage:
        """A mutable buffer holding the prefix image at ``fail_seq``.

        The fault-model factory may patch it into a variant and the
        oracle may freely mutate it (through an adopting medium); hand
        it back via :meth:`release` so the pool can reconcile and reuse
        it for the next failure point in O(changed bytes).
        """
        self.advance(fail_seq)
        self.stats.images += 1
        image = self._pool.pop() if self._pool else None
        if image is None:
            self.stats.pool_misses += 1
            self.stats.bytes_copied += len(self._running)
            return MaterialisedImage(
                bytearray(self._running), fail_seq, self._size
            )
        buffer = image.pm_buffer
        if image.version < 0 or image.version > fail_seq:
            # Out-of-order task (requeue after worker death): rebuild.
            self.stats.pool_misses += 1
            self.stats.bytes_copied += len(self._running)
            buffer[:] = self._running
        else:
            self.stats.pool_hits += 1
            running = self._running
            # Recovery writes above the running image grew the buffer.
            # Cut it back first: restoring a range that runs past the
            # running image's end from the shorter source would shrink
            # the buffer and shift every later byte.
            del buffer[len(running):]
            restored = 0
            for address, size in image.consume_dirty():
                buffer[address:address + size] = running[address:address + size]
                restored += size
            self.stats.dirty_bytes_restored += restored
            self.stats.delta_bytes_applied += self._journal.apply_range(
                buffer, image.version, fail_seq
            )
        image.reset(fail_seq)
        return image

    def release(self, image: Optional[MaterialisedImage]) -> None:
        """Return a checked-out buffer to the pool.

        Abandoned buffers (their recovery thread was given up on by the
        watchdog and may still be writing) are leaked on purpose.
        """
        if image is None or image.abandoned:
            return
        if len(self._pool) < self._pool_size:
            self._pool.append(image)


# --------------------------------------------------------------------- #
# the incremental line-history index
# --------------------------------------------------------------------- #


class _LineRecord:
    """Full-trace persistence history of one cache line."""

    __slots__ = ("base", "stores", "store_seqs", "steps", "step_seqs",
                 "step_values", "first_store_seq")

    def __init__(self, base: int):
        self.base = base
        #: (seq, offset-in-line, clipped data), trace order.
        self.stores: List[Tuple[int, int, bytes]] = []
        self.store_seqs: List[int] = []
        #: Monotone mandatory-durability step function: the i-th step
        #: becomes effective for failure points *after* ``step_seqs[i]``
        #: and raises the line's mandatory frontier to ``step_values[i]``.
        self.step_seqs: List[int] = []
        self.step_values: List[int] = []
        self.first_store_seq = -1

    def add_store(self, event: MemoryEvent) -> None:
        lo = max(self.base, event.address)
        hi = min(self.base + CACHE_LINE_SIZE, event.address + len(event.data))
        if lo < hi:
            if self.first_store_seq < 0:
                self.first_store_seq = event.seq
            self.stores.append(
                (event.seq, lo - self.base,
                 event.data[lo - event.address:hi - event.address])
            )
            self.store_seqs.append(event.seq)

    def add_step(self, event_seq: int, value: int) -> None:
        if not self.step_values or value > self.step_values[-1]:
            self.step_seqs.append(event_seq)
            self.step_values.append(value)

    def mandatory_at(self, fail_seq: int) -> int:
        """The flushed-and-fenced frontier visible at ``fail_seq``."""
        i = bisect_left(self.step_seqs, fail_seq)
        return self.step_values[i - 1] if i > 0 else -1

    def guaranteed_after(self, store_seq: int) -> Optional[int]:
        """Earliest event seq ``g`` such that any failure point with
        ``fail_seq > g`` sees ``mandatory >= store_seq`` on this line;
        ``None`` when the store is never covered by a flush+fence."""
        i = bisect_left(self.step_values, store_seq)
        if i >= len(self.step_seqs):
            return None
        return self.step_seqs[i]


class LineHistoryView:
    """A :class:`repro.pmem.crashsim._LineHistory`-compatible view of one
    line's history truncated at a failure point."""

    __slots__ = ("base", "_record", "_end", "mandatory_seq")

    def __init__(self, record: _LineRecord, end: int, mandatory_seq: int):
        self.base = record.base
        self._record = record
        self._end = end
        self.mandatory_seq = mandatory_seq

    @property
    def stores(self) -> List[Tuple[int, int, bytes]]:
        return self._record.stores[:self._end]

    def candidate_cut_seqs(self) -> List[int]:
        cuts = [self.mandatory_seq]
        record = self._record
        cuts.extend(
            seq
            for seq in record.store_seqs[:self._end]
            if seq > self.mandatory_seq
        )
        return cuts

    def cut_count(self) -> int:
        """len(candidate_cut_seqs()) without materialising the list."""
        record = self._record
        start = bisect_right(record.store_seqs, self.mandatory_seq, 0, self._end)
        return 1 + (self._end - start)

    def render(self, image: bytearray, cut_seq: int) -> None:
        record = self._record
        for seq, offset, data in record.stores[:self._end]:
            if seq > cut_seq:
                break
            address = record.base + offset
            end = min(address + len(data), len(image))
            if address < len(image):
                image[address:end] = data[: end - address]

    def stores_until(self, fail_seq: int):
        """Iterate ``(seq, offset, data)`` with ``seq < fail_seq``."""
        record = self._record
        end = bisect_left(record.store_seqs, fail_seq, 0, self._end)
        return record.stores[:end]


class IncrementalHistoryIndex:
    """One O(T) pass answering per-failure-point persistence queries.

    Differential contract (tested byte-for-byte): at every ``fail_seq``,

    * :meth:`lines_at` ≡ ``sorted(build_line_histories(trace, fail_seq))``
      — same line set, same stores, same mandatory frontier, same
      ``candidate_cut_seqs()``;
    * :meth:`torn_candidates_at` ≡ the candidate scan of
      ``AdversarialImageFactory._analyse`` (replay reference), same
      most-recent-first order;
    * :meth:`written_lines_at` ≡ the replay ``written`` set.

    One index serves every fault-model family — "prefix/torn/reorder
    consume the same pass".
    """

    def __init__(self, trace: Sequence[MemoryEvent], image_size: int):
        self._image_size = image_size
        self._records: Dict[int, _LineRecord] = {}
        #: (first-write seq, base) for media written-line queries.
        self._written_bases: List[int] = []
        self._written_seqs: List[int] = []
        #: Multi-unit, non-RMW PM stores (torn candidates) + the event
        #: seq past which each one's durability is guaranteed.
        self._torn_events: List[MemoryEvent] = []
        self._torn_guaranteed: List[Optional[int]] = []
        self._build(trace)
        # Incremental live-candidate state for in-order campaigns.
        self._cand_fail_seq = -1
        self._cand_ptr = 0
        self._cand_live: Dict[int, MemoryEvent] = {}
        self._cand_heap: List[Tuple[int, int]] = []
        # Size-1 caches (campaigns query several variants per point).
        self._lines_cache: Tuple[int, List[LineHistoryView]] = (-1, [])
        self._written_cache: Tuple[int, Tuple[int, ...]] = (-1, ())

    def fork(self) -> "IncrementalHistoryIndex":
        """A query-independent view sharing this index's built state.

        The O(T) ``_build`` products (``_records``, written/torn
        tables) are immutable after construction and safely shared; the
        mutable *query* state (candidate sweep cursor, size-1 caches)
        is private per fork.

        Nothing calls this: a campaign materialises its variants with
        the planner's own factory and index.  It stays only because the
        benchmark's layer tracer (``perfbench/tracer.py``) wraps it by
        name; delete it when the tracer stops listing it.
        """
        forked = object.__new__(IncrementalHistoryIndex)
        forked._image_size = self._image_size
        forked._records = self._records
        forked._written_bases = self._written_bases
        forked._written_seqs = self._written_seqs
        forked._torn_events = self._torn_events
        forked._torn_guaranteed = self._torn_guaranteed
        forked._cand_fail_seq = -1
        forked._cand_ptr = 0
        forked._cand_live = {}
        forked._cand_heap = []
        forked._lines_cache = (-1, [])
        forked._written_cache = (-1, ())
        return forked

    # -- construction: exactly build_line_histories, once, full trace -- #

    def _build(self, trace: Sequence[MemoryEvent]) -> None:
        records = self._records
        pending: Dict[int, int] = {}
        last_store_seq: Dict[int, int] = {}
        written_first: Dict[int, int] = {}
        torn: List[Tuple[MemoryEvent, List[int]]] = []

        def record(base: int) -> _LineRecord:
            rec = records.get(base)
            if rec is None:
                rec = records[base] = _LineRecord(base)
            return rec

        for event in trace:
            opcode = event.opcode
            address = event.address
            if opcode in (Opcode.STORE, Opcode.RMW) and address is not None:
                if address >= VOLATILE_BASE:
                    # Mirrors the replay reference exactly: volatile
                    # store/RMW events are skipped wholesale, so a
                    # volatile-address RMW does *not* commit pending
                    # weak flushes despite its fence semantics.
                    continue
                for base in cache_lines_spanned(address, event.size):
                    record(base).add_store(event)
                    last_store_seq[base] = event.seq
            elif opcode is Opcode.NT_STORE and address is not None:
                if address >= VOLATILE_BASE:
                    continue
                for base in cache_lines_spanned(address, event.size):
                    record(base).add_store(event)
                    last_store_seq[base] = event.seq
                    pending[base] = event.seq
            elif opcode is Opcode.CLFLUSH and address is not None:
                base = address & ~(CACHE_LINE_SIZE - 1)
                if base in last_store_seq:
                    record(base).add_step(event.seq, last_store_seq[base])
            elif opcode in (Opcode.CLFLUSHOPT, Opcode.CLWB) and address is not None:
                base = address & ~(CACHE_LINE_SIZE - 1)
                if base in last_store_seq:
                    pending[base] = last_store_seq[base]
            if opcode.is_fence:
                for base, seq in pending.items():
                    record(base).add_step(event.seq, seq)
                pending.clear()
            # Written-line tracking (media model; mirrors _analyse).
            if (
                opcode in STORES
                and event.data is not None
                and address is not None
                and address < VOLATILE_BASE
            ):
                spanned = cache_lines_spanned(address, len(event.data))
                for base in spanned:
                    if 0 <= base < self._image_size and base not in written_first:
                        written_first[base] = event.seq
                # Torn candidates: multi-unit, non-RMW stores.
                if (
                    opcode is not Opcode.RMW
                    and len(event.data) > ATOMIC_WRITE_SIZE
                ):
                    torn.append((event, list(spanned)))

        for base, seq in written_first.items():
            self._written_seqs.append(seq)
            self._written_bases.append(base)
        order = sorted(range(len(self._written_seqs)),
                       key=lambda i: self._written_seqs[i])
        self._written_seqs = [self._written_seqs[i] for i in order]
        self._written_bases = [self._written_bases[i] for i in order]

        for event, bases in torn:
            guaranteed: Optional[int] = -1
            for base in bases:
                g = records[base].guaranteed_after(event.seq)
                if g is None:
                    guaranteed = None
                    break
                if guaranteed is not None and g > guaranteed:
                    guaranteed = g
            self._torn_events.append(event)
            self._torn_guaranteed.append(guaranteed)

    # -- queries ------------------------------------------------------- #

    def lines_at(self, fail_seq: int) -> List[LineHistoryView]:
        """Per-line history views at ``fail_seq``, sorted by base —
        the memoized ``build_line_histories`` product."""
        if self._lines_cache[0] == fail_seq:
            return self._lines_cache[1]
        views: List[LineHistoryView] = []
        for base in sorted(self._records):
            rec = self._records[base]
            if rec.first_store_seq < 0 or rec.first_store_seq >= fail_seq:
                continue
            end = bisect_left(rec.store_seqs, fail_seq)
            if end == 0:
                continue
            views.append(LineHistoryView(rec, end, rec.mandatory_at(fail_seq)))
        self._lines_cache = (fail_seq, views)
        return views

    def line_at(self, base: int, fail_seq: int) -> Optional[LineHistoryView]:
        rec = self._records.get(base)
        if rec is None:
            return None
        end = bisect_left(rec.store_seqs, fail_seq)
        if end == 0:
            return None
        return LineHistoryView(rec, end, rec.mandatory_at(fail_seq))

    def written_lines_at(self, fail_seq: int) -> Tuple[int, ...]:
        """Sorted bases of in-bounds lines written before ``fail_seq``."""
        if self._written_cache[0] == fail_seq:
            return self._written_cache[1]
        end = bisect_left(self._written_seqs, fail_seq)
        result = tuple(sorted(self._written_bases[:end]))
        self._written_cache = (fail_seq, result)
        return result

    def torn_candidates_at(self, fail_seq: int) -> List[MemoryEvent]:
        """In-flight multi-unit stores at ``fail_seq``, newest first.

        A store is a candidate while ``store.seq < fail_seq`` and no
        completed flush+fence yet guarantees its durability.  Maintained
        incrementally (amortised O(1) per store for in-order campaigns;
        a backward query resets the sweep).
        """
        if fail_seq < self._cand_fail_seq:
            self._cand_ptr = 0
            self._cand_live.clear()
            self._cand_heap.clear()
        events, guaranteed = self._torn_events, self._torn_guaranteed
        while (
            self._cand_ptr < len(events)
            and events[self._cand_ptr].seq < fail_seq
        ):
            event = events[self._cand_ptr]
            g = guaranteed[self._cand_ptr]
            self._cand_ptr += 1
            self._cand_live[event.seq] = event
            if g is not None:
                heapq.heappush(self._cand_heap, (g, event.seq))
        while self._cand_heap and self._cand_heap[0][0] < fail_seq:
            _, seq = heapq.heappop(self._cand_heap)
            self._cand_live.pop(seq, None)
        self._cand_fail_seq = fail_seq
        return [
            self._cand_live[seq]
            for seq in sorted(self._cand_live, reverse=True)
        ]


__all__ = [
    "DeltaJournal",
    "ENGINE_IMAGE_INCREMENTAL",
    "ENGINE_IMAGE_REPLAY",
    "IMAGE_ENGINES",
    "ImageEngineStats",
    "IncrementalHistoryIndex",
    "IncrementalImageEngine",
    "LineHistoryView",
    "MaterialisedImage",
    "validate_image_engine",
]
