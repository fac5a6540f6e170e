"""Crash-state generation from recorded traces.

Two generators live here, matching the two ends of the design space the
paper discusses (section 4.1):

* :func:`prefix_image` — the state Mumak materialises: every PM store in
  *program order* before the failure point is persisted, nothing after it
  is.  This is the deterministic "graceful crash" Mumak injects, and there
  is exactly one such state per failure point.

* :func:`enumerate_reordered_images` — the space Yat explores: all
  permissible persist orderings, where each cache line may independently
  have reached the medium at any point no earlier than its last completed
  flush+fence.  The number of such states grows exponentially with the
  number of concurrently dirty lines, which is why Yat does not scale.

Everything in this module is the *replay reference*: it recomputes each
crash state from scratch, O(T) per failure point (O(T²) per campaign).
The production hot path is :mod:`repro.pmem.incremental` (re-exported
below): one forward pass shared by every failure point and every
fault-model variant, differential-tested byte-for-byte against the
functions here (``--image-engine replay`` keeps this module selectable
as the testing oracle).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import OutOfBoundsError
from repro.pmem.constants import CACHE_LINE_SIZE, cache_lines_spanned
from repro.pmem.events import STORES, MemoryEvent, Opcode
from repro.pmem.machine import VOLATILE_BASE


def apply_write(image: bytearray, event: MemoryEvent) -> None:
    """Apply one traced PM write to a crash image under construction.

    Volatile-region writes are ignored (they never survive a crash).  A
    PM write extending past the end of the image is *not* silently
    clipped: the live machine would have refused the access, so a trace
    containing one is corrupt, and building a quietly-wrong crash image
    from it would poison every downstream verdict.  It raises the same
    :class:`~repro.errors.OutOfBoundsError` the medium raises.
    """
    if event.data is None or event.address is None:
        return
    if event.address >= VOLATILE_BASE:
        return
    end = event.address + len(event.data)
    if event.address < 0 or end > len(image):
        raise OutOfBoundsError(event.address, len(event.data), len(image))
    image[event.address:end] = event.data


def prefix_image(
    initial: bytes, trace: Sequence[MemoryEvent], fail_seq: int
) -> bytes:
    """Materialise the program-order-prefix crash image at ``fail_seq``.

    All PM writes with ``seq < fail_seq`` are persisted; everything after is
    lost.  This matches Mumak's graceful crash: pending stores are persisted
    before each failure point, so the post-failure state is deterministic
    and the bug is reproducible.
    """
    image = bytearray(initial)
    for event in trace:
        if event.seq >= fail_seq:
            break
        if event.opcode in STORES:
            apply_write(image, event)
    return bytes(image)


def strict_image(
    initial: bytes, trace: Sequence[MemoryEvent], fail_seq: int
) -> bytes:
    """The most conservative crash image at ``fail_seq``: only data whose
    persistence was *guaranteed* (flush+fence, clflush, fenced NT store)
    before the failure point survives; everything merely cached is lost.

    This is the image shadow-memory tools (XFDetector-style) present to
    post-failure executions: it exposes durability bugs directly, at the
    price of simulating the full persistence state machine per failure
    point.
    """
    image = bytearray(initial)
    #: line base -> {offset: byte} dirty (visible, unpersisted) data
    dirty: Dict[int, Dict[int, int]] = {}
    #: line base -> snapshot dict captured by a weak flush, awaiting fence
    pending: Dict[int, Dict[int, int]] = {}
    pending_nt: List[Tuple[int, bytes]] = []

    def write_dirty(event: MemoryEvent) -> None:
        for i, byte in enumerate(event.data):
            address = event.address + i
            if address >= len(image):
                break
            base = address & ~(CACHE_LINE_SIZE - 1)
            dirty.setdefault(base, {})[address - base] = byte

    def apply_line(base: int, data: Dict[int, int]) -> None:
        for offset, byte in data.items():
            if base + offset < len(image):
                image[base + offset] = byte

    for event in trace:
        if event.seq >= fail_seq:
            break
        opcode = event.opcode
        if opcode is Opcode.STORE or opcode is Opcode.RMW:
            if event.address is None or event.address >= VOLATILE_BASE:
                continue
            write_dirty(event)
            pending_nt[:] = _trim_nt(pending_nt, event.address,
                                     len(event.data))
        elif opcode is Opcode.NT_STORE:
            if event.address is None or event.address >= VOLATILE_BASE:
                continue
            pending_nt[:] = _trim_nt(pending_nt, event.address,
                                     len(event.data))
            pending_nt.append((event.address, event.data))
        elif opcode is Opcode.CLFLUSH:
            if event.address is None or event.address >= VOLATILE_BASE:
                continue
            base = event.address & ~(CACHE_LINE_SIZE - 1)
            if base in dirty:
                apply_line(base, dirty.pop(base))
        elif opcode in (Opcode.CLFLUSHOPT, Opcode.CLWB):
            if event.address is None or event.address >= VOLATILE_BASE:
                continue
            base = event.address & ~(CACHE_LINE_SIZE - 1)
            if base in dirty:
                pending[base] = dirty.pop(base)
        if opcode.is_fence:
            for base, data in pending.items():
                apply_line(base, data)
            pending.clear()
            for address, data in pending_nt:
                end = min(address + len(data), len(image))
                if address < len(image):
                    image[address:end] = data[: end - address]
            pending_nt.clear()
    return bytes(image)


def _trim_nt(pending, address: int, size: int):
    """Drop buffered NT bytes superseded by a program-order-later write
    (mirrors ``PMachine._trim_pending_nt``)."""
    lo, hi = address, address + size
    trimmed = []
    for nt_addr, nt_data in pending:
        nt_lo, nt_hi = nt_addr, nt_addr + len(nt_data)
        if nt_hi <= lo or nt_lo >= hi:
            trimmed.append((nt_addr, nt_data))
            continue
        if nt_lo < lo:
            trimmed.append((nt_lo, nt_data[: lo - nt_lo]))
        if nt_hi > hi:
            trimmed.append((hi, nt_data[hi - nt_lo:]))
    return trimmed


class _LineHistory:
    """Per-cache-line store history used by the reordering enumerator."""

    def __init__(self, base: int):
        self.base = base
        #: (seq, offset-in-line, data) for every store touching this line.
        self.stores: List[Tuple[int, int, bytes]] = []
        #: Highest store seq guaranteed durable (covered by flush+fence).
        self.mandatory_seq = -1

    def add_store(self, event: MemoryEvent) -> None:
        lo = max(self.base, event.address)
        hi = min(self.base + CACHE_LINE_SIZE, event.address + len(event.data))
        if lo < hi:
            self.stores.append(
                (event.seq, lo - self.base, event.data[lo - event.address:hi - event.address])
            )

    def candidate_cut_seqs(self) -> List[int]:
        """Sequence numbers at which this line could have been written back.

        A line may persist the state after any store at or past the
        mandatory point, or exactly the mandatory state itself.
        """
        cuts = [self.mandatory_seq]
        cuts.extend(seq for seq, _, _ in self.stores if seq > self.mandatory_seq)
        return cuts

    def render(self, image: bytearray, cut_seq: int) -> None:
        """Apply this line's stores up to and including ``cut_seq``."""
        for seq, offset, data in self.stores:
            if seq > cut_seq:
                break
            address = self.base + offset
            end = min(address + len(data), len(image))
            if address < len(image):
                image[address:end] = data[: end - address]


def build_line_histories(
    trace: Sequence[MemoryEvent], fail_seq: int
) -> Dict[int, _LineHistory]:
    """Replay the trace, computing per-line store histories and the
    mandatory-durability frontier imposed by flushes and fences."""
    histories: Dict[int, _LineHistory] = {}
    #: line base -> seq of last store covered by a not-yet-fenced weak flush
    pending: Dict[int, int] = {}
    last_store_seq: Dict[int, int] = {}

    def history(base: int) -> _LineHistory:
        if base not in histories:
            histories[base] = _LineHistory(base)
        return histories[base]

    for event in trace:
        if event.seq >= fail_seq:
            break
        if event.opcode in (Opcode.STORE, Opcode.RMW) and event.address is not None:
            if event.address >= VOLATILE_BASE:
                continue
            for base in cache_lines_spanned(event.address, event.size):
                history(base).add_store(event)
                last_store_seq[base] = event.seq
        elif event.opcode is Opcode.NT_STORE and event.address is not None:
            if event.address >= VOLATILE_BASE:
                continue
            # NT stores persist at the next fence; model as pending flush.
            for base in cache_lines_spanned(event.address, event.size):
                history(base).add_store(event)
                last_store_seq[base] = event.seq
                pending[base] = event.seq
        elif event.opcode is Opcode.CLFLUSH and event.address is not None:
            base = event.address & ~(CACHE_LINE_SIZE - 1)
            if base in last_store_seq:
                history(base).mandatory_seq = max(
                    history(base).mandatory_seq, last_store_seq[base]
                )
        elif event.opcode in (Opcode.CLFLUSHOPT, Opcode.CLWB) and event.address is not None:
            base = event.address & ~(CACHE_LINE_SIZE - 1)
            if base in last_store_seq:
                pending[base] = last_store_seq[base]
        if event.opcode.is_fence:
            for base, seq in pending.items():
                history(base).mandatory_seq = max(history(base).mandatory_seq, seq)
            pending.clear()
    return histories


def enumerate_reordered_images(
    initial: bytes,
    trace: Sequence[MemoryEvent],
    fail_seq: int,
    limit: Optional[int] = None,
) -> Iterator[bytes]:
    """Yield every permissible crash image at ``fail_seq``.

    Each dirty cache line independently chooses a write-back cut at or after
    its mandatory (flushed-and-fenced) frontier; the Cartesian product over
    lines is the state space Yat replays.  ``limit`` truncates the
    enumeration (a few thousand operations would otherwise take years, as
    the Yat paper itself reports).
    """
    histories = build_line_histories(trace, fail_seq)
    lines = sorted(histories.values(), key=lambda h: h.base)
    cut_lists = [line.candidate_cut_seqs() for line in lines]
    produced = 0
    for combo in itertools.product(*cut_lists):
        image = bytearray(initial)
        for line, cut in zip(lines, combo):
            line.render(image, cut)
        yield bytes(image)
        produced += 1
        if limit is not None and produced >= limit:
            return


def drop_one_line_images(
    initial: bytes, trace: Sequence[MemoryEvent], fail_seq: int
) -> Iterator[bytes]:
    """Adversarial reorderings at ``fail_seq``: every line at its latest
    write-back cut except one victim line held back at its mandatory
    (flushed-and-fenced) frontier.

    These are exactly the invariant-violating candidates an
    inference-guided tool (Witcher-style) materialises: "B persisted while
    A did not", one image per choice of A, without enumerating the full
    exponential product.
    """
    histories = build_line_histories(trace, fail_seq)
    lines = sorted(histories.values(), key=lambda h: h.base)
    victims = [
        line
        for line in lines
        if line.candidate_cut_seqs()[-1] != line.mandatory_seq
    ]
    for victim in victims:
        image = bytearray(initial)
        for line in lines:
            cut = (
                line.mandatory_seq
                if line is victim
                else line.candidate_cut_seqs()[-1]
            )
            line.render(image, cut)
        yield bytes(image)


def count_reordered_images(trace: Sequence[MemoryEvent], fail_seq: int) -> int:
    """Size of the legal-reordering space without materialising it."""
    histories = build_line_histories(trace, fail_seq)
    total = 1
    for line in histories.values():
        total *= len(line.candidate_cut_seqs())
    return total


# --------------------------------------------------------------------- #
# the production O(T) engine (differential-tested against this module)
# --------------------------------------------------------------------- #

from repro.pmem.incremental import (  # noqa: E402  (deliberate re-export)
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
