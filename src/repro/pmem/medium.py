"""The persistent medium: the storage that survives crashes.

Only bytes written to the :class:`Medium` are durable.  Everything above it
(store buffers, CPU caches, pending flush queues — see
:mod:`repro.pmem.machine`) is volatile and disappears at a crash.

Besides plain storage, the medium models *uncorrectable media errors*
(poisoned lines): a line may be marked poisoned — typically by the
adversarial fault model when it materialises a post-crash medium — and any
read overlapping it raises :class:`~repro.errors.MediaError`, the simulated
machine-check.  Mirroring real persistent memory, a write that covers the
entire poisoned line re-establishes its ECC and clears the poison; partial
writes do not (the device would have to read the rest of the line to merge,
and that read is exactly what faults).

A medium has a *logical* size (the pool the target declared; every bounds
check and the allocator see it) and a *backed* size: the ``bytearray``
holds only the pool's low bytes, up to the image it booted from or its
highest write, and every byte above it reads as zero.  A campaign
persists a few KiB of a 32 MiB pool, so a flat pool-sized buffer per
machine would spend nearly all of its memory and page faults on zeros
nobody reads.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.errors import MediaError, OutOfBoundsError
from repro.pmem.constants import CACHE_LINE_SIZE, cache_lines_spanned


class Medium:
    """A flat, byte-addressable persistent storage device.

    The medium itself guarantees failure atomicity only for aligned 8-byte
    writes (see :data:`repro.pmem.constants.ATOMIC_WRITE_SIZE`); torn larger
    writes are modelled by the crash simulator and the adversarial fault
    model (:mod:`repro.pmem.faultmodel`), not here.
    """

    def __init__(self, size: int = 0, buffer: Optional[bytearray] = None):
        if buffer is not None:
            # Adopt an externally owned buffer *without copying*.  The
            # incremental crash-image engine (repro.pmem.incremental) uses
            # this so the oracle recovers against a pooled copy-on-write
            # view instead of a fresh full-size allocation per injection.
            # The buffer holds the low bytes of the pool; ``size`` (by
            # default the buffer's length) is the logical size.
            if not isinstance(buffer, bytearray):
                raise TypeError(
                    f"adopted buffer must be a bytearray, got "
                    f"{type(buffer).__name__}"
                )
            size = size or len(buffer)
            if len(buffer) > size:
                raise ValueError(
                    f"adopted buffer of {len(buffer)} bytes exceeds the "
                    f"medium size {size}"
                )
            self._data = buffer
        else:
            self._data = bytearray()
        if size <= 0:
            raise ValueError(f"medium size must be positive, got {size}")
        self._size = size
        self._write_count = 0
        #: Cache-line bases whose contents are uncorrectable (poisoned).
        self._poisoned: set = set()
        #: Optional (address, length) log of every mutation, used by the
        #: incremental engine to reconcile pooled buffers in O(dirty bytes).
        self._write_log: Optional[List[Tuple[int, int]]] = None

    @classmethod
    def from_image(
        cls,
        image: bytes,
        poisoned_lines: Iterable[int] = (),
        size: Optional[int] = None,
    ) -> "Medium":
        """Reconstruct a medium from a crash image (post-failure state).

        ``poisoned_lines`` marks cache-line bases as uncorrectable media
        errors on the recovered device (see :meth:`poison_line`).
        ``size`` is the logical size when the image holds only the low
        bytes of the pool (default: the image's length).
        """
        medium = cls(size or len(image), buffer=bytearray(image))
        for base in poisoned_lines:
            medium.poison_line(base)
        return medium

    @property
    def size(self) -> int:
        """The logical size: the addressable pool, backed or not."""
        return self._size

    @property
    def write_count(self) -> int:
        """Number of write operations the device has absorbed (wear proxy)."""
        return self._write_count

    # ------------------------------------------------------------------ #
    # media errors (poisoned lines)
    # ------------------------------------------------------------------ #

    @property
    def poisoned_lines(self) -> Tuple[int, ...]:
        """Bases of currently poisoned cache lines, sorted."""
        return tuple(sorted(self._poisoned))

    def poison_line(self, base: int) -> None:
        """Mark the cache line at ``base`` as an uncorrectable media error."""
        if base % CACHE_LINE_SIZE != 0:
            raise ValueError(
                f"poison base 0x{base:x} is not cache-line aligned"
            )
        self.check_bounds(base, CACHE_LINE_SIZE)
        self._poisoned.add(base)

    def clear_poison(self, base: int) -> None:
        """Explicitly clear poison (device management op, e.g. ndctl)."""
        self._poisoned.discard(base)

    def _check_poison(self, address: int, size: int) -> None:
        if not self._poisoned or size <= 0:
            return
        for base in cache_lines_spanned(address, size):
            if base in self._poisoned:
                raise MediaError(address, size, base)

    # ------------------------------------------------------------------ #
    # storage
    # ------------------------------------------------------------------ #

    def check_bounds(self, address: int, size: int) -> None:
        if address < 0 or size < 0 or address + size > self._size:
            raise OutOfBoundsError(address, size, self._size)

    def read(self, address: int, size: int) -> bytes:
        self.check_bounds(address, size)
        self._check_poison(address, size)
        chunk = bytes(self._data[address:address + size])
        if len(chunk) < size:
            # Above the backed bytes the pool has never been written.
            chunk = chunk.ljust(size, b"\0")
        return chunk

    def start_write_log(self) -> List[Tuple[int, int]]:
        """Begin recording every mutation as ``(address, length)`` ranges.

        Returns the (live) list that subsequent :meth:`write` /
        :meth:`restore` calls append to.  Used by the incremental
        crash-image engine to learn which bytes of a pooled buffer the
        recovery dirtied, so only those ranges need reconciling.
        """
        self._write_log = []
        return self._write_log

    def write(self, address: int, data: bytes) -> None:
        self.check_bounds(address, len(data))
        end = address + len(data)
        if end > len(self._data) and data:
            # Back the pool up to the write first: assigning a slice that
            # starts past the end would append, not place, the bytes.
            self._data.extend(bytes(end - len(self._data)))
        self._data[address:end] = data
        self._write_count += 1
        if self._write_log is not None and data:
            self._write_log.append((address, len(data)))
        if self._poisoned:
            # Rewriting an entire line re-establishes its ECC.
            for base in cache_lines_spanned(address, len(data)):
                if (
                    base in self._poisoned
                    and address <= base
                    and address + len(data) >= base + CACHE_LINE_SIZE
                ):
                    self._poisoned.discard(base)

    def snapshot(self) -> bytes:
        """Return an immutable copy of the full device contents.

        The copy has the logical size; a never-written medium's is
        ``bytes(size)``, which the allocator backs lazily (no page is
        touched until read).  Poison state is *not* part of the image —
        it travels separately (see :meth:`from_image`), just as a DAX
        file's contents and its badblocks list are separate on real
        hardware.
        """
        if not self._data:
            return bytes(self._size)
        return bytes(self._data).ljust(self._size, b"\0")

    def restore(self, image: bytes) -> None:
        """Overwrite the device contents with a previously taken snapshot."""
        if len(image) != self._size:
            raise ValueError(
                f"image size {len(image)} does not match medium size {self._size}"
            )
        self._data[:] = image
        if self._write_log is not None:
            self._write_log.append((0, self._size))
