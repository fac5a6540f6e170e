"""Volatile CPU cache model sitting between the program and the medium.

Dirty cache lines hold stores that are *visible* but not *persistent*.  They
reach the medium either through explicit flush instructions or through the
cache's eviction policy — the nondeterminism that makes relying on eviction
for durability a bug (paper, section 2).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from typing import Dict, Iterator, Optional

from repro.pmem.constants import CACHE_LINE_SIZE


class CacheLine:
    """One cache line: a 64-byte overlay over the medium plus a dirty mask."""

    __slots__ = ("base", "data", "dirty_mask")

    def __init__(self, base: int, data: bytes):
        if len(data) != CACHE_LINE_SIZE:
            raise ValueError(f"cache line needs {CACHE_LINE_SIZE} bytes")
        self.base = base
        self.data = bytearray(data)
        self.dirty_mask = 0

    def write(self, offset: int, data: bytes) -> None:
        self.data[offset:offset + len(data)] = data
        self.dirty_mask |= ((1 << len(data)) - 1) << offset

    @property
    def dirty(self) -> bool:
        return self.dirty_mask != 0

    def mark_clean(self) -> None:
        self.dirty_mask = 0

    def copy_data(self) -> bytes:
        return bytes(self.data)


class EvictionPolicy:
    """Strategy deciding which line, if any, to evict when the cache is full.

    Eviction *persists* the victim line (write-back cache), which is exactly
    why programs that skip flushes sometimes appear correct: the cache may
    have evicted their data before the crash.
    """

    def select_victim(self, lines: "OrderedDict[int, CacheLine]") -> Optional[int]:
        raise NotImplementedError


class NoEviction(EvictionPolicy):
    """Never evict.

    This is the conservative model the detection tools assume: a store only
    becomes durable through an explicit flush + fence.  It makes executions
    fully deterministic and is the default for analysis runs.
    """

    def select_victim(self, lines: "OrderedDict[int, CacheLine]") -> Optional[int]:
        return None


class LRUEviction(EvictionPolicy):
    """Evict the least-recently-used line (ordered dict front)."""

    def select_victim(self, lines: "OrderedDict[int, CacheLine]") -> Optional[int]:
        return next(iter(lines)) if lines else None


class RandomEviction(EvictionPolicy):
    """Evict a pseudo-random line, seeded for reproducibility."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def select_victim(self, lines: "OrderedDict[int, CacheLine]") -> Optional[int]:
        if not lines:
            return None
        return self._rng.choice(list(lines))


class Cache:
    """Write-back cache of :class:`CacheLine` objects keyed by line base."""

    def __init__(self, capacity: int, policy: Optional[EvictionPolicy] = None):
        if capacity <= 0:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.policy = policy or NoEviction()
        #: Lines by base, least recently used first.  The machine's ops
        #: read it directly on their one-line fast paths.
        self._lines: "OrderedDict[int, CacheLine]" = OrderedDict()
        self.eviction_count = 0

    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, base: int) -> bool:
        return base in self._lines

    def get(self, base: int) -> Optional[CacheLine]:
        line = self._lines.get(base)
        if line is not None:
            self._lines.move_to_end(base)
        return line

    def peek(self, base: int) -> Optional[CacheLine]:
        """Look up a line without refreshing its recency."""
        return self._lines.get(base)

    def lines(self) -> Iterator[CacheLine]:
        return iter(self._lines.values())

    def dirty_lines(self) -> Dict[int, CacheLine]:
        return {b: l for b, l in self._lines.items() if l.dirty}

    def install(self, line: CacheLine) -> Optional[CacheLine]:
        """Insert a line, evicting one first if at capacity.

        Returns the evicted dirty line (which the machine must write back to
        the medium) or None when nothing dirty was displaced.
        """
        victim_line = None
        if line.base not in self._lines and len(self._lines) >= self.capacity:
            victim = self.policy.select_victim(self._lines)
            if victim is not None:
                victim_line = self._lines.pop(victim)
                self.eviction_count += 1
                if not victim_line.dirty:
                    victim_line = None
        self._lines[line.base] = line
        self._lines.move_to_end(line.base)
        return victim_line

    def invalidate(self, base: int) -> None:
        self._lines.pop(base, None)

    def drop_all(self) -> None:
        """Lose every cached line (what a crash does to the cache)."""
        self._lines.clear()
