"""Architectural constants for the simulated persistent-memory machine.

The simulator models the Intel-x86 relaxed, buffered persistency semantics
described in section 2 of the Mumak paper: stores land in volatile CPU
caches, and only reach the persistence domain (the write-pending queue and,
from there, the medium) through explicit flush/fence instructions or
nondeterministic cache eviction.
"""

#: Size of one CPU cache line in bytes.  Flush instructions act on whole
#: cache lines, which is why a single flush can cover several stores.
CACHE_LINE_SIZE = 64

#: Size of the unit for which the hardware guarantees failure atomicity.
#: Updates within one aligned 8-byte word either fully persist or not at all.
ATOMIC_WRITE_SIZE = 8

#: Default number of cache lines the simulated CPU cache can hold before the
#: eviction policy kicks in.  Kept small so eviction-dependent behaviour can
#: be exercised in tests without large workloads.
DEFAULT_CACHE_CAPACITY = 4096

#: Default size of a simulated PM pool, in bytes.
DEFAULT_POOL_SIZE = 4 * 1024 * 1024


def cache_line_of(address: int) -> int:
    """Return the base address of the cache line containing ``address``."""
    return address & ~(CACHE_LINE_SIZE - 1)


def cache_lines_spanned(address: int, size: int) -> range:
    """Return the base addresses of every cache line touched by a write.

    A write of ``size`` bytes starting at ``address`` may straddle cache-line
    boundaries; each straddled line needs its own flush to be persisted.
    """
    if size <= 0:
        return range(0)
    first = cache_line_of(address)
    last = cache_line_of(address + size - 1)
    return range(first, last + CACHE_LINE_SIZE, CACHE_LINE_SIZE)
