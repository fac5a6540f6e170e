"""Typed trace events emitted by the simulated machine.

This is the "instruction stream" the detection tools observe.  It mirrors
what Mumak's Pin tools capture (section 5 of the paper): the opcode of every
PM-relevant instruction, its argument(s), and a monotonically increasing
instruction counter that uniquely identifies each traced instruction.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Tuple


class Opcode(enum.Enum):
    """PM-relevant instruction kinds, following section 2 of the paper."""

    STORE = "store"
    NT_STORE = "ntstore"
    LOAD = "load"
    CLFLUSH = "clflush"
    CLFLUSHOPT = "clflushopt"
    CLWB = "clwb"
    SFENCE = "sfence"
    MFENCE = "mfence"
    RMW = "rmw"

    @property
    def is_store(self) -> bool:
        return self in STORES

    @property
    def is_flush(self) -> bool:
        return self in FLUSHES

    @property
    def is_fence(self) -> bool:
        """True for instructions with fence (ordering) semantics.

        Read-modify-write atomics flush the store buffer to guarantee their
        atomicity and therefore act as fences (paper, section 2).
        """
        return self in FENCES

    @property
    def is_persistency_instruction(self) -> bool:
        """Flushes and fences: Mumak's default failure-point granularity."""
        return self in PERSISTENCY_INSTRUCTIONS


# The predicates above test membership in these tuples: looking members
# up on the enum class costs more than the test itself, and the tracers
# ask for every instruction.
STORES = (Opcode.STORE, Opcode.NT_STORE, Opcode.RMW)
FLUSHES = (Opcode.CLFLUSH, Opcode.CLFLUSHOPT, Opcode.CLWB)
FENCES = (Opcode.SFENCE, Opcode.MFENCE, Opcode.RMW)
PERSISTENCY_INSTRUCTIONS = FLUSHES + FENCES

#: Flushes that may be reordered until the next fence executes.
WEAK_FLUSHES = (Opcode.CLFLUSHOPT, Opcode.CLWB)


class MemoryEvent(NamedTuple):
    """One traced PM instruction.

    A named tuple: a hooked machine builds one per instruction, and a
    tuple costs a quarter of a frozen dataclass's field-by-field
    ``__init__``.  It is immutable, so a copy with other fields is
    :meth:`_replace`; it is also a ``tuple``, so ``len()``, iteration and
    equality with a plain tuple apply.

    Attributes:
        seq: Monotone instruction counter, unique within one execution.
        opcode: Which instruction executed.
        address: Target address (stores, loads, flushes, RMW); None for
            fences, which take no argument.
        size: Number of bytes accessed; 0 for fences.
        data: Bytes written, for write-type events.  Carried in the trace so
            deterministic program-order-prefix crash images can be
            materialised without re-executing the program.
        site: Opaque code-location identifier (the analog of the instruction
            address Pin reports); used to build the failure point tree.
        stack: Filtered application call stack, when backtrace collection is
            enabled.  The minimal tracer leaves both ``site`` and
            ``stack`` None; when asked, it records sites in a list beside
            the events (``MinimalTracer.sites``).  Two events that differ
            only in ``stack`` are equal and hash alike.
    """

    seq: int
    opcode: Opcode
    address: Optional[int] = None
    size: int = 0
    data: Optional[bytes] = None
    site: Optional[str] = None
    stack: Optional[Tuple[str, ...]] = None

    def __eq__(self, other):
        if isinstance(other, MemoryEvent):
            return self[:6] == other[:6]
        return tuple.__eq__(self, other)

    def __ne__(self, other):
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    def __hash__(self):
        return hash(self[:6])

    @property
    def is_write(self) -> bool:
        return self.opcode in STORES

    @property
    def end(self) -> int:
        if self.address is None:
            return 0
        return self.address + self.size

    def describe(self) -> str:
        """Human-readable one-line rendering used in bug reports."""
        loc = f" @ {self.site}" if self.site else ""
        if self.opcode.is_fence and self.opcode is not Opcode.RMW:
            return f"#{self.seq} {self.opcode.value}{loc}"
        return (
            f"#{self.seq} {self.opcode.value}"
            f" addr=0x{(self.address or 0):x} size={self.size}{loc}"
        )
