"""Event-stream tracers attachable to a :class:`~repro.pmem.machine.PMachine`.

Three tracers mirror the Pin tools Mumak ships (paper, section 5):

* :class:`MinimalTracer` — the optimised tracer: records only the opcode,
  argument(s) and instruction counter of each PM-relevant instruction.
  This is what the trace-analysis phase consumes.
* :class:`FullTracer` — additionally resolves the code site (and,
  optionally, the whole filtered backtrace) of each event; the analog of
  the debug-information re-run.
* :class:`FailurePointObserver` — fires a callback with the filtered call
  stack at every failure-point candidate, implementing the two granularity
  levels from section 4.1 plus the "at least one store since the last
  failure point" reduction.

:class:`PathCounter` supports the Figure 3 coverage study: it counts unique
execution paths that lead to persistency instructions and to PM stores.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Set, Tuple

from repro.instrument.backtrace import capture_site, capture_stack
from repro.pmem.events import PERSISTENCY_INSTRUCTIONS, STORES, MemoryEvent
from repro.pmem.machine import PMachine, VOLATILE_BASE


class MinimalTracer:
    """Appends raw events; no backtraces (cheap, deterministic)."""

    def __init__(self):
        self.events: List[MemoryEvent] = []

    def __call__(self, event: MemoryEvent, machine: PMachine) -> None:
        self.events.append(event)

    def __len__(self) -> int:
        return len(self.events)


class FullTracer:
    """Appends events annotated with their code site (and optional stack)."""

    def __init__(self, with_stacks: bool = False):
        self.events: List[MemoryEvent] = []
        self.with_stacks = with_stacks

    def __call__(self, event: MemoryEvent, machine: PMachine) -> None:
        stack = capture_stack(skip=2) if self.with_stacks else None
        site = stack[-1] if stack else capture_site(skip=2)
        self.events.append(event._replace(site=site, stack=stack))

    def __len__(self) -> int:
        return len(self.events)


#: Failure-point granularities (section 4.1 of the paper).
GRANULARITY_PERSISTENCY = "persistency"
GRANULARITY_STORE = "store"

FailurePointCallback = Callable[[Tuple[str, ...], MemoryEvent], None]


class FailurePointObserver:
    """Detects failure points and reports each with its call stack.

    With ``granularity="persistency"`` (Mumak's default) a failure point is
    a flush or fence instruction; with ``require_store_since_last`` (also
    the default) persistency instructions with no PM store since the
    previous failure point are skipped, omitting equivalent post-failure
    states.  ``granularity="store"`` treats every PM store as a failure
    point — the exhaustive alternative kept for the ablation study.
    """

    def __init__(
        self,
        callback: FailurePointCallback,
        granularity: str = GRANULARITY_PERSISTENCY,
        require_store_since_last: bool = True,
    ):
        if granularity not in (GRANULARITY_PERSISTENCY, GRANULARITY_STORE):
            raise ValueError(f"unknown granularity {granularity!r}")
        self.callback = callback
        self.granularity = granularity
        self.require_store_since_last = require_store_since_last
        self._store_since_last = False
        self.candidates_seen = 0

    def __call__(self, event: MemoryEvent, machine: PMachine) -> None:
        opcode = event.opcode
        if opcode in STORES:
            address = event.address
            if address is not None and address < VOLATILE_BASE:
                # A PM store: a candidate at store granularity, else it
                # arms the next persistency instruction.
                if self.granularity == GRANULARITY_STORE:
                    self.candidates_seen += 1
                    self.callback(capture_stack(skip=2), event)
                else:
                    self._store_since_last = True
                return
        if self.granularity == GRANULARITY_STORE:
            return
        if opcode in PERSISTENCY_INSTRUCTIONS:
            if self.require_store_since_last and not self._store_since_last:
                return
            self._store_since_last = False
            self.candidates_seen += 1
            self.callback(capture_stack(skip=2), event)


class PathCounter:
    """Counts unique execution paths reaching persistency instructions and
    PM stores (Figures 3a and 3b)."""

    def __init__(self):
        self.persistency_paths: Set[Tuple[str, ...]] = set()
        self.store_paths: Set[Tuple[str, ...]] = set()

    def __call__(self, event: MemoryEvent, machine: PMachine) -> None:
        opcode = event.opcode
        if opcode in PERSISTENCY_INSTRUCTIONS:
            self.persistency_paths.add(capture_stack(skip=2))
        elif opcode in STORES and event.address is not None and (
            event.address < VOLATILE_BASE
        ):
            self.store_paths.add(capture_stack(skip=2))

    @property
    def unique_persistency_paths(self) -> int:
        return len(self.persistency_paths)

    @property
    def unique_store_paths(self) -> int:
        return len(self.store_paths)
