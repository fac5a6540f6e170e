"""Resource accounting shared by Mumak and the baseline tools (Table 2).

Wall time and tool-tracked bytes are *measured*; the CPU-load factor is a
per-tool model constant (single-threaded Python cannot exhibit the
multi-core load profiles of the original tools — Witcher's 138x load came
from fanning out across 128 cores), calibrated to the paper's Table 2 and
documented per tool.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict


@dataclass
class ResourceUsage:
    """Resources one analysis consumed."""

    #: Wall-clock seconds, by phase name.
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    #: Peak bytes of analysis bookkeeping (traces, trees, shadow memory...).
    peak_tool_bytes: int = 0
    #: Extra *persistent* memory the tool itself allocated, in bytes.
    tool_pm_bytes: int = 0
    #: Modeled average CPU load factor (1.0 = one busy core).
    cpu_load: float = 1.0
    #: Size of the target's pool, for overhead ratios.
    pool_bytes: int = 0
    #: Bytes written to the campaign checkpoint journal (0 = disabled).
    checkpoint_bytes: int = 0

    @property
    def total_seconds(self) -> float:
        return sum(self.phase_seconds.values())

    def ram_overhead(self, app_bytes: int) -> float:
        """Peak RAM relative to the vanilla application's working set."""
        if app_bytes <= 0:
            return 1.0
        return (app_bytes + self.peak_tool_bytes) / app_bytes

    def pm_overhead(self) -> float:
        """Peak PM relative to the vanilla application's pool usage."""
        if self.pool_bytes <= 0:
            return 1.0
        return (self.pool_bytes + self.tool_pm_bytes) / self.pool_bytes

    def note_bytes(self, byte_count: int) -> None:
        self.peak_tool_bytes = max(self.peak_tool_bytes, byte_count)

    def publish(self, registry) -> None:
        """Absorb this accounting into a metrics registry.

        Phase wall-clock becomes ``phase_seconds`` counters (labelled by
        phase); the byte and load figures become gauges.  One-way,
        observation-only — the registry never feeds back into the
        analysis.
        """
        for phase in sorted(self.phase_seconds):
            registry.counter("phase_seconds", phase=phase).inc(
                self.phase_seconds[phase]
            )
        registry.gauge("peak_tool_bytes").set(self.peak_tool_bytes)
        registry.gauge("tool_pm_bytes").set(self.tool_pm_bytes)
        registry.gauge("pool_bytes").set(self.pool_bytes)
        registry.gauge("checkpoint_bytes").set(self.checkpoint_bytes)
        registry.gauge("cpu_load").set(self.cpu_load)


class PhaseTimer:
    """Context-manager style phase timing.

    Usage is strictly ``with timer.phase(name):`` — the phase is
    *consumed* on exit, so a bare ``with timer:`` (or a re-entry without
    naming a phase) raises instead of silently re-billing whichever
    phase was timed last.  Nested use mis-attributes by construction
    (one running ``_start``), so re-entering an already-entered timer
    raises too.
    """

    def __init__(self, usage: ResourceUsage):
        self.usage = usage
        self._phase = None
        self._start = 0.0
        self._entered = False

    def phase(self, name: str) -> "PhaseTimer":
        if not isinstance(name, str) or not name:
            raise ValueError(f"phase name must be a non-empty str: {name!r}")
        if self._entered:
            raise RuntimeError(
                f"PhaseTimer already timing {self._phase!r}; nested use "
                "would mis-attribute time — use a second PhaseTimer for "
                "sub-phases"
            )
        self._phase = name
        return self

    def __enter__(self) -> "PhaseTimer":
        if self._phase is None:
            raise RuntimeError(
                "PhaseTimer entered without a phase; use "
                "'with timer.phase(name):' (the phase is consumed on "
                "exit and never carries over)"
            )
        if self._entered:
            raise RuntimeError(
                f"PhaseTimer already timing {self._phase!r}; nested use "
                "would mis-attribute time — use a second PhaseTimer for "
                "sub-phases"
            )
        self._entered = True
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        elapsed = time.perf_counter() - self._start
        previous = self.usage.phase_seconds.get(self._phase, 0.0)
        self.usage.phase_seconds[self._phase] = previous + elapsed
        self._phase = None
        self._entered = False


def estimate_trace_bytes(trace) -> int:
    """Rough in-memory footprint of a recorded minimal trace."""
    # seq + opcode + address + size + payload reference, per event.
    total = 0
    for event in trace:
        total += 56
        if event.data is not None:
            total += len(event.data)
    return total
