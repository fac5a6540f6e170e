"""Resource accounting and budget-meter tests."""

import os
import subprocess
import sys

import pytest

from repro.baselines.base import (
    BudgetMeter,
    WORK_UNITS_PER_HOUR,
)
from repro.core.resources import (
    PhaseTimer,
    ResourceUsage,
    estimate_trace_bytes,
)
from repro.pmem.events import MemoryEvent, Opcode

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: One rbtree campaign in a fresh interpreter that prints its own peak
#: RSS in KiB.  The child reads its memory map's high-water mark
#: (``VmHWM``), which starts afresh at exec.  ``ru_maxrss`` would not do:
#: on Linux, exec folds the forking process's peak into it, so under a
#: large test session every child would report the session's size.
RBTREE_CAMPAIGN = (
    "import re\n"
    "from repro.apps.rbtree import RBTree\n"
    "from repro.core import Mumak, MumakConfig\n"
    "from repro.workloads import generate_workload\n"
    "Mumak(MumakConfig(seed=1)).analyze(\n"
    "    RBTree, generate_workload(200, seed=1))\n"
    "with open('/proc/self/status') as fh:\n"
    "    print(re.search(r'VmHWM:\\s+(\\d+) kB', fh.read()).group(1))\n"
)


class TestResourceUsage:
    def test_overheads(self):
        usage = ResourceUsage(pool_bytes=100, tool_pm_bytes=90)
        usage.note_bytes(50)
        assert usage.ram_overhead(app_bytes=100) == 1.5
        assert usage.pm_overhead() == 1.9

    def test_note_bytes_keeps_peak(self):
        usage = ResourceUsage()
        usage.note_bytes(100)
        usage.note_bytes(40)
        assert usage.peak_tool_bytes == 100

    def test_degenerate_ratios(self):
        usage = ResourceUsage()
        assert usage.ram_overhead(0) == 1.0
        assert usage.pm_overhead() == 1.0

    def test_ram_overhead_negative_app_bytes(self):
        # A nonsensical (negative) working set must not divide through.
        usage = ResourceUsage()
        usage.note_bytes(10_000)
        assert usage.ram_overhead(-5) == 1.0

    def test_pm_overhead_zero_pool_with_tool_bytes(self):
        # Tool PM with a zero-sized pool: ratio is defined as neutral.
        usage = ResourceUsage(pool_bytes=0, tool_pm_bytes=4096)
        assert usage.pm_overhead() == 1.0

    def test_publish_into_registry(self):
        from repro.obs import MetricsRegistry

        usage = ResourceUsage(
            pool_bytes=100, tool_pm_bytes=7, checkpoint_bytes=33
        )
        usage.phase_seconds["fault_injection"] = 2.0
        usage.note_bytes(512)
        registry = MetricsRegistry()
        usage.publish(registry)
        assert registry.total(
            "phase_seconds", phase="fault_injection"
        ) == 2.0
        assert registry.total("peak_tool_bytes") == 512
        assert registry.total("checkpoint_bytes") == 33

    def test_phase_timer_accumulates(self):
        usage = ResourceUsage()
        timer = PhaseTimer(usage)
        with timer.phase("a"):
            pass
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        assert set(usage.phase_seconds) == {"a", "b"}
        assert usage.total_seconds >= 0


class TestPhaseTimerMisuse:
    """Regression: ``_phase`` used to survive exit, so a bare
    ``with timer:`` silently re-billed whichever phase was timed last."""

    def test_bare_with_raises(self):
        timer = PhaseTimer(ResourceUsage())
        with pytest.raises(RuntimeError, match="without a phase"):
            with timer:
                pass

    def test_phase_consumed_on_exit(self):
        usage = ResourceUsage()
        timer = PhaseTimer(usage)
        with timer.phase("a"):
            pass
        # The phase must not carry over into a bare re-entry.
        with pytest.raises(RuntimeError, match="without a phase"):
            with timer:
                pass
        assert set(usage.phase_seconds) == {"a"}

    def test_phase_consumed_even_on_exception(self):
        usage = ResourceUsage()
        timer = PhaseTimer(usage)
        with pytest.raises(ValueError):
            with timer.phase("a"):
                raise ValueError("boom")
        with pytest.raises(RuntimeError, match="without a phase"):
            with timer:
                pass
        assert set(usage.phase_seconds) == {"a"}

    def test_nested_use_raises_and_keeps_outer_attribution(self):
        usage = ResourceUsage()
        timer = PhaseTimer(usage)
        with pytest.raises(RuntimeError, match="already timing"):
            with timer.phase("outer"):
                with timer.phase("inner"):
                    pass
        # The outer phase is still the one billed.
        assert set(usage.phase_seconds) == {"outer"}

    def test_empty_phase_name_rejected(self):
        timer = PhaseTimer(ResourceUsage())
        with pytest.raises(ValueError):
            timer.phase("")
        with pytest.raises(ValueError):
            timer.phase(None)


class TestTraceBytes:
    def test_estimate_counts_payloads(self):
        events = [
            MemoryEvent(0, Opcode.STORE, 10, 4, b"abcd"),
            MemoryEvent(1, Opcode.SFENCE),
        ]
        assert estimate_trace_bytes(events) == 56 + 4 + 56


class TestBudgetMeter:
    def test_charges_accumulate(self):
        meter = BudgetMeter(budget_hours=1.0)
        meter.charge(WORK_UNITS_PER_HOUR / 2)
        assert not meter.exhausted
        meter.charge(WORK_UNITS_PER_HOUR / 2)
        assert meter.exhausted

    def test_unbounded(self):
        meter = BudgetMeter(budget_hours=None)
        meter.charge(1e12)
        assert not meter.exhausted


class TestCampaignMemory:
    @pytest.mark.skipif(
        not os.path.exists("/proc/self/status"),
        reason="reads the peak RSS from Linux's /proc",
    )
    def test_peak_rss_is_not_pool_sized(self, tmp_path):
        """rbtree declares a 32 MiB pool and persists about 50 KB of it.
        A campaign backs its media and crash images only up to the bytes
        it persists, so its peak RSS stays far below the few whole pools
        (about 150 MB) a flat pool-sized medium per machine would hold."""
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        done = subprocess.run(
            [sys.executable, "-c", RBTREE_CAMPAIGN], env=env, cwd=tmp_path,
            capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        peak_mb = int(done.stdout.split()[-1]) / 1024
        assert peak_mb < 64, f"peak RSS {peak_mb:.1f} MB"
