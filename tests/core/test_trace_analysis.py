"""Trace-analysis pattern tests against hand-built event streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.taxonomy import BugKind
from repro.core.trace_analysis import (
    TraceAnalysisStats,
    TraceAnalyzer,
    _LineState,
    _PendingFinding,
)
from repro.pmem import PMachine, VOLATILE_BASE
from repro.instrument.tracer import MinimalTracer
from repro.pmem.constants import cache_line_of, cache_lines_spanned
from repro.pmem.events import MemoryEvent, Opcode, WEAK_FLUSHES

PM_SIZE = 64 * 1024


def analyze(drive, include_warnings=True, **kwargs):
    """Run ``drive(machine)`` and analyze the resulting trace."""
    machine = PMachine(pm_size=PM_SIZE)
    tracer = MinimalTracer()
    machine.add_hook(tracer)
    drive(machine)
    analyzer = TraceAnalyzer(
        pm_size=PM_SIZE, include_warnings=include_warnings, **kwargs
    )
    return analyzer.analyze(tracer.events)


def kinds(pending, warning=None):
    return [
        p.kind
        for p in pending
        if warning is None or p.is_warning == warning
    ]


class TestPattern1Durability:
    def test_unflushed_store_on_flushed_line_is_durability_bug(self):
        def drive(m):
            m.store(128, b"\x01")
            m.persist(128, 1)        # the line IS flushed at some point
            m.store(129, b"\x02")    # ...but this store never is

        pending, _ = analyze(drive)
        assert BugKind.DURABILITY in kinds(pending, warning=False)

    def test_unfenced_flush_leaves_durability_bug(self):
        def drive(m):
            m.store(128, b"\x01")
            m.clwb(128)  # never fenced

        pending, _ = analyze(drive)
        assert BugKind.DURABILITY in kinds(pending, warning=False)

    def test_never_flushed_line_is_transient_warning(self):
        def drive(m):
            m.store(4096, b"\x01")  # line never flushed anywhere

        pending, _ = analyze(drive)
        assert BugKind.TRANSIENT_DATA in kinds(pending, warning=True)
        assert BugKind.DURABILITY not in kinds(pending, warning=False)

    def test_properly_persisted_store_is_clean(self):
        def drive(m):
            m.store(128, b"\x01")
            m.persist(128, 1)

        pending, _ = analyze(drive)
        assert kinds(pending, warning=False) == []


class TestPattern2RedundantFlush:
    def test_flush_of_clean_line(self):
        def drive(m):
            m.store(128, b"\x01")
            m.persist(128, 1)
            m.clwb(128)  # nothing written since
            m.sfence()

        pending, _ = analyze(drive)
        assert BugKind.REDUNDANT_FLUSH in kinds(pending, warning=False)

    def test_flush_of_never_written_line(self):
        def drive(m):
            m.clwb(1024)
            m.sfence()

        pending, _ = analyze(drive)
        assert BugKind.REDUNDANT_FLUSH in kinds(pending, warning=False)

    def test_flush_of_volatile_address(self):
        def drive(m):
            m.clwb(VOLATILE_BASE + 64)
            m.sfence()

        pending, _ = analyze(drive)
        flagged = [p for p in pending if p.kind is BugKind.REDUNDANT_FLUSH]
        assert any("volatile" in p.message for p in flagged)

    def test_double_flush_before_fence(self):
        def drive(m):
            m.store(128, b"\x01")
            m.clwb(128)
            m.clwb(128)  # second flush covers nothing new
            m.sfence()

        pending, _ = analyze(drive)
        assert BugKind.REDUNDANT_FLUSH in kinds(pending, warning=False)


class TestPattern3MultiStoreFlush:
    def test_flush_covering_multiple_stores_warns(self):
        def drive(m):
            m.store(128, b"\x01")
            m.store(140, b"\x02")  # same line
            m.persist(128, 1)

        pending, _ = analyze(drive)
        flagged = [
            p for p in pending
            if p.is_warning and p.kind is BugKind.REDUNDANT_FLUSH
        ]
        assert flagged and "memory arrangement" in flagged[0].message

    def test_warning_suppressed_when_disabled(self):
        def drive(m):
            m.store(128, b"\x01")
            m.store(140, b"\x02")
            m.persist(128, 1)

        pending, _ = analyze(drive, include_warnings=False)
        assert all(not p.is_warning for p in pending)


class TestPattern4RedundantFence:
    def test_fence_without_pending_work(self):
        def drive(m):
            m.store(128, b"\x01")
            m.persist(128, 1)
            m.sfence()  # nothing since the previous fence

        pending, _ = analyze(drive)
        assert BugKind.REDUNDANT_FENCE in kinds(pending, warning=False)

    def test_fence_after_flush_is_fine(self):
        def drive(m):
            m.store(128, b"\x01")
            m.clwb(128)
            m.sfence()

        pending, _ = analyze(drive)
        assert BugKind.REDUNDANT_FENCE not in kinds(pending)

    def test_fence_after_ntstore_is_fine(self):
        def drive(m):
            m.ntstore(128, b"\x01")
            m.sfence()

        pending, _ = analyze(drive)
        assert BugKind.REDUNDANT_FENCE not in kinds(pending)

    def test_rmw_counts_as_fence_but_never_reported(self):
        def drive(m):
            m.store(512, b"\x01" * 8)
            m.clwb(512)
            m.rmw_u64(1024, lambda v: v + 1)  # drains the flush
            m.sfence()  # now redundant

        pending, _ = analyze(drive)
        assert BugKind.REDUNDANT_FENCE in kinds(pending, warning=False)


class TestPattern5FenceOrderingWarning:
    def test_fence_over_multiple_weak_flushes_warns(self):
        def drive(m):
            m.store(128, b"\x01")
            m.store(1024, b"\x02")
            m.clwb(128)
            m.clwb(1024)
            m.sfence()

        pending, _ = analyze(drive)
        flagged = [
            p for p in pending
            if p.is_warning and p.kind is BugKind.ORDERING
        ]
        assert flagged and "not deterministic" in flagged[0].message

    def test_single_flush_fence_does_not_warn(self):
        def drive(m):
            m.store(128, b"\x01")
            m.clwb(128)
            m.sfence()

        pending, _ = analyze(drive)
        assert BugKind.ORDERING not in kinds(pending)


class TestDirtyOverwrites:
    def test_detected_only_when_enabled(self):
        def drive(m):
            m.store(128, b"\x01")
            m.store(128, b"\x02")  # overwrite before any persist
            m.persist(128, 1)

        pending, _ = analyze(drive)
        assert BugKind.DURABILITY not in kinds(pending, warning=False)
        pending, _ = analyze(drive, detect_dirty_overwrites=True)
        assert BugKind.DURABILITY in kinds(pending, warning=False)


class TestStats:
    def test_counts(self):
        def drive(m):
            m.store(128, b"\x01")
            m.clwb(128)
            m.sfence()

        pending, stats = analyze(drive)
        assert stats.events == 3
        assert stats.stores == 1
        assert stats.flushes == 1
        assert stats.fences == 1


# --------------------------------------------------------------------- #
# fences commit only the awaiting lines: differential against the
# analyser whose every fence clears every line it ever saw
# --------------------------------------------------------------------- #

class ReferenceAnalyzer(TraceAnalyzer):
    """The reference: the single pass with a fence that walks every line."""

    def analyze(self, trace):
        lines = {}
        ever_flushed = set()
        epoch_weak_events = 0
        stats = TraceAnalysisStats()
        pending = []

        def line(base):
            state = lines.get(base)
            if state is None:
                state = lines[base] = _LineState()
            return state

        def is_pm(address):
            return address is not None and 0 <= address < self.pm_size

        def commit():
            for state in lines.values():
                state.awaiting_fence.clear()
            return 0

        for event in trace:
            stats.events += 1
            opcode = event.opcode
            if opcode in (Opcode.STORE, Opcode.RMW):
                if not is_pm(event.address):
                    continue
                stats.stores += 1
                for base in cache_lines_spanned(event.address, event.size):
                    state = line(base)
                    if self.detect_dirty_overwrites and state.dirty_stores:
                        pending.append(_PendingFinding(
                            BugKind.DURABILITY,
                            "dirty overwrite: the previous store to this "
                            "line was never persisted",
                            event.seq,
                        ))
                    state.dirty_stores.append(event.seq)
                if opcode is Opcode.RMW:
                    epoch_weak_events = commit()
            elif opcode is Opcode.NT_STORE:
                if not is_pm(event.address):
                    continue
                stats.stores += 1
                epoch_weak_events += 1
                for base in cache_lines_spanned(event.address, event.size):
                    line(base).awaiting_fence.append(event.seq)
                    ever_flushed.add(base)
            elif opcode.is_flush:
                stats.flushes += 1
                if self.eadr:
                    if is_pm(event.address):
                        pending.append(_PendingFinding(
                            BugKind.REDUNDANT_FLUSH,
                            "cache flush on an eADR platform (the "
                            "persistence domain includes the caches)",
                            event.seq,
                        ))
                        base = cache_line_of(event.address)
                        state = line(base)
                        state.awaiting_fence.extend(state.dirty_stores)
                        state.dirty_stores.clear()
                        ever_flushed.add(base)
                    continue
                if not is_pm(event.address):
                    pending.append(_PendingFinding(
                        BugKind.REDUNDANT_FLUSH,
                        "flush acting on a volatile address",
                        event.seq,
                    ))
                    continue
                base = cache_line_of(event.address)
                state = line(base)
                ever_flushed.add(base)
                if opcode in WEAK_FLUSHES:
                    epoch_weak_events += 1
                if not state.dirty_stores:
                    pending.append(_PendingFinding(
                        BugKind.REDUNDANT_FLUSH,
                        "flush of a cache line not written since its "
                        "most recent flush",
                        event.seq,
                    ))
                else:
                    if len(state.dirty_stores) > 1 and self.include_warnings:
                        pending.append(_PendingFinding(
                            BugKind.REDUNDANT_FLUSH,
                            f"single flush covers "
                            f"{len(state.dirty_stores)} stores; whether "
                            "they share a cache line depends on the "
                            "memory arrangement",
                            event.seq,
                            is_warning=True,
                        ))
                    if opcode is Opcode.CLFLUSH:
                        state.dirty_stores.clear()
                    else:
                        state.awaiting_fence.extend(state.dirty_stores)
                        state.dirty_stores.clear()
            elif opcode in (Opcode.SFENCE, Opcode.MFENCE):
                stats.fences += 1
                if epoch_weak_events == 0:
                    pending.append(_PendingFinding(
                        BugKind.REDUNDANT_FENCE,
                        "fence with no flush or non-temporal store "
                        "since the previous fence",
                        event.seq,
                    ))
                elif epoch_weak_events > 1 and self.include_warnings:
                    pending.append(_PendingFinding(
                        BugKind.ORDERING,
                        f"fence orders {epoch_weak_events} buffered "
                        "flushes/non-temporal stores whose persist "
                        "order is not deterministic; only program "
                        "order was explored by fault injection",
                        event.seq,
                        is_warning=True,
                    ))
                epoch_weak_events = commit()

        for base, state in ({} if self.eadr else lines).items():
            for seq in state.dirty_stores + state.awaiting_fence:
                if base in ever_flushed:
                    pending.append(_PendingFinding(
                        BugKind.DURABILITY,
                        "store never explicitly persisted (its line is "
                        "flushed elsewhere, so it lives in PM on "
                        "purpose)",
                        seq,
                    ))
                elif self.include_warnings:
                    pending.append(_PendingFinding(
                        BugKind.TRANSIENT_DATA,
                        "store to PM never persisted anywhere; this "
                        "data may belong in volatile memory",
                        seq,
                        is_warning=True,
                    ))
        stats.findings = sum(1 for p in pending if not p.is_warning)
        stats.warnings = sum(1 for p in pending if p.is_warning)
        return pending, stats


#: A few lines of a small pool, so fences keep finding lines awaiting
#: them and lines they must leave alone; plus volatile and out-of-pool
#: addresses.
SMALL_PM = 8 * 64
trace_address = st.one_of(
    st.integers(0, SMALL_PM - 1),
    st.integers(SMALL_PM - 8, SMALL_PM + 8),
    st.just(VOLATILE_BASE + 64),
)
trace_op = st.one_of(
    st.tuples(st.sampled_from([Opcode.STORE, Opcode.NT_STORE]),
              trace_address, st.integers(1, 130)),
    st.tuples(st.just(Opcode.RMW), trace_address, st.just(8)),
    st.tuples(st.sampled_from([Opcode.CLWB, Opcode.CLFLUSHOPT,
                               Opcode.CLFLUSH]),
              trace_address, st.just(64)),
    st.tuples(st.sampled_from([Opcode.SFENCE, Opcode.MFENCE]),
              st.none(), st.just(0)),
)


def build_trace(ops):
    return [
        MemoryEvent(seq, opcode, address, size)
        for seq, (opcode, address, size) in enumerate(ops)
    ]


@settings(deadline=None, max_examples=300)
@given(
    st.lists(trace_op, max_size=80),
    st.booleans(),
    st.booleans(),
    st.booleans(),
)
def test_fence_clears_only_awaiting_lines(ops, eadr, warnings, overwrites):
    trace = build_trace(ops)
    options = dict(
        pm_size=SMALL_PM, include_warnings=warnings,
        detect_dirty_overwrites=overwrites, eadr=eadr,
    )
    got, got_stats = TraceAnalyzer(**options).analyze(trace)
    want, want_stats = ReferenceAnalyzer(**options).analyze(trace)
    assert [(p.kind, p.message, p.seq, p.is_warning) for p in got] == [
        (p.kind, p.message, p.seq, p.is_warning) for p in want
    ]
    assert got_stats == want_stats
