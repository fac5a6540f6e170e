"""Mumak's trace-analysis phase (paper, section 4.2).

A single pass over the recorded PM-access trace drives one small state
machine per cache line plus a fence-epoch counter, detecting the five
patterns of misuse:

1. *Store never explicitly persisted.*  If the store's cache line is ever
   flushed during the execution the store is reported as a durability bug;
   otherwise the developer is warned about potential use of PM for
   transient data.
2. *Flush of a volatile address, or of a line not written since its most
   recent flush* — a redundant flush, reported as a bug.
3. *Flush covering more than one store* — never a correctness problem, but
   memory-arrangement-dependent; reported as a warning.
4. *Fence with no flush or non-temporal store since the last fence* — a
   redundant fence, reported as a bug.
5. *Fence acting on more than one weak flush / non-temporal store* — the
   persist order between them is not deterministic and the fault-injection
   phase only explored program order; reported as a warning.

The analyser works on the *minimal* trace (opcode, args, instruction
counter).  The pipeline takes the sites of the flagged instructions from
the detection run, which records each event's code site beside the trace
(:attr:`~repro.core.fault_injection.DetectionRun.sites`).  Section 5 of
the paper keeps backtraces out of the tracing run and maps the flagged
counters back to code with a second, lightly instrumented run; that
re-run (:func:`resolve_sites`, :func:`resolve_sites_scheduled`) stays for
the baseline tools and as the reference the recorded sites are tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.report import Finding, PHASE_TRACE_ANALYSIS
from repro.core.taxonomy import BugKind
from repro.instrument.backtrace import capture_site
from repro.instrument.runner import run_instrumented
from repro.pmem.constants import cache_line_of, cache_lines_spanned
from repro.pmem.events import FLUSHES, MemoryEvent, Opcode, WEAK_FLUSHES

#: Opcode groups the analysis branches on (RMW fences as part of its store).
_CACHED_STORES = (Opcode.STORE, Opcode.RMW)
_PLAIN_FENCES = (Opcode.SFENCE, Opcode.MFENCE)


@dataclass
class _PendingFinding:
    """A finding whose site still needs resolving (keyed by event seq)."""

    kind: BugKind
    message: str
    seq: int
    is_warning: bool = False


@dataclass
class _LineState:
    """Per-cache-line bookkeeping."""

    #: Store seqs written since the line's last flush.
    dirty_stores: List[int] = field(default_factory=list)
    #: Store seqs covered by a weak flush that has not been fenced yet.
    awaiting_fence: List[int] = field(default_factory=list)


@dataclass
class TraceAnalysisStats:
    events: int = 0
    stores: int = 0
    flushes: int = 0
    fences: int = 0
    findings: int = 0
    warnings: int = 0


class TraceAnalyzer:
    """Single-pass pattern detection over a PM-access trace."""

    def __init__(
        self,
        pm_size: int,
        include_warnings: bool = True,
        detect_dirty_overwrites: bool = False,
        eadr: bool = False,
    ):
        self.pm_size = pm_size
        self.include_warnings = include_warnings
        self.detect_dirty_overwrites = detect_dirty_overwrites
        #: eADR platforms (paper, sections 2 and 4.3) extend the
        #: persistence domain to the CPU caches: stores need no flush (so
        #: pattern 1 must not fire), every cache flush is unnecessary (a
        #: performance bug), and fences matter only for weakly-ordered
        #: non-temporal stores.
        self.eadr = eadr

    def analyze(
        self, trace: Sequence[MemoryEvent]
    ) -> Tuple[List[_PendingFinding], TraceAnalysisStats]:
        lines: Dict[int, _LineState] = {}
        #: The lines whose ``awaiting_fence`` is non-empty: all that the
        #: next fence (or RMW) has to commit.
        awaiting: Dict[int, _LineState] = {}
        ever_flushed: Set[int] = set()
        #: Weak flushes + NT stores since the last fence (for patterns 4/5).
        epoch_weak_events = 0
        stats = TraceAnalysisStats()
        pending: List[_PendingFinding] = []

        def line(base: int) -> _LineState:
            state = lines.get(base)
            if state is None:
                state = lines[base] = _LineState()
            return state

        def is_pm(address: Optional[int]) -> bool:
            return address is not None and 0 <= address < self.pm_size

        for event in trace:
            stats.events += 1
            opcode = event.opcode

            if opcode in _CACHED_STORES:
                if not is_pm(event.address):
                    continue
                stats.stores += 1
                for base in cache_lines_spanned(event.address, event.size):
                    state = line(base)
                    if self.detect_dirty_overwrites and state.dirty_stores:
                        pending.append(
                            _PendingFinding(
                                BugKind.DURABILITY,
                                "dirty overwrite: the previous store to this "
                                "line was never persisted",
                                event.seq,
                            )
                        )
                    state.dirty_stores.append(event.seq)
                if opcode is Opcode.RMW:
                    # RMW has fence semantics: buffered flushes complete.
                    epoch_weak_events = self._commit_epoch(awaiting)

            elif opcode is Opcode.NT_STORE:
                if not is_pm(event.address):
                    continue
                stats.stores += 1
                epoch_weak_events += 1
                for base in cache_lines_spanned(event.address, event.size):
                    # NT data persists at the fence; model as flush-covered.
                    state = awaiting[base] = line(base)
                    state.awaiting_fence.append(event.seq)
                    ever_flushed.add(base)

            elif opcode in FLUSHES:
                stats.flushes += 1
                if self.eadr:
                    if is_pm(event.address):
                        pending.append(
                            _PendingFinding(
                                BugKind.REDUNDANT_FLUSH,
                                "cache flush on an eADR platform (the "
                                "persistence domain includes the caches)",
                                event.seq,
                            )
                        )
                        base = cache_line_of(event.address)
                        state = awaiting[base] = line(base)
                        state.awaiting_fence.extend(state.dirty_stores)
                        state.dirty_stores.clear()
                        ever_flushed.add(base)
                    continue
                if not is_pm(event.address):
                    pending.append(
                        _PendingFinding(
                            BugKind.REDUNDANT_FLUSH,
                            "flush acting on a volatile address",
                            event.seq,
                        )
                    )
                    continue
                base = cache_line_of(event.address)
                state = line(base)
                ever_flushed.add(base)
                if opcode in WEAK_FLUSHES:
                    # The fence-redundancy rule counts flush *instructions*
                    # (paper: "no flush or non-temporal stores performed
                    # since the last fence"), even useless ones.
                    epoch_weak_events += 1
                if not state.dirty_stores:
                    pending.append(
                        _PendingFinding(
                            BugKind.REDUNDANT_FLUSH,
                            "flush of a cache line not written since its "
                            "most recent flush",
                            event.seq,
                        )
                    )
                else:
                    if len(state.dirty_stores) > 1 and self.include_warnings:
                        pending.append(
                            _PendingFinding(
                                BugKind.REDUNDANT_FLUSH,
                                f"single flush covers "
                                f"{len(state.dirty_stores)} stores; whether "
                                "they share a cache line depends on the "
                                "memory arrangement",
                                event.seq,
                                is_warning=True,
                            )
                        )
                    if opcode is Opcode.CLFLUSH:
                        # Strongly ordered: durable immediately.
                        state.dirty_stores.clear()
                    else:
                        state.awaiting_fence.extend(state.dirty_stores)
                        state.dirty_stores.clear()
                        awaiting[base] = state

            elif opcode in _PLAIN_FENCES:
                stats.fences += 1
                if epoch_weak_events == 0:
                    pending.append(
                        _PendingFinding(
                            BugKind.REDUNDANT_FENCE,
                            "fence with no flush or non-temporal store "
                            "since the previous fence",
                            event.seq,
                        )
                    )
                elif epoch_weak_events > 1 and self.include_warnings:
                    pending.append(
                        _PendingFinding(
                            BugKind.ORDERING,
                            f"fence orders {epoch_weak_events} buffered "
                            "flushes/non-temporal stores whose persist "
                            "order is not deterministic; only program "
                            "order was explored by fault injection",
                            event.seq,
                            is_warning=True,
                        )
                    )
                epoch_weak_events = self._commit_epoch(awaiting)

        # End of trace: pattern 1 — stores that never became durable.
        # On eADR nothing here applies: cache-resident stores are durable.
        for base, state in ({} if self.eadr else lines).items():
            leftovers = state.dirty_stores + state.awaiting_fence
            for seq in leftovers:
                if base in ever_flushed:
                    pending.append(
                        _PendingFinding(
                            BugKind.DURABILITY,
                            "store never explicitly persisted (its line is "
                            "flushed elsewhere, so it lives in PM on "
                            "purpose)",
                            seq,
                        )
                    )
                elif self.include_warnings:
                    pending.append(
                        _PendingFinding(
                            BugKind.TRANSIENT_DATA,
                            "store to PM never persisted anywhere; this "
                            "data may belong in volatile memory",
                            seq,
                            is_warning=True,
                        )
                    )
        stats.findings = sum(1 for p in pending if not p.is_warning)
        stats.warnings = sum(1 for p in pending if p.is_warning)
        return pending, stats

    @staticmethod
    def _commit_epoch(awaiting: Dict[int, _LineState]) -> int:
        """A fence: every buffered flush and NT store is durable."""
        for state in awaiting.values():
            state.awaiting_fence.clear()
        awaiting.clear()
        return 0


# --------------------------------------------------------------------- #
# debug-information resolution (the second, minimal-instrumentation run)
# --------------------------------------------------------------------- #

class _SiteResolver:
    """Hook that records the code site of selected instruction counters."""

    def __init__(self, wanted: Set[int]):
        self.wanted = wanted
        self.sites: Dict[int, str] = {}

    def __call__(self, event: MemoryEvent, machine) -> None:
        if event.seq in self.wanted:
            self.sites[event.seq] = capture_site(skip=2)


def resolve_sites(
    app_factory: Callable[[], Any],
    workload: Sequence,
    seqs: Set[int],
    seed: int = 0,
) -> Dict[int, str]:
    """Re-execute the target to obtain debug info for flagged instructions.

    Mirrors the paper's optimisation: the analysis trace carries only
    instruction counters; one extra run with minimal instrumentation maps
    the flagged counters back to code locations.  Requires the target to be
    deterministic (the paper disables the optimisation otherwise; here the
    runner pins the random seed).
    """
    if not seqs:
        return {}
    resolver = _SiteResolver(set(seqs))
    run_instrumented(app_factory, workload, hooks=[resolver], seed=seed)
    return resolver.sites


def resolve_sites_scheduled(
    app_factory: Callable[[], Any],
    workload: Sequence,
    sched,
    seqs: Set[int],
    seed: int = 0,
) -> Dict[int, str]:
    """Scheduled twin of :func:`resolve_sites`.

    The flagged counters came from schedule sample 0's trace, so the
    debug-info re-run replays that exact interleaving (same derived
    scheduler seed); schedules are deterministic, so the counters map to
    the same instructions.
    """
    if not seqs:
        return {}
    from repro.sched.campaign import derive_schedule_seed
    from repro.sched.runner import run_scheduled

    resolver = _SiteResolver(set(seqs))
    run_scheduled(
        app_factory,
        workload,
        sched,
        derive_schedule_seed(sched.seed, 0),
        hooks=[resolver],
        seed=seed,
    )
    return resolver.sites


def findings_with_sites(
    pending: Sequence[_PendingFinding], sites: Dict[int, str]
) -> List[Finding]:
    """Materialise final findings once sites are known."""
    findings = []
    for item in pending:
        findings.append(
            Finding(
                kind=item.kind,
                phase=PHASE_TRACE_ANALYSIS,
                message=item.message,
                site=sites.get(item.seq),
                is_warning=item.is_warning,
                seq=item.seq,
            )
        )
    return findings
