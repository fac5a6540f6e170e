"""Bug reports and their aggregation.

The ergonomics the paper claims for Mumak (Table 3) live here: every
finding carries the complete code path that reached it, duplicates are
filtered so each unique bug is reported once, and ambiguous findings are
*warnings* that can be suppressed without touching the definite reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.taxonomy import BugKind
from repro.instrument.backtrace import format_stack

PHASE_FAULT_INJECTION = "fault_injection"
PHASE_TRACE_ANALYSIS = "trace_analysis"


@dataclass(frozen=True)
class Finding:
    """One detected bug or warning."""

    kind: BugKind
    phase: str
    message: str
    #: Innermost target-code location (file:line:function).
    site: Optional[str] = None
    #: Full code path leading to the finding, outermost first.
    stack: Tuple[str, ...] = ()
    #: Ambiguous patterns are warnings, never counted as positives.
    is_warning: bool = False
    #: Instruction counter of the triggering event / failure point.
    seq: Optional[int] = None
    #: For fault-injection findings: how recovery failed.
    recovery_error: Optional[str] = None
    #: For abrupt recovery failures: the recovery call trace.
    recovery_trace: Optional[str] = None
    #: Fault-model variant that exposed the finding ("prefix", "torn:0",
    #: "reorder:1", "media:0", ...).  ``None`` for trace-analysis findings
    #: and reports predating the fault-model layer.
    variant: Optional[str] = None
    #: Schedule sample (``--sched``) whose interleaving exposed the
    #: finding; ``None`` for single-threaded program-order campaigns.
    sched: Optional[int] = None

    def dedup_key(self) -> Tuple:
        """Two findings with the same key are the same bug.

        Fault-injection findings are identified by the code path of their
        failure point; trace findings by their pattern kind and site.
        """
        if self.phase == PHASE_FAULT_INJECTION:
            return (self.phase, self.stack or self.site)
        return (self.phase, self.kind, self.site, self.is_warning)

    def render(self) -> str:
        tag = "WARNING" if self.is_warning else "BUG"
        lines = [f"[{tag}] {self.kind.value} ({self.phase}): {self.message}"]
        if self.site and not self.stack:
            lines.append(f"  at {self.site}")
        if self.stack:
            lines.append(format_stack(self.stack))
        if self.variant and self.variant != "prefix":
            lines.append(f"  exposed by fault-model variant '{self.variant}'")
        if self.sched is not None:
            lines.append(f"  exposed under schedule sample {self.sched}")
        if self.recovery_error:
            lines.append(f"  recovery failed: {self.recovery_error}")
        if self.recovery_trace:
            lines.append("  recovery call trace:")
            lines.extend(
                f"    {line}" for line in self.recovery_trace.splitlines()
            )
        return "\n".join(lines)


@dataclass
class ModelComparison:
    """Prefix-vs-adversarial outcome summary for one campaign.

    Quantifies what the adversarial fault-model layer bought over Mumak's
    deterministic program-order-prefix crash (the paper only materialises
    the latter): how many unique bugs each side exposed, and which bugs
    *only* an adversarial variant could reach.
    """

    model: str = "prefix"
    prefix_injections: int = 0
    adversarial_injections: int = 0
    prefix_bugs: int = 0
    adversarial_bugs: int = 0
    #: Dedup-keyed bugs exposed only by a non-prefix variant, as
    #: ``(variant, message)`` pairs.
    adversarial_only: List[Tuple[str, str]] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"fault-model comparison (model={self.model}):",
            f"  prefix injections:      {self.prefix_injections}"
            f" -> {self.prefix_bugs} bug(s)",
            f"  adversarial injections: {self.adversarial_injections}"
            f" -> {self.adversarial_bugs} bug(s)",
        ]
        if self.adversarial_only:
            lines.append(
                f"  {len(self.adversarial_only)} bug(s) exposed ONLY by "
                "adversarial variants (missed by the prefix crash):"
            )
            for variant, message in self.adversarial_only:
                lines.append(f"    [{variant}] {message}")
        else:
            lines.append(
                "  no adversarial-only bugs: every finding was already "
                "reachable through the prefix crash"
            )
        return "\n".join(lines)


class AnalysisReport:
    """Deduplicated collection of findings from one analysis.

    Besides findings, the report carries the *quarantined* injections the
    hardened campaign runner gave up on (tool-side failures, retried and
    contained — see :mod:`repro.core.harness`).  They are never counted
    as bugs or warnings, but they are always rendered, so a degraded
    campaign still delivers an honest partial report.
    """

    def __init__(self):
        self._findings: Dict[Tuple, Finding] = {}
        self.duplicates_filtered = 0
        self._quarantined: List = []
        self._model_comparison: Optional[ModelComparison] = None

    def add(self, finding: Finding) -> bool:
        """Record a finding; returns False when it duplicates a known bug."""
        key = finding.dedup_key()
        if key in self._findings:
            self.duplicates_filtered += 1
            return False
        self._findings[key] = finding
        return True

    def extend(self, findings) -> None:
        for finding in findings:
            self.add(finding)

    def add_quarantined(self, record) -> None:
        """Record an injection the campaign runner quarantined."""
        self._quarantined.append(record)

    def extend_quarantined(self, records) -> None:
        for record in records:
            self.add_quarantined(record)

    def set_model_comparison(self, comparison: Optional[ModelComparison]) -> None:
        """Attach the prefix-vs-adversarial comparison for rendering."""
        self._model_comparison = comparison

    # ------------------------------------------------------------------ #
    # views
    # ------------------------------------------------------------------ #

    @property
    def findings(self) -> List[Finding]:
        return list(self._findings.values())

    @property
    def bugs(self) -> List[Finding]:
        return [f for f in self._findings.values() if not f.is_warning]

    @property
    def warnings(self) -> List[Finding]:
        return [f for f in self._findings.values() if f.is_warning]

    @property
    def quarantined(self) -> List:
        """Injections skipped after containment gave up (not findings)."""
        return list(self._quarantined)

    def counts_by_kind(self) -> Dict[BugKind, int]:
        counts: Dict[BugKind, int] = {}
        for finding in self.bugs:
            counts[finding.kind] = counts.get(finding.kind, 0) + 1
        return counts

    def correctness_bugs(self) -> List[Finding]:
        return [f for f in self.bugs if f.kind.is_correctness]

    def performance_bugs(self) -> List[Finding]:
        return [f for f in self.bugs if f.kind.is_performance]

    # ------------------------------------------------------------------ #
    # rendering
    # ------------------------------------------------------------------ #

    def render(self, include_warnings: bool = True) -> str:
        sections = []
        bugs = self.bugs
        header = (
            f"{len(bugs)} unique bug(s), {len(self.warnings)} warning(s), "
            f"{self.duplicates_filtered} duplicate report(s) filtered"
        )
        sections.append(header)
        sections.append("=" * len(header))
        for finding in bugs:
            sections.append(finding.render())
        if include_warnings:
            for finding in self.warnings:
                sections.append(finding.render())
        if self._model_comparison is not None:
            sections.append(self._model_comparison.render())
        if self._quarantined:
            lines = [
                f"{len(self._quarantined)} injection(s) quarantined "
                "(tool-side failures; not findings):"
            ]
            lines.extend(record.render() for record in self._quarantined)
            sections.append("\n".join(lines))
        return "\n\n".join(sections)

    def __len__(self) -> int:
        return len(self._findings)
