"""Common interface and cost accounting for detection tools.

Absolute wall-clock comparisons between the original tools are driven by
instrumentation technology (Pin vs LLVM vs KLEE vs virtualisation); a pure
Python reproduction cannot replicate those constants.  What *can* be
reproduced faithfully is each approach's cost structure — how many
instructions are interpreted under which instrumentation weight, how many
crash states are materialised, how many post-failure executions run, and
at what per-unit price.  Tools therefore account deterministic **work
units** (one unit ~ one lightly-instrumented instruction) using the
per-mechanism weights below, and the analysis-time figures convert units
to modelled hours with a single global constant.  Real wall time is
measured and reported alongside.

A tool that exhausts its budget stops and is marked timed out — the
infinity bars of Figure 4.
"""

from __future__ import annotations

import abc
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

from repro.core.harness import supervised_call
from repro.core.oracle import format_capped_trace
from repro.core.report import AnalysisReport
from repro.core.resources import ResourceUsage
from repro.errors import ToolError, WatchdogTimeout
from repro.obs.spans import NULL_TELEMETRY

#: Global conversion for the analysis-time figures.  Calibrated so that
#: Mumak's analysis of the PMDK data-store benchmark lands well under one
#: modelled hour, as in Figure 4.
WORK_UNITS_PER_HOUR = 2_000_000.0

#: The paper's analysis-time cap (section 6.1).
DEFAULT_BUDGET_HOURS = 12.0

# Per-mechanism instrumentation weights (units per instruction/event).
COST_LIGHT_INSTRUMENTATION = 1.0    # Pin-style tracing (Mumak, PMDebugger)
COST_SHADOW_MEMORY = 6.0            # XFDetector's shadow-memory interposition
COST_SYMBOLIC_EXECUTION = 25.0      # Agamotto's KLEE interpretation
COST_UNINSTRUMENTED = 0.05          # native re-execution (Mumak's recovery)
COST_OUTPUT_CHECK = 2.0             # Witcher's output-equivalence replay
COST_IMAGE_BYTE = 0.002             # materialising one crash-image byte


@dataclass(frozen=True)
class ToolCapabilities:
    """One row of Table 1.  Values: True, False, or the strings
    ``"annotations"`` (needs manual annotations), ``"partial"`` and
    ``"undistinguished"`` (flags transient data but cannot tell it apart
    from durability bugs)."""

    durability: Any = False
    atomicity: Any = False
    ordering: Any = False
    redundant_flush: Any = False
    redundant_fence: Any = False
    transient_data: Any = False
    application_agnostic: bool = False
    library_agnostic: bool = False


@dataclass(frozen=True)
class ToolErgonomics:
    """One row of Table 3."""

    complete_bug_path: bool = False
    filters_unique_bugs: bool = False
    generic_workload: bool = True
    changes_target_code: bool = False
    changes_build_process: bool = False
    notes: str = ""


@dataclass
class ToolRun:
    """Result of one analysis."""

    tool: str
    target: str
    report: AnalysisReport
    resources: ResourceUsage
    work_units: float = 0.0
    timed_out: bool = False
    detail: dict = field(default_factory=dict)

    @property
    def modelled_hours(self) -> float:
        return self.work_units / WORK_UNITS_PER_HOUR

    @property
    def wall_seconds(self) -> float:
        return self.resources.total_seconds


class BudgetMeter:
    """Deterministic work-unit accumulator with a hard budget."""

    def __init__(self, budget_hours: Optional[float]):
        self.units = 0.0
        self.budget_units = (
            None if budget_hours is None
            else budget_hours * WORK_UNITS_PER_HOUR
        )

    def charge(self, units: float) -> None:
        self.units += units

    @property
    def exhausted(self) -> bool:
        return self.budget_units is not None and self.units >= self.budget_units


class DetectionTool(abc.ABC):
    """A PM bug-detection tool under the common harness."""

    name: str = "tool"
    capabilities: ToolCapabilities = ToolCapabilities()
    ergonomics: ToolErgonomics = ToolErgonomics()
    #: Modeled average CPU-load factor (Table 2).
    cpu_load: float = 1.0
    #: Modeled PM overhead factor (Table 2; 1.0 = no extra PM).
    pm_overhead_model: float = 1.0
    #: What the tool demands beyond a binary+workload (Table 3 context):
    #: e.g. "annotations", "kv-driver", "llvm-bitcode", "pmdk-only".
    requirements: tuple = ()

    def analyze(
        self,
        app_factory: Callable[[], Any],
        workload: Sequence,
        budget_hours: Optional[float] = DEFAULT_BUDGET_HOURS,
        seed: int = 0,
        timeout_seconds: Optional[float] = None,
        telemetry=NULL_TELEMETRY,
    ) -> ToolRun:
        """Run the tool; never raises on budget exhaustion.

        The call is routed through the same watchdog/containment wrapper
        as Mumak's hardened campaign runner: a hang (with
        ``timeout_seconds`` set) is recorded as a timed-out run and an
        unexpected tool crash is contained into ``run.detail["harness"]``
        — so a comparative (Figure 4 / Table 2) sweep survives any one
        misbehaving tool or target and still delivers partial results.

        ``telemetry`` (observation-only) records a ``tool/<name>`` span
        for the whole analysis plus work-unit / timed-out counters so a
        sweep's cost structure shows up in the same registry as Mumak's
        own campaign metrics.
        """
        meter = BudgetMeter(budget_hours)
        usage = ResourceUsage(cpu_load=self.cpu_load)
        report = AnalysisReport()
        run = ToolRun(
            tool=self.name,
            target=getattr(app_factory(), "name", "target"),
            report=report,
            resources=usage,
        )
        started = time.perf_counter()
        try:
            with telemetry.span(f"tool/{self.name}", target=run.target):
                supervised_call(
                    lambda: self._analyze(
                        app_factory, workload, meter, usage, report, run,
                        seed
                    ),
                    timeout_seconds,
                )
        except WatchdogTimeout as err:
            run.timed_out = True
            run.detail["harness"] = {
                "status": "hung",
                "error": f"{type(err).__name__}: {err}",
            }
        except ToolError:
            # A declared refusal (e.g. PMDebugger on a non-PMDK target,
            # Table 3) — part of the tool's contract, not tool trouble.
            raise
        except Exception as err:  # noqa: BLE001 - containment boundary
            run.detail["harness"] = {
                "status": "infra_error",
                "error": f"{type(err).__name__}: {err}",
                "trace": format_capped_trace(err),
            }
        finally:
            usage.phase_seconds["total"] = time.perf_counter() - started
            run.work_units = meter.units
            run.timed_out = run.timed_out or meter.exhausted
            pool = app_factory().pool_size
            usage.pool_bytes = pool
            usage.tool_pm_bytes = int((self.pm_overhead_model - 1.0) * pool)
        return run

    @abc.abstractmethod
    def _analyze(self, app_factory, workload, meter: BudgetMeter,
                 usage: ResourceUsage, report: AnalysisReport,
                 run: ToolRun, seed: int) -> None:
        """Tool-specific analysis; must honour ``meter.exhausted``."""
