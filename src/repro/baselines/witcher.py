"""Witcher (SOSP'21): systematic crash-consistency testing for NVM
key-value stores.

Approach: instrument the KV store and its *driver* (a YCSB-like harness
the developer must write — Table 3), collect a per-operation PM-access
trace, infer likely ordering/atomicity invariants, generate crash images
that violate them — including images that do NOT respect program order —
and decide bugs by *output equivalence*: boot each image and compare every
key's value against the set of acceptable states (the op either happened
or did not).  No false positives, no reliance on a recovery procedure.

Cost and resource structure per the paper: an order of magnitude slower
than other systems (every candidate image implies a full post-failure
output check), aggressively parallel across all cores (CPU load >130x)
without bounding memory (232x RAM — it exhausted the evaluation machine's
256 GB), which is why it never finished the 150k-op workloads (Figure 4b).
Real output checks are sampled once the budget is clearly going to run
out; units are charged for all of them.

Because it explores *reordered* images, Witcher detects the fence-gap
ordering bugs Mumak's program-order prefixes cannot see.
"""

from __future__ import annotations

from typing import Dict, List

from repro.baselines.base import (
    COST_IMAGE_BYTE,
    COST_LIGHT_INSTRUMENTATION,
    COST_OUTPUT_CHECK,
    DetectionTool,
    ToolCapabilities,
    ToolErgonomics,
)
from repro.core.report import Finding, PHASE_FAULT_INJECTION
from repro.core.taxonomy import BugKind
from repro.errors import RecoveryError
from repro.instrument.runner import run_instrumented
from repro.instrument.tracer import MinimalTracer
from repro.pmem import PMachine
from repro.pmem.crashsim import drop_one_line_images, strict_image
from repro.pmem.events import Opcode
from repro.recovery import persisted_write_extent

#: Intra-operation fences at which adversarial reorderings are generated.
_FENCES_PER_OP = 3
#: Modeled worker fan-out (the original spawns one worker per core).
_PARALLEL_WORKERS = 128


class Witcher(DetectionTool):
    name = "Witcher"
    capabilities = ToolCapabilities(
        durability=True,
        atomicity=True,
        ordering=True,
        redundant_flush=True,
        redundant_fence=True,
        application_agnostic=False,  # key-value semantics only
        library_agnostic=True,
    )
    ergonomics = ToolErgonomics(
        complete_bug_path=False,
        filters_unique_bugs=False,
        generic_workload=False,  # needs a hand-written driver
        changes_target_code=True,
        changes_build_process=True,
        notes="4-5 GB of raw output, no summary; KV stores only",
    )
    cpu_load = 140.0  # Table 2: 138-148 (one worker per core)
    pm_overhead_model = 1.0

    def _analyze(self, app_factory, workload, meter, usage, report, run,
                 seed) -> None:
        # The driver requirement: Witcher interposes on the op stream.
        tracer = MinimalTracer()
        op_boundaries: List[int] = []

        class _DriverSpy:
            """Wraps the workload so op boundaries are observable."""

            def __init__(self, ops, machine_events):
                self.ops = ops

            def __iter__(self):
                for op in self.ops:
                    op_boundaries.append(len(tracer.events))
                    yield op

        artifacts = run_instrumented(
            app_factory,
            _DriverSpy(workload, tracer),
            hooks=[tracer],
            seed=seed,
        )
        trace = tracer.events
        meter.charge(len(trace) * COST_LIGHT_INSTRUMENTATION * 2)
        pool_size = artifacts.machine.medium.size
        # Unbounded parallel bookkeeping: the memory model that exhausted
        # the paper's 256 GB machine.
        usage.note_bytes(
            _PARALLEL_WORKERS * (pool_size + len(trace) * 80)
        )
        # Images are built only up to the end of the trace's persisted
        # writes: the initial image is a fresh pool's (zero), so every
        # image is zero above it, and each boots on the full logical
        # pool.  The cost model still charges a whole pool per image.
        extent = persisted_write_extent(trace)
        initial = artifacts.initial_image
        if extent is not None:
            initial = initial[:extent[1]]
        # Output-equivalence model: the acceptable value set per key after
        # each op prefix.
        model_before: Dict[bytes, bytes] = {}
        checks_run = 0
        for op_index, op in enumerate(workload):
            if meter.exhausted:
                break
            start = op_boundaries[op_index]
            boundary = (
                op_boundaries[op_index + 1]
                if op_index + 1 < len(op_boundaries)
                else len(trace)
            )
            # Likely-invariant violation points: the fences inside the op.
            fences = [
                e.seq
                for e in trace[start:boundary]
                if e.opcode in (Opcode.SFENCE, Opcode.MFENCE)
            ]
            if len(fences) > _FENCES_PER_OP:
                step = len(fences) // _FENCES_PER_OP
                fences = fences[::step][:_FENCES_PER_OP]
            images = [strict_image(initial, trace, boundary)]
            for fence_seq in fences:
                images.extend(drop_one_line_images(initial, trace, fence_seq))
            model_after = dict(model_before)
            if op.kind in ("put", "update"):
                model_after[op.key] = op.value
            elif op.kind == "delete":
                model_after.pop(op.key, None)
            for image in images:
                meter.charge(pool_size * COST_IMAGE_BYTE)
                meter.charge(len(model_after) * COST_OUTPUT_CHECK * 4)
                if meter.exhausted:
                    break
                checks_run += 1
                finding = self._output_check(
                    app_factory, image, pool_size, model_before,
                    model_after, op_index,
                )
                if finding is not None:
                    report.add(finding)
            model_before = model_after
        run.detail["output_checks"] = checks_run
        run.detail["ops_covered"] = min(
            len(op_boundaries), len(workload)
        )

    def _output_check(
        self, app_factory, image, pool_size, before, after, op_index
    ):
        app = app_factory()
        machine = PMachine.from_image(image, pm_size=pool_size)
        try:
            app.recover(machine)
        except RecoveryError:
            # Witcher does not use the recovery procedure as an oracle,
            # but an unbootable store cannot serve reads at all: output
            # equivalence fails trivially.
            return Finding(
                kind=BugKind.CRASH_CONSISTENCY,
                phase=PHASE_FAULT_INJECTION,
                message=f"store unbootable after op {op_index}",
                site=f"op#{op_index}",
                seq=op_index,
            )
        except Exception as err:  # noqa: BLE001
            return Finding(
                kind=BugKind.CRASH_CONSISTENCY,
                phase=PHASE_FAULT_INJECTION,
                message=f"post-failure store crashed after op {op_index}: {err}",
                site=f"op#{op_index}",
                seq=op_index,
            )
        # Sorted: the first mismatching key names the finding, and set
        # order would make it depend on the process's hash seed.
        for key in sorted(set(before) | set(after)):
            acceptable = {before.get(key), after.get(key)}
            try:
                observed = app.get(key)
            except Exception as err:  # noqa: BLE001
                return Finding(
                    kind=BugKind.CRASH_CONSISTENCY,
                    phase=PHASE_FAULT_INJECTION,
                    message=f"read of {key!r} crashed post-failure: {err}",
                    site=f"op#{op_index}",
                    seq=op_index,
                )
            if observed not in acceptable:
                return Finding(
                    kind=BugKind.CRASH_CONSISTENCY,
                    phase=PHASE_FAULT_INJECTION,
                    message=(
                        f"output mismatch for {key!r} after op {op_index}: "
                        f"observed {observed!r}"
                    ),
                    site=f"op#{op_index}",
                    seq=op_index,
                )
        return None
