"""Per-layer attribution for one ``Mumak.analyze`` call, from outside ``src/``.

:class:`LayerTracer` wraps the public calls each layer exposes (listed in
:data:`WRAPS`) where their callers look them up, and removes every wrapper
again on exit.  A stack gives each call its *self time*: its duration minus
the time of the wrapped calls it made.  Low-volume calls are also kept as
spans (name, start, end, parent span, campaign id) and written out by
:meth:`LayerTracer.write_spans` after the run; hot calls (machine ops,
hooks, stack capture, TSO ops, failure-point inserts) are only counted and
summed.

Every wrapped call belongs to exactly one layer, and the root
(``Mumak.analyze``) keeps as its self time whatever no layer claimed, so
the layer self times plus the root's residual add up to the traced
``analyze`` time.

Only the process that installed the tracer records: a forked shard worker
inherits the wrappers but runs them as plain pass-throughs.
"""

from __future__ import annotations

import importlib
import json
import os
import time

#: Layer names, in report order; the last one is the root.
LAYERS = (
    "instrument",
    "pmem.machine",
    "pmem.tso",
    "sched",
    "core.fpt",
    "pmem.incremental",
    "pmem.faultmodel",
    "recovery.digest",
    "recovery.cache",
    "recovery.pool",
    "core.oracle",
    "core.harness",
    "core.trace_analysis",
    "fabric",
    "core.pipeline",
)

ROOT = "core.pipeline.analyze"
RECOVERY = "core.oracle.run_recovery"


def _digest_bytes(args, result):
    digester, data = args[0], args[1]
    if digester.extent is not None:
        return digester.extent[1] - digester.extent[0]
    with memoryview(getattr(data, "pm_buffer", data)) as view:
        return view.nbytes


def _cache_hit(args, result):
    return result is not None


def _events(args, result):
    return len(args[1])


#: ``(stat name, span kept?, measure, [(module[:Class], attribute), ...])``.
#: A stat's layer is the longest entry of :data:`LAYERS` it starts with.
#: Module-level functions are patched in the module that *calls* them,
#: because each caller bound the name at import time.  ``measure(args,
#: result)`` adds to the stat's ``extra`` total.
WRAPS = (
    ("instrument.run", True, None, [
        ("repro.core.pipeline", "run_instrumented"),
        ("repro.core.trace_analysis", "run_instrumented"),
        ("repro.core.fault_injection", "run_instrumented"),
    ]),
    ("instrument.capture_stack", False, None, [
        ("repro.instrument.tracer", "capture_stack"),
    ]),
    ("instrument.hooks", False, None, [
        ("repro.instrument.tracer:MinimalTracer", "__call__"),
        ("repro.instrument.tracer:FailurePointObserver", "__call__"),
    ]),
    ("pmem.machine.load", False, None, [
        ("repro.pmem.machine:PMachine", "load"),
    ]),
    ("pmem.machine.store", False, None, [
        ("repro.pmem.machine:PMachine", "store"),
        ("repro.pmem.machine:PMachine", "ntstore"),
    ]),
    ("pmem.machine.flush", False, None, [
        ("repro.pmem.machine:PMachine", "clflush"),
        ("repro.pmem.machine:PMachine", "clflushopt"),
        ("repro.pmem.machine:PMachine", "clwb"),
    ]),
    ("pmem.machine.fence", False, None, [
        ("repro.pmem.machine:PMachine", "sfence"),
        ("repro.pmem.machine:PMachine", "mfence"),
    ]),
    ("pmem.machine.rmw", False, None, [
        ("repro.pmem.machine:PMachine", "rmw_u64"),
        ("repro.pmem.machine:PMachine", "cas_u64"),
        ("repro.pmem.machine:PMachine", "faa_u64"),
    ]),
    ("pmem.machine.boot", False, None, [
        ("repro.pmem.machine:PMachine", "from_image"),
        ("repro.pmem.machine:PMachine", "reset_to_image"),
    ]),
    ("pmem.tso.store", False, None, [
        ("repro.pmem.tso:StoreBuffer", "append"),
    ]),
    ("pmem.tso.forward", False, None, [
        ("repro.pmem.tso:StoreBuffer", "forward"),
    ]),
    ("pmem.tso.drain", False, None, [
        ("repro.pmem.tso:TSOThreadView", "drain_one"),
        ("repro.pmem.tso:TSOThreadView", "drain_all"),
    ]),
    ("sched.drive", False, None, [
        ("repro.sched.scheduler:TSOScheduler", "drive"),
    ]),
    ("sched.detect", True, None, [
        ("repro.sched.campaign", "detect_schedules"),
    ]),
    ("core.fpt.insert", False, None, [
        ("repro.core.fpt:FailurePointTree", "insert"),
    ]),
    ("pmem.incremental.checkout", True, None, [
        ("repro.pmem.incremental:IncrementalImageEngine", "checkout"),
    ]),
    ("pmem.incremental.release", True, None, [
        ("repro.pmem.incremental:IncrementalImageEngine", "release"),
    ]),
    ("pmem.incremental.history", True, None, [
        ("repro.pmem.incremental:IncrementalHistoryIndex", "__init__"),
        ("repro.pmem.incremental:IncrementalHistoryIndex", "fork"),
    ]),
    ("pmem.faultmodel.plan", True, None, [
        ("repro.pmem.faultmodel:AdversarialImageFactory", "plan"),
    ]),
    ("pmem.faultmodel.materialise", True, None, [
        ("repro.pmem.faultmodel:AdversarialImageFactory", "materialise"),
    ]),
    ("recovery.digest", True, _digest_bytes, [
        ("repro.recovery.digest:ImageDigester", "digest"),
    ]),
    ("recovery.cache.lookup", True, _cache_hit, [
        ("repro.recovery.cache:VerdictCache", "lookup"),
    ]),
    ("recovery.cache.store", True, None, [
        ("repro.recovery.cache:VerdictCache", "store"),
    ]),
    ("recovery.cache.adopt", True, None, [
        ("repro.recovery.cache:VerdictCache", "adopt"),
    ]),
    ("recovery.pool.acquire", False, None, [
        ("repro.recovery.pool:MachineTemplatePool", "acquire"),
    ]),
    ("recovery.pool.release", False, None, [
        ("repro.recovery.pool:MachineTemplatePool", "release"),
    ]),
    (RECOVERY, True, None, [
        ("repro.core.harness", "run_recovery"),
    ]),
    ("core.harness.journal.record", True, None, [
        ("repro.core.harness:CampaignJournal", "record"),
    ]),
    ("core.harness.journal.flush", True, None, [
        ("repro.core.harness:CampaignJournal", "flush"),
    ]),
    ("core.harness.run_campaign", True, None, [
        ("repro.core.fault_injection", "run_campaign"),
    ]),
    ("core.trace_analysis.analyze", True, _events, [
        ("repro.core.trace_analysis:TraceAnalyzer", "analyze"),
    ]),
    ("core.trace_analysis.resolve_sites", True, None, [
        ("repro.core.pipeline", "resolve_sites"),
        ("repro.core.pipeline", "resolve_sites_scheduled"),
    ]),
    ("fabric.inject_sharded", True, None, [
        ("repro.core.fault_injection:FaultInjector", "inject_sharded"),
    ]),
    ("fabric.merge", True, None, [
        ("repro.fabric.supervisor", "merge_journals"),
    ]),
    (ROOT, True, None, [
        ("repro.core.pipeline:Mumak", "analyze"),
    ]),
)


def layer_of(stat_name: str) -> str:
    return max(
        (layer for layer in LAYERS
         if stat_name == layer or stat_name.startswith(layer + ".")),
        key=len,
    )


def resolve_owner(spec: str):
    """``"pkg.mod"`` → the module; ``"pkg.mod:Class"`` → the class."""
    module_name, _, class_name = spec.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Stat:
    """Totals for one stat name: calls, self time, and the part of the
    self time spent under ``run_recovery`` (the hook-free machine)."""

    __slots__ = ("calls", "self_s", "recovery_s", "extra")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.recovery_s = 0.0
        self.extra = 0.0


class LayerTracer:
    """Wrap :data:`WRAPS` for the duration of a ``with`` block."""

    def __init__(self, campaign: str = "", clock=time.perf_counter):
        self.campaign = campaign
        self.clock = clock
        self.stats = {}
        #: ``(id, name, start, end, parent id)``, in completion order.
        self.spans = []
        self.active = False
        self._stack = []
        self._open_spans = []
        self._recovery_depth = 0
        self._next_span = 0
        self._saved = []

    # ---------------------------------------------------------------- #
    # the timing core
    # ---------------------------------------------------------------- #

    def timed(self, name, fn, keep_span=False, measure=None):
        """Return ``fn`` wrapped to account its calls under ``name``."""
        stat = self.stats.setdefault(name, Stat())
        clock = self.clock
        stack = self._stack
        open_spans = self._open_spans
        marks_recovery = name == RECOVERY
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = None
            if keep_span:
                span_id = tracer._next_span
                tracer._next_span += 1
                open_spans.append(span_id)
            children = [0.0]
            stack.append(children)
            if marks_recovery:
                tracer._recovery_depth += 1
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                if marks_recovery:
                    tracer._recovery_depth -= 1
                duration = end - start
                own = duration - children[0]
                stat.calls += 1
                stat.self_s += own
                if tracer._recovery_depth:
                    stat.recovery_s += own
                if measure is not None:
                    stat.extra += measure(args, result)
                if stack:
                    stack[-1][0] += duration
                if keep_span:
                    open_spans.pop()
                    parent = open_spans[-1] if open_spans else None
                    tracer.spans.append((span_id, name, start, end, parent))

        # capture_stack/capture_site drop frames whose file lies under an
        # instrumentation package.  The wrappers are instrumentation too:
        # giving them such a path keeps every captured stack, and with it
        # the failure-point tree and the journal, as in an untraced run.
        wrapper.__code__ = wrapper.__code__.replace(co_filename=_WRAPPER_FILE)
        return wrapper

    # ---------------------------------------------------------------- #
    # install / remove
    # ---------------------------------------------------------------- #

    def __enter__(self):
        for name, keep_span, measure, targets in WRAPS:
            for spec, attribute in targets:
                owner = resolve_owner(spec)
                if isinstance(owner, type):
                    raw = owner.__dict__[attribute]
                else:
                    raw = getattr(owner, attribute)
                if isinstance(raw, (classmethod, staticmethod)):
                    patched = type(raw)(
                        self.timed(name, raw.__func__, keep_span, measure)
                    )
                else:
                    patched = self.timed(name, raw, keep_span, measure)
                self._saved.append((owner, attribute, raw))
                setattr(owner, attribute, patched)
        os.register_at_fork(after_in_child=self._stop_in_child)
        self.active = True
        return self

    def _stop_in_child(self):
        self.active = False

    def __exit__(self, *exc):
        self.active = False
        while self._saved:
            owner, attribute, raw = self._saved.pop()
            setattr(owner, attribute, raw)
        return False

    # ---------------------------------------------------------------- #
    # results
    # ---------------------------------------------------------------- #

    def root_seconds(self) -> float:
        """Duration of the (single) traced ``Mumak.analyze`` call."""
        return sum(end - start for _, name, start, end, _ in self.spans
                   if name == ROOT)

    def layer_self(self) -> dict:
        totals = {layer: 0.0 for layer in LAYERS}
        for name, stat in self.stats.items():
            totals[layer_of(name)] += stat.self_s
        return totals

    def durations(self, name: str):
        return [end - start for _, span_name, start, end, _ in self.spans
                if span_name == name]

    def write_spans(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for span_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({
                    "id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "campaign": self.campaign,
                }) + "\n")


#: A path under ``repro/instrument/`` that names no real file; see
#: :meth:`LayerTracer.timed`.
_WRAPPER_FILE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "<wrapper>", "repro",
    "instrument", "perfbench_wrapper.py",
)
