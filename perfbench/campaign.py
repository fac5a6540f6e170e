"""One benchmark campaign, as a user runs ``mumak analyze``, in this process.

Usage: ``campaign.py WORKLOAD SEED SCALE WORKDIR [SPANS.jsonl]``

``bench.py`` starts this script once per rep in a fresh interpreter.  It
sets up (imports, app resolution, workload generation), prints ``ready``,
runs one ``Mumak(config).analyze(factory, workload)`` with a checkpoint
journal in WORKDIR, and prints one JSON line with the timings, the speed
probe's medians over set-up and over the campaign, and the journal's
sha256.  With SPANS.jsonl it runs under
:class:`tracer.LayerTracer`, adds the per-layer numbers, and writes the
spans there.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time

from tracer import LAYERS, RECOVERY, ROOT, LayerTracer, layer_of

#: ``name -> (target, app options, settings)``; why each workload exists is
#: recorded in BENCHMARK.json and README.md.  Settings: ``ops`` (workload
#: size), ``shards``, ``torn`` (torn fault model), ``samples`` (``--sched
#: threads=2`` samples), ``max_injections``.  Scales other than ``bench``
#: override settings per workload.
WORKLOADS = {
    "rbtree-serial": ("rbtree", {}, {"ops": 600}),
    "rbtree-shards2": ("rbtree", {}, {"ops": 600, "shards": 2}),
    "btree-long": ("btree", {"spt": True}, {"ops": 1500}),
    # Capped so that every input does about the same injection work.
    # Uncapped at 40 ops, seeds 1-10 gave anywhere from 47 to 108
    # injections.  The cost follows the number of 32 MiB images copied: at
    # 120 ops capped at 48, inputs split about evenly between 13 and 15
    # copies, so a run's median jumped with its draw of inputs.  At 180 ops
    # capped at 60, 28 of the 32 input seeds 8-39 copy 19 images.
    "btree-torn": ("btree", {"spt": True},
                   {"ops": 180, "torn": True, "max_injections": 60}),
    "msgqueue-sched": ("msgqueue_tso", {}, {"ops": 300, "samples": 600}),
}

SCALES = {
    "bench": {},
    # Seconds per campaign, for the harness self-test.
    "smoke": {
        "rbtree-serial": {"ops": 60},
        "rbtree-shards2": {"ops": 60},
        "btree-long": {"ops": 80},
        "btree-torn": {"ops": 20, "max_injections": 8},
        "msgqueue-sched": {"samples": 12},
    },
}


def settings(name: str, scale: str) -> dict:
    merged = dict(WORKLOADS[name][2])
    merged.update(SCALES[scale].get(name, {}))
    return merged


class SpeedProbe:
    """Times a fixed interpreter loop every ``interval`` seconds of wall
    time, from a ``SIGALRM`` handler in this process's main thread.

    On a shared host a vCPU can run the same code up to 1.7x slower for
    seconds to minutes, and the guest sees no steal time and has no
    counters to show it.  The loop shares the CPU the campaign runs on, at
    the moments it runs, so its median time over an interval tells how
    fast that CPU was then.  It costs about 0.6% of the wall time.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        #: ``(end time, loop seconds)`` per sample.
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame):
        start = time.perf_counter()
        total = 0
        for i in range(2_000):
            total += i * i % 7
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def median(self, start: float, end: float) -> float:
        """Median loop time of the samples taken in ``[start, end]``, or of
        all samples when that interval holds none."""
        inside = [s for t, s in self.samples if start <= t <= end]
        return statistics.median(inside or [s for _, s in self.samples])


def _cpu_seconds(*usages) -> float:
    return sum(u.ru_utime + u.ru_stime for u in usages)


def _quantile_ms(values, index):
    if len(values) < 2:
        return 1000.0 * sum(values)
    return 1000.0 * statistics.quantiles(values, n=10)[index]


def layer_metrics(tracer, trace_length: int, journal_bytes: int) -> dict:
    """Per-layer numbers of one traced campaign, by metric name."""
    stats = tracer.stats
    root = tracer.root_seconds()
    metrics = {"trace.analyze_s": root}
    for name, stat in stats.items():
        if name == ROOT:
            continue
        metrics[f"{name}.calls"] = stat.calls
        metrics[f"{name}.self_s"] = stat.self_s
    machine = [s for n, s in stats.items() if layer_of(n) == "pmem.machine"]
    metrics["pmem.machine.unhooked_s"] = sum(s.recovery_s for s in machine)
    metrics["pmem.machine.hooked_s"] = sum(
        s.self_s - s.recovery_s for s in machine
    )
    lookup = stats["recovery.cache.lookup"]
    metrics["recovery.cache.hits"] = lookup.extra
    metrics["recovery.cache.hit_ratio"] = (
        lookup.extra / lookup.calls if lookup.calls else 0.0
    )
    metrics["recovery.digest.bytes"] = stats["recovery.digest"].extra
    recoveries = tracer.durations(RECOVERY)
    metrics[f"{RECOVERY}.p50_ms"] = _quantile_ms(recoveries, 4)
    metrics[f"{RECOVERY}.p90_ms"] = _quantile_ms(recoveries, 8)
    record = stats["core.harness.journal.record"]
    metrics["core.harness.journal.records"] = record.calls
    metrics["core.harness.journal.bytes"] = journal_bytes
    metrics["core.harness.journal.self_s"] = (
        record.self_s + stats["core.harness.journal.flush"].self_s
    )
    analyze = stats["core.trace_analysis.analyze"]
    metrics["core.trace_analysis.analyze.events"] = analyze.extra
    metrics["core.trace_analysis.analyze.events_per_s"] = (
        analyze.extra / analyze.self_s if analyze.self_s else 0.0
    )
    metrics["fabric.wait_s"] = stats["fabric.inject_sharded"].self_s
    metrics["core.pipeline.residual_s"] = stats[ROOT].self_s
    layer_self = tracer.layer_self()
    for layer in LAYERS[:-1]:
        metrics[f"{layer}.share"] = layer_self[layer] / root
    metrics["trace.events"] = trace_length
    return metrics


def prepare(name: str, seed: int, scale: str, checkpoint: str):
    """The set-up a user's ``mumak analyze`` does: imports, app resolution
    and workload generation.  Returns ``(config, factory, workload)``."""
    from repro.apps import resolve_application
    from repro.core.pipeline import MumakConfig
    from repro.pmem.faultmodel import FaultModelConfig
    from repro.sched.config import SchedConfig
    from repro.workloads import generate_workload

    target, options, _ = WORKLOADS[name]
    knobs = settings(name, scale)
    config = MumakConfig(
        seed=seed,
        jobs=1,
        checkpoint_path=checkpoint,
        shards=knobs.get("shards", 1),
        max_injections=knobs.get("max_injections"),
        fault_model=FaultModelConfig(
            model="torn" if knobs.get("torn") else "prefix",
            torn_writes=bool(knobs.get("torn")),
            seed=seed,
        ),
        sched=(
            SchedConfig(threads=2, seed=seed, samples=knobs["samples"])
            if "samples" in knobs else None
        ),
    )
    factory = functools.partial(resolve_application(target), **options)
    return config, factory, generate_workload(knobs["ops"], seed=seed)


def main(argv) -> int:
    name, seed, scale, workdir = argv[1], int(argv[2]), argv[3], argv[4]
    spans_path = argv[5] if len(argv) > 5 else None
    checkpoint = os.path.join(workdir, "campaign.ckpt.jsonl")

    with contextlib.ExitStack() as stack:
        probe = stack.enter_context(SpeedProbe())
        config, factory, workload = prepare(name, seed, scale, checkpoint)
        from repro.core.pipeline import Mumak

        tracer = None
        if spans_path is not None:
            tracer = stack.enter_context(
                LayerTracer(campaign=f"{name}/{scale}/seed{seed}")
            )
        ready_at = time.perf_counter()
        print("ready", flush=True)
        before = (resource.getrusage(resource.RUSAGE_SELF),
                  resource.getrusage(resource.RUSAGE_CHILDREN))
        start = time.perf_counter()
        result = Mumak(config).analyze(factory, workload)
        end = time.perf_counter()
        after = (resource.getrusage(resource.RUSAGE_SELF),
                 resource.getrusage(resource.RUSAGE_CHILDREN))

    from repro.core.oracle import RecoveryStatus

    with open(checkpoint, "rb") as fh:
        journal = fh.read()
    fi = result.fault_injection
    infra = sum(
        outcome.status is RecoveryStatus.INFRA_ERROR
        for _, outcome in fi.outcomes
    )
    record = {
        "analyze_s": end - start,
        "cpu_s": _cpu_seconds(*after) - _cpu_seconds(*before),
        "peak_rss_mb": max(u.ru_maxrss for u in after) / 1024.0,
        "probe": {"setup": probe.median(float("-inf"), ready_at),
                  "analyze": probe.median(start, end)},
        "digest": hashlib.sha256(journal).hexdigest(),
        "injections": fi.stats.injections,
        "failed": fi.stats.quarantined + infra,
    }
    if tracer is not None:
        record["layers"] = layer_metrics(
            tracer, result.trace_length, len(journal)
        )
        tracer.write_spans(spans_path)
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
