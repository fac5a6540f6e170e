"""Self-test of the benchmark harness, at the smoke scale (seconds).

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/test_bench_harness.py -q
"""

import functools
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import bench
from campaign import SpeedProbe
from tracer import WRAPS, LayerTracer, resolve_owner

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.join(HERE, "bench.py")
SPEC = bench.load_json(os.path.join(bench.ROOT, "BENCHMARK.json"))


def run_bench(*args):
    return subprocess.run(
        [sys.executable, BENCH, "--scale", "smoke", "--reps", "1", *args],
        capture_output=True, text=True, timeout=300,
    )


def metric_lines(stdout):
    """``{(workload, metric): unit}`` from the report lines."""
    found = {}
    for line in stdout.splitlines()[:-1]:
        parts = line.split()
        if len(parts) >= 4:
            found[(parts[0], parts[1])] = parts[3]
    return found


@pytest.fixture(scope="module")
def traced_run(tmp_path_factory):
    """The smoke run of every workload, and its ``--json`` record."""
    path = tmp_path_factory.mktemp("bench") / "run.jsonl"
    proc = run_bench("--trace", "--json", str(path))
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(path.read_text())


def test_every_metric_is_printed_with_its_unit(traced_run):
    traced_run, _ = traced_run
    found = metric_lines(traced_run.stdout)
    for name in bench.WORKLOADS:
        for entry in SPEC["end_to_end"] + SPEC["per_layer"]:
            assert found.get((name, entry["name"])) == entry["unit"], (
                name, entry["name"])
    result = json.loads(traced_run.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0


def _rep(seed, digest, injections):
    return {"seed": seed, "digest": digest, "injections": injections,
            "failed": 0, "analyze_s": 1.0, "cpu_s": 1.0,
            "peak_rss_mb": 100.0, "setup_s": 0.2,
            "wall": {"analyze_s": 1.0, "cpu_s": 1.0, "setup_s": 0.2},
            "probe": {"setup": 1e-4, "analyze": 1e-4}}


def test_tampered_reference_fails_the_run(traced_run):
    _, record = traced_run
    seed = bench.input_seed(4, 0)
    recorded = record["workloads"]["rbtree-serial"]["inputs"][str(seed)]
    reps = [_rep(seed, recorded["digest"], recorded["injections"])]
    assert bench.check_workload("rbtree-serial", reps, None, {},
                                {str(seed): recorded}) == []
    tampered = {str(seed): dict(recorded, digest="0" * 64)}
    problems = bench.check_workload("rbtree-serial", reps, None, {}, tampered)
    assert problems == [f"input {seed}: journal differs from the recorded "
                        f"reference"]
    reports = {"rbtree-serial": bench.workload_report(reps, None, problems)}
    result = bench.result_line(reports, False, SPEC)
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == recorded["injections"]
    assert result["attempted"] > 0


STEADY = [10.0 + 0.05 * i for i in range(10)]


@pytest.mark.parametrize("base, head, expected", [
    (STEADY, [2.0 * x for x in STEADY], "worse"),
    (STEADY, [x + 0.1 for x in STEADY], "unchanged"),
    (STEADY, [0.5 * x for x in STEADY], "improved"),
    (STEADY, [10.0, 30.0] * 5, "unresolved"),
    # Spreads far wider than the bound, but every change run is slower.
    ([1.0, 2.0] * 5, [3.0, 4.0] * 5, "worse"),
])
def test_compare_verdicts(base, head, expected):
    assert bench.verdict(base, head, 0.10) == expected


def test_speed_probe_samples_and_restores_sigalrm():
    previous = signal.getsignal(signal.SIGALRM)
    with SpeedProbe(interval=0.005) as probe:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            pass
        end = time.perf_counter()
    assert len(probe.samples) >= 5
    assert 0 < probe.median(start, end) < 0.005
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_is_duration_minus_wrapped_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tracer = LayerTracer(clock=lambda: next(ticks))
    tracer.active = True
    child = tracer.timed("core.fpt.insert", lambda: None)
    parent = tracer.timed("core.pipeline.analyze", lambda: (child(), child()),
                          keep_span=True)
    parent()
    assert tracer.stats["core.fpt.insert"].calls == 2
    assert tracer.stats["core.fpt.insert"].self_s == pytest.approx(2.5)
    assert tracer.stats["core.pipeline.analyze"].self_s == pytest.approx(7.5)
    assert tracer.root_seconds() == pytest.approx(10.0)


def _current(owner, attribute):
    return (owner.__dict__[attribute] if isinstance(owner, type)
            else getattr(owner, attribute))


def test_wrappers_are_removed_after_a_traced_campaign():
    from repro.apps import resolve_application
    from repro.core.pipeline import Mumak, MumakConfig
    from repro.pmem.machine import PMachine
    from repro.workloads import generate_workload

    targets = [(resolve_owner(spec), attribute)
               for _, _, _, specs in WRAPS for spec, attribute in specs]
    originals = [_current(owner, attr) for owner, attr in targets]
    load = PMachine.load
    with LayerTracer() as tracer:
        assert PMachine.load is not load
        Mumak(MumakConfig()).analyze(
            functools.partial(resolve_application("rbtree")),
            generate_workload(20, seed=4),
        )
    assert tracer.stats["pmem.machine.load"].calls > 0
    assert PMachine.load is load
    for (owner, attr), original in zip(targets, originals):
        assert _current(owner, attr) is original, (owner, attr)


def test_shards_must_reproduce_the_serial_journal():
    reps = [{"seed": 16, "digest": "b" * 64, "injections": 3}]
    problems = bench.check_workload("rbtree-shards2", reps, None,
                                    {16: "a" * 64}, {})
    assert problems == ["input 16: journal differs from rbtree-serial's"]
    assert bench.check_workload("rbtree-shards2", reps, None,
                                {16: "b" * 64}, {}) == []
