"""Trace-analysis sites come from the detection run.

The detection run records every traced event's code site, and
:meth:`Mumak.analyze` looks the flagged instructions up there instead of
re-running the target.  The debug-information re-run
(:func:`resolve_sites` / :func:`resolve_sites_scheduled`) stays the
reference: for every pending finding the recorded site must be the one
the re-run resolves.
"""

import pytest

from repro.apps import APPLICATIONS, THREADED_APPLICATIONS, resolve_application
from repro.core import Mumak, MumakConfig, PHASE_TRACE_ANALYSIS
from repro.core.pipeline import detect
from repro.core.trace_analysis import (
    TraceAnalyzer,
    resolve_sites,
    resolve_sites_scheduled,
)
from repro.sched.config import SchedConfig
from repro.workloads import generate_workload

SCHED = SchedConfig(threads=2, seed=3, samples=4)

#: name -> (target, app options, analyzer knobs, ops, workload seed, sched)
CASES = {
    "btree-spt": ("btree", {"spt": True}, {}, 200, 5, None),
    "rbtree-dirty-overwrites": (
        "rbtree", {}, {"detect_dirty_overwrites": True}, 200, 5, None,
    ),
    "hashmap_atomic-eadr": ("hashmap_atomic", {}, {"eadr": True}, 200, 5,
                            None),
    "level_hashing-no-warnings": (
        "level_hashing", {}, {"include_warnings": False}, 200, 5, None,
    ),
    "cceh": ("cceh", {}, {}, 200, 5, None),
    "wort": ("wort", {}, {}, 200, 5, None),
    "fast_fair": ("fast_fair", {}, {}, 200, 5, None),
    "redis_pm": ("redis_pm", {}, {}, 200, 5, None),
    "msgqueue_tso-sched": ("msgqueue_tso", {}, {}, 16, 7, SCHED),
    "worklog_alloc-sched": ("worklog_alloc", {}, {}, 16, 7, SCHED),
}


def _factory(target, options):
    cls = resolve_application(target)
    return lambda: cls(**options)


@pytest.mark.parametrize("case", sorted(CASES))
def test_recorded_sites_equal_the_debug_rerun(case):
    target, options, knobs, ops, seed, sched = CASES[case]
    factory = _factory(target, options)
    workload = generate_workload(ops, seed=seed)
    runs, artifacts = detect(factory, workload, seed=seed, sched=sched)
    run = runs[0]
    # Hooks attach before the first instruction: a seq is a trace index.
    assert [event.seq for event in run.trace] == list(range(len(run.trace)))
    assert len(run.sites) == len(run.trace)
    pending, _ = TraceAnalyzer(
        pm_size=artifacts.machine.medium.size, **knobs
    ).analyze(run.trace)
    seqs = {item.seq for item in pending}
    assert seqs, "the case flags nothing, so it compares nothing"
    if sched is None:
        reference = resolve_sites(factory, workload, seqs, seed=seed)
    else:
        reference = resolve_sites_scheduled(
            factory, workload, sched, seqs, seed=seed
        )
    assert {seq: run.sites[seq] for seq in seqs} == reference


def test_only_schedule_sample_zero_records_sites():
    runs, _ = detect(
        THREADED_APPLICATIONS["msgqueue_tso"], generate_workload(16, seed=7),
        seed=7, sched=SCHED,
    )
    assert len(runs[0].sites) == len(runs[0].trace)
    assert len(runs) == SCHED.samples
    assert all(run.sites is None for run in runs[1:])


def test_events_of_one_site_share_one_string():
    runs, _ = detect(
        lambda: APPLICATIONS["btree"](spt=True), generate_workload(60, seed=1)
    )
    sites = runs[0].sites
    first = {}
    for site in sites:
        assert first.setdefault(site, site) is site
    assert len(first) < len(sites) // 10


def test_analyze_runs_the_target_once(monkeypatch):
    """No debug re-run: the campaign's only instrumented execution is its
    detection run, whose sites the trace-analysis findings carry."""
    import repro.core.pipeline
    import repro.core.trace_analysis

    calls = []
    real = repro.core.pipeline.run_instrumented

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (repro.core.pipeline, repro.core.trace_analysis):
        monkeypatch.setattr(module, "run_instrumented", counted)
    result = Mumak(MumakConfig(max_injections=4)).analyze(
        lambda: APPLICATIONS["btree"](spt=True), generate_workload(80)
    )
    assert len(calls) == 1
    findings = [f for f in result.report.findings
                if f.phase == PHASE_TRACE_ANALYSIS]
    assert findings and all(f.site for f in findings)
