"""Instrumentation-layer tests: tracers, backtraces, runner, determinism."""

import functools
import os
import sys

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.btree import BTree
from repro.instrument import (
    FailurePointObserver,
    FullTracer,
    MinimalTracer,
    PathCounter,
    run_instrumented,
)
from repro.instrument.backtrace import (
    _EXCLUDED_FRAGMENTS,
    TARGET_ENTRY,
    capture_site,
    capture_stack,
    format_stack,
    target_file_name,
)
from repro.instrument.tracer import GRANULARITY_STORE
from repro.pmem import Opcode, PMachine
from repro.workloads import generate_workload

WORKLOAD = generate_workload(60, seed=1)


def factory():
    return BTree(bugs=(), spt=True)


class TestRunner:
    def test_initial_image_is_pristine(self):
        artifacts = run_instrumented(factory, WORKLOAD)
        assert artifacts.initial_image == bytes(factory().pool_size)

    def test_hooks_see_all_events(self):
        tracer = MinimalTracer()
        run_instrumented(factory, WORKLOAD, hooks=[tracer])
        assert len(tracer.events) > 500
        seqs = [e.seq for e in tracer.events]
        assert seqs == sorted(seqs) == list(range(len(seqs)))

    def test_minimal_tracer_records_sites_only_on_request(self):
        plain, sited = MinimalTracer(), MinimalTracer(sites=True)
        full = FullTracer()
        run_instrumented(factory, WORKLOAD, hooks=[plain, sited, full])
        assert plain.sites is None
        assert sited.events == plain.events
        assert sited.sites == [event.site for event in full.events]

    def test_deterministic_traces(self):
        first, second = MinimalTracer(), MinimalTracer()
        run_instrumented(factory, WORKLOAD, hooks=[first])
        run_instrumented(factory, WORKLOAD, hooks=[second])
        assert [(e.opcode, e.address, e.data) for e in first.events] == [
            (e.opcode, e.address, e.data) for e in second.events
        ]


class TestBacktraces:
    def test_stacks_stop_at_target_entry(self):
        stacks = []
        observer = FailurePointObserver(
            lambda stack, event: stacks.append(stack)
        )
        run_instrumented(factory, WORKLOAD, hooks=[observer])
        assert stacks
        for stack in stacks:
            # No harness frames: nothing from pytest, the runner, or the
            # simulator internals.
            assert all("runner.py" not in frame for frame in stack)
            assert all("machine.py" not in frame for frame in stack)
            assert any("btree.py" in frame for frame in stack)

    def test_capture_stack_excludes_simulator(self):
        stack = capture_stack()
        assert all("/pmem/" not in frame for frame in stack)

    def test_format_stack(self):
        text = format_stack(("a:1:f", "b:2:g"))
        assert text == "  at a:1:f\n  at b:2:g"
        assert format_stack(()) == "  <no target frames>"


class TestFullTracer:
    def test_sites_resolved(self):
        tracer = FullTracer()
        run_instrumented(factory, WORKLOAD, hooks=[tracer])
        sites = {e.site for e in tracer.events if e.site}
        assert sites
        assert any("btree.py" in s or "undolog.py" in s for s in sites)

    def test_stacks_attached_when_requested(self):
        tracer = FullTracer(with_stacks=True)
        run_instrumented(factory, generate_workload(10, seed=1),
                         hooks=[tracer])
        assert all(e.stack for e in tracer.events)


class TestFailurePointObserver:
    def test_persistency_granularity_sees_flushes_and_fences(self):
        events = []
        observer = FailurePointObserver(
            lambda stack, event: events.append(event)
        )
        run_instrumented(factory, WORKLOAD, hooks=[observer])
        assert events
        assert all(
            e.opcode.is_persistency_instruction for e in events
        )

    def test_store_granularity_sees_stores(self):
        events = []
        observer = FailurePointObserver(
            lambda stack, event: events.append(event),
            granularity=GRANULARITY_STORE,
        )
        run_instrumented(factory, WORKLOAD, hooks=[observer])
        assert events
        assert all(e.opcode.is_store for e in events)

    def test_store_since_last_reduction(self):
        machine = PMachine(pm_size=4096)
        hits = []
        observer = FailurePointObserver(lambda stack, event: hits.append(event))
        machine.add_hook(observer)
        machine.store(128, b"\x01")
        machine.clwb(128)
        machine.sfence()  # no store since the clwb candidate: skipped
        assert len(hits) == 1
        machine.store(129, b"\x02")
        machine.clwb(128)
        assert len(hits) == 2


class TestPathCounter:
    def test_counts_grow_with_workload(self):
        small, large = PathCounter(), PathCounter()
        run_instrumented(factory, generate_workload(20, seed=1),
                         hooks=[small])
        run_instrumented(factory, generate_workload(200, seed=1),
                         hooks=[large])
        assert large.unique_persistency_paths >= small.unique_persistency_paths
        assert large.unique_store_paths > small.unique_store_paths
        assert large.unique_store_paths >= large.unique_persistency_paths


# --------------------------------------------------------------------- #
# the per-file cache against the uncached frame walk
# --------------------------------------------------------------------- #

def ref_stack(skip=1):
    """The reference: classify every frame's file as it is walked."""
    frame = sys._getframe(skip)
    frames = []
    while frame is not None:
        code = frame.f_code
        if code.co_name == TARGET_ENTRY:
            break
        filename = code.co_filename
        if not any(fragment in filename for fragment in _EXCLUDED_FRAGMENTS):
            frames.append(
                f"{os.path.basename(filename)}:{frame.f_lineno}:{code.co_name}"
            )
        frame = frame.f_back
    frames.reverse()
    return tuple(frames)


def ref_site(skip=1):
    frame = sys._getframe(skip)
    while frame is not None:
        code = frame.f_code
        if code.co_name == TARGET_ENTRY:
            break
        filename = code.co_filename
        if not any(fragment in filename for fragment in _EXCLUDED_FRAGMENTS):
            return (
                f"{os.path.basename(filename)}:{frame.f_lineno}:{code.co_name}"
            )
        frame = frame.f_back
    return "<unknown>"


def both_captures():
    # One line, so both pairs see the same line number for this frame.
    return (capture_stack(), capture_site()), (ref_stack(), ref_site())


#: perfbench's wrappers report this file (see ``perfbench/tracer.py``):
#: it must be dropped like any other instrumentation frame.
WRAPPER_FILE = os.path.join(
    os.sep, "checkout", "perfbench", "<wrapper>", "repro", "instrument",
    "perfbench_wrapper.py",
)
FRAME_FILES = (
    os.path.join(os.sep, "a", "src", "repro", "apps", "btree.py"),
    os.path.join(os.sep, "b", "src", "repro", "pmdk", "obj.py"),
    os.path.join(os.sep, "a", "src", "repro", "workloads", "ycsb.py"),
    os.path.join(os.sep, "a", "src", "repro", "pmem", "machine.py"),
    os.path.join(os.sep, "a", "src", "repro", "apps", "faults.py"),
    os.path.join(os.sep, "a", "src", "repro", "core", "harness.py"),
    "<string>",
    WRAPPER_FILE,
)


def call_through(chain, leaf):
    """Call ``leaf`` beneath one frame per ``(file, function)`` of
    ``chain``, outermost first; each frame's code reports that file."""
    call = leaf
    for filename, function in reversed(chain):
        namespace = {}
        source = "\n" * 6 + f"def {function}(inner):\n    return inner()\n"
        exec(compile(source, filename, "exec"), namespace)
        call = functools.partial(namespace[function], call)
    return call()


@settings(deadline=None, max_examples=150)
@given(st.lists(
    st.tuples(
        st.sampled_from(FRAME_FILES),
        st.sampled_from(["recover", "insert", "load", TARGET_ENTRY]),
    ),
    max_size=8,
))
def test_cached_capture_matches_the_uncached_walk(chain):
    got, want = call_through(chain, both_captures)
    assert got == want


def test_wrapper_file_is_dropped():
    stack = call_through(
        [(FRAME_FILES[0], "recover"), (WRAPPER_FILE, "wrapper")],
        capture_stack,
    )
    assert [frame.split(":")[0] for frame in stack][-1] == "btree.py"
    assert not any("perfbench_wrapper" in frame for frame in stack)
    assert target_file_name(WRAPPER_FILE) is None
    assert target_file_name(FRAME_FILES[1]) == "obj.py"
