"""Fault-injection engine tests, including trace/replay equivalence."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.btree import BTree
from repro.apps.hashmap_atomic import HashmapAtomic
from repro.core import (
    ENGINE_REPLAY,
    ENGINE_TRACE,
    FaultInjector,
    Mumak,
    MumakConfig,
)
from repro.core.oracle import RecoveryStatus
from repro.instrument.tracer import GRANULARITY_STORE
from repro.pmem.faultmodel import FaultModelConfig
from repro.workloads import generate_workload


def clean_btree():
    return BTree(bugs=(), spt=True)


def buggy_btree():
    return BTree(bugs={"btree.c1_count_outside_tx"}, spt=True)


WORKLOAD = generate_workload(120, seed=5)
#: Small enough for one re-execution per failure point.
SHORT_WORKLOAD = generate_workload(5, seed=5)


def checkpointed(tmp_path, engine, fault_model, name=None, resume=False):
    """A checkpointed campaign on the buggy btree: (stats, journal lines)."""
    path = tmp_path / (name or f"{engine}-{fault_model.model}.jsonl")
    config = MumakConfig(
        engine=engine,
        fault_model=fault_model,
        run_trace_analysis=False,
        checkpoint_path=str(path),
    )
    result = Mumak(config).analyze(
        buggy_btree, SHORT_WORKLOAD, resume_from=str(path) if resume else None
    )
    return result.fault_injection.stats, path.read_bytes().splitlines(True)


@pytest.mark.slow
class TestTraceEngine:
    def test_every_failure_point_injected_once(self):
        result = FaultInjector().run(clean_btree, WORKLOAD)
        assert result.stats.injections == result.stats.unique_failure_points
        assert result.tree.unvisited_count == 0

    def test_clean_app_all_recoveries_succeed(self):
        result = FaultInjector().run(clean_btree, WORKLOAD)
        assert result.stats.recovery_failures == 0
        assert all(
            outcome.status is RecoveryStatus.OK
            for _, outcome in result.outcomes
        )

    def test_buggy_app_yields_findings_with_paths(self):
        result = FaultInjector().run(buggy_btree, WORKLOAD)
        assert result.stats.recovery_failures > 0
        for finding in result.findings:
            assert finding.stack
            assert finding.recovery_error

    def test_max_injections_caps_work(self):
        result = FaultInjector(max_injections=5).run(clean_btree, WORKLOAD)
        assert result.stats.injections == 5

    def test_candidates_exceed_unique_failure_points(self):
        result = FaultInjector().run(clean_btree, WORKLOAD)
        assert result.stats.candidates >= result.stats.unique_failure_points


@pytest.mark.slow
class TestReplayEngine:
    def test_replay_equivalent_to_trace(self):
        trace_result = FaultInjector(engine=ENGINE_TRACE).run(
            buggy_btree, WORKLOAD
        )
        replay_result = FaultInjector(engine=ENGINE_REPLAY).run(
            buggy_btree, WORKLOAD
        )
        assert (
            trace_result.stats.unique_failure_points
            == replay_result.stats.unique_failure_points
        )
        assert (
            trace_result.stats.recovery_failures
            == replay_result.stats.recovery_failures
        )
        assert {f.stack for f in trace_result.findings} == {
            f.stack for f in replay_result.findings
        }

    @pytest.mark.parametrize("model", ["prefix", "torn"])
    def test_replay_journal_records_equal_trace_engine(self, tmp_path, model):
        fault_model = FaultModelConfig(model=model)
        trace_stats, trace_lines = checkpointed(
            tmp_path, ENGINE_TRACE, fault_model
        )
        replay_stats, replay_lines = checkpointed(
            tmp_path, ENGINE_REPLAY, fault_model
        )
        assert replay_stats.injections == trace_stats.injections
        assert len(replay_lines) == 1 + replay_stats.injections
        # The headers differ: the engine is part of the fingerprint.
        assert replay_lines[1:] == trace_lines[1:]

    def test_replay_campaign_resumes_byte_identical(self, tmp_path):
        fault_model = FaultModelConfig(model="torn")
        _, lines = checkpointed(tmp_path, ENGINE_REPLAY, fault_model)
        # Cut right after a prefix record whose variants follow, so the
        # resumed leg starts on a variant and re-executes its prefix.
        cut = next(
            i
            for i, line in enumerate(lines[1:])
            if json.loads(line)["variant"] != "prefix"
        )
        (tmp_path / "cut.jsonl").write_bytes(b"".join(lines[:1 + cut]))
        stats, resumed = checkpointed(
            tmp_path, ENGINE_REPLAY, fault_model, name="cut.jsonl",
            resume=True,
        )
        assert stats.resumed == cut
        assert resumed == lines

    def test_replay_reexecutes_per_failure_point(self):
        result = FaultInjector(engine=ENGINE_REPLAY).run(
            clean_btree, generate_workload(40, seed=2)
        )
        assert result.stats.executions > result.stats.unique_failure_points

    @settings(deadline=None, max_examples=5)
    @given(st.integers(min_value=0, max_value=1000))
    def test_engines_equivalent_across_seeds(self, seed):
        workload = generate_workload(50, seed=seed)
        trace_result = FaultInjector(engine=ENGINE_TRACE).run(
            lambda: HashmapAtomic(
                bugs={"hashmap_atomic.c1_count_not_atomic"}
            ),
            workload,
        )
        replay_result = FaultInjector(engine=ENGINE_REPLAY).run(
            lambda: HashmapAtomic(
                bugs={"hashmap_atomic.c1_count_not_atomic"}
            ),
            workload,
        )
        assert {f.stack for f in trace_result.findings} == {
            f.stack for f in replay_result.findings
        }


@pytest.mark.slow
class TestStoreGranularity:
    def test_store_granularity_explores_more_points(self):
        persistency = FaultInjector().run(clean_btree, WORKLOAD)
        stores = FaultInjector(granularity=GRANULARITY_STORE).run(
            clean_btree, WORKLOAD
        )
        assert (
            stores.stats.unique_failure_points
            > persistency.stats.unique_failure_points
        )

    def test_reduction_shrinks_failure_points(self):
        with_reduction = FaultInjector(require_store_since_last=True).run(
            clean_btree, WORKLOAD
        )
        without = FaultInjector(require_store_since_last=False).run(
            clean_btree, WORKLOAD
        )
        assert (
            with_reduction.stats.unique_failure_points
            <= without.stats.unique_failure_points
        )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(engine="quantum")
