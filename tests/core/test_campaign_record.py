"""One campaign record: every executor fills it the same way.

Serial, shard, chaos and fleet runs of one campaign write the same
journal bytes; the campaign record (``FaultInjectionStats``) and the
metrics registry must agree with them too.  Tallies the journal can
answer — injections, retries, outcomes — are computed from the folded
results, so they are exact for every executor.  Engine counters are
relayed from the processes that ran the injections, so they add up to
serial's, or stay below it when a shard is SIGKILLed before its relay.
"""

import json

import pytest

from repro.apps.btree import BTree
from repro.core import Mumak, MumakConfig
from repro.workloads import generate_workload

from tests.core.test_mode_matrix import BTREE_OPS, executor_knobs

EXECUTORS = ("serial", "shards", "fleet")
#: The chaos cell's two shards each SIGKILL themselves after their first
#: progress beat, so it loses the engine counters of the shards killed.
CHAOS = "kill-worker=1.0,seed=3,max-kills=2"

#: Metric names this record no longer exports: each duplicated another.
REMOVED = {
    "campaign_recovery_cache_hits",
    "campaign_recovery_cache_misses",
    "campaign_recovery_cache_stored",
    "campaign_recovery_cache_loaded",
    "campaign_recovery_pool_boots",
    "campaign_recovery_pool_reuses",
    "campaign_shards",
    "campaign_shard_deaths",
    "campaign_shard_respawns",
    "campaign_chaos_kills",
    "fabric_shard_deaths",
    "injection_retries",
    "injections_restored",
    "detail_seconds",
}


class FlakyFactory:
    """btree whose every recovery construction fails once with a
    transient ``OSError``, so it is retried.  The first construction is
    detection's; the factory arms itself after it.  Forked shards copy
    the armed state, so every process alternates fail, succeed."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls > 1 and self.calls % 2 == 0:
            raise OSError("transient construction failure")
        return BTree(spt=True)


def campaign(tmp_path, executor, factory=None, **knobs):
    """Run btree under ``executor``; return (stats, registry, journal
    records)."""
    path = str(tmp_path / f"{executor}.jsonl")
    knobs.update(executor_knobs(executor, tmp_path))
    if executor == "chaos":
        knobs["chaos"] = CHAOS
    config = MumakConfig(
        checkpoint_path=path,
        obs_enabled=True,
        run_trace_analysis=False,
        **knobs,
    )
    result = Mumak(config).analyze(
        factory or (lambda: BTree(spt=True)),
        generate_workload(BTREE_OPS, seed=0),
    )
    with open(path, encoding="utf-8") as handle:
        records = [
            record
            for record in map(json.loads, handle)
            if record["type"] == "injection"
        ]
    return result.fault_injection.stats, result.telemetry.registry, records


def names(registry):
    return {metric.name for metric in registry}


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    return {
        executor: campaign(tmp_path_factory.mktemp(executor), executor)
        for executor in EXECUTORS + ("chaos",)
    }


@pytest.mark.parametrize("executor", EXECUTORS + ("chaos",))
def test_each_number_has_one_name(runs, executor):
    _, registry, _ = runs[executor]
    exported = names(registry)
    assert not exported & REMOVED
    assert any(n.startswith("fabric_") for n in exported) == (
        executor in ("shards", "chaos")
    )
    assert any(n.startswith("fleet_") for n in exported) == (
        executor == "fleet"
    )


@pytest.mark.parametrize("executor", EXECUTORS)
def test_engine_counters_cross_process_boundaries(runs, executor):
    stats, registry, _ = runs[executor]
    _, serial, _ = runs["serial"]
    injections = registry.total("campaign_injections")
    assert injections == stats.injections > 0
    images = registry.total("image_engine_images")
    assert images == serial.total("image_engine_images") == injections
    verdicts = registry.total("recovery_engine_cache_hits") + registry.total(
        "recovery_engine_cache_misses"
    )
    assert verdicts == injections
    assert stats.image.images == images


@pytest.mark.parametrize("executor", EXECUTORS)
def test_every_executed_injection_has_one_outcome(runs, executor):
    stats, registry, _ = runs[executor]
    assert registry.count("recovery_outcomes") == stats.injections


@pytest.fixture(scope="module")
def flaky(tmp_path_factory):
    """Every executor, chaos included, over the flaky target.  The
    cache is off: a verdict-cache hit would skip the flaky recovery."""
    return {
        executor: campaign(
            tmp_path_factory.mktemp(f"flaky-{executor}"),
            executor,
            FlakyFactory(),
            recovery_cache="off",
            max_injections=10,
        )
        for executor in EXECUTORS + ("chaos",)
    }


@pytest.mark.parametrize("executor", EXECUTORS + ("chaos",))
def test_retries_are_counted_from_the_folded_results(flaky, executor):
    stats, registry, records = flaky[executor]
    journaled = sum(record["attempts"] - 1 for record in records)
    assert journaled == len(records) == 10
    assert stats.retries == registry.total("campaign_retries") == journaled


def test_chaos_tallies_equal_serial_and_engine_counters_bound_them(runs):
    stats, registry, _ = runs["chaos"]
    _, serial, _ = runs["serial"]
    assert stats.fabric.chaos_kills == stats.fabric.deaths == 2
    assert stats.fabric.chaos_kills == registry.total("fabric_chaos_kills")
    for name in ("campaign_injections", "campaign_retries"):
        assert registry.total(name) == serial.total(name)
    assert registry.count("recovery_outcomes") == serial.count(
        "recovery_outcomes"
    )
    injections = registry.total("campaign_injections")
    assert registry.total("image_engine_images") <= injections
    verdicts = registry.total("recovery_engine_cache_hits") + registry.total(
        "recovery_engine_cache_misses"
    )
    assert verdicts <= injections
