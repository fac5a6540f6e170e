"""Campaign-level differential battery: the recovery engine changes
*when* recovery work happens, never *what* the campaign reports.

Mirrors ``tests/core/test_image_engine_campaign.py``'s contract for the
image engine: findings, rendered reports and checkpoint journals are
byte-identical with the engine on (verdict cache + machine pool) and
fully off; campaigns resume across engine settings; and persisted
verdict caches are adopted — or refused when the oracle scope differs.
"""

import os

import pytest

from repro.apps import APPLICATIONS
from repro.core import Mumak, MumakConfig
from repro.pmem.faultmodel import FaultModelConfig
from repro.recovery import RecoveryEngineConfig
from repro.recovery.cache import VerdictCacheError
from repro.workloads import generate_workload

N_OPS = 120
SEED = 7

#: Both engine levers off: the harness runs without a recovery engine.
ENGINE_OFF = dict(recovery_cache="off", machine_pool=0)

APPS = {
    "hashmap_atomic": lambda: APPLICATIONS["hashmap_atomic"](
        bugs={"hashmap_atomic.c6_torn_inplace_update"}
    ),
    "btree": lambda: APPLICATIONS["btree"](bugs=set(), spt=True),
}

MODELS = {
    "prefix": lambda: FaultModelConfig(),
    "torn_media": lambda: FaultModelConfig(
        model="torn", media_errors=True, seed=42
    ),
}


def run(app="hashmap_atomic", fault_model="prefix", resume_from=None,
        **kwargs):
    config = MumakConfig(
        seed=SEED,
        run_trace_analysis=False,
        fault_model=MODELS[fault_model](),
        **kwargs,
    )
    workload = generate_workload(N_OPS, seed=SEED)
    return Mumak(config).analyze(
        APPS[app], workload, resume_from=resume_from
    )


def fingerprintable(result):
    return [
        (f.variant, f.seq, f.stack, f.message, f.recovery_error)
        for f in result.report.findings
    ]


# --------------------------------------------------------------------- #
# config plumbing (fast)
# --------------------------------------------------------------------- #


class TestEngineConfig:
    def test_engine_is_on_by_default(self):
        config = MumakConfig()
        assert config.recovery_cache == "on"
        assert config.machine_pool == 1

    def test_fingerprint_excludes_the_engine(self):
        """A checkpoint written with the engine on must resume with it
        off (and vice versa): the engine is proven not to change
        campaign results, so it cannot be part of the campaign
        identity."""
        prints = {
            MumakConfig(seed=SEED, **levers).fingerprint("t")
            for levers in ({}, ENGINE_OFF, {"machine_pool": 4})
        }
        assert len(prints) == 1

    def test_resolve_on_with_checkpoint_persists_beside_it(self):
        resolved = RecoveryEngineConfig.resolve(
            "on", 1, "scope", "/tmp/c.jsonl"
        )
        assert resolved.cache_path == "/tmp/c.jsonl.vcache"
        assert resolved.cache_enabled and resolved.enabled

    def test_resolve_on_without_checkpoint_stays_in_memory(self):
        resolved = RecoveryEngineConfig.resolve("on", 1, "scope", None)
        assert resolved.cache_path is None
        assert resolved.cache_enabled

    def test_resolve_explicit_path(self):
        resolved = RecoveryEngineConfig.resolve(
            "/data/my.vcache", 0, "scope", None
        )
        assert resolved.cache == "on"
        assert resolved.cache_path == "/data/my.vcache"

    def test_resolve_off(self):
        resolved = RecoveryEngineConfig.resolve("off", 0, "scope", None)
        assert not resolved.cache_enabled
        assert not resolved.enabled
        # A pool alone still enables the engine.
        assert RecoveryEngineConfig.resolve("off", 2, "s", None).enabled


# --------------------------------------------------------------------- #
# differential equivalence (slow)
# --------------------------------------------------------------------- #


@pytest.mark.slow
class TestEngineEquivalence:
    @pytest.mark.parametrize("app,fault_model", [
        ("hashmap_atomic", "prefix"),
        ("hashmap_atomic", "torn_media"),
        ("btree", "prefix"),
    ])
    def test_findings_and_report_identical(self, app, fault_model):
        on = run(app, fault_model)
        off = run(app, fault_model, **ENGINE_OFF)
        assert fingerprintable(on) == fingerprintable(off)
        assert on.report.render() == off.report.render()

    def test_checkpoint_journals_byte_identical(self, tmp_path):
        journals = {}
        for label, levers in (("on", {}), ("off", ENGINE_OFF)):
            path = tmp_path / f"{label}.ckpt.jsonl"
            run("hashmap_atomic", "torn_media",
                checkpoint_path=str(path), **levers)
            journals[label] = path.read_bytes()
        assert journals["on"] == journals["off"]
        assert len(journals["on"]) > 0

    def test_parallel_equals_serial_with_the_engine_on(self):
        serial = run("hashmap_atomic", "torn_media")
        legacy = run("hashmap_atomic", "torn_media", **ENGINE_OFF)
        assert fingerprintable(serial) == fingerprintable(legacy)

    def test_dedup_fires_and_preserves_findings(self):
        """Dense candidate planning (no store-required reduction) makes
        distinct failure points share prefix images; the verdict cache
        aliases them by digest, findings unchanged."""
        dense = dict(require_store_since_last=False)
        on = run("btree", "prefix", **dense)
        assert on.fault_injection.stats.recovery_cache_hits > 0
        off = run("btree", "prefix", **dense, **ENGINE_OFF)
        assert fingerprintable(on) == fingerprintable(off)
        assert on.report.render() == off.report.render()


# --------------------------------------------------------------------- #
# persistence across campaigns (slow)
# --------------------------------------------------------------------- #


@pytest.mark.slow
class TestCachePersistence:
    def test_resume_after_cache_file_deleted(self, tmp_path):
        """The .vcache is an accelerator, never a dependency: deleting
        it between checkpoint and resume changes nothing."""
        path = str(tmp_path / "campaign.ckpt.jsonl")
        first = run("hashmap_atomic", "torn_media", checkpoint_path=path)
        assert os.path.exists(path + ".vcache")
        os.remove(path + ".vcache")
        resumed = run("hashmap_atomic", "torn_media",
                      checkpoint_path=path, resume_from=path)
        assert resumed.fault_injection.stats.resumed > 0
        assert fingerprintable(resumed) == fingerprintable(first)

    def test_second_campaign_adopts_the_persisted_cache(self, tmp_path):
        """Same scope, fresh campaign: every image is a verdict-cache
        hit and the report is unchanged."""
        cache = str(tmp_path / "verdicts.vcache")
        first = run("hashmap_atomic", "torn_media", recovery_cache=cache)
        warm = run("hashmap_atomic", "torn_media", recovery_cache=cache)
        stats = warm.fault_injection.stats
        assert stats.recovery_cache_loaded > 0
        assert stats.recovery_cache_hits > 0
        assert stats.recovery_cache_misses == 0
        assert fingerprintable(warm) == fingerprintable(first)
        assert warm.report.render() == first.report.render()

    def test_foreign_scope_cache_is_refused_not_misread(self, tmp_path):
        """A cache recorded under different oracle budgets must never
        leak verdicts into this campaign."""
        cache = str(tmp_path / "verdicts.vcache")
        run("hashmap_atomic", "prefix", recovery_cache=cache,
            step_budget=10_000_000)
        with pytest.raises(VerdictCacheError) as excinfo:
            run("hashmap_atomic", "prefix", recovery_cache=cache,
                step_budget=20_000_000)
        assert "scope" in str(excinfo.value)


# --------------------------------------------------------------------- #
# stats surface (slow)
# --------------------------------------------------------------------- #


@pytest.mark.slow
class TestEngineAccounting:
    def test_stats_surface_the_engine(self):
        stats = run("btree", "prefix").fault_injection.stats
        assert stats.recovery_cache_misses > 0
        assert stats.recovery_cache_stored > 0
        assert stats.recovery_pool_boots >= 1
        assert stats.recovery_pool_reuses > 0

    def test_engine_off_reports_zeroes(self):
        stats = run(
            "hashmap_atomic", "prefix", **ENGINE_OFF
        ).fault_injection.stats
        assert stats.recovery_cache_hits == 0
        assert stats.recovery_cache_misses == 0
        assert stats.recovery_pool_boots == 0
        assert stats.recovery_pool_reuses == 0
