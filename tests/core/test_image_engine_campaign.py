"""Campaign-level differential tests: ``--image-engine`` equivalence.

``tests/pmem/test_image_engine.py`` proves the incremental engine equals
the replay reference at the crash-image layer; this module proves the
*campaign* contract on a real target:

* findings are identical under both engines, for the graceful prefix
  model and for the adversarial families;
* checkpoint journals are byte-identical across engines, and the
  campaign fingerprint deliberately excludes the engine — a campaign
  checkpointed under one engine resumes under the other;
* the campaign's image source composes the snapshot pool with the
  adversarial planner's factory without changing output;
* the hot-path accounting the benchmark reads (pool hits, bytes copied,
  one shared history pass) is actually reported.
"""

import pytest

from repro.apps import APPLICATIONS
from repro.core import Mumak, MumakConfig
from repro.core.fault_injection import FaultInjector
from repro.core.pipeline import detect
from repro.pmem.faultmodel import FaultModelConfig
from repro.pmem.incremental import (
    ENGINE_IMAGE_INCREMENTAL,
    ENGINE_IMAGE_REPLAY,
)
from repro.recovery import persisted_write_extent
from repro.workloads import generate_workload

BUG = "hashmap_atomic.c6_torn_inplace_update"
N_OPS = 120
SEED = 7


def factory():
    return APPLICATIONS["hashmap_atomic"](bugs={BUG})


def run(fault_model=None, image_engine=ENGINE_IMAGE_INCREMENTAL,
        resume_from=None, **kwargs):
    config = MumakConfig(
        seed=SEED,
        run_trace_analysis=False,
        fault_model=fault_model or FaultModelConfig(),
        image_engine=image_engine,
        **kwargs,
    )
    workload = generate_workload(N_OPS, seed=SEED)
    return Mumak(config).analyze(factory, workload, resume_from=resume_from)


def fingerprintable(result):
    return [
        (f.variant, f.seq, f.stack, f.message, f.recovery_error)
        for f in result.report.findings
    ]


class TestEngineSelection:
    def test_incremental_is_the_default(self):
        assert MumakConfig().image_engine == ENGINE_IMAGE_INCREMENTAL

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            FaultInjector(image_engine="quantum")

    def test_fingerprint_excludes_the_engine(self):
        """A checkpoint written under one engine must resume under the
        other: the engines are proven equivalent, so the campaign
        identity cannot depend on which one materialised the images."""
        prints = {
            MumakConfig(seed=SEED, image_engine=e).fingerprint("t")
            for e in (ENGINE_IMAGE_REPLAY, ENGINE_IMAGE_INCREMENTAL)
        }
        assert len(prints) == 1


@pytest.mark.slow
class TestCampaignEquivalence:
    def test_prefix_model_findings_identical(self):
        replay = run(image_engine=ENGINE_IMAGE_REPLAY)
        incremental = run(image_engine=ENGINE_IMAGE_INCREMENTAL)
        assert fingerprintable(replay) == fingerprintable(incremental)
        assert (
            replay.report.render() == incremental.report.render()
        )

    def test_adversarial_findings_identical(self):
        model = FaultModelConfig(model="torn", media_errors=True, seed=42)
        replay = run(model, image_engine=ENGINE_IMAGE_REPLAY)
        incremental = run(model, image_engine=ENGINE_IMAGE_INCREMENTAL)
        assert fingerprintable(replay) == fingerprintable(incremental)
        # Same variant attribution for the torn-only bug.
        assert [b.variant for b in replay.report.bugs] == [
            b.variant for b in incremental.report.bugs
        ]

    def test_checkpoint_journals_byte_identical_across_engines(
        self, tmp_path
    ):
        model = FaultModelConfig(model="torn", media_errors=True, seed=42)
        journals = {}
        for engine in (ENGINE_IMAGE_REPLAY, ENGINE_IMAGE_INCREMENTAL):
            path = tmp_path / f"{engine}.ckpt.jsonl"
            run(model, image_engine=engine, checkpoint_path=str(path))
            journals[engine] = path.read_bytes()
        assert journals[ENGINE_IMAGE_REPLAY] == journals[
            ENGINE_IMAGE_INCREMENTAL
        ]
        assert len(journals[ENGINE_IMAGE_REPLAY]) > 0

    def test_cross_engine_resume(self, tmp_path):
        """Checkpoint under replay, resume under incremental."""
        model = FaultModelConfig(model="torn", seed=3)
        path = str(tmp_path / "campaign.ckpt.jsonl")
        first = run(
            model, image_engine=ENGINE_IMAGE_REPLAY, checkpoint_path=path
        )
        resumed = run(
            model, image_engine=ENGINE_IMAGE_INCREMENTAL, resume_from=path
        )
        assert resumed.fault_injection.stats.resumed > 0
        assert fingerprintable(resumed) == fingerprintable(first)

    def test_replay_injection_engine_composes(self):
        """``--engine replay`` (per-injection re-execution) with the
        incremental image engine still matches the trace engine."""
        model = FaultModelConfig(model="torn", seed=3)
        trace_engine = run(model, engine="trace")
        replay_engine = run(model, engine="replay")
        assert [b.variant for b in trace_engine.report.bugs] == [
            b.variant for b in replay_engine.report.bugs
        ]


@pytest.mark.slow
class TestHotPathAccounting:
    def test_incremental_stats_surface_the_pool(self):
        result = run()
        stats = result.fault_injection.stats
        assert stats.image_engine == ENGINE_IMAGE_INCREMENTAL
        assert stats.image.images > 0
        assert stats.image.pool_hits > 0
        assert stats.materialise_seconds >= 0.0
        assert stats.recovery_seconds > 0.0

    def test_incremental_copies_asymptotically_less(self):
        replay = run(image_engine=ENGINE_IMAGE_REPLAY)
        incremental = run(image_engine=ENGINE_IMAGE_INCREMENTAL)
        r, i = (
            replay.fault_injection.stats,
            incremental.fault_injection.stats,
        )
        assert r.image_engine == ENGINE_IMAGE_REPLAY
        assert i.image.bytes_copied < r.image.bytes_copied
        # Replay copies the full pool once per failure point; the
        # incremental engine copies the persisted-write extent once per
        # pooled buffer.
        assert r.image.bytes_copied >= 10 * i.image.bytes_copied

    def test_variants_are_patches_not_copies(self):
        """Every task — prefix or adversarial — checks out a pooled
        buffer and every variant is patched onto it in place: the only
        copies are pool misses, and each copies the campaign's
        persisted-write extent, not the pool."""
        model = FaultModelConfig(model="adversarial", samples=2, seed=11)
        stats = run(model).fault_injection.stats
        assert stats.adversarial_injections > 0
        assert stats.image.images == stats.injections
        assert stats.image.pool_misses >= 1
        [detection], _ = detect(
            factory, generate_workload(N_OPS, seed=SEED), seed=SEED
        )
        stop = persisted_write_extent(detection.trace)[1]
        assert stop < factory().pool_size
        assert stats.image.bytes_copied == stats.image.pool_misses * stop

    def test_history_passes_are_constant_not_per_point(self):
        """Incremental: one shared pass per *campaign* — the planner's
        factory builds it and materialises every variant from it —
        regardless of how many failure points and variants consume it.
        Replay: at least one full persistence-state-machine replay per
        failure point."""
        model = FaultModelConfig(model="adversarial", samples=2, seed=11)
        incremental = run(model)
        replay = run(model, image_engine=ENGINE_IMAGE_REPLAY)
        assert incremental.fault_injection.stats.image.history_passes == 1
        points = (
            incremental.fault_injection.stats.unique_failure_points
        )
        assert replay.fault_injection.stats.image.history_passes >= points
