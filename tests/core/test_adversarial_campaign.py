"""End-to-end campaigns under the adversarial fault model.

The acceptance-critical scenarios:

* the seeded ``hashmap_atomic.c6_torn_inplace_update`` bug is invisible
  to the paper's program-order-prefix crash and caught by the torn model,
  with the report attributing the finding to the exposing variant;
* campaigns are deterministic — same fault seed, byte-identical findings
  and checkpoint journals;
* a checkpoint written by one fault-model configuration refuses to
  resume a different one (fingerprint identity includes the model);
* both injection engines (trace and replay) expose the bug.
"""

import pytest

from repro.apps import APPLICATIONS
from repro.cli import main
from repro.core import Mumak, MumakConfig
from repro.pmem.faultmodel import FaultModelConfig, variant_family
from repro.workloads import generate_workload

pytestmark = pytest.mark.slow  # full campaigns; the smoke tier skips

BUG = "hashmap_atomic.c6_torn_inplace_update"
N_OPS = 120
SEED = 7


def factory():
    return APPLICATIONS["hashmap_atomic"](bugs={BUG})


def run(fault_model, engine="trace", **kwargs):
    config = MumakConfig(
        seed=SEED,
        engine=engine,
        run_trace_analysis=False,
        fault_model=fault_model,
        **kwargs,
    )
    workload = generate_workload(N_OPS, seed=SEED)
    return Mumak(config).analyze(factory, workload)


class TestAdversarialOnlyBug:
    def test_prefix_model_misses_it(self):
        result = run(FaultModelConfig())
        assert result.report.bugs == []
        assert result.fault_injection.comparison is None

    def test_torn_model_catches_and_attributes_it(self):
        result = run(FaultModelConfig(model="torn", seed=3))
        bugs = result.report.bugs
        assert len(bugs) == 1
        assert variant_family(bugs[0].variant) == "torn"
        assert "exposed by fault-model variant" in bugs[0].render()
        comparison = result.fault_injection.comparison
        assert comparison is not None
        assert comparison.prefix_bugs == 0
        assert len(comparison.adversarial_only) == 1
        assert "adversarial variants" in result.report.render()

    def test_replay_engine_catches_it_too(self):
        result = run(FaultModelConfig(model="torn", seed=3), engine="replay")
        assert len(result.report.bugs) == 1
        assert variant_family(result.report.bugs[0].variant) == "torn"

    def test_torn_stats_are_counted(self):
        result = run(FaultModelConfig(model="torn", seed=3))
        stats = result.fault_injection.stats
        assert stats.adversarial_injections > 0
        assert stats.injections > stats.adversarial_injections


class TestDeterminism:
    def fingerprintable(self, result):
        return [
            (f.variant, f.seq, f.stack, f.message, f.recovery_error)
            for f in result.report.findings
        ]

    def test_same_fault_seed_same_findings(self):
        model = FaultModelConfig(model="adversarial", seed=11)
        assert self.fingerprintable(run(model)) == self.fingerprintable(
            run(model)
        )

    def test_checkpoint_journals_byte_identical(self, tmp_path):
        model = FaultModelConfig(model="torn", media_errors=True, seed=42)
        paths = [tmp_path / "a.ckpt.jsonl", tmp_path / "b.ckpt.jsonl"]
        for path in paths:
            run(model, checkpoint_path=str(path))
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].stat().st_size > 0

    def test_resume_restores_instead_of_reexecuting(self, tmp_path):
        model = FaultModelConfig(model="torn", seed=3)
        path = str(tmp_path / "campaign.ckpt.jsonl")
        first = run(model, checkpoint_path=path)
        config = MumakConfig(
            seed=SEED, run_trace_analysis=False, fault_model=model
        )
        workload = generate_workload(N_OPS, seed=SEED)
        resumed = Mumak(config).analyze(
            factory, workload, resume_from=path
        )
        assert resumed.fault_injection.stats.resumed > 0
        assert self.fingerprintable(resumed) == self.fingerprintable(first)


class TestFingerprintIdentity:
    def test_fault_model_changes_the_fingerprint(self):
        base = MumakConfig(seed=SEED)
        torn = MumakConfig(
            seed=SEED, fault_model=FaultModelConfig(model="torn")
        )
        reseeded = MumakConfig(
            seed=SEED, fault_model=FaultModelConfig(model="torn", seed=1)
        )
        prints = {
            c.fingerprint("hashmap_atomic") for c in (base, torn, reseeded)
        }
        assert len(prints) == 3

    def test_mismatched_checkpoint_refused(self, tmp_path):
        from repro.errors import CheckpointError

        path = str(tmp_path / "campaign.ckpt.jsonl")
        run(FaultModelConfig(model="torn", seed=3), checkpoint_path=path)
        config = MumakConfig(
            seed=SEED,
            run_trace_analysis=False,
            fault_model=FaultModelConfig(model="adversarial", seed=3),
            checkpoint_path=path,
        )
        workload = generate_workload(N_OPS, seed=SEED)
        with pytest.raises(CheckpointError):
            Mumak(config).analyze(factory, workload)


class TestCli:
    def test_torn_flag_exposes_the_bug(self, capsys):
        code = main([
            "analyze", "hashmap_atomic",
            "--ops", str(N_OPS), "--seed", str(SEED),
            "--bugs", BUG,
            "--fault-model", "torn", "--fault-seed", "3",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "exposed by fault-model variant 'torn:" in out
        assert "fault-model comparison" in out
        assert "adversarial:" in out

    def test_prefix_default_stays_clean(self, capsys):
        code = main([
            "analyze", "hashmap_atomic",
            "--ops", str(N_OPS), "--seed", str(SEED),
            "--bugs", BUG,
        ])
        assert code == 0

    def test_cli_campaigns_reproduce_bytewise(self, tmp_path, capsys):
        journals = []
        for name in ("a", "b"):
            path = tmp_path / f"{name}.ckpt.jsonl"
            main([
                "analyze", "hashmap_atomic",
                "--ops", str(N_OPS), "--seed", str(SEED),
                "--bugs", BUG,
                "--fault-model", "torn", "--media-errors",
                "--fault-seed", "42",
                "--checkpoint", str(path),
            ])
            capsys.readouterr()
            journals.append(path.read_bytes())
        assert journals[0] == journals[1]
