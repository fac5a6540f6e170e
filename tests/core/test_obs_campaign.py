"""Campaign-level observability tests.

The telemetry layer's load-bearing promise is that it is *observation
only*.  This module proves it on a real target:

* findings, report render, campaign fingerprint, and checkpoint-journal
  bytes are identical with telemetry on and off (the differential
  battery from the acceptance criteria);
* the registry's materialise/recovery split agrees with the
  hand-threaded campaign timers (same floats, by construction);
* the JSONL event stream is schema-stable (every event carries ``ts``,
  ``span``, ``seq``, ``worker``) — the contract CI's fast schema test
  and any downstream dashboards depend on;
* ``mumak obs report`` renders the per-phase p50/p95 attribution from a
  real campaign run directory end-to-end.
"""

import json
import os

import pytest

from repro.apps import APPLICATIONS
from repro.core import Mumak, MumakConfig
from repro.obs import (
    EVENT_KINDS,
    EVENT_SCHEMA_FIELDS,
    EVENTS_FILENAME,
    JSON_FILENAME,
    PROM_FILENAME,
)
from repro.workloads import generate_workload

BUG = "hashmap_atomic.c6_torn_inplace_update"
N_OPS = 120
SEED = 7


def factory():
    return APPLICATIONS["hashmap_atomic"](bugs={BUG})


def run(**kwargs):
    kwargs.setdefault("seed", SEED)
    kwargs.setdefault("run_trace_analysis", False)
    config = MumakConfig(**kwargs)
    workload = generate_workload(N_OPS, seed=SEED)
    return Mumak(config).analyze(factory, workload)


def fingerprintable(result):
    return [
        (f.variant, f.seq, f.stack, f.message, f.recovery_error)
        for f in result.report.findings
    ]


class TestObservationOnly:
    def test_obs_off_records_nothing(self):
        result = run()
        assert result.telemetry is None

    def test_findings_and_render_identical(self):
        baseline = run()
        observed = run(obs_enabled=True)
        assert fingerprintable(baseline) == fingerprintable(observed)
        assert baseline.report.render() == observed.report.render()
        assert observed.telemetry is not None
        assert observed.telemetry.events  # something was recorded

    def test_fingerprint_excludes_obs_knobs(self):
        prints = {
            MumakConfig(seed=SEED).fingerprint("t"),
            MumakConfig(
                seed=SEED,
                obs_enabled=True,
                obs_dir="/tmp/x",
                obs_heartbeat_seconds=1.0,
            ).fingerprint("t"),
        }
        assert len(prints) == 1

    def test_checkpoint_journal_bytes_identical(self, tmp_path):
        paths = []
        for i, obs in enumerate((False, True)):
            path = str(tmp_path / f"journal-{i}.jsonl")
            run(obs_enabled=obs, checkpoint_path=path)
            paths.append(path)
        with open(paths[0], "rb") as a, open(paths[1], "rb") as b:
            assert a.read() == b.read()


class TestRegistryAgreement:
    def test_split_counters_equal_stats(self):
        result = run(obs_enabled=True)
        stats = result.fault_injection.stats
        registry = result.telemetry.registry
        assert registry.total(
            "campaign_phase_split_seconds", phase="materialise"
        ) == pytest.approx(stats.materialise_seconds, rel=1e-12)
        assert registry.total(
            "campaign_phase_split_seconds", phase="recovery"
        ) == pytest.approx(stats.recovery_seconds, rel=1e-12)

    def test_span_histograms_equal_stats(self):
        result = run(obs_enabled=True)
        stats = result.fault_injection.stats
        registry = result.telemetry.registry
        assert registry.total(
            "span_seconds", span="campaign/injection/materialise"
        ) == pytest.approx(stats.materialise_seconds, rel=1e-9)
        assert registry.total(
            "span_seconds", span="campaign/injection/recovery"
        ) == pytest.approx(stats.recovery_seconds, rel=1e-9)
        assert registry.count(
            "span_seconds", span="campaign/injection/recovery"
        ) == stats.injections

    def test_outcome_counters_cover_every_injection(self):
        result = run(obs_enabled=True)
        registry = result.telemetry.registry
        assert registry.count("recovery_outcomes") == (
            result.fault_injection.stats.injections
        )


class TestRunDirAndSchema:
    def _run_dir(self, tmp_path, **kwargs):
        directory = str(tmp_path / "run")
        run(
            obs_dir=directory,
            obs_heartbeat_seconds=1e-9,  # emit on every injection
            **kwargs,
        )
        return directory

    def test_run_dir_layout(self, tmp_path):
        directory = self._run_dir(tmp_path)
        assert sorted(os.listdir(directory)) == sorted(
            [EVENTS_FILENAME, PROM_FILENAME, JSON_FILENAME]
        )

    def test_jsonl_schema_stability(self, tmp_path):
        """Every event carries the four stable fields; CI's contract."""
        directory = self._run_dir(tmp_path)
        with open(os.path.join(directory, EVENTS_FILENAME)) as fh:
            lines = fh.read().splitlines()
        assert lines
        seqs = []
        kinds = set()
        for line in lines:
            event = json.loads(line)
            for field in EVENT_SCHEMA_FIELDS:
                assert field in event, f"event missing {field!r}: {event}"
            assert isinstance(event["ts"], (int, float))
            assert isinstance(event["span"], str) and event["span"]
            assert isinstance(event["worker"], int)
            assert event["kind"] in EVENT_KINDS
            if event["kind"] == "span":
                assert "dur" in event
            seqs.append(event["seq"])
            kinds.add(event["kind"])
        assert seqs == list(range(len(seqs)))
        assert "span" in kinds and "heartbeat" in kinds

    def test_prometheus_snapshot_parses(self, tmp_path):
        directory = self._run_dir(tmp_path)
        with open(os.path.join(directory, PROM_FILENAME)) as fh:
            text = fh.read()
        assert "# TYPE mumak_campaign_injections_total counter" in text
        for line in text.splitlines():
            assert line.startswith(("#", "mumak_"))

    def test_obs_report_end_to_end(self, tmp_path):
        from repro.obs import report_run

        directory = self._run_dir(tmp_path)
        text = report_run(directory)
        assert "materialise" in text
        assert "recovery" in text
        assert "== by fault-model variant ==" in text
        assert "== by worker ==" in text
        assert "last heartbeat:" in text

    def test_heartbeat_sink_receives_lines(self, tmp_path):
        lines = []
        run(obs_heartbeat_seconds=1e-9, obs_sink=lines.append)
        assert lines
        assert all(line.startswith("[heartbeat]") for line in lines)
