"""CLI surface of the fleet fabric: flag validation, the complete
resume hint, the ``mumak fleet worker`` subcommand, and the fleet
sections of the summary and ``mumak obs report``."""

import json
import shlex

import pytest

from repro.cli import _resume_flags, build_parser, main
from repro.core import MumakConfig
from repro.core.harness import campaign_fingerprint
from repro.fabric.fleet import MANIFEST_NAME, FleetConfig, build_manifest
from repro.fabric.signals import DrainController
from repro.fabric.transport import DirTransport


class TestFleetFlagValidation:
    """Misuse exits 2 with one actionable stderr line (the exit-code
    contract: 0 clean, 1 findings, 2 usage/refusal, 130 drained)."""

    def _run(self, capsys, *extra):
        code = main(["analyze", "btree", "--ops", "40"] + list(extra))
        return code, capsys.readouterr().err

    def test_transport_chaos_requires_fleet(self, capsys):
        code, err = self._run(capsys, "--transport-chaos", "drop=0.5")
        assert code == 2
        assert "--transport-chaos requires --fleet" in err

    def test_bad_transport_chaos_spec(self, capsys, tmp_path):
        code, err = self._run(
            capsys, "--fleet", str(tmp_path),
            "--transport-chaos", "explode=1.0",
        )
        assert code == 2
        assert "explode" in err

    def test_fleet_slices_must_be_positive(self, capsys, tmp_path):
        code, err = self._run(
            capsys, "--fleet", str(tmp_path), "--fleet-slices", "0"
        )
        assert code == 2
        assert "--fleet-slices" in err

    def test_fleet_excludes_shards(self, capsys, tmp_path):
        code, err = self._run(
            capsys, "--fleet", str(tmp_path), "--shards", "2"
        )
        assert code == 2
        assert "incompatible" in err

    def test_fleet_excludes_kill_chaos(self, capsys, tmp_path):
        code, err = self._run(
            capsys, "--fleet", str(tmp_path),
            "--chaos", "kill-worker=0.5",
        )
        assert code == 2
        assert "incompatible" in err

    def test_fleet_requires_trace_engine(self, capsys, tmp_path):
        code, err = self._run(
            capsys, "--fleet", str(tmp_path), "--engine", "replay"
        )
        assert code == 2
        assert "--engine trace" in err


class TestResumeHint:
    def _args(self, *extra):
        return build_parser().parse_args(
            ["analyze", "btree", "--checkpoint", "ck.jsonl"] + list(extra)
        )

    def test_plain_campaign(self):
        assert _resume_flags(self._args()) == (
            "mumak analyze btree --checkpoint ck.jsonl --resume"
        )

    def test_fleet_campaign_carries_every_shape_flag(self):
        hint = _resume_flags(self._args(
            "--fleet", "/mnt/fleet", "--fleet-slices", "8",
            "--transport-chaos", "drop=0.5,seed=2",
        ))
        assert hint == (
            "mumak analyze btree --checkpoint ck.jsonl --resume "
            "--fleet /mnt/fleet --fleet-slices 8 "
            "--transport-chaos drop=0.5,seed=2"
        )

    def test_sharded_chaos_campaign(self):
        hint = _resume_flags(self._args(
            "--shards", "4", "--chaos", "kill-worker=0.5",
        ))
        assert hint == (
            "mumak analyze btree --checkpoint ck.jsonl --resume "
            "--shards 4 --chaos kill-worker=0.5"
        )

    def test_hint_reparses_to_the_same_campaign(self):
        """The workload, seed and fault model ride along too: pasting
        the hint resumes this campaign, not another one."""
        args = build_parser().parse_args([
            "analyze", "rbtree", "--ops", "40", "--seed", "3", "--spt",
            "--bugs", "none", "--fault-model", "torn",
            "--checkpoint", "ck.jsonl",
        ])
        hint = shlex.split(_resume_flags(args))
        assert hint[0] == "mumak"
        resumed = build_parser().parse_args(hint[1:])
        assert vars(resumed) == dict(vars(args), resume=True)

    def test_drain_notice_carries_the_full_hint(self):
        notices = []
        controller = DrainController(
            notice=notices.append,
            resume_hint="mumak analyze btree --checkpoint c --resume "
                        "--fleet /f",
            force_exit=lambda code: None,
        )
        controller._handle(2, None)  # first SIGINT: drain
        assert len(notices) == 1
        assert "--fleet /f" in notices[0]
        assert "draining" in notices[0]
        assert controller.drain_requested


class TestFleetWorkerCommand:
    def test_no_manifest_is_a_refusal_not_a_traceback(
        self, capsys, tmp_path
    ):
        code = main([
            "fleet", "worker", str(tmp_path),
            "--manifest-timeout", "0.1", "--poll", "0.02",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "no campaign manifest" in captured.err
        assert "mumak analyze --fleet" in captured.err
        assert "Traceback" not in captured.err

    def test_another_plan_is_a_refusal_before_any_heartbeat(
        self, capsys, tmp_path
    ):
        """A manifest whose plan digest is not the plan this worker
        rebuilds (here: a supervisor that planned other work) exits 2
        with one line, and the worker never beats or claims."""
        config = MumakConfig(seed=0)
        payload = config.fingerprint_payload("btree")
        manifest = build_manifest(
            campaign_fingerprint(payload), payload, 0,
            FleetConfig(root=str(tmp_path)),
            {"target": "btree", "options": {"spt": True}, "ops": 20,
             "workload_seed": 0, "config": config.worker_knobs()},
            plan="0" * 64,
        )
        transport = DirTransport(str(tmp_path))
        transport.put(MANIFEST_NAME, json.dumps(manifest).encode())
        code = main(["fleet", "worker", str(tmp_path), "--poll", "0.02"])
        captured = capsys.readouterr()
        assert code == 2
        assert "plan digest" in captured.err
        assert "Traceback" not in captured.err
        assert transport.list("hb/") == [] and transport.list("lease/") == []


@pytest.mark.slow
class TestFleetSummaryAndReport:
    def test_fallback_campaign_summary_and_obs_report(
        self, capsys, tmp_path
    ):
        """A worker-less fleet campaign (local fallback) still reports
        its fleet shape in the summary, exports the fleet counters, and
        renders the '== fleet ==' section in `mumak obs report`."""
        run_dir = str(tmp_path / "run")
        code = main([
            "analyze", "btree", "--ops", "40", "--spt", "--bugs", "none",
            "--fleet", str(tmp_path / "fleet"),
            "--fleet-patience", "0.2",
            "--checkpoint", str(tmp_path / "ck.jsonl"),
            "--obs", run_dir,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet: 4 slice(s), 0 worker(s)" in out
        assert "local fallback" in out

        assert main(["obs", "report", run_dir]) == 0
        report = capsys.readouterr().out
        assert "== fleet ==" in report
        assert "fleet_releases" in report
        assert "fleet_duplicate_tasks" in report
        assert "fleet_transport_retries" in report

    def test_non_fleet_report_has_no_fleet_section(self, capsys, tmp_path):
        run_dir = str(tmp_path / "run")
        assert main([
            "analyze", "btree", "--ops", "40", "--spt", "--bugs", "none",
            "--max-injections", "10", "--obs", run_dir,
        ]) == 0
        capsys.readouterr()
        assert main(["obs", "report", run_dir]) == 0
        assert "== fleet ==" not in capsys.readouterr().out
