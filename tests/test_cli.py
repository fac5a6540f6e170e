"""CLI frontend tests."""

import pytest

from repro.cli import build_parser, main
from repro.recovery import VerdictCache


def test_targets_lists_all(capsys):
    assert main(["targets"]) == 0
    out = capsys.readouterr().out
    for name in ("btree", "rbtree", "rocksdb_pm", "montage_hashtable"):
        assert name in out


def test_bugs_lists_registry(capsys):
    assert main(["bugs", "btree"]) == 0
    out = capsys.readouterr().out
    assert "btree.c1_count_outside_tx" in out
    assert "btree.pf1" in out


def test_tools_prints_tables(capsys):
    assert main(["tools"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Table 3" in out
    assert "Mumak" in out


def test_analyze_clean_target_exits_zero(capsys):
    code = main([
        "analyze", "btree", "--ops", "60", "--spt", "--bugs", "none",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 unique bug(s)" in out


@pytest.mark.slow
def test_analyze_buggy_target_exits_nonzero(capsys):
    code = main([
        "analyze", "btree", "--ops", "120", "--spt",
        "--bugs", "btree.c1_count_outside_tx", "--no-warnings",
    ])
    out = capsys.readouterr().out
    assert code == 1
    assert "crash_consistency" in out


def test_analyze_without_fault_injection(capsys):
    """Regression: summary printing must survive a skipped phase."""
    code = main([
        "analyze", "btree", "--ops", "40", "--spt", "--bugs", "none",
        "--no-fault-injection",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "fault injection: skipped" in out
    assert "failure points" not in out


def test_analyze_caps_injections(capsys):
    code = main([
        "analyze", "btree", "--ops", "60", "--spt", "--bugs", "none",
        "--max-injections", "3",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "injections: 3" in out


def test_resume_requires_checkpoint(capsys):
    code = main(["analyze", "btree", "--resume"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--resume requires --checkpoint" in err


def _foreign_scope_cache(tmp_path):
    path = str(tmp_path / "foreign.vcache")
    VerdictCache("another-scope", path=path).close()
    return ["--recovery-cache", path]


@pytest.mark.parametrize("extra", [
    lambda tmp: ["--timeout", "0"],
    lambda tmp: ["--timeout", "-1"],
    lambda tmp: ["--step-budget", "0"],
    lambda tmp: ["--ops", "-5"],
    lambda tmp: ["--max-injections", "-1"],
    lambda tmp: ["--bugs", "bogus"],
    lambda tmp: ["--retries", "-1"],
    lambda tmp: ["--adversarial-samples", "0"],
    lambda tmp: ["--fleet", str(tmp / "fleet"), "--fleet-ttl", "0"],
    lambda tmp: ["--checkpoint", str(tmp / "missing.jsonl"), "--resume"],
    lambda tmp: ["--recovery-cache", str(tmp / "no-dir" / "v.vcache")],
    _foreign_scope_cache,
    lambda tmp: ["--checkpoint-interval", "0"],
    lambda tmp: ["--checkpoint-interval", "-3"],
    lambda tmp: ["--machine-pool", "-1"],
    lambda tmp: ["--obs-heartbeat", "-1"],
    lambda tmp: ["--stall-window", "-1"],
    lambda tmp: ["--fleet", str(tmp / "fleet"), "--fleet-patience", "-1"],
], ids=[
    "timeout-zero", "timeout-negative", "step-budget-zero", "ops-negative",
    "max-injections-negative", "bugs-unknown", "retries-negative",
    "adversarial-samples-zero", "fleet-ttl-zero", "resume-missing",
    "cache-dir-missing", "cache-foreign-scope", "checkpoint-interval-zero",
    "checkpoint-interval-negative", "machine-pool-negative",
    "obs-heartbeat-negative", "stall-window-negative",
    "fleet-patience-negative",
])
def test_analyze_bad_input_is_one_line_refusal(extra, tmp_path, capsys):
    """Bad values and unusable files exit 2 with one stderr line, never a
    traceback."""
    code = main(["analyze", "btree", "--ops", "20", "--spt", "--bugs",
                 "none", "--max-injections", "2"] + extra(tmp_path))
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.slow
def test_checkpoint_resume_round_trip(tmp_path, capsys):
    path = str(tmp_path / "ckpt.jsonl")
    base = ["analyze", "btree", "--ops", "40", "--spt", "--bugs", "none",
            "--checkpoint", path, "--checkpoint-interval", "1"]
    assert main(base) == 0
    first = capsys.readouterr().out
    assert main(base + ["--resume"]) == 0
    second = capsys.readouterr().out
    assert "resumed:" in second
    # The rendered report (everything before the summary line) matches.
    assert first.split("\n\n[")[0] == second.split("\n\n[")[0]


def test_parser_rejects_unknown_target():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["analyze", "memcached"])


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["experiment", "fig9"])


def test_analyze_obs_writes_run_dir(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    code = main([
        "analyze", "btree", "--ops", "40", "--spt", "--bugs", "none",
        "--max-injections", "10", "--obs", run_dir,
    ])
    captured = capsys.readouterr()
    assert code == 0
    import os

    assert sorted(os.listdir(run_dir)) == [
        "metrics.json", "metrics.prom", "telemetry.jsonl",
    ]
    # The pointer goes to stderr; stdout stays machine-clean.
    assert "mumak obs report" in captured.err
    assert "mumak obs report" not in captured.out


def test_analyze_heartbeat_renders_to_stderr(capsys):
    code = main([
        "analyze", "btree", "--ops", "40", "--spt", "--bugs", "none",
        "--max-injections", "10", "--obs-heartbeat", "0.000001",
    ])
    captured = capsys.readouterr()
    assert code == 0
    assert "[heartbeat]" in captured.err
    assert "[heartbeat]" not in captured.out


def test_obs_report_renders_attribution(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main([
        "analyze", "btree", "--ops", "40", "--spt", "--bugs", "none",
        "--max-injections", "10", "--obs", run_dir,
    ]) == 0
    capsys.readouterr()
    assert main(["obs", "report", run_dir]) == 0
    out = capsys.readouterr().out
    assert "campaign phase attribution" in out
    assert "materialise" in out
    assert "recovery" in out


def test_obs_report_missing_dir_is_actionable(tmp_path, capsys):
    code = main(["obs", "report", str(tmp_path / "nowhere")])
    captured = capsys.readouterr()
    assert code == 2
    assert "--obs" in captured.err


def test_obs_report_empty_dir_is_one_line_error(tmp_path, capsys):
    """Regression: an existing-but-empty run dir exits 2 with a single
    actionable line on stderr instead of a traceback."""
    empty = tmp_path / "empty-run"
    empty.mkdir()
    code = main(["obs", "report", str(empty)])
    captured = capsys.readouterr()
    assert code == 2
    assert "--obs" in captured.err
    assert "Traceback" not in captured.err
    assert len(captured.err.strip().splitlines()) == 1


def test_obs_report_corrupt_stream_is_one_line_error(tmp_path, capsys):
    """Mid-stream corruption surfaces as exit 2 + stderr, no traceback."""
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    stream = run_dir / "telemetry.jsonl"
    stream.write_text(
        '{"kind":"span","span":"campaign/injection/recovery","dur":0.1}\n'
        "{corrupt mid-stream line\n"
        '{"kind":"span","span":"campaign/injection/recovery","dur":0.2}\n',
        encoding="utf-8",
    )
    code = main(["obs", "report", str(run_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.strip()
    assert "Traceback" not in captured.err


def test_analyze_recovery_cache_summary_line(capsys):
    """Defaults-on recovery engine surfaces hit/miss in the summary."""
    code = main([
        "analyze", "btree", "--ops", "40", "--spt", "--bugs", "none",
        "--max-injections", "10",
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "recovery cache:" in out


def test_analyze_recovery_cache_off_matches_on(capsys):
    """Differential: report identical with the recovery engine off."""
    base = ["analyze", "btree", "--ops", "40", "--spt", "--bugs", "none",
            "--max-injections", "10"]
    assert main(base) == 0
    on = capsys.readouterr().out
    assert main(
        base + ["--recovery-cache", "off", "--machine-pool", "0"]
    ) == 0
    off = capsys.readouterr().out
    # Rendered report (everything before the summary) is byte-identical.
    assert on.split("\n\n[")[0] == off.split("\n\n[")[0]
    assert "recovery cache:" not in off


def test_obs_report_has_cache_hit_column(tmp_path, capsys):
    run_dir = str(tmp_path / "run")
    assert main([
        "analyze", "btree", "--ops", "60", "--spt", "--bugs", "none",
        "--obs", run_dir,
    ]) == 0
    capsys.readouterr()
    assert main(["obs", "report", run_dir]) == 0
    out = capsys.readouterr().out
    assert "hits" in out
    assert "recovery_cache" in out


def test_quick_run_returns_text_without_printing(capsys):
    from repro import quick_run
    from repro.apps.btree import BTree
    from repro.core import MumakConfig

    text = quick_run(
        lambda: BTree(bugs=(), spt=True),
        config=MumakConfig(max_injections=5, run_trace_analysis=False),
        n_ops=40,
    )
    assert "0 unique bug(s)" in text
    assert capsys.readouterr().out == ""  # no stdout side effect
