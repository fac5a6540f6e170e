"""Recovery-oracle classification tests."""

import os
import shutil
import subprocess
import sys

import repro
from repro.core.oracle import (
    RecoveryStatus,
    format_capped_trace,
    run_recovery,
)
from repro.errors import RecoveryError
from repro.pmem import PMachine


class _App:
    pool_size = 4096

    def __init__(self, behaviour):
        self.behaviour = behaviour

    def recover(self, machine):
        if self.behaviour == "ok":
            return
        if self.behaviour == "report":
            raise RecoveryError("state unrecoverable")
        raise ZeroDivisionError("segfault analog")


IMAGE = bytes(4096)


def test_ok():
    outcome = run_recovery(lambda: _App("ok"), IMAGE)
    assert outcome.status is RecoveryStatus.OK
    assert not outcome.status.is_bug
    assert outcome.error is None


def test_reported_unrecoverable():
    outcome = run_recovery(lambda: _App("report"), IMAGE)
    assert outcome.status is RecoveryStatus.REPORTED_UNRECOVERABLE
    assert outcome.status.is_bug
    assert "unrecoverable" in outcome.error
    assert outcome.trace is None


def test_abrupt_crash_captures_call_trace():
    outcome = run_recovery(lambda: _App("crash"), IMAGE)
    assert outcome.status is RecoveryStatus.CRASHED
    assert outcome.status.is_bug
    assert "ZeroDivisionError" in outcome.error
    assert "recover" in outcome.trace  # the recovery call trace


def test_recovery_runs_on_the_given_image():
    captured = {}

    class Probe:
        pool_size = 4096

        def recover(self, machine):
            captured["byte"] = machine.load(100, 1)

    image = bytearray(4096)
    image[100] = 0x7F
    run_recovery(Probe, bytes(image))
    assert captured["byte"] == b"\x7f"


# --------------------------------------------------------------------- #
# format_capped_trace edge cases (hardened, not incidental)
# --------------------------------------------------------------------- #


def _boom():
    try:
        raise ValueError("x" * 200)
    except ValueError as err:
        return err


def test_capped_trace_zero_char_limit_is_marker_only():
    text = format_capped_trace(_boom(), char_limit=0)
    assert text == "... [trace truncated]"


def test_capped_trace_negative_limits_clamped():
    # Negative limits behave like 0 instead of slicing from the end.
    text = format_capped_trace(_boom(), frame_limit=-3, char_limit=-10)
    assert text == "... [trace truncated]"


def test_capped_trace_shorter_than_cap_unchanged():
    full = format_capped_trace(_boom(), char_limit=1 << 20)
    assert "truncated" not in full
    # Text exactly at the cap is also returned unchanged: the marker
    # only appears when characters were actually dropped.
    exact = format_capped_trace(_boom(), char_limit=len(full))
    assert exact == full


def test_capped_trace_truncates_and_marks():
    text = format_capped_trace(_boom(), char_limit=50)
    assert text.startswith(format_capped_trace(_boom(), char_limit=1 << 20)[:50])
    assert text.endswith("... [trace truncated]")
    assert len(text) <= 50 + len("\n... [trace truncated]")


def test_capped_trace_zero_frame_limit_still_renders_exception():
    text = format_capped_trace(_boom(), frame_limit=0)
    assert "ValueError" in text


def test_capped_trace_is_in_journal_stack_form():
    text = format_capped_trace(_boom())
    frame, last = text.splitlines()
    assert frame.startswith("  at test_oracle.py:")
    assert frame.endswith(":_boom")
    assert last == "ValueError: " + "x" * 200


def test_target_only_trace_drops_simulator_frames():
    class _Reader(_App):
        def recover(self, machine):
            machine.load(machine.medium.size, 8)  # one past the pool

    outcome = run_recovery(lambda: _Reader("read"), IMAGE)
    assert outcome.status is RecoveryStatus.CRASHED
    frames = [line for line in outcome.trace.splitlines()
              if line.startswith("  at ")]
    assert frames == [frames[0]]
    assert frames[0].startswith("  at test_oracle.py:")
    assert frames[0].endswith(":recover")
    assert outcome.trace.splitlines()[-1].startswith("OutOfBoundsError: ")


def test_adversarial_journal_does_not_depend_on_the_install_path(tmp_path):
    """Recovery traces name files by basename: the same campaign run from
    two copies of the package writes the same journal bytes."""
    package = os.path.dirname(repro.__file__)
    journals = []
    for copy in ("a", os.path.join("b", "deeper")):
        root = tmp_path / copy
        shutil.copytree(
            package, root / "repro",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        env = dict(os.environ, PYTHONPATH=str(root))
        loaded = subprocess.run(
            [sys.executable, "-c", "import repro; print(repro.__file__)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout.strip()
        assert loaded == str(root / "repro" / "__init__.py")
        journal = tmp_path / (copy.replace(os.sep, "-") + ".jsonl")
        run = subprocess.run(
            [sys.executable, "-m", "repro.cli", "analyze", "btree", "--spt",
             "--ops", "40", "--fault-model", "adversarial",
             "--checkpoint", str(journal)],
            env=env, cwd=tmp_path, capture_output=True, text=True,
        )
        assert run.returncode == 1, run.stderr
        journals.append(journal.read_bytes())
    assert b'"recovery_trace":"' in journals[0]
    assert journals[0] == journals[1]
