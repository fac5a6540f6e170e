"""End-to-end drain: real signals against a real ``mumak analyze``.

Spawns the CLI as a subprocess, SIGTERMs it mid-campaign, and asserts
the two-stage contract: exit 130, a drain notice on stderr, a resumable
checkpoint — and that ``--resume`` completes the campaign to a journal
byte-identical to an uninterrupted serial run.
"""

import os
import signal
import subprocess
import sys
import time

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

# Enough injections (~300) that SIGTERM lands mid-campaign reliably.
ANALYZE = [
    "btree",
    "--ops", "60",
    "--fault-model", "torn",
    "--torn-writes",
    "--bugs", "none",
    "--seed", "1",
]


def _run_cli(args, **popen_kwargs):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "analyze", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        **popen_kwargs,
    )


#: ``mumak analyze`` whose stop lands after the last record: each shard
#: worker journals its whole slice, and the last one to finish SIGTERMs
#: the parent, then stays alive until the supervisor's drain broadcast
#: reaches it.  argv: the marker directory, then the analyze arguments.
LATE_STOP = """
import os, signal, sys
from repro.cli import main
from repro.core.fault_injection import FaultInjector

run_slice = FaultInjector.run_slice
marks = sys.argv[1]

def run_slice_then_stop(self, *args, stop, **kwargs):
    done = run_slice(self, *args, stop=stop, **kwargs)
    open(os.path.join(marks, "done.%d" % os.getpid()), "w").close()
    finished = [name for name in os.listdir(marks) if name.startswith("done.")]
    if len(finished) == 2:
        try:
            os.close(os.open(
                os.path.join(marks, "signalled"), os.O_CREAT | os.O_EXCL
            ))
        except FileExistsError:
            pass
        else:
            os.kill(os.getppid(), signal.SIGTERM)
    stop.wait(60)
    return done

FaultInjector.run_slice = run_slice_then_stop
sys.exit(main(["analyze", *sys.argv[2:]]))
"""


def _wait_for_progress(path, timeout=60.0):
    """Block until the checkpoint journal holds at least one record."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            if os.path.getsize(path) > 256:
                return True
        except OSError:
            pass
        time.sleep(0.05)
    return False


@pytest.mark.slow
class TestSigtermDrain:
    def test_drain_resume_is_byte_identical_to_serial(self, tmp_path):
        ref = str(tmp_path / "ref.jsonl")
        proc = _run_cli(ANALYZE + ["--checkpoint", ref])
        _, err = proc.communicate(timeout=300)
        assert proc.returncode in (0, 1), err
        reference = open(ref, "rb").read()

        ckpt = str(tmp_path / "ck.jsonl")
        proc = _run_cli(
            ANALYZE + ["--checkpoint", ckpt, "--shards", "2"]
        )
        assert _wait_for_progress(ckpt + ".shard0"), "no shard progress"
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=300)

        if proc.returncode == 130:
            assert "draining" in err
            assert "campaign drained" in err
            assert "--resume" in err
            # The drained checkpoint is already merged: a valid journal
            # holding a strict subset of the reference records.
            drained = open(ckpt, "rb").read()
            assert reference.startswith(drained[: drained.find(b"\n") + 1])
            assert len(drained) < len(reference)

            proc = _run_cli(
                ANALYZE
                + ["--checkpoint", ckpt, "--shards", "2", "--resume"]
            )
            out, err = proc.communicate(timeout=300)
            assert proc.returncode in (0, 1), err
            assert "resumed" in out
        else:
            # The campaign beat the signal — byte-identity must still
            # hold, it just was not a drain.
            assert proc.returncode in (0, 1), err

        assert open(ckpt, "rb").read() == reference

    def test_stop_after_the_last_record_is_not_a_drain(self, tmp_path):
        """A SIGTERM that lands after both shards journaled their slices
        leaves nothing undone: the campaign completes (exit 0, no drain
        notice) with the serial journal's bytes."""
        analyze = ["btree", "--ops", "20", "--bugs", "none", "--seed", "1"]
        ref = str(tmp_path / "ref.jsonl")
        proc = _run_cli(analyze + ["--checkpoint", ref])
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err

        marks = tmp_path / "marks"
        marks.mkdir()
        ckpt = str(tmp_path / "ck.jsonl")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", LATE_STOP, str(marks), *analyze,
             "--checkpoint", ckpt, "--shards", "2"],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        _, err = proc.communicate(timeout=300)
        assert "SIGTERM: draining" in err  # the stop did arrive
        assert proc.returncode == 0, err
        assert "campaign drained" not in err
        assert open(ckpt, "rb").read() == open(ref, "rb").read()


@pytest.mark.slow
class TestCliValidation:
    def test_bad_chaos_spec_exits_2(self, tmp_path):
        proc = _run_cli(["btree", "--ops", "4", "--chaos", "frob=1"])
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert "chaos" in err

    def test_shards_require_trace_engine(self, tmp_path):
        proc = _run_cli(
            ["btree", "--ops", "4", "--engine", "replay", "--shards", "2"]
        )
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
        assert "trace" in err

    def test_shards_must_be_positive(self, tmp_path):
        proc = _run_cli(["btree", "--ops", "4", "--shards", "0"])
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 2
