"""Baseline-tool behaviour tests (fast configurations)."""

import os
import subprocess
import sys

import pytest

from repro.apps.btree import BTree
from repro.apps.montage_apps import MontageHashtable
from repro.baselines import ALL_TOOLS, tool_by_name
from repro.baselines.base import WORK_UNITS_PER_HOUR, DetectionTool
from repro.errors import ToolError
from repro.workloads import generate_workload

WORKLOAD = generate_workload(120, seed=5)

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: One Witcher analysis whose findings name mismatching keys.
WITCHER_FINDINGS = (
    "from repro.apps.rbtree import RBTree\n"
    "from repro.baselines import tool_by_name\n"
    "from repro.workloads import generate_workload\n"
    "run = tool_by_name('Witcher').analyze(\n"
    "    RBTree, generate_workload(40, seed=1), budget_hours=12.0)\n"
    "for finding in run.report.findings:\n"
    "    print(finding.site, finding.message)\n"
)


def buggy_btree():
    return BTree(spt=True)  # as-published defaults


def clean_btree():
    return BTree(bugs=(), spt=True)


class TestHarness:
    def test_registry_names(self):
        assert set(ALL_TOOLS) == {
            "Mumak", "Agamotto", "XFDetector", "PMDebugger", "Witcher", "Yat"
        }
        with pytest.raises(KeyError):
            tool_by_name("Hypothetical")

    def test_budget_marks_timeout(self):
        run = tool_by_name("XFDetector").analyze(
            buggy_btree, WORKLOAD, budget_hours=0.05
        )
        assert run.timed_out
        assert run.modelled_hours >= 0.05

    @pytest.mark.slow
    def test_unbounded_budget(self):
        run = tool_by_name("Mumak").analyze(
            clean_btree, WORKLOAD, budget_hours=None
        )
        assert not run.timed_out
        assert run.work_units > 0
        assert run.modelled_hours == run.work_units / WORK_UNITS_PER_HOUR

    def test_hung_tool_is_contained(self):
        """A tool that hangs is reported timed out, not a stuck sweep."""

        class HangingTool(DetectionTool):
            name = "Hanging"

            def _analyze(self, *args, **kwargs):
                while True:
                    pass

        run = HangingTool().analyze(
            clean_btree, WORKLOAD, budget_hours=None, timeout_seconds=0.2
        )
        assert run.timed_out
        assert run.detail["harness"]["status"] == "hung"
        assert run.wall_seconds > 0

    def test_crashing_tool_is_contained(self):
        """An unexpected tool crash is contained into run.detail."""

        class CrashingTool(DetectionTool):
            name = "Crashing"

            def _analyze(self, *args, **kwargs):
                raise ZeroDivisionError("tool bug")

        run = CrashingTool().analyze(clean_btree, WORKLOAD)
        assert not run.report.bugs
        harness = run.detail["harness"]
        assert harness["status"] == "infra_error"
        assert "ZeroDivisionError" in harness["error"]
        assert "trace" in harness


@pytest.mark.slow
class TestMumakTool:
    def test_finds_seeded_bugs(self):
        run = tool_by_name("Mumak").analyze(buggy_btree, WORKLOAD,
                                            budget_hours=None)
        assert run.report.correctness_bugs()
        assert run.report.performance_bugs()
        assert run.resources.pm_overhead() == 1.0

    def test_faster_than_agamotto(self):
        mumak = tool_by_name("Mumak").analyze(buggy_btree, WORKLOAD,
                                              budget_hours=None)
        agamotto = tool_by_name("Agamotto").analyze(
            buggy_btree, WORKLOAD, budget_hours=None
        )
        assert mumak.modelled_hours < agamotto.modelled_hours


class TestToolRequirements:
    def test_pmdebugger_rejects_non_pmdk_targets(self):
        with pytest.raises(ToolError):
            tool_by_name("PMDebugger").analyze(
                lambda: MontageHashtable(bugs=()), WORKLOAD,
                budget_hours=None,
            )

    def test_mumak_analyzes_non_pmdk_targets(self):
        run = tool_by_name("Mumak").analyze(
            lambda: MontageHashtable(bugs=()),
            generate_workload(100, seed=5),
            budget_hours=None,
        )
        assert not run.report.bugs  # clean config, black-box, no PMDK


class TestWitcherDeterminism:
    def test_findings_do_not_depend_on_the_hash_seed(self):
        """An output-equivalence finding names the first key whose
        value mismatches; two processes with different hash seeds must
        name the same keys."""
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed)
            env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
            done = subprocess.run(
                [sys.executable, "-c", WITCHER_FINDINGS], env=env,
                capture_output=True, text=True, timeout=300,
            )
            assert done.returncode == 0, done.stderr
            outputs.append(done.stdout)
        assert "output mismatch" in outputs[0]
        assert outputs[0] == outputs[1]


@pytest.mark.slow
class TestWitcher:
    def test_no_false_positives_on_clean_target(self):
        run = tool_by_name("Witcher").analyze(
            clean_btree, generate_workload(80, seed=5), budget_hours=12.0
        )
        assert run.report.bugs == []

    def test_models_extreme_parallel_memory(self):
        run = tool_by_name("Witcher").analyze(
            clean_btree, generate_workload(40, seed=5), budget_hours=12.0
        )
        assert run.resources.peak_tool_bytes > 100 * clean_btree().pool_size
        assert run.resources.cpu_load > 100


@pytest.mark.slow
class TestYat:
    def test_state_space_counted(self):
        run = tool_by_name("Yat").analyze(
            clean_btree, generate_workload(15, seed=2), budget_hours=1.0
        )
        assert run.detail["state_space"] > run.detail["states_checked"]
