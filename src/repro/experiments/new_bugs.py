"""Section 6.4: the new bugs Mumak found, reproduced end to end.

Four demonstrations, each running black-box Mumak against the carrier
target and checking that the expected failure is reported:

* **PMDK #5461** — the high-priority ``pmemobj_tx_commit`` bug: analysing
  the btree data store (original, all-puts-in-one-transaction variant) on
  PMDK 1.12 exposes a fault during the commit of the large transaction;
  the overflow undo log is freed before the commit point and recovery
  dies on a log that points at freed memory.  The fixed PMDK version shows
  no such failure under the identical analysis.
* **PMDK #5512 (libart)** — a fault during the commit of an ART insert
  leaves ``n_children`` inconsistent; recovery flags the node, and a
  post-crash insertion into a full-looking node dies on an assertion.
* **Montage #36** — the allocator-misuse bug: retired payloads reclaimed
  before their epoch persists.
* **Montage 3384e50** — the allocator-destruction window.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.apps.art import ARTree
from repro.apps.btree import BTree
from repro.apps.montage_apps import MontageHashtable
from repro.core import Mumak, MumakConfig
from repro.experiments.common import format_table
from repro.pmdk import PMDK_1_12, PMDK_FIXED
from repro.workloads import generate_workload


@dataclass
class NewBugDemo:
    bug: str
    target: str
    detected: bool
    fixed_version_clean: Optional[bool]
    evidence: str


@dataclass
class NewBugsResult:
    demos: List[NewBugDemo] = field(default_factory=list)


def _correctness_evidence(result) -> str:
    findings = result.report.correctness_bugs()
    if not findings:
        return "no correctness findings"
    sample = findings[0]
    return (sample.recovery_error or sample.message)[:110]


def run_new_bugs(n_ops: int = 500, seed: int = 3) -> NewBugsResult:
    result = NewBugsResult()
    workload = generate_workload(n_ops, seed=seed)

    # PMDK 1.12 tx-commit overflow bug, via the original (single giant
    # transaction) btree workload -- the bug only has a window when the
    # undo log spilled into dynamically allocated overflow space.
    def btree_112():
        return BTree(bugs=(), spt=False, version=PMDK_1_12)

    def btree_fixed():
        return BTree(bugs=(), spt=False, version=PMDK_FIXED)

    buggy = Mumak(MumakConfig(seed=seed)).analyze(btree_112, workload)
    clean = Mumak(MumakConfig(seed=seed)).analyze(btree_fixed, workload)
    result.demos.append(
        NewBugDemo(
            bug="pmdk.c1_tx_commit_overflow (pmem/pmdk#5461)",
            target="btree on PMDK 1.12 (single large transaction)",
            detected=bool(buggy.report.correctness_bugs()),
            fixed_version_clean=not clean.report.correctness_bugs(),
            evidence=_correctness_evidence(buggy),
        )
    )

    # libart insert-commit bug (pmem/pmdk#5512).
    def art_buggy():
        return ARTree(bugs={"art.c1_insert_commit"}, version=PMDK_FIXED)

    def art_fixed():
        return ARTree(bugs=(), version=PMDK_FIXED)

    buggy = Mumak(MumakConfig(seed=seed)).analyze(art_buggy, workload)
    clean = Mumak(MumakConfig(seed=seed)).analyze(art_fixed, workload)
    result.demos.append(
        NewBugDemo(
            bug="art.c1_insert_commit (pmem/pmdk#5512)",
            target="libart example",
            detected=bool(buggy.report.correctness_bugs()),
            fixed_version_clean=not clean.report.correctness_bugs(),
            evidence=_correctness_evidence(buggy),
        )
    )

    # The two Montage bugs.
    for bug_id, reference in (
        ("montage.c1_allocator_misuse", "urcs-sync/Montage#36"),
        ("montage.c2_dtor_window", "urcs-sync/Montage commit 3384e50"),
    ):
        def montage_buggy(b=bug_id):
            return MontageHashtable(bugs={b})

        def montage_fixed():
            return MontageHashtable(bugs=())

        buggy = Mumak(MumakConfig(seed=seed)).analyze(montage_buggy, workload)
        clean = Mumak(MumakConfig(seed=seed)).analyze(montage_fixed, workload)
        result.demos.append(
            NewBugDemo(
                bug=f"{bug_id} ({reference})",
                target="Montage Hashtable (no PMDK anywhere)",
                detected=bool(buggy.report.correctness_bugs()),
                fixed_version_clean=not clean.report.correctness_bugs(),
                evidence=_correctness_evidence(buggy),
            )
        )
    return result


def render(result: NewBugsResult) -> str:
    rows = [
        [
            demo.bug,
            "found" if demo.detected else "MISSED",
            "clean" if demo.fixed_version_clean else "STILL FAILING",
            demo.evidence,
        ]
        for demo in result.demos
    ]
    return format_table(
        ["bug", "buggy version", "fixed version", "evidence"],
        rows,
        title="Section 6.4: new bugs found by black-box analysis",
    )
