"""One mode matrix: every combination of target, fault model, verdict
cache, executor and injection engine either writes the serial journal
bytes or is refused up front by the refusal table in
:mod:`repro.core.pipeline`, with that row's one line.

A cell's reference is the serial trace-engine campaign of the same
target and fault model.  The injection engine is part of the campaign
fingerprint, so replay cells are compared after the journal header.  A
combination that breaks byte identity cannot land without a row in the
table, and a row cannot refuse a runnable combination without
:func:`refused` saying so.
"""

import itertools
import os

import pytest

from repro.apps.btree import BTree
from repro.apps.msgqueue_tso import MsgQueueTSO
from repro.core import Mumak, MumakConfig
from repro.core.pipeline import _REFUSALS
from repro.errors import CheckpointError, ConfigError
from repro.pmem.faultmodel import FaultModelConfig
from repro.sched.config import SchedConfig
from repro.workloads import generate_workload

BTREE_OPS = 20

#: target -> (app factory, workload, config knobs).  btree is capped:
#: its adversarial variants copy a 32 MiB pool, and the replay engine
#: re-executes it per failure point.  The scheduled target's pool is
#: small enough to run uncapped.
TARGETS = {
    "btree": (
        lambda: BTree(spt=True),
        generate_workload(BTREE_OPS, seed=0),
        {"max_injections": 12},
    ),
    "msgqueue_tso": (
        MsgQueueTSO,
        generate_workload(16, seed=7),
        {"sched": SchedConfig(threads=2, seed=3, samples=3)},
    ),
}
FAULT_MODELS = ("prefix", "adversarial")
CACHES = ("on", "off")
EXECUTORS = ("serial", "shards", "chaos", "fleet")
ENGINES = ("trace", "replay")
CELLS = list(
    itertools.product(TARGETS, FAULT_MODELS, CACHES, EXECUTORS, ENGINES)
)
TABLE_MESSAGES = {message for _, message in _REFUSALS}


def refused(target, executor, engine):
    """The cells the refusal table must refuse, and only those."""
    sched = target == "msgqueue_tso"
    # --sched, --shards/--chaos and --fleet need the trace engine.
    if engine == "replay" and (sched or executor != "serial"):
        return True
    # Schedule samples are process-local detection products.
    return sched and executor == "fleet"


def executor_knobs(executor, tmp_path):
    if executor == "shards":
        return {"shards": 2}
    if executor == "chaos":
        return {"shards": 2, "chaos": "kill-worker=0.3,seed=7"}
    if executor == "fleet":
        # No worker shows up, so every slice runs in the local fallback.
        return {
            "fleet_dir": str(tmp_path / "fleet"),
            "fleet_patience_seconds": 0,
            "campaign_spec": {
                "target": "btree",
                "options": {"spt": True},
                "ops": BTREE_OPS,
                "workload_seed": 0,
            },
        }
    return {}


def campaign(tmp_path, target, model, cache, executor, engine):
    """Run one cell; return its checkpoint path."""
    factory, workload, knobs = TARGETS[target]
    path = str(tmp_path / "campaign.jsonl")
    config = MumakConfig(
        engine=engine,
        fault_model=FaultModelConfig(model=model),
        recovery_cache=cache,
        checkpoint_path=path,
        **knobs,
        **executor_knobs(executor, tmp_path),
    )
    Mumak(config).analyze(factory, workload)
    return path


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """The serial trace-engine journal of a (target, fault model)."""
    journals = {}

    def journal(target, model):
        if (target, model) not in journals:
            tmp = tmp_path_factory.mktemp("reference")
            path = campaign(tmp, target, model, "on", "serial", "trace")
            with open(path, "rb") as handle:
                journals[target, model] = handle.read()
        return journals[target, model]

    return journal


@pytest.mark.slow
@pytest.mark.parametrize("cell", CELLS, ids=["-".join(c) for c in CELLS])
def test_cell_writes_the_serial_bytes_or_is_refused(
    cell, reference, tmp_path
):
    target, model, cache, executor, engine = cell
    if refused(target, executor, engine):
        with pytest.raises(ConfigError) as refusal:
            campaign(tmp_path, *cell)
        assert str(refusal.value) in TABLE_MESSAGES
        assert not os.path.exists(tmp_path / "campaign.jsonl")
        return
    with open(campaign(tmp_path, *cell), "rb") as handle:
        journal = handle.read()
    expected = reference(target, model)
    assert journal.count(b"\n") > 1
    if engine == "replay":
        journal = journal.split(b"\n", 1)[1]
        expected = expected.split(b"\n", 1)[1]
    assert journal == expected


@pytest.mark.slow
@pytest.mark.parametrize("executor", EXECUTORS)
def test_existing_checkpoint_restarts_or_is_refused(executor, tmp_path):
    """Without a resume, every executor starts its own campaign's
    checkpoint afresh (each record written once) and refuses another
    campaign's before any injection, leaving it byte-identical."""
    cell = ("btree", "prefix", "on", executor, "trace")
    with open(campaign(tmp_path, *cell), "rb") as handle:
        first = handle.read()
    with open(campaign(tmp_path, *cell), "rb") as handle:
        assert handle.read() == first

    header, records = first.split(b"\n", 1)
    foreign = header.replace(b'"fingerprint":"', b'"fingerprint":"0')
    other = tmp_path / "other"
    other.mkdir()
    path = other / "campaign.jsonl"
    path.write_bytes(foreign + b"\n" + records)
    with pytest.raises(CheckpointError):
        campaign(other, *cell)
    assert path.read_bytes() == foreign + b"\n" + records
    assert os.listdir(other) == ["campaign.jsonl"]
