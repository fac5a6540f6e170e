"""Campaign-order units: the digest extent and ordered journalling."""

import dataclasses

from repro.core.harness import (
    InjectionResult,
    InjectionTask,
    OrderedJournalWriter,
)
from repro.pmem.machine import VOLATILE_BASE
from repro.recovery.digest import persisted_write_extent


@dataclasses.dataclass
class FakeEvent:
    seq: int
    is_write: bool = True
    data: object = b"\x01"
    address: object = 0


def task(index, seq):
    return InjectionTask(index=index, stack=(f"fn{index}",), seq=seq)


# --------------------------------------------------------------------- #
# persisted_write_extent
# --------------------------------------------------------------------- #


def test_write_extent_is_line_aligned_and_covers_all_writes():
    trace = [
        FakeEvent(seq=1, address=100, data=b"\x01" * 8),
        FakeEvent(seq=2, address=900, data=b"\x01" * 10),
        FakeEvent(seq=3, address=5000, is_write=False),   # load: ignored
        FakeEvent(seq=4, address=VOLATILE_BASE + 64),     # volatile
    ]
    # Writes cover [100, 910); aligned out to cache lines because
    # adversarial mutations (torn cuts, media bit flips) touch whole
    # written lines.
    assert persisted_write_extent(trace) == (64, 960)


def test_write_extent_none_when_nothing_persists():
    assert persisted_write_extent([]) is None
    assert persisted_write_extent(
        [FakeEvent(seq=1, is_write=False), FakeEvent(seq=2, data=None)]
    ) is None


# --------------------------------------------------------------------- #
# OrderedJournalWriter
# --------------------------------------------------------------------- #


def _result(index):
    return InjectionResult(task=task(index, index))


def test_out_of_order_completions_drain_in_index_order():
    recorded = []
    writer = OrderedJournalWriter(
        lambda r: recorded.append(r.task.index), [0, 1, 2, 3]
    )
    writer.offer(_result(2))
    writer.offer(_result(0))
    assert recorded == [0]  # 1 still missing: 2 stays buffered
    assert writer.buffered == 1
    writer.offer(_result(1))
    assert recorded == [0, 1, 2]
    writer.offer(_result(3))
    assert recorded == [0, 1, 2, 3]
    assert writer.buffered == 0


def test_sparse_and_unsorted_expected_indices():
    recorded = []
    writer = OrderedJournalWriter(
        lambda r: recorded.append(r.task.index), [7, 2, 10]
    )
    writer.offer(_result(10))
    writer.offer(_result(7))
    assert recorded == []
    writer.offer(_result(2))
    assert recorded == [2, 7, 10]


def test_flush_remaining_drains_stragglers_in_order():
    """A drained campaign leaves gaps: whatever is buffered still lands
    index-ordered."""
    recorded = []
    writer = OrderedJournalWriter(
        lambda r: recorded.append(r.task.index), [0, 1, 2]
    )
    writer.offer(_result(2))
    writer.offer(_result(1))
    writer.flush_remaining()
    assert recorded == [1, 2]
