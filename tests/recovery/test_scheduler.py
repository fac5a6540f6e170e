"""Units of the digest extent, the persisted-write bound of a campaign."""

import dataclasses

from repro.pmem.machine import VOLATILE_BASE
from repro.recovery.digest import persisted_write_extent


@dataclasses.dataclass
class FakeEvent:
    seq: int
    is_write: bool = True
    data: object = b"\x01"
    address: object = 0


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
