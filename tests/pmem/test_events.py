"""``MemoryEvent`` is a named tuple that behaves as the frozen dataclass
it replaced: same fields, defaults, immutability, copies, pickling,
equality and hashing that ignore ``stack``, and the same helpers."""

import pickle
from dataclasses import dataclass, field
from typing import Optional, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.pmem.events import MemoryEvent, Opcode


@dataclass(frozen=True)
class ReferenceEvent:
    """The frozen dataclass ``MemoryEvent`` was."""

    seq: int
    opcode: Opcode
    address: Optional[int] = None
    size: int = 0
    data: Optional[bytes] = None
    site: Optional[str] = None
    stack: Optional[Tuple[str, ...]] = field(default=None, compare=False)

    @property
    def is_write(self) -> bool:
        return self.opcode.is_store

    @property
    def end(self) -> int:
        if self.address is None:
            return 0
        return self.address + self.size

    def describe(self) -> str:
        loc = f" @ {self.site}" if self.site else ""
        if self.opcode.is_fence and self.opcode is not Opcode.RMW:
            return f"#{self.seq} {self.opcode.value}{loc}"
        return (
            f"#{self.seq} {self.opcode.value}"
            f" addr=0x{(self.address or 0):x} size={self.size}{loc}"
        )


FIELDS = ("seq", "opcode", "address", "size", "data", "site", "stack")

event_fields = st.tuples(
    st.integers(0, 3),
    st.sampled_from(list(Opcode)),
    st.one_of(st.none(), st.integers(0, 3)),
    st.integers(0, 2),
    st.one_of(st.none(), st.sampled_from([b"", b"a", b"ab"])),
    st.one_of(st.none(), st.sampled_from(["a.py:1:f", "b.py:2:g"])),
    st.one_of(st.none(), st.sampled_from([(), ("a.py:1:f",), ("x",)])),
)


def test_fields_order_and_defaults():
    assert MemoryEvent._fields == FIELDS
    event = MemoryEvent(7, Opcode.SFENCE)
    assert tuple(event) == (7, Opcode.SFENCE, None, 0, None, None, None)
    assert len(event) == len(FIELDS)
    assert isinstance(event, tuple)
    keyword = MemoryEvent(seq=1, opcode=Opcode.STORE, address=8, size=2,
                          data=b"ab", site="s", stack=("s",))
    assert [getattr(keyword, name) for name in FIELDS] == [
        1, Opcode.STORE, 8, 2, b"ab", "s", ("s",)
    ]


def test_assignment_raises_attribute_error():
    event = MemoryEvent(1, Opcode.STORE, 8, 2, b"ab")
    with pytest.raises(AttributeError):
        event.seq = 2
    with pytest.raises(AttributeError):
        event.site = "elsewhere"
    with pytest.raises(AttributeError):
        event.extra = 1
    assert event == (1, Opcode.STORE, 8, 2, b"ab", None, None)


def test_replace_copies_with_other_fields():
    event = MemoryEvent(1, Opcode.CLWB, 64, 64)
    annotated = event._replace(site="a.py:1:f", stack=("a.py:1:f",))
    assert type(annotated) is MemoryEvent
    assert annotated.site == "a.py:1:f"
    assert annotated.stack == ("a.py:1:f",)
    assert annotated[:5] == event[:5]
    assert event.site is None and event.stack is None


def test_pickles_with_every_field():
    event = MemoryEvent(3, Opcode.NT_STORE, 16, 4, b"abcd", "a.py:1:f",
                        ("a.py:1:f",))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        restored = pickle.loads(pickle.dumps(event, protocol))
        assert type(restored) is MemoryEvent
        assert tuple(restored) == tuple(event)


@given(event_fields, event_fields)
def test_equality_and_hash_are_the_dataclass_s(left, right):
    """Equal exactly when the dataclass instances are (``stack`` never
    counts), equal events hash alike, and the helpers agree."""
    events = MemoryEvent(*left), MemoryEvent(*right)
    references = ReferenceEvent(*left), ReferenceEvent(*right)
    assert (events[0] == events[1]) == (references[0] == references[1])
    assert (events[0] != events[1]) == (references[0] != references[1])
    if events[0] == events[1]:
        assert hash(events[0]) == hash(events[1])
    for event, reference in zip(events, references):
        assert event.describe() == reference.describe()
        assert event.end == reference.end
        assert event.is_write == reference.is_write


def test_stack_is_ignored_by_equality_and_hash():
    event = MemoryEvent(1, Opcode.STORE, 8, 2, b"ab", "a.py:1:f")
    traced = event._replace(stack=("a.py:1:f",))
    assert traced == event and not traced != event
    assert hash(traced) == hash(event)
    assert len({event, traced}) == 1
    assert event._replace(site="b.py:2:g") != event
