"""Span/event-stream unit tests: hierarchy, schema, finalize order."""

import json

from repro.obs import (
    EVENT_KINDS,
    EVENT_SCHEMA_FIELDS,
    NULL_TELEMETRY,
    SPAN_HISTOGRAM,
    Telemetry,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt


def _telemetry():
    clock = FakeClock()
    return Telemetry(clock=clock), clock


class TestSpans:
    def test_hierarchical_paths(self):
        tel, clock = _telemetry()
        with tel.span("campaign"):
            clock.tick(1.0)
            with tel.span("injection"):
                clock.tick(0.5)
        events = tel.finalize()
        paths = [e["span"] for e in events]
        assert paths == ["campaign/injection", "campaign"]  # inner closes first
        assert events[0]["dur"] == 0.5
        assert events[1]["dur"] == 1.5

    def test_absolute_paths_not_nested(self):
        tel, clock = _telemetry()
        with tel.span("campaign"):
            with tel.span("tool/other"):
                clock.tick(0.1)
        assert tel.finalize()[0]["span"] == "tool/other"

    def test_record_span_preserves_the_exact_float(self):
        tel, _ = _telemetry()
        tel.record_span("campaign/injection/materialise", 0.123456789)
        hist = tel.registry.histogram(
            SPAN_HISTOGRAM,
            span="campaign/injection/materialise",
            worker=0,
        )
        assert hist.sum == 0.123456789

    def test_span_error_attr(self):
        tel, _ = _telemetry()
        try:
            with tel.span("campaign"):
                raise KeyError("boom")
        except KeyError:
            pass
        event = tel.finalize()[0]
        assert event["attrs"]["error"] == "KeyError"

    def test_variant_label_reaches_histogram(self):
        tel, _ = _telemetry()
        tel.record_span("campaign/injection/recovery", 0.25, variant="torn:1")
        assert tel.registry.total(
            SPAN_HISTOGRAM, variant="torn:1"
        ) == 0.25


class TestEventSchema:
    def test_every_event_has_schema_fields(self):
        tel, clock = _telemetry()
        with tel.span("campaign"):
            clock.tick(0.1)
        tel.event("campaign/heartbeat", kind="heartbeat", completed=1)
        tel.event("campaign/progress", note="x")
        for event in tel.finalize():
            for field in EVENT_SCHEMA_FIELDS:
                assert field in event, f"missing {field!r}"
            assert event["kind"] in EVENT_KINDS

    def test_seq_is_dense_and_ordered(self):
        tel, clock = _telemetry()
        for i in range(5):
            tel.event("campaign/mark", index=i)
            clock.tick(0.01)
        events = tel.finalize()
        assert [e["seq"] for e in events] == list(range(5))
        assert [e["attrs"]["index"] for e in events] == list(range(5))

    def test_jsonl_parses_and_is_finalized(self):
        tel, _ = _telemetry()
        tel.event("campaign/mark")
        lines = tel.events_jsonl().strip().splitlines()
        parsed = [json.loads(line) for line in lines]
        assert parsed[0]["seq"] == 0
        assert "_local" not in parsed[0]


class TestWorkers:
    def test_finalize_idempotent(self):
        tel, _ = _telemetry()
        tel.event("campaign/mark")
        assert tel.finalize() is tel.finalize()
        assert tel.events == tel.finalize()


class TestNullTelemetry:
    def test_all_operations_are_noops(self):
        with NULL_TELEMETRY.span("anything", x=1):
            pass
        NULL_TELEMETRY.record_span("a", 1.0)
        NULL_TELEMETRY.event("a")
        NULL_TELEMETRY.counter("a")
        NULL_TELEMETRY.gauge("a", 1)
        NULL_TELEMETRY.observe("a", 1)
        assert NULL_TELEMETRY.finalize() == []
        assert not NULL_TELEMETRY.enabled
