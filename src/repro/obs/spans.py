"""Hierarchical spans and the campaign event stream.

A :class:`Telemetry` is one campaign's telemetry endpoint: a metrics
registry plus an append-only event stream.  Spans are hierarchical —
``obs.span("campaign")`` then ``obs.span("injection")`` yields the path
``campaign/injection``; a name containing ``/`` is absolute.  Every
closed span becomes one event and one observation in the
``span_seconds`` histogram (labelled by span path, worker, and — for
injection spans — fault-model variant), so the JSONL stream and the
registry always agree.

**Observation-only contract.**  Telemetry never feeds back into the
campaign: no control-flow branches on it, nothing it records enters
campaign fingerprints, findings, or checkpoint journals.  The
differential battery (``tests/core/test_obs_campaign.py``) holds a
telemetry-on run byte-identical to a telemetry-off run.

**Determinism.**  :meth:`Telemetry.finalize` stamps the global ``seq``
over the stream in a *deterministic total order*: events sort by
``(ts, local_seq)`` — ``ts`` is seconds since campaign start and
``local_seq`` is the append order, which breaks timestamp ties.

Every event carries the four schema-stable fields asserted by the fast
schema test: ``ts`` (float seconds since campaign start), ``span`` (the
hierarchical path), ``seq`` (global stamp, assigned at finalize),
``worker`` (int; 0 is the in-process campaign).  ``kind`` is one of
:data:`EVENT_KINDS`; span events add ``dur`` (seconds); free-form
attributes ride under ``attrs``.

When telemetry is off the code paths hold a :data:`NULL_TELEMETRY`
singleton whose every operation is a no-op — the overhead of a disabled
campaign is one attribute lookup per call site.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from repro.obs.metrics import MetricsRegistry

#: Required keys of every JSONL event (the stability contract).
EVENT_SCHEMA_FIELDS = ("ts", "span", "seq", "worker")

#: Known event kinds.
EVENT_KINDS = ("span", "point", "heartbeat")

#: Histogram fed by every closed span, labelled span/worker[/variant].
SPAN_HISTOGRAM = "span_seconds"


class _NullSpan:
    """Reusable no-op context manager."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class NullTelemetry:
    """The disabled endpoint: every operation is a no-op.

    A singleton (:data:`NULL_TELEMETRY`) threaded through the campaign by
    default so call sites never branch on ``if telemetry is not None``.
    """

    enabled = False
    worker = 0

    def span(self, name: str, **attrs):
        return _NULL_SPAN

    def record_span(self, name: str, seconds: float, **attrs) -> None:
        pass

    def event(self, span: str, kind: str = "point", **attrs) -> None:
        pass

    def counter(self, name: str, amount: float = 1.0, **labels) -> None:
        pass

    def gauge(self, name: str, value: float, **labels) -> None:
        pass

    def observe(self, name: str, value: float, **labels) -> None:
        pass

    def finalize(self) -> List[dict]:
        return []


NULL_TELEMETRY = NullTelemetry()


class _Span:
    """Context manager for one open span."""

    __slots__ = ("_telemetry", "_path", "_attrs", "_start")

    def __init__(self, telemetry: "Telemetry", path: str, attrs: dict):
        self._telemetry = telemetry
        self._path = path
        self._attrs = attrs

    def __enter__(self) -> "_Span":
        self._telemetry._stack.append(self._path)
        self._start = self._telemetry._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        elapsed = self._telemetry._clock() - self._start
        stack = self._telemetry._stack
        if stack and stack[-1] == self._path:
            stack.pop()
        attrs = dict(self._attrs)
        if exc_type is not None:
            attrs["error"] = exc_type.__name__
        self._telemetry._close_span(self._path, elapsed, attrs)
        return False


class Telemetry:
    """One campaign's telemetry endpoint (registry + event stream)."""

    enabled = True

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        worker: int = 0,
        clock=time.perf_counter,
    ):
        self.registry = registry if registry is not None else MetricsRegistry()
        self.worker = worker
        self._clock = clock
        #: Campaign epoch: every event's ``ts`` is relative to it.
        self._epoch = clock()
        self._events: List[dict] = []
        self._local_seq = 0
        self._stack: List[str] = []
        self._finalized: Optional[List[dict]] = None

    # -- span + event API ----------------------------------------------- #

    def _resolve(self, name: str) -> str:
        if "/" in name or not self._stack:
            return name
        return f"{self._stack[-1]}/{name}"

    def span(self, name: str, **attrs) -> _Span:
        """Open a hierarchical span; closing it records the event."""
        return _Span(self, self._resolve(name), attrs)

    def record_span(self, name: str, seconds: float, **attrs) -> None:
        """Record an already-measured span.

        Used where the caller has its own ``perf_counter`` delta (the
        harness's materialise/recovery accounting) so the registry and
        the hand-threaded timers see the *same* float — the agreement
        the hot-path benchmark asserts.
        """
        self._close_span(self._resolve(name), float(seconds), attrs)

    def _close_span(self, path: str, seconds: float, attrs: dict) -> None:
        self._append(path, "span", attrs, dur=seconds)
        labels = {"span": path, "worker": self.worker}
        if "variant" in attrs:
            labels["variant"] = attrs["variant"]
        self.registry.histogram(SPAN_HISTOGRAM, **labels).observe(seconds)

    def event(self, span: str, kind: str = "point", **attrs) -> None:
        """Record a durationless event (progress marks, heartbeats)."""
        self._append(self._resolve(span), kind, attrs)

    def _append(self, span, kind, attrs, dur=None) -> None:
        record = {
            "ts": round(self._clock() - self._epoch, 6),
            "span": span,
            "seq": None,  # stamped at finalize
            "worker": self.worker,
            "kind": kind,
            "_local": self._local_seq,
        }
        if dur is not None:
            record["dur"] = round(dur, 9)
        if attrs:
            record["attrs"] = attrs
        self._local_seq += 1
        self._events.append(record)

    # -- metrics passthrough -------------------------------------------- #

    def counter(self, name: str, amount: float = 1.0, **labels) -> None:
        self.registry.counter(name, **labels).inc(amount)

    def gauge(self, name: str, value: float, **labels) -> None:
        self.registry.gauge(name, **labels).set(value)

    def observe(self, name: str, value: float, **labels) -> None:
        self.registry.histogram(name, **labels).observe(value)

    def finalize(self) -> List[dict]:
        """Order the stream and stamp the global ``seq``.

        Deterministic total order: ``(ts, local_seq)``.  Safe to call
        more than once (idempotent after the first call).
        """
        if self._finalized is not None:
            return self._finalized
        # Snapshot: an abandoned watchdog thread may still be appending.
        merged: List[dict] = list(self._events)
        merged.sort(key=lambda e: (e["ts"], e["_local"]))
        for seq, record in enumerate(merged):
            record["seq"] = seq
            record.pop("_local", None)
        self._finalized = merged
        return merged

    @property
    def events(self) -> List[dict]:
        """The finalized event stream (finalizes on first access)."""
        return self.finalize()

    # -- serialisation --------------------------------------------------- #

    def events_jsonl(self) -> str:
        """The finalized event stream, one JSON object per line."""
        return "".join(
            json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
            for record in self.finalize()
        )


__all__ = [
    "EVENT_KINDS",
    "EVENT_SCHEMA_FIELDS",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "SPAN_HISTOGRAM",
    "Telemetry",
]
