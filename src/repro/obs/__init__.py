"""``repro.obs`` — the campaign observability layer.

Dependency-free telemetry for the injection pipeline, in four pieces:

* :mod:`repro.obs.metrics` — the process-wide metrics registry
  (counters, gauges, fixed-log-bucket histograms) and the generic walk
  that merges and publishes dataclass records: the campaign record
  (``FaultInjectionStats``, which nests the image source's, recovery
  engine's and supervisors' records) reaches the registry once per
  campaign, each number under one name, and ``ResourceUsage`` adds the
  phase times and gauges;
* :mod:`repro.obs.spans` — hierarchical spans and the per-campaign JSONL
  event stream (every event: ``ts``/``span``/``seq``/``worker``),
  seq-stamped in a deterministic order at finalize;
* :mod:`repro.obs.heartbeat` — live progress heartbeats (fp/s, ETA,
  quarantine + HUNG counts), rendered by the CLI and recorded as events;
* :mod:`repro.obs.export` / :mod:`repro.obs.report` — Prometheus text
  and JSON snapshot exporters, the on-disk run-directory layout, and the
  ``mumak obs report`` phase-attribution renderer.

Telemetry is **observation-only**: with ``--obs`` on or off, findings,
campaign fingerprints, and checkpoint journals are byte-identical
(differential-tested).
"""

from repro.obs.export import (
    EVENTS_FILENAME,
    JSON_FILENAME,
    PROM_FILENAME,
    render_json,
    render_prometheus,
    write_run_dir,
)
from repro.obs.heartbeat import HeartbeatMonitor
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    LOG_BUCKET_BOUNDS,
    MetricsRegistry,
)
from repro.obs.report import render_phase_attribution, report_run
from repro.obs.spans import (
    EVENT_KINDS,
    EVENT_SCHEMA_FIELDS,
    NULL_TELEMETRY,
    NullTelemetry,
    SPAN_HISTOGRAM,
    Telemetry,
)

__all__ = [
    "Counter",
    "EVENTS_FILENAME",
    "EVENT_KINDS",
    "EVENT_SCHEMA_FIELDS",
    "Gauge",
    "HeartbeatMonitor",
    "Histogram",
    "JSON_FILENAME",
    "LOG_BUCKET_BOUNDS",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "PROM_FILENAME",
    "SPAN_HISTOGRAM",
    "Telemetry",
    "render_json",
    "render_phase_attribution",
    "render_prometheus",
    "report_run",
    "write_run_dir",
]
