"""Process-wide metrics registry (counters, gauges, histograms).

The registry is the single home for the numeric telemetry that used to be
scattered across ad-hoc dataclasses (``ResourceUsage``'s phase/detail
maps, the incremental engine's pool/copy counters, the harness
retry/quarantine stats).  Those dataclasses remain the *source of truth*
for their subsystems — the registry **absorbs** them (see the
``publish``/``absorb_*`` bridges) so every number is queryable and
exportable through one interface.

Design constraints, inherited from the campaign's determinism contract:

* **dependency-free** — stdlib only, like everything else in the repo;
* **deterministic iteration** — metrics are keyed by ``(name, sorted
  label items)`` and every snapshot/export walks them in sorted order, so
  two identical campaigns render byte-identical Prometheus/JSON output
  (timestamps and durations aside);
* **mergeable** — registries recorded apart (one per shard process,
  say) fold into one with :meth:`MetricsRegistry.merge`;
* **fixed log-scale histogram buckets** — the bucket boundaries are a
  constant of the format (half-decade steps from 1 µs to 10 ks), never
  derived from the data, so histograms from different runs, workers, and
  versions are always mergeable and comparable.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

#: Fixed log-scale histogram bucket upper bounds, in seconds: half-decade
#: steps covering 1 µs .. 10 000 s.  A constant of the telemetry format.
LOG_BUCKET_BOUNDS: Tuple[float, ...] = tuple(
    10.0 ** (k / 2.0) for k in range(-12, 9)
)

LabelItems = Tuple[Tuple[str, str], ...]
MetricKey = Tuple[str, LabelItems]


def _label_items(labels: Dict[str, object]) -> LabelItems:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (merge = sum)."""

    kind = "counter"
    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount

    def merge(self, other: "Counter") -> None:
        self.value += other.value

    def as_dict(self) -> dict:
        return {"value": self.value}


class Gauge:
    """Last-observed value (merge = keep the maximum, documented)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "_set")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._set = False

    def set(self, value: float) -> None:
        self.value = float(value)
        self._set = True

    def add(self, amount: float) -> None:
        self.value += amount
        self._set = True

    def merge(self, other: "Gauge") -> None:
        # Worker gauges describe the same quantity observed per worker;
        # the supervisor keeps the peak (gauges that should sum are
        # counters in disguise — model them as counters).
        if other._set and (not self._set or other.value > self.value):
            self.value = other.value
            self._set = True

    def as_dict(self) -> dict:
        return {"value": self.value}


class Histogram:
    """Fixed-bucket log-scale histogram of observations (seconds).

    ``bucket_counts[i]`` counts observations ``<= LOG_BUCKET_BOUNDS[i]``
    (cumulative counting is left to the exporter); the final slot counts
    overflows (+Inf bucket).  ``sum``/``count``/``min``/``max`` are exact.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bucket_counts", "count", "sum",
                 "min", "max")

    def __init__(self, name: str, labels: LabelItems = ()):
        self.name = name
        self.labels = labels
        self.bucket_counts: List[int] = [0] * (len(LOG_BUCKET_BOUNDS) + 1)
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(LOG_BUCKET_BOUNDS):
            if value <= bound:
                self.bucket_counts[i] += 1
                return
        self.bucket_counts[-1] += 1

    def merge(self, other: "Histogram") -> None:
        for i, n in enumerate(other.bucket_counts):
            self.bucket_counts[i] += n
        self.count += other.count
        self.sum += other.sum
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max

    def quantile(self, q: float) -> Optional[float]:
        """Bucket-resolution quantile estimate (upper bound of the bucket
        containing the q-th observation); exact ``max`` for q >= 1."""
        if self.count == 0:
            return None
        if q >= 1.0:
            return self.max
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.bucket_counts):
            seen += n
            if seen >= target and n > 0:
                if i < len(LOG_BUCKET_BOUNDS):
                    return LOG_BUCKET_BOUNDS[i]
                return self.max
        return self.max

    def as_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "buckets": list(self.bucket_counts),
        }


class MetricsRegistry:
    """Get-or-create registry of named, labelled metrics.

    Not locked: in-process injection is serial, so one registry belongs
    to one process; :meth:`merge` folds another process's registry in.
    """

    def __init__(self):
        self._metrics: Dict[MetricKey, object] = {}

    # -- get-or-create -------------------------------------------------- #

    def _get(self, cls, name: str, labels: Dict[str, object]):
        key = (name, _label_items(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._metrics[key] = cls(name, key[1])
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get(Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get(Histogram, name, labels)

    # -- queries -------------------------------------------------------- #

    def __iter__(self) -> Iterator[object]:
        """Metrics in deterministic (name, labels) order."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def __len__(self) -> int:
        return len(self._metrics)

    def find(self, name: str, **label_subset) -> List[object]:
        """All metrics called ``name`` whose labels include the subset."""
        want = set(_label_items(label_subset))
        return [
            m for m in self
            if m.name == name and want.issubset(set(m.labels))
        ]

    def total(self, name: str, **label_subset) -> float:
        """Aggregate across matching metrics: counter/gauge values sum,
        histogram sums sum.  The cross-label rollup used e.g. to compare
        the registry's materialise/recovery split with the hand-threaded
        campaign timers."""
        acc = 0.0
        for metric in self.find(name, **label_subset):
            acc += metric.sum if isinstance(metric, Histogram) else metric.value
        return acc

    def count(self, name: str, **label_subset) -> float:
        """Aggregate observation/event count across matching metrics."""
        acc = 0.0
        for metric in self.find(name, **label_subset):
            acc += (
                metric.count if isinstance(metric, Histogram)
                else metric.value
            )
        return acc

    # -- merge + snapshot ----------------------------------------------- #

    def merge(self, other: "MetricsRegistry") -> None:
        for key, metric in sorted(other._metrics.items()):
            mine = self._metrics.get(key)
            if mine is None:
                mine = self._metrics[key] = type(metric)(metric.name, key[1])
            elif type(mine) is not type(metric):
                raise TypeError(
                    f"cannot merge {metric.kind} into {mine.kind} "
                    f"for metric {metric.name!r}"
                )
            mine.merge(metric)

    def snapshot(self) -> List[dict]:
        """JSON-ready list of every metric, deterministic order."""
        out = []
        for metric in self:
            entry = {
                "name": metric.name,
                "kind": metric.kind,
                "labels": dict(metric.labels),
            }
            entry.update(metric.as_dict())
            out.append(entry)
        return out


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "LOG_BUCKET_BOUNDS",
    "MetricsRegistry",
]
