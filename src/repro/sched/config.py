"""Configuration for concurrency-aware campaigns (``--sched``).

The CLI grammar is a comma-separated key=value spec::

    --sched threads=2,seed=7,samples=4

* ``threads``  — number of application threads to schedule (1–4; the
  simsched-style coroutine scheduler keeps the state space honest at
  small thread counts, matching the exemplar's 2–4 thread demos).
* ``seed``     — base schedule seed; each sample derives its own RNG from
  it, so the whole campaign is replayable from one integer.
* ``samples``  — how many seeded interleavings to explore.  Sampling plus
  DPOR-style digest aliasing (equal persisted-write extents collapse to
  one verdict-cache entry) is what keeps the interleaving×crash-point
  product tractable.

The payload participates in the campaign fingerprint, so a checkpoint
written under one schedule seed is *refused* — not silently misread —
when resumed under another.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

MAX_THREADS = 4


@dataclass(frozen=True)
class SchedConfig:
    """Validated ``--sched`` parameters."""

    threads: int = 2
    seed: int = 0
    samples: int = 1

    def __post_init__(self):
        if not 1 <= self.threads <= MAX_THREADS:
            raise ValueError(
                f"sched threads must be in 1..{MAX_THREADS}, got {self.threads}"
            )
        if self.samples < 1:
            raise ValueError(f"sched samples must be >= 1, got {self.samples}")
        if self.seed < 0:
            raise ValueError(f"sched seed must be >= 0, got {self.seed}")

    @classmethod
    def parse(cls, spec: str) -> "SchedConfig":
        """Parse the CLI grammar ``threads=N,seed=S,samples=K``."""
        values: Dict[str, int] = {}
        if not spec.strip():
            raise ValueError(
                "empty --sched spec; expected threads=N[,seed=S][,samples=K]"
            )
        for part in spec.split(","):
            part = part.strip()
            if not part:
                raise ValueError(
                    f"empty component in --sched spec {spec!r}"
                )
            if "=" not in part:
                raise ValueError(
                    f"bad --sched component {part!r}; expected key=value"
                )
            key, _, raw = part.partition("=")
            key = key.strip()
            if key not in ("threads", "seed", "samples"):
                raise ValueError(
                    f"unknown --sched key {key!r}; "
                    "expected threads=, seed=, samples="
                )
            try:
                values[key] = int(raw.strip())
            except ValueError:
                raise ValueError(
                    f"--sched {key} must be an integer, got {raw.strip()!r}"
                ) from None
        return cls(**values)

    def payload(self) -> Dict[str, int]:
        """Fingerprint contribution — binds the schedule axis to resume."""
        return {
            "threads": self.threads,
            "seed": self.seed,
            "samples": self.samples,
        }

    def spec(self) -> str:
        """Render back to the CLI grammar (for resume hints)."""
        return f"threads={self.threads},seed={self.seed},samples={self.samples}"


def sched_from_payload(
    payload: Optional[Dict[str, int]]
) -> Optional[SchedConfig]:
    """The inverse of :meth:`SchedConfig.payload`, tolerating the
    scheduler being off (a fleet worker rebuilds its config with it)."""
    if payload is None:
        return None
    return SchedConfig(
        threads=int(payload["threads"]),
        seed=int(payload["seed"]),
        samples=int(payload["samples"]),
    )
