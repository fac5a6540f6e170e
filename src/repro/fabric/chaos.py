"""Built-in chaos mode: randomly kill shard workers mid-campaign.

Chaos is the fabric's proof obligation, not a toy: the acceptance test
for the shard supervisor is that a campaign whose workers are being
``SIGKILL``-ed at random still produces findings, report renders, and a
merged checkpoint journal byte-identical to the serial run.  The chaos
monkey injects exactly the failure the supervisor claims to tolerate.

The spec grammar (CLI ``--chaos``)::

    kill-worker=P[,seed=S][,max-kills=K]

``P`` is the per-progress-beat kill probability, ``S`` seeds the
monkey's private RNG (default 0), and ``K`` caps total kills (default
``2 * shards``, set by the supervisor when the spec leaves it unset) so
chaos cannot starve the campaign forever.

Kills are planned when a shard is spawned, not decided when its beats
arrive: :meth:`ChaosMonkey.plan` flips one coin per beat the spawn will
send while it still has work left, and the shard ``SIGKILL``s itself
right after sending the first beat whose coin landed.  So a planned kill
always lands, and always leaves work to requeue, however fast the shard
runs.

Determinism note: the *kill schedule* depends on the order in which
shards die and respawn, which is racy by nature — what is deterministic
(and asserted) is that the campaign's **output** does not depend on the
schedule at all.
"""

from __future__ import annotations

import dataclasses
import random
from typing import Optional


class ChaosSpecError(ValueError):
    """An unparsable ``--chaos`` specification."""


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """Parsed chaos-mode parameters."""

    kill_worker: float = 0.0
    seed: int = 0
    max_kills: Optional[int] = None

    @classmethod
    def parse(cls, spec: str) -> "ChaosConfig":
        """Parse a ``kill-worker=P[,seed=S][,max-kills=K]`` spec."""
        known = {"kill-worker": None, "seed": "0", "max-kills": None}
        for part in str(spec).split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in known:
                raise ChaosSpecError(
                    f"unknown chaos parameter {part!r}; expected "
                    "kill-worker=P[,seed=S][,max-kills=K]"
                )
            known[key] = value.strip()
        if known["kill-worker"] is None:
            raise ChaosSpecError(
                f"chaos spec {spec!r} is missing kill-worker=P"
            )
        try:
            probability = float(known["kill-worker"])
            seed = int(known["seed"])
            max_kills = (
                None if known["max-kills"] is None
                else int(known["max-kills"])
            )
        except ValueError as err:
            raise ChaosSpecError(f"bad chaos spec {spec!r}: {err}")
        if not 0.0 <= probability <= 1.0:
            raise ChaosSpecError(
                f"kill-worker probability must be in [0, 1], "
                f"got {probability}"
            )
        if max_kills is not None and max_kills < 0:
            raise ChaosSpecError("max-kills must be >= 0")
        return cls(
            kill_worker=probability, seed=seed, max_kills=max_kills
        )

    @property
    def enabled(self) -> bool:
        return self.kill_worker > 0


@dataclasses.dataclass(frozen=True)
class TransportChaosConfig:
    """Parsed ``--transport-chaos`` parameters.

    The spec grammar (all parts optional, at least one required)::

        drop=P,dup=P,torn=P,delay=MS,seed=S

    ``drop``/``dup``/``torn`` are per-upload probabilities of losing,
    double-delivering, and truncating a campaign-data upload; ``delay``
    adds a fixed latency (milliseconds) to every heartbeat upload; ``S``
    seeds the fault schedule (combined with the worker id, so each
    worker tears differently but reproducibly).
    """

    drop: float = 0.0
    dup: float = 0.0
    torn: float = 0.0
    delay_ms: float = 0.0
    seed: int = 0

    @classmethod
    def parse(cls, spec: str) -> "TransportChaosConfig":
        known = {"drop": "0", "dup": "0", "torn": "0", "delay": "0",
                 "seed": "0"}
        seen_any = False
        for part in str(spec).split(","):
            part = part.strip()
            if not part:
                continue
            key, sep, value = part.partition("=")
            key = key.strip()
            if not sep or key not in known:
                raise ChaosSpecError(
                    f"unknown transport-chaos parameter {part!r}; "
                    "expected drop=P,dup=P,torn=P,delay=MS,seed=S"
                )
            known[key] = value.strip()
            seen_any = True
        if not seen_any:
            raise ChaosSpecError(
                f"empty transport-chaos spec {spec!r}; expected "
                "drop=P,dup=P,torn=P,delay=MS,seed=S"
            )
        try:
            drop = float(known["drop"])
            dup = float(known["dup"])
            torn = float(known["torn"])
            delay_ms = float(known["delay"])
            seed = int(known["seed"])
        except ValueError as err:
            raise ChaosSpecError(f"bad transport-chaos spec {spec!r}: {err}")
        for name, probability in (("drop", drop), ("dup", dup),
                                  ("torn", torn)):
            if not 0.0 <= probability <= 1.0:
                raise ChaosSpecError(
                    f"transport-chaos {name} probability must be in "
                    f"[0, 1], got {probability}"
                )
        if delay_ms < 0:
            raise ChaosSpecError("transport-chaos delay must be >= 0")
        return cls(drop=drop, dup=dup, torn=torn, delay_ms=delay_ms,
                   seed=seed)

    @property
    def enabled(self) -> bool:
        return (
            self.drop > 0 or self.dup > 0 or self.torn > 0
            or self.delay_ms > 0
        )

    def spec(self) -> str:
        """Re-render as a spec string (published in the fleet manifest)."""
        return (
            f"drop={self.drop},dup={self.dup},torn={self.torn},"
            f"delay={self.delay_ms},seed={self.seed}"
        )


class ChaosMonkey:
    """The seeded coin-flipper the supervisor consults per spawn.

    ``max_kills`` bounds total mayhem so a high probability cannot kill
    every respawn forever; past the cap the monkey retires.
    """

    def __init__(self, config: ChaosConfig, max_kills: int):
        self.config = config
        self.max_kills = max_kills
        self.kills = 0
        self._rng = random.Random(config.seed)

    def should_kill(self) -> bool:
        """One biased coin flip; counts the kill when it lands."""
        if not self.config.enabled or self.kills >= self.max_kills:
            return False
        if self._rng.random() < self.config.kill_worker:
            self.kills += 1
            return True
        return False

    def plan(self, beats: int) -> Optional[int]:
        """The beat after which a spawn that will send ``beats`` progress
        beats kills itself, or None to let it finish.

        One coin flip per beat but the last, so a planned kill always
        leaves the spawn work to requeue; the first flip that lands is
        the kill.
        """
        for beat in range(1, beats):
            if self.should_kill():
                return beat
        return None


__all__ = [
    "ChaosConfig",
    "ChaosMonkey",
    "ChaosSpecError",
    "TransportChaosConfig",
]
