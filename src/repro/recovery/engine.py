"""The recovery engine facade the harness consumes.

:class:`RecoveryEngine` owns one campaign's (or one shard's) pieces —
one :class:`~repro.recovery.digest.ImageDigester`, one (optionally
persistent) :class:`~repro.recovery.cache.VerdictCache`, one
:class:`~repro.recovery.pool.MachineTemplatePool`, and the
:class:`RecoveryEngineStats` its hit/miss counters accumulate in.

The engine is config-gated at two independent levers
(:class:`RecoveryEngineConfig`): the verdict cache (``recovery_cache``)
and the machine pool (``machine_pool``).  With both off, the harness
runs without an engine.
"""

import dataclasses
import os

from repro.obs.spans import NULL_TELEMETRY
from repro.recovery.cache import VerdictCache, VerdictCacheError
from repro.recovery.digest import ImageDigester
from repro.recovery.pool import MachineTemplatePool

#: Suffix appended to the checkpoint path for the default cache file.
CACHE_SUFFIX = ".vcache"


@dataclasses.dataclass
class RecoveryEngineConfig:
    """Recovery-engine knobs, resolved from the CLI/pipeline layer.

    ``cache`` is the raw ``--recovery-cache`` value (``on`` / ``off`` /
    an explicit path); ``cache_path`` is the resolved persistence path
    (``None`` means in-memory only).  ``scope`` is the recovery scope
    id (:func:`~repro.recovery.digest.recovery_scope`) binding target
    and oracle budgets into every digest.
    """

    cache: str = "on"
    machine_pool: int = 1
    scope: str = ""
    cache_path: object = None

    @property
    def cache_enabled(self) -> bool:
        return self.cache != "off"

    @property
    def enabled(self) -> bool:
        return self.cache_enabled or self.machine_pool > 0

    @classmethod
    def resolve(cls, recovery_cache, machine_pool, scope, checkpoint_path):
        """Map raw config values onto an engine config.

        ``--recovery-cache on`` persists next to the checkpoint when
        checkpointing is active (so ``--resume`` skips re-verification)
        and stays in-memory otherwise; any value other than ``on`` /
        ``off`` is an explicit cache-file path.
        """
        cache = str(recovery_cache)
        cache_path = None
        if cache == "on":
            if checkpoint_path is not None:
                cache_path = str(checkpoint_path) + CACHE_SUFFIX
        elif cache != "off":
            cache_path = cache
            cache = "on"
        return cls(
            cache=cache,
            machine_pool=max(0, int(machine_pool)),
            scope=scope,
            cache_path=cache_path,
        )


@dataclasses.dataclass
class RecoveryEngineStats:
    """Counters the engine publishes (``recovery_engine_*``)."""

    cache_hits: int = 0
    cache_misses: int = 0
    cache_stored: int = 0
    cache_loaded: int = 0
    cache_bytes_written: int = 0
    pool_boots: int = 0
    pool_reuses: int = 0

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    def publish(self, registry):
        for name, value in sorted(self.as_dict().items()):
            registry.counter(f"recovery_engine_{name}").inc(value)


class RecoveryEngine:
    """Campaign-wide recovery caching/pooling coordinator.

    ``extent`` bounds digesting to the campaign's persisted-write extent
    (:func:`~repro.recovery.digest.persisted_write_extent`): all crash
    images agree outside it, so hashing pristine pool tail would cost
    full-pool time per injection for zero information.  Every engine of
    one campaign must get the same extent or digests stop aliasing.
    """

    def __init__(self, config, extent=None, telemetry=NULL_TELEMETRY):
        self.config = config
        self.telemetry = telemetry
        self.stats = RecoveryEngineStats()
        self.digester = ImageDigester(config.scope, extent=extent)
        self.cache = None
        if config.cache_enabled:
            self.cache = VerdictCache(config.scope, path=config.cache_path)
            self.stats.cache_loaded = self.cache.loaded
        self.pool = (
            MachineTemplatePool(config.machine_pool)
            if config.machine_pool > 0
            else None
        )

    @classmethod
    def for_slice(cls, config, extent, journal_path, donors=()):
        """The engine of one shard or fleet slice.

        Its verdict cache persists next to the slice journal
        (``<journal_path>.vcache``) and first adopts every verdict in
        the ``donors`` — cache file paths, or cache payloads (bytes)
        shipped over a fleet transport — leniently, so a donor torn in
        flight or by a kill yields its clean prefix.  A slice cache the
        campaign cannot use (another scope, corrupt mid-file) is an
        accelerator lost, never ground truth: it is rebuilt from scratch.
        """
        config = dataclasses.replace(
            config,
            cache_path=(
                journal_path + CACHE_SUFFIX if config.cache_enabled else None
            ),
        )
        try:
            engine = cls(config, extent=extent)
        except VerdictCacheError:
            os.remove(config.cache_path)
            engine = cls(config, extent=extent)
        if engine.cache is not None:
            for donor in donors:
                if not isinstance(donor, bytes):
                    try:
                        with open(donor, "rb") as fh:
                            donor = fh.read()
                    except OSError:
                        continue
                engine.cache.adopt(donor)
            engine.stats.cache_loaded = engine.cache.loaded
        return engine

    # -- the hot path -------------------------------------------------

    @property
    def caching(self) -> bool:
        return self.cache is not None

    def digest(self, image, poisoned_lines=(), variant=None):
        if variant is None:
            return self.digester.digest(image, poisoned_lines)
        return self.digester.digest(image, poisoned_lines, variant=variant)

    def lookup(self, digest):
        """Cached outcome record for ``digest`` (counts hit/miss)."""
        record = self.cache.lookup(digest)
        if record is None:
            self.stats.cache_misses += 1
        else:
            self.stats.cache_hits += 1
        return record

    def store(self, digest, outcome):
        return self.cache.store(digest, outcome)

    # -- lifecycle ----------------------------------------------------

    def collect_stats(self) -> RecoveryEngineStats:
        """The engine's stats, with the pool and cache totals filled in."""
        if self.pool is not None:
            self.stats.pool_boots = self.pool.boots
            self.stats.pool_reuses = self.pool.reuses
        if self.cache is not None:
            self.stats.cache_stored = len(self.cache) - self.stats.cache_loaded
            self.stats.cache_bytes_written = self.cache.bytes_written
        return self.stats

    def close(self) -> RecoveryEngineStats:
        stats = self.collect_stats()
        if self.cache is not None:
            self.cache.close()
        return stats

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
