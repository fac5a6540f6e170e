"""Exception hierarchy shared across the repro package."""


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class PMemError(ReproError):
    """Base class for errors raised by the persistent-memory simulator."""


class OutOfBoundsError(PMemError):
    """An access touched memory outside the simulated pool."""

    def __init__(self, address: int, size: int, pool_size: int):
        super().__init__(
            f"access [{address}, {address + size}) outside pool of size {pool_size}"
        )
        self.address = address
        self.size = size
        self.pool_size = pool_size


class PoolError(PMemError):
    """Pool-level failure (bad header, wrong layout, double create...)."""


class MediaError(PMemError):
    """A read touched a poisoned (uncorrectable) region of the medium.

    Models hardware media errors on persistent memory: after a power
    failure, a line whose ECC can no longer be corrected is *poisoned* and
    every load from it machine-checks (the DAX analog is SIGBUS).  The
    adversarial fault model (:mod:`repro.pmem.faultmodel`) plants poisoned
    lines on recovered media; a recovery procedure that dereferences one
    without handling the fault crashes — a distinct robustness verdict
    from an ordinary recovery crash (see
    :attr:`repro.core.oracle.RecoveryStatus.MEDIA_ERROR`).

    Real hardware clears poison when the full line is rewritten without
    reading it first (``movdir64b`` / non-temporal stores); the simulated
    :class:`~repro.pmem.medium.Medium` mirrors that.
    """

    def __init__(self, address: int, size: int, line_base: int):
        super().__init__(
            f"read [{address}, {address + size}) hit poisoned line at "
            f"0x{line_base:x} (uncorrectable media error)"
        )
        self.address = address
        self.size = size
        self.line_base = line_base


class AllocationError(ReproError):
    """The persistent allocator could not satisfy a request."""


class TransactionError(ReproError):
    """Misuse of the transaction API (nesting, commit outside tx...)."""


class RecoveryError(ReproError):
    """Raised by an application's recovery procedure when the persistent
    state is inconsistent and cannot be repaired.

    Mumak's oracle (section 4.1 of the paper) treats a raised
    ``RecoveryError`` as the recovery procedure *reporting* the state as
    unrecoverable, which is a detected crash-consistency bug.
    """


class CrashInjected(ReproError):
    """Control-flow exception used by the fault injector to stop the target
    program at an injected failure point.

    It deliberately derives from ``ReproError`` so that target applications
    that catch their own exceptions do not accidentally swallow it; the
    injection engine is the only intended handler.
    """

    def __init__(self, sequence: int, message: str = ""):
        super().__init__(message or f"fault injected at instruction {sequence}")
        self.sequence = sequence


class StepBudgetExceeded(PMemError):
    """The machine executed more instructions than its configured budget.

    The hardened campaign runner (``repro.core.harness``) arms a per-run
    step budget before handing the machine to an untrusted recovery
    procedure; a runaway or infinite-looping recovery trips this instead
    of freezing the campaign.
    """

    def __init__(self, limit: int, message: str = ""):
        super().__init__(
            message or f"machine exceeded its step budget of {limit} instructions"
        )
        self.limit = limit


class WatchdogTimeout(ReproError):
    """A supervised call overran its wall-clock deadline.

    Raised *inside* the supervised code (via the machine deadline check or
    an asynchronous interrupt) so that the harness can classify the call as
    hung and keep the campaign alive.
    """

    def __init__(self, seconds: float = 0.0, message: str = ""):
        super().__init__(
            message or f"call exceeded its {seconds:.3f}s wall-clock deadline"
        )
        self.seconds = seconds


class ConfigError(ReproError, ValueError):
    """A config refused by the refusal table in :mod:`repro.core.pipeline`."""


class HarnessError(ReproError):
    """The hardened campaign runner itself failed (not the target)."""


class CheckpointError(HarnessError):
    """A campaign checkpoint could not be read, or does not match the
    campaign configuration it is being resumed into."""


class FabricError(HarnessError):
    """The multiprocess shard supervisor failed (not the target): a shard
    exceeded its respawn budget, or its journal cannot be trusted."""


class TransportError(HarnessError):
    """A fleet transport operation failed (I/O error, bad object name).

    Transport trouble is *infrastructure* trouble: it never invalidates
    campaign state.  Callers retry and, past their retry budget,
    degrade to local execution rather than corrupting or aborting the
    campaign."""


class TransportMissing(TransportError):
    """The requested transport object does not exist (yet)."""


class FleetError(FabricError):
    """The cross-host fleet supervisor failed in a way local fallback
    cannot absorb (e.g. a foreign-fingerprint campaign manifest)."""


class ToolError(ReproError):
    """A bug-detection tool failed in a way unrelated to the target."""
