"""The recovery-procedure consistency oracle (paper, section 4.1).

Mumak does not know application semantics; it asks the application itself.
The recovery procedure runs *uninstrumented* on the post-failure state:

* it returns → the state was recoverable, no bug at this failure point;
* it raises :class:`~repro.errors.RecoveryError` → it examined the state
  and reported it unrecoverable — a detected crash-consistency bug;
* it raises anything else → the recovery process itself crashed (the
  analog of a recovery segfault), also a bug, reported together with the
  recovery call trace for debugging.

The oracle is deliberately imperfect: if recovery fails to flag an
inconsistency, Mumak has a false negative — which is exactly the trade-off
the Level Hashing experiment in section 6.2 quantifies.

Because the recovery procedure is *untrusted black-box code*, the oracle is
hardened (the Pin implementation gets this for free from process
isolation; an in-process pipeline must build it):

* an optional **watchdog** (wall-clock deadline + machine step budget,
  armed on the booted machine) turns infinite loops and runaway
  executions into :attr:`RecoveryStatus.HUNG` /
  :attr:`RecoveryStatus.RESOURCE_EXHAUSTED` outcomes instead of freezing
  the campaign;
* **infrastructure errors** — ``MemoryError``/``RecursionError`` raised
  from tool code rather than from the target's own recovery logic — are
  classified :attr:`RecoveryStatus.INFRA_ERROR` (not a finding; the
  campaign harness retries and eventually quarantines them) instead of
  being mistaken for genuine target crashes;
* captured recovery call traces are **capped** (frame and byte limits) so
  deeply recursive crashes cannot bloat findings or checkpoints.
"""

from __future__ import annotations

import enum
import os
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from repro.errors import (
    MediaError,
    RecoveryError,
    StepBudgetExceeded,
    WatchdogTimeout,
)
from repro.instrument.backtrace import target_file_name
from repro.obs.spans import NULL_TELEMETRY
from repro.pmem.machine import PMachine

#: Caps applied to captured recovery call traces.
TRACE_FRAME_LIMIT = 16
TRACE_CHAR_LIMIT = 4096

#: Directories whose frames count as *tool* code for the purpose of
#: infrastructure-error classification (the targets live in ``apps``,
#: ``pmdk``, ``montage``... — crashes there are genuine findings).
_REPRO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_TOOL_DIRS = tuple(
    os.path.join(_REPRO_ROOT, d) + os.sep
    for d in ("core", "pmem", "instrument", "baselines")
)


class RecoveryStatus(enum.Enum):
    OK = "ok"
    REPORTED_UNRECOVERABLE = "reported_unrecoverable"
    CRASHED = "crashed"
    #: Recovery overran its wall-clock deadline (watchdog fired).
    HUNG = "hung"
    #: Recovery overran its machine step budget.
    RESOURCE_EXHAUSTED = "resource_exhausted"
    #: Recovery crashed on an unhandled uncorrectable media error
    #: (:class:`~repro.errors.MediaError`, the SIGBUS analog).  Distinct
    #: from :attr:`CRASHED`: a recovery procedure that dies on a poisoned
    #: line and one that detects the fault and degrades (skips, repairs,
    #: or reports the damaged region) earn different verdicts.
    MEDIA_ERROR = "media_error"
    #: The *tool* failed underneath recovery (retryable, never a finding).
    INFRA_ERROR = "infra_error"

    @property
    def is_bug(self) -> bool:
        return self not in (RecoveryStatus.OK, RecoveryStatus.INFRA_ERROR)

    @property
    def is_infrastructure(self) -> bool:
        return self is RecoveryStatus.INFRA_ERROR


@dataclass
class RecoveryOutcome:
    status: RecoveryStatus
    error: Optional[str] = None
    #: Recovery call trace, captured when recovery crashed abruptly
    #: (frame- and byte-capped; see :data:`TRACE_FRAME_LIMIT`).
    trace: Optional[str] = None
    #: Call-stack key of the failure point this recovery was probing —
    #: carried so quarantine records and checkpoints can identify the
    #: injection without the caller re-threading context.
    stack_key: Optional[Tuple[str, ...]] = None


def format_capped_trace(
    err: Optional[BaseException] = None,
    frame_limit: int = TRACE_FRAME_LIMIT,
    char_limit: int = TRACE_CHAR_LIMIT,
    target_only: bool = False,
) -> str:
    """Render ``err``'s traceback with hard frame *and* byte caps.

    One ``  at <file>:<line>:<function>`` line per frame, outermost
    first (the form of journal stacks, with file basenames only), then
    ``<ExcType>: <message>``.  No directory, source line or caret enters
    the text, so it is the same wherever the package is installed and
    under every Python version.  ``err`` defaults to the exception being
    handled.

    ``target_only`` drops the frames
    :func:`~repro.instrument.backtrace.capture_stack` drops (simulator
    and tool code), as Pin's filtered backtraces do: the recovery oracle
    reports a target's crash that way.  Containment layers report tool
    failures and keep every frame.

    ``frame_limit`` keeps the outermost rendered frames; it alone does
    not protect against pathological cases (a huge exception message),
    so the text is additionally truncated to ``char_limit``.  Edge cases
    are pinned down rather than incidental: negative limits are clamped
    to 0; a ``char_limit`` of 0 yields just the truncation marker; text
    exactly at the cap is returned unchanged (the marker only appears
    when characters were actually dropped).
    """
    frame_limit = max(0, frame_limit)
    char_limit = max(0, char_limit)
    if err is None:
        err = sys.exc_info()[1]
    lines = []
    tb = getattr(err, "__traceback__", None)
    while tb is not None and len(lines) < frame_limit:
        code = tb.tb_frame.f_code
        if target_only:
            name = target_file_name(code.co_filename)
        else:
            name = os.path.basename(code.co_filename)
        if name is not None:
            lines.append(f"  at {name}:{tb.tb_lineno}:{code.co_name}")
        tb = tb.tb_next
    kind, message = type(err).__name__, str(err)
    lines.append(f"{kind}: {message}" if message else kind)
    text = "\n".join(lines)
    if len(text) > char_limit:
        truncated = text[:char_limit]
        marker = "... [trace truncated]"
        text = truncated + "\n" + marker if truncated else marker
    return text


def _raised_in_tool_code(err: BaseException) -> bool:
    """True when the innermost frame of ``err`` lies in tool code.

    Used to split ``MemoryError``/``RecursionError``: raised from the
    target's own recovery logic they are genuine crashes; raised from the
    simulator/harness they are infrastructure trouble to retry.
    """
    tb = err.__traceback__
    filename = None
    while tb is not None:
        filename = tb.tb_frame.f_code.co_filename
        tb = tb.tb_next
    if filename is None:
        return True
    filename = os.path.abspath(filename)
    return any(filename.startswith(d) for d in _TOOL_DIRS)


def run_recovery(
    app_factory: Callable[[], Any],
    image: Any,
    timeout: Optional[float] = None,
    step_budget: Optional[int] = None,
    stack_key: Optional[Tuple[str, ...]] = None,
    poisoned_lines: Tuple[int, ...] = (),
    telemetry=NULL_TELEMETRY,
    machine_pool=None,
) -> RecoveryOutcome:
    """Boot the crash image and run the application's recovery procedure.

    ``image`` is raw bytes or a pooled
    :class:`~repro.pmem.incremental.MaterialisedImage`; the latter is
    adopted by the booted machine without copying (the snapshot-pool hot
    path — see :meth:`~repro.pmem.machine.PMachine.from_image`).

    ``timeout``/``step_budget`` arm the machine watchdog for the duration
    of the recovery; ``stack_key`` is threaded into the outcome for
    campaign bookkeeping.  ``poisoned_lines`` marks uncorrectable media
    errors on the recovered medium (the adversarial media model): loads
    touching them raise :class:`~repro.errors.MediaError`, and a recovery
    that lets one escape is classified
    :attr:`RecoveryStatus.MEDIA_ERROR`.  Errors raised while
    *constructing* the app or booting the image (before recovery runs)
    propagate to the caller — that is the containment layer's
    jurisdiction, not the oracle's.

    ``machine_pool`` (a
    :class:`~repro.recovery.MachineTemplatePool`) serves the machine by
    reset + image adoption instead of construction; the machine rejoins
    the pool on the way out, even when recovery raises — the next
    acquire fully resets it.
    """
    boot_start = time.perf_counter()
    app = app_factory()
    if machine_pool is not None:
        machine = machine_pool.acquire(image, poisoned_lines=poisoned_lines)
    else:
        machine = PMachine.from_image(image, poisoned_lines=poisoned_lines)
    if timeout is not None or step_budget is not None:
        deadline = None if timeout is None else time.monotonic() + timeout
        machine.arm_watchdog(step_limit=step_budget, deadline=deadline)
    # Observation-only: app construction + image boot, the machine-
    # construction share of the recovery side the ROADMAP's pooling
    # lever targets.
    telemetry.record_span(
        "campaign/injection/recovery/boot",
        time.perf_counter() - boot_start,
    )
    try:
        app.recover(machine)
    except RecoveryError as err:
        return RecoveryOutcome(
            RecoveryStatus.REPORTED_UNRECOVERABLE,
            error=str(err)[:TRACE_CHAR_LIMIT],
            stack_key=stack_key,
        )
    except StepBudgetExceeded as err:
        return RecoveryOutcome(
            RecoveryStatus.RESOURCE_EXHAUSTED,
            error=f"{type(err).__name__}: {err}",
            stack_key=stack_key,
        )
    except WatchdogTimeout as err:
        return RecoveryOutcome(
            RecoveryStatus.HUNG,
            error=f"{type(err).__name__}: {err}",
            stack_key=stack_key,
        )
    except MediaError as err:
        return RecoveryOutcome(
            RecoveryStatus.MEDIA_ERROR,
            error=f"{type(err).__name__}: {str(err)[:TRACE_CHAR_LIMIT]}",
            trace=format_capped_trace(err, target_only=True),
            stack_key=stack_key,
        )
    except (MemoryError, RecursionError) as err:
        if _raised_in_tool_code(err):
            return RecoveryOutcome(
                RecoveryStatus.INFRA_ERROR,
                error=f"{type(err).__name__}: {err}",
                trace=format_capped_trace(err),
                stack_key=stack_key,
            )
        return RecoveryOutcome(
            RecoveryStatus.CRASHED,
            error=f"{type(err).__name__}: {err}",
            trace=format_capped_trace(err, target_only=True),
            stack_key=stack_key,
        )
    except Exception as err:  # noqa: BLE001 - any target crash is a finding
        return RecoveryOutcome(
            RecoveryStatus.CRASHED,
            error=f"{type(err).__name__}: {str(err)[:TRACE_CHAR_LIMIT]}",
            trace=format_capped_trace(err, target_only=True),
            stack_key=stack_key,
        )
    finally:
        machine.arm_watchdog()  # disarm
        if machine_pool is not None:
            machine_pool.release(machine)
    return RecoveryOutcome(RecoveryStatus.OK, stack_key=stack_key)
