"""Call-stack capture filtered to target-program frames.

Pin offers Mumak an API that "filters out the calls made to instrumentation
routines, thus showing only the relevant addresses that correspond to calls
made by the application under analysis" (paper, section 5).  This module is
that API for the simulated stack: it captures the live Python call stack,
drops every frame belonging to the simulator or to the analysis tools, and
truncates at the harness entry point, leaving only application and PM
library frames — the analog of the return addresses in the target binary.
"""

from __future__ import annotations

import os
import sys
from typing import Optional, Tuple

#: Function name that marks the boundary between the analysis harness and
#: the target program.  :func:`repro.instrument.runner.run_instrumented`
#: enters the target through a function with this name, so captured stacks
#: never leak harness frames.
TARGET_ENTRY = "__mumak_target_entry__"

_SEP = os.sep
#: Path fragments whose frames are instrumentation/simulator internals,
#: never part of the target program's own call path.
_EXCLUDED_FRAGMENTS = (
    f"{_SEP}repro{_SEP}pmem{_SEP}",
    f"{_SEP}repro{_SEP}instrument{_SEP}",
    f"{_SEP}repro{_SEP}core{_SEP}",
    f"{_SEP}repro{_SEP}baselines{_SEP}",
    f"{_SEP}repro{_SEP}experiments{_SEP}",
    f"{_SEP}repro{_SEP}sched{_SEP}",
    f"{_SEP}repro{_SEP}apps{_SEP}faults.py",
    f"{_SEP}repro{_SEP}apps{_SEP}threaded.py",
)


class _FileNames(dict):
    """``co_filename`` -> the basename its frames report, or None when
    they are dropped.  Each file is classified on first sight, so a frame
    costs one lookup."""

    def __missing__(self, filename: str) -> Optional[str]:
        excluded = any(f in filename for f in _EXCLUDED_FRAGMENTS)
        name = self[filename] = None if excluded else os.path.basename(filename)
        return name


_FILE_NAMES = _FileNames()


def target_file_name(filename: str) -> Optional[str]:
    """The basename a frame of ``filename`` reports in a captured stack,
    or None when the file is instrumentation or simulator code."""
    return _FILE_NAMES[filename]


def capture_stack(skip: int = 1) -> Tuple[str, ...]:
    """Capture the filtered call stack, outermost frame first.

    ``skip`` drops that many innermost frames (the caller's own plumbing).
    The walk stops at the :data:`TARGET_ENTRY` sentinel when present, so
    everything outside the instrumented run (pytest, the pipeline, the
    experiment harness) is invisible — mirroring how Pin's backtraces stop
    at the target binary's entry point.
    """
    frame = sys._getframe(skip)
    frames = []
    names = _FILE_NAMES
    while frame is not None:
        code = frame.f_code
        if code.co_name == TARGET_ENTRY:
            break
        name = names[code.co_filename]
        if name is not None:
            frames.append(f"{name}:{frame.f_lineno}:{code.co_name}")
        frame = frame.f_back
    frames.reverse()
    return tuple(frames)


def capture_site(skip: int = 1) -> str:
    """Just the innermost target frame (the 'instruction address')."""
    frame = sys._getframe(skip)
    while frame is not None:
        code = frame.f_code
        if code.co_name == TARGET_ENTRY:
            break
        name = _FILE_NAMES[code.co_filename]
        if name is not None:
            return f"{name}:{frame.f_lineno}:{code.co_name}"
        frame = frame.f_back
    return "<unknown>"


def format_stack(stack: Tuple[str, ...]) -> str:
    """Render a captured stack the way bug reports print it."""
    if not stack:
        return "  <no target frames>"
    return "\n".join(f"  at {frame}" for frame in stack)
