"""The append-only JSON-lines log: one format for the checkpoint journal
and the verdict cache.

A log is a header line, then one record per line.  Every reader and
writer of either file goes through this module, so they all agree on
what a log holds:

* **The canonical line** (:func:`dumps`): sorted keys, compact
  separators, one newline.  The serial journal bytes are the reference
  every executor must reproduce, so there is exactly one way to write a
  line.
* **One parser** (:func:`parse`) over bytes.  The header is the first
  line; the records are the lines after it.  A line is complete when
  its newline is written: a final line without one is *torn* (a write
  in flight, or cut by a kill or the transport), whatever it holds.  A
  strict reader (a local file) raises :class:`CorruptLog` on a complete
  line that is not a JSON object; a lenient reader (a transport
  payload) stops there and reports the rest torn.
* **One identity check** (:func:`mismatch`): a format names the header
  keys that identify a log; a header that differs on one of them
  belongs to someone else.
* **One appender** (:func:`append`): it creates a log with its header,
  or reopens one after the identity check.  A torn tail (a torn header
  included) is truncated before the first append, so the next line
  never lands on a fragment.
* **One atomic rewrite** (:func:`rewrite`): temp file, fsync,
  ``os.replace``, directory fsync — a crash leaves the old log or the
  new one, never a hybrid.

Stdlib only: :mod:`repro.core`, :mod:`repro.recovery` and
:mod:`repro.fabric` all import it.
"""

import json
import os

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


class CorruptLog(ValueError):
    """A complete line of a strictly read log is not a JSON object."""

    def __init__(self, line: int):
        super().__init__(f"line {line} is not a JSON object")
        self.line = line


class ForeignLog(ValueError):
    """A log's header differs from the expected one on an identity key;
    the message says how (see :func:`mismatch`)."""


def dumps(record: dict) -> str:
    """The canonical line of ``record``, newline included."""
    return _ENCODER.encode(record) + "\n"


def parse(data: bytes, strict: bool = True):
    """Parse a log: ``(header, records, clean, torn)``.

    ``header`` is the first line's object (None when no complete line
    holds one) and ``records`` the objects of the complete lines after
    it; blank lines are skipped.  ``clean`` is the length of the longest
    prefix made of complete, parseable lines, and ``torn`` says bytes
    follow it.
    """
    header = None
    records = []
    clean = 0
    *lines, tail = data.split(b"\n")
    for number, line in enumerate(lines, start=1):
        if line.strip():
            try:
                entry = json.loads(line)
            except ValueError:
                entry = None
            if not isinstance(entry, dict):
                if strict:
                    raise CorruptLog(number)
                return header, records, clean, True
            if header is None:
                header = entry
            else:
                records.append(entry)
        clean += len(line) + 1
    return header, records, clean, bool(tail)


def read(path: str):
    """:func:`parse` the log file at ``path``, strictly."""
    with open(path, "rb") as stream:
        return parse(stream.read())


def mismatch(header: dict, expected: dict, identity) -> str:
    """How ``header`` differs from ``expected`` on the first of the
    ``identity`` keys where they differ; empty when they agree on all."""
    for key in identity:
        if header.get(key) != expected[key]:
            return f"has {key} {header.get(key)!r}, not {expected[key]!r}"
    return ""


def append(path: str, header: dict, identity, on_torn=None):
    """Open the log at ``path`` for appending: ``(stream, records,
    written)``.

    A missing or empty log, or one holding only a torn header, is
    (re)created with ``header``.  Otherwise the log is read strictly and
    its header must agree with ``header`` on every ``identity`` key, or
    :class:`ForeignLog` is raised with the file untouched.  A torn tail
    is truncated first (``on_torn(clean)`` is told), so the stream
    appends after the last complete line.  ``records`` are the records
    already in the log; ``written`` counts the bytes of a header this
    call wrote.  Flushing is the caller's cadence.
    """
    found, records, clean, torn = None, [], 0, False
    if os.path.exists(path):
        found, records, clean, torn = read(path)
    if found is not None:
        differs = mismatch(found, header, identity)
        if differs:
            raise ForeignLog(differs)
    if torn and on_torn is not None:
        on_torn(clean)
    if found is None:
        stream = open(path, "w", encoding="utf-8")
        line = dumps(header)
        stream.write(line)
        return stream, [], len(line)
    if torn:
        with open(path, "r+b") as repair:
            repair.truncate(clean)
            repair.flush()
            os.fsync(repair.fileno())
    return open(path, "a", encoding="utf-8"), records, 0


def rewrite(path: str, entries) -> None:
    """Atomically replace the log at ``path`` with the canonical lines
    of ``entries`` (its header first)."""
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as tmp:
        for entry in entries:
            tmp.write(dumps(entry))
        tmp.flush()
        os.fsync(tmp.fileno())
    os.replace(tmp_path, path)
    try:
        fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - unopenable directory
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync-less filesystems
        pass
    finally:
        os.close(fd)
