"""Content-addressed crash-image digests.

The digest is the cache key for recovery verdicts, so everything that
can change the *outcome* of a recovery run must be bound into it:

* the canonical persisted bytes of the crash image;
* the post-crash poison set (a media-error image with the same bytes
  but poisoned lines recovers differently);
* the fault-model **family** of the variant (``prefix`` / ``torn`` /
  ``reorder`` / ``media``).  Two torn samples that happen to produce
  identical bytes may share a verdict, but a torn image may never alias
  a prefix one even under byte collision of the label-free key — the
  family is part of the preimage, not a heuristic;
* a *recovery scope* — target name plus the oracle budget config
  (timeout, step budget).  A verdict recorded under a 1-step budget
  must not be replayed for a campaign with a generous one.

What is deliberately **not** bound: the image engine (incremental vs
replay produce byte-identical images — PR 3's differential contract),
the worker id, and the failure point's call stack (the whole point of
dedup is that distinct failure points collapse onto one image).
"""

import hashlib

from repro.pmem.events import STORES
from repro.pmem.faultmodel import VARIANT_PREFIX, variant_family
from repro.pmem.machine import CACHE_LINE_SIZE, VOLATILE_BASE

#: Bumped if the preimage layout changes; mixed into the scope so stale
#: persisted caches are dropped rather than misread.
DIGEST_VERSION = 1


def recovery_scope(payload: dict) -> str:
    """Collapse the recovery-relevant config into a short scope id.

    ``payload`` holds whatever the caller deems outcome-relevant
    (target name, timeout, step budget...).  Keys are sorted so dict
    construction order can't split the scope.
    """
    items = "\x1f".join(
        f"{key}={payload[key]!r}" for key in sorted(payload)
    )
    preimage = f"recovery-scope:v{DIGEST_VERSION}:{items}"
    return hashlib.sha256(preimage.encode("utf-8")).hexdigest()[:16]


def persisted_write_extent(events):
    """The ``(start, stop)`` byte range the persisted writes in
    ``events`` cover, or ``None`` when nothing persists.

    Every crash image of the campaign — prefix, torn, reorder, media —
    differs from the pristine pool only inside this range, so the
    digester can bound its hashing to it.  The range is aligned out to
    cache-line boundaries because adversarial mutations (torn/reorder
    cuts, media bit flips) operate on whole *written lines*: a flip can
    land anywhere in a line whose write covered only its first bytes.
    Passing every run's events at once gives the union extent a
    multi-run campaign must share, or equal images from two runs would
    hash different byte ranges.
    """
    start = None
    stop = None
    for event in events:
        if (
            event.opcode in STORES
            and event.data is not None
            and event.address is not None
            and event.address < VOLATILE_BASE
        ):
            end = event.address + len(event.data)
            if start is None or event.address < start:
                start = event.address
            if stop is None or end > stop:
                stop = end
    if start is None:
        return None
    start -= start % CACHE_LINE_SIZE
    stop += -stop % CACHE_LINE_SIZE
    return (start, stop)


class ImageDigester:
    """Digest crash images under one recovery scope.

    ``extent`` is the optional ``(start, stop)`` byte range the campaign's
    persisted writes cover.  Every crash image of a trace campaign is
    *the pristine pool plus a subset/mutation of the traced persisted
    writes* — prefix images by construction, torn/reorder cuts and media
    bit flips because they only ever touch written lines
    (:mod:`repro.pmem.faultmodel`) — so all images are byte-identical
    outside the extent and hashing it would only burn time: a 32 MiB
    pool with a 100 KiB working set costs a full-pool hash per injection
    otherwise, which dwarfs the recovery work the cache is saving.  The
    extent itself is bound into the preimage so differently-shaped
    campaigns can never alias.  ``None`` means hash the full buffer (the
    trace-free replay engine takes this path).
    """

    def __init__(self, scope: str, extent=None):
        self.scope = scope
        self.extent = extent
        # Pre-hash the scope prefix once; copies are cheap.
        seed = hashlib.sha256()
        seed.update(b"mumak-verdict:v%d:" % DIGEST_VERSION)
        seed.update(scope.encode("ascii"))
        if extent is None:
            seed.update(b":extent=full")
        else:
            seed.update(b":extent=%d-%d" % (extent[0], extent[1]))
        self._seed = seed

    def digest(self, data, poisoned_lines=(), variant=VARIANT_PREFIX):
        """Hex digest for one crash image.

        ``data`` may be ``bytes``/``bytearray``/``memoryview`` or any
        object exposing a ``pm_buffer`` (a pooled
        :class:`~repro.pmem.incremental.MaterialisedImage`), hashed
        zero-copy through a memoryview.
        """
        buffer = getattr(data, "pm_buffer", data)
        hasher = self._seed.copy()
        hasher.update(variant_family(variant).encode("ascii"))
        hasher.update(b"\x1f")
        for line in sorted(poisoned_lines):
            hasher.update(b"%d," % line)
        hasher.update(b"\x1f")
        with memoryview(buffer) as view:
            if self.extent is None:
                hasher.update(view)
            else:
                hasher.update(view[self.extent[0]:self.extent[1]])
        return hasher.hexdigest()
