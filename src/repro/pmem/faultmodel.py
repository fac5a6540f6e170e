"""Adversarial fault models: what *else* a crash can do to the medium.

Mumak's headline design (paper, section 4.1) materialises exactly one
deterministic crash image per failure point: the program-order prefix of
the execution.  That model is graceful twice over — stores persist whole,
and the medium survives unharmed.  Real persistent memory is neither:

* **Torn writes** — the hardware guarantees failure atomicity only for
  aligned 8-byte units (:data:`~repro.pmem.constants.ATOMIC_WRITE_SIZE`).
  A larger store in flight at the failure point may persist any subset of
  its units.  The torn model tears, per failure point, stores whose
  durability was not yet *guaranteed* (no completed flush+fence covers
  them) at sub-cacheline granularity.
* **Dirty-line reordering** — the full Yat-style space
  (:func:`~repro.pmem.crashsim.enumerate_reordered_images`) is exponential
  in the number of concurrently dirty lines.  The reorder model draws a
  bounded, seeded sample of it, so a campaign can probe reorderings
  without the blowup.
* **Media errors** — power failure can leave uncorrectable (poisoned)
  lines and flipped bits behind.  The media model plants both on the
  recovered medium; reading a poisoned line raises
  :class:`~repro.errors.MediaError`, and the recovery oracle classifies a
  recovery that crashes on one separately from one that detects and
  degrades.

Everything is deterministic: every random choice is drawn from an RNG
derived by hashing ``(seed, failure-point seq, family, variant index)``,
so the same configuration always yields byte-identical crash images,
poison sets, and therefore findings.  That is the contract the
checkpoint/resume machinery and the reproducibility tests rely on.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

from repro.pmem.constants import (
    ATOMIC_WRITE_SIZE,
    CACHE_LINE_SIZE,
    cache_lines_spanned,
)
from repro.pmem.crashsim import apply_write, build_line_histories
from repro.pmem.events import MemoryEvent, Opcode
from repro.pmem.incremental import (
    ENGINE_IMAGE_INCREMENTAL,
    ENGINE_IMAGE_REPLAY,
    ImageEngineStats,
    IncrementalHistoryIndex,
    IncrementalImageEngine,
    MaterialisedImage,
    validate_image_engine,
)
from repro.pmem.machine import VOLATILE_BASE

#: Fault-model names (the CLI's ``--fault-model`` vocabulary).
MODEL_PREFIX = "prefix"
MODEL_TORN = "torn"
MODEL_REORDER = "reorder"
MODEL_ADVERSARIAL = "adversarial"

MODELS = (MODEL_PREFIX, MODEL_TORN, MODEL_REORDER, MODEL_ADVERSARIAL)

#: Variant families (the prefix of a variant id; ``variant_family``).
FAMILY_PREFIX = "prefix"
FAMILY_TORN = "torn"
FAMILY_REORDER = "reorder"
FAMILY_MEDIA = "media"

#: The variant id of the paper's graceful program-order-prefix crash.
VARIANT_PREFIX = "prefix"


def variant_family(variant: str) -> str:
    """``"torn:1"`` → ``"torn"``; ``"prefix"`` → ``"prefix"``."""
    return variant.split(":", 1)[0]


@dataclass(frozen=True)
class FaultModelConfig:
    """How crash images are materialised and how recovered media behave.

    ``model`` picks the base family; ``torn_writes``/``media_errors`` are
    additive toggles so e.g. ``model="reorder", media_errors=True`` probes
    both.  ``samples`` bounds the adversarial variants injected per
    failure point *per family*; ``seed`` drives every sampled choice.
    """

    model: str = MODEL_PREFIX
    torn_writes: bool = False
    media_errors: bool = False
    #: Adversarial variants per failure point per enabled family.
    samples: int = 2
    seed: int = 0
    #: Corruptions per media variant.
    media_bit_flips: int = 1
    media_poisoned_lines: int = 1

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(
                f"unknown fault model {self.model!r}; choose from {MODELS}"
            )
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")

    # ------------------------------------------------------------------ #

    @property
    def torn_enabled(self) -> bool:
        return self.torn_writes or self.model in (
            MODEL_TORN,
            MODEL_ADVERSARIAL,
        )

    @property
    def reorder_enabled(self) -> bool:
        return self.model in (MODEL_REORDER, MODEL_ADVERSARIAL)

    @property
    def media_enabled(self) -> bool:
        return self.media_errors or self.model == MODEL_ADVERSARIAL

    @property
    def is_adversarial(self) -> bool:
        """True when any family beyond the graceful prefix is enabled."""
        return self.torn_enabled or self.reorder_enabled or self.media_enabled

    def payload(self) -> dict:
        """Stable dict for campaign fingerprints (checkpoint identity)."""
        return {
            "model": self.model,
            "torn_writes": self.torn_enabled,
            "reorder": self.reorder_enabled,
            "media_errors": self.media_enabled,
            "samples": self.samples,
            "fault_seed": self.seed,
            "media_bit_flips": self.media_bit_flips,
            "media_poisoned_lines": self.media_poisoned_lines,
        }


@dataclass(frozen=True)
class CrashImage:
    """A materialised post-failure medium state.

    ``data`` is the byte contents; ``poisoned_lines`` the cache-line bases
    that fault on read (media model); ``variant`` the fault-model variant
    that produced it.
    """

    data: bytes
    poisoned_lines: Tuple[int, ...] = ()
    variant: str = VARIANT_PREFIX


def derive_rng(
    seed: int, fail_seq: int, family: str, index: int
) -> random.Random:
    """The deterministic RNG for one (failure point, family, variant).

    Hash-derived so neighbouring failure points get uncorrelated streams
    while two runs of the same campaign get identical ones.
    """
    digest = hashlib.sha256(
        f"{seed}:{fail_seq}:{family}:{index}".encode()
    ).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def _atomic_units(address: int, size: int) -> List[Tuple[int, int]]:
    """The aligned 8-byte units overlapped by ``[address, address+size)``.

    Returns ``(lo, hi)`` byte ranges clipped to the store; a torn write
    persists each unit independently.
    """
    units = []
    first = address & ~(ATOMIC_WRITE_SIZE - 1)
    cursor = first
    while cursor < address + size:
        lo = max(cursor, address)
        hi = min(cursor + ATOMIC_WRITE_SIZE, address + size)
        units.append((lo, hi))
        cursor += ATOMIC_WRITE_SIZE
    return units


class AdversarialImageFactory:
    """Plans and materialises adversarial crash-image variants.

    One factory serves one recorded execution (``initial`` + ``trace``).
    :meth:`plan` lists the variant ids to inject at a failure point;
    :meth:`materialise` builds the image for one id.  Both are pure
    functions of (config, trace, fail_seq, variant id) — the same id
    always materialises to the same bytes, which is what lets a resumed
    campaign skip completed variants safely.
    """

    def __init__(
        self,
        config: FaultModelConfig,
        initial: bytes,
        trace: Sequence[MemoryEvent],
        image_engine: str = ENGINE_IMAGE_REPLAY,
        stats: Optional[ImageEngineStats] = None,
    ):
        self.config = config
        self._initial = initial
        self._trace = trace
        #: ``"replay"`` recomputes per failure point (the differential
        #: reference); ``"incremental"`` serves every family from one
        #: shared :class:`~repro.pmem.incremental.IncrementalHistoryIndex`
        #: pass plus an :class:`IncrementalImageEngine` for prefix bases.
        self.image_engine = validate_image_engine(image_engine)
        self.stats = stats
        self._index: Optional[IncrementalHistoryIndex] = None
        self._engine: Optional[IncrementalImageEngine] = None
        #: Memoised per-failure-point analysis (campaigns visit failure
        #: points in order, so a size-1 cache hits almost always).
        self._cache_seq: Optional[int] = None
        self._cache_candidates: List[MemoryEvent] = []
        self._cache_cuts: List[Tuple[int, List[int]]] = []
        self._cache_written_lines: List[int] = []

    # ------------------------------------------------------------------ #
    # engine dispatch (replay reference vs shared incremental pass)
    # ------------------------------------------------------------------ #

    @property
    def _incremental(self) -> bool:
        return self.image_engine == ENGINE_IMAGE_INCREMENTAL

    def _hist_index(self) -> IncrementalHistoryIndex:
        """The one shared history pass (built lazily, exactly once)."""
        if self._index is None:
            self._index = IncrementalHistoryIndex(
                self._trace, len(self._initial)
            )
            if self.stats is not None:
                self.stats.history_passes += 1
        return self._index

    def _torn_candidates(self, fail_seq: int) -> Sequence[MemoryEvent]:
        if self._incremental:
            return self._hist_index().torn_candidates_at(fail_seq)
        self._analyse(fail_seq)
        return self._cache_candidates

    def _cut_counts(self, fail_seq: int):
        """Per-line candidate-cut counts, in cache-line-base order."""
        if self._incremental:
            return (
                view.cut_count()
                for view in self._hist_index().lines_at(fail_seq)
            )
        self._analyse(fail_seq)
        return (len(cuts) for _, cuts in self._cache_cuts)

    def _written_lines(self, fail_seq: int) -> Sequence[int]:
        if self._incremental:
            return self._hist_index().written_lines_at(fail_seq)
        self._analyse(fail_seq)
        return self._cache_written_lines

    # ------------------------------------------------------------------ #
    # per-failure-point analysis
    # ------------------------------------------------------------------ #

    def _analyse(self, fail_seq: int) -> None:
        if self._cache_seq == fail_seq:
            return
        histories = build_line_histories(self._trace, fail_seq)
        if self.stats is not None:
            self.stats.history_passes += 1
        # Torn candidates: multi-unit PM stores executed before the
        # failure point whose durability no completed flush+fence
        # guarantees yet.  Most recent first — the store in flight at the
        # crash is the most physically plausible victim.
        candidates: List[MemoryEvent] = []
        written: set = set()
        for event in self._trace:
            if event.seq >= fail_seq:
                break
            if not event.is_write or event.data is None:
                continue
            if event.address is None or event.address >= VOLATILE_BASE:
                continue
            for base in cache_lines_spanned(event.address, len(event.data)):
                if 0 <= base < len(self._initial):
                    written.add(base)
            if event.opcode is Opcode.RMW:
                continue  # hardware-atomic by definition
            if len(event.data) <= ATOMIC_WRITE_SIZE:
                continue
            guaranteed = True
            for base in cache_lines_spanned(event.address, len(event.data)):
                history = histories.get(base)
                if history is None or history.mandatory_seq < event.seq:
                    guaranteed = False
                    break
            if not guaranteed:
                candidates.append(event)
        candidates.reverse()
        self._cache_candidates = candidates
        self._cache_cuts = [
            (line.base, line.candidate_cut_seqs())
            for line in sorted(histories.values(), key=lambda h: h.base)
        ]
        self._cache_written_lines = sorted(written)
        self._cache_seq = fail_seq

    # ------------------------------------------------------------------ #
    # planning
    # ------------------------------------------------------------------ #

    def plan(self, fail_seq: int) -> List[str]:
        """Adversarial variant ids to inject at ``fail_seq``.

        The graceful ``"prefix"`` variant is *not* listed — the campaign
        always injects it first; these ride along after it.
        """
        config = self.config
        if not config.is_adversarial:
            return []
        variants: List[str] = []
        if config.torn_enabled and self._torn_candidates(fail_seq):
            variants.extend(
                f"{FAMILY_TORN}:{i}" for i in range(config.samples)
            )
        if config.reorder_enabled:
            space = 1
            for count in self._cut_counts(fail_seq):
                space *= count
                if space > config.samples:
                    break
            if space > 1:
                variants.extend(
                    f"{FAMILY_REORDER}:{i}"
                    for i in range(min(config.samples, space - 1))
                )
        if config.media_enabled and self._written_lines(fail_seq):
            variants.extend(
                f"{FAMILY_MEDIA}:{i}" for i in range(config.samples)
            )
        return variants

    # ------------------------------------------------------------------ #
    # materialisation
    # ------------------------------------------------------------------ #

    def materialise(
        self,
        fail_seq: int,
        variant: str,
        prefix_image: Union[bytes, MaterialisedImage, None] = None,
    ) -> Union[CrashImage, MaterialisedImage]:
        """Build the crash image for one variant id at ``fail_seq``.

        ``prefix_image`` is the graceful image at the same failure point.
        Torn, reorder and media variants are patches on it, each family
        derived once (:meth:`_patch_torn`, :meth:`_patch_reorder`,
        :meth:`_patch_media`):

        * a pooled :class:`~repro.pmem.incremental.MaterialisedImage` is
          patched in place and returned — the campaign's hot path, with
          no copy; the patched ranges and poison set ride on it, and the
          engine's next ``checkout`` reverts them;
        * bytes (or ``None``: the prefix is then recomputed) are copied
          once, patched, and returned as a :class:`CrashImage`.

        The replay reference (``image_engine="replay"``) rebuilds torn
        and reorder images from the trace instead.
        """
        family = variant_family(variant)
        if family == FAMILY_PREFIX:
            return CrashImage(
                data=(
                    prefix_image
                    if prefix_image is not None
                    else self._prefix(fail_seq)
                ),
                variant=VARIANT_PREFIX,
            )
        try:
            index = int(variant.split(":", 1)[1])
        except (IndexError, ValueError):
            raise ValueError(f"malformed variant id {variant!r}")
        rng = derive_rng(self.config.seed, fail_seq, family, index)
        if family == FAMILY_TORN:
            patch = self._patch_torn
            if not self._incremental:
                return self._materialise_torn(fail_seq, variant, index, rng)
        elif family == FAMILY_REORDER:
            patch = self._patch_reorder
            if not self._incremental:
                return self._materialise_reorder(fail_seq, variant, rng)
        elif family == FAMILY_MEDIA:
            patch = self._patch_media
        else:
            raise ValueError(f"unknown fault-model family {family!r}")
        if isinstance(prefix_image, MaterialisedImage):
            patch(prefix_image, fail_seq, index, rng)
            return prefix_image
        image = MaterialisedImage(
            bytearray(
                prefix_image if prefix_image is not None
                else self._prefix(fail_seq)
            ),
            fail_seq,
        )
        patch(image, fail_seq, index, rng)
        return CrashImage(
            bytes(image.pm_buffer),
            poisoned_lines=image.poisoned_lines,
            variant=variant,
        )

    def _prefix(self, fail_seq: int) -> bytes:
        if self._incremental:
            if self._engine is None:
                self._engine = IncrementalImageEngine(
                    self._initial, self._trace, stats=self.stats
                )
            return self._engine.image_at(fail_seq)
        image = bytearray(self._initial)
        for event in self._trace:
            if event.seq >= fail_seq:
                break
            if event.is_write:
                apply_write(image, event)
        if self.stats is not None:
            self.stats.images += 1
            self.stats.bytes_copied += len(image)
        return bytes(image)

    # -- torn writes --------------------------------------------------- #

    def _tear(
        self, fail_seq: int, index: int, rng: random.Random
    ) -> Optional[Tuple[MemoryEvent, List[Tuple[int, int]], int]]:
        """The torn variant's victim store, its atomic units, and the
        mask of units that persisted; ``None`` when nothing can tear."""
        candidates = self._torn_candidates(fail_seq)
        if not candidates:
            # Planned against a different analysis?  Degenerate safely.
            return None
        victim = candidates[index % len(candidates)]
        units = _atomic_units(victim.address, len(victim.data))
        if len(units) < 2:  # pragma: no cover - candidates are multi-unit
            return None
        # A proper, non-empty subset of units persisted: the tear.
        mask = rng.getrandbits(len(units))
        full = (1 << len(units)) - 1
        while mask == 0 or mask == full:
            mask = rng.getrandbits(len(units))
        return victim, units, mask

    def _materialise_torn(
        self,
        fail_seq: int,
        variant: str,
        index: int,
        rng: random.Random,
    ) -> CrashImage:
        """The replay reference: re-apply the trace, skipping the
        victim's unpersisted units."""
        tear = self._tear(fail_seq, index, rng)
        if tear is None:
            return CrashImage(self._prefix(fail_seq), variant=variant)
        victim, units, mask = tear
        image = bytearray(self._initial)
        for event in self._trace:
            if event.seq >= fail_seq:
                break
            if not event.is_write:
                continue
            if event.seq == victim.seq:
                for bit, (lo, hi) in enumerate(units):
                    if mask & (1 << bit):
                        image[lo:hi] = victim.data[
                            lo - victim.address:hi - victim.address
                        ]
                continue
            apply_write(image, event)
        return CrashImage(bytes(image), variant=variant)

    def _patch_torn(
        self,
        image: MaterialisedImage,
        fail_seq: int,
        index: int,
        rng: random.Random,
    ) -> None:
        """Tear the victim store on a buffer holding the prefix image.

        Equivalence to the replay loop (which skips the victim's
        unmasked units while re-applying the whole trace): every byte
        outside the victim, and every *persisted* unit, already equals
        the prefix image — the victim applied whole at its program-order
        position followed by the same later writes.  Each non-persisted
        unit is recomputed last-writer-wins from the initial bytes plus
        every other store that touched it before ``fail_seq`` (the
        line-history index holds them in trace order).  An aligned
        8-byte unit never crosses a cache-line boundary, so one line
        record covers each unit.
        """
        tear = self._tear(fail_seq, index, rng)
        if tear is None:
            return
        victim, units, mask = tear
        buffer = image.pm_buffer
        hist = self._hist_index()
        initial = self._initial
        for bit, (lo, hi) in enumerate(units):
            if mask & (1 << bit):
                continue
            image.patched(lo, hi - lo)
            buffer[lo:hi] = initial[lo:hi]
            base = lo & ~(CACHE_LINE_SIZE - 1)
            view = hist.line_at(base, fail_seq)
            if view is None:  # pragma: no cover - victim store is recorded
                continue
            for seq, offset, data in view.stores_until(fail_seq):
                if seq == victim.seq:
                    continue
                s_lo = base + offset
                s_hi = s_lo + len(data)
                a = max(s_lo, lo)
                b = min(s_hi, hi)
                if a < b:
                    buffer[a:b] = data[a - s_lo:b - s_lo]

    # -- dirty-line reordering sampling -------------------------------- #

    @staticmethod
    def _sample_cuts(lines, rng: random.Random) -> List[Tuple]:
        """Draw one candidate cut per line: ``(line, cut seq, latest)``.

        ``latest`` marks a line left at its newest cut, where it holds
        the prefix image's bytes.
        """
        cuts = [line.candidate_cut_seqs() for line in lines]
        choices = [rng.randrange(len(line_cuts)) for line_cuts in cuts]
        movable = [
            i for i, line_cuts in enumerate(cuts) if len(line_cuts) > 1
        ]
        if movable and all(
            choice == len(line_cuts) - 1
            for choice, line_cuts in zip(choices, cuts)
        ):
            # All-latest is (up to NT-store detail) the prefix image;
            # hold one movable line back at its mandatory frontier so the
            # sample genuinely reorders.
            choices[movable[rng.randrange(len(movable))]] = 0
        return [
            (line, line_cuts[choice], choice == len(line_cuts) - 1)
            for line, line_cuts, choice in zip(lines, cuts, choices)
        ]

    def _materialise_reorder(
        self, fail_seq: int, variant: str, rng: random.Random
    ) -> CrashImage:
        """The replay reference: render every line from the initial
        image."""
        # Rendering needs per-line store data, not just the memoised
        # cut lists, so the histories are recomputed here.
        histories = build_line_histories(self._trace, fail_seq)
        if self.stats is not None:
            self.stats.history_passes += 1
        lines = sorted(histories.values(), key=lambda h: h.base)
        image = bytearray(self._initial)
        for line, cut, _ in self._sample_cuts(lines, rng):
            line.render(image, cut)
        return CrashImage(bytes(image), variant=variant)

    def _patch_reorder(
        self,
        image: MaterialisedImage,
        fail_seq: int,
        index: int,
        rng: random.Random,
    ) -> None:
        """Render the sampled cuts on a buffer holding the prefix image.

        A line at its latest cut already holds the prefix bytes; every
        other line is reset to its initial bytes and rendered to its cut
        (the shared index serves render-ready per-line views).
        """
        buffer = image.pm_buffer
        initial = self._initial
        size = len(buffer)
        lines = self._hist_index().lines_at(fail_seq)
        for line, cut, latest in self._sample_cuts(lines, rng):
            if latest:
                continue
            base = line.base
            end = min(base + CACHE_LINE_SIZE, size)
            image.patched(base, end - base)
            buffer[base:end] = initial[base:end]
            line.render(buffer, cut)

    # -- media errors --------------------------------------------------- #

    def _patch_media(
        self,
        image: MaterialisedImage,
        fail_seq: int,
        index: int,
        rng: random.Random,
    ) -> None:
        """Poison lines and flip bits on a buffer holding the prefix
        image (both engines: the media model is a patch by nature)."""
        written = list(self._written_lines(fail_seq))
        if not written:
            return
        buffer = image.pm_buffer
        poisoned: List[int] = []
        n_poison = min(self.config.media_poisoned_lines, len(written))
        if n_poison > 0:
            poisoned = sorted(rng.sample(written, n_poison))
        flippable = [base for base in written if base not in poisoned]
        for _ in range(self.config.media_bit_flips):
            if not flippable:
                break
            base = flippable[rng.randrange(len(flippable))]
            offset = rng.randrange(CACHE_LINE_SIZE)
            bit = rng.randrange(8)
            address = base + offset
            if address < len(buffer):
                image.patched(address, 1)
                buffer[address] ^= 1 << bit
        image.poisoned_lines = tuple(poisoned)
