"""The injection hot path: incremental engine vs replay reference.

The tentpole claim (ISSUE: O(T²) → O(T)): the replay reference rebuilds
every crash image from scratch — O(T) per failure point, O(T²) per
campaign — while the incremental engine materialises consecutive images
in O(changed bytes) from one forward pass, hands the oracle pooled
copy-on-write buffers, and serves every fault-model family from a single
memoized history index.

This benchmark runs the *same campaign* under both ``--image-engine``
settings at three trace sizes, checks the findings are identical (the
differential contract), and emits ``BENCH_injection.json`` at the repo
root: per engine and size, campaign wall-clock, the materialise/recovery
split, images per second, and bytes copied.  That file seeds the perf
trajectory ROADMAP tracks.

The campaigns run with telemetry on, and the materialise/recovery split
in the payload is sourced from the **metrics registry** (the
``campaign/injection/*`` span histograms) rather than the hand-threaded
campaign timers — the benchmark asserts the two accountings agree within
tolerance, so the registry is a trustworthy substrate for the next perf
PRs.  Each campaign's run directory (``telemetry.jsonl`` +
``metrics.prom`` + ``metrics.json``) lands under
``benchmarks/results/obs/`` for CI to upload next to the JSON payload.

A final **overhead probe** re-runs the smallest campaign with telemetry
off and on (best-of-``OVERHEAD_REPS``) and records the ratio under
``telemetry_overhead`` in the payload: the observability layer must stay
cheap enough to leave enabled (≤ 10% on the quick bench scale — the
acceptance criterion).

Knobs:

* ``REPRO_SCALE=quick`` — smallest trace size only (the CI smoke tier);
* ``REPRO_PERF_GATE=0`` — report the speedup and telemetry overhead
  instead of asserting the ≥5x / ≤10% regression gates (CI boxes are
  noisy; the gates are for local runs and for the acceptance criteria).
"""

import json
import os
import pathlib
import time

from repro.apps.btree import BTree
from repro.core import Mumak, MumakConfig
from repro.pmem.incremental import (
    ENGINE_IMAGE_INCREMENTAL,
    ENGINE_IMAGE_REPLAY,
)
from repro.workloads import generate_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_injection.json"
OBS_DIR = pathlib.Path(__file__).resolve().parent / "results" / "obs"

SEED = 4
SIZES_BENCH = (60, 150, 300)
SIZES_QUICK = (60,)

#: The acceptance criterion: incremental must beat replay by at least
#: this factor on the largest benchmarked trace.
GATE_SPEEDUP = 5.0

#: Telemetry-overhead acceptance gate: campaign wall-clock with obs on
#: must stay within this factor of obs off (best-of-``OVERHEAD_REPS``).
OVERHEAD_GATE = 1.10
OVERHEAD_REPS = 5

#: Relative tolerance for registry-vs-timers agreement.  The span
#: histograms are fed the exact perf_counter deltas the campaign timers
#: accumulate, so any drift beyond float association order is a wiring
#: regression.
SPLIT_AGREEMENT_RTOL = 1e-6


def _factory():
    return BTree(bugs=(), spt=True)


def _registry_split(result, phase: str) -> float:
    """Read one side of the phase split off the metrics registry."""
    return result.telemetry.registry.total(
        "span_seconds", span=f"campaign/injection/{phase}"
    )


def _assert_close(registry_value: float, timer_value: float,
                  what: str) -> None:
    tolerance = SPLIT_AGREEMENT_RTOL * max(abs(timer_value), 1e-9)
    assert abs(registry_value - timer_value) <= tolerance, (
        f"{what}: registry says {registry_value!r}, campaign timers say "
        f"{timer_value!r}; the two accountings must agree"
    )


def _run_campaign(n_ops: int, engine: str):
    config = MumakConfig(
        seed=SEED,
        run_trace_analysis=False,
        image_engine=engine,
        obs_dir=str(OBS_DIR / f"{engine}-{n_ops}"),
    )
    workload = generate_workload(n_ops, seed=SEED)
    start = time.perf_counter()
    result = Mumak(config).analyze(_factory, workload)
    wall = time.perf_counter() - start
    stats = result.fault_injection.stats
    campaign = result.resources.phase_seconds["fault_injection"]
    # The split is *sourced from the registry*; the hand-threaded stats
    # timers are demoted to the cross-check.
    materialise = _registry_split(result, "materialise")
    recovery = _registry_split(result, "recovery")
    _assert_close(materialise, stats.materialise_seconds,
                  f"{engine}/{n_ops} materialise split")
    _assert_close(recovery, stats.recovery_seconds,
                  f"{engine}/{n_ops} recovery split")
    return result, {
        "campaign_seconds": round(campaign, 4),
        "wall_seconds": round(wall, 4),
        "materialise_seconds": round(materialise, 4),
        "recovery_seconds": round(recovery, 4),
        "images": stats.image.images,
        "images_per_second": round(
            stats.image.images / materialise, 1
        ) if materialise > 0 else None,
        "bytes_copied": stats.image.bytes_copied,
        "delta_bytes_applied": stats.image.delta_bytes_applied,
        "dirty_bytes_restored": stats.image.dirty_bytes_restored,
        "pool_hits": stats.image.pool_hits,
        "full_rebuilds": stats.image.full_rebuilds,
        "history_passes": stats.image.history_passes,
    }


def _campaign_seconds(n_ops: int, obs_enabled: bool) -> float:
    """One quick campaign's fault-injection wall-clock, obs on or off."""
    config = MumakConfig(
        seed=SEED,
        run_trace_analysis=False,
        image_engine=ENGINE_IMAGE_INCREMENTAL,
        obs_enabled=obs_enabled,
    )
    workload = generate_workload(n_ops, seed=SEED)
    result = Mumak(config).analyze(_factory, workload)
    return result.resources.phase_seconds["fault_injection"]


def _overhead_probe(n_ops: int) -> dict:
    """Best-of-N campaign wall-clock with telemetry off vs on.

    Best-of (not mean) because the quantity under test is the added
    *work*, not scheduler noise; both sides get the same treatment.
    """
    off = min(
        _campaign_seconds(n_ops, False) for _ in range(OVERHEAD_REPS)
    )
    on = min(
        _campaign_seconds(n_ops, True) for _ in range(OVERHEAD_REPS)
    )
    return {
        "n_ops": n_ops,
        "reps": OVERHEAD_REPS,
        "campaign_seconds_off": round(off, 4),
        "campaign_seconds_on": round(on, 4),
        "overhead": round(on / off, 4) if off > 0 else None,
        "gate": OVERHEAD_GATE,
    }


def _fingerprint(result):
    return [
        (f.variant, f.seq, f.stack, f.message, f.recovery_error)
        for f in result.report.findings
    ]


def test_injection_hotpath(record_result):
    quick = os.environ.get("REPRO_SCALE") == "quick"
    sizes = SIZES_QUICK if quick else SIZES_BENCH
    gate = os.environ.get("REPRO_PERF_GATE", "1") != "0"

    rows = []
    payload = {
        "benchmark": "injection_hotpath",
        "target": "btree (spt, bug-free)",
        "seed": SEED,
        "scale": "quick" if quick else "bench",
        "gate_speedup": GATE_SPEEDUP,
        "sizes": [],
    }
    for n_ops in sizes:
        replay_result, replay = _run_campaign(n_ops, ENGINE_IMAGE_REPLAY)
        incr_result, incremental = _run_campaign(
            n_ops, ENGINE_IMAGE_INCREMENTAL
        )
        # The benchmark is only meaningful if the engines agree.
        assert _fingerprint(replay_result) == _fingerprint(incr_result)
        speedup = (
            replay["campaign_seconds"] / incremental["campaign_seconds"]
            if incremental["campaign_seconds"] > 0
            else float("inf")
        )
        copy_reduction = (
            replay["bytes_copied"] / incremental["bytes_copied"]
            if incremental["bytes_copied"] > 0
            else float("inf")
        )
        stats = incr_result.fault_injection.stats
        payload["sizes"].append({
            "n_ops": n_ops,
            "trace_events": incr_result.trace_length,
            "failure_points": stats.unique_failure_points,
            "injections": stats.injections,
            "engines": {
                "replay": replay,
                "incremental": incremental,
            },
            "campaign_speedup": round(speedup, 1),
            "copy_reduction": round(copy_reduction, 1),
        })
        rows.append(
            f"{n_ops:6d} {incr_result.trace_length:8d} "
            f"{stats.unique_failure_points:6d} "
            f"{replay['campaign_seconds']:9.3f}s "
            f"{incremental['campaign_seconds']:9.3f}s "
            f"{speedup:7.1f}x {copy_reduction:9.1f}x"
        )

    overhead = _overhead_probe(sizes[0])
    payload["telemetry_overhead"] = overhead

    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    header = (
        f"{'ops':>6} {'events':>8} {'points':>6} "
        f"{'replay':>10} {'incremental':>10} {'speedup':>8} {'copies':>10}"
    )
    record_result(
        "injection_hotpath",
        "injection hot path (replay vs incremental)\n"
        + header + "\n" + "\n".join(rows)
        + f"\ntelemetry overhead at {overhead['n_ops']} ops "
        f"(best of {overhead['reps']}): "
        f"{overhead['campaign_seconds_off']:.3f}s off / "
        f"{overhead['campaign_seconds_on']:.3f}s on = "
        f"{overhead['overhead']:.3f}x"
        + f"\n-> {OUTPUT_PATH.name}",
    )

    largest = payload["sizes"][-1]
    if gate:
        assert largest["campaign_speedup"] >= GATE_SPEEDUP, (
            f"incremental engine is only {largest['campaign_speedup']}x "
            f"faster than replay at {largest['n_ops']} ops "
            f"(gate: {GATE_SPEEDUP}x); hot-path regression?"
        )
        assert overhead["overhead"] <= OVERHEAD_GATE, (
            f"telemetry-on campaign is {overhead['overhead']}x the "
            f"telemetry-off campaign at {overhead['n_ops']} ops "
            f"(gate: {OVERHEAD_GATE}x); the observability layer must "
            "stay observation-cheap"
        )
    # The asymptotic signature, independent of machine speed: replay
    # copies the full pool once per failure point, the incremental
    # engine the persisted-write extent once per pooled buffer.
    assert largest["copy_reduction"] > 10.0
