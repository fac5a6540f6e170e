"""The recovery hot path: verdict cache + machine pool.

PR 3 made crash-image materialisation O(changed bytes); on
recovery-dominated targets the oracle is what's left of the campaign
wall-clock (PR 4's phase attribution puts ``recovery`` at ~80% on
rbtree).  The recovery engine attacks that share from two sides:
content-addressed verdict caching (identical images across failure
points, variants and *campaigns* verified once) and machine-template
pooling (recovery served by reset + image adoption instead of
construction).

This benchmark runs the same recovery-heavy campaign three ways at each
trace size:

* ``off``    — both engine levers disabled (the legacy path);
* ``cold``   — engine on, fresh persisted verdict cache: measures the
  engine's overhead and the in-campaign collision wins;
* ``warm``   — engine on, adopting the cache the cold leg persisted:
  the re-verification scenario (``--resume``, re-running a campaign
  after a harness change) where every verdict is a hit.

The differential contract is asserted before anything is timed: all
three legs report identical findings.  The payload lands in
``BENCH_recovery.json`` at the repo root; per-leg telemetry run dirs
(for ``mumak obs report``) land under ``benchmarks/results/obs/``.

Knobs (same protocol as ``test_injection_hotpath.py``):

* ``REPRO_SCALE=quick`` — smallest trace size only (CI smoke tier);
* ``REPRO_PERF_GATE=0`` — report the ≥2x warm-speedup gate instead of
  asserting it (shared CI runners are noisy; the gate is for local runs
  and the acceptance criteria).  The machine-speed-independent
  assertions — identical findings, every-warm-image-a-hit, pooled
  machines reused — always fail the job.
"""

import json
import os
import pathlib
import time

from repro.apps import APPLICATIONS
from repro.core import Mumak, MumakConfig
from repro.workloads import generate_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_recovery.json"
OBS_DIR = pathlib.Path(__file__).resolve().parent / "results" / "obs"

SEED = 4
SIZES_BENCH = (120, 240)
SIZES_QUICK = (120,)

#: The acceptance criterion: a warm verdict cache must cut the
#: recovery-dominated campaign's wall-clock by at least this factor.
GATE_SPEEDUP = 2.0

#: The target: rbtree's recovery walks the whole tree per injection, so
#: the oracle dominates the campaign (~80% share) — exactly the regime
#: the recovery engine exists for.  Dense candidate planning (no
#: store-required reduction) gives distinct failure points identical
#: prefix images for the verdict cache to alias.
TARGET = "rbtree"


def _factory():
    return APPLICATIONS[TARGET](bugs=set())


def _registry_total(result, span: str) -> float:
    return result.telemetry.registry.total(
        "span_seconds", span=f"campaign/injection/{span}"
    )


def _run_campaign(n_ops: int, leg: str, cache_path: str):
    levers = (
        dict(recovery_cache="off", machine_pool=0)
        if leg == "off"
        else dict(recovery_cache=cache_path)
    )
    config = MumakConfig(
        seed=SEED,
        run_trace_analysis=False,
        require_store_since_last=False,
        obs_dir=str(OBS_DIR / f"recovery-{leg}-{n_ops}"),
        **levers,
    )
    workload = generate_workload(n_ops, seed=SEED)
    start = time.perf_counter()
    result = Mumak(config).analyze(_factory, workload)
    wall = time.perf_counter() - start
    stats = result.fault_injection.stats
    campaign = result.resources.phase_seconds["fault_injection"]
    return result, {
        "campaign_seconds": round(campaign, 4),
        "wall_seconds": round(wall, 4),
        "materialise_seconds": round(
            _registry_total(result, "materialise"), 4
        ),
        "recovery_seconds": round(_registry_total(result, "recovery"), 4),
        "recovery_boot_seconds": round(
            _registry_total(result, "recovery/boot"), 4
        ),
        "cache_lookup_seconds": round(
            _registry_total(result, "recovery/cache"), 4
        ),
        "injections": stats.injections,
        "cache_hits": stats.recovery.cache_hits,
        "cache_misses": stats.recovery.cache_misses,
        "cache_loaded": stats.recovery.cache_loaded,
        "pool_boots": stats.recovery.pool_boots,
        "pool_reuses": stats.recovery.pool_reuses,
    }


def _fingerprint(result):
    return [
        (f.variant, f.seq, f.stack, f.message, f.recovery_error)
        for f in result.report.findings
    ]


def test_recovery_hotpath(record_result, tmp_path):
    quick = os.environ.get("REPRO_SCALE") == "quick"
    sizes = SIZES_QUICK if quick else SIZES_BENCH
    gate = os.environ.get("REPRO_PERF_GATE", "1") != "0"

    rows = []
    payload = {
        "benchmark": "recovery_hotpath",
        "target": f"{TARGET} (bug-free, dense candidates)",
        "seed": SEED,
        "scale": "quick" if quick else "bench",
        "gate_speedup": GATE_SPEEDUP,
        "sizes": [],
    }
    for n_ops in sizes:
        cache_path = str(tmp_path / f"verdicts-{n_ops}.vcache")
        off_result, off = _run_campaign(n_ops, "off", cache_path)
        cold_result, cold = _run_campaign(n_ops, "cold", cache_path)
        warm_result, warm = _run_campaign(n_ops, "warm", cache_path)

        # The benchmark is only meaningful if the engine is invisible
        # in the results: all three legs report the same findings.
        assert _fingerprint(off_result) == _fingerprint(cold_result)
        assert _fingerprint(off_result) == _fingerprint(warm_result)
        # The engine's own invariants, machine-speed independent:
        assert cold["cache_misses"] > 0 and cold["cache_loaded"] == 0
        assert cold["pool_reuses"] > 0
        assert warm["cache_loaded"] > 0
        assert warm["cache_hits"] > 0 and warm["cache_misses"] == 0
        # Pooled adoption + warm hits: boot time can only go down.
        assert (
            warm["recovery_boot_seconds"] <= off["recovery_boot_seconds"]
        )

        warm_speedup = (
            off["campaign_seconds"] / warm["campaign_seconds"]
            if warm["campaign_seconds"] > 0
            else float("inf")
        )
        cold_overhead = (
            cold["campaign_seconds"] / off["campaign_seconds"]
            if off["campaign_seconds"] > 0
            else None
        )
        payload["sizes"].append({
            "n_ops": n_ops,
            "trace_events": off_result.trace_length,
            "legs": {"off": off, "cold": cold, "warm": warm},
            "warm_speedup": round(warm_speedup, 2),
            "cold_overhead": round(cold_overhead, 3),
        })
        rows.append(
            f"{n_ops:6d} {off['injections']:5d} "
            f"{off['campaign_seconds']:8.3f}s {cold['campaign_seconds']:8.3f}s "
            f"{warm['campaign_seconds']:8.3f}s {warm_speedup:7.2f}x "
            f"{warm['cache_hits']:5d}"
        )

    OUTPUT_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    header = (
        f"{'ops':>6} {'inj':>5} {'off':>9} {'cold':>9} {'warm':>9} "
        f"{'speedup':>8} {'hits':>5}"
    )
    record_result(
        "recovery_hotpath",
        "recovery hot path (engine off vs cold vs warm verdict cache)\n"
        + header + "\n" + "\n".join(rows)
        + f"\n-> {OUTPUT_PATH.name}",
    )

    largest = payload["sizes"][-1]
    if gate:
        assert largest["warm_speedup"] >= GATE_SPEEDUP, (
            f"warm verdict cache is only {largest['warm_speedup']}x "
            f"faster than the legacy path at {largest['n_ops']} ops "
            f"(gate: {GATE_SPEEDUP}x); recovery hot-path regression?"
        )
