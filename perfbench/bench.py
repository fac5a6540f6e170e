"""The repository benchmark: ``mumak analyze`` campaigns timed end to end.

Run from the repository root::

    python3 perfbench/bench.py [--workload NAME] [--seed S] [--seconds T]
                               [--reps N] [--trace [0|1]] [--scale smoke]
                               [--json OUT]
    python3 perfbench/bench.py --compare BASE.jsonl HEAD.jsonl

Every timed rep is one campaign in a fresh interpreter and a fresh work
directory (``campaign.py``), started only after the previous one ended: a
closed loop with one client.  Without ``--workload`` the workloads run
round-robin, rep by rep, so slow spells of a shared machine hit them all
alike.  Reps continue until ``--seconds`` per workload have passed (at
least one round over the inputs), or for exactly ``--reps`` rounds.

``--seed S`` derives the inputs: rep ``r`` analyses the workload generated
from input seed ``SUBSEEDS*S + r % SUBSEEDS``.  How much work a campaign
does depends on its input (rbtree's trace length varies by a quarter
across seeds at 600 ops), so a run that timed one input would measure
mostly which input it drew; cycling over several makes the median steady
across seeds.  Inputs that repeat within a run are checked against
themselves.

Times are reported at a reference CPU speed: each campaign's process runs
a speed probe alongside (``campaign.SpeedProbe``), and :func:`run_campaign`
scales by it, because on a shared host the same code runs up to 1.7x
slower for minutes at a time.

``--trace`` adds one traced campaign per workload (input ``SUBSEEDS*S``)
and reports the per-layer numbers.  Each line of output is ``<workload>
<metric> <value> <unit>``; the last line is one JSON object (``correct``,
``attempted``, ``failed``, ``metrics``).  The exit code is 1 when an
output check fails, and 2 when a campaign cannot run at all, in which case
no JSON line is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

from campaign import SCALES, WORKLOADS  # noqa: E402

CAMPAIGN = os.path.join(HERE, "campaign.py")
#: Workloads whose journal must equal another's, byte for byte.
TWINS = {"rbtree-shards2": "rbtree-serial"}
E2E = ("analyze_s", "cpu_s", "peak_rss_mb", "setup_s")
SUBSEEDS = 8
CHILD_TIMEOUT_S = 150
#: The speed probe's loop time on an uncontended vCPU of the baseline host
#: (see README.md): timings are reported at this CPU speed.
REFERENCE_PROBE_S = 120e-6


class BenchError(RuntimeError):
    """A campaign could not run; the benchmark has no result."""


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def input_seed(seed: int, rep: int) -> int:
    return SUBSEEDS * seed + rep % SUBSEEDS


# -------------------------------------------------------------------- #
# running campaigns
# -------------------------------------------------------------------- #

def run_campaign(name: str, seed: int, scale: str, spans: str = None) -> dict:
    """Run one campaign on input ``seed`` in a fresh interpreter.

    ``setup_s`` is timed here, from spawn to the child's ``ready`` line.
    The times are scaled to :data:`REFERENCE_PROBE_S` by the speed probe
    the child ran alongside (``campaign.SpeedProbe``): set-up by the
    probe's median before ``ready``, the campaign by its median during
    ``analyze``.  The unscaled times are kept under ``wall``.
    """
    tmp_root = os.path.join(RESULTS, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=tmp_root)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["TMPDIR"] = workdir
    cmd = [sys.executable, CAMPAIGN, name, str(seed), scale, workdir]
    if spans is not None:
        cmd.append(spans)
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=workdir
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            ready = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest = proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.stdout.close()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = rest.strip().splitlines()
    if code != 0 or ready.strip() != "ready" or not lines:
        raise BenchError(f"{name} (input seed {seed}) exited {code} "
                         f"without a result")
    record = json.loads(lines[-1])
    record["wall"] = {"setup_s": setup_s, "analyze_s": record["analyze_s"],
                      "cpu_s": record["cpu_s"]}
    record["setup_s"] = setup_s * REFERENCE_PROBE_S / record["probe"]["setup"]
    for metric in ("analyze_s", "cpu_s"):
        record[metric] *= REFERENCE_PROBE_S / record["probe"]["analyze"]
    record["seed"] = seed
    return record


def summary(values) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# -------------------------------------------------------------------- #
# output checks
# -------------------------------------------------------------------- #

def check_workload(name, reps, traced, twin_digests, references) -> list:
    """Problems with one workload's campaigns; empty when all is well.

    ``twin_digests`` maps input seed → the journal digest this workload
    must reproduce (see :data:`TWINS`); ``references`` maps input seed →
    the recorded ``{"digest", "injections"}``.
    """
    problems = []
    by_seed = {}
    for rep in reps:
        by_seed.setdefault(rep["seed"], []).append(rep)
    for seed, group in sorted(by_seed.items()):
        digests = {rep["digest"] for rep in group}
        if len(digests) > 1:
            problems.append(f"input {seed}: {len(digests)} different "
                            f"journals across reps")
        twin = twin_digests.get(seed)
        if twin is not None and digests != {twin}:
            problems.append(f"input {seed}: journal differs from "
                            f"{TWINS[name]}'s")
        recorded = references.get(str(seed))
        if recorded is not None:
            if digests != {recorded["digest"]}:
                problems.append(f"input {seed}: journal differs from the "
                                f"recorded reference")
            if any(r["injections"] != recorded["injections"] for r in group):
                problems.append(f"input {seed}: injection count differs "
                                f"from the recorded reference")
    if traced is not None and traced["digest"] not in {
        r["digest"] for r in by_seed.get(traced["seed"], [])
    }:
        problems.append("the traced journal differs from the untraced")
    return problems


def twin_digests(name, reps, scale, references, results) -> dict:
    """Input seed → digest ``name`` must reproduce, from the twin's reps in
    this run or its recorded reference.  When neither covers the first
    input, one untimed twin campaign supplies that one."""
    twin = TWINS.get(name)
    if twin is None:
        return {}
    digests = {int(seed): entry["digest"] for seed, entry in
               references.get(scale, {}).get(twin, {}).items()}
    for rep in results.get(twin, {}).get("reps", []):
        digests[rep["seed"]] = rep["digest"]
    first = reps[0]["seed"]
    if first not in digests:
        digests[first] = run_campaign(twin, first, scale)["digest"]
    return digests


# -------------------------------------------------------------------- #
# reporting
# -------------------------------------------------------------------- #

def unit_of(metric: str) -> str:
    if metric.endswith("events_per_s"):
        return "1/s"
    if metric.endswith("_ms"):
        return "ms"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(".bytes"):
        return "bytes"
    if metric.endswith((".share", "_ratio", "overhead", "failed_frac")):
        return "ratio"
    return "count"


def workload_report(reps, traced, problems) -> dict:
    attempted = sum(rep["injections"] for rep in reps)
    failed = attempted if problems else sum(rep["failed"] for rep in reps)
    report = {
        "e2e": {m: summary([rep[m] for rep in reps]) for m in E2E},
        "attempted": attempted,
        "failed": failed,
        "inputs": {str(rep["seed"]): {"digest": rep["digest"],
                                      "injections": rep["injections"]}
                   for rep in reps},
        "problems": problems,
        "reps": [{key: rep[key] for key in ("seed", "wall", "probe") + E2E}
                 for rep in reps],
    }
    if traced is not None:
        layers = dict(traced["layers"])
        untraced = [rep["analyze_s"] for rep in reps
                    if rep["seed"] == traced["seed"]]
        layers["trace.overhead"] = (
            traced["analyze_s"] / statistics.median(untraced)
        )
        report["layers"] = layers
    return report


def print_report(name: str, report: dict) -> None:
    for metric in E2E:
        s = report["e2e"][metric]
        print(f"{name} {metric} {s['median']:.6g} {unit_of(metric)} "
              f"q1={s['q1']:.6g} q3={s['q3']:.6g} n={s['n']}")
    frac = report["failed"] / report["attempted"] if report["attempted"] else 0
    print(f"{name} failed_frac {frac:.6g} ratio "
          f"failed={report['failed']} attempted={report['attempted']}")
    for metric, value in sorted(report.get("layers", {}).items()):
        print(f"{name} {metric} {value:.6g} {unit_of(metric)}")
    inputs = " ".join(f"{seed}:{entry['digest'][:12]}/{entry['injections']}"
                      for seed, entry in sorted(report["inputs"].items()))
    verdict = "; ".join(report["problems"]) or "ok"
    print(f"{name} check {verdict} inputs={inputs}")


def result_line(reports: dict, trace: bool, spec: dict) -> dict:
    """The final JSON object: every end-to-end metric of BENCHMARK.json,
    or with ``trace`` every per-layer one, per workload."""
    metrics = {}
    for name, report in reports.items():
        prefix = "" if len(reports) == 1 else f"{name}/"
        if trace:
            for entry in spec["per_layer"]:
                metrics[prefix + entry["name"]] = {
                    "value": report["layers"][entry["name"]],
                    "unit": entry["unit"],
                }
        else:
            for entry in spec["end_to_end"]:
                metrics[prefix + entry["name"]] = {
                    "value": report["e2e"][entry["name"]]["median"],
                    "unit": entry["unit"],
                }
    return {
        "correct": not any(r["problems"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }


# -------------------------------------------------------------------- #
# --compare
# -------------------------------------------------------------------- #

MIN_PAIRS = 10


def verdict(base, head, bound: float) -> str:
    """Classify one (workload, metric) pair of run lists, lower = better.

    The change is worse when its median exceeds the parent's by more than
    the bound and either the spreads are within the bound or the slowdown
    is plain anyway: the change loses at least nine tenths of the pairs,
    or every change run reads worse than every parent run.  It improved
    the metric when it wins at least nine tenths of the pairs and the
    medians are further apart than the parent's quartile distance.  A
    spread wider than the bound leaves the rest unresolved, unless every
    change run reads better than every parent run.
    """
    pairs = list(zip(base, head))
    wins = sum(h < b for b, h in pairs)
    losses = sum(h > b for b, h in pairs)
    base_s, head_s = summary(base), summary(head)
    mb, mh = base_s["median"], head_s["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (base_s, head_s))
    if mh > mb * (1.0 + bound) and (
        spread <= bound or losses >= 0.9 * len(pairs) or min(head) > max(base)
    ):
        return "worse"
    if wins >= 0.9 * len(pairs) and mb - mh > base_s["q3"] - base_s["q1"]:
        return "improved"
    if spread > bound and not max(head) < min(base):
        return "unresolved"
    return "unchanged"


def compare(base_path: str, head_path: str, spec: dict) -> int:
    def runs(path):
        with open(path) as fh:
            return [json.loads(line) for line in fh if line.strip()]

    base, head = runs(base_path), runs(head_path)
    pairs = min(len(base), len(head))
    if pairs < MIN_PAIRS:
        print(f"--compare needs >= {MIN_PAIRS} runs per side, "
              f"got {len(base)} and {len(head)}", file=sys.stderr)
        return 2
    base, head = base[:pairs], head[:pairs]
    bad = unresolved = False
    names = [n for n in base[0]["workloads"] if n in head[0]["workloads"]]
    for name in names:
        for entry in spec["end_to_end"]:
            metric = entry["name"]
            b = [run["workloads"][name]["e2e"][metric]["median"]
                 for run in base]
            h = [run["workloads"][name]["e2e"][metric]["median"]
                 for run in head]
            result = verdict(b, h, entry["bound"])
            bad |= result == "worse"
            unresolved |= result == "unresolved"
            print(f"{name} {metric} {result} parent={statistics.median(b):.6g}"
                  f" change={statistics.median(h):.6g} {entry['unit']}"
                  f" pairs={pairs}")

        def frac(side):
            failed = sum(run["workloads"][name]["failed"] for run in side)
            attempted = sum(run["workloads"][name]["attempted"]
                            for run in side)
            return failed / attempted if attempted else 0.0

        rose = frac(head) > frac(base)
        bad |= rose
        print(f"{name} failed_frac {'worse' if rose else 'unchanged'} "
              f"parent={frac(base):.6g} change={frac(head):.6g} ratio")
    if bad:
        return 1
    return 3 if unresolved else 0


# -------------------------------------------------------------------- #
# main
# -------------------------------------------------------------------- #

def parse_args(argv, spec):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=4)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="measured time per workload (default "
                             "%(default)s)")
    parser.add_argument("--reps", type=int, default=None,
                        help="run exactly N rounds instead")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", choices=list(SCALES), default="bench")
    parser.add_argument("--json", metavar="OUT",
                        help="append this run's results to OUT (JSON lines)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "HEAD"))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.reps is not None and args.reps < 1:
        parser.error("--reps must be >= 1")
    return args


def main(argv=None) -> int:
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    args = parse_args(argv, spec)
    if args.compare:
        return compare(*args.compare, spec)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"no repro package under {SRC}", file=sys.stderr)
        return 2
    references = load_json(os.path.join(HERE, "reference.json"))
    names = [args.workload] if args.workload else list(WORKLOADS)

    results = {name: {"reps": [], "traced": None} for name in names}
    deadline = time.perf_counter() + args.seconds * len(names)
    rep = 0
    try:
        while True:
            for name in names:
                results[name]["reps"].append(run_campaign(
                    name, input_seed(args.seed, rep), args.scale
                ))
            rep += 1
            if args.reps is not None:
                if rep >= args.reps:
                    break
            elif rep >= SUBSEEDS and time.perf_counter() >= deadline:
                break
        if args.trace:
            for name in names:
                spans = os.path.join(RESULTS, "trace", f"{name}.jsonl")
                results[name]["traced"] = run_campaign(
                    name, input_seed(args.seed, 0), args.scale, spans=spans
                )
        twins = {
            name: twin_digests(name, results[name]["reps"], args.scale,
                               references, results)
            for name in names
        }
    except BenchError as err:
        print(f"benchmark aborted: {err}", file=sys.stderr)
        return 2

    reports = {}
    for name in names:
        reps, traced = results[name]["reps"], results[name]["traced"]
        problems = check_workload(
            name, reps, traced, twins[name],
            references.get(args.scale, {}).get(name, {}),
        )
        reports[name] = workload_report(reps, traced, problems)
        print_report(name, reports[name])
    if args.json:
        with open(args.json, "a") as fh:
            fh.write(json.dumps({
                "seed": args.seed, "scale": args.scale,
                "python": sys.version.split()[0], "nproc": os.cpu_count(),
                "workloads": reports,
            }) + "\n")
    line = result_line(reports, bool(args.trace), spec)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
