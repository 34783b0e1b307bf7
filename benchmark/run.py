"""swenctrl benchmark: one workload, one seed, one run.

    python3 benchmark/run.py --workload backbone --seed 1 --seconds 20 --trace 0

Builds the workload's patterns from the seed, writes them as grid files,
measures for --seconds seconds with tracing off (end-to-end metrics) or on
(per-layer metrics), checks every answer, and prints a detail line and then
a one-line JSON result as the last line of stdout.  Files go to .bench_out/
in the repository root.  Exits 2 without a result when swenctrl's sources
are missing.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_REPS = 5  # setup_s is the median of these
# A kind with a tail metric needs 40 samples, so that its tail is p75 or higher.
MIN_SAMPLES = {"check": 40, "kstar": 40, "crosscheck": 40, "oracle": 40,
               "cli_check": 5, "cli_kstar": 5, "cli_import": 5}
TRACE_IMPORT_SHARE = 0.1  # share of a traced run spent timing `import swenctrl.cli`
TAIL_CAP = 0.90  # highest percentile a tail metric reports
MAX_OVERRUN = 1.25  # a run measures for at most this many times --seconds


def tail(values: list[float]) -> tuple[float, float]:
    """The highest order statistic with at least ten samples above it, but
    no higher than TAIL_CAP, and its percentile rank; the maximum when there
    are ten samples or fewer.  (Millisecond kinds give hundreds to thousands
    of samples, and above p90 their order statistics follow other tenants of
    a shared host rather than the program.)"""
    s = sorted(values)
    i = len(s) - 1 if len(s) <= 10 else min(len(s) - 11, math.ceil(TAIL_CAP * len(s)) - 1)
    return s[i], 100.0 * (i + 1) / len(s)


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_model": cpu,
    }


def source_info() -> dict:
    """Git commit when the checkout is a git work tree, and a hash of src/."""
    commit = "unknown"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, SRC).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def set_up(workload: str, seed: int, scratch: str, runner, sizes: dict | None = None) -> dict:
    """Generate the cases, write and parse each distinct pattern once, and
    warm up every operation kind on a small input."""
    import generators as G
    from swenctrl.pattern import parse_pattern
    from workloads import build_cases

    cases = build_cases(workload, seed, sizes)
    files: dict = {}
    for kind_cases in cases.values():
        for c in kind_cases:
            if c.key not in files:
                text = G.grid_text(c.n, c.m, c.stars)
                path = os.path.join(scratch, f"p{len(files)}.pat")
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                files[c.key] = (text, path, parse_pattern(text, "grid"))
            c.text, c.path, c.pattern = files[c.key]
    small = cases["crosscheck"][0]
    for kind in ("check", "kstar", "crosscheck", "cli_check"):
        runner.run(kind, small)
    runner.run("oracle", cases["oracle"][0])
    return cases


def measure(runner, speed, cases: dict, shares: dict, seconds: float) -> dict:
    """Share the run's wall time among the operation kinds: always run the
    kind furthest below its share, each kind cycling through its cases.
    After `seconds`, runs only the kinds still short of their minimum sample
    count, until none is; stops at MAX_OVERRUN times `seconds` regardless.
    The speed probe runs between operations."""
    used = dict.fromkeys(shares, 0.0)
    count = dict.fromkeys(shares, 0)
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        if elapsed >= MAX_OVERRUN * seconds:
            break
        due = list(shares)
        if elapsed >= seconds:
            due = [k for k in shares if count[k] < MIN_SAMPLES[k]]
            if not due:
                break
        speed.maybe_probe()
        kind = min(due, key=lambda k: (used[k] / shares[k], k))
        case = cases[kind][count[kind] % len(cases[kind])]
        t0 = perf_counter()
        runner.run(kind, case)
        used[kind] += perf_counter() - t0
        count[kind] += 1
    return {"wall_s": perf_counter() - start, "time_s": used, "operations": count}


def end_to_end_metrics(runner, speed, imported: tuple[float, float],
                       setup: list[tuple[float, float]], samples: dict) -> dict:
    """Latency metrics in reference time (see speed.py); `samples` receives
    each kind's sample count, tail percentile and unscaled median.  `imported`
    (the import of swenctrl) and each set-up are (start, duration) pairs."""
    metrics = {}
    for kind, timed in sorted(runner.latency.items()):
        probe = "start" if kind.startswith("cli_") else "cpu"
        values = [dt * speed.scale(t, probe) for t, dt in timed]
        metrics[f"{kind}_p50_s"] = (statistics.median(values), "s")
        info = {"count": len(values), "raw_p50_s": statistics.median(dt for _, dt in timed)}
        if not kind.startswith("cli_"):
            value, pct = tail(values)
            metrics[f"{kind}_tail_s"] = (value, "s")
            info["tail_percentile"] = round(pct, 2)
        samples[kind] = info
    t, dt = imported
    metrics["setup_s"] = (dt * speed.scale(t)
                          + statistics.median(dt * speed.scale(t) for t, dt in setup), "s")
    metrics["peak_rss_mb"] = (runner.peak_rss_kb / 1024.0, "MB")
    return metrics


def layer_metrics(tracer, scale) -> dict:
    """Per-layer metrics from the spans.  A layer's time in one operation is
    the summed duration of its spans under that operation's root, in
    reference time (`scale(start)` converts); the metric is the median over
    the operations in which the layer ran (0 if none)."""
    roots: dict[int, dict] = {}
    dur: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    attr: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    calls: dict[int, dict] = defaultdict(lambda: defaultdict(int))
    for s in tracer.spans:
        if s["parent"] is None:
            roots[s["request"]] = s
            continue
        r = s["request"]
        probe = "start" if s["name"].startswith("cli.") else "cpu"
        dur[r][s["name"]] += (s["end"] - s["start"]) * scale(s["start"], probe)
        calls[r][s["name"]] += 1
        for a, v in s["attrs"].items():
            attr[r][f"{s['name']}.{a}"] += v

    def ops(kind):
        return [r for r, s in roots.items() if s["name"] == f"op.{kind}"]

    def med(values):
        values = list(values)
        return statistics.median(values) if values else 0.0

    def layer(kind, name):
        return med(dur[r][name] for r in ops(kind) if name in dur[r])

    def count(kind, key):
        return med(attr[r][key] for r in ops(kind) if key in attr[r])

    def root_attr(kind, key):
        return [roots[r]["attrs"][key] for r in ops(kind)]

    def root_time(kind, key, probe="cpu"):
        return [roots[r]["attrs"][key] * scale(roots[r]["start"], probe) for r in ops(kind)]

    def self_time(kind, children):
        return med(bare - sum(dur[r].get(c, 0.0) for c in children)
                   for r, bare in zip(ops(kind), root_time(kind, "bare_s")))

    check_children = ("graph.to_digraph", "graph.reachability_check",
                      "flow.build_small_network", "flow.max_flow", "flow.min_cut",
                      "decide.witness")
    kstar_children = ("graph.to_digraph", "graph.reachability_check",
                      "decide.kstar_probe_build", "decide.kstar_probe_max_flow", "flow.min_cut")
    trials = sum(root_attr("oracle", "trials"))
    paths = root_attr("check", "path") + root_attr("kstar", "path")
    traced_check = [dur[r]["decide.check_structural"] for r in ops("check")]
    m = {
        "pattern.parse_s": (layer("cli_check", "pattern.parse_pattern"), "s"),
        "pattern.parse_bytes": (count("cli_check", "pattern.parse_pattern.bytes"), "bytes"),
        "cli.import_s": (med(root_time("cli_import", "import_s", "start")), "s"),
        "results.to_json_s": (layer("cli_check", "results.to_json"), "s"),
        "graph.to_digraph_s": (layer("check", "graph.to_digraph"), "s"),
        "graph.reachability_s": (layer("check", "graph.reachability_check"), "s"),
        "graph.brute_s": (layer("crosscheck", "graph.brute_force_check"), "s"),
        "graph.kstar_brute_s": (layer("crosscheck", "graph.kstar_brute"), "s"),
        "graph.subsets": (med(root_attr("crosscheck", "subsets")), "count"),
        "flow.build_small_s": (layer("check", "flow.build_small_network"), "s"),
        "flow.max_flow_s": (layer("check", "flow.max_flow"), "s"),
        "flow.nodes": (count("check", "flow.build_small_network.nodes"), "count"),
        "flow.arcs": (count("check", "flow.build_small_network.arcs"), "count"),
        "flow.min_cut_s": (layer("check", "flow.min_cut"), "s"),
        "flow.build_lifted_s": (layer("crosscheck", "flow.build_lifted_network"), "s"),
        "flow.lifted_max_flow_s": (layer("crosscheck", "flow.lifted_max_flow"), "s"),
        "flow.lifted_arcs": (count("crosscheck", "flow.build_lifted_network.arcs"), "count"),
        "flow.transfer_s": (layer("crosscheck", "flow.transfer"), "s"),
        "decide.witness_s": (layer("check", "decide.witness"), "s"),
        "decide.check_self_s": (self_time("check", check_children), "s"),
        "decide.kstar_probes": (med(calls[r]["decide.kstar_probe_build"] for r in ops("kstar")),
                                "count"),
        "decide.kstar_probe_build_s": (layer("kstar", "decide.kstar_probe_build"), "s"),
        "decide.kstar_probe_max_flow_s": (layer("kstar", "decide.kstar_probe_max_flow"), "s"),
        "decide.kstar_self_s": (self_time("kstar", kstar_children), "s"),
        "decide.recheck_s": (layer("check", "decide.recheck_certificate"), "s"),
        "oracle.sample_s": (layer("oracle", "oracle.sample_instance"), "s"),
        "oracle.rank_s": (layer("oracle", "oracle.controllability_rank"), "s"),
        "oracle.trials": (trials, "count"),
        "oracle.full_rank_ratio": (sum(root_attr("oracle", "successes")) / trials if trials else 0.0,
                                   "ratio"),
        "trace.check_overhead_s": (med(traced_check) - med(root_time("check", "bare_s")), "s"),
    }
    for path in ("saturated", "violating_subset", "unreachable", "kstar_finite", "kstar_infinite"):
        m[f"decide.path.{path}"] = (paths.count(path), "count")
    return m


def self_time_summary(tracer) -> dict:
    """Span name -> call count, total and median self time."""
    by_name: dict[str, list[float]] = defaultdict(list)
    for span_id, value in tracer.self_times().items():
        by_name[tracer.spans[span_id]["name"]].append(value)
    return {name: {"calls": len(v), "total_s": sum(v), "median_s": statistics.median(v)}
            for name, v in sorted(by_name.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "swenctrl", "__init__.py")):
        print(f"error: swenctrl sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from speed import SpeedProbe

    speed = SpeedProbe()
    speed.maybe_probe()
    t0 = perf_counter()
    import swenctrl.cli  # noqa: F401 - timed: part of setup_s
    imported = (t0, perf_counter() - t0)

    from ops import Runner
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 1
    spec = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="patterns-", dir=OUT)
    try:
        warm = Runner(ROOT, speed)
        setup_times = []
        for _ in range(SETUP_REPS):
            speed.maybe_probe()
            t0 = perf_counter()
            cases = set_up(args.workload, args.seed, scratch, warm)
            setup_times.append((t0, perf_counter() - t0))

        # Keep the inputs and answers built so far out of the collector's
        # scans, so that GC pauses during measurement reflect the program's
        # own allocations; without this the oracle's p50 spread between runs
        # was four times higher.
        gc.collect()
        gc.freeze()
        tracer = Tracer() if args.trace else None
        runner = Runner(ROOT, speed, tracer)
        shares = dict(spec.shares)
        if tracer is not None:
            shares = {k: v * (1 - TRACE_IMPORT_SHARE) for k, v in shares.items()}
            shares["cli_import"] = TRACE_IMPORT_SHARE
            cases["cli_import"] = cases["crosscheck"][:1]
        schedule = measure(runner, speed, cases, shares, args.seconds)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = warm.attempted + runner.attempted
    failures = warm.failures + runner.failures
    samples: dict = {}
    e2e = end_to_end_metrics(runner, speed, imported, setup_times, samples)
    metrics = layer_metrics(tracer, speed.scale) if tracer is not None else e2e
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "source": source_info(),
        "inputs": {"sizes": spec.sizes,
                   "cases": {k: len(v) for k, v in cases.items()},
                   "shares": shares},
        "samples": samples,
        "schedule": schedule,
        "setup_reps_s": [dt for _, dt in setup_times],
        "speed_probes": {kind: {"count": len(v), "median_s": statistics.median(v),
                                "min_s": min(v), "max_s": max(v)}
                         for kind, v in speed.values.items() if v},
        "import_s": imported[1],
        "error_rate": len(failures) / attempted,
        "failures": failures[:20],
        "genericity_misses": warm.genericity_misses + runner.genericity_misses,
        "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()},
    }
    if tracer is not None:
        details["self_times"] = self_time_summary(tracer)
        tracer.write(os.path.join(OUT, f"{stem}-spans.jsonl"))
    with open(os.path.join(OUT, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=2, sort_keys=True)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
