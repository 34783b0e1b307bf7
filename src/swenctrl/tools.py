"""The flowdump and bench subcommands: the handlers, the bench's patterns,
its timing rows and the fitted log-log slope.  The CLI imports this module
only when one of those two subcommands runs, so check and kstar compile
none of it; it imports nothing of the CLI, which hands each handler its
parsed arguments and the pattern or the seed."""

from __future__ import annotations

import json
import math
import sys
from time import perf_counter

from .core import Transport, check_kq, check_structural, compute_kstar
from .errors import ScaleError
from .flow import build_lifted_network, build_small_network, max_flow, network_json, network_to_dot
from .pattern import MAX_GENERATED_N, SparsityPattern, random_pattern


def flowdump(args, pattern: SparsityPattern) -> int:
    if args.lifted and args.witness_mode:  # a ValueError exits 1, as a usage error
        raise ValueError("--lifted and --witness-mode conflict: the expanded network "
                         "has no witness mode")
    if args.lifted:
        net = build_lifted_network(pattern, args.k, args.q)
    else:
        net = build_small_network(pattern, args.k, args.q, witness_mode=args.witness_mode)
    flow = max_flow(net)
    if args.dot_out:
        with open(args.dot_out, "w", encoding="utf-8") as fh:
            fh.write(network_to_dot(net, flow))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(network_json(net, flow))
            fh.write("\n")
    elif args.output == "json":
        sys.stdout.writelines(network_json(net, flow))
        sys.stdout.write("\n")
    else:
        print(f"{net.kind} network: {len(net.nodes)} nodes, {len(net.arcs)} arcs, "
              f"max flow {flow.value_total}")
    return 0


def bench_pattern(n: int, density: float, seed: int) -> SparsityPattern:
    """Random pattern at the given density plus a connectivity backbone
    (self-loops and a broadcast first input column), so every row exercises
    the full decision and search path instead of an early reachability exit."""
    m = max(1, n // 10)
    base = random_pattern(n, m, density, seed)
    rows = tuple(tuple(sorted({*row, i, n + 1})) for i, row in enumerate(base.rows, 1))
    return SparsityPattern.from_rows(n, m, rows)


def _best_time(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        best = min(best, perf_counter() - t0)
    return best


def fit_loglog_slope(ns, times) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n in ns]
    ys = [math.log(max(t, 1e-9)) for t in times]
    xbar = sum(xs) / len(xs)
    ybar = sum(ys) / len(ys)
    denom = sum((x - xbar) ** 2 for x in xs)
    if denom == 0:
        return 0.0
    return sum((x - xbar) * (y - ybar) for x, y in zip(xs, ys)) / denom


def run_bench(nmin: int, nmax: int, density: float, seed: int,
              repeats: int = 3, k: int = 1, q: int = 3) -> dict:
    """Time rows n = nmin, 2 nmin, ... up to nmax; raises ScaleError before
    any row when the largest exceeds MAX_GENERATED_N, and checks (k, q) by
    check_kq on each row's pattern before timing it."""
    sizes = []
    n = nmin
    while n <= nmax:
        sizes.append(n)
        n *= 2
    if sizes and sizes[-1] > MAX_GENERATED_N:
        raise ScaleError(f"bench row n = {sizes[-1]} exceeds the guard {MAX_GENERATED_N}")
    rows = []
    for n in sizes:
        pattern = bench_pattern(n, density, seed + n)
        check_kq(pattern.n, pattern.m, k, q)

        def build():  # the transport lists check_structural sets up before it solves
            return Transport(pattern.rows, pattern.n, pattern.m, k, q)

        def solve() -> float:  # greedy fill and phases, on a fresh set-up each time
            flow = build()
            t0 = perf_counter()
            flow.solve(pattern.n * q)
            return perf_counter() - t0

        build_s = _best_time(build, repeats)
        maxflow_s = min(solve() for _ in range(repeats))
        check_s = _best_time(lambda: check_structural(pattern, k, q), repeats)
        kstar_s = _best_time(lambda: compute_kstar(pattern), repeats)
        rows.append({
            "n": n,
            "m": pattern.m,
            "stars": sum(map(len, pattern.rows)),
            "build_s": build_s,
            "maxflow_s": maxflow_s,
            "check_s": check_s,
            "kstar_s": kstar_s,
        })
    slopes = {
        col: fit_loglog_slope([r["n"] for r in rows], [r[f"{col}_s"] for r in rows])
        for col in ("build", "maxflow", "check", "kstar")
    }
    return {
        "density": density,
        "k": k,
        "q": q,
        "seed": seed,
        "repeats": repeats,
        "rows": rows,
        "slopes": slopes,
    }


def bench(args, seed: int) -> int:
    # the CLI reports a ValueError as a usage error, exit 1
    if args.nmin < 1 or args.nmax < args.nmin:
        raise ValueError("require 1 <= nmin <= nmax")
    if args.repeats < 1:
        raise ValueError("require repeats >= 1")
    result = run_bench(args.nmin, args.nmax, args.density, seed,
                       repeats=args.repeats, k=args.k, q=args.q)
    if args.output == "json":
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print(f"{'n':>6} {'stars':>8} {'build':>10} {'maxflow':>10} {'check':>10} {'kstar':>10}")
        for r in result["rows"]:
            print(f"{r['n']:>6} {r['stars']:>8} {r['build_s']:>10.6f} "
                  f"{r['maxflow_s']:>10.6f} {r['check_s']:>10.6f} {r['kstar_s']:>10.6f}")
        slopes = result["slopes"]
        print("log-log slopes: " + "  ".join(f"{c}={slopes[c]:.2f}" for c in sorted(slopes)))
    return 0
