"""Command-line front end.

Subcommands: check, kstar, brute, oracle, crosscheck, flowdump, bench.
Exit status: 0 on successful execution regardless of verdict, 1 on usage
errors, 2 on input/parse errors, 3 on scale/overflow guards.  JSON output is
byte-deterministic for identical inputs.  When SWENCTRL_CI is set, randomized
commands (oracle, bench) refuse to run without an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from time import perf_counter

from . import __version__
from .decide import check_structural, compute_kstar, crosscheck, crosscheck_to_dict
from .errors import ParseError, ScaleError
from .flow import (
    augment,
    build_lifted_network,
    build_small_network,
    compact_arcs,
    compact_capacity,
    max_flow,
    network_json,
    network_to_dot,
    residual_arrays,
)
from .graph import brute_force_check, to_dot
from .oracle import CRITERIA, monte_carlo_controllable
from .pattern import DEFAULT_VALUE_BOUND, SparsityPattern, parse_pattern, random_pattern
from .results import kstar_to_dict, verdict_to_dict

CI_ENV_VAR = "SWENCTRL_CI"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _load_pattern(path: str) -> SparsityPattern:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"pattern file is not UTF-8 text: {exc}") from None
    stripped = text.lstrip()
    fmt = "json" if stripped.startswith("{") else "grid"
    return parse_pattern(text, fmt)


def _emit(args, obj: dict, text_lines) -> None:
    if args.output == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _seed_or_default(args) -> int:
    return 0 if args.seed is None else args.seed


def _run_on_pattern(args) -> int:
    """Load the pattern, let the subcommand compute its answer, then write
    --dot-out and print.  The file is written only once the answer exists,
    so a command that fails writes none."""
    pattern = _load_pattern(args.pattern)
    obj, text_lines = args.answer(args, pattern)
    if args.dot_out:
        with open(args.dot_out, "w", encoding="utf-8") as fh:
            fh.write(to_dot(pattern))
    _emit(args, obj, text_lines)
    return 0


def _check(args, pattern: SparsityPattern):
    verdict = check_structural(pattern, args.k, args.q)
    obj = verdict_to_dict(verdict)
    return obj, [
        f"decision: {verdict.decision}",
        f"theta: {verdict.stats.theta}  target: {verdict.stats.target}",
        f"certificate: {obj['certificate']}",
    ]


def _brute(args, pattern: SparsityPattern):
    verdict = brute_force_check(pattern, args.k, args.q)
    obj = verdict_to_dict(verdict)
    return obj, [
        f"decision: {verdict.decision}",
        f"certificate: {obj['certificate']}",
    ]


def _kstar(args, pattern: SparsityPattern):
    obj = kstar_to_dict(compute_kstar(pattern))
    return obj, [
        f"kstar: {obj['kstar']}",
        f"witness: {obj['witness']}",
        f"trace: {obj['trace']}",
    ]


def _oracle(args, pattern: SparsityPattern):
    seed = _seed_or_default(args)
    controllable, successes = monte_carlo_controllable(
        pattern, args.k, args.q, args.trials, seed,
        value_bound=args.value_bound, criterion=args.criterion,
        include_d0=args.include_d0,
    )
    obj = {
        "controllable": controllable,
        "successes": successes,
        "trials": args.trials,
        "k": args.k,
        "q": args.q,
        "full_dim": pattern.n * args.q,
        "criterion": args.criterion,
        "include_d0": args.include_d0,
        "value_bound": args.value_bound,
        "seed": seed,
    }
    return obj, [
        f"controllable: {controllable} ({successes}/{args.trials} full-rank samples)",
    ]


def _crosscheck(args, pattern: SparsityPattern):
    report = crosscheck(pattern, args.kmax, args.qmax)
    return crosscheck_to_dict(report), [
        f"cells: {len(report.cells)}  agree: {report.agree}",
        *report.disagreements,
    ]


def _cmd_flowdump(args) -> int:
    pattern = _load_pattern(args.pattern)
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
    stars = set(base.stars)
    stars.update((i, i) for i in range(1, n + 1))
    stars.update((i, n + 1) for i in range(1, n + 1))
    return SparsityPattern(n, m, frozenset(stars))


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
    sizes = []
    n = nmin
    while n <= nmax:
        sizes.append(n)
        n *= 2
    rows = []
    for n in sizes:
        pattern = bench_pattern(n, density, seed + n)

        def build():  # the witness-mode residual graph check_structural solves
            tail, head = compact_arcs(n, pattern.m, pattern.stars)
            cap = compact_capacity(n, pattern.m, tail, k, q, witness_mode=True)
            return residual_arrays(pattern.m + 2 * n + 2, tail, head, cap)

        build_s = _best_time(build, repeats)
        res = build()
        maxflow_s = _best_time(lambda: augment(res.copy()), repeats)
        check_s = _best_time(lambda: check_structural(pattern, k, q), repeats)
        kstar_s = _best_time(lambda: compute_kstar(pattern), repeats)
        rows.append({
            "n": n,
            "m": pattern.m,
            "stars": len(pattern.stars),
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


def _cmd_bench(args) -> int:
    if args.nmin < 1 or args.nmax < args.nmin:
        raise _UsageError("require 1 <= nmin <= nmax")
    result = run_bench(args.nmin, args.nmax, args.density, _seed_or_default(args),
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


def _add_pattern_command(sub, name: str, help: str, answer) -> _Parser:
    """A subcommand that answers one question about a pattern file:
    answer(args, pattern) returns the JSON object and the text lines that
    _run_on_pattern prints."""
    parser = sub.add_parser(name, help=help)
    parser.add_argument("pattern", help="pattern file (grid or JSON; JSON detected by a leading '{')")
    parser.add_argument("--output", choices=("json", "text"), default="json")
    parser.add_argument("--dot-out", default=None, help="write the pattern digraph as DOT")
    parser.set_defaults(func=_run_on_pattern, answer=answer)
    return parser


def build_parser() -> _Parser:
    parser = _Parser(prog="swenctrl", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = _add_pattern_command(sub, "check", "decide structural controllability for (k, q)", _check)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    p = _add_pattern_command(sub, "brute", "force the subset-enumeration path (n <= 24)", _brute)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)

    _add_pattern_command(sub, "kstar", "minimal switch count working for every ensemble size",
                         _kstar)

    p = _add_pattern_command(sub, "oracle", "random-realization controllability referee", _oracle)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--value-bound", type=int, default=DEFAULT_VALUE_BOUND)
    p.add_argument("--criterion", choices=CRITERIA, default="mode_span")
    p.add_argument("--include-d0", action=argparse.BooleanOptionalAction, default=True,
                   help="include the zeroth matrix power (disable for the literal 1..qn range)")

    p = _add_pattern_command(sub, "crosscheck", "flow vs. brute-force agreement over a (k, q) grid",
                             _crosscheck)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--qmax", type=int, required=True)

    p = sub.add_parser("flowdump", help="emit a flow network (JSON and/or DOT), solved")
    p.add_argument("pattern")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--lifted", action="store_true", help="emit the expanded unit-capacity network")
    p.add_argument("--witness-mode", action="store_true")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.add_argument("--dot-out", default=None)
    p.add_argument("--output", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_flowdump)

    p = sub.add_parser("bench", help="timing rows and fitted log-log slopes")
    p.add_argument("--nmin", type=int, default=50)
    p.add_argument("--nmax", type=int, default=400)
    p.add_argument("--density", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--output", choices=("json", "text"), default="json")
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if os.environ.get(CI_ENV_VAR) and getattr(args, "seed", 0) is None:
            raise _UsageError(f"--seed is required when {CI_ENV_VAR} is set")
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ScaleError as exc:
        print(f"scale error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
