"""Command-line front end.

Subcommands: check, kstar, brute, oracle, crosscheck, flowdump, bench.
Exit status: 0 on successful execution regardless of verdict, 1 on usage
errors, 2 on input/parse errors, 3 on scale/overflow guards.  JSON output is
byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import json
import sys

# check and kstar need only the decision core; every other subcommand
# imports its modules (flow, graph, decide, oracle, tools) inside its handler.
from . import __version__
from .core import check_structural, compute_kstar
from .errors import ParseError, ScaleError
from .pattern import CRITERIA, DEFAULT_VALUE_BOUND, SparsityPattern, parse_pattern
from .results import kstar_to_dict, verdict_to_dict


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


def _run_on_pattern(args) -> int:
    """Load the pattern, let the subcommand compute its answer, then write
    --dot-out and print.  The file is written only once the answer exists,
    so a command that fails writes none."""
    pattern = _load_pattern(args.pattern)
    obj, text_lines = args.answer(args, pattern)
    if args.dot_out:
        from .graph import to_dot

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
    from .graph import brute_force_check

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
    from .oracle import monte_carlo_controllable

    controllable, successes = monte_carlo_controllable(
        pattern, args.k, args.q, args.trials, args.seed,
        value_bound=args.value_bound, criterion=args.criterion,
    )
    obj = {
        "controllable": controllable,
        "successes": successes,
        "trials": args.trials,
        "k": args.k,
        "q": args.q,
        "full_dim": pattern.n * args.q,
        "criterion": args.criterion,
        "value_bound": args.value_bound,
        "seed": args.seed,
    }
    return obj, [
        f"controllable: {controllable} ({successes}/{args.trials} full-rank samples)",
    ]


def _crosscheck(args, pattern: SparsityPattern):
    from .decide import crosscheck, crosscheck_to_dict

    report = crosscheck(pattern, args.kmax, args.qmax)
    return crosscheck_to_dict(report), [
        f"cells: {len(report.cells)}  agree: {report.agree}",
        *report.disagreements,
    ]


def _run_tool(args) -> int:
    """flowdump and bench, whose handlers live in tools, which only they load."""
    from . import tools

    if args.command == "flowdump":
        return tools.flowdump(args, _load_pattern(args.pattern))
    return tools.bench(args)


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


def _add_check(sub) -> None:
    p = _add_pattern_command(sub, "check", "decide structural controllability for (k, q)", _check)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)


def _add_brute(sub) -> None:
    p = _add_pattern_command(sub, "brute", "force the subset-enumeration path (n <= 24)", _brute)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)


def _add_kstar(sub) -> None:
    _add_pattern_command(sub, "kstar", "minimal switch count working for every ensemble size",
                         _kstar)


def _add_oracle(sub) -> None:
    p = _add_pattern_command(sub, "oracle", "random-realization controllability referee", _oracle)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--trials", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--value-bound", type=int, default=DEFAULT_VALUE_BOUND)
    p.add_argument("--criterion", choices=CRITERIA, default="invariant_closure")


def _add_crosscheck(sub) -> None:
    p = _add_pattern_command(sub, "crosscheck", "flow vs. brute-force agreement over a (k, q) grid",
                             _crosscheck)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--qmax", type=int, required=True)


def _add_flowdump(sub) -> None:
    p = sub.add_parser("flowdump", help="emit a flow network (JSON and/or DOT), solved")
    p.add_argument("pattern")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--lifted", action="store_true", help="emit the expanded unit-capacity network")
    p.add_argument("--witness-mode", action="store_true")
    p.add_argument("--out", default=None, help="write JSON here instead of stdout")
    p.add_argument("--dot-out", default=None)
    p.add_argument("--output", choices=("json", "text"), default="json")
    p.set_defaults(func=_run_tool)


def _add_bench(sub) -> None:
    p = sub.add_parser("bench", help="timing rows and fitted log-log slopes")
    p.add_argument("--nmin", type=int, default=50)
    p.add_argument("--nmax", type=int, default=400)
    p.add_argument("--density", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--q", type=int, default=3)
    p.add_argument("--output", choices=("json", "text"), default="json")
    p.set_defaults(func=_run_tool)


# In the order the top-level help lists them.
_SUBCOMMANDS = {
    "check": _add_check,
    "brute": _add_brute,
    "kstar": _add_kstar,
    "oracle": _add_oracle,
    "crosscheck": _add_crosscheck,
    "flowdump": _add_flowdump,
    "bench": _add_bench,
}


def build_parser(command: str | None = None) -> _Parser:
    """The CLI's parser.  Given the name of a subcommand, it holds only that
    subcommand's parser, which parses that command's arguments, help and
    errors exactly as the full parser does; otherwise it holds all seven."""
    parser = _Parser(prog="swenctrl", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    if command in _SUBCOMMANDS:
        _SUBCOMMANDS[command](sub)
    else:
        for add in _SUBCOMMANDS.values():
            add(sub)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
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
