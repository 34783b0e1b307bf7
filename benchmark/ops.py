"""Operations the benchmark times, the correctness gate each answer must
pass, and, in the traced run, the replay of each operation's layers.

Untraced, an operation is one public call (or one CLI subprocess) timed
with perf_counter.  Traced, the same call runs once bare and once inside a
span, and then the benchmark replays the public functions of each module
that the call is made of, one span each, under the operation's root span.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from time import perf_counter

from swenctrl.decide import (
    check_structural,
    compute_kstar,
    crosscheck,
    recheck_certificate,
    witness_from_cut,
)
from swenctrl.flow import (
    build_lifted_network,
    build_small_network,
    lift_flow,
    max_flow,
    min_cut,
    project_flow,
    verify_flow,
)
from swenctrl.graph import (
    brute_force_check,
    core_condition_holds,
    kstar_brute,
    reachability_check,
    to_digraph,
)
from swenctrl.oracle import controllability_rank, monte_carlo_controllable
from swenctrl.pattern import parse_pattern, sample_instance
from swenctrl.results import kstar_to_dict, verdict_to_dict

from generators import hub_kstar
from speed import start_probe


ORACLE_SEED = 1

# Runs the CLI as `python -m swenctrl.cli` does, and at exit writes the
# process's own peak RSS (VmHWM, kB) as the last line of stderr.  The
# child's ru_maxrss cannot be used: on Linux it includes the pages of the
# benchmark process it was forked from.
CLI_MAIN = """\
import atexit, runpy, sys

def _peak():
    with open("/proc/self/status", encoding="ascii") as fh:
        kb = next(line.split()[1] for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write(f"\\nVmHWM {kb}\\n")

atexit.register(_peak)
runpy.run_module("swenctrl.cli", run_name="__main__", alter_sys=True)
"""


def trial_seed(seed: int, t: int) -> int:
    """The sample seed of trial t (1-based) in monte_carlo_controllable(...,
    seed), so that the traced replay times the same matrices as the call."""
    return (seed * 6364136223846793005 + 1442695040888963407 * t) % (1 << 64)


class GateError(Exception):
    """An answer that is wrong or cannot be verified."""


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise GateError(message)


def _json(obj: dict) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _name(cert) -> str:
    return type(cert).__name__


class Runner:
    """Runs operations of one workload and keeps their latencies, failures
    and cached in-process answers (the reference for the CLI output)."""

    def __init__(self, root: str, speed, tracer=None):
        self.speed = speed
        self.tracer = tracer
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.env.pop("PYTHONSTARTUP", None)
        self.root = root
        self.latency: dict[str, list[tuple[float, float]]] = {}  # kind -> (start, seconds)
        self.attempted = 0
        self.failures: list[str] = []
        self.genericity_misses = 0
        self.peak_rss_kb = 0  # largest peak RSS of a CLI subprocess
        self._verdicts: dict = {}
        self._kstars: dict = {}
        self._reference: dict = {}

    def run(self, kind: str, case) -> None:
        """Run and gate one operation; an exception or a failed gate counts
        it as failed."""
        self.attempted += 1
        start = perf_counter()
        try:
            if self.tracer is None:
                dt = getattr(self, f"_{kind}")(case)
            else:
                with self.tracer.request(f"op.{kind}", n=case.n, k=case.k, q=case.q) as root:
                    dt = getattr(self, f"_traced_{kind}")(case, root)
        except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
            self.failures.append(f"{kind} {case.family} n={case.n} k={case.k} q={case.q}: "
                                 f"{type(exc).__name__}: {exc}")
            return
        self.latency.setdefault(kind, []).append((start, dt))

    # -- answers and their gates -------------------------------------------

    def _gate_check(self, case, v) -> None:
        _expect(recheck_certificate(case.pattern, v), "certificate fails recheck_certificate")
        if case.expect is None:
            ref = self._brute(case)
            expect = (ref.decision, _name(ref.certificate))
        else:
            expect = case.expect
        _expect((v.decision, _name(v.certificate)) == expect,
                f"verdict {(v.decision, _name(v.certificate))} != expected {expect}")
        self._verdicts.setdefault((case.key, case.k, case.q), v)

    def _gate_kstar(self, case, r) -> None:
        if case.expect is None:
            ref = self._kstar_ref(case)
            expect = (ref.value, _name(ref.witness) if ref.value is None else "NoneType")
        else:
            expect = case.expect
        _expect((r.value, _name(r.witness)) == expect,
                f"kstar {(r.value, _name(r.witness))} != expected {expect}")
        self._kstars.setdefault(case.key, r)

    def _brute(self, case):
        key = ("brute", case.key, case.k, case.q)
        if key not in self._reference:
            self._reference[key] = brute_force_check(to_digraph(case.pattern), case.k, case.q)
        return self._reference[key]

    def _kstar_ref(self, case):
        key = ("kstar_brute", case.key)
        if key not in self._reference:
            self._reference[key] = kstar_brute(to_digraph(case.pattern))
        return self._reference[key]

    def _structural(self, case) -> bool:
        key = ("structural", case.key, case.k, case.q)
        if key not in self._reference:
            self._reference[key] = check_structural(case.pattern, case.k, case.q).decision
        return self._reference[key]

    def _expected_stdout(self, kind: str, case) -> str:
        if kind == "cli_check":
            v = self._verdicts.get((case.key, case.k, case.q))
            if v is None:
                v = check_structural(case.pattern, case.k, case.q)
                self._gate_check(case, v)
            return _json(verdict_to_dict(v))
        r = self._kstars.get(case.key)
        if r is None:
            r = compute_kstar(case.pattern)
            self._gate_kstar(case, r)
        return _json(kstar_to_dict(r))

    def _gate_crosscheck(self, case, report) -> None:
        _expect(report.agree, f"crosscheck disagreements: {list(report.disagreements)[:2]}")
        if case.family == "hub":
            _expect(report.kstar_search == hub_kstar(case.n), "hub k* != constructed value")
        if case.family == "backbone":
            _expect(report.kstar_search == 0, "backbone k* != 0")

    def _gate_oracle(self, case, controllable: bool, successes: int) -> None:
        structural = self._structural(case)
        _expect(structural or successes == 0,
                f"hard disagreement: structurally uncontrollable but {successes} full-rank samples")
        if structural and not controllable:
            self.genericity_misses += 1

    # -- untraced operations: return the latency ---------------------------

    def _check(self, case) -> float:
        t0 = perf_counter()
        v = check_structural(case.pattern, case.k, case.q)
        dt = perf_counter() - t0
        self._gate_check(case, v)
        return dt

    def _kstar(self, case) -> float:
        t0 = perf_counter()
        r = compute_kstar(case.pattern)
        dt = perf_counter() - t0
        self._gate_kstar(case, r)
        return dt

    def _cli(self, kind: str, case) -> tuple[float, str]:
        argv = [sys.executable, "-c", CLI_MAIN, kind[4:], case.path]
        if kind == "cli_check":
            argv += ["--k", str(case.k), "--q", str(case.q)]
        self.speed.record("start", perf_counter(), start_probe(self.env, self.root))
        t0 = perf_counter()
        proc = subprocess.run(argv, capture_output=True, env=self.env, cwd=self.root, check=False)
        dt = perf_counter() - t0
        err = proc.stderr.decode(errors="replace")
        _expect(proc.returncode == 0, f"exit {proc.returncode}: {err[-200:]}")
        last = err.rstrip("\n").rsplit("\n", 1)[-1]
        _expect(last.startswith("VmHWM "), "CLI wrote no peak RSS")
        self.peak_rss_kb = max(self.peak_rss_kb, int(last.split()[1]))
        return dt, proc.stdout.decode()

    def _cli_op(self, kind: str, case) -> float:
        dt, out = self._cli(kind, case)
        _expect(out == self._expected_stdout(kind, case),
                "CLI stdout differs from the in-process JSON")
        return dt

    def _cli_check(self, case) -> float:
        return self._cli_op("cli_check", case)

    def _cli_kstar(self, case) -> float:
        return self._cli_op("cli_kstar", case)

    def _crosscheck(self, case) -> float:
        t0 = perf_counter()
        report = crosscheck(case.pattern, case.k, case.q)
        dt = perf_counter() - t0
        self._gate_crosscheck(case, report)
        return dt

    def _oracle(self, case) -> float:
        return self._oracle_call(case)[0]

    def _oracle_call(self, case) -> tuple[float, int]:
        t0 = perf_counter()
        controllable, successes = monte_carlo_controllable(
            case.pattern, case.k, case.q, case.trials, seed=ORACLE_SEED)
        dt = perf_counter() - t0
        self._gate_oracle(case, controllable, successes)
        return dt, successes

    # -- traced operations: bare call, traced call, layer replay -----------

    def _span(self, name: str, **attrs):
        return self.tracer.span(name, **attrs)

    def _traced_check(self, case, root) -> float:
        # Bare and traced calls alternate which goes first, so that their
        # difference (the tracing overhead) carries no warm-cache bias.
        bare_first = root["request"] % 2 == 0
        if bare_first:
            dt = self._check(case)
        with self._span("decide.check_structural"):
            v = check_structural(case.pattern, case.k, case.q)
        if not bare_first:
            dt = self._check(case)
        root["attrs"]["bare_s"] = dt
        root["attrs"]["path"] = self._replay_check(case, v)
        with self._span("decide.recheck_certificate"):
            ok = recheck_certificate(case.pattern, v)
        _expect(ok, "certificate fails recheck_certificate")
        return dt

    def _replay_check(self, case, v) -> str:
        """Replay check_structural's layers; returns the path it took."""
        p, k, q = case.pattern, case.k, case.q
        with self._span("graph.to_digraph"):
            g = to_digraph(p)
        with self._span("graph.reachability_check"):
            unreachable = reachability_check(g)
        if unreachable:
            _expect(_name(v.certificate) == "Unreachable", "replay diverged: unreachable")
            return "unreachable"
        with self._span("flow.build_small_network") as s:
            net = build_small_network(g, k, q, witness_mode=True)
        s["attrs"].update(nodes=len(net.nodes), arcs=len(net.arcs))
        with self._span("flow.max_flow"):
            f = max_flow(net)
        _expect(f.value_total == v.stats.theta, "replay diverged: max-flow value")
        if f.value_total == p.n * q:
            return "saturated"
        with self._span("flow.min_cut"):
            cut = min_cut(net, f)
        with self._span("decide.witness"):
            subset = witness_from_cut(g, k, q, cut)
            core_condition_holds(g, k, q, subset)
        _expect(subset == v.certificate.subset, "replay diverged: witness subset")
        return "violating_subset"

    def _traced_kstar(self, case, root) -> float:
        dt = self._kstar(case)
        root["attrs"]["bare_s"] = dt
        with self._span("decide.compute_kstar"):
            r = compute_kstar(case.pattern)
        root["attrs"]["path"] = "kstar_infinite" if r.value is None else "kstar_finite"
        p = case.pattern
        with self._span("graph.to_digraph"):
            g = to_digraph(p)
        with self._span("graph.reachability_check"):
            reachability_check(g)
        qbar = p.m * p.n + 1
        for k, theta, _ in r.trace:
            with self._span("decide.kstar_probe_build"):
                net = build_small_network(g, k, qbar, witness_mode=True)
            with self._span("decide.kstar_probe_max_flow"):
                f = max_flow(net)
            _expect(f.value_total == theta, "replay diverged: probe value")
        if r.value is None and r.trace:
            with self._span("flow.min_cut"):
                min_cut(net, f)
        return dt

    def _traced_cli(self, kind: str, case, root) -> float:
        with self._span("cli.subprocess"):
            dt, out = self._cli(kind, case)
        root["attrs"]["bare_s"] = dt
        with self._span("pattern.parse_pattern", bytes=len(case.text.encode())):
            parse_pattern(case.text, "grid")
        expected = self._expected_stdout(kind, case)
        with self._span("results.to_json"):
            if kind == "cli_check":
                _json(verdict_to_dict(self._verdicts[(case.key, case.k, case.q)]))
            else:
                _json(kstar_to_dict(self._kstars[case.key]))
        _expect(out == expected, "CLI stdout differs from the in-process JSON")
        return dt

    def _traced_cli_check(self, case, root) -> float:
        return self._traced_cli("cli_check", case, root)

    def _traced_cli_kstar(self, case, root) -> float:
        return self._traced_cli("cli_kstar", case, root)

    def _traced_cli_import(self, case, root) -> float:
        """Interpreter start with and without `import swenctrl.cli`."""
        with self._span("cli.bare_start"):
            t0 = perf_counter()
            bare = start_probe(self.env, self.root)
        self.speed.record("start", t0, bare)
        with self._span("cli.import_start"):
            t0 = perf_counter()
            proc = subprocess.run([sys.executable, "-c", "import swenctrl.cli"],
                                  capture_output=True, env=self.env, cwd=self.root, check=False)
            dt = perf_counter() - t0
        _expect(proc.returncode == 0, f"import swenctrl.cli exited {proc.returncode}")
        root["attrs"]["import_s"] = dt - bare
        return dt

    def _traced_crosscheck(self, case, root) -> float:
        dt = self._crosscheck(case)
        root["attrs"]["bare_s"] = dt
        with self._span("decide.crosscheck"):
            crosscheck(case.pattern, case.k, case.q)
        p = case.pattern
        g = to_digraph(p)
        full = (1 << p.n) - 1
        subsets = 0
        for k in range(case.k + 1):
            for q in range(1, case.q + 1):
                with self._span("graph.brute_force_check"):
                    brute = brute_force_check(g, k, q)
                # brute_force_check enumerates every subset unless the pattern
                # is unreachable; crosscheck's counting_violation always does.
                subsets += full * (1 + (_name(brute.certificate) != "Unreachable"))
                small = build_small_network(g, k, q)
                f = max_flow(small)
                with self._span("flow.build_lifted_network") as s:
                    lifted = build_lifted_network(g, k, q)
                s["attrs"]["arcs"] = len(lifted.arcs)
                with self._span("flow.lifted_max_flow"):
                    f_hat = max_flow(lifted)
                with self._span("flow.transfer"):
                    down = project_flow(f_hat, lifted, small)
                    up = lift_flow(f, small, lifted)
                    ok = verify_flow(small, down) and verify_flow(lifted, up)
                _expect(ok and down.value_total == f_hat.value_total == up.value_total,
                        "flow transfer broke feasibility or value")
        with self._span("graph.kstar_brute"):
            r = kstar_brute(g)
        # kstar_brute stops at the first subset with no state in-neighbour;
        # subsets are enumerated in ascending bitmask order.
        if _name(r.witness) == "EmptyAlphaIn":
            subsets += sum(1 << (i - 1) for i in r.witness.subset)
        elif r.value is not None:
            subsets += full
        root["attrs"]["subsets"] = subsets
        return dt

    def _traced_oracle(self, case, root) -> float:
        dt, successes = self._oracle_call(case)
        root["attrs"].update(bare_s=dt, trials=case.trials, successes=successes)
        for t in range(1, case.trials + 1):
            with self._span("oracle.sample_instance"):
                inst = sample_instance(case.pattern, case.k, case.q,
                                       seed=trial_seed(ORACLE_SEED, t))
            with self._span("oracle.controllability_rank"):
                controllability_rank(inst)
        return dt
