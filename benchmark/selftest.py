"""Self-test of the benchmark's own code.

    python3 benchmark/selftest.py

Checks that the generators are deterministic per seed, that the hub
generator's constructed k* matches exhaustive enumeration, and that each
workload, run once at small sizes with tracing on, takes the decision paths
it exists to exercise and passes every correctness gate.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import unittest
from unittest import mock

import run

sys.path.insert(0, run.SRC)

import generators as G  # noqa: E402
from ops import ORACLE_SEED, Runner, trial_seed  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import KINDS, WORKLOADS, build_cases  # noqa: E402

from swenctrl.graph import kstar_brute, to_digraph  # noqa: E402
from swenctrl import oracle  # noqa: E402
from swenctrl.pattern import parse_pattern, sample_instance  # noqa: E402

SMALL = {
    "backbone": {"check": 24, "kstar": 16, "crosscheck": 6, "oracle": 5},
    "hub": {"check": 24, "kstar": 24, "crosscheck": 9, "oracle": 6},
    "sparse-fail": {"check": 40, "kstar": 40, "crosscheck": 6, "oracle": 5},
    "referee": {"check": 6, "kstar": 6, "crosscheck": 6, "oracle": 5},
}


def _pattern(p):
    return parse_pattern(G.grid_text(*p), "grid")


class GeneratorTest(unittest.TestCase):
    def test_deterministic_per_seed(self):
        for make in (lambda s: G.backbone(60, s), lambda s: G.hub(60, s),
                     lambda s: G.sparse_fail(60, s, False), lambda s: G.sparse_fail(60, s, True),
                     lambda s: G.small_random(9, s)):
            self.assertEqual(make(3), make(3))
            self.assertNotEqual(make(3), make(4))
        for name in WORKLOADS:
            a, b = build_cases(name, 5, SMALL[name]), build_cases(name, 5, SMALL[name])
            self.assertEqual([[c.key for c in a[k]] for k in KINDS],
                             [[c.key for c in b[k]] for k in KINDS])

    def test_grid_text_round_trips(self):
        for p in (G.backbone(30, 1), G.hub(30, 1), G.small_random(7, 1)):
            parsed = _pattern(p)
            self.assertEqual((parsed.n, parsed.m, parsed.stars), p)

    def test_hub_kstar_matches_enumeration(self):
        for n in range(1, 17):
            for seed in range(3):
                g = to_digraph(_pattern(G.hub(n, seed)))
                self.assertEqual(kstar_brute(g).value, G.hub_kstar(n), (n, seed))

    def test_family_properties(self):
        for seed in range(3):
            for p in (G.sparse_fail(30, seed, False), G.small_random(8, seed)):
                self.assertTrue(G.reachable(*p))
            self.assertFalse(G.reachable(*G.sparse_fail(30, seed, True)))
            g = to_digraph(_pattern(G.backbone(12, seed)))
            self.assertEqual(kstar_brute(g).value, 0)


class TailTest(unittest.TestCase):
    def test_ten_samples_above(self):
        value, pct = run.tail([float(i) for i in range(1, 101)])
        self.assertEqual((value, pct), (90.0, 90.0))
        self.assertEqual(run.tail([2.0, 1.0]), (2.0, 100.0))
        self.assertEqual(run.tail([float(i) for i in range(1, 11)]), (10.0, 100.0))
        self.assertEqual(run.tail([float(i) for i in range(1, 41)]), (30.0, 75.0))
        self.assertEqual(run.tail([float(i) for i in range(1, 5001)]), (4500.0, 90.0))


class OracleReplayTest(unittest.TestCase):
    def test_replay_uses_the_calls_seeds(self):
        """The traced replay samples with the seeds monte_carlo_controllable
        uses, so it times the same matrices as the call."""
        case = build_cases("referee", 1, SMALL["referee"])["oracle"][0]
        p = _pattern((case.n, case.m, case.stars))
        with mock.patch.object(oracle, "sample_instance", wraps=sample_instance) as spy:
            oracle.monte_carlo_controllable(p, case.k, case.q, 4, seed=ORACLE_SEED)
        seeds = [c.kwargs["seed"] for c in spy.call_args_list]
        self.assertEqual(seeds, [trial_seed(ORACLE_SEED, t) for t in range(1, 5)])


class WorkloadPathTest(unittest.TestCase):
    """Run every case of every kind once, traced, at small sizes."""

    @classmethod
    def setUpClass(cls):
        os.makedirs(run.OUT, exist_ok=True)
        cls.scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
        cls.results = {}
        for name in WORKLOADS:
            tracer = Tracer()
            speed = SpeedProbe()
            runner = Runner(run.ROOT, speed, tracer)
            cases = run.set_up(name, 1, cls.scratch, Runner(run.ROOT, speed), SMALL[name])
            for kind in KINDS:
                for case in cases[kind]:
                    runner.run(kind, case)
            runner.run("cli_import", cases["crosscheck"][0])
            metrics = {k: v for k, (v, _) in run.layer_metrics(tracer, speed.scale).items()}
            cls.results[name] = (runner, cases, metrics)

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.scratch, ignore_errors=True)

    def test_every_gate_passes(self):
        for name, (runner, _, _) in self.results.items():
            self.assertEqual(runner.failures, [], name)
            self.assertGreater(runner.peak_rss_kb, 0, name)

    def test_every_layer_metric_reported(self):
        for name, (_, _, metrics) in self.results.items():
            for key in ("pattern.parse_s", "cli.import_s", "flow.max_flow_s", "graph.brute_s",
                        "flow.transfer_s", "oracle.rank_s", "decide.kstar_probes"):
                self.assertGreater(metrics[key], 0, (name, key))

    def _paths(self, name):
        _, cases, m = self.results[name]
        return len(cases["check"]), len(cases["kstar"]), m

    def test_backbone_always_saturates(self):
        checks, kstars, m = self._paths("backbone")
        self.assertEqual(m["decide.path.saturated"], checks)
        self.assertEqual(m["decide.path.kstar_finite"], kstars)
        self.assertEqual(m["flow.min_cut_s"], 0.0)

    def test_hub_has_both_verdicts(self):
        checks, kstars, m = self._paths("hub")
        self.assertGreater(m["decide.path.saturated"], 0)
        self.assertGreater(m["decide.path.violating_subset"], 0)
        self.assertEqual(m["decide.path.saturated"] + m["decide.path.violating_subset"], checks)
        self.assertEqual(m["decide.path.kstar_finite"], kstars)

    def test_sparse_fail_never_saturates(self):
        checks, kstars, m = self._paths("sparse-fail")
        self.assertEqual(m["decide.path.saturated"], 0)
        self.assertGreater(m["decide.path.violating_subset"], m["decide.path.unreachable"])
        self.assertGreater(m["decide.path.unreachable"], 0)
        self.assertEqual(m["decide.path.kstar_infinite"], kstars)
        self.assertLessEqual(m["decide.kstar_probes"], 1)
        self.assertGreater(m["decide.witness_s"], 0)

    def test_referee_mixes_verdicts(self):
        _, _, m = self._paths("referee")
        self.assertGreater(m["decide.path.saturated"], 0)
        self.assertGreater(m["decide.path.violating_subset"], 0)
        self.assertGreater(m["graph.subsets"], 0)


if __name__ == "__main__":
    unittest.main()
