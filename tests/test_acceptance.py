"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; the combinatorial criteria admit zero
disagreements.
"""

import random
from time import perf_counter

from helpers import FIG1, FIG2A, INTEGRATOR, TWO_CYCLE, random_feasible_flow

from swenctrl.tools import bench_pattern, fit_loglog_slope, run_bench
from swenctrl.decide import check_structural, compute_kstar, recheck_certificate
from swenctrl.flow import (
    build_lifted_network,
    build_small_network,
    lift_flow,
    lifted_values,
    max_flow,
    project_flow,
    verify_flow,
)
from swenctrl.graph import brute_force_check, kstar_brute, reachability_check
from swenctrl.oracle import monte_carlo_controllable, oracle_agreement
from swenctrl.pattern import random_pattern
from swenctrl.results import EmptyAlphaIn, ViolatingSubset

DENSITIES = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]


def _report(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")


def _random_corpus(count_per_density: int, max_n: int, max_m: int, seed_base: int):
    patterns = []
    for d_idx, density in enumerate(DENSITIES):
        for s in range(count_per_density):
            seed = seed_base + 1000 * d_idx + s
            rng = random.Random(seed)
            patterns.append(
                random_pattern(rng.randint(1, max_n), rng.randint(0, max_m), density, seed)
            )
    return patterns


def test_criterion_1_flow_equals_counting():
    t0 = perf_counter()
    patterns = _random_corpus(56, max_n=6, max_m=3, seed_base=10_000)
    assert len(patterns) >= 500
    cells = 0
    disagreements = []
    for pattern in patterns:
        for k in range(5):
            for q in range(1, 6):
                cells += 1
                flow_decision = check_structural(pattern, k, q).decision
                brute_decision = brute_force_check(pattern, k, q).decision
                if flow_decision != brute_decision:
                    disagreements.append((sorted(pattern.stars), k, q))
    elapsed = perf_counter() - t0
    ok = not disagreements and elapsed < 120
    _report(1, "flow vs counting", ok,
            f"{len(patterns)} patterns, {cells} cells, "
            f"{len(disagreements)} disagreements, {elapsed:.1f}s")
    assert not disagreements, disagreements[:3]
    assert elapsed < 120


def test_criterion_2_expanded_network_value():
    t0 = perf_counter()
    patterns = _random_corpus(6, max_n=4, max_m=2, seed_base=20_000)
    assert len(patterns) >= 50
    mismatches = []
    for pattern in patterns:
        grid = lifted_values(pattern, 2, 3)
        for k in (0, 1, 2):
            for q in (1, 2, 3):
                theta = max_flow(build_small_network(pattern, k, q)).value_total
                theta_hat = max_flow(build_lifted_network(pattern, k, q)).value_total
                matching = grid[k][q - 1]
                if not theta == theta_hat == matching:
                    mismatches.append((sorted(pattern.stars), k, q, theta, theta_hat, matching))
    elapsed = perf_counter() - t0
    ok = not mismatches and elapsed < 60
    _report(2, "compact vs expanded max flow and matching", ok,
            f"{len(patterns)} patterns x 9 cells, {len(mismatches)} mismatches, {elapsed:.1f}s")
    assert not mismatches, mismatches[:3]
    assert elapsed < 60


def test_criterion_3_flow_transfer():
    rng = random.Random(30_000)
    down = up = 0
    while down < 200 or up < 200:
        seed = rng.randint(0, 10**9)
        pattern = random_pattern(rng.randint(1, 3), rng.randint(0, 2), rng.random(), seed)
        k, q = rng.randint(0, 2), rng.randint(1, 3)
        small = build_small_network(pattern, k, q)
        lifted = build_lifted_network(pattern, k, q)
        if down < 200:
            f_hat = random_feasible_flow(lifted, seed)
            assert verify_flow(lifted, f_hat)
            projected = project_flow(f_hat, lifted, small)
            assert verify_flow(small, projected)
            assert projected.value_total == f_hat.value_total
            down += 1
        if up < 200:
            f = random_feasible_flow(small, seed + 1)
            assert verify_flow(small, f)
            lifted_flow = lift_flow(f, small, lifted)
            assert verify_flow(lifted, lifted_flow)
            assert lifted_flow.value_total == f.value_total
            up += 1
    _report(3, "flow transfer", True,
            f"{down} projections and {up} lifts feasible with value preserved exactly")


def test_criterion_4_minimal_switch_count():
    patterns = _random_corpus(18, max_n=6, max_m=3, seed_base=40_000)
    mismatches = []
    boundary_failures = []
    finite = 0
    for pattern in patterns:
        searched = compute_kstar(pattern)
        enumerated = kstar_brute(pattern)
        if searched.value != enumerated.value:
            mismatches.append((sorted(pattern.stars), searched.value, enumerated.value))
            continue
        if searched.is_infinite:
            continue
        finite += 1
        qbar = pattern.m * pattern.n + 1
        target = pattern.n * qbar
        at = max_flow(build_small_network(pattern, searched.value, qbar)).value_total
        if at != target:
            boundary_failures.append((sorted(pattern.stars), "at", searched.value))
        if searched.value >= 1:
            below = max_flow(build_small_network(pattern, searched.value - 1, qbar)).value_total
            if below >= target:
                boundary_failures.append((sorted(pattern.stars), "below", searched.value))
    two_cycle = compute_kstar(TWO_CYCLE)
    regression_ok = two_cycle.value == 0
    ok = not mismatches and not boundary_failures and regression_ok and finite > 0
    _report(4, "minimal switch count", ok,
            f"{len(patterns)} patterns, {finite} finite, {len(mismatches)} mismatches, "
            f"{len(boundary_failures)} boundary failures, two-cycle k*={two_cycle.value}")
    assert not mismatches, mismatches[:3]
    assert not boundary_failures, boundary_failures[:3]
    assert regression_ok


def test_criterion_5_worked_examples():
    failures = []

    theta13 = max_flow(build_small_network(FIG2A, 1, 3)).value_total
    theta23 = max_flow(build_small_network(FIG2A, 2, 3)).value_total
    if theta13 != 5:
        failures.append(f"theta(1,3)={theta13}")
    if theta23 != 6:
        failures.append(f"theta(2,3)={theta23}")
    v13 = check_structural(FIG2A, 1, 3)
    v23 = check_structural(FIG2A, 2, 3)
    if v13.decision or not v23.decision:
        failures.append(f"verdicts ({v13.decision}, {v23.decision})")
    if not isinstance(v13.certificate, ViolatingSubset) or v13.certificate.subset != frozenset({1}):
        failures.append(f"witness {v13.certificate}")

    if reachability_check(FIG1) != frozenset():
        failures.append("fig1 reachability")
    if not check_structural(FIG1, 0, 1).decision:
        failures.append("fig1 (0,1)")
    fig1_kstar = compute_kstar(FIG1)
    if not (fig1_kstar.is_infinite and fig1_kstar.witness == EmptyAlphaIn(frozenset({2}))):
        failures.append(f"fig1 kstar {fig1_kstar}")

    if check_structural(INTEGRATOR, 0, 2).decision:
        failures.append("integrator (0,2)")
    if not check_structural(INTEGRATOR, 1, 2).decision:
        failures.append("integrator (1,2)")

    _report(5, "worked examples", not failures, f"failures: {failures or 'none'}")
    assert not failures


def test_criterion_6_oracle_agreement():
    corpus = [
        ("fig2a", FIG2A),
        ("two_cycle", TWO_CYCLE),
        ("integrator", INTEGRATOR),
    ]
    report = oracle_agreement(corpus, k_max=2, q_max=3, trials=10, seed=60_000)
    report_fig1 = oracle_agreement([("fig1", FIG1)], k_max=1, q_max=2, trials=10, seed=60_001)
    hard = list(report.hard_disagreements) + list(report_fig1.hard_disagreements)
    misses = list(report.genericity_misses) + list(report_fig1.genericity_misses)
    # A persistent miss fails the build only if it reproduces at a 10x larger
    # value bound.
    reproduced = []
    for miss in misses:
        name, rest = miss.split(" k=")
        k = int(rest.split(" ")[0])
        q = int(rest.split("q=")[1].split(":")[0])
        pattern = dict(corpus + [("fig1", FIG1)])[name]
        ok, _ = monte_carlo_controllable(pattern, k, q, trials=40, seed=61_000,
                                         value_bound=100_070)
        if not ok:
            reproduced.append(miss)
    cells = len(report.cells) + len(report_fig1.cells)
    ok = not hard and not reproduced
    _report(6, "numerical referee agreement", ok,
            f"{cells} cells, hard disagreements: {len(hard)}, "
            f"genericity misses: {len(misses)} (reproduced at 10x bound: {len(reproduced)})")
    assert not hard, hard
    assert not reproduced, reproduced
    if misses:
        print(f"  findings (non-fatal genericity misses): {misses}")


def test_criterion_7_certificate_soundness():
    patterns = _random_corpus(14, max_n=6, max_m=3, seed_base=70_000)
    patterns += [FIG2A, FIG1, TWO_CYCLE, INTEGRATOR]
    false_verdicts = 0
    bad = []
    for pattern in patterns:
        for k in (0, 1, 3):
            for q in (1, 2, 5):
                verdict = check_structural(pattern, k, q)
                if verdict.decision:
                    continue
                false_verdicts += 1
                if verdict.certificate is None or not recheck_certificate(pattern, verdict):
                    bad.append((sorted(pattern.stars), k, q))
    ok = not bad and false_verdicts > 100
    _report(7, "certificate soundness", ok,
            f"{false_verdicts} false verdicts, {len(bad)} failed independent re-verification")
    assert false_verdicts > 100
    assert not bad, bad[:3]


def test_criterion_8_scaling_proxy():
    result = run_bench(50, 400, density=0.05, seed=80_000, repeats=2)
    ns = [row["n"] for row in result["rows"]]
    assert ns == [50, 100, 200, 400]
    check_slope = fit_loglog_slope(ns, [row["check_s"] for row in result["rows"]])
    kstar_slope = fit_loglog_slope(ns, [row["kstar_s"] for row in result["rows"]])
    monotone = all(
        result["rows"][i]["maxflow_s"] <= result["rows"][i + 1]["maxflow_s"] * 4
        for i in range(len(ns) - 1)
    )
    t0 = perf_counter()
    check_structural(bench_pattern(200, 0.05, seed=80_001), 1, 3)
    single_200 = perf_counter() - t0
    ok = check_slope <= 3.5 and kstar_slope <= 3.8 and single_200 < 5.0 and monotone
    _report(8, "scaling proxy", ok,
            f"check slope {check_slope:.2f} (<= 3.5), kstar slope {kstar_slope:.2f} (<= 3.8), "
            f"n=200 check {single_200 * 1000:.1f}ms (< 5s)")
    assert check_slope <= 3.5
    assert kstar_slope <= 3.8
    assert single_200 < 5.0
