import random

import pytest
from helpers import FIG1, FIG2A, INTEGRATOR, TWO_CYCLE, hub_pattern, reference_kstar

import swenctrl.decide
from swenctrl.decide import (
    check_structural,
    compute_kstar,
    crosscheck,
    crosscheck_to_dict,
    recheck_certificate,
    witness_from_cut,
)
from swenctrl.errors import ConsistencyError, ScaleError
from swenctrl.flow import augment, build_small_network, max_flow, min_cut, residual_min_cut
from swenctrl.graph import brute_force_check, core_condition_holds, kstar_brute
from swenctrl.pattern import SparsityPattern, random_pattern
from swenctrl.results import (
    EmptyAlphaIn,
    Saturated,
    Unreachable,
    ViolatingSubset,
    verdict_to_dict,
)


def test_check_fig2a_negative():
    v = check_structural(FIG2A, 1, 3)
    assert not v.decision
    assert v.stats.theta == 5 and v.stats.target == 6
    assert v.certificate == ViolatingSubset(frozenset({1}), 2, 3, 1, 3)


def test_check_fig2a_positive():
    v = check_structural(FIG2A, 2, 3)
    assert v.decision
    assert v.certificate == Saturated(6)
    assert v.stats.theta == 6


def test_check_integrator_pair():
    assert not check_structural(INTEGRATOR, 0, 2).decision
    assert check_structural(INTEGRATOR, 1, 2).decision


def test_check_unreachable_certificate():
    p = SparsityPattern(2, 1, frozenset({(1, 3)}))  # a_2 has no incoming path
    v = check_structural(p, 3, 1)
    assert not v.decision
    assert v.certificate == Unreachable(frozenset({2}))
    assert v.stats.theta is None


def test_check_no_controls():
    p = SparsityPattern(2, 0, frozenset({(1, 2), (2, 1)}))
    v = check_structural(p, 0, 1)
    assert not v.decision
    assert isinstance(v.certificate, Unreachable)


def test_check_fig1_classical_case():
    assert reach_ok(FIG1)
    assert check_structural(FIG1, 0, 1).decision


def reach_ok(p):
    from swenctrl.graph import reachability_check

    return not reachability_check(p)


def test_check_rejects_bad_kq():
    with pytest.raises(ValueError):
        check_structural(FIG2A, -1, 1)
    with pytest.raises(ValueError):
        check_structural(FIG2A, 0, 0)


def test_witness_from_cut_examples():
    for k, q, expected in [(1, 3, frozenset({1})), (0, 2, frozenset({1}))]:
        net = build_small_network(FIG2A, k, q, witness_mode=True)
        f = max_flow(net)
        assert f.value_total < FIG2A.n * q
        subset = witness_from_cut(FIG2A, k, q, min_cut(net, f))
        assert subset == expected
        holds, lhs, rhs = core_condition_holds(FIG2A, k, q, subset)
        assert not holds


def test_witness_from_cut_random_always_violates():
    for seed in range(60):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 6), rng.randint(0, 3), rng.random(), seed)
        k, q = rng.randint(0, 3), rng.randint(1, 5)
        net = build_small_network(p, k, q, witness_mode=True)
        f = max_flow(net)
        if f.value_total == p.n * q:
            continue
        subset = witness_from_cut(p, k, q, min_cut(net, f))
        assert not core_condition_holds(p, k, q, subset)[0]


def test_witness_from_cut_fallback_enumeration():
    # There is no enumeration fallback: a bogus all-nodes "cut" yields the
    # empty subset, and a cut with only mu_2 on the sink side yields {2}; both
    # satisfy the counting condition, so both raise.
    net = build_small_network(FIG2A, 1, 3, witness_mode=True)
    for bogus_cut in (frozenset(net.nodes), frozenset(net.nodes) - {("mu", 2)}):
        with pytest.raises(ConsistencyError, match="not a witness-mode min cut"):
            witness_from_cut(FIG2A, 1, 3, bogus_cut)


def test_witness_from_cut_unavailable_beyond_enumeration():
    # Beyond the old enumeration size (25 states) a subset that fails to
    # re-verify raises the same ConsistencyError.
    p = SparsityPattern(25, 1, frozenset({(i, 26) for i in range(1, 26)}))
    with pytest.raises(ConsistencyError, match="not a witness-mode min cut"):
        witness_from_cut(p, 0, 2, frozenset({"s"}) | {("mu", j) for j in range(1, 26)})


def test_kstar_two_cycle_regression():
    # The printed search initialization k_min = 1 would wrongly return 1 here.
    r = compute_kstar(TWO_CYCLE)
    assert r.value == 0
    assert r.trace[0][0] == TWO_CYCLE.n - 1


def test_kstar_fig2a_infinite():
    r = compute_kstar(FIG2A)
    assert r.is_infinite
    assert r.witness == EmptyAlphaIn(frozenset({1}))


def test_kstar_fig1_infinite():
    r = compute_kstar(FIG1)
    assert r.is_infinite
    assert r.witness == EmptyAlphaIn(frozenset({2}))


def test_kstar_unreachable_witness():
    p = SparsityPattern(2, 0, frozenset({(1, 1), (2, 2)}))
    r = compute_kstar(p)
    assert r.is_infinite
    assert r.witness == Unreachable(frozenset({1, 2}))


def test_kstar_trace_probes_saturating_q():
    p = TWO_CYCLE
    qbar = p.m * p.n + 1
    r = compute_kstar(p)
    assert all(target == p.n * qbar for _, _, target in r.trace)
    for k, theta, target in r.trace:
        assert theta == max_flow(build_small_network(p, k, qbar)).value_total


def test_kstar_matches_enumeration_random():
    for seed in range(80):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 6), rng.randint(0, 3), rng.random(), seed)
        assert compute_kstar(p).value == kstar_brute(p).value


def few_in_neighbours_pattern(n, rng):
    """One or two state in-neighbours per state, drawn mostly from the first
    third of the states, and one input feeding every state."""
    stars = {(i, n + 1) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for _ in range(rng.choice([1, 1, 1, 2])):
            stars.add((i, rng.choice([rng.randint(1, max(1, n // 3)), rng.randint(1, n)])))
    return SparsityPattern(n, 1, frozenset(stars))


def test_kstar_matches_cold_search_random(monkeypatch):
    cut_reads = []

    def counted(*args):
        cut_reads[-1] += 1
        return residual_min_cut(*args)

    monkeypatch.setattr(swenctrl.decide, "residual_min_cut", counted)
    empty_alpha_in = failing_probes = 0
    for seed in range(900):
        rng = random.Random(seed)
        if seed % 3:
            p = random_pattern(rng.randint(1, 12), rng.randint(1, 3), rng.uniform(0.1, 0.5), seed)
        else:
            p = few_in_neighbours_pattern(rng.randint(2, 12), rng)
        cut_reads.append(0)
        r = compute_kstar(p)
        assert r == reference_kstar(p), seed
        empty_alpha_in += isinstance(r.witness, EmptyAlphaIn)
        failing_probes += any(theta < target for _, theta, target in r.trace[1:])
    assert empty_alpha_in > 30 and failing_probes > 100
    assert sum(reads >= 2 for reads in cut_reads) > 20  # ascents of two or more steps


def fan_pattern(n):
    """State 1 (with a self-loop) feeds every state; k* = n - 1."""
    return SparsityPattern(n, 1, frozenset({(i, 1) for i in range(1, n + 1)} | {(1, n + 1)}))


def chain_pattern(n):
    """Chain 1 -> 2 -> ... -> n with a self-loop on its input-fed head; k* = 1."""
    return SparsityPattern(n, 1, frozenset({(1, 1), (1, n + 1)} | {(j, j - 1) for j in range(2, n + 1)}))


@pytest.mark.parametrize("pattern, kstar", [
    (hub_pattern(64), 7),
    (fan_pattern(9), 8),
    (chain_pattern(10), 1),
], ids=["hub64", "fan9", "chain10"])
def test_kstar_matches_cold_search_shapes(pattern, kstar):
    r = compute_kstar(pattern)
    assert r.value == kstar
    assert r == reference_kstar(pattern)
    assert any(theta < target for _, theta, target in r.trace)


def backbone_pattern(n):
    """Self-loops plus one input feeding every state; k* = 0."""
    return SparsityPattern(n, 1, frozenset({(i, i) for i in range(1, n + 1)}
                                           | {(i, n + 1) for i in range(1, n + 1)}))


@pytest.mark.parametrize("pattern, kstar, solves", [
    (backbone_pattern(50), 0, 1),
    # ascent k = 0 -> 7, then the trace's failing probes k = 3, 5, 6
    (hub_pattern(64), 7, 5),
    # ascent k = 0 -> 7, then the trace's one failing probe k = 6
    (hub_pattern(800), 7, 3),
], ids=["backbone50", "hub64", "hub800"])
def test_kstar_solve_count(monkeypatch, pattern, kstar, solves):
    calls = []

    def counted(res):
        calls.append(1)
        return augment(res)

    monkeypatch.setattr(swenctrl.decide, "augment", counted)
    assert compute_kstar(pattern).value == kstar
    assert len(calls) == solves


def test_kstar_finite_boundary():
    found = 0
    for seed in range(80):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 6), rng.randint(0, 2), rng.random(), seed)
        r = compute_kstar(p)
        if r.is_infinite:
            continue
        found += 1
        qbar = p.m * p.n + 1
        target = p.n * qbar
        assert max_flow(build_small_network(p, r.value, qbar)).value_total == target
        if r.value >= 1:
            assert max_flow(build_small_network(p, r.value - 1, qbar)).value_total < target
    assert found > 5


def test_decision_monotonicity():
    for seed in range(25):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 5), rng.randint(0, 2), rng.random(), seed)
        for k in range(2):
            for q in range(1, 4):
                if check_structural(p, k, q).decision:
                    assert check_structural(p, k + 1, q).decision
                    if q >= 2:
                        assert check_structural(p, k, q - 1).decision


def test_q_saturation_beyond_probe_size():
    # The saturating probe size mn+1 only covers 0 <= k <= n-1.
    for seed in range(20):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 4), rng.randint(0, 2), rng.random(), seed)
        qbar = p.m * p.n + 1
        for k in range(min(2, p.n)):
            if check_structural(p, k, qbar).decision:
                for q in (qbar + 1, 10 * qbar):
                    assert check_structural(p, k, q).decision


def test_crosscheck_fig2a_grid():
    report = crosscheck(FIG2A, 3, 4)
    assert report.agree
    assert len(report.cells) == 4 * 4
    assert report.kstar_search is None and report.kstar_enumerated is None
    d = crosscheck_to_dict(report)
    assert d["agree"] is True and d["kstar_search"] == "infinite"
    assert [c["k"] for c in d["cells"]] == sorted(c["k"] for c in d["cells"])


def test_crosscheck_fig1_grid():
    assert crosscheck(FIG1, 2, 3).agree


def test_crosscheck_random_patterns():
    for seed in range(25):
        rng = random.Random(seed)
        p = random_pattern(5, rng.randint(0, 3), rng.random(), seed)
        assert crosscheck(p, 2, 3).agree


def test_crosscheck_guard():
    with pytest.raises(ScaleError):
        crosscheck(SparsityPattern(11, 0, frozenset()), 1, 1)


def test_crosscheck_grid_guard_before_any_cell(monkeypatch):
    class Started(Exception):
        pass

    def started(*args):
        raise Started

    monkeypatch.setattr(swenctrl.decide, "check_structural", started)
    cells = swenctrl.decide.MAX_CROSSCHECK_CELLS
    with pytest.raises(Started):  # the largest grid passes the guard
        crosscheck(FIG2A, cells - 1, 1)
    for k_max, q_max in [(cells, 1), (0, cells + 1), (100_000_000, 2)]:
        with pytest.raises(ScaleError, match="grid cells"):
            crosscheck(FIG2A, k_max, q_max)


def test_recheck_violating_subset():
    v = check_structural(FIG2A, 1, 3)
    assert recheck_certificate(FIG2A, v)


def test_recheck_unreachable():
    p = SparsityPattern(2, 1, frozenset({(1, 3)}))
    v = check_structural(p, 0, 1)
    assert recheck_certificate(p, v)


def test_recheck_saturated():
    v = check_structural(FIG2A, 2, 3)
    assert recheck_certificate(FIG2A, v)


def test_recheck_rejects_tampered_certificate():
    v = check_structural(FIG2A, 1, 3)
    from dataclasses import replace

    tampered = replace(v, certificate=ViolatingSubset(frozenset({2}), 2, 3, 1, 3))
    assert not recheck_certificate(FIG2A, tampered)


def test_verdict_json_shape():
    v = check_structural(FIG2A, 1, 3)
    d = verdict_to_dict(v)
    assert d == {
        "decision": False,
        "theta": 5,
        "target": 6,
        "certificate": {
            "type": "violating_subset",
            "subset": [1],
            "lhs": 2,
            "rhs": 3,
            "k": 1,
            "q": 3,
        },
    }


def test_check_and_kstar_never_build_the_named_network(monkeypatch):
    patterns = [FIG1, FIG2A, TWO_CYCLE, INTEGRATOR, hub_pattern(64)]
    for seed in range(40):
        rng = random.Random(seed)
        patterns.append(random_pattern(rng.randint(1, 8), rng.randint(0, 3), rng.random(), seed))
    grid = [(k, q) for k in range(3) for q in (1, 2, 3)]

    def answers(p):
        verdicts = [check_structural(p, k, q) for k, q in grid]
        return [(v.decision, v.certificate) for v in verdicts], compute_kstar(p)

    expected = [answers(p) for p in patterns]

    def forbidden(*args, **kwargs):
        raise AssertionError("the decision path built the named network")

    for name in ("build_small_network", "in_neighbor_sets"):
        monkeypatch.setattr(swenctrl.decide, name, forbidden)
    for p, before in zip(patterns, expected):
        assert answers(p) == before
    for p in patterns[5:]:  # the random ones, against the referees
        assert [d for d, _ in answers(p)[0]] == [brute_force_check(p, k, q).decision for k, q in grid]
        assert compute_kstar(p).value == kstar_brute(p).value
