import random
from collections import Counter

import pytest
from helpers import (
    FIG1,
    FIG2A,
    INTEGRATOR,
    TWO_CYCLE,
    UNREACHABLE_CYCLE,
    benchmark_pattern,
    hub_pattern,
    reference_kstar,
    tight_pattern,
)

import swenctrl.core
import swenctrl.decide
import swenctrl.flow
import swenctrl.graph
from swenctrl.core import Transport
from swenctrl.decide import (
    check_structural,
    compute_kstar,
    crosscheck,
    crosscheck_to_dict,
    recheck_certificate,
    witness_from_cut,
)
from swenctrl.errors import ConsistencyError, ScaleError
from swenctrl.flow import build_lifted_network, build_small_network, max_flow, min_cut
from swenctrl.graph import (
    brute_force_check,
    core_condition_holds,
    kstar_brute,
    reachability_check,
    to_dot,
)
from swenctrl.oracle import controllability_rank, monte_carlo_controllable, oracle_agreement
from swenctrl.pattern import (
    SparsityPattern,
    parse_pattern,
    random_pattern,
    sample_instance,
    serialize_pattern,
)
from swenctrl.results import (
    EmptyAlphaIn,
    Saturated,
    Unreachable,
    Verdict,
    VerdictStats,
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
    """compute_kstar equals the cold search, with multi-step ascents, and the
    min cut a failing probe inherits from the k below it settles many probes
    (the flow reaches that cut's capacity, short of the target, with no
    failing search)."""
    cut_reads = []  # per pattern: flow -> cuts read off it; the ascent reads one flow
    settled = 0

    def counted_solve(flow, bound):
        nonlocal settled
        subset = solve(flow, bound)
        if subset is None:
            settled += flow.value < flow.n * flow.q
        else:
            cut_reads[-1][id(flow)] += 1
        return subset

    solve = Transport.solve
    monkeypatch.setattr(Transport, "solve", counted_solve)
    empty_alpha_in = failing_probes = 0
    for seed in range(900):
        rng = random.Random(seed)
        if seed % 3:
            p = random_pattern(rng.randint(1, 12), rng.randint(1, 3), rng.uniform(0.1, 0.5), seed)
        else:
            p = few_in_neighbours_pattern(rng.randint(2, 12), rng)
        cut_reads.append(Counter())
        r = compute_kstar(p)
        assert r == reference_kstar(p), seed
        empty_alpha_in += isinstance(r.witness, EmptyAlphaIn)
        failing_probes += any(theta < target for _, theta, target in r.trace[1:])
    assert empty_alpha_in > 30 and failing_probes > 100
    # ascents of two or more steps
    assert sum(max(reads.values(), default=0) >= 2 for reads in cut_reads) > 20
    assert settled > 20


def empty_block_pattern(n, m, rng, sparse_fail):
    """A random block of states with no state in-neighbour.  Sparse-fail
    shapes, like the benchmark's, add self-loops outside the block and one
    input feeding every state, so they stay reachable."""
    block = set(rng.sample(range(1, n + 1), rng.randint(1, max(1, n // 4))))
    stars = set()
    density = 0.05 if sparse_fail else rng.uniform(0.1, 0.5)
    if sparse_fail:
        stars |= {(i, i) for i in range(1, n + 1) if i not in block}
        stars |= {(i, n + 1) for i in range(1, n + 1)}
    stars |= {(i, j) for i in range(1, n + 1) for j in range(1, n + m + 1)
              if rng.random() < density and (i not in block or j > n)}
    return SparsityPattern(n, m, frozenset(stars))


class Forbidden(AssertionError):
    pass


def test_kstar_infinite_needs_no_flow(monkeypatch):
    def forbidden(*args):
        raise Forbidden("compute_kstar solved a flow for an infinite k*")

    monkeypatch.setattr(swenctrl.core, "Transport", forbidden)
    with pytest.raises(Forbidden):  # the patch reaches a finite k*'s solve
        compute_kstar(hub_pattern(64))
    patterns = [FIG1, FIG2A]
    for seed in range(150):
        rng = random.Random(seed)
        if seed % 3:
            patterns.append(empty_block_pattern(rng.randint(1, 14), rng.randint(1, 3), rng, False))
        else:
            n = rng.randint(20, 60)
            patterns.append(empty_block_pattern(n, max(1, n // 10), rng, True))
    empty_alpha_in = 0
    for p in patterns:
        r = compute_kstar(p)
        assert r == reference_kstar(p)
        empty_alpha_in += isinstance(r.witness, EmptyAlphaIn)
    assert empty_alpha_in > 80


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


@pytest.mark.parametrize("pattern, kstar, solves, searches", [
    # the greedy fill saturates every solve at k >= k*, so the phases run
    # only on the solves short of saturation and of an inherited cut's
    # capacity
    (backbone_pattern(50), 0, 1, 0),
    # ascent k = 0 -> 7, then the trace's failing probes k = 3, 5, 6; only
    # the k = 0 solve searches (once, and fails), as the greedy fill reaches
    # the capacity of the k = 0 min cut at k = 3, 5 and 6
    (hub_pattern(64), 7, 5, 1),
    # ascent k = 0 -> 7, then the trace's one failing probe k = 6, settled
    # by the k = 0 min cut
    (hub_pattern(800), 7, 3, 1),
], ids=["backbone50", "hub64", "hub800"])
def test_kstar_solve_count(monkeypatch, pattern, kstar, solves, searches):
    calls = {"solve": 0, "search": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Transport, "solve", counted("solve", Transport.solve))
    monkeypatch.setattr(Transport, "_label", counted("search", Transport._label))
    assert compute_kstar(pattern).value == kstar
    assert calls == {"solve": solves, "search": searches}


def test_backbone_saturates_without_augment(monkeypatch):
    """The greedy fill alone saturates every backbone check and solve: no
    phase's search runs."""
    def forbidden(*args):
        raise Forbidden("a search ran on a backbone pattern")

    monkeypatch.setattr(Transport, "_label", forbidden)
    with pytest.raises(Forbidden):  # the patch reaches a failing hub check's solve
        check_structural(hub_pattern(64), 6, 65)
    p = backbone_pattern(200)
    for k, q in ((0, 1), (1, 3), (2, 7)):
        v = check_structural(p, k, q)
        assert v.decision and v.stats.theta == p.n * q
    assert compute_kstar(p).value == 0


def test_solver_set_up_once_and_searched_only_when_short(monkeypatch):
    """A check sets up one transport problem and searches only when the
    greedy fill leaves it short; kstar sets up one for its ascent and one
    for each probe below k*, solved fresh under a known cut's bound."""
    calls = {"set_up": 0, "search": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Transport, "__init__", counted("set_up", Transport.__init__))
    monkeypatch.setattr(Transport, "_label", counted("search", Transport._label))
    backbone, hub = backbone_pattern(200), hub_pattern(64)
    assert check_structural(backbone, 1, 3).decision
    assert compute_kstar(backbone).value == 0
    assert check_structural(hub, 7, 65).decision
    assert calls == {"set_up": 3, "search": 0}
    assert not check_structural(hub, 6, 65).decision
    assert calls == {"set_up": 4, "search": 1}
    assert compute_kstar(hub).value == 7
    assert calls == {"set_up": 8, "search": 2}


def test_direct_pass_keeps_theta_and_kstar():
    """check_structural's theta is the cold max-flow value of the
    witness-mode network, and compute_kstar the cold binary search's."""
    solved = finite = 0
    for seed in range(500):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 12), rng.randint(0, 3), rng.random(), seed)
        k, q = rng.randint(0, 2), rng.choice((1, 2, 3, 7))
        theta = check_structural(p, k, q).stats.theta
        if theta is not None:  # None: unreachable, answered before any flow
            assert theta == max_flow(build_small_network(p, k, q, witness_mode=True)).value_total
            solved += 1
        r = compute_kstar(p)
        assert r == reference_kstar(p)
        finite += r.value is not None
    assert solved > 200 and finite > 200


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

    monkeypatch.setattr(swenctrl.decide, "Transport", started)
    cells = swenctrl.decide.MAX_CROSSCHECK_CELLS
    with pytest.raises(Started):  # the largest grid passes the guard
        crosscheck(FIG2A, cells - 1, 1)
    for k_max, q_max in [(cells, 1), (0, cells + 1), (100_000_000, 2)]:
        with pytest.raises(ScaleError, match="grid cells"):
            crosscheck(FIG2A, k_max, q_max)


def test_crosscheck_enumerates_subsets_once(monkeypatch):
    """The subsets of a pattern are enumerated once for the whole grid, not
    once per cell and referee (25 times on a 4 x 3 grid)."""
    calls = []
    enumerate_subsets = swenctrl.graph._subset_classes

    def spy(pattern):
        calls.append(pattern)
        return enumerate_subsets(pattern)

    for module in (swenctrl.graph, swenctrl.decide):
        if hasattr(module, "_subset_classes"):
            monkeypatch.setattr(module, "_subset_classes", spy)
    report = crosscheck(FIG1, 3, 3)
    assert report.agree and len(report.cells) == 12
    assert calls == [FIG1]


def test_crosscheck_guards_before_any_enumeration(monkeypatch):
    def enumerated(*args):
        raise AssertionError("subsets enumerated")

    monkeypatch.setattr(swenctrl.graph, "_union_table", enumerated)
    cells = swenctrl.decide.MAX_CROSSCHECK_CELLS
    for pattern, k_max, q_max, error in [
        (SparsityPattern(11, 0, frozenset()), 1, 1, ScaleError),
        (FIG1, -1, 1, ValueError),
        (FIG1, 0, 0, ValueError),
        (FIG1, cells, 1, ScaleError),
    ]:
        with pytest.raises(error):
            crosscheck(pattern, k_max, q_max)


def test_crosscheck_theta_hat_none_above_the_lifted_guard(monkeypatch):
    """A cell whose expanded network exceeds the arc guard reports no
    theta_hat and still agrees; the other cells carry the matching value.

    Then a staircase: a guard that passes (0, q_max) and (k_max, 1) but not
    (k_max, q_max) cuts each row of the grid at its own width.  The cells
    over it report None, the others the cold matching value, and no
    ScaleError escapes.  A spy on the matching sees the live adjacency at
    every cell: it never holds more entries than the largest passing cell's
    middle arcs, nor any list, or layer of a list, that no passing cell
    reads."""
    k_max = q_max = 3
    arcs = {(k, q): len(build_lifted_network(FIG1, k, q).arcs)
            for k in range(k_max + 1) for q in range(1, q_max + 1)}
    guard = 60
    assert min(arcs.values()) < guard < arcs[2, 3]
    monkeypatch.setattr(swenctrl.flow, "MAX_LIFTED_ARCS", guard)
    report = crosscheck(FIG1, 2, 3)
    assert report.agree and len(report.cells) == 9
    for cell in report.cells:
        if arcs[cell.k, cell.q] > guard:
            assert cell.theta_hat is None
        else:
            assert isinstance(cell.theta_hat, int) and cell.theta_hat == cell.theta
    assert {c.theta_hat is None for c in report.cells} == {True, False}

    guard = max(arcs[0, q_max], arcs[k_max, 1])
    assert arcs[k_max, q_max] > guard
    passing = {cell for cell, size in arcs.items() if size <= guard}
    widths = [max(q for k, q in passing if k == row) for row in range(k_max + 1)]
    assert widths == [q_max] + [1] * k_max
    monkeypatch.setattr(swenctrl.flow, "MAX_LIFTED_ARCS", guard)
    cold = {cell: swenctrl.flow.lifted_value(FIG1, *cell) for cell in passing}
    match, seen = swenctrl.flow._match, []

    def spy(adjacency, mate, free):
        seen.append([len(lefts) for lefts in adjacency])
        return match(adjacency, mate, free)

    monkeypatch.setattr(swenctrl.flow, "_match", spy)
    report = crosscheck(FIG1, k_max, q_max)
    assert report.agree and len(report.cells) == len(arcs)
    for cell in report.cells:
        if (cell.k, cell.q) in passing:
            assert cell.theta_hat == cold[cell.k, cell.q] == cell.theta
        else:
            assert cell.theta_hat is None
    assert len(seen) == len(passing)
    stars = len(FIG1.stars)
    assert max(map(sum, seen)) <= max((k + 1) * q * stars for k, q in passing)
    for lengths in seen:
        copies = len(lengths) // FIG1.n
        layers = lengths[0] // len(FIG1.rows[0])
        assert (layers - 1, copies) in passing
        assert lengths == [layers * len(row) for row in FIG1.rows * copies]


def test_crosscheck_builds_no_lifted_network(monkeypatch):
    """crosscheck's expanded value is a matching on the rows: no lifted
    network is built, and no residual graph or Dinic search runs on one."""
    residual, augment = swenctrl.flow.residual, swenctrl.flow.augment
    compact_size = 2 * FIG1.n + FIG1.m + 2

    def built(*args):
        raise AssertionError("lifted network built")

    def lifted_residual(net, values=()):
        assert net.kind != "lifted", "residual of a lifted network"
        return residual(net, values)

    def compact_augment(head, adj, cap):
        assert len(adj) == compact_size, "augment on a lifted network"
        return augment(head, adj, cap)

    monkeypatch.setattr(swenctrl.flow, "build_lifted_network", built)
    monkeypatch.setattr(swenctrl.flow, "residual", lifted_residual)
    monkeypatch.setattr(swenctrl.flow, "augment", compact_augment)
    report = crosscheck(FIG1, 3, 3)
    assert report.agree and len(report.cells) == 12
    assert all(cell.theta_hat == cell.theta for cell in report.cells)


def test_crosscheck_finds_the_least_violation_once_per_cell(monkeypatch):
    """The brute verdict and the counting condition of a cell read one
    least violation: 12 searches on a 4 x 3 grid, not 24."""
    calls = []
    least_violation = swenctrl.graph._least_violation

    def spy(classes, k, q):
        calls.append((k, q))
        return least_violation(classes, k, q)

    for module in (swenctrl.graph, swenctrl.decide):
        if hasattr(module, "_least_violation"):
            monkeypatch.setattr(module, "_least_violation", spy)
    report = crosscheck(FIG1, 3, 3)
    assert report.agree and len(report.cells) == 12
    assert sorted(calls) == [(k, q) for k in range(4) for q in range(1, 4)]


def test_crosscheck_runs_no_compact_dinic(monkeypatch):
    """crosscheck's compact value is the transport solver's: no named
    compact network is built, and no residual graph or Dinic search runs,
    on reachable and unreachable patterns alike."""
    def dinic(*args, **kwargs):
        raise AssertionError("compact network or Dinic used")

    for name in ("build_small_network", "max_flow", "residual", "augment"):
        for module in (swenctrl.flow, swenctrl.decide):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, dinic)
    for pattern, k_max, q_max in [(FIG1, 3, 3), (FIG2A, 3, 4), (UNREACHABLE_CYCLE, 2, 2)]:
        report = crosscheck(pattern, k_max, q_max)
        assert report.agree and len(report.cells) == (k_max + 1) * q_max


def _theta_cases():
    """(pattern, k_max, q_max): 320 seeded random patterns with n <= 7, and
    n <= 10 members of every benchmark family."""
    for seed in range(320):
        rng = random.Random(f"theta:{seed}")
        p = random_pattern(rng.randint(1, 7), rng.randint(0, 3), rng.random(), seed)
        yield p, rng.randint(0, 3), rng.randint(1, 3)
    for family in ("backbone", "hub", "sparse-fail", "sparse-fail-unreachable"):
        for n, seed in ((3, 1), (6, 2), (10, 3)):
            yield benchmark_pattern(family, n, seed), 2, 3


def test_crosscheck_theta_is_the_compact_max_flow():
    """Every cell's theta, read off its ensemble size's transport problem as
    the grid raises its switch count, on reachable and unreachable patterns
    alike, is the compact network's Dinic value; on UNREACHABLE_CYCLE that
    transport saturates under False verdicts."""
    unreachable = 0
    for p, k_max, q_max in _theta_cases():
        report = crosscheck(p, k_max, q_max)
        assert report.agree, (p.rows, report.disagreements)
        for cell in report.cells:
            expected = max_flow(build_small_network(p, cell.k, cell.q)).value_total
            assert cell.theta == expected, (p.rows, cell.k, cell.q)
        unreachable += bool(reachability_check(p))
    assert unreachable >= 50
    report = crosscheck(UNREACHABLE_CYCLE, 2, 2)
    saturated = {(cell.k, cell.q) for cell in report.cells
                 if cell.theta == UNREACHABLE_CYCLE.n * cell.q and not cell.structural}
    assert {(0, 1), (1, 2)} <= saturated


def test_crosscheck_grid_reads_as_cold_checks():
    """The warm grid answers every cell as a cold check would: the flow
    decision of check_structural, and theta its transport value or, on an
    unreachable pattern, where the check does not solve, that of a cold
    transport solve."""
    for p, k_max, q_max in _theta_cases():
        blind = bool(reachability_check(p))
        for cell in crosscheck(p, k_max, q_max).cells:
            verdict = check_structural(p, cell.k, cell.q)
            assert cell.structural == verdict.decision, (p.rows, cell.k, cell.q)
            if blind:
                cold = Transport(p.rows, p.n, p.m, cell.k, cell.q)
                cold.solve(p.n * cell.q)
                assert verdict.stats.theta is None and cell.theta == cold.value
            else:
                assert cell.theta == verdict.stats.theta, (p.rows, cell.k, cell.q)


def test_crosscheck_searches_reachability_once_and_sets_up_a_transport_per_q(monkeypatch):
    """One crosscheck runs the solver's reachability search once and sets up
    one transport problem per ensemble size, at k = 0, for its whole grid
    (compute_kstar's own search and transports, in core, are not counted)."""
    searches, set_ups = [], []
    search, transport = swenctrl.decide.unreachable_states, swenctrl.decide.Transport

    def search_spy(rows, n):
        searches.append(rows)
        return search(rows, n)

    def transport_spy(rows, n, m, k, q):
        set_ups.append((k, q))
        return transport(rows, n, m, k, q)

    monkeypatch.setattr(swenctrl.decide, "unreachable_states", search_spy)
    monkeypatch.setattr(swenctrl.decide, "Transport", transport_spy)
    for pattern, k_max, q_max in [(FIG1, 3, 3), (FIG2A, 7, 5), (UNREACHABLE_CYCLE, 2, 4)]:
        searches.clear()
        set_ups.clear()
        report = crosscheck(pattern, k_max, q_max)
        assert report.agree and len(report.cells) == (k_max + 1) * q_max
        assert searches == [pattern.rows]
        assert set_ups == [(0, q) for q in range(1, q_max + 1)]


def test_crosscheck_refuses_a_flow_that_is_not_maximal(monkeypatch):
    """A labelling bug that ends the search after the greedy fill leaves the
    flow short of the maximum; the grid prices the claimed cut as the check
    does and raises, rather than reporting the short flow."""
    pattern = SparsityPattern(3, 1, frozenset({(1, 4), (2, 4), (3, 4)}))
    assert crosscheck(pattern, 1, 2).agree

    def after_the_fill(self):
        return [int(need > 0) for need in self.short], [0] * len(self.spare), 0

    monkeypatch.setattr(swenctrl.core.Transport, "_label", after_the_fill)
    for call in (lambda: check_structural(pattern, 0, 1), lambda: crosscheck(pattern, 1, 2)):
        with pytest.raises(ConsistencyError, match="flow is not maximal"):
            call()


def _no_unreachable_states(rows, n):
    return frozenset()


def _inputs_dropped(rows, n, subset):
    return frozenset(j for i in subset for j in rows[i - 1] if j <= n), frozenset()


def test_referees_share_no_code_with_the_solver(monkeypatch):
    """A bug planted in the solver's reachability search, and then in its
    in-neighbour split, changes no referee answer, so crosscheck reports the
    disagreement.  States 1 and 2 form a cycle that no input reaches."""
    pattern = SparsityPattern(3, 1, frozenset({(1, 2), (2, 1), (3, 4)}))

    def referees():
        return ([brute_force_check(pattern, k, q) for k in range(2) for q in (1, 2)],
                kstar_brute(pattern),
                swenctrl.graph._least_violation(swenctrl.graph._subset_classes(pattern), 0, 2),
                [swenctrl.graph._subset_sides(pattern, 0, 2, {i}) for i in (1, 2, 3)],
                core_condition_holds(pattern, 0, 2, {3}),
                recheck_certificate(pattern, Verdict(False, Unreachable(frozenset({1, 2})),
                                                     VerdictStats(None, 3))))

    expected = referees()
    assert crosscheck(pattern, 1, 2).agree
    monkeypatch.setattr(swenctrl.core.unreachable_states, "__code__",
                        _no_unreachable_states.__code__)
    assert check_structural(pattern, 0, 1).decision  # the solver now errs
    report = crosscheck(pattern, 1, 2)
    assert not report.agree
    assert sum("flow decision True != brute decision False" in d
               for d in report.disagreements) == 3
    assert referees() == expected
    monkeypatch.setattr(swenctrl.core.in_neighbours, "__code__", _inputs_dropped.__code__)
    assert swenctrl.core.in_neighbours(pattern.rows, 3, {3}) == (frozenset(), frozenset())
    assert not crosscheck(pattern, 1, 1).agree
    assert referees() == expected


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
    assert v.certificate == ViolatingSubset(frozenset({1}), 2, 3, 1, 3)
    for cert in [
        ViolatingSubset(frozenset({2}), 2, 3, 1, 3),  # not the failing subset
        ViolatingSubset(frozenset({1}), 1, 3, 1, 3),  # wrong lhs
        ViolatingSubset(frozenset({1}), 2, 4, 1, 3),  # wrong rhs
        ViolatingSubset(frozenset({1}), 2, 3, 2, 3),  # sides of another k
        ViolatingSubset(frozenset(), 0, 0, 1, 3),  # empty
        ViolatingSubset(frozenset({1, 3}), 2, 6, 1, 3),  # state out of range
        ViolatingSubset(frozenset({0}), 0, 3, 1, 3),  # state out of range
        ViolatingSubset(frozenset({1.5}), 2, 3, 1, 3),  # not a state index
        ViolatingSubset(frozenset({1}), 0, 3, -1, 3),  # k < 0: lhs 0 < rhs for any subset
        ViolatingSubset(frozenset({1}), 2, 0, 1, 0),  # q < 1
        ViolatingSubset(frozenset({1}), 2, -1, 1, -1),  # q < 1
        ViolatingSubset(frozenset({1}), 2.5, 3, 1.5, 3),  # k not an int
        Unreachable(frozenset({1})),  # every state is reachable
    ]:
        assert not recheck_certificate(FIG2A, Verdict(False, cert, v.stats)), cert
    # the right sides of another q, with the target n*q of this one
    at_q2 = check_structural(FIG2A, 0, 2)
    assert at_q2.certificate == ViolatingSubset(frozenset({1}), 1, 2, 0, 2)
    assert recheck_certificate(FIG2A, at_q2)
    for stats in (v.stats, VerdictStats(at_q2.stats.theta, 5)):
        assert not recheck_certificate(FIG2A, Verdict(False, at_q2.certificate, stats)), stats
    p = SparsityPattern(2, 1, frozenset({(1, 3)}))
    v = check_structural(p, 0, 1)
    assert v.certificate == Unreachable(frozenset({2}))
    for nodes in ({1}, {1, 2}, {2, 3}):
        assert not recheck_certificate(p, Verdict(False, Unreachable(nodes), v.stats))
    saturated = check_structural(FIG2A, 2, 3)
    assert not recheck_certificate(FIG2A, Verdict(True, Saturated(5), saturated.stats))


@pytest.mark.parametrize("k, q", [(True, 3), (1, True), (1.0, 3), (1, 3.0)])
def test_one_integer_rule_for_k_and_q(k, q):
    # A bool or a float k or q is refused everywhere with check_kq's message.
    p = parse_pattern("2 1\n0 0 *\n* 0 0\n")
    message = "switch count k" if type(k) is not int else "ensemble size q"
    for call in (lambda: check_structural(p, k, q), lambda: brute_force_check(p, k, q),
                 lambda: sample_instance(p, k, q, seed=0), lambda: crosscheck(p, k, q),
                 lambda: monte_carlo_controllable(p, k, q, 1, 0)):
        with pytest.raises(ValueError, match=f"{message} must be an integer"):
            call()


def test_one_integer_rule_for_certificates_trials_and_dimensions():
    p = parse_pattern("2 1\n0 0 *\n* 0 0\n")
    genuine = check_structural(p, 1, 3)
    cert = genuine.certificate
    assert cert == ViolatingSubset({1}, 2, 3, 1, 3) and recheck_certificate(p, genuine)
    for subset, k, q in (({1}, True, 3), ({1}, 1.0, 3), ({1}, 1, 3.0), ({True}, 1, 3)):
        tampered = ViolatingSubset(subset, cert.lhs, cert.rhs, k, q)
        assert tampered == cert  # True == 1 == 1.0
        assert not recheck_certificate(p, Verdict(False, tampered, genuine.stats)), (k, q)
    # states 2, then 1, unreachable; 2.0 == 2 and True == 1
    for blind, nodes in ((SparsityPattern(2, 1, {(1, 3)}), {2.0}),
                         (SparsityPattern(2, 1, {(2, 3)}), {True})):
        unreachable = check_structural(blind, 0, 1)
        tampered = Unreachable(nodes)
        assert tampered == unreachable.certificate and recheck_certificate(blind, unreachable)
        assert not recheck_certificate(blind, Verdict(False, tampered, unreachable.stats)), nodes
    for trials in (True, 1.0, 0):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            monte_carlo_controllable(p, 1, 1, trials, 0)
        with pytest.raises(ValueError, match="trials must be >= 1"):
            oracle_agreement([("p", p)], 1, 1, trials, 0)
    for n, m in ((True, 0), (2.0, 0), (2, False), (2, 1.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            SparsityPattern(n, m, ())


def tampered_verdict(decision, certificate, stats):
    """A verdict built past Verdict's own checks, as a decoded or edited
    object may be."""
    verdict = object.__new__(Verdict)
    for name, value in zip(Verdict._fields, (decision, certificate, stats)):
        object.__setattr__(verdict, name, value)
    return verdict


def test_recheck_rejects_tampered_saturated():
    """A Saturated certificate holds only on a true verdict whose theta, the
    certificate's value and the target agree, with the target n*q for an
    int q >= 1; on the 2-state FIG2A no q gives the target 3."""
    genuine = check_structural(FIG2A, 2, 3)
    assert genuine == Verdict(True, Saturated(6), VerdictStats(6, 6))
    assert recheck_certificate(FIG2A, genuine)
    assert recheck_certificate(FIG2A, tampered_verdict(True, Saturated(6), VerdictStats(6, 6)))
    for decision, value, theta, target in [
        (True, 3, None, 3),  # the target 3 is n*q for no q, and theta is unset
        (True, 3, 3, 3),  # the target 3 is n*q for no q
        (True, 0, 0, 0),  # q = 0
        (True, -2, -2, -2),  # q = -1
        (True, 6, None, 6),  # theta unset, as in a brute-force verdict
        (True, 6, 5, 6),  # theta short of the target
        (True, 5, 6, 6),  # the certificate's value short of the target
        (True, 4, 4, 6),  # value and theta of another q
        (True, 6, 6, 4),  # the target of another q
        (True, 6.0, 6.0, 6.0),  # not an int target
        (False, 6, 6, 6),  # a false verdict
        (1, 6, 6, 6),  # a decision that is not True
    ]:
        verdict = tampered_verdict(decision, Saturated(value), VerdictStats(theta, target))
        assert not recheck_certificate(FIG2A, verdict), (decision, value, theta, target)


def forbid_stars(monkeypatch):
    """Make every read of SparsityPattern.stars raise."""
    def stars(self):
        raise AssertionError("SparsityPattern.stars was read")

    monkeypatch.setattr(SparsityPattern, "stars", property(stars))


@pytest.mark.parametrize("k, q, kind", [(1, 3, ViolatingSubset), (0, 9, ViolatingSubset),
                                        (0, 1, Unreachable), (7, 1, Saturated)])
def test_recheck_reads_rows_without_building_the_stars(k, q, kind, monkeypatch):
    text = serialize_pattern(SparsityPattern(3, 1, frozenset({(1, 4), (2, 1), (3, 3)}))
                             if kind is Unreachable else hub_pattern(16))
    forbid_stars(monkeypatch)
    pattern = parse_pattern(text)
    v = check_structural(pattern, k, q)
    assert isinstance(v.certificate, kind)
    assert recheck_certificate(pattern, v)


# FIG1, a hub pattern (k* = 7), an unreachable pattern and one whose state 1
# has no state in-neighbour (k* infinite).
ROWS_ONLY = [FIG1, hub_pattern(16), SparsityPattern(3, 1, {(1, 4), (2, 1), (3, 3)}),
             SparsityPattern(3, 1, {(1, 4), (2, 1), (3, 2), (3, 4)})]


@pytest.mark.parametrize("p", ROWS_ONLY, ids=["fig1", "hub16", "unreachable", "empty-alpha"])
def test_no_module_reads_the_stars(p, monkeypatch):
    """The rows are the one graph the package reads: with every read of
    stars raising, the solver, the referees, the recheck and the exports
    all still answer, and stars, unpatched, is still the parsed star set."""
    text = serialize_pattern(p)
    stars = {(i, j) for i, line in enumerate(text.splitlines()[1:], 1)
             for j, token in enumerate(line.split(), 1) if token == "*"}
    forbid_stars(monkeypatch)
    pattern = parse_pattern(text)
    kstar = compute_kstar(pattern)
    assert kstar.value == kstar_brute(pattern).value
    for k, q in [(0, 1), (1, 2)]:
        v = check_structural(pattern, k, q)
        assert recheck_certificate(pattern, v)
        assert brute_force_check(pattern, k, q).decision == v.decision
        net = build_small_network(pattern, k, q, witness_mode=True)
        f = max_flow(net)
        if v.stats.theta is not None and f.value_total < pattern.n * q:
            assert witness_from_cut(pattern, k, q, min_cut(net, f)) == v.certificate.subset
        assert max_flow(build_lifted_network(pattern, k, q)).value_total == \
            max_flow(build_small_network(pattern, k, q)).value_total
        rank = controllability_rank(sample_instance(pattern, k, q, seed=k))
        assert v.decision or not rank.controllable
    if pattern.n <= 10:
        assert crosscheck(pattern, 1, 2).agree
    assert to_dot(pattern).count("->") == len(stars)
    monkeypatch.undo()
    assert pattern.stars == stars


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
        raise Forbidden("the decision path built the named network")

    # The class every named network is built of, and the referees' one-subset
    # count, patched where their callers read them.
    monkeypatch.setattr(swenctrl.flow, "FlowNetwork", forbidden)
    monkeypatch.setattr(swenctrl.graph, "_subset_sides", forbidden)
    monkeypatch.setattr(swenctrl.decide, "_subset_sides", forbidden)
    with pytest.raises(Forbidden):
        build_small_network(FIG2A, 1, 3)
    with pytest.raises(Forbidden):
        witness_from_cut(FIG2A, 1, 3, frozenset())
    for p, before in zip(patterns, expected):
        assert answers(p) == before
    for p in patterns[5:]:  # the random ones, against the referees
        assert [d for d, _ in answers(p)[0]] == [brute_force_check(p, k, q).decision for k, q in grid]
        assert compute_kstar(p).value == kstar_brute(p).value


NETWORK_CORE = ("compact_arcs", "residual", "augment")


def test_check_and_kstar_build_no_flow_network(monkeypatch):
    """check_structural and compute_kstar solve on the rows: with the
    network core of flow (compact_arcs, residual, augment) patched to raise,
    every answer is unchanged, and the decision core holds none of them."""
    patterns = [FIG1, FIG2A, TWO_CYCLE, INTEGRATOR, hub_pattern(64), backbone_pattern(60),
                tight_pattern(64, 0), tight_pattern(64, 1, failing=True)]
    for seed in range(60):
        rng = random.Random(seed)
        patterns.append(random_pattern(rng.randint(1, 9), rng.randint(0, 3), rng.random(), seed))
        patterns.append(empty_block_pattern(rng.randint(1, 12), rng.randint(1, 3), rng, seed % 2))
    grid = [(k, q) for k in range(3) for q in (1, 2, 5)]

    def answers(p):
        return [check_structural(p, k, q) for k, q in grid], compute_kstar(p)

    expected = [answers(p) for p in patterns]

    def forbidden(*args, **kwargs):
        raise Forbidden("the decision path built a flow network")

    for name in NETWORK_CORE:
        monkeypatch.setattr(swenctrl.flow, name, forbidden)
    with pytest.raises(Forbidden):
        build_small_network(FIG2A, 1, 3)
    for p, before in zip(patterns, expected):
        assert answers(p) == before
    assert not [name for name in NETWORK_CORE if hasattr(swenctrl.core, name)]
