import random

import pytest
from helpers import FIG1, FIG2A, TWO_CYCLE, lift_ensemble, reference_brute
from hypothesis import given, settings
from hypothesis import strategies as st

import swenctrl.graph
from swenctrl.core import in_neighbours
from swenctrl.errors import ScaleError
from swenctrl.graph import (
    _least_violation,
    _subset_classes,
    brute_force_check,
    core_condition_holds,
    kstar_brute,
    reachability_check,
    to_dot,
)
from swenctrl.pattern import SparsityPattern, random_pattern
from swenctrl.results import ArgmaxSubset, EmptyAlphaIn, Saturated, Unreachable, ViolatingSubset


@st.composite
def patterns(draw, max_n=4, max_m=2):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + m + 1)]
    stars = draw(st.sets(st.sampled_from(cells)))
    return SparsityPattern(n, m, frozenset(stars))


def test_pattern_edges_fig1():
    # The stars are the edges: per state, its state and control in-neighbours.
    expected = {1: ({2}, {1, 2}), 2: (set(), {2}), 3: ({1}, set()), 4: ({2, 3}, set()),
                5: ({3, 4}, set())}
    for i, (alpha, beta) in expected.items():
        assert in_neighbours(FIG1.rows, FIG1.n, {i}) == (alpha, beta), i
    assert sum(len(a) + len(b) for a, b in expected.values()) == len(FIG1.stars)


def test_pattern_edges_fig2a():
    assert in_neighbours(FIG2A.rows, FIG2A.n, {1}) == (frozenset(), frozenset({1}))
    assert in_neighbours(FIG2A.rows, FIG2A.n, {2}) == (frozenset({1}), frozenset({1}))


def test_pattern_edges_empty():
    assert in_neighbours(SparsityPattern(3, 1, frozenset()).rows, 3, {1, 2, 3}) == (
        frozenset(), frozenset())


def test_in_neighbor_sets_fig2a():
    assert in_neighbours(FIG2A.rows, FIG2A.n, {2}) == (frozenset({1}), frozenset({1}))


def test_in_neighbor_sets_empty_subset():
    assert in_neighbours(FIG1.rows, FIG1.n, set()) == (frozenset(), frozenset())


def test_in_neighbor_sets_fig1_node5():
    assert in_neighbours(FIG1.rows, FIG1.n, {5}) == (frozenset({3, 4}), frozenset())


def test_in_neighbor_sets_rejects_bad_index():
    with pytest.raises(ValueError, match="state index 3 out of range 1..2"):
        core_condition_holds(FIG2A, 0, 1, {3})


def test_reachability_fig1_all_reachable():
    assert reachability_check(FIG1) == frozenset()


def test_reachability_no_controls():
    p = SparsityPattern(3, 0, frozenset({(1, 2), (2, 1)}))
    assert reachability_check(p) == frozenset({1, 2, 3})


def test_reachability_fig2a():
    assert reachability_check(FIG2A) == frozenset()


def test_core_condition_examples():
    assert core_condition_holds(FIG2A, 1, 3, {1}) == (False, 2, 3)
    assert core_condition_holds(FIG2A, 0, 5, {2}) == (True, 6, 5)
    assert core_condition_holds(FIG2A, 0, 1, set()) == (True, 0, 0)


def test_core_condition_guards():
    with pytest.raises(ValueError):
        core_condition_holds(FIG2A, -1, 1, set())
    with pytest.raises(ValueError):
        core_condition_holds(FIG2A, 0, 0, set())
    with pytest.raises(ScaleError):
        core_condition_holds(FIG2A, 1 << 62, 1, set())


def test_brute_force_fig2a_grid():
    v = brute_force_check(FIG2A, 1, 3)
    assert not v.decision
    assert v.certificate == ViolatingSubset(frozenset({1}), 2, 3, 1, 3)
    assert brute_force_check(FIG2A, 2, 3).decision
    assert brute_force_check(FIG2A, 2, 3).certificate == Saturated(6)
    assert brute_force_check(FIG2A, 0, 1).decision


def test_brute_force_witness_tiebreak():
    # At (0, 5) both {a_1} and {a_1, a_2} violate with gap 4; the smaller
    # bitmask wins.
    v = brute_force_check(FIG2A, 0, 5)
    assert v.certificate == ViolatingSubset(frozenset({1}), 1, 5, 0, 5)


def test_brute_force_witness_smallest_gap():
    # Only b_1 -> a_2.  At (0, 3) the subset {a_1} violates with gap 3 but
    # {a_2} violates with gap 2; the smaller gap wins over the smaller mask.
    p = SparsityPattern(2, 1, frozenset({(2, 3)}))
    subset, lhs, rhs = _least_violation(_subset_classes(p), 0, 3)
    assert subset == frozenset({2}) and (lhs, rhs) == (1, 3)


def test_brute_force_unreachable_certificate():
    p = SparsityPattern(2, 0, frozenset({(1, 2), (2, 1)}))
    v = brute_force_check(p, 0, 1)
    assert not v.decision
    assert v.certificate == Unreachable(frozenset({1, 2}))


def test_brute_force_scale_guard():
    # Unreachable, but the enumeration guard comes first.
    p = SparsityPattern(25, 0, frozenset())
    with pytest.raises(ScaleError, match="flow-based"):
        brute_force_check(p, 0, 1)
    with pytest.raises(ScaleError, match="flow-based"):
        kstar_brute(p)


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
def test_subset_classes_keep_the_least_mask(n):
    p = random_pattern(n, 2, 0.3, seed=n)
    expected = {}
    for s in range(1, 1 << n):
        subset = {i + 1 for i in range(n) if s >> i & 1}
        cols = {j for i, j in p.stars if i in subset}
        key = (len(subset), sum(j <= n for j in cols), sum(j > n for j in cols))
        expected.setdefault(key, s)
    assert _subset_classes(p) == expected


def test_brute_referees_match_the_literal_walk():
    """On 1200 seeded random patterns (n <= 8, m <= 3, densities from 0 to
    1), the brute-force verdict, the least violation and k* read off the
    subset classes equal the literal walk over every mask, certificates and
    tie-breaks included."""
    rng = random.Random(2024)
    densities = (0.0, 0.1, 0.25, 0.4, 0.6, 1.0)
    for seed in range(1200):
        p = random_pattern(rng.randint(1, 8), rng.randint(0, 3), rng.choice(densities), seed)
        k, q = rng.randint(0, 3), rng.randint(1, 5)
        verdict, violation, kstar = reference_brute(p, k, q)
        assert brute_force_check(p, k, q) == verdict, (seed, k, q)
        assert _least_violation(_subset_classes(p), k, q) == violation, (seed, k, q)
        assert kstar_brute(p) == kstar, seed


def test_brute_referees_guard_before_any_enumeration(monkeypatch):
    """check_kq and the n <= 24 guard fire before anything is enumerated, and
    an unreachable pattern is answered with no enumeration at all."""
    def enumerated(*args):
        raise AssertionError("subsets enumerated")

    monkeypatch.setattr(swenctrl.graph, "_union_table", enumerated)
    for bad_k, bad_q, error in [(-1, 1, ValueError), (0, 0, ValueError), (1 << 62, 1, ScaleError)]:
        with pytest.raises(error):
            brute_force_check(FIG1, bad_k, bad_q)
    big = SparsityPattern(25, 0, frozenset())
    for call in (lambda: brute_force_check(big, 0, 1), lambda: kstar_brute(big)):
        with pytest.raises(ScaleError, match="flow-based"):
            call()
    blind = SparsityPattern(3, 1, frozenset({(1, 2), (2, 1), (3, 4)}))
    assert brute_force_check(blind, 0, 1).certificate == Unreachable(frozenset({1, 2}))
    assert kstar_brute(blind).witness == Unreachable(frozenset({1, 2}))


def test_kstar_brute_examples():
    assert kstar_brute(TWO_CYCLE).value == 0
    r = kstar_brute(FIG2A)
    assert r.is_infinite and r.witness == EmptyAlphaIn(frozenset({1}))
    r = kstar_brute(FIG1)
    assert r.is_infinite and r.witness == EmptyAlphaIn(frozenset({2}))


def test_kstar_brute_unreachable_wins():
    # All states self-looped (so no starving subset) but no control nodes.
    p = SparsityPattern(2, 0, frozenset({(1, 1), (2, 2)}))
    r = kstar_brute(p)
    assert r.is_infinite and r.witness == Unreachable(frozenset({1, 2}))


def test_kstar_brute_finite_bounds_and_witness():
    for seed in range(40):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 6), rng.randint(0, 3), rng.random(), seed)
        r = kstar_brute(p)
        if not r.is_infinite:
            assert 0 <= r.value <= p.n - 1
            assert isinstance(r.witness, ArgmaxSubset)
            alpha, _ = in_neighbours(p.rows, p.n, r.witness.subset)
            size, nin = len(r.witness.subset), len(alpha)
            assert -(-size // nin) - 1 == r.value


@settings(max_examples=60, deadline=None)
@given(patterns(), st.integers(0, 3), st.integers(1, 4))
def test_monotone_in_k(p, k, q):
    subset = frozenset(range(1, p.n + 1))
    holds_k, lhs_k, rhs_k = core_condition_holds(p, k, q, subset)
    holds_k1, lhs_k1, rhs_k1 = core_condition_holds(p, k + 1, q, subset)
    assert lhs_k1 >= lhs_k and rhs_k1 == rhs_k
    if holds_k:
        assert holds_k1


@settings(max_examples=60, deadline=None)
@given(patterns(), st.integers(0, 2), st.integers(1, 3))
def test_antimonotone_in_q_on_starving_subsets(p, k, q):
    for node in range(1, p.n + 1):
        subset = frozenset({node})
        if in_neighbours(p.rows, p.n, subset)[0]:
            continue
        holds, _, _ = core_condition_holds(p, k, q, subset)
        if not holds:
            for q2 in (q + 1, q + 5):
                assert not core_condition_holds(p, k, q2, subset)[0]


@settings(max_examples=60, deadline=None)
@given(patterns())
def test_neighbor_sets_superset_monotone(p):
    n = p.n
    rng = random.Random(0)
    small = frozenset(i for i in range(1, n + 1) if rng.random() < 0.4)
    big = small | frozenset(i for i in range(1, n + 1) if rng.random() < 0.4)
    (alpha_small, beta_small), (alpha_big, beta_big) = (in_neighbours(p.rows, n, small),
                                                        in_neighbours(p.rows, n, big))
    assert alpha_small <= alpha_big
    assert beta_small <= beta_big


def test_decision_order_consistency():
    # True at (k, q) stays true for larger k and smaller q.
    for seed in range(30):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 5), rng.randint(0, 2), rng.random(), seed)
        for k in range(3):
            for q in range(1, 4):
                if brute_force_check(p, k, q).decision:
                    assert brute_force_check(p, k + 1, q).decision
                    if q >= 2:
                        assert brute_force_check(p, k, q - 1).decision


def test_lifted_pattern_decision_oracle():
    # Deciding (k, q) on a pattern equals deciding (k, 1) on its q-copy lift:
    # the counting condition on the lift collapses to the ensemble-weighted one.
    for seed in range(40):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 4), rng.randint(0, 2), rng.random(), seed)
        for k in (0, 1, 2):
            for q in (1, 2, 3):
                direct = brute_force_check(p, k, q).decision
                lifted = brute_force_check(lift_ensemble(p, q), k, 1).decision
                assert direct == lifted, (sorted(p.stars), k, q)


def test_lift_control_neighbors_equal_across_copies():
    # Every ensemble copy of a state subset sees the same control in-neighbors.
    for seed in range(15):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 4), rng.randint(0, 2), rng.random(), seed)
        q = rng.randint(2, 3)
        lifted = lift_ensemble(p, q)
        base = frozenset(i for i in range(1, p.n + 1) if rng.random() < 0.6)
        images = [
            in_neighbours(lifted.rows, lifted.n, {(copy * p.n) + i for i in base})[1]
            for copy in range(q)
        ]
        assert all(img == images[0] for img in images)


def test_kstar_boundary_against_brute_force():
    for seed in range(60):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 6), rng.randint(0, 2), rng.random(), seed)
        r = kstar_brute(p)
        if r.is_infinite:
            continue
        qbar = p.m * p.n + 1
        for q in (1, 5, qbar):
            assert brute_force_check(p, r.value, q).decision
        if r.value >= 1:
            assert not brute_force_check(p, r.value - 1, qbar).decision


def test_dot_export_stable():
    dot = to_dot(FIG2A)
    assert dot == (
        "digraph pattern {\n"
        "  rankdir=LR;\n"
        "  b1 [shape=square];\n"
        "  a1 [shape=circle];\n"
        "  a2 [shape=circle];\n"
        "  b1 -> a1;\n"
        "  b1 -> a2;\n"
        "  a1 -> a2;\n"
        "}\n"
    )


def test_digraph_validates_ranges():
    # The pattern is the digraph, and its constructor the only range check
    # on the stars, its edges.
    with pytest.raises(ValueError, match="row index 3 out of range"):
        SparsityPattern(2, 1, frozenset({(3, 1)}))  # an edge into a_3
    with pytest.raises(ValueError, match="column index 4 out of range"):
        SparsityPattern(2, 1, frozenset({(1, 4)}))  # an edge from b_2
    with pytest.raises(ValueError, match="column index 0 out of range"):
        SparsityPattern(2, 1, frozenset({(1, 0)}))
