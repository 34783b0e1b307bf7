import json
import random
from collections import Counter
from fractions import Fraction

import pytest
from helpers import (
    FIG1,
    FIG2A,
    benchmark_pattern,
    long_path_chain,
    named_arcs,
    named_capacity,
    named_values,
    network_to_dict,
    random_feasible_flow,
    reference_augment,
    reference_residual,
    reference_sink_side,
    tight_pattern,
    transport_values,
)

import swenctrl.flow
from swenctrl.core import Transport, unreachable_states
from swenctrl.errors import ConsistencyError, ScaleError
from swenctrl.flow import (
    SINK,
    SOURCE,
    FlowAssignment,
    FlowNetwork,
    _lifted_adjacency,
    augment,
    build_lifted_network,
    build_small_network,
    compact_arcs,
    lift_flow,
    lifted_value,
    lifted_values,
    max_flow,
    min_cut,
    network_json,
    network_to_dot,
    phi_arc,
    phi_node,
    project_flow,
    residual,
    verify_flow,
)
from swenctrl.pattern import SparsityPattern, random_pattern


def test_small_network_fig2b_capacities():
    net = build_small_network(FIG2A, 1, 3)
    expected = {
        (SOURCE, ("lam", 1)): 2,
        (SOURCE, ("nu", 1)): 6,
        (SOURCE, ("nu", 2)): 6,
        (("lam", 1), ("mu", 1)): 2,
        (("lam", 1), ("mu", 2)): 2,
        (("nu", 1), ("mu", 2)): 6,
        (("mu", 1), SINK): 3,
        (("mu", 2), SINK): 3,
    }
    assert named_capacity(net) == expected
    assert len(net.nodes) == 2 * 2 + 1 + 2
    assert len(net.arcs) == 2 * 2 + 1 + 3


def test_small_network_unit_caps_at_k0_q1():
    net = build_small_network(FIG2A, 0, 1)
    assert all(c == 1 for c in net.capacity)


def test_small_network_edgeless():
    p = SparsityPattern(2, 1, frozenset())
    net = build_small_network(p, 1, 2)
    assert all(u == SOURCE or v == SINK for u, v in named_arcs(net))
    assert max_flow(net).value_total == 0


def test_small_network_sink_capacity_totals_nq():
    for k, q in [(0, 1), (1, 3), (2, 5)]:
        net = build_small_network(FIG2A, k, q)
        caps = named_capacity(net)
        assert sum(c for (_, v), c in caps.items() if v == SINK) == FIG2A.n * q


def test_small_network_witness_mode_caps():
    net = build_small_network(FIG2A, 1, 3, witness_mode=True)
    inf_cap = 1 + 1 * 2 + 2 * 6
    caps = named_capacity(net)
    assert caps[(("lam", 1), ("mu", 1))] == inf_cap
    assert caps[(("nu", 1), ("mu", 2))] == inf_cap
    assert caps[(SOURCE, ("lam", 1))] == 2


def test_small_network_guards():
    with pytest.raises(ScaleError):
        build_small_network(FIG2A, (1 << 40), 1 << 40)
    with pytest.raises(ValueError):
        build_small_network(FIG2A, -1, 1)
    with pytest.raises(ValueError):
        build_small_network(FIG2A, 0, 0)


def test_lifted_network_fig4_shape():
    net = build_lifted_network(FIG2A, 1, 3)
    left = [v for v in net.nodes if isinstance(v, tuple) and v[0] in ("lam", "nu")]
    right = [v for v in net.nodes if isinstance(v, tuple) and v[0] == "mu"]
    assert len(left) == 2 * (1 + 2 * 3) == 14
    assert len(right) == 6
    assert all(c == 1 for c in net.capacity)
    # per-layer arc fibers: control edges appear (k+1)q times, state edges
    # (k+1)q times but confined to one ensemble copy each
    lr = [a for a in named_arcs(net) if a[0] != SOURCE and a[1] != SINK]
    assert len(lr) == (2 + 1) * 2 * 3
    for u, v in lr:
        if u[0] == "nu":
            assert u[2] == v[1]  # same ensemble copy on both endpoints


def test_lifted_network_guard():
    p = SparsityPattern(64, 0, frozenset())
    with pytest.raises(ScaleError):
        build_lifted_network(p, 4095, 4096)


@pytest.mark.parametrize("pattern, k, q", [(FIG2A, 2, 3), (FIG1, 1, 4),
                                             (SparsityPattern(3, 0, frozenset()), 0, 2)],
                         ids=["fig2a", "fig1", "no-stars"])
def test_lifted_size_guard_boundary(pattern, k, q, monkeypatch):
    """Both readings of the expansion pass one guard: at an arc count equal
    to MAX_LIFTED_ARCS both answer, and at one arc more both raise the same
    error."""
    arcs = len(build_lifted_network(pattern, k, q).arcs)
    n, m, stars = pattern.n, pattern.m, len(pattern.stars)
    assert arcs == (k + 1) * (m + n * q) + (k + 1) * q * stars + n * q
    monkeypatch.setattr(swenctrl.flow, "MAX_LIFTED_ARCS", arcs)
    assert lifted_value(pattern, k, q) == max_flow(build_lifted_network(pattern, k, q)).value_total
    monkeypatch.setattr(swenctrl.flow, "MAX_LIFTED_ARCS", arcs - 1)
    messages = set()
    for read in (build_lifted_network, lifted_value, _lifted_adjacency):
        with pytest.raises(ScaleError, match="arc guard") as error:
            read(pattern, k, q)
        messages.add(str(error.value))
    assert messages == {f"(k+1)(m+nq+q|E|)+nq exceeds the {arcs - 1} arc guard"}


def _lifted_cases():
    """(pattern, k, q): 1200 seeded random patterns (n <= 8, m <= 3,
    densities 0-1, k <= 4, q <= 5), then small members of every benchmark
    family."""
    rng = random.Random(17_000)
    for seed in range(1200):
        p = random_pattern(rng.randint(1, 8), rng.randint(0, 3), rng.random(), seed)
        yield p, rng.randint(0, 4), rng.randint(1, 5)
    for family in ("backbone", "hub", "sparse-fail", "sparse-fail-unreachable"):
        for n in (3, 6, 10):
            for seed in range(2):
                p = benchmark_pattern(family, n, seed)
                for k, q in ((0, 1), (0, 3), (1, 2), (2, 3), (3, 1)):
                    yield p, k, q


def test_lifted_value_matches_lifted_max_flow():
    """The matching read off the rows has the expanded network's Dinic value,
    cold (lifted_value) and in every cell of the grid up to each (k, q) of
    the corpus (lifted_values, each cell warm-started from a smaller cell's
    matching).  The corpus holds unreachable patterns, starved ones (a state
    with no in-neighbour) and patterns with m = 0."""
    short = cells = unreachable = starved = no_inputs = 0
    for p, k, q in _lifted_cases():
        grid = lifted_values(p, k, q)
        assert len(grid) == k + 1 and {len(row) for row in grid} == {q}
        for kk, row in enumerate(grid):
            for qq, value in enumerate(row, 1):
                dinic = max_flow(build_lifted_network(p, kk, qq)).value_total
                assert value == lifted_value(p, kk, qq) == dinic, (p.rows, kk, qq)
                cells += 1
        short += grid[k][q - 1] < p.n * q
        unreachable += bool(unreachable_states(p.rows, p.n))
        starved += not all(p.rows)
        no_inputs += p.m == 0
    assert short > 300 and cells > 10_000
    assert unreachable > 300 and starved > 300 and no_inputs > 200


def test_lifted_adjacency_is_the_lifted_middle_layer():
    """The (left id, right id) pairs that lifted_value reads are, as a
    multiset, the middle arcs of build_lifted_network, so the two readings
    of the expansion cannot drift apart.  Each list runs layer by layer: for
    every k' <= k its first (k'+1)|row| entries are exactly its arcs in
    layers 0..k', the list that row k' of lifted_values holds."""
    for p, k, q in _lifted_cases():
        net = build_lifted_network(p, k, q)
        sink = len(net.nodes) - 1
        mu0 = sink - q * p.n  # mu_{p+1,i} is mu0 + p*n + i - 1
        middle = Counter((u, v) for u, v in net.arcs if u != 0 and v != sink)
        adjacency = _lifted_adjacency(p, k, q)
        read = Counter((u, mu0 + r) for r, lefts in enumerate(adjacency) for u in lefts)
        assert read == middle, (p.rows, k, q)
        layers = [[Counter() for _ in range(k + 1)] for _ in adjacency]
        for u, v in middle.elements():
            layers[v - mu0][net.nodes[u][1] - 1][u] += 1  # lam_{ell,.} or nu_{ell,.,.}
        for r, lefts in enumerate(adjacency):
            width = len(p.rows[r % p.n])
            for top in range(k + 1):
                arcs = sum(layers[r][:top + 1], Counter())
                assert Counter(lefts[:(top + 1) * width]) == arcs, (p.rows, k, q, r, top)


def test_lifted_matches_small_at_k0_q1():
    small = build_small_network(FIG2A, 0, 1)
    lifted = build_lifted_network(FIG2A, 0, 1)
    mapped_nodes = {phi_node(v) for v in lifted.nodes}
    assert mapped_nodes == set(small.nodes)
    assert len(lifted.nodes) == len(small.nodes)
    assert {phi_arc(a) for a in named_arcs(lifted)} == set(named_arcs(small))
    assert len(lifted.arcs) == len(small.arcs)
    assert all(c == 1 for c in small.capacity)


def test_max_flow_fig2b_value_5():
    f = max_flow(build_small_network(FIG2A, 1, 3))
    assert f.value_total == 5
    assert verify_flow(build_small_network(FIG2A, 1, 3), f)


def test_max_flow_saturates_at_k2_q3():
    f = max_flow(build_small_network(FIG2A, 2, 3))
    assert f.value_total == 6 == FIG2A.n * 3


def test_max_flow_zero_capacity():
    p = SparsityPattern(2, 1, frozenset())
    net = build_small_network(p, 0, 1)
    net = FlowNetwork(net.kind, net.n, net.m, net.k, net.q, net.witness_mode, net.nodes, net.arcs,
                      (0,) * len(net.arcs))
    f = max_flow(net)
    assert f.value_total == 0
    assert all(v == 0 for v in f.values)


def test_max_flow_deterministic():
    net = build_small_network(FIG2A, 1, 3)
    assert max_flow(net) == max_flow(net)


def test_verify_flow_rejects_capacity_violation():
    net = build_small_network(FIG2A, 1, 3)
    f = max_flow(net)
    bad = (net.capacity[0] + 1, *f.values[1:])
    assert not verify_flow(net, FlowAssignment(bad, f.value_total + 1))


def test_verify_flow_rejects_conservation_violation():
    net = build_small_network(FIG2A, 1, 3)
    f = max_flow(net)
    bad = list(f.values)
    bad[named_arcs(net).index((("mu", 2), SINK))] += 1
    assert not verify_flow(net, FlowAssignment(tuple(bad), f.value_total))


def test_verify_flow_arc_mismatch_raises():
    net = build_small_network(FIG2A, 1, 3)
    with pytest.raises(ValueError, match="arcs"):
        verify_flow(net, FlowAssignment((), 0))


def test_min_cut_fig2b_witness_mode():
    net = build_small_network(FIG2A, 1, 3, witness_mode=True)
    f = max_flow(net)
    cut = min_cut(net, f)
    assert cut == frozenset({SOURCE, ("nu", 1), ("nu", 2), ("mu", 2)})
    caps = named_capacity(net)
    crossing = {(u, v) for u, v in caps if u in cut and v not in cut}
    assert crossing == {(SOURCE, ("lam", 1)), (("mu", 2), SINK)}
    assert sum(caps[a] for a in crossing) == 5


def test_min_cut_saturated_is_sink_side():
    net = build_small_network(FIG2A, 2, 3)
    f = max_flow(net)
    assert f.value_total == 6
    cut = min_cut(net, f)
    assert cut == frozenset(net.nodes) - {SINK}


def test_min_cut_zero_capacity_network():
    p = SparsityPattern(2, 1, frozenset())
    net = build_small_network(p, 0, 1)
    net = FlowNetwork(net.kind, net.n, net.m, net.k, net.q, net.witness_mode, net.nodes, net.arcs,
                      (0,) * len(net.arcs))
    cut = min_cut(net, max_flow(net))
    assert cut == frozenset(net.nodes) - {SINK}


def test_min_cut_rejects_non_maximal_flow():
    net = build_small_network(FIG2A, 1, 3)
    zero = FlowAssignment((0,) * len(net.arcs), 0)
    with pytest.raises(ConsistencyError):
        min_cut(net, zero)


def test_min_cut_duality_over_random_networks():
    """On compact networks and on the lifted networks of small patterns."""
    lifted = 0
    for seed in range(40):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 5), rng.randint(0, 3), rng.random(), seed)
        k, q = rng.randint(0, 3), rng.randint(1, 4)
        nets = [build_small_network(p, k, q, witness_mode=bool(seed % 2))]
        if p.n <= 4:
            nets.append(build_lifted_network(p, k % 2, q % 3 + 1))
            lifted += 1
        for net in nets:
            f = max_flow(net)
            cut = min_cut(net, f)  # raises on duality violation
            assert SOURCE in cut and SINK not in cut
            assert f.value_total <= p.n * net.q
            assert verify_flow(net, f)
    assert lifted > 20


def test_min_cut_rejects_direct_pass_and_wrong_value():
    """A nonzero flow short of the maximum (the transport solver's greedy
    fill) is refused, and so is a maximum flow reported with the wrong
    value, on compact and on lifted networks."""
    refused = lifted = 0
    for seed in range(200):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 8), rng.randint(0, 3), rng.random(), seed)
        k, q = rng.randint(0, 2), rng.choice((1, 2, 3))
        net = build_small_network(p, k, q, bool(seed % 2))
        greedy = Transport(p.rows, p.n, p.m, k, q)
        greedy.solve(0)
        f = transport_values(net, greedy)
        if 0 < f.value_total < max_flow(net).value_total:
            with pytest.raises(ConsistencyError, match="not maximal"):
                min_cut(net, f)
            refused += 1
        nets = [net]
        if seed % 4 == 0 and p.n <= 5:
            nets.append(build_lifted_network(p, k % 2, q))
            lifted += 1
        for net in nets:
            best = max_flow(net)
            with pytest.raises(ConsistencyError,
                               match=r"^cut capacity \d+ != flow value \d+; flow is not maximal$"):
                min_cut(net, FlowAssignment(best.values, best.value_total + 1))
    assert refused > 10 and lifted > 20


def _seeded_residuals():
    """Residuals of compact plain and witness networks from zero flow, after
    the greedy fill, and after a switch-count shift of a solved flow (as in
    the kstar ascent), before and after a second fill, and of lifted
    networks from zero flow."""
    for seed in range(300):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 10), rng.randint(0, 3), rng.random(), seed)
        n, m = p.n, p.m
        k, dk, q = rng.randint(0, 2), rng.randint(1, 3), rng.choice((1, 2, 3, 7))
        for witness in (False, True):
            net = build_small_network(p, k, q, witness_mode=witness)
            yield residual(net)
            greedy = Transport(p.rows, n, m, k, q)
            greedy.solve(0)
            yield residual(net, transport_values(net, greedy).values)
        flow = Transport(p.rows, n, m, k, q)
        flow.solve(n * q)
        flow.shift(dk)
        top = build_small_network(p, k + dk, q, witness_mode=True)
        yield residual(top, transport_values(top, flow).values)
        flow.solve(0)
        yield residual(top, transport_values(top, flow).values)
        if seed % 3 == 0 and (k + 1) * q * (len(p.stars) + n) <= 400:
            yield residual(build_lifted_network(p, k, q))


def test_augment_matches_source_level_dinic():
    """Labelling by distance to the sink gives the flows of labelling by
    distance from the source, and the last search's labels are the nodes
    that reach the sink."""
    count = positive = 0
    for head, adj, cap in _seeded_residuals():
        ref = cap.copy()
        added, label = augment(head, adj, cap)
        assert added == reference_augment(head, adj, ref)
        assert cap == ref
        assert [bool(x) for x in label] == reference_sink_side(head, adj, cap)
        assert not label[0] and label[-1] == 1
        count += 1
        positive += added > 0
    assert count > 1500 and positive > 600


def test_augment_on_maximal_flow_adds_nothing():
    for head, adj, cap in _seeded_residuals():
        augment(head, adj, cap)
        before = cap.copy()
        added, label = augment(head, adj, cap)
        assert added == 0 and cap == before
        assert [bool(x) for x in label] == reference_sink_side(head, adj, cap)


def test_greedy_fill_feasible_fresh_and_after_shift():
    """The transport solver's greedy fill leaves a feasible flow of the
    compact network, plain or witness-mode, of the value it reports, both
    from zero flow and, as in the kstar ascent, after the switch count under
    a flow is raised; and a full solve reaches the maximum."""
    for seed in range(500):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 12), rng.randint(0, 3), rng.random(), seed)
        n, m = p.n, p.m
        k, dk, q = rng.randint(0, 2), rng.randint(1, 3), rng.choice((1, 2, 3, 7))
        net = build_small_network(p, k, q, witness_mode=bool(seed % 4))
        flow = Transport(p.rows, n, m, k, q)
        assert flow.solve(0) is None
        f = transport_values(net, flow)
        assert verify_flow(net, f)
        assert flow.value == f.value_total <= max_flow(net).value_total
        first = flow.value
        flow.shift(dk)
        assert flow.value == first
        flow.solve(0)
        top = build_small_network(p, k + dk, q, witness_mode=bool(seed % 4))
        f = transport_values(top, flow)
        assert verify_flow(top, f)
        assert first <= flow.value == f.value_total <= max_flow(top).value_total
        flow.solve(n * q)
        assert verify_flow(top, transport_values(top, flow))
        assert flow.value == max_flow(top).value_total


def reference_transport(p, k, q):
    """theta and the states of the source-maximal min cut's sink side, by
    reference_augment from zero flow on the compact witness network."""
    res = residual(build_small_network(p, k, q, witness_mode=True))
    theta = reference_augment(*res)
    sink_side = reference_sink_side(*res)
    return theta, frozenset(i for i in range(1, p.n + 1) if sink_side[p.m + p.n + i])


def transport_cut(p, k, q):
    """theta and the sink-side states the transport solver gives (none when
    it saturates), with its flow checked on the compact network."""
    flow = Transport(p.rows, p.n, p.m, k, q)
    subset = flow.solve(p.n * q)
    net = build_small_network(p, k, q, witness_mode=True)
    assert verify_flow(net, transport_values(net, flow))
    return flow.value, subset or frozenset()


def test_transport_matches_reference_dinic_random():
    failing = 0
    for seed in range(400):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 10), rng.randint(0, 3), rng.random(), seed)
        k, q = rng.randint(0, 3), rng.randint(1, 5)
        theta, subset = transport_cut(p, k, q)
        assert (theta, subset) == reference_transport(p, k, q), seed
        failing += bool(subset)
    assert failing > 100


@pytest.mark.parametrize("pattern, k, q", [
    (benchmark_pattern("backbone", 200, 1), 1, 3),
    (benchmark_pattern("hub", 200, 1), 7, 201),
    (benchmark_pattern("hub", 200, 1), 6, 201),
    (benchmark_pattern("sparse-fail", 200, 1), 1, 3),
    (benchmark_pattern("sparse-fail-unreachable", 200, 1), 1, 3),
    (tight_pattern(300, 1), 0, 1),
    (tight_pattern(300, 2, failing=True), 0, 1),
    (long_path_chain(300), 0, 1),
], ids=["backbone", "hub-kstar", "hub-below-kstar", "sparse-fail", "sparse-fail-unreachable",
        "tight", "tight-failing", "long-path"])
def test_transport_matches_reference_dinic_families(pattern, k, q):
    """On the benchmark's families, the tight family (which the greedy fill
    leaves far short) and a single 2n-node augmenting path."""
    assert transport_cut(pattern, k, q) == reference_transport(pattern, k, q)


def test_witness_mode_value_invariance():
    for seed in range(30):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 5), rng.randint(0, 2), rng.random(), seed)
        k, q = rng.randint(0, 3), rng.randint(1, 4)
        plain = max_flow(build_small_network(p, k, q)).value_total
        witness = max_flow(build_small_network(p, k, q, witness_mode=True)).value_total
        assert plain == witness


def test_theta_equals_theta_hat_small_grid():
    for seed in range(20):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 4), rng.randint(0, 2), rng.random(), seed)
        for k in (0, 1, 2):
            for q in (1, 2, 3):
                theta = max_flow(build_small_network(p, k, q)).value_total
                theta_hat = max_flow(build_lifted_network(p, k, q)).value_total
                assert theta == theta_hat


def test_phi_full_homomorphism_on_small_instances():
    for seed in range(15):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 3), rng.randint(0, 2), rng.random(), seed)
        small = build_small_network(p, 1, 2)
        lifted = build_lifted_network(p, 1, 2)
        images = {phi_arc(a) for a in named_arcs(lifted)}
        assert images == set(named_arcs(small))


def test_fiber_capacity_sums():
    # Fibers carry unit capacities; sums match the compact capacities on all
    # but the control-to-state arcs, whose compact cap is k+1 < (k+1)q.
    from collections import Counter

    small = build_small_network(FIG2A, 1, 3)
    lifted = build_lifted_network(FIG2A, 1, 3)
    fiber = Counter(phi_arc(a) for a in named_arcs(lifted))
    for arc, cap in named_capacity(small).items():
        u, _ = arc
        if isinstance(u, tuple) and u[0] == "lam":
            assert fiber[arc] == (small.k + 1) * small.q
        else:
            assert fiber[arc] == cap


def test_project_zero_flow():
    small = build_small_network(FIG2A, 1, 3)
    lifted = build_lifted_network(FIG2A, 1, 3)
    zero = FlowAssignment((0,) * len(lifted.arcs), 0)
    projected = project_flow(zero, lifted, small)
    assert projected.value_total == 0
    assert all(v == 0 for v in projected.values)


def test_project_max_flow_fig4():
    small = build_small_network(FIG2A, 1, 3)
    lifted = build_lifted_network(FIG2A, 1, 3)
    f_hat = max_flow(lifted)
    assert f_hat.value_total == 5
    projected = project_flow(f_hat, lifted, small)
    assert projected.value_total == 5
    assert verify_flow(small, projected)


def test_lift_max_flow_fig2b():
    small = build_small_network(FIG2A, 1, 3)
    lifted = build_lifted_network(FIG2A, 1, 3)
    f = max_flow(small)
    f_hat = lift_flow(f, small, lifted)
    assert f_hat.value_total == 5
    assert verify_flow(lifted, f_hat)
    small_values = named_values(small, f)
    lifted_values = named_values(lifted, f_hat)
    for p_copy in (1, 2, 3):
        assert lifted_values[(("mu", p_copy, 1), SINK)] == Fraction(small_values[(("mu", 1), SINK)], 3)


def test_transfer_requires_matching_provenance():
    small = build_small_network(FIG2A, 1, 3)
    other = build_lifted_network(FIG2A, 2, 3)
    f = max_flow(small)
    with pytest.raises(ValueError, match="same"):
        lift_flow(f, small, other)
    witness = build_small_network(FIG2A, 1, 3, witness_mode=True)
    lifted = build_lifted_network(FIG2A, 1, 3)
    with pytest.raises(ValueError, match="witness"):
        lift_flow(max_flow(witness), witness, lifted)


def test_random_feasible_transfers_preserve_value():
    count = 0
    for seed in range(25):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 3), rng.randint(0, 2), rng.random(), seed)
        k, q = rng.randint(0, 2), rng.randint(1, 3)
        small = build_small_network(p, k, q)
        lifted = build_lifted_network(p, k, q)
        f_hat = random_feasible_flow(lifted, seed)
        assert verify_flow(lifted, f_hat)
        projected = project_flow(f_hat, lifted, small)
        assert verify_flow(small, projected)
        assert projected.value_total == f_hat.value_total
        f = random_feasible_flow(small, seed + 1)
        assert verify_flow(small, f)
        f_up = lift_flow(f, small, lifted)
        assert verify_flow(lifted, f_up)
        assert f_up.value_total == f.value_total
        # round trip is the arcwise identity
        back = project_flow(f_up, lifted, small)
        assert back.values == f.values
        count += 1
    assert count == 25


def test_network_to_dict_and_dot():
    net = build_small_network(FIG2A, 1, 3)
    f = max_flow(net)
    obj = network_to_dict(net, f)
    assert obj["kind"] == "small" and len(obj["arcs"]) == len(net.arcs)
    assert {a["from"] for a in obj["arcs"]} <= set(obj["nodes"])
    sink_flows = [a["flow"] for a in obj["arcs"] if a["to"] == "t"]
    assert sum(sink_flows) == 5
    dot = network_to_dot(net, f)
    assert dot.startswith("digraph flownet {") and '"s" -> "lam_1" [label="2/2"]' in dot
    lifted = build_lifted_network(FIG2A, 1, 3)
    f_up = lift_flow(f, net, lifted)
    obj2 = network_to_dict(lifted, f_up)
    fractional = [a["flow"] for a in obj2["arcs"] if isinstance(a["flow"], str)]
    assert fractional, "lifted flows carry non-integral rationals"


def tuple_sorted_arcs(p):
    """The compact network's arcs in the construction order, by sorting the
    edge tuples: source arcs, control arcs by (input, state), state arcs by
    (tail, head), sink arcs."""
    n, m = p.n, p.m
    sink = m + 2 * n + 1
    return (
        [(0, v) for v in range(1, m + n + 1)]
        + [(j - n, m + n + i) for i, j in sorted(p.stars, key=lambda s: (s[1], s[0])) if j > n]
        + [(m + j, m + n + i) for i, j in sorted(p.stars, key=lambda s: (s[1], s[0])) if j <= n]
        + [(v, sink) for v in range(m + n + 1, sink)]
    )


EDGE_SHAPES = {
    "m0": SparsityPattern(4, 0, frozenset({(1, 2), (2, 1), (3, 3), (4, 1), (4, 4)})),
    "m0-edgeless": SparsityPattern(3, 0, frozenset()),
    "n1": SparsityPattern(1, 3, frozenset({(1, 1), (1, 3), (1, 4)})),
    "n1-edgeless": SparsityPattern(1, 2, frozenset()),
    # columns 2, 4 and 6 (input 1) hold no star
    "empty-columns": SparsityPattern(5, 2, frozenset({(5, 1), (1, 1), (3, 3), (2, 5), (4, 7)})),
    "input-column-full": SparsityPattern(
        6, 2, frozenset({(i, 8) for i in range(1, 7)} | {(2, 1), (6, 5)})),
    "full": SparsityPattern(5, 3, frozenset((i, j) for i in range(1, 6) for j in range(1, 9))),
}


def _arc_order_patterns():
    yield from EDGE_SHAPES.values()
    for seed in range(300):
        rng = random.Random(seed)
        yield random_pattern(rng.randint(1, 12), rng.randint(0, 3), rng.random(), seed)


def compact_capacity_rule(n, m, k, q, witness_mode, u, v):
    """The capacity of the compact arc u -> v (node ids as in compact_arcs):
    k+1 out of the source into lam and out of lam, q(k+1) out of the source
    into nu and out of nu, q into the sink; in witness mode every middle arc
    instead gets the total source capacity + 1."""
    kp1, sink = k + 1, m + 2 * n + 1
    if v == sink:
        return q
    if u and witness_mode:
        return m * kp1 + n * q * kp1 + 1
    left = v if u == 0 else u
    return kp1 if left <= m else q * kp1


def test_one_arc_order_named_and_int_core():
    for p in _arc_order_patterns():
        tail, head = compact_arcs(p.n, p.m, p.rows)
        assert list(zip(tail, head)) == tuple_sorted_arcs(p), p
        for k in range(3):
            for q in (1, 2, 5):
                for witness_mode in (False, True):
                    net = build_small_network(p, k, q, witness_mode)
                    assert net.arcs == tuple(zip(tail, head))
                    assert net.capacity == tuple(
                        compact_capacity_rule(p.n, p.m, k, q, witness_mode, u, v)
                        for u, v in net.arcs), p


def unreachable_by_scan(p):
    """The states no input reaches, by a plain search over the stars."""
    out = {j: [] for j in range(1, p.n + 1)}
    seen = set()
    for i, j in p.stars:
        if j <= p.n:
            out[j].append(i)
        else:
            seen.add(i)
    frontier = list(seen)
    while frontier:
        for i in out[frontier.pop()]:
            if i not in seen:
                seen.add(i)
                frontier.append(i)
    return frozenset(range(1, p.n + 1)) - seen


def chain(n, fed=1):
    """States 1 -> 2 -> ... -> n, with input 1 feeding state `fed`."""
    return SparsityPattern(n, 1, frozenset({(fed, n + 1)} | {(j, j - 1) for j in range(2, n + 1)}))


def test_unreachable_states_shapes():
    """The rows' reachability search: inputs feeding every state (no row
    left to read), a long chain the search walks to its end, and
    unreachable blocks, the benchmark's among them."""
    n = 300
    broadcast = SparsityPattern(n, 2, frozenset({(i, n + 1 + i % 2) for i in range(1, n + 1)}
                                                | {(i, n - i + 1) for i in range(1, n + 1)}))
    cases = {
        "broadcast": (broadcast, frozenset()),
        "chain": (chain(n), frozenset()),
        "chain-fed-midway": (chain(n, 101), frozenset(range(1, 101))),
        "cycle-of-chain": (SparsityPattern(n, 1, chain(n, 200).stars | {(1, n)}), frozenset()),
        # states 1..40 feed only each other: unreachable from the input
        "unreachable-block": (SparsityPattern(n, 1, frozenset(
            {(i, n + 1) for i in range(41, n + 1)} | {(i, i % 40 + 1) for i in range(1, 41)}
            | {(i, j) for i in range(41, 60) for j in range(1, 41)})), frozenset(range(1, 41))),
        "no-inputs": (SparsityPattern(3, 0, frozenset({(1, 2), (2, 3)})), frozenset({1, 2, 3})),
    }
    for name, (p, expected) in cases.items():
        assert unreachable_states(p.rows, p.n) == unreachable_by_scan(p) == expected, name
    for n, seed in ((40, 1), (96, 2), (480, 3)):
        for family in ("sparse-fail", "sparse-fail-unreachable"):
            p = benchmark_pattern(family, n, seed)
            unreachable = unreachable_states(p.rows, p.n)
            assert unreachable == unreachable_by_scan(p), (family, n, seed)
            assert bool(unreachable) == family.endswith("unreachable"), (family, n, seed)
    for p in _arc_order_patterns():
        assert unreachable_states(p.rows, p.n) == unreachable_by_scan(p), p


def _residual_networks():
    for p in EDGE_SHAPES.values():
        yield build_small_network(p, 1, 2)
    for seed in range(150):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 8), rng.randint(0, 3), rng.random(), seed)
        k, q = rng.randint(0, 2), rng.choice((1, 2, 3))
        yield build_small_network(p, k, q, witness_mode=bool(seed % 2))
        if seed % 3 == 0:
            yield build_lifted_network(p, k, q)


def test_residual_arrays_match_per_arc_construction():
    """The slice-filled head and cap, and the adj built in one pass over the
    arcs, are those of the per-arc construction, on compact and lifted
    networks."""
    lifted = 0
    for net in _residual_networks():
        tail, head = [u for u, _ in net.arcs], [v for _, v in net.arcs]
        assert residual(net) == reference_residual(len(net.nodes), tail, head, net.capacity)
        lifted += net.kind == "lifted"
    assert lifted > 40


def tuple_sorted_lifted_arcs(p, k, q):
    """The expanded network's arcs by sorting the edge tuples: source arcs,
    then every copy (layer ell, ensemble copy r) of each control edge by
    (input, state) and of each state edge by (tail, head), then sink arcs."""
    n, m, kp1 = p.n, p.m, k + 1
    nu0 = 1 + kp1 * m
    mu0 = nu0 + kp1 * q * n
    sink = mu0 + q * n
    control = sorted((j - n, i) for i, j in p.stars if j > n)
    state = sorted((j, i) for i, j in p.stars if j <= n)
    return (
        [(0, v) for v in range(1, mu0)]
        + [(ell * m + c, mu0 + r * n + i - 1)
           for c, i in control for ell in range(kp1) for r in range(q)]
        + [(nu0 + (ell * q + r) * n + j - 1, mu0 + r * n + i - 1)
           for j, i in state for ell in range(kp1) for r in range(q)]
        + [(v, sink) for v in range(mu0, sink)]
    )


def test_lifted_arcs_expand_the_compact_arcs_in_order():
    for seed in range(100):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 8), rng.randint(0, 3), rng.random(), seed)
        for k, q in [(0, 1), (1, 3), (2, 2)]:
            assert list(build_lifted_network(p, k, q).arcs) == tuple_sorted_lifted_arcs(p, k, q), seed


def test_network_json_matches_json_dumps():
    def reference(net, f):
        obj = network_to_dict(net, f)
        v = f.value_total
        obj["value"] = v.numerator if v.denominator == 1 else str(v)
        return json.dumps(obj, indent=2, sort_keys=True)

    nets = []
    for seed in range(20):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 5), rng.randint(0, 2), rng.random(), seed)
        k, q = rng.randint(0, 2), rng.randint(1, 3)
        small = build_small_network(p, k, q)
        f = max_flow(small)
        lifted = build_lifted_network(p, k, q)
        nets += [(small, f), (build_small_network(p, k, q, True), None),
                 (lifted, max_flow(lifted)), (lifted, lift_flow(f, small, lifted))]
    fractional = 0
    for net, f in nets:
        f = f or max_flow(net)
        fractional += any(isinstance(x, Fraction) and x.denominator > 1 for x in f.values)
        assert "".join(network_json(net, f)) == reference(net, f)
    assert fractional
