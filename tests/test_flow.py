import dataclasses
import json
import random
from fractions import Fraction

import pytest
from helpers import FIG2A, named_arcs, named_capacity, named_values, random_feasible_flow

from swenctrl.errors import ConsistencyError, ScaleError
from swenctrl.flow import (
    SINK,
    SOURCE,
    FlowAssignment,
    build_lifted_network,
    build_small_network,
    compact_arcs,
    compact_capacity,
    lift_flow,
    max_flow,
    min_cut,
    network_json,
    network_to_dict,
    network_to_dot,
    phi_arc,
    phi_node,
    project_flow,
    residual_arrays,
    residual_graph,
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
    net = dataclasses.replace(net, capacity=(0,) * len(net.arcs))
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
    net = dataclasses.replace(net, capacity=(0,) * len(net.arcs))
    cut = min_cut(net, max_flow(net))
    assert cut == frozenset(net.nodes) - {SINK}


def test_min_cut_rejects_non_maximal_flow():
    net = build_small_network(FIG2A, 1, 3)
    zero = FlowAssignment((0,) * len(net.arcs), 0)
    with pytest.raises(ConsistencyError):
        min_cut(net, zero)


def test_min_cut_duality_over_random_networks():
    for seed in range(40):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 5), rng.randint(0, 3), rng.random(), seed)
        k, q = rng.randint(0, 3), rng.randint(1, 4)
        net = build_small_network(p, k, q, witness_mode=bool(seed % 2))
        f = max_flow(net)
        cut = min_cut(net, f)  # raises on duality violation
        assert f.value_total <= p.n * q
        assert verify_flow(net, f)


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


def test_one_arc_order_named_and_int_core():
    for seed in range(300):
        rng = random.Random(seed)
        p = random_pattern(rng.randint(1, 12), rng.randint(0, 3), rng.random(), seed)
        tail, head = compact_arcs(p.n, p.m, p.stars)
        assert list(zip(tail, head)) == tuple_sorted_arcs(p), seed
        for k in range(3):
            for q in (1, 2, 5):
                for witness_mode in (False, True):
                    named = residual_graph(build_small_network(p, k, q, witness_mode))
                    cap = compact_capacity(p.n, p.m, tail, k, q, witness_mode)
                    core = residual_arrays(p.m + 2 * p.n + 2, tail, head, cap)
                    assert (named.head, named.adj, named.cap) == (core.head, core.adj, core.cap)


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
