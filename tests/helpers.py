"""Shared fixtures: worked-example patterns and a random feasible-flow builder."""

from __future__ import annotations

import random
from fractions import Fraction

from swenctrl.flow import FlowAssignment, FlowNetwork
from swenctrl.pattern import SparsityPattern

# 5-state, 2-input example: a chain fed by two inputs.
FIG1 = SparsityPattern(
    5, 2,
    frozenset({(1, 2), (1, 6), (1, 7), (2, 7), (3, 1), (4, 2), (4, 3), (5, 3), (5, 4)}),
)

# 2-state, 1-input example: both states driven by the input, a_1 -> a_2.
FIG2A = SparsityPattern(2, 1, frozenset({(1, 3), (2, 3), (2, 1)}))

# 2-state cycle with one input; the minimal switch count is 0.
TWO_CYCLE = SparsityPattern(2, 1, frozenset({(1, 2), (2, 1), (1, 3)}))

# Single driftless integrator xdot = b u.
INTEGRATOR = SparsityPattern(1, 1, frozenset({(1, 2)}))


def named_arcs(net: FlowNetwork) -> list[tuple]:
    """The network's arcs as (tail name, head name) pairs."""
    return [(net.nodes[u], net.nodes[v]) for u, v in net.arcs]


def named_capacity(net: FlowNetwork) -> dict:
    return dict(zip(named_arcs(net), net.capacity))


def named_values(net: FlowNetwork, f: FlowAssignment) -> dict:
    return dict(zip(named_arcs(net), f.values))


def random_feasible_flow(net: FlowNetwork, seed: int, rounds: int = 30) -> FlowAssignment:
    """Random feasible flow: push random fractional amounts along random
    source-to-sink paths, never exceeding residual capacity."""
    rng = random.Random(seed)
    values = [Fraction(0)] * len(net.arcs)
    out_arcs: dict = {}
    for a, (u, _) in enumerate(net.arcs):
        out_arcs.setdefault(u, []).append(a)
    sink = len(net.nodes) - 1
    for _ in range(rounds):
        path = []
        u = 0
        while u != sink:
            candidates = [a for a in out_arcs.get(u, []) if values[a] < net.capacity[a]]
            if not candidates:
                path = []
                break
            a = rng.choice(candidates)
            path.append(a)
            u = net.arcs[a][1]
        if not path:
            continue
        room = min(net.capacity[a] - values[a] for a in path)
        push = room * Fraction(rng.randint(1, 6), 6)
        for a in path:
            values[a] += push
    total = sum(x for (u, _), x in zip(net.arcs, values) if u == 0)
    return FlowAssignment(tuple(values), total)
