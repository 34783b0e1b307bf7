"""Shared fixtures: worked-example patterns, a random feasible-flow builder,
the cold binary search for k* that compute_kstar must reproduce, and the
literal references for the numerical referee (Bareiss rank over every power
column, sampling by a scan of every pattern cell)."""

from __future__ import annotations

import random
from fractions import Fraction

from swenctrl.decide import witness_from_cut
from swenctrl.flow import FlowAssignment, FlowNetwork, build_small_network, max_flow, min_cut
from swenctrl.graph import reachability_check
from swenctrl.oracle import assemble_segment
from swenctrl.pattern import DEFAULT_VALUE_BOUND, EnsembleInstance, SparsityPattern
from swenctrl.results import EmptyAlphaIn, KStarResult, Unreachable

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


def hub_pattern(n: int, block: int = 8) -> SparsityPattern:
    """States in consecutive blocks; each block's only state in-neighbour is
    its hub, the first state of the next block, and one input feeds every
    state.  k* = block - 1."""
    stars = {(i, n + 1) for i in range(1, n + 1)}
    for start in range(1, n + 1, block):
        hub = (start + block - 1) % n + 1
        stars.update((i, hub) for i in range(start, min(start + block, n + 1)))
    return SparsityPattern(n, 1, frozenset(stars))


def reference_kstar(pattern: SparsityPattern) -> KStarResult:
    """k* by a finiteness probe at (n-1, mn+1) and a binary search over
    k in [0, n-1], each probe a witness-mode network solved from zero flow."""
    unreachable = reachability_check(pattern)
    if unreachable:
        return KStarResult(None, Unreachable(unreachable))
    n, m = pattern.n, pattern.m
    qbar = m * n + 1
    target = n * qbar

    def probe(k: int):
        net = build_small_network(pattern, k, qbar, witness_mode=True)
        return max_flow(net), net

    f, net = probe(n - 1)
    trace = [(n - 1, f.value_total, target)]
    if f.value_total < target:
        subset = witness_from_cut(pattern, n - 1, qbar, min_cut(net, f))
        return KStarResult(None, EmptyAlphaIn(subset), tuple(trace))
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        fm, _ = probe(mid)
        trace.append((mid, fm.value_total, target))
        if fm.value_total == target:
            hi = mid
        else:
            lo = mid + 1
    return KStarResult(lo, None, tuple(trace))


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


def exact_rank(vectors) -> int:
    """Rank of the span of integer vectors by fraction-free (Bareiss)
    elimination; exact, no tolerance."""
    rows = [list(v) for v in vectors if any(v)]
    if not rows:
        return 0
    ncols = len(rows[0])
    rank = 0
    prev = 1
    for c in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][c] != 0:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pivot_row = rows[rank]
        p = pivot_row[c]
        for r in range(rank + 1, len(rows)):
            row = rows[r]
            f = row[c]
            for j in range(c + 1, ncols):
                row[j] = (p * row[j] - f * pivot_row[j]) // prev
            row[c] = 0
        prev = p
        rank += 1
        if rank == min(len(rows), ncols):
            break
    return rank


def literal_mode_span_rank(instance: EnsembleInstance, include_d0: bool) -> int:
    """mode_span rank from its definition: exact_rank of every column of
    A[ell]^d B[ell] over all segments ell, for d in 0..qn (1..qn without
    include_d0), the range controllability_rank reports as d_range_used."""
    dim = instance.pattern.n * instance.q
    vectors = []
    for ell in range(instance.k + 1):
        a, b = assemble_segment(instance, ell)
        nonzeros = [[(j, x) for j, x in enumerate(row) if x] for row in a]
        powers = [[[b[r][c] for r in range(dim)] for c in range(instance.pattern.m)]]
        for _ in range(dim):
            powers.append([[sum(x * v[j] for j, x in row) for row in nonzeros] for v in powers[-1]])
        for cols in powers[0 if include_d0 else 1:]:
            vectors.extend(cols)
    return exact_rank(vectors)


def sample_blocks_by_scan(pattern: SparsityPattern, k: int, q: int, seed: int,
                          value_bound: int = DEFAULT_VALUE_BOUND) -> dict:
    """The blocks sample_instance must draw, by a row-major scan of all
    n(n+m) cells of every (subsystem, segment) block."""
    rng = random.Random(seed)
    n, m = pattern.n, pattern.m
    blocks = {}
    for p in range(1, q + 1):
        for ell in range(k + 1):
            a = [[0] * n for _ in range(n)]
            b = [[0] * m for _ in range(n)]
            for i in range(1, n + 1):
                for j in range(1, n + m + 1):
                    if (i, j) in pattern.stars:
                        v = rng.randint(1, value_bound)
                        if j <= n:
                            a[i - 1][j - 1] = v
                        else:
                            b[i - 1][j - n - 1] = v
            blocks[(p, ell)] = (tuple(map(tuple, a)), tuple(map(tuple, b)))
    return blocks
