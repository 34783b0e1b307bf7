"""Shared fixtures: worked-example patterns, the tight and long-path
families and the benchmark's own families, the ensemble lift of a pattern,
a random feasible-flow builder, the compact-network view of a transport
solver's flow, a named network as a JSON-ready dict, the cold binary
search for k* that compute_kstar must reproduce, the literal subset walk
that the brute-force referees must reproduce, the per-arc residual
construction that flow.residual must reproduce, Dinic with levels by
distance from the source and the sink-side search that augment and the
transport solver must reproduce (both on the (head, adj, cap) lists of
flow.residual), and the literal references for the numerical referee
(dense segment assembly, Bareiss rank over every power column, sampling by
a scan of every pattern cell, and the Monte Carlo call with an exact rank
on every trial)."""

from __future__ import annotations

import importlib.util
import random
from collections import deque
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

from swenctrl.core import Transport
from swenctrl.decide import witness_from_cut
from swenctrl.errors import ScaleError
from swenctrl.flow import (
    FlowAssignment,
    FlowNetwork,
    _flow_json_value,
    build_small_network,
    max_flow,
    min_cut,
    node_name,
)
from swenctrl.graph import reachability_check
from swenctrl.oracle import _closure, _SpanBasis, _trial_seed
from swenctrl.pattern import (
    DEFAULT_VALUE_BOUND,
    MAX_PATTERN_DIM,
    EnsembleInstance,
    SparsityPattern,
    sample_instance,
)
from swenctrl.results import (
    ArgmaxSubset,
    EmptyAlphaIn,
    KStarResult,
    Saturated,
    Unreachable,
    Verdict,
    VerdictStats,
    ViolatingSubset,
)

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

# States 1 and 2 form a cycle that no input reaches, yet the compact network
# saturates at (0, 1) and (1, 2): theta = n q with a False verdict.
UNREACHABLE_CYCLE = SparsityPattern(3, 1, frozenset({(1, 2), (2, 1), (3, 4)}))


def hub_pattern(n: int, block: int = 8) -> SparsityPattern:
    """States in consecutive blocks; each block's only state in-neighbour is
    its hub, the first state of the next block, and one input feeds every
    state.  k* = block - 1."""
    stars = {(i, n + 1) for i in range(1, n + 1)}
    for start in range(1, n + 1, block):
        hub = (start + block - 1) % n + 1
        stars.update((i, hub) for i in range(start, min(start + block, n + 1)))
    return SparsityPattern(n, 1, frozenset(stars))


def tight_pattern(n: int, seed: int, failing: bool = False) -> SparsityPattern:
    """A tight transport instance at (k, q) = (0, 1): state i takes one star
    from a hidden random permutation, two random state stars and the star of
    its predecessor on a random cycle through all states; one input feeds
    the cycle's first state.  The permutation saturates every state with no
    state column giving more than its one unit, so the pattern saturates at
    (0, 1) by construction, but a greedy fill leaves many states short, each
    needing a long alternating path.  The failing variant (n >= 3) plants
    V' = the cycle's second and third states, both fed only by the first,
    so |beta_in(V')| + |alpha_in(V')| = 1 < 2 = |V'|; every state stays
    reachable, through the first state."""
    rng = random.Random(f"tight:{n}:{seed}")
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    cycle = list(range(1, n + 1))
    rng.shuffle(cycle)
    rows = {i: {perm[i - 1], rng.randint(1, n), rng.randint(1, n)} for i in range(1, n + 1)}
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        rows[b].add(a)
    rows[cycle[0]].add(n + 1)
    if failing:
        if n < 3:
            raise ValueError("the failing tight variant needs n >= 3")
        for i in cycle[1:3]:
            rows[i] = {cycle[0]}
    return SparsityPattern.from_rows(n, 1, tuple(tuple(sorted(rows[i])) for i in range(1, n + 1)))


def long_path_chain(n: int) -> SparsityPattern:
    """States 1 -> 2 -> ... -> n, each state j < n also feeding itself, and
    one input feeding state 1; state n takes only from state n-1.  At
    (k, q) = (0, 1) the greedy fill gives each state j < n its own unit and
    leaves state n short, and the one augmenting path runs back through
    every state to the input, 2n nodes long; the pattern saturates."""
    rows = ((1, n + 1), *((j - 1, j) for j in range(2, n)), (n - 1,))
    return SparsityPattern.from_rows(n, 1, rows)


def lift_ensemble(pattern: SparsityPattern, q: int) -> SparsityPattern:
    """Ensemble-of-q expansion: q diagonal copies of the state block, the input
    block stacked so all copies share the m input columns."""
    if not isinstance(q, int) or q < 1:
        raise ValueError("ensemble size q must be an integer >= 1")
    n = pattern.n
    if n * q > MAX_PATTERN_DIM:
        raise ScaleError(f"lifted state dimension n*q = {n * q} exceeds {MAX_PATTERN_DIM}")
    # copy p shifts state column j to j + p*n and input column j to
    # j + n(q-1), both increasing maps, so every row stays sorted
    shift = n * (q - 1)
    rows = tuple(tuple(j + p * n if j <= n else j + shift for j in row)
                 for p in range(q) for row in pattern.rows)
    return SparsityPattern.from_rows(n * q, pattern.m, rows)


_GENERATORS = Path(__file__).resolve().parents[1] / "benchmark" / "generators.py"


@lru_cache(maxsize=None)
def _benchmark_generators():
    spec = importlib.util.spec_from_file_location("benchmark_generators", _GENERATORS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def benchmark_pattern(family: str, n: int, seed: int) -> SparsityPattern:
    """A member of a benchmark workload's family, drawn by the benchmark's
    own seeded generators (which import nothing from swenctrl): "backbone",
    "hub", "sparse-fail" (a block with no state in-neighbour),
    "sparse-fail-unreachable" or the referee workload's "small_random"."""
    generators = _benchmark_generators()
    if family.startswith("sparse-fail"):
        n, m, stars = generators.sparse_fail(n, seed, family.endswith("unreachable"))
    else:
        n, m, stars = getattr(generators, family)(n, seed)
    return SparsityPattern(n, m, stars)


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


def reference_brute(pattern: SparsityPattern, k: int, q: int) -> tuple:
    """The answers of brute_force_check(pattern, k, q), its least violation
    (graph._least_violation of the subset classes) and kstar_brute(pattern),
    by the definitions: every mask in ascending order, its in-neighbours a
    set union of its states' rows, counted with len; a violation keeps the
    least gap rhs - lhs (the first mask on ties), EmptyAlphaIn the first
    mask with no state in-neighbour, ArgmaxSubset the first mask reaching
    the maximum of ceil(|V'| / |alpha_in(V')|) - 1."""
    n = pattern.n
    violation = starved = argmax = None
    for mask in range(1, 1 << n):
        subset = frozenset(i for i in range(1, n + 1) if mask >> (i - 1) & 1)
        columns = set().union(*(pattern.rows[i - 1] for i in subset))
        alpha = len({j for j in columns if j <= n})
        beta = len(columns) - alpha
        lhs = (k + 1) * beta + (k + 1) * q * alpha
        rhs = q * len(subset)
        if lhs < rhs and (violation is None or rhs - lhs < violation[2] - violation[1]):
            violation = (subset, lhs, rhs)
        if alpha == 0:
            starved = starved or subset
        elif argmax is None or -(-len(subset) // alpha) - 1 > argmax[0]:
            argmax = (-(-len(subset) // alpha) - 1, subset)
    unreachable = reachability_check(pattern)
    stats = VerdictStats(None, n * q)
    if unreachable:
        verdict = Verdict(False, Unreachable(unreachable), stats)
        kstar = KStarResult(None, Unreachable(unreachable))
    else:
        if violation is None:
            verdict = Verdict(True, Saturated(n * q), stats)
        else:
            verdict = Verdict(False, ViolatingSubset(*violation, k, q), stats)
        kstar = (KStarResult(None, EmptyAlphaIn(starved)) if starved
                 else KStarResult(argmax[0], ArgmaxSubset(argmax[1])))
    return verdict, violation, kstar


def reference_residual(size: int, tail, head, capacity) -> tuple[list, list, list]:
    """head, adj and cap of the zero-flow residual graph, built arc by arc:
    edge 2a is arc a, appended to its tail's list, and edge 2a+1 its
    reverse, appended to its head's list."""
    res_head, adj, cap = [], [[] for _ in range(size)], []
    for a, (u, v, c) in enumerate(zip(tail, head, capacity)):
        res_head += [v, u]
        cap += [c, 0]
        adj[u].append(2 * a)
        adj[v].append(2 * a + 1)
    return res_head, adj, cap


def reference_augment(head: list, adj: list, residual: list) -> int:
    """Dinic with levels by distance from the source: a full search from the
    source per phase, then a depth-first search along the edges that raise
    the level by one, in construction order with fixed pointer advancement.
    Raises the flow in the residual graph (head, adj, residual) to a maximum
    one, in place; returns the value added."""
    size = len(adj)
    s, t = 0, size - 1
    added = 0

    def bfs_levels():
        level = [-1] * size
        level[s] = 0
        dq = deque([s])
        while dq:
            u = dq.popleft()
            for e in adj[u]:
                if residual[e] > 0 and level[head[e]] < 0:
                    level[head[e]] = level[u] + 1
                    dq.append(head[e])
        return level if level[t] >= 0 else None

    while (level := bfs_levels()) is not None:
        pointer = [0] * size
        path: list[int] = []
        u = s
        while True:
            if u == t:
                aug = min(residual[e] for e in path)
                for e in path:
                    residual[e] -= aug
                    residual[e ^ 1] += aug
                added += aug
                path = []
                u = s
                continue
            advanced = False
            edges = adj[u]
            while pointer[u] < len(edges):
                e = edges[pointer[u]]
                if residual[e] > 0 and level[head[e]] == level[u] + 1:
                    path.append(e)
                    u = head[e]
                    advanced = True
                    break
                pointer[u] += 1
            if advanced:
                continue
            if u == s:
                break
            u = head[path.pop() ^ 1]
            pointer[u] += 1
    return added


def reference_sink_side(head: list, adj: list, cap: list) -> list[bool]:
    """The nodes that reach the sink in the residual graph (head, adj, cap),
    by a full search from the sink over the reverse residual edges."""
    reach = [False] * len(adj)
    reach[-1] = True
    dq = deque([len(adj) - 1])
    while dq:
        for e in adj[dq.popleft()]:
            u = head[e]
            if not reach[u] and cap[e ^ 1] > 0:
                reach[u] = True
                dq.append(u)
    return reach


def transport_values(net: FlowNetwork, flow: Transport) -> FlowAssignment:
    """The flow a Transport holds, as per-arc values of the compact network
    net of the same pattern at the Transport's current (k, q): a source arc
    carries its column's supply less its spare, lam_c -> mu_i and
    nu_j -> mu_i what column n+c or j feeds state i, and mu_i -> sink what
    state i receives."""
    n, m = net.n, net.m
    mu, sink = m + n, m + 2 * n + 1

    def column(u):  # lam_c is column n+c, nu_j column j
        return n + u if u <= m else u - m

    values = []
    for (u, v), cap in zip(net.arcs, net.capacity):
        if u == 0:
            values.append(cap - flow.spare[column(v)])
        elif v == sink:
            values.append(flow.q - flow.short[u - mu - 1])
        else:
            values.append(flow.fed[column(u)].get(v - mu - 1, 0))
    return FlowAssignment(tuple(values), flow.value)


def network_to_dict(net: FlowNetwork, flow: FlowAssignment | None = None) -> dict:
    """The network, and the flow's per-arc values if given, as the dict whose
    json.dumps (with the flow value under "value") flow.network_json
    streams."""
    names = [node_name(v) for v in net.nodes]
    arcs = []
    for a, ((u, v), cap) in enumerate(zip(net.arcs, net.capacity)):
        entry = {"from": names[u], "to": names[v], "cap": cap}
        if flow is not None:
            entry["flow"] = _flow_json_value(flow.values[a])
        arcs.append(entry)
    return {
        "kind": net.kind,
        "n": net.n,
        "m": net.m,
        "k": net.k,
        "q": net.q,
        "witness_mode": net.witness_mode,
        "nodes": names,
        "arcs": arcs,
    }


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


def assemble_segment(instance: EnsembleInstance, ell: int) -> tuple[tuple, tuple]:
    """Block-diagonal A and stacked B of the q-ensemble for one segment, as
    dense tuples: the literal reference's own assembly, shared with no code
    of the referee."""
    if not 0 <= ell <= instance.k:
        raise ValueError(f"segment index {ell} out of range 0..{instance.k}")
    n, m, q = instance.pattern.n, instance.pattern.m, instance.q
    dim = n * q
    a = [[0] * dim for _ in range(dim)]
    b = [[0] * m for _ in range(dim)]
    blocks = instance.blocks  # a view built on each read
    for p in range(1, q + 1):
        ab, bb = blocks[(p, ell)]
        base = (p - 1) * n
        for i in range(n):
            row = a[base + i]
            for j in range(n):
                row[base + j] = ab[i][j]
            for c in range(m):
                b[base + i][c] = bb[i][c]
    return tuple(map(tuple, a)), tuple(map(tuple, b))


def rank_mod(vectors, p: int) -> int:
    """Rank mod the prime p of the span of integer vectors, by Gauss-Jordan
    elimination: the pivot rows are kept with pivot 1 and zero in every
    other pivot column, and each vector, reduced mod p, is cleared against
    them and becomes one when it is not zero."""
    pivots = {}
    for v in vectors:
        row = [x % p for x in v]
        for c, pivot_row in pivots.items():
            if row[c]:
                f = row[c]
                row = [(x - f * y) % p for x, y in zip(row, pivot_row)]
        lead = next((c for c, x in enumerate(row) if x), None)
        if lead is None:
            continue
        inverse = pow(row[lead], -1, p)
        row = [x * inverse % p for x in row]
        for c, pivot_row in pivots.items():
            if pivot_row[lead]:
                f = pivot_row[lead]
                pivots[c] = [(x - f * y) % p for x, y in zip(pivot_row, row)]
        pivots[lead] = row
        if len(pivots) == len(row):
            break
    return len(pivots)


def literal_closure_rank(instance: EnsembleInstance, prime: int | None = None) -> int:
    """The invariant closure's rank from its definition, over the rationals
    by exact_rank, or mod `prime` by rank_mod: the span of every segment's B
    columns, extended by every segment's A times every spanning vector until
    the rank stops rising.  In each round a vector joins the spanning set
    when it raises the set's rank, and the round stops once the set has the
    rank of the set and the whole round; each vector that joins is
    multiplied by every A in the next round, so the span ends invariant
    under every A."""
    def rank(vectors):
        return exact_rank(vectors) if prime is None else rank_mod(vectors, prime)

    dim, m = instance.pattern.n * instance.q, instance.pattern.m
    segments = [assemble_segment(instance, ell) for ell in range(instance.k + 1)]
    frontier = [[b[r][c] for r in range(dim)] for _, b in segments for c in range(m)]
    spanning = []
    while frontier:
        target = rank(spanning + frontier)
        joined = []
        for v in frontier:
            if len(spanning) == target:
                break
            if rank(spanning + [v]) > len(spanning):
                spanning.append(v)
                joined.append(v)
        frontier = [[sum(x * y for x, y in zip(row, v)) for row in a]
                    for a, _ in segments for v in joined]
        if prime is not None:
            frontier = [[x % prime for x in v] for v in frontier]
    return rank(spanning)


def reference_monte_carlo(pattern: SparsityPattern, k: int, q: int, trials: int, seed: int,
                          value_bound: int = DEFAULT_VALUE_BOUND,
                          criterion: str = "invariant_closure") -> tuple[bool, int]:
    """The answer monte_carlo_controllable must give, with an exact rank of
    the criterion's space on every trial's sample and no modular pass."""
    dim = pattern.n * q
    successes = sum(
        _closure(sample_instance(pattern, k, q, seed=_trial_seed(seed, t), value_bound=value_bound),
                 _SpanBasis, criterion == "sequential_subspace").dimension == dim
        for t in range(1, trials + 1)
    )
    return successes > 0, successes


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
