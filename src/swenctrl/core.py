"""The decision core: check_structural and compute_kstar on the compact
network's flat int arcs, and everything they run.

compact_arcs reads the arcs straight off a pattern's rows, compact_offsets
gives the first arc leaving each node, compact_capacity the capacities for
(k, q), and compact_unreachable runs the reachability search on the arcs,
stopping once every state is seen.
residual_arrays fills only a Residual's head and cap lists; its adjacency
lists are built on first read.  Each solve first pushes the direct paths
s -> left -> mu_i -> t (push_direct, over each left node's contiguous arc
range, with no adjacency lists), which often saturate the network, and
augments (Dinic, with levels by residual distance to the sink) only while
short of saturation or of a known cut's capacity; compute_kstar raises a
compact network's switch count in place (shift_switch_count) and solves on.
augment's last search, which fails, labels the sink side of the
source-maximal min cut, and residual_min_cut checks that cut's capacity
against the flow value.  The in-neighbours of the cut's states, like every
other in-neighbour set, are read off the pattern's rows (in_neighbours),
never off the network.

This module imports nothing from swenctrl but errors and results, so the
check and kstar subcommands load neither the named networks of flow (and
fractions), nor the referees of graph and decide.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque

from .errors import ConsistencyError, ScaleError
from .results import (
    EmptyAlphaIn,
    FrozenValue,
    KStarResult,
    Saturated,
    Unreachable,
    Verdict,
    VerdictStats,
    ViolatingSubset,
)

_INT64_MAX = (1 << 63) - 1


def check_kq(n: int, m: int, k: int, q: int) -> None:
    """The one guard on (k, q) for an n-state, m-input pattern, checked before
    any work: ValueError unless k >= 0 and q >= 1 are ints, ScaleError unless
    the total source capacity (k+1)(m+nq), which bounds every flow value and
    cut and both sides of the counting condition, fits in 63 bits."""
    if not isinstance(k, int) or k < 0:
        raise ValueError("switch count k must be an integer >= 0")
    if not isinstance(q, int) or q < 1:
        raise ValueError("ensemble size q must be an integer >= 1")
    if (k + 1) * (m + n * q) >= _INT64_MAX:
        raise ScaleError("total source capacity (k+1)(m+nq) exceeds the 64-bit guard")


def counting_sides(k: int, q: int, size: int, alpha: int, beta: int) -> tuple[int, int]:
    """Both sides (k+1)beta + (k+1)q alpha and q size of the counting
    condition for a subset of size states with alpha state and beta control
    in-neighbours."""
    return (k + 1) * beta + (k + 1) * q * alpha, q * size


def in_neighbours(rows, n: int, subset) -> tuple[frozenset[int], frozenset[int]]:
    """State and control in-neighbours (alpha_in, beta_in) of the states in
    subset, read off the rows of an n-state pattern: the columns of the
    subset's rows, split at n, column j <= n standing for state j and
    column j > n for input j - n."""
    columns = frozenset().union(*[rows[i - 1] for i in subset])
    alpha = frozenset(j for j in columns if j <= n)
    return alpha, frozenset(j - n for j in columns - alpha)


def compact_arcs(n: int, m: int, rows) -> tuple[list[int], list[int]]:
    """Tail and head ids of the compact network's arcs, in construction
    order, for the rows of an n x (n+m) pattern (row i the sorted columns of
    state i's stars).

    Node ids: the source is 0, lam_c is c, nu_j is m+j, mu_i is m+n+i and the
    sink m+2n+1.  The arcs are: one from the source to every left node, then
    one per star, the control arcs lam_c -> mu_i sorted by (c, i) and the
    state arcs nu_j -> mu_i sorted by (j, i), then one from every right node
    to the sink; the tails are therefore nondecreasing.  One pass over the
    states in order appends each state's mu id to the bucket of every column
    in its row, so every bucket comes out sorted; the buckets are joined in
    left-node order, input columns first.
    """
    mu = n + m  # mu_i is mu + i
    columns: list[list[int]] = [[] for _ in range(n + m + 1)]
    for i, row in enumerate(rows, mu + 1):
        for j in row:
            columns[j].append(i)
    tail = [0] * mu
    head = list(range(1, mu + 1))
    for u, column in enumerate(columns[n + 1:] + columns[1:n + 1], 1):  # lam_1.., nu_1..
        if column:
            tail += [u] * len(column)
            head += column
    tail += range(mu + 1, mu + n + 1)
    head += [mu + n + 1] * n
    return tail, head


def compact_offsets(n: int, m: int, tail: list[int]) -> list[int]:
    """first[u], the position of the first arc leaving node u among the
    compact arcs whose tails compact_arcs gave, for u = 0..m+n+1.  As the
    tails never decrease, the middle arcs leaving left node u are the arcs
    first[u] .. first[u+1]-1, and first[m+n+1] is the first sink arc."""
    return [bisect_left(tail, u) for u in range(m + n + 2)]


def compact_unreachable(n: int, m: int, first: list[int], head: list[int]) -> frozenset[int]:
    """States among 1..n that no directed path from an input reaches, read
    off the arcs compact_arcs gave, with their compact_offsets: the heads of
    the control arcs are the input-fed states, and the state arcs leaving
    nu_j point to the states a_j points to.  The search stops as soon as
    every state is seen, before it starts when the inputs feed them all."""
    mu = m + n  # mu_i is mu + i
    seen = set(head[first[1]:first[m + 1]])  # the mu ids of the input-fed states
    stack = list(seen)
    while stack and len(seen) < n:
        j = stack.pop() - mu
        new = set(head[first[m + j]:first[m + j + 1]]) - seen  # the arcs leaving nu_j
        seen |= new
        stack += new
    if len(seen) == n:
        return frozenset()
    return frozenset(i for i in range(1, n + 1) if mu + i not in seen)


def compact_capacity(n: int, m: int, tail: list[int], k: int, q: int,
                     witness_mode: bool = False) -> list[int]:
    """Capacities k+1 / q(k+1) / q of the compact arcs whose tails compact_arcs
    gave, in the same order.

    In witness mode every left-to-right capacity is replaced by the total
    source capacity + 1, which leaves the max-flow value unchanged (each left
    node is already throttled by its single source arc) but forces every min
    cut onto the source and sink arcs, where a violating subset can be read
    off directly.  (k, q) pass check_kq first.
    """
    check_kq(n, m, k, q)
    kp1 = k + 1
    big = q * kp1
    control = bisect_left(tail, m + 1) - m - n
    state = len(tail) - 2 * n - m - control
    if witness_mode:
        middle = [m * kp1 + n * big + 1] * (control + state)
    else:
        middle = [kp1] * control + [big] * state
    return [kp1] * m + [big] * n + middle + [q] * n


class Residual(FrozenValue):
    """Residual graph of a network on nodes 0..size-1: edge 2a is arc a,
    edge 2a+1 its reverse.

    head[e] is the node edge e enters, so head[e ^ 1] is the node it leaves.
    cap[e] is the residual capacity of edge e, so cap[2a+1] is the flow on
    arc a and cap[2a] + cap[2a+1] its capacity.  adj[u] lists the edges
    leaving node u in construction order; it is built from head on first
    read, at most once, and shared by copies, which also share head.  Node 0
    is the source and node size-1 the sink.
    """

    _fields = ("size", "head", "cap")
    __slots__ = (*_fields, "_adj")  # _adj: [adj] once read, shared by copies

    def __init__(self, size: int, head: list[int], cap: list, _adj: list | None = None):
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "_adj", [] if _adj is None else _adj)

    @property
    def adj(self) -> list[list[int]]:
        if not self._adj:
            self._adj.append(_adjacency(self.size, self.head))
        return self._adj[0]

    def copy(self) -> Residual:
        return Residual(self.size, self.head, self.cap.copy(), self._adj)


def _adjacency(size: int, head: list[int]) -> list[list[int]]:
    """The edges leaving each of the nodes 0..size-1, in construction order."""
    adj: list[list[int]] = [[] for _ in range(size)]
    e = 0
    ends = iter(head)
    for v, u in zip(ends, ends):  # arc e // 2 runs u -> v
        adj[u].append(e)
        adj[v].append(e + 1)
        e += 2
    return adj


def residual_arrays(size: int, tail, head, capacity) -> Residual:
    """Residual graph at zero flow of the network on nodes 0..size-1 with
    arcs tail[a] -> head[a] of the given capacities.  Only head and cap are
    filled here; adj waits for its first read."""
    edges = 2 * len(tail)
    res_head = [0] * edges
    res_head[0::2] = head
    res_head[1::2] = tail
    cap = [0] * edges
    cap[0::2] = capacity
    return Residual(size, res_head, cap)


def shift_switch_count(res: Residual, n: int, m: int, q: int, dk: int) -> None:
    """Change the switch count of the residual res of an n-state, m-input
    compact network at ensemble size q by dk, keeping its flow: each lam
    source arc gains dk, each nu source arc q*dk.

    The flow stays feasible while dk >= 0, since every other capacity is
    fixed; witness-mode middle capacities stay above the source total only
    up to the switch count the network was built with.
    """
    cap = res.cap
    for a in range(m):
        cap[2 * a] += dk
    for a in range(m, m + n):
        cap[2 * a] += q * dk


def push_direct(res: Residual, n: int, m: int, first: list[int]) -> int:
    """Push flow along the direct paths s -> u -> mu_i -> t of the residual
    res of an n-state, m-input compact network, which may already carry
    flow, given the compact_offsets first of its arcs; returns the value
    added.

    Each left node u = 1..m+n in id order walks its forward edges, those of
    its arcs first[u] .. first[u+1]-1, in construction order, pushing the
    least residual of its source arc, the edge and mu_i's sink arc, until
    its source arc is empty.  The result is a feasible flow, not necessarily
    a maximum one.  Only head and cap are read, so adj is never built.
    """
    head, cap = res.head, res.cap
    sink_edge = len(head) - 2 * (m + 2 * n + 1)  # + 2v is the edge of mu node v's sink arc
    added = 0
    for u in range(1, m + n + 1):
        src = 2 * u - 2
        supply = cap[src]
        lo, hi = 2 * first[u], 2 * first[u + 1]
        if not supply or lo == hi:
            continue
        for e in range(lo, hi, 2):
            out = sink_edge + 2 * head[e]
            if not cap[out]:  # most edges, once the sink arcs fill
                continue
            x = min(supply, cap[e], cap[out])
            if x:
                cap[e] -= x
                cap[e + 1] += x
                cap[out] -= x
                cap[out + 1] += x
                supply -= x
                if not supply:
                    break
        x = cap[src] - supply
        cap[src] = supply
        cap[src + 1] += x
        added += x
    return added


def augment(res: Residual) -> tuple[int, list[int]]:
    """Raise the flow held in res to a maximum one by deterministic
    phase-based blocking flow (Dinic); returns the value added and the labels
    of the last search.

    Each phase labels the nodes by their residual distance to the sink: a
    search from the sink over the reverse residual edges, stopped as soon as
    the source is labelled.  A depth-first search from the source then
    follows the edges that lower that distance by one, in construction
    order with fixed pointer advancement, so identical residuals give
    identical flows (the same as labelling by distance from the source,
    since both admit exactly the edges on shortest source-sink paths).

    The last search never labels the source, so it labels exactly the nodes
    that reach the sink: label[v] is 1 + the residual distance from v to the
    sink, and 0 when v cannot reach it.  Those nodes are the sink side of
    the source-maximal minimum cut, the same for every maximum flow.
    """
    head, adj, residual = res.head, res.adj, res.cap
    size = res.size
    s, t = 0, size - 1
    added = 0

    def bfs_labels():
        label = [0] * size
        label[t] = 1
        dq = deque([t])
        while dq:
            v = dq.popleft()
            d = label[v] + 1
            for e in adj[v]:
                u = head[e]  # e leaves v; its reverse e ^ 1 enters v from u
                if not label[u] and residual[e ^ 1] > 0:
                    label[u] = d
                    if u == s:
                        return label
                    dq.append(u)
        return label

    while (label := bfs_labels())[s]:
        pointer = [0] * size
        path: list[int] = []  # residual edges from s to u
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
            d = label[u] - 1  # >= 1, as only the sink has label 1
            while pointer[u] < len(edges):
                e = edges[pointer[u]]
                if residual[e] > 0 and label[head[e]] == d:
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
    return added, label


def residual_min_cut(res: Residual, label: list[int], value) -> list[int]:
    """Check that the nodes labelled by augment's last search on res, the
    sink side of the source-maximal minimum cut, cut off value, and return
    the labels.

    Only the edges of the sink-side nodes are read: the cut capacity sums
    the arcs entering the sink side from unlabelled nodes.  Raises
    ConsistencyError when it does not equal value, i.e. when value is not
    the value of the flow in res.
    """
    head, adj, cap = res.head, res.adj, res.cap
    cut_capacity = 0
    for v, reached in enumerate(label):
        if reached:
            for e in adj[v]:
                if e & 1 and not label[head[e]]:  # e is the reverse of an arc into v
                    cut_capacity += cap[e] + cap[e ^ 1]
    if cut_capacity != value:
        raise ConsistencyError(
            f"cut capacity {cut_capacity} != flow value {value}; flow is not maximal"
        )
    return label


def check_structural(pattern: SparsityPattern, k: int, q: int) -> Verdict:
    """Decide structural controllability for (k, q).

    False verdicts carry a verified certificate: the unreachable state nodes,
    or a state subset violating the counting condition, extracted from a
    minimum cut of the witness-mode network.  Everything runs on the compact
    network's int arcs, built straight from the pattern's rows.  The flow
    is found by pushing the direct paths s -> left -> mu_i -> t and then
    augmenting while short of saturation; which maximum flow that gives does
    not matter, since every maximum flow has the same value theta and the
    nodes that reach the sink in its residual graph, the sink side of the
    source-maximal min cut, are the same for all of them.  augment's last
    search labels those nodes, so the cut costs no further search.
    """
    n, m = pattern.n, pattern.m
    check_kq(n, m, k, q)
    target = n * q
    tail, head = compact_arcs(n, m, pattern.rows)
    first = compact_offsets(n, m, tail)
    unreachable = compact_unreachable(n, m, first, head)
    if unreachable:
        return Verdict(False, Unreachable(unreachable), VerdictStats(None, target))
    res = residual_arrays(m + 2 * n + 2, tail, head,
                          compact_capacity(n, m, tail, k, q, witness_mode=True))
    theta, label = _solve(res, n, m, first, 0, target)
    stats = VerdictStats(theta, target)
    if theta == target:
        return Verdict(True, Saturated(theta), stats)
    subset, alpha, beta = _sink_side_states(pattern.rows, n, m,
                                            residual_min_cut(res, label, theta))
    lhs, rhs = _violation(k, q, subset, alpha, beta)
    return Verdict(False, ViolatingSubset(subset, lhs, rhs, k, q), stats)


def _solve(res: Residual, n: int, m: int, first: list[int], theta: int,
           bound: int) -> tuple[int, list[int] | None]:
    """Raise the flow of value theta held in the compact residual res, whose
    arcs have the compact_offsets first, to a maximum one, given a bound no
    flow can exceed (the target, or the capacity of a known cut): push the
    direct paths, then augment only while the value is short of bound, so a
    solve the direct paths saturate never builds res.adj.  Returns the value
    and, when augment ran, the labels of its last search (the sink side of
    the source-maximal min cut), else None; a flow that reaches bound is
    maximum by weak duality."""
    theta += push_direct(res, n, m, first)
    if theta >= bound:
        return theta, None
    added, label = augment(res)
    return theta + added, label


def _sink_side_states(rows, n: int, m: int, sink_side) -> tuple[frozenset[int], int, int]:
    """The states whose right copy mu_j lies on the sink side of a cut of an
    n-state, m-input compact network, given by its node labels, with their
    numbers of state and control in-neighbours, read off the pattern's
    rows."""
    mu = m + n  # mu_j is mu + j
    subset = frozenset(j for j in range(1, n + 1) if sink_side[mu + j])
    alpha, beta = in_neighbours(rows, n, subset)
    return subset, len(alpha), len(beta)


def _violation(k: int, q: int, subset, alpha: int, beta: int) -> tuple[int, int]:
    """Both sides of the counting condition for a cut-derived subset, which
    must violate it; ConsistencyError is raised if it does not (a cut that is
    not the source side of a witness-mode min cut for (k, q))."""
    lhs, rhs = counting_sides(k, q, len(subset), alpha, beta)
    if lhs >= rhs:
        raise ConsistencyError("cut-derived subset satisfies the counting condition; "
                               "the cut is not a witness-mode min cut")
    return lhs, rhs


def compute_kstar(pattern: SparsityPattern) -> KStarResult:
    """Minimal switch count working for every ensemble size.

    At the ensemble size q = mn+1 the counting condition already implies it
    for every q, and for k <= n-1 it reduces to (k+1)|alpha_in(V')| >= |V'|,
    so k* = max ceil(|V'| / |alpha_in(V')|) - 1 over state subsets V'.  An
    unreachable pattern, or one with a state that has no state in-neighbour,
    has no finite k*.  The latter is answered from the pattern's rows, with
    no flow: a state has no state in-neighbour when its sorted row is empty
    or starts past column n.
    Let Z be the states with no state in-neighbour and qbar = mn+1.  In the
    witness-mode network at (n-1, qbar), a finite cut with sink-side states
    V' costs qbar(n-|V'|) + n|beta_in(V')| + n qbar|alpha_in(V')|.  Any V'
    with alpha_in(V') nonempty costs at least n qbar, the cost of V' = {};
    for V' within Z, adding a state of Z changes the cost by at most
    -qbar + nm = -1.  So Z is the unique minimiser: the sink side of the
    source-maximal min cut, hence the EmptyAlphaIn witness, and its cost is
    the max-flow value (max-flow/min-cut), the one trace entry.

    Otherwise one witness-mode network at q = mn+1, valid for every k <= n-1,
    is solved at k = 0 and then ascended: while the flow is short of
    n(mn+1), the source-maximal min cut gives a violating V', k becomes
    ceil(|V'| / |alpha_in(V')|) - 1 (above the current k, never above k*),
    and the source arcs are raised with the flow kept.  The trace replays the
    binary search over [0, n-1] that probes the same network cold: probes at
    k >= k* saturate, and each probe below k* is solved warm from the
    residual of the largest failing k below it, whose min cut bounds the
    probe: its sink side is V' and alpha_in(V'), beta_in(V') (the middle
    arcs force it), so only its source arcs change with k, and at the
    probe's k it costs theta_below + (k - below)(|beta_in(V')| +
    (mn+1)|alpha_in(V')|).  Each solve pushes the direct paths and then
    augments while short of n(mn+1) and of that capacity; a flow that
    reaches a cut's capacity is maximum (weak duality), and that cut is
    then the next probe's bound.  The flows differ from a cold Dinic
    solve's; but max-flow values, and the source-maximal min cut that picks
    each next k, are the same for every maximum flow, so the ascent, k* and
    the trace are too.  In the ascent the cut just read costs at least
    n(mn+1) at the next k, by the choice of that k, so it bounds nothing.
    """
    n, m, rows = pattern.n, pattern.m, pattern.rows
    tail, head = compact_arcs(n, m, rows)
    first = compact_offsets(n, m, tail)
    unreachable = compact_unreachable(n, m, first, head)
    if unreachable:
        return KStarResult(None, Unreachable(unreachable))
    qbar = m * n + 1
    target = n * qbar
    unfed = frozenset(i for i, row in enumerate(rows, 1) if not row or row[0] > n)
    if unfed:
        _, inputs = in_neighbours(rows, n, unfed)
        _violation(n - 1, qbar, unfed, 0, len(inputs))
        theta = qbar * (n - len(unfed)) + n * len(inputs)
        return KStarResult(None, EmptyAlphaIn(unfed), ((n - 1, theta, target),))
    cap = compact_capacity(n, m, tail, n - 1, qbar, witness_mode=True)
    res = residual_arrays(m + 2 * n + 2, tail, head, cap)
    shift_switch_count(res, n, m, qbar, -(n - 1))  # down to k = 0, still at zero flow
    k, (theta, label) = 0, _solve(res, n, m, first, 0, target)
    # k -> (max-flow value, residual, growth of a min cut's capacity per unit
    # of k) for every k solved short of target
    failing = {}
    while theta < target:
        subset, alpha, beta = _sink_side_states(rows, n, m, residual_min_cut(res, label, theta))
        _violation(k, qbar, subset, alpha, beta)
        failing[k] = (theta, res.copy(), beta + qbar * alpha)
        k_next = -(-len(subset) // alpha) - 1
        if k_next <= k:
            raise ConsistencyError(f"kstar ascent stalled at k={k}")
        shift_switch_count(res, n, m, qbar, k_next - k)
        # the cut just read costs at least target at k_next, so it bounds nothing
        theta, label = _solve(res, n, m, first, theta, target)
        k = k_next
    trace = [(n - 1, target, target)]
    lo, hi = 0, n - 1
    while lo < hi:
        mid = (lo + hi) // 2
        if mid >= k:
            trace.append((mid, target, target))
            hi = mid
            continue
        if mid not in failing:
            below = max(j for j in failing if j < mid)
            theta_below, res_below, slope = failing[below]
            res_mid = res_below.copy()
            shift_switch_count(res_mid, n, m, qbar, mid - below)
            cut = theta_below + (mid - below) * slope  # below's min cut, priced at mid
            theta_mid, label = _solve(res_mid, n, m, first, theta_below, min(target, cut))
            if label is not None and theta_mid < target:  # augment's last search: a new min cut
                _, alpha, beta = _sink_side_states(rows, n, m,
                                                   residual_min_cut(res_mid, label, theta_mid))
                slope = beta + qbar * alpha
            failing[mid] = (theta_mid, res_mid, slope)
        theta_mid = failing[mid][0]
        if theta_mid >= target:
            raise ConsistencyError(f"probe at k={mid} saturates below k*={k}")
        trace.append((mid, theta_mid, target))
        lo = mid + 1
    return KStarResult(k, None, tuple(trace))
