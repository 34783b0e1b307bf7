"""Three-layer capacitated flow networks, exact integral max-flow, min cuts,
and the layer-expansion flow transfer maps.

Two constructions share the layout source -> left -> right -> sink:

* the compact network: left nodes lam_1..lam_m (control copies) and
  nu_1..nu_n (state out-copies), right nodes mu_1..mu_n (state in-copies),
  with capacities k+1 / q(k+1) / q encoding the switch and ensemble counts;
* the expanded unit-capacity network: every left node is multiplied into
  its k+1 (and, for state copies, q) layers, every right node into its q
  copies, and all capacities collapse to 1.

Both are built from the flat int arcs that compact_arcs reads straight off
a pattern's stars: the decision procedures solve on those arcs with the
capacities of compact_capacity, and compact_unreachable runs the
reachability search on them.  build_small_network only adds the node names,
for export, the flow transfer maps and the referees; build_lifted_network
expands every compact middle arc, in order, into its layer copies.

Every solve runs one augmenting core (augment) on a Residual, which callers
may keep: max_flow starts it from zero flow, and compute_kstar raises a
compact network's switch count in place (shift_switch_count) and augments
on.  residual_min_cut reads the source-maximal min cut off any Residual.

The node-collapsing map phi sends expanded nodes onto compact ones; flows
transfer along phi in both directions with their value preserved.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConsistencyError, ScaleError
from .pattern import SparsityPattern

SOURCE = "s"
SINK = "t"

_INT64_MAX = (1 << 63) - 1
MAX_LIFTED_ARCS = 1 << 20  # guard on the expanded network's arc count

Node = str | tuple
Arc = tuple[int, int]


@dataclass(frozen=True)
class FlowNetwork:
    """Capacitated digraph over integer node ids.

    nodes maps id -> name (SOURCE is id 0, SINK the last id); arcs holds
    (tail id, head id) pairs in construction order and capacity the matching
    capacities.  Names are read only at export and by the phi transfer maps.
    """

    kind: str  # "small" | "lifted"
    n: int
    m: int
    k: int
    q: int
    witness_mode: bool
    nodes: tuple[Node, ...]
    arcs: tuple[Arc, ...]
    capacity: tuple[int, ...]


@dataclass(frozen=True)
class FlowAssignment:
    """Per-arc flow values (exact ints or Fractions), parallel to the
    network's arcs, and the total value."""

    values: tuple[int | Fraction, ...]
    value_total: int | Fraction


def _check_kq(k: int, q: int) -> None:
    if k < 0:
        raise ValueError("switch count k must be >= 0")
    if q < 1:
        raise ValueError("ensemble size q must be >= 1")


def compact_arcs(n: int, m: int, stars) -> tuple[list[int], list[int]]:
    """Tail and head ids of the compact network's arcs, in construction
    order, for the stars (row, column) of an n x (n+m) pattern.

    Node ids: the source is 0, lam_c is c, nu_j is m+j, mu_i is m+n+i and the
    sink m+2n+1.  The arcs are: one from the source to every left node, then
    one per star, the control arcs lam_c -> mu_i sorted by (c, i) and the
    state arcs nu_j -> mu_i sorted by (j, i), then one from every right node
    to the sink; the tails are therefore nondecreasing.  The star (i, j)
    becomes the int key n*j + i - 1; sorted, the keys list the state
    columns' stars and then the input columns' stars, each by (column, row).
    """
    keys = sorted([n * j + i - 1 for i, j in stars])
    split = bisect_left(keys, n * (n + 1))  # first star in an input column
    control, state = keys[split:], keys[:split]
    mu = n + m + 1  # id of mu_1
    tail = [0] * (n + m)
    tail += [key // n - n for key in control]
    tail += [key // n + m for key in state]
    tail += range(mu, mu + n)
    head = list(range(1, mu))
    head += [key % n + mu for key in control]
    head += [key % n + mu for key in state]
    head += [mu + n] * n
    return tail, head


def compact_unreachable(n: int, m: int, tail: list[int], head: list[int]) -> frozenset[int]:
    """States among 1..n that no directed path from an input reaches, read
    off the arcs compact_arcs gave: the heads of the control arcs are the
    input-fed states, and the state arcs leaving nu_j (contiguous, as the
    tails are sorted) point to the states a_j points to."""
    first = [bisect_left(tail, t) for t in range(1, m + n + 2)]  # first arc leaving node t
    mu = m + n  # mu_i is mu + i
    seen = [False] * (n + 1)
    queue = deque()
    for h in head[first[0]:first[m]]:
        if not seen[h - mu]:
            seen[h - mu] = True
            queue.append(h - mu)
    while queue:
        j = queue.popleft()
        for h in head[first[m + j - 1]:first[m + j]]:  # the arcs leaving nu_j
            if not seen[h - mu]:
                seen[h - mu] = True
                queue.append(h - mu)
    return frozenset(i for i in range(1, n + 1) if not seen[i])


def compact_capacity(n: int, m: int, tail: list[int], k: int, q: int,
                     witness_mode: bool = False) -> list[int]:
    """Capacities k+1 / q(k+1) / q of the compact arcs whose tails compact_arcs
    gave, in the same order.

    In witness mode every left-to-right capacity is replaced by the total
    source capacity + 1, which leaves the max-flow value unchanged (each left
    node is already throttled by its single source arc) but forces every min
    cut onto the source and sink arcs, where a violating subset can be read
    off directly.  Raises ScaleError when the total source capacity, which
    bounds every flow value, does not fit in 63 bits.
    """
    _check_kq(k, q)
    kp1 = k + 1
    big = q * kp1
    source_total = m * kp1 + n * big  # bounds every flow value and every finite cut
    if source_total >= _INT64_MAX:
        raise ScaleError("total source capacity exceeds the 64-bit guard")
    control = bisect_left(tail, m + 1) - m - n
    state = len(tail) - 2 * n - m - control
    if witness_mode:
        middle = [source_total + 1] * (control + state)
    else:
        middle = [kp1] * control + [big] * state
    return [kp1] * m + [big] * n + middle + [q] * n


def build_small_network(pattern: SparsityPattern, k: int, q: int,
                        witness_mode: bool = False) -> FlowNetwork:
    """Compact network with 2n+m+2 nodes and 2n+m+|E| arcs, named for export:
    the arcs of compact_arcs with the capacities of compact_capacity."""
    n, m = pattern.n, pattern.m
    tail, head = compact_arcs(n, m, pattern.stars)
    capacity = compact_capacity(n, m, tail, k, q, witness_mode)
    nodes = (
        SOURCE,
        *(("lam", i) for i in range(1, m + 1)),
        *(("nu", j) for j in range(1, n + 1)),
        *(("mu", j) for j in range(1, n + 1)),
        SINK,
    )
    return FlowNetwork("small", n, m, k, q, witness_mode, nodes, tuple(zip(tail, head)),
                       tuple(capacity))


def build_lifted_network(pattern: SparsityPattern, k: int, q: int) -> FlowNetwork:
    """Expanded unit-capacity network: left layer of (k+1)(m+nq) nodes, right
    layer of nq nodes, state copies wired within their own ensemble copy.

    Node ids follow the name order: lam_{ell,i}, then nu_{ell,p,j}, then
    mu_{p,j}, each with its last index running fastest.  The middle arcs
    expand the compact middle arcs in their order, each over its layers ell
    and then its ensemble copies p.  Raises ScaleError, before allocating,
    when the arc count (k+1)(m+nq) + (k+1)q|E| + nq exceeds MAX_LIFTED_ARCS.
    """
    _check_kq(k, q)
    n, m = pattern.n, pattern.m
    kp1 = k + 1
    if kp1 * (m + n * q) + kp1 * q * len(pattern.stars) + n * q > MAX_LIFTED_ARCS:
        raise ScaleError(f"(k+1)(m+nq+q|E|)+nq exceeds the {MAX_LIFTED_ARCS} arc guard")
    nu0 = 1 + kp1 * m
    mu0 = nu0 + kp1 * q * n
    sink = mu0 + q * n
    nodes = (
        SOURCE,
        *(("lam", ell, i) for ell in range(1, kp1 + 1) for i in range(1, m + 1)),
        *(
            ("nu", ell, p, j)
            for ell in range(1, kp1 + 1)
            for p in range(1, q + 1)
            for j in range(1, n + 1)
        ),
        *(("mu", p, j) for p in range(1, q + 1) for j in range(1, n + 1)),
        SINK,
    )
    tail, head = compact_arcs(n, m, pattern.stars)
    middle = slice(m + n, len(tail) - n)
    arcs = [(0, v) for v in range(1, mu0)]
    for u, v in zip(tail[middle], head[middle]):
        right = mu0 + v - (m + n + 1)  # mu_{1,i}; mu_{p+1,i} is right + p*n
        for ell in range(kp1):
            if u <= m:  # lam_u, copied to lam_{ell+1,u}
                arcs.extend((ell * m + u, right + p * n) for p in range(q))
            else:  # nu_{u-m}, copied to nu_{ell+1,p+1,u-m}
                arcs.extend((nu0 + (ell * q + p) * n + u - m - 1, right + p * n)
                            for p in range(q))
    arcs.extend((v, sink) for v in range(mu0, sink))
    return FlowNetwork("lifted", n, m, k, q, False, nodes, tuple(arcs), (1,) * len(arcs))


@dataclass(frozen=True)
class Residual:
    """Residual graph of a network: edge 2a is arc a, edge 2a+1 its reverse.

    cap[e] is the residual capacity of edge e, so cap[2a+1] is the flow on
    arc a and cap[2a] + cap[2a+1] its capacity.  adj[u] lists the edges
    leaving node u in construction order.  Node 0 is the source and the last
    node the sink.  Copies share head and adj.
    """

    head: list[int]
    adj: list[list[int]]
    cap: list

    def copy(self) -> Residual:
        return Residual(self.head, self.adj, self.cap.copy())


def residual_arrays(size: int, tail, head, capacity) -> Residual:
    """Residual graph at zero flow of the network on nodes 0..size-1 with
    arcs tail[a] -> head[a] of the given capacities."""
    edges = 2 * len(tail)
    res_head = [0] * edges
    res_head[0::2] = head
    res_head[1::2] = tail
    cap = [0] * edges
    cap[0::2] = capacity
    adj: list[list[int]] = [[] for _ in range(size)]
    e = 0
    for u, v in zip(tail, head):
        adj[u].append(e)
        adj[v].append(e + 1)
        e += 2
    return Residual(res_head, adj, cap)


def residual_graph(net: FlowNetwork, values=()) -> Residual:
    """Residual graph of net carrying the flow values (zero flow if empty)."""
    res = residual_arrays(len(net.nodes), [u for u, _ in net.arcs], [v for _, v in net.arcs],
                          net.capacity)
    cap = res.cap
    for a, x in enumerate(values):
        cap[2 * a] -= x
        cap[2 * a + 1] = x
    return res


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


def augment(res: Residual) -> int:
    """Raise the flow held in res to a maximum one by deterministic
    phase-based blocking flow (Dinic); returns the value added.

    Edges are explored in construction order and augmentation follows fixed
    pointer advancement, so identical residuals give identical flows.
    """
    head, adj, residual = res.head, res.adj, res.cap
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


def max_flow(net: FlowNetwork) -> FlowAssignment:
    """Exact integral maximum flow from zero flow; identical networks yield
    identical assignments."""
    res = residual_graph(net)
    augment(res)
    values = tuple(res.cap[1::2])
    return FlowAssignment(values, _source_total(net, values))


def _check_values(net: FlowNetwork, f: FlowAssignment) -> None:
    if len(f.values) != len(net.arcs):
        raise ValueError("flow assignment arcs do not match the network arcs")


def _source_total(net: FlowNetwork, values) -> int | Fraction:
    return sum(x for (u, _), x in zip(net.arcs, values) if u == 0)


def verify_flow(net: FlowNetwork, f: FlowAssignment) -> bool:
    """Exact check of the capacity and conservation constraint families."""
    _check_values(net, f)
    balance: list[int | Fraction] = [0] * len(net.nodes)
    for (u, v), c, x in zip(net.arcs, net.capacity, f.values):
        if x < 0 or x > c:
            return False
        balance[u] -= x
        balance[v] += x
    return all(b == 0 for b in balance[1:-1])


def residual_min_cut(res: Residual, value) -> list[bool]:
    """Sink side of the source-maximal minimum cut in the residual graph res:
    entry v is True when node v can reach the sink.

    The cut is the same for every maximum flow.  Raises ConsistencyError
    when the cut capacity does not equal the flow value, i.e. when the flow
    in res is not maximal or its value is not value.
    """
    head, adj, cap = res.head, res.adj, res.cap
    reach_t = [False] * len(adj)
    reach_t[-1] = True
    dq = deque([len(adj) - 1])
    while dq:
        for e in adj[dq.popleft()]:
            u = head[e]  # e leaves the popped node; its reverse e ^ 1 enters from u
            if not reach_t[u] and cap[e ^ 1] > 0:
                reach_t[u] = True
                dq.append(u)
    cut_capacity = sum(
        cap[e] + cap[e + 1]
        for e in range(0, len(head), 2)
        if reach_t[head[e]] and not reach_t[head[e + 1]]
    )
    if reach_t[0] or cut_capacity != value:
        raise ConsistencyError(
            f"cut capacity {cut_capacity} != flow value {value}; flow is not maximal"
        )
    return reach_t


def min_cut(net: FlowNetwork, f: FlowAssignment) -> frozenset[Node]:
    """Source side of the source-maximal minimum cut derived from a maximum
    flow, as node names; a saturated network yields the all-sink-arcs cut.
    Raises ConsistencyError when f is not maximal."""
    _check_values(net, f)
    sink_side = residual_min_cut(residual_graph(net, f.values), f.value_total)
    return frozenset(name for name, t in zip(net.nodes, sink_side) if not t)


def phi_node(node: Node) -> Node:
    """Node-collapsing map from the expanded network onto the compact one."""
    if isinstance(node, tuple):
        return (node[0], node[-1])
    return node


def phi_arc(arc: tuple[Node, Node]) -> tuple[Node, Node]:
    return (phi_node(arc[0]), phi_node(arc[1]))


def _check_pairing(small: FlowNetwork, lifted: FlowNetwork) -> None:
    if small.kind != "small" or lifted.kind != "lifted":
        raise ValueError("expected one compact and one expanded network")
    if (small.n, small.m, small.k, small.q) != (lifted.n, lifted.m, lifted.k, lifted.q):
        raise ValueError("networks were not built from the same (g, k, q)")
    if small.witness_mode:
        raise ValueError("flow transfer requires standard capacities, not witness mode")


def _phi_images(small: FlowNetwork, lifted: FlowNetwork) -> list[int]:
    """Position of phi(a) among the compact arcs, for every expanded arc a."""
    position = {(small.nodes[u], small.nodes[v]): a for a, (u, v) in enumerate(small.arcs)}
    images = []
    for u, v in lifted.arcs:
        arc = (lifted.nodes[u], lifted.nodes[v])
        image = position.get(phi_arc(arc))
        if image is None:
            raise ConsistencyError(f"arc {arc} maps outside the compact network")
        images.append(image)
    return images


def project_flow(f_hat: FlowAssignment, lifted: FlowNetwork, small: FlowNetwork) -> FlowAssignment:
    """Push an expanded-network flow down along phi: each compact arc receives
    the sum over its fiber.  Feasibility and value are preserved."""
    _check_pairing(small, lifted)
    _check_values(lifted, f_hat)
    out: list[int | Fraction] = [0] * len(small.arcs)
    for image, x in zip(_phi_images(small, lifted), f_hat.values):
        out[image] += x
    return FlowAssignment(tuple(out), _source_total(small, out))


def lift_flow(f: FlowAssignment, small: FlowNetwork, lifted: FlowNetwork) -> FlowAssignment:
    """Spread a compact-network flow up along phi: every expanded arc carries
    an equal share f(e) / |fiber(e)| of its image's flow.  Values may be
    non-integral rationals; the flow value is preserved exactly."""
    _check_pairing(small, lifted)
    _check_values(small, f)
    images = _phi_images(small, lifted)
    fiber = Counter(images)
    values = tuple(Fraction(f.values[image]) / fiber[image] for image in images)
    return FlowAssignment(values, _source_total(lifted, values))


def node_name(node: Node) -> str:
    if isinstance(node, str):
        return node
    return "_".join([node[0], *map(str, node[1:])])


def _flow_json_value(x):
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else str(x)
    return x


def network_to_dict(net: FlowNetwork, flow: FlowAssignment | None = None) -> dict:
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


def _flow_json_text(x) -> str:
    value = _flow_json_value(x)
    return f'"{value}"' if isinstance(value, str) else str(value)


def network_json(net: FlowNetwork, flow: FlowAssignment) -> Iterator[str]:
    """The text json.dumps(obj, indent=2, sort_keys=True) gives for obj =
    network_to_dict(net, flow) plus the flow value under "value", in pieces
    of at most one arc or node, so that a dump never holds the text or the
    dicts of all arcs at once.  (A network has at least one node and arc, so
    no array prints as [].)"""
    names = [json.dumps(node_name(v)) for v in net.nodes]
    yield '{\n  "arcs": ['
    sep = "\n"
    for (u, v), cap, x in zip(net.arcs, net.capacity, flow.values):
        yield (f'{sep}    {{\n      "cap": {cap},\n      "flow": {_flow_json_text(x)},\n'
               f'      "from": {names[u]},\n      "to": {names[v]}\n    }}')
        sep = ",\n"
    yield (f'\n  ],\n  "k": {net.k},\n  "kind": {json.dumps(net.kind)},\n  "m": {net.m},\n'
           f'  "n": {net.n},\n  "nodes": [')
    sep = "\n"
    for name in names:
        yield f"{sep}    {name}"
        sep = ",\n"
    yield (f'\n  ],\n  "q": {net.q},\n  "value": {_flow_json_text(flow.value_total)},\n'
           f'  "witness_mode": {json.dumps(net.witness_mode)}\n}}')


def network_to_dot(net: FlowNetwork, flow: FlowAssignment | None = None) -> str:
    """DOT export with "cap" (or "flow/cap" after solving) edge labels."""
    names = [node_name(v) for v in net.nodes]
    lines = ["digraph flownet {", "  rankdir=LR;"]
    for v, name in zip(net.nodes, names):
        shape = "diamond" if isinstance(v, str) else ("square" if v[0] == "lam" else "circle")
        lines.append(f'  "{name}" [shape={shape}];')
    for a, ((u, v), cap) in enumerate(zip(net.arcs, net.capacity)):
        label = str(cap) if flow is None else f"{_flow_json_value(flow.values[a])}/{cap}"
        lines.append(f'  "{names[u]}" -> "{names[v]}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
