"""Three-layer capacitated flow networks with named nodes, exact integral
max-flow, min cuts, and the layer-expansion flow transfer maps, for the
exports (flowdump), the referees and the tests, and the expanded network's
value as a matching, for crosscheck.  check_structural, compute_kstar and
crosscheck's compact value build none of this: they solve the same problem
as a transport problem on the pattern's rows (core).

Two constructions share the layout source -> left -> right -> sink:

* the compact network: left nodes lam_1..lam_m (control copies) and
  nu_1..nu_n (state out-copies), right nodes mu_1..mu_n (state in-copies),
  with capacities k+1 / q(k+1) / q encoding the switch and ensemble counts;
* the expanded unit-capacity network: every left node is multiplied into
  its k+1 (and, for state copies, q) layers, every right node into its q
  copies, and all capacities collapse to 1.

Both rest on one integer-indexed core: compact_arcs reads the compact
network's flat int arcs straight off the pattern's rows, and
build_small_network gives them their capacities for (k, q) and their node
names; build_lifted_network expands every compact middle arc, in order,
into its layer copies.  residual turns either network, with a flow, into
the three plain lists head, adj and cap of its residual graph.

Every maximum flow of a named network comes from augment (Dinic, with
levels by residual distance to the sink) on those lists: max_flow starts it
from zero flow, and min_cut reads the cut of a given flow off one augment
call, whose last search labels the sink side of the source-maximal min cut,
and checks the capacity of the arcs entering that side against the flow
value.  lifted_values, crosscheck's one reader of the expanded network's
value, builds no network: its arcs all have capacity 1, so each cell's
value is a maximum bipartite matching on its middle layer, read off the
rows as plain int adjacency.  Each right node lists its left nodes layer
by layer; one adjacency serves the whole (k, q) grid, every list gaining
a layer in place as each row k begins, and each cell's maximum matching
grows from a smaller cell's (warm start).  The Hopcroft-Karp routine
_match shares no code with augment or with the transport solver, so
crosscheck's two values come from independent solvers; Dinic on
build_lifted_network is the matching's reference in the tests.  Both
readings of the expansion pass one size guard, cell by cell.

The node-collapsing map phi sends expanded nodes onto compact ones; flows
transfer along phi in both directions with their value preserved.  This
module is loaded only by the exports (flowdump), crosscheck and the
referees, and it alone needs fractions.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter, deque
from collections.abc import Iterator
from fractions import Fraction

from .core import check_kq
from .errors import ConsistencyError, ScaleError
from .pattern import SparsityPattern
from .results import FrozenValue

SOURCE = "s"
SINK = "t"

MAX_LIFTED_ARCS = 1 << 20  # guard on the expanded network's arc count

Node = str | tuple


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


def residual(net: FlowNetwork, values=()) -> tuple[list[int], list[list[int]], list]:
    """Residual graph (head, adj, cap) of net carrying the flow values (zero
    flow if empty): edge 2a is arc a, edge 2a+1 its reverse.

    head[e] is the node edge e enters, so head[e ^ 1] is the node it leaves.
    adj[u] lists the edges leaving node u in construction order.  cap[e] is
    the residual capacity of edge e, so cap[2a+1] is the flow on arc a and
    cap[2a] + cap[2a+1] its capacity.  Node 0 is the source and the last
    node the sink.
    """
    edges = 2 * len(net.arcs)
    head = [0] * edges
    head[0::2] = [v for _, v in net.arcs]
    head[1::2] = [u for u, _ in net.arcs]
    cap = [0] * edges
    cap[0::2] = net.capacity
    for a, x in enumerate(values):
        cap[2 * a] -= x
        cap[2 * a + 1] = x
    adj: list[list[int]] = [[] for _ in net.nodes]
    e = 0
    for u, v in net.arcs:
        adj[u].append(e)
        adj[v].append(e + 1)
        e += 2
    return head, adj, cap


def augment(head: list[int], adj: list[list[int]], cap: list) -> tuple[int, list[int]]:
    """Raise the flow held in the residual graph (head, adj, cap) to a
    maximum one, in place, by deterministic phase-based blocking flow
    (Dinic); returns the value added and the labels of the last search.

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
    size = len(adj)
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
                if not label[u] and cap[e ^ 1] > 0:
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
                aug = min(cap[e] for e in path)
                for e in path:
                    cap[e] -= aug
                    cap[e ^ 1] += aug
                added += aug
                path = []
                u = s
                continue
            advanced = False
            edges = adj[u]
            d = label[u] - 1  # >= 1, as only the sink has label 1
            while pointer[u] < len(edges):
                e = edges[pointer[u]]
                if cap[e] > 0 and label[head[e]] == d:
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


class FlowNetwork(FrozenValue):
    """Capacitated digraph over integer node ids.

    kind is "small" or "lifted"; nodes maps id -> name (SOURCE is id 0, SINK
    the last id); arcs holds (tail id, head id) pairs in construction order
    and capacity the matching capacities.  Names are read only at export and
    by the phi transfer maps.
    """

    __slots__ = _fields = ("kind", "n", "m", "k", "q", "witness_mode", "nodes", "arcs", "capacity")


class FlowAssignment(FrozenValue):
    """Per-arc flow values (exact ints or Fractions), parallel to the
    network's arcs, and the total value."""

    __slots__ = _fields = ("values", "value_total")


def build_small_network(pattern: SparsityPattern, k: int, q: int,
                        witness_mode: bool = False) -> FlowNetwork:
    """Compact network with 2n+m+2 nodes and 2n+m+|E| arcs, named for export:
    the arcs of compact_arcs with the capacities k+1 / q(k+1) / q.

    In witness mode every left-to-right capacity is replaced by the total
    source capacity + 1, which leaves the max-flow value unchanged (each left
    node is already throttled by its single source arc) but forces every min
    cut onto the source and sink arcs, where a violating subset can be read
    off directly.  (k, q) pass check_kq first.
    """
    n, m = pattern.n, pattern.m
    check_kq(n, m, k, q)
    tail, head = compact_arcs(n, m, pattern.rows)
    kp1 = k + 1
    big = q * kp1
    control = bisect_left(tail, m + 1) - m - n
    state = len(tail) - 2 * n - m - control
    if witness_mode:
        middle = [m * kp1 + n * big + 1] * (control + state)
    else:
        middle = [kp1] * control + [big] * state
    capacity = [kp1] * m + [big] * n + middle + [q] * n
    nodes = (
        SOURCE,
        *(("lam", i) for i in range(1, m + 1)),
        *(("nu", j) for j in range(1, n + 1)),
        *(("mu", j) for j in range(1, n + 1)),
        SINK,
    )
    return FlowNetwork("small", n, m, k, q, witness_mode, nodes, tuple(zip(tail, head)),
                       tuple(capacity))


def _lifted_arcs(n: int, m: int, stars: int, k: int, q: int) -> int:
    """Arc count (k+1)(m+nq) + (k+1)q|E| + nq of the expanded network."""
    return (k + 1) * (m + n * q + q * stars) + n * q


def build_lifted_network(pattern: SparsityPattern, k: int, q: int) -> FlowNetwork:
    """Expanded unit-capacity network: left layer of (k+1)(m+nq) nodes, right
    layer of nq nodes, state copies wired within their own ensemble copy.

    Node ids follow the name order: lam_{ell,i}, then nu_{ell,p,j}, then
    mu_{p,j}, each with its last index running fastest.  The middle arcs
    expand the compact middle arcs in their order, each over its layers ell
    and then its ensemble copies p.  (k, q) pass check_kq first; then the
    one size guard of the expansion, which lifted_values applies cell by
    cell, raises ScaleError, before allocating, when the arc count
    (k+1)(m+nq) + (k+1)q|E| + nq exceeds MAX_LIFTED_ARCS.
    """
    n, m = pattern.n, pattern.m
    check_kq(n, m, k, q)
    if _lifted_arcs(n, m, sum(map(len, pattern.rows)), k, q) > MAX_LIFTED_ARCS:
        raise ScaleError(f"(k+1)(m+nq+q|E|)+nq exceeds the {MAX_LIFTED_ARCS} arc guard")
    kp1 = k + 1
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
    tail, head = compact_arcs(n, m, pattern.rows)
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


def _add_layer(adjacency: list[list[int]], rows, n: int, lam: int, nu: int) -> None:
    """Append one layer's left ids to every list of adjacency, in place: the
    list p*n + i - 1 (right node mu_{p+1,i}) gains the input columns c of
    row i as lam + c - n, then its state columns c as nu + p*n + c - 1, as
    copy p of a state column feeds copy p only."""
    for i, row in enumerate(rows):
        split = bisect_right(row, n)  # the row's state columns, then its input columns
        inputs, states = [lam - n + c for c in row[split:]], row[:split]
        for pn in range(0, len(adjacency), n):  # p*n, for every copy p
            lefts, shift = adjacency[pn + i], nu - 1 + pn
            lefts += inputs
            lefts += [shift + c for c in states]


def _match(adjacency: list[list[int]], mate: list[int], free) -> list[int]:
    """Raise the matching mate to a maximum one, in place, and return the
    right nodes it leaves free; lifted_values calls it once per cell, with
    a smaller cell's maximum matching.

    mate[v] is the right node (an index into adjacency) matched to the left
    id v, or -1.  free lists every right node that mate leaves free; they
    are the roots, and the search reads the lists of no right node but them
    and the matched ones.  A greedy pass matches each root to its first free
    left node; then Hopcroft-Karp phases (Hopcroft & Karp, SIAM J. Comput. 1973): a search
    from the free right nodes labels the right nodes by alternating distance
    and stops at the first free left node it meets, and a depth-first search
    from each free right node, with one pointer per node and an explicit
    stack (paths may be as long as there are right nodes), augments along
    node-disjoint shortest paths.
    """
    still_free = []
    for r in free:
        for v in adjacency[r]:
            if mate[v] < 0:
                mate[v] = r
                break
        else:
            still_free.append(r)
    free = still_free
    while free:
        dist = [-1] * len(adjacency)
        for r in free:
            dist[r] = 0
        limit = -1  # length of the shortest augmenting paths, in right nodes after the first
        queue = list(free)
        for r in queue:
            d = dist[r] + 1
            for v in adjacency[r]:
                w = mate[v]
                if w < 0:
                    limit = d - 1
                    break
                if dist[w] < 0:
                    dist[w] = d
                    queue.append(w)
            if limit >= 0:
                break
        if limit < 0:
            break
        pointer = [0] * len(adjacency)
        still_free = []
        for root in free:
            stack = [root]
            while stack:
                r = stack[-1]
                lefts = adjacency[r]
                want = dist[r] + 1 if dist[r] < limit else -2  # at the limit, only a free left
                i = pointer[r]
                while i < len(lefts):
                    w = mate[lefts[i]]
                    if w < 0 or dist[w] == want:
                        break
                    i += 1
                pointer[r] = i
                if i == len(lefts):  # a dead end for the rest of the phase
                    dist[r] = -1
                    stack.pop()
                    if stack:
                        pointer[stack[-1]] += 1
                elif w < 0:
                    for r in stack:  # each right node takes the left node it stepped through
                        mate[adjacency[r][pointer[r]]] = r
                        dist[r] = -1
                    break
                else:
                    stack.append(w)
            else:
                still_free.append(root)
        free = still_free
    return free


def lifted_values(pattern: SparsityPattern, k_max: int, q_max: int) -> list[list[int | None]]:
    """Maximum flow value of the expanded network in every cell of the grid
    [0..k_max] x [1..q_max], without building it: row k of the result holds
    the values of (k, 1)..(k, q_max), None for a cell over the arc guard.
    (k_max, q_max) pass check_kq first.

    Every arc of that network has capacity 1, and each left node has one
    source arc and each right node one sink arc, so its value is the size of
    a maximum matching between its left and right layers, each right node
    listing its left ids layer by layer (_add_layer).  The expanded network
    of (k, q) contains that of every smaller cell, so one adjacency serves
    the grid.  The guard is monotone in k and in q, so row k passes up to a
    width w_k <= w_{k-1} and ends there.  As row k begins, the lists of the
    copies past w_k are dropped, every other list gains its layer k in
    place, and the layer's m + w_k*n left nodes take the next ids; the live
    adjacency is the middle layer of the passing cell (k, w_k).  A matching of a cell is one of every larger cell, so _match
    grows (k, q) from the maximum matching of (k, q-1), rooted at its free
    right nodes and the new copy's (a path through the new copy may reach an
    old free one), and (k, 1) from a saved copy of (k-1, 1)'s.
    """
    n, m, rows = pattern.n, pattern.m, pattern.rows
    check_kq(n, m, k_max, q_max)
    stars = sum(map(len, rows))
    values: list[list[int | None]] = [[None] * q_max for _ in range(k_max + 1)]
    width = q_max
    mate, free = [-1], list(range(n))  # left id 0 is the source
    for k in range(k_max + 1):
        while width and _lifted_arcs(n, m, stars, k, width) > MAX_LIFTED_ARCS:
            width -= 1
        if not width:
            break
        if k:
            mate, free = saved
            del adjacency[width * n:]
        else:
            adjacency = [[] for _ in range(width * n)]
        _add_layer(adjacency, rows, n, len(mate) - 1, len(mate) + m)
        mate += [-1] * (m + width * n)
        for q in range(1, width + 1):
            if q > 1:
                free += range((q - 1) * n, q * n)
            free = _match(adjacency, mate, free)
            values[k][q - 1] = q * n - len(free)
            if q == 1:
                saved = mate.copy(), free.copy()
    return values


def max_flow(net: FlowNetwork) -> FlowAssignment:
    """Exact integral maximum flow from zero flow by augment alone;
    identical networks yield identical assignments."""
    head, adj, cap = residual(net)
    augment(head, adj, cap)
    values = tuple(cap[1::2])
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


def min_cut(net: FlowNetwork, f: FlowAssignment) -> frozenset[Node]:
    """Source side of the source-maximal minimum cut derived from a maximum
    flow, as node names; a saturated network yields the all-sink-arcs cut.

    The sink side is read off augment's one, failing, search on the residual
    of f.  Raises ConsistencyError when f is not maximal: augment then adds
    a nonzero value, or the capacity of the arcs entering the sink side
    differs from f.value_total.
    """
    _check_values(net, f)
    added, label = augment(*residual(net, f.values))
    if added:
        raise ConsistencyError(f"augmenting adds {added} to the flow; flow is not maximal")
    cut_capacity = sum(c for (u, v), c in zip(net.arcs, net.capacity) if label[v] and not label[u])
    if cut_capacity != f.value_total:
        raise ConsistencyError(
            f"cut capacity {cut_capacity} != flow value {f.value_total}; flow is not maximal"
        )
    return frozenset(name for name, t in zip(net.nodes, label) if not t)


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


def _flow_json_text(x) -> str:
    value = _flow_json_value(x)
    return f'"{value}"' if isinstance(value, str) else str(value)


def network_json(net: FlowNetwork, flow: FlowAssignment) -> Iterator[str]:
    """The text json.dumps(obj, indent=2, sort_keys=True) gives for obj the
    network's kind, n, m, k, q, witness_mode and node names, its arcs (from,
    to, cap and flow) and the flow value under "value", in pieces of at most
    one arc or node, so that a dump never holds the text or the dicts of all
    arcs at once.  (A network has at least one node and arc, so
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
