"""The decision core: check_structural and compute_kstar, solved as a
transport problem on the pattern's rows, and everything they run.

In witness mode the compact network (flow) is a bipartite transportation
problem: every column of the pattern supplies units (k+1 for an input,
q(k+1) for a state), every state demands q, and a state may take units
from the columns of its row only.  Transport holds that problem's state,
read straight off the rows with no network built: the spare supply of each
column, the shortfall of each state, and for each column a dict of the
states it feeds, kept up to date as flow moves.  It solves by a greedy fill
(each short state takes what it needs from its row's columns, in sorted
order) and then phases as in Hopcroft-Karp and Dinic, in the bipartite
form of Ahuja, Orlin, Stein and Tarjan: one backward search from the short
states labels each node by its distance to the sink (a state leads to the
columns of its row, a column to the states it feeds), stopping at the first
level that holds a column with spare supply, and an iterative pointer
search then moves units along a blocking set of shortest paths.  A search
that finds no spare column labels exactly the states that reach the sink,
the sink side V' of the source-maximal min cut, the same for every maximum
flow; the cut's capacity, priced from the rows (in_neighbours), is checked
against the flow value.  Reachability (unreachable_states) runs on the rows
too.

This module imports nothing from swenctrl but errors and results, so the
check and kstar subcommands load neither the named networks of flow (and
fractions), nor the referees of graph and decide.
"""

from __future__ import annotations

from .errors import ConsistencyError, ScaleError
from .results import (
    EmptyAlphaIn,
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
    any work: ValueError unless k >= 0 and q >= 1 are ints (of type int, so
    no bool), ScaleError unless the total source capacity (k+1)(m+nq), which
    bounds every flow value and cut and both sides of the counting
    condition, fits in 63 bits."""
    if type(k) is not int or k < 0:
        raise ValueError("switch count k must be an integer >= 0")
    if type(q) is not int or q < 1:
        raise ValueError("ensemble size q must be an integer >= 1")
    if (k + 1) * (m + n * q) >= _INT64_MAX:
        raise ScaleError("total source capacity (k+1)(m+nq) exceeds the 64-bit guard")


def in_neighbours(rows, n: int, subset) -> tuple[frozenset[int], frozenset[int]]:
    """State and control in-neighbours (alpha_in, beta_in) of the states in
    subset, read off the rows of an n-state pattern: the columns of the
    subset's rows, split at n, column j <= n standing for state j and
    column j > n for input j - n."""
    columns = frozenset().union(*[rows[i - 1] for i in subset])
    alpha = frozenset(j for j in columns if j <= n)
    return alpha, frozenset(j - n for j in columns - alpha)


def unreachable_states(rows, n: int) -> frozenset[int]:
    """States among 1..n that no directed path from an input reaches, read
    off the rows of an n-state pattern (row i the sorted columns of state
    i's stars).  A state whose row holds an input column is reached at once,
    so only the other states, the blind ones, can be unreachable, and only
    their rows are read: a blind state is reached when its row holds a state
    column outside the blind set; otherwise it goes into the bucket of every
    column of its row.  A breadth-first search then spreads the marks from
    each reached state to the states in its bucket."""
    feeds = {i: [] for i, row in enumerate(rows, 1) if not row or row[-1] <= n}
    order = []  # the blind states reached, in the order the search reaches them
    for i in feeds:
        for j in rows[i - 1]:
            if j not in feeds:  # an input column is in state j's row
                order.append(i)
                break
            feeds[j].append(i)
    seen = set(order)
    for j in order:  # order grows as the search reaches states
        for i in feeds[j]:
            if i not in seen:
                seen.add(i)
                order.append(i)
    return frozenset(feeds.keys() - seen)


class Transport:
    """The witness-mode transport problem of an n-state, m-input pattern at
    (k, q), and a feasible flow of it.

    Column j <= n is state j's supply, column j > n input j - n's; state
    i's row, rows[i-1], lists the columns it may take from.  spare[j] is
    column j's unused supply (index 0 unused), short[i-1] state i's unmet
    demand, fed[j] maps i-1 to the units column j gives state i (only
    positive entries), and missing the total shortfall, so the flow's value
    is n*q - missing.  The flow starts at zero; solve raises it and shift
    raises the switch count under it.
    """

    __slots__ = ("rows", "n", "q", "spare", "short", "fed", "missing")

    def __init__(self, rows, n: int, m: int, k: int, q: int):
        self.rows = rows
        self.n = n
        self.q = q
        self.spare = [0] + [q * (k + 1)] * n + [k + 1] * m
        self.short = [q] * n
        self.fed: list[dict[int, int]] = [{} for _ in range(n + m + 1)]
        self.missing = n * q

    @property
    def value(self) -> int:
        return self.n * self.q - self.missing

    def shift(self, dk: int) -> None:
        """Raise the switch count by dk >= 0, keeping the flow: each input
        column gains dk spare units, each state column q*dk."""
        n, spare = self.n, self.spare
        for j in range(1, len(spare)):
            spare[j] += self.q * dk if j <= n else dk

    def solve(self, bound: int) -> frozenset[int] | None:
        """Raise the flow to a maximum one, or until its value reaches bound
        (the target n*q, or the capacity of a known cut, which no flow can
        exceed); returns the states V' labelled by a last search that found
        no spare column, the sink side of the source-maximal min cut, or
        None when the value reached bound first.  A greedy fill comes first,
        then phases, each a search (_label) and a blocking flow (_block)."""
        floor = self.n * self.q - bound  # the value reaches bound once missing <= floor
        self._fill()
        while self.missing > floor:
            lab_s, lab_c, top = self._label()
            if not top:
                return frozenset(i for i, d in enumerate(lab_s, 1) if d)
            self._block(lab_s, lab_c, top)
        return None

    def _fill(self) -> None:
        """Every short state, in order, takes what it needs from its row's
        columns, in sorted order, as far as their spare supply goes."""
        rows, spare, short, fed = self.rows, self.spare, self.short, self.fed
        missing = 0
        for i, need in enumerate(short):
            if need:
                for u in rows[i]:
                    have = spare[u]
                    if have:
                        f = fed[u]
                        if have >= need:
                            spare[u] = have - need
                            f[i] = f.get(i, 0) + need
                            need = 0
                            break
                        spare[u] = 0
                        f[i] = f.get(i, 0) + have
                        need -= have
                short[i] = need
                missing += need
        self.missing = missing

    def _label(self) -> tuple[list[int], list[int], int]:
        """Label the nodes by their distance to the sink, searching back
        from the short states (label 1): a state at label d labels the
        unlabelled columns of its row d+1, a column at d+1 the unlabelled
        states it feeds d+2.  Returns the state labels lab_s (by index i-1),
        the column labels lab_c and the label top of the first level that
        holds a column with spare supply, where the search stops; top is 0
        when the search runs out first, and lab_s then marks exactly the
        states that reach the sink."""
        rows, spare, fed = self.rows, self.spare, self.fed
        lab_s = [0] * self.n
        lab_c = [0] * len(spare)
        frontier = [i for i, need in enumerate(self.short) if need]
        for i in frontier:
            lab_s[i] = 1
        level, found = 1, False
        while frontier:
            level += 1
            reached = []
            for i in frontier:
                for u in rows[i]:
                    if not lab_c[u]:
                        lab_c[u] = level
                        reached.append(u)
                        if spare[u]:
                            found = True
            if found:  # of this level, only the columns with spare supply lead on
                for u in reached:
                    if not spare[u]:
                        lab_c[u] = 0
                return lab_s, lab_c, level
            level += 1
            frontier = []
            for u in reached:
                for i in fed[u]:
                    if not lab_s[i]:
                        lab_s[i] = level
                        frontier.append(i)
        return lab_s, lab_c, 0

    def _block(self, lab_s: list[int], lab_c: list[int], top: int) -> None:
        """A blocking flow along the labels _label gave: from each short
        state in turn, a depth-first search with one pointer per state
        steps from a state at label d to a column of its row at d+1 and on
        to a state that column feeds at d+2, until it reaches a column with
        spare supply (at label top).  It then takes the path's least
        residual (the state's shortfall, the units each column on the way
        feeds the next state, the end column's spare), moves it along the
        path and resumes at the first column that stopped feeding the next
        state.  A node found to lead nowhere loses its label.  Each state
        keeps a pointer into its row, and each column a stack of the states
        it fed when first reached, popped as they stop being admissible:
        columns gain fed states only at label-1, where no search of this
        phase looks, and an edge that stops being admissible stays so for
        the phase."""
        rows, spare, short, fed = self.rows, self.spare, self.short, self.fed
        missing = self.missing
        row_at = [0] * self.n  # per state, its pointer into its row
        feeds_at: list[list[int] | None] = [None] * len(spare)  # per column, its stack of fed states
        for root, d in enumerate(lab_s):
            if d != 1:
                continue
            path_s, path_c = [root], []  # path_c[t] feeds path_s[t+1]
            while path_s:
                i = path_s[-1]
                row = rows[i]
                want = lab_s[i] + 1
                fed_want = want + 1
                p, end = row_at[i], len(row)
                nxt = -1
                while p < end:
                    u = row[p]
                    if lab_c[u] == want:
                        if spare[u]:
                            break
                        f = fed[u]
                        states = feeds_at[u]
                        if states is None:
                            states = feeds_at[u] = list(f)
                        while states and not (lab_s[states[-1]] == fed_want and states[-1] in f):
                            states.pop()
                        if states:
                            nxt = states[-1]
                            break
                        lab_c[u] = 0
                    p += 1
                row_at[i] = p
                if p == end:
                    lab_s[i] = 0
                    path_s.pop()
                    if path_c:
                        path_c.pop()
                elif nxt >= 0:
                    path_c.append(u)
                    path_s.append(nxt)
                else:  # column u has spare: move units along the path
                    x = min(short[root], spare[u])
                    for t, v in enumerate(path_c):
                        x = min(x, fed[v][path_s[t + 1]])
                    short[root] -= x
                    missing -= x
                    spare[u] -= x
                    f = fed[u]
                    f[i] = f.get(i, 0) + x
                    emptied = len(path_s)
                    for t, v in enumerate(path_c):
                        f = fed[v]
                        f[path_s[t]] = f.get(path_s[t], 0) + x
                        j = path_s[t + 1]
                        if f[j] > x:
                            f[j] -= x
                        else:
                            del f[j]
                            emptied = min(emptied, t + 1)
                    if not short[root]:
                        break
                    del path_s[emptied:], path_c[emptied - 1:]
        self.missing = missing


def _cut_sides(rows, n: int, k: int, q: int, subset, theta: int) -> tuple[int, int, int, int]:
    """The in-neighbour counts alpha, beta and the solver's one sum of both
    sides lhs = (k+1)beta + (k+1)q alpha, rhs = q|subset| of the counting
    condition, for the sink-side states subset of a witness-mode min cut at
    (k, q) of flow value theta.  The cut's source arcs enter the subset's
    in-neighbours and its sink arcs leave the other states, so it costs
    lhs + n q - rhs; ConsistencyError is raised unless lhs < rhs and that is
    theta."""
    alpha, beta = map(len, in_neighbours(rows, n, subset))
    lhs, rhs = (k + 1) * beta + (k + 1) * q * alpha, q * len(subset)
    if lhs >= rhs:
        raise ConsistencyError("cut-derived subset satisfies the counting condition; "
                               "the cut is not a witness-mode min cut")
    if lhs + n * q - rhs != theta:
        raise ConsistencyError(f"cut capacity {lhs + n * q - rhs} != flow value {theta}; "
                               "flow is not maximal")
    return alpha, beta, lhs, rhs


def check_structural(pattern: SparsityPattern, k: int, q: int) -> Verdict:
    """Decide structural controllability for (k, q).

    False verdicts carry a verified certificate: the unreachable state nodes,
    or a state subset violating the counting condition, the sink side of
    the source-maximal min cut of the witness-mode network.  Both come from
    the pattern's rows: reachability by unreachable_states, the flow by
    Transport, whose last, failing search labels that cut's states.  Which
    maximum flow it finds does not matter: every maximum flow has the same
    value theta and the same source-maximal min cut.
    """
    n, m, rows = pattern.n, pattern.m, pattern.rows
    check_kq(n, m, k, q)
    target = n * q
    unreachable = unreachable_states(rows, n)
    if unreachable:
        return Verdict(False, Unreachable(unreachable), VerdictStats(None, target))
    flow = Transport(rows, n, m, k, q)
    subset = flow.solve(target)
    theta = flow.value
    stats = VerdictStats(theta, target)
    if subset is None:
        return Verdict(True, Saturated(theta), stats)
    _, _, lhs, rhs = _cut_sides(rows, n, k, q, subset, theta)
    return Verdict(False, ViolatingSubset(subset, lhs, rhs, k, q), stats)


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
    the max-flow value (max-flow/min-cut), the one trace entry.  Z needs no
    recheck: n|beta_in(Z)| <= nm < qbar|Z|, so it always violates.

    Otherwise one transport problem at q = mn+1 is solved at k = 0 and then
    ascended: while the flow is short of n(mn+1), the source-maximal min cut
    gives a violating V', k becomes ceil(|V'| / |alpha_in(V')|) - 1 (above
    the current k, never above k*), and the supplies are raised with the
    flow kept (Transport.shift).  The trace replays the binary search over
    [0, n-1] that probes the same network cold: probes at k >= k* saturate,
    and each probe below k* is a fresh solve at its own k, bounded by the
    min cut of the largest failing k below it: that cut's sink side is V'
    and its source arcs enter alpha_in(V'), beta_in(V'), so only they change
    with k, and at the probe's k it costs theta_below +
    (k - below)(|beta_in(V')| + (mn+1)|alpha_in(V')|).  Each solve stops at
    n(mn+1) or at that capacity; a flow that reaches a cut's capacity is
    maximum (weak duality), and that cut is then the next probe's bound.
    Max-flow values, and the source-maximal min cut that picks each next k,
    are the same for every maximum flow, so the ascent, k* and the trace
    match a cold, unbounded search.  In the ascent the cut just read costs
    at least n(mn+1) at the next k, by the choice of that k, so it bounds
    nothing.
    """
    n, m, rows = pattern.n, pattern.m, pattern.rows
    unreachable = unreachable_states(rows, n)
    if unreachable:
        return KStarResult(None, Unreachable(unreachable))
    qbar = m * n + 1
    target = n * qbar
    unfed = frozenset(i for i, row in enumerate(rows, 1) if not row or row[0] > n)
    if unfed:
        _, inputs = in_neighbours(rows, n, unfed)
        theta = qbar * (n - len(unfed)) + n * len(inputs)
        return KStarResult(None, EmptyAlphaIn(unfed), ((n - 1, theta, target),))
    check_kq(n, m, n - 1, qbar)
    flow = Transport(rows, n, m, 0, qbar)
    k, subset = 0, flow.solve(target)
    # k -> (max-flow value at k, growth of a min cut's capacity per unit of k)
    # for every k solved short of target
    failing = {}
    while subset is not None:
        alpha, beta, _, _ = _cut_sides(rows, n, k, qbar, subset, flow.value)
        failing[k] = (flow.value, beta + qbar * alpha)
        k_next = -(-len(subset) // alpha) - 1
        if k_next <= k:
            raise ConsistencyError(f"kstar ascent stalled at k={k}")
        flow.shift(k_next - k)
        # the cut just read costs at least target at k_next, so it bounds nothing
        subset = flow.solve(target)
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
            theta_below, slope = failing[below]
            probe = Transport(rows, n, m, mid, qbar)
            cut = theta_below + (mid - below) * slope  # below's min cut, priced at mid
            subset = probe.solve(min(target, cut))
            if subset is not None:  # a failing search: the probe's own min cut
                alpha, beta, _, _ = _cut_sides(rows, n, mid, qbar, subset, probe.value)
                slope = beta + qbar * alpha
            failing[mid] = (probe.value, slope)
        theta_mid = failing[mid][0]
        if theta_mid >= target:
            raise ConsistencyError(f"probe at k={mid} saturates below k*={k}")
        trace.append((mid, theta_mid, target))
        lo = mid + 1
    return KStarResult(k, None, tuple(trace))
