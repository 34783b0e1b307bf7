"""Digraph view of a sparsity pattern and brute-force evaluation of the
weighted Hall-type counting conditions.

State node a_i stands for state coordinate i, control node b_j for input
channel j; an edge points from influencer to influenced entry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from time import perf_counter

from .errors import ScaleError
from .pattern import SparsityPattern
from .results import (
    ArgmaxSubset,
    EmptyAlphaIn,
    KStarResult,
    Saturated,
    Unreachable,
    Verdict,
    VerdictStats,
    ViolatingSubset,
)

MAX_BRUTE_STATES = 24  # 2^n subset enumeration guard
_KQ_LIMIT = 1 << 31
_INT64_MAX = (1 << 63) - 1
_DP_STATES = 20  # below this, subset unions are tabulated instead of recomputed


@dataclass(frozen=True)
class Digraph:
    """Bipartite-role digraph: every edge ends at a state node.

    state_edges holds (j, i) for edges a_j -> a_i; control_edges holds (j, i)
    for edges b_j -> a_i.
    """

    n_state: int
    n_control: int
    state_edges: frozenset[tuple[int, int]]
    control_edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.n_state < 0 or self.n_control < 0:
            raise ValueError("node counts must be non-negative")
        object.__setattr__(self, "state_edges", frozenset(self.state_edges))
        object.__setattr__(self, "control_edges", frozenset(self.control_edges))
        for j, i in self.state_edges:
            if not (1 <= j <= self.n_state and 1 <= i <= self.n_state):
                raise ValueError(f"state edge ({j}, {i}) out of range")
        for j, i in self.control_edges:
            if not (1 <= j <= self.n_control and 1 <= i <= self.n_state):
                raise ValueError(f"control edge ({j}, {i}) out of range")


@dataclass(frozen=True)
class NeighborSets:
    alpha_in: frozenset[int]
    beta_in: frozenset[int]


def to_digraph(pattern: SparsityPattern) -> Digraph:
    """Edge a_j -> a_i per state-block star (i, j); edge b_j -> a_i per
    input-block star (i, j+n)."""
    state = frozenset((j, i) for i, j in pattern.a_stars)
    control = frozenset((j, i) for i, j in pattern.b_stars)
    return Digraph(pattern.n, pattern.m, state, control)


def in_neighbor_sets(g: Digraph, subset) -> NeighborSets:
    members = frozenset(subset)
    for i in members:
        if not (1 <= i <= g.n_state):
            raise ValueError(f"state index {i} out of range 1..{g.n_state}")
    alpha = frozenset(j for j, i in g.state_edges if i in members)
    beta = frozenset(j for j, i in g.control_edges if i in members)
    return NeighborSets(alpha, beta)


def unreachable_states(n: int, sources, out) -> frozenset[int]:
    """States among 1..n that no directed path from the states in sources
    reaches, where out[j] lists the states that a_j points to."""
    seen = [False] * (n + 1)
    queue = deque()
    for i in sources:
        if not seen[i]:
            seen[i] = True
            queue.append(i)
    while queue:
        for v in out[queue.popleft()]:
            if not seen[v]:
                seen[v] = True
                queue.append(v)
    return frozenset(i for i in range(1, n + 1) if not seen[i])


def reachability_check(g: Digraph) -> frozenset[int]:
    """Return the state nodes with no directed path from any control node
    (empty means every state node is reachable)."""
    out: list[list[int]] = [[] for _ in range(g.n_state + 1)]
    for j, i in g.state_edges:
        out[j].append(i)
    return unreachable_states(g.n_state, (i for _, i in g.control_edges), out)


def _check_kq(n: int, k: int, q: int) -> None:
    if not isinstance(k, int) or k < 0:
        raise ValueError("switch count k must be an integer >= 0")
    if not isinstance(q, int) or q < 1:
        raise ValueError("ensemble size q must be an integer >= 1")
    if k + 1 > _KQ_LIMIT or q > _KQ_LIMIT or (k + 1) * q * max(n, 1) > _INT64_MAX:
        raise ScaleError("(k+1)*q*n exceeds the 64-bit capacity guard")


def counting_sides(n: int, k: int, q: int, size: int, alpha: int, beta: int) -> tuple[int, int]:
    """Both sides (k+1)beta + (k+1)q alpha and q size of the counting
    condition for a subset of size of the n states with alpha state and beta
    control in-neighbours."""
    _check_kq(n, k, q)
    return (k + 1) * beta + (k + 1) * q * alpha, q * size


def core_condition_holds(g: Digraph, k: int, q: int, subset) -> tuple[bool, int, int]:
    """Evaluate (k+1)|beta_in| + (k+1)q|alpha_in| >= q|subset| for one subset;
    returns (holds, lhs, rhs)."""
    _check_kq(g.n_state, k, q)
    ns = in_neighbor_sets(g, subset)
    lhs, rhs = counting_sides(g.n_state, k, q, len(frozenset(subset)), len(ns.alpha_in),
                              len(ns.beta_in))
    return lhs >= rhs, lhs, rhs


def _in_masks(g: Digraph) -> tuple[list[int], list[int]]:
    amask = [0] * (g.n_state + 1)
    bmask = [0] * (g.n_state + 1)
    for j, i in g.state_edges:
        amask[i] |= 1 << (j - 1)
    for j, i in g.control_edges:
        bmask[i] |= 1 << (j - 1)
    return amask, bmask


def _iter_subset_unions(g: Digraph):
    """Yield (subset_mask, alpha_in_mask, beta_in_mask) for every nonempty
    subset of state nodes, in ascending mask order."""
    n = g.n_state
    amask, bmask = _in_masks(g)
    if n <= _DP_STATES:
        atab = [0] * (1 << n)
        btab = [0] * (1 << n)
        for s in range(1, 1 << n):
            low = (s & -s).bit_length()
            rest = s & (s - 1)
            a = atab[rest] | amask[low]
            b = btab[rest] | bmask[low]
            atab[s] = a
            btab[s] = b
            yield s, a, b
    else:
        for s in range(1, 1 << n):
            a = b = 0
            t = s
            while t:
                low = (t & -t).bit_length()
                a |= amask[low]
                b |= bmask[low]
                t &= t - 1
            yield s, a, b


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def counting_violation(g: Digraph, k: int, q: int) -> tuple[frozenset[int], int, int] | None:
    """Exhaustively search for a subset violating the counting condition.

    Returns (subset, lhs, rhs) for the violation with the smallest rhs-lhs gap
    (ties: smallest bitmask), or None when every subset satisfies it.
    """
    _check_kq(g.n_state, k, q)
    if g.n_state > MAX_BRUTE_STATES:
        raise ScaleError(
            f"n = {g.n_state} exceeds the 2^{MAX_BRUTE_STATES} enumeration guard; "
            "use the flow-based check"
        )
    kp1 = k + 1
    kq = kp1 * q
    best = None
    for s, a, b in _iter_subset_unions(g):
        lhs = kp1 * b.bit_count() + kq * a.bit_count()
        rhs = q * s.bit_count()
        if lhs < rhs:
            gap = rhs - lhs
            if best is None or gap < best[0]:
                best = (gap, s, lhs, rhs)
    if best is None:
        return None
    _, s, lhs, rhs = best
    return _mask_to_set(s), lhs, rhs


def brute_force_check(g: Digraph, k: int, q: int) -> Verdict:
    """Exhaustive verification: reachability plus the counting condition over
    all 2^n subsets.  Guarded at n <= 24."""
    t0 = perf_counter()
    _check_kq(g.n_state, k, q)
    if g.n_state > MAX_BRUTE_STATES:
        raise ScaleError(
            f"n = {g.n_state} exceeds the 2^{MAX_BRUTE_STATES} enumeration guard; "
            "use the flow-based check"
        )
    target = g.n_state * q

    def stats():
        return VerdictStats(None, target, None, None, perf_counter() - t0)

    unreachable = reachability_check(g)
    if unreachable:
        return Verdict(False, Unreachable(unreachable), stats())
    violation = counting_violation(g, k, q)
    if violation is not None:
        subset, lhs, rhs = violation
        return Verdict(False, ViolatingSubset(subset, lhs, rhs, k, q), stats())
    return Verdict(True, Saturated(target), stats())


def kstar_brute(g: Digraph) -> KStarResult:
    """Minimal switch count by subset enumeration:
    max over nonempty subsets of ceil(|V'| / |alpha_in(V')|) - 1, infinite when
    reachability fails or some subset has no state in-neighbor."""
    if g.n_state > MAX_BRUTE_STATES:
        raise ScaleError(
            f"n = {g.n_state} exceeds the 2^{MAX_BRUTE_STATES} enumeration guard; "
            "use the flow-based search"
        )
    unreachable = reachability_check(g)
    if unreachable:
        return KStarResult(None, Unreachable(unreachable))
    best_val = -1
    best_mask = 0
    for s, a, _ in _iter_subset_unions(g):
        if a == 0:
            return KStarResult(None, EmptyAlphaIn(_mask_to_set(s)))
        cs = s.bit_count()
        ca = a.bit_count()
        val = (cs + ca - 1) // ca - 1  # ceil(cs / ca) - 1, in integers
        if val > best_val:
            best_val = val
            best_mask = s
    return KStarResult(best_val, ArgmaxSubset(_mask_to_set(best_mask)))


def to_dot(g: Digraph) -> str:
    """DOT export: circles a1..an for states, squares b1..bm for controls;
    stable ordering for diff-able output."""
    lines = ["digraph pattern {", "  rankdir=LR;"]
    for j in range(1, g.n_control + 1):
        lines.append(f"  b{j} [shape=square];")
    for i in range(1, g.n_state + 1):
        lines.append(f"  a{i} [shape=circle];")
    for j, i in sorted(g.control_edges):
        lines.append(f"  b{j} -> a{i};")
    for j, i in sorted(g.state_edges):
        lines.append(f"  a{j} -> a{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
