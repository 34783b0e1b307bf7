"""Brute-force evaluation of the weighted Hall-type counting conditions,
reachability and DOT export, read straight off a sparsity pattern's rows.

The pattern is the digraph: state node a_i stands for state coordinate i and
control node b_j for input channel j, and each column j of row i is the
edge from the node of column j (a_j for j <= n, b_{j-n} above) to a_i, so
row i lists the in-neighbours of a_i.
"""

from __future__ import annotations

from .errors import ScaleError
from .core import check_kq, counting_sides, in_neighbours, unreachable_states
from .pattern import SparsityPattern
from .results import (
    ArgmaxSubset,
    EmptyAlphaIn,
    FrozenValue,
    KStarResult,
    Saturated,
    Unreachable,
    Verdict,
    VerdictStats,
    ViolatingSubset,
)

MAX_BRUTE_STATES = 24  # 2^n subset enumeration guard


class NeighborSets(FrozenValue):
    __slots__ = _fields = ("alpha_in", "beta_in")


def to_digraph(pattern: SparsityPattern) -> SparsityPattern:
    """The pattern itself, which every function here takes as its digraph.
    Kept only because the benchmark still calls it, until a change to the
    benchmark drops the call."""
    return pattern


def in_neighbor_sets(pattern: SparsityPattern, subset) -> NeighborSets:
    """State and control in-neighbours (alpha_in, beta_in) of a state subset;
    control node b_j is j."""
    n = pattern.n
    members = frozenset(subset)
    for i in members:
        if not (1 <= i <= n):
            raise ValueError(f"state index {i} out of range 1..{n}")
    return NeighborSets(*in_neighbours(pattern.rows, n, members))


def reachability_check(pattern: SparsityPattern) -> frozenset[int]:
    """Return the state nodes with no directed path from any control node
    (empty means every state node is reachable), by the rows' search that
    check_structural runs."""
    return unreachable_states(pattern.rows, pattern.n)


def core_condition_holds(pattern: SparsityPattern, k: int, q: int, subset) -> tuple[bool, int, int]:
    """Evaluate (k+1)|beta_in| + (k+1)q|alpha_in| >= q|subset| for one subset;
    returns (holds, lhs, rhs)."""
    check_kq(pattern.n, pattern.m, k, q)
    ns = in_neighbor_sets(pattern, subset)
    lhs, rhs = counting_sides(k, q, len(frozenset(subset)), len(ns.alpha_in),
                              len(ns.beta_in))
    return lhs >= rhs, lhs, rhs


def _subset_unions(pattern: SparsityPattern):
    """Iterator of (subset_mask, alpha_in_mask, beta_in_mask) for every
    nonempty subset of state nodes, in ascending mask order: the unions of
    the low n//2 states and of the others are tabulated apart (at most 2^12
    entries each) and joined.

    Raises ScaleError, before anything is enumerated, when n exceeds the
    MAX_BRUTE_STATES enumeration guard.
    """
    n = pattern.n
    if n > MAX_BRUTE_STATES:
        raise ScaleError(
            f"n = {n} exceeds the 2^{MAX_BRUTE_STATES} enumeration guard; "
            "use the flow-based check"
        )
    amask = [sum(1 << (j - 1) for j in row if j <= n) for row in pattern.rows]
    bmask = [sum(1 << (j - n - 1) for j in row if j > n) for row in pattern.rows]
    h = n // 2
    low = _union_table(amask[:h], bmask[:h])
    high = _union_table(amask[h:], bmask[h:])
    return ((hi << h | lo, a_hi | a, b_hi | b)
            for hi, a_hi, b_hi in high for lo, a, b in (low[1:] if hi == 0 else low))


def _union_table(amask: list[int], bmask: list[int]) -> list[tuple[int, int, int]]:
    """(s, alpha_in, beta_in) for every subset mask s of the states whose
    in-neighbour masks are listed, bit i standing for amask[i], bmask[i]:
    each subset adds its lowest state to the subset without it."""
    table = [(0, 0, 0)]
    for s in range(1, 1 << len(amask)):
        low = (s & -s).bit_length() - 1
        _, a, b = table[s & (s - 1)]
        table.append((s, a | amask[low], b | bmask[low]))
    return table


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def _least_violation(unions, k: int, q: int) -> tuple[frozenset[int], int, int] | None:
    kp1 = k + 1
    kq = kp1 * q
    best = None
    for s, a, b in unions:
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


def counting_violation(pattern: SparsityPattern, k: int,
                       q: int) -> tuple[frozenset[int], int, int] | None:
    """Exhaustively search for a subset violating the counting condition.

    Returns (subset, lhs, rhs) for the violation with the smallest rhs-lhs gap
    (ties: smallest bitmask), or None when every subset satisfies it.
    """
    check_kq(pattern.n, pattern.m, k, q)
    return _least_violation(_subset_unions(pattern), k, q)


def brute_force_check(pattern: SparsityPattern, k: int, q: int) -> Verdict:
    """Exhaustive verification: reachability plus the counting condition over
    all 2^n subsets.  Guarded at n <= 24."""
    check_kq(pattern.n, pattern.m, k, q)
    unions = _subset_unions(pattern)
    stats = VerdictStats(None, pattern.n * q)
    unreachable = reachability_check(pattern)
    if unreachable:
        return Verdict(False, Unreachable(unreachable), stats)
    violation = _least_violation(unions, k, q)
    if violation is not None:
        subset, lhs, rhs = violation
        return Verdict(False, ViolatingSubset(subset, lhs, rhs, k, q), stats)
    return Verdict(True, Saturated(stats.target), stats)


def kstar_brute(pattern: SparsityPattern) -> KStarResult:
    """Minimal switch count by subset enumeration:
    max over nonempty subsets of ceil(|V'| / |alpha_in(V')|) - 1, infinite when
    reachability fails or some subset has no state in-neighbor."""
    unions = _subset_unions(pattern)
    unreachable = reachability_check(pattern)
    if unreachable:
        return KStarResult(None, Unreachable(unreachable))
    best_val = -1
    best_mask = 0
    for s, a, _ in unions:
        if a == 0:
            return KStarResult(None, EmptyAlphaIn(_mask_to_set(s)))
        cs = s.bit_count()
        ca = a.bit_count()
        val = (cs + ca - 1) // ca - 1  # ceil(cs / ca) - 1, in integers
        if val > best_val:
            best_val = val
            best_mask = s
    return KStarResult(best_val, ArgmaxSubset(_mask_to_set(best_mask)))


def to_dot(pattern: SparsityPattern) -> str:
    """DOT export: circles a1..an for states, squares b1..bm for controls;
    stable ordering for diff-able output."""
    n = pattern.n
    lines = ["digraph pattern {", "  rankdir=LR;"]
    for j in range(1, pattern.m + 1):
        lines.append(f"  b{j} [shape=square];")
    for i in range(1, n + 1):
        lines.append(f"  a{i} [shape=circle];")
    edges = sorted((j, i) for i, row in enumerate(pattern.rows, 1) for j in row)
    lines += [f"  b{j - n} -> a{i};" for j, i in edges if j > n]
    lines += [f"  a{j} -> a{i};" for j, i in edges if j <= n]
    lines.append("}")
    return "\n".join(lines) + "\n"
