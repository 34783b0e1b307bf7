"""Brute-force evaluation of the weighted Hall-type counting conditions,
reachability and DOT export, read straight off a sparsity pattern's stars.

The pattern is the digraph: state node a_i stands for state coordinate i and
control node b_j for input channel j, and the star (i, j) is the edge from
the node of column j (a_j for j <= n, b_{j-n} above) to a_i.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ScaleError
from .flow import compact_arcs, compact_unreachable
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
class NeighborSets:
    alpha_in: frozenset[int]
    beta_in: frozenset[int]


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
    alpha = frozenset(j for i, j in pattern.stars if i in members and j <= n)
    beta = frozenset(j - n for i, j in pattern.stars if i in members and j > n)
    return NeighborSets(alpha, beta)


def reachability_check(pattern: SparsityPattern) -> frozenset[int]:
    """Return the state nodes with no directed path from any control node
    (empty means every state node is reachable)."""
    n, m = pattern.n, pattern.m
    return compact_unreachable(n, m, *compact_arcs(n, m, pattern.stars))


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


def core_condition_holds(pattern: SparsityPattern, k: int, q: int, subset) -> tuple[bool, int, int]:
    """Evaluate (k+1)|beta_in| + (k+1)q|alpha_in| >= q|subset| for one subset;
    returns (holds, lhs, rhs)."""
    _check_kq(pattern.n, k, q)
    ns = in_neighbor_sets(pattern, subset)
    lhs, rhs = counting_sides(pattern.n, k, q, len(frozenset(subset)), len(ns.alpha_in),
                              len(ns.beta_in))
    return lhs >= rhs, lhs, rhs


def _subset_unions(pattern: SparsityPattern):
    """Iterator of (subset_mask, alpha_in_mask, beta_in_mask) for every
    nonempty subset of state nodes, in ascending mask order.

    Raises ScaleError, before anything is enumerated, when n exceeds the
    MAX_BRUTE_STATES enumeration guard.
    """
    n = pattern.n
    if n > MAX_BRUTE_STATES:
        raise ScaleError(
            f"n = {n} exceeds the 2^{MAX_BRUTE_STATES} enumeration guard; "
            "use the flow-based check"
        )
    amask = [0] * (n + 1)
    bmask = [0] * (n + 1)
    for i, j in pattern.stars:
        if j <= n:
            amask[i] |= 1 << (j - 1)
        else:
            bmask[i] |= 1 << (j - n - 1)
    return _enumerate_unions(n, amask, bmask)


def _enumerate_unions(n: int, amask: list[int], bmask: list[int]):
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
    _check_kq(pattern.n, k, q)
    return _least_violation(_subset_unions(pattern), k, q)


def brute_force_check(pattern: SparsityPattern, k: int, q: int) -> Verdict:
    """Exhaustive verification: reachability plus the counting condition over
    all 2^n subsets.  Guarded at n <= 24."""
    _check_kq(pattern.n, k, q)
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
    for j, i in sorted((j - n, i) for i, j in pattern.stars if j > n):
        lines.append(f"  b{j} -> a{i};")
    for j, i in sorted((j, i) for i, j in pattern.stars if j <= n):
        lines.append(f"  a{j} -> a{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
