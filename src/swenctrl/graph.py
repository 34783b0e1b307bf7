"""Brute-force evaluation of the weighted Hall-type counting conditions,
reachability and DOT export, read straight off a sparsity pattern's rows.

These referees share no code with the solver in core: the reachability
search, the in-neighbour split and the counting sums are their own, and of
core they import only the (k, q) guard check_kq.  One subset's two sides
are counted by _subset_sides alone, for core_condition_holds and decide's
witness_from_cut and recheck_certificate.  The 2^n state subsets are
enumerated once per pattern (_subset_classes): the unions of two halves of
the states are tabulated apart, each table folded to its distinct entries
at their least masks, and only those are joined, each subset folded as it
is formed into a class keyed by the three counts the counting condition
reads.  A class's least mask joins two such entries, as a smaller half with
the same union would give the same key.  The verdict, the least violation
and k* are read off those classes for any (k, q).

The pattern is the digraph: state node a_i stands for state coordinate i and
control node b_j for input channel j, and each column j of row i is the
edge from the node of column j (a_j for j <= n, b_{j-n} above) to a_i, so
row i lists the in-neighbours of a_i.
"""

from __future__ import annotations

from collections import deque

from .errors import ScaleError
from .core import check_kq
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


def to_digraph(pattern: SparsityPattern) -> SparsityPattern:
    """The pattern itself, which every function here takes as its digraph.
    Kept only because the benchmark still calls it, until a change to the
    benchmark drops the call."""
    return pattern


def _subset_sides(pattern: SparsityPattern, k: int, q: int, subset) -> tuple[int, int]:
    """Both sides (k+1)|beta_in| + (k+1)q|alpha_in| and q|subset| of the counting
    condition for one state subset, its in-neighbours its rows' columns split at
    n; ValueError names a state out of range.  (k, q) is the caller's to check."""
    n = pattern.n
    members = frozenset(subset)
    for i in members:
        if not (1 <= i <= n):
            raise ValueError(f"state index {i} out of range 1..{n}")
    columns = {j for i in members for j in pattern.rows[i - 1]}
    alpha = sum(j <= n for j in columns)
    return (k + 1) * (len(columns) - alpha) + (k + 1) * q * alpha, q * len(members)


def reachability_check(pattern: SparsityPattern) -> frozenset[int]:
    """Return the state nodes with no directed path from any control node
    (empty means every state node is reachable): a breadth-first search from
    the states whose rows hold an input column, over per-column buckets of
    the states each state column feeds.  It is the referees' own search,
    apart from the solver's."""
    n = pattern.n
    out: dict[int, list[int]] = {j: [] for j in range(1, n + 1)}
    seen = set()
    for i, row in enumerate(pattern.rows, 1):
        for j in row:
            if j <= n:
                out[j].append(i)
            else:
                seen.add(i)
    queue = deque(sorted(seen))
    while queue:
        u = queue.popleft()
        for v in out[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return frozenset(range(1, n + 1)) - seen


def core_condition_holds(pattern: SparsityPattern, k: int, q: int, subset) -> tuple[bool, int, int]:
    """Evaluate (k+1)|beta_in| + (k+1)q|alpha_in| >= q|subset| for one subset;
    returns (holds, lhs, rhs)."""
    check_kq(pattern.n, pattern.m, k, q)
    lhs, rhs = _subset_sides(pattern, k, q, subset)
    return lhs >= rhs, lhs, rhs


def _check_brute_size(pattern: SparsityPattern) -> None:
    """Raise ScaleError when n exceeds the MAX_BRUTE_STATES enumeration guard."""
    if pattern.n > MAX_BRUTE_STATES:
        raise ScaleError(
            f"n = {pattern.n} exceeds the 2^{MAX_BRUTE_STATES} enumeration guard; "
            "use the flow-based check"
        )


def _union_table(amask: list[int], bmask: list[int]) -> dict[tuple[int, int, int], int]:
    """Each distinct (|s|, alpha_in, beta_in) of the subset masks s of the
    states whose in-neighbour masks are listed, bit i standing for amask[i],
    bmask[i], mapped to its least s, in ascending order of s: each subset
    adds its lowest state to the subset without it."""
    table = [(0, 0, 0)]
    for s in range(1, 1 << len(amask)):
        low = (s & -s).bit_length() - 1
        size, a, b = table[s & (s - 1)]
        table.append((size + 1, a | amask[low], b | bmask[low]))
    firsts: dict[tuple[int, int, int], int] = {}
    for s, entry in enumerate(table):
        firsts.setdefault(entry, s)
    return firsts


def _mask_to_set(mask: int) -> frozenset[int]:
    return frozenset(i + 1 for i in range(mask.bit_length()) if (mask >> i) & 1)


def _subset_classes(pattern: SparsityPattern) -> dict[tuple[int, int, int], int]:
    """The nonempty state subsets folded into classes keyed by the three
    counts the counting condition reads, (|V'|, |alpha_in|, |beta_in|), each
    class mapped to its least subset mask.  The distinct unions of the low
    n//2 states and of the others, each at its least mask (_union_table),
    are joined in ascending mask order, so the first mask seen in a class is
    its least: that mask's halves are least in their own unions, or a
    smaller mask would give the same key.  Every (k, q) reads the same
    classes, so a pattern's subsets are enumerated once: at n = 10, at most
    11 * 11 * (m+1) classes stand for 1023 subsets, and a hub pattern's
    halves fold from 32 entries to about 9 each."""
    n, rows = pattern.n, pattern.rows
    amask = [sum(1 << (j - 1) for j in row if j <= n) for row in rows]
    bmask = [sum(1 << (j - n - 1) for j in row if j > n) for row in rows]
    h = n // 2
    low = list(_union_table(amask[:h], bmask[:h]).items())
    classes: dict[tuple[int, int, int], int] = {}
    for (size_hi, a_hi, b_hi), hi in _union_table(amask[h:], bmask[h:]).items():
        base = hi << h
        for (size, a, b), lo in low:
            key = (size_hi + size, (a_hi | a).bit_count(), (b_hi | b).bit_count())
            if key not in classes:  # cheaper than a setdefault call on every subset
                classes[key] = base | lo
    del classes[0, 0, 0]  # the empty subset, mask 0, the one subset of size 0
    return classes


def _least_violation(classes, k: int, q: int) -> tuple[frozenset[int], int, int] | None:
    """The violating subset with the least rhs-lhs gap, ties going to the
    least mask, with both sides, or None: a class's least mask is the least
    of all its subsets, which share one gap."""
    kp1 = k + 1
    kq = kp1 * q
    best = None
    for (size, alpha, beta), s in classes.items():
        lhs = kp1 * beta + kq * alpha
        rhs = q * size
        if lhs < rhs and (best is None or (rhs - lhs, s) < best[:2]):
            best = (rhs - lhs, s, lhs, rhs)
    if best is None:
        return None
    _, s, lhs, rhs = best
    return _mask_to_set(s), lhs, rhs


def _brute_verdict(violation, unreachable: frozenset[int], k: int, q: int,
                   target: int) -> Verdict:
    """The brute-force verdict at (k, q) from a pattern's unreachable states
    and its least violation (_least_violation of its subset classes)."""
    stats = VerdictStats(None, target)
    if unreachable:
        return Verdict(False, Unreachable(unreachable), stats)
    if violation is not None:
        subset, lhs, rhs = violation
        return Verdict(False, ViolatingSubset(subset, lhs, rhs, k, q), stats)
    return Verdict(True, Saturated(target), stats)


def _kstar_brute(classes, unreachable: frozenset[int]) -> KStarResult:
    """k* from a pattern's unreachable states and subset classes: infinite
    when some state is unreachable, else EmptyAlphaIn of the least mask with
    no state in-neighbour, else the maximum of ceil(|V'| / |alpha_in(V')|) - 1
    with the least mask that reaches it."""
    if unreachable:
        return KStarResult(None, Unreachable(unreachable))
    starved = [s for (_, alpha, _), s in classes.items() if alpha == 0]
    if starved:
        return KStarResult(None, EmptyAlphaIn(_mask_to_set(min(starved))))
    # ceil(size / alpha) - 1, in integers; the least mask wins ties
    best_val, best_mask = max(((size + alpha - 1) // alpha - 1, -s)
                              for (size, alpha, _), s in classes.items())
    return KStarResult(best_val, ArgmaxSubset(_mask_to_set(-best_mask)))


def brute_force_check(pattern: SparsityPattern, k: int, q: int) -> Verdict:
    """Exhaustive verification: reachability plus the counting condition over
    all 2^n subsets.  Guarded at n <= 24."""
    check_kq(pattern.n, pattern.m, k, q)
    _check_brute_size(pattern)
    unreachable = reachability_check(pattern)
    classes = {} if unreachable else _subset_classes(pattern)
    return _brute_verdict(_least_violation(classes, k, q), unreachable, k, q, pattern.n * q)


def kstar_brute(pattern: SparsityPattern) -> KStarResult:
    """Minimal switch count by subset enumeration:
    max over nonempty subsets of ceil(|V'| / |alpha_in(V')|) - 1, infinite when
    reachability fails or some subset has no state in-neighbor."""
    _check_brute_size(pattern)
    unreachable = reachability_check(pattern)
    return _kstar_brute({} if unreachable else _subset_classes(pattern), unreachable)


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
