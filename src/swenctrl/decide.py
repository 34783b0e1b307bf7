"""Top-level decision procedures.

check_structural decides structural controllability of a pattern for a given
(k, q) by reachability plus a single max-flow saturation test; compute_kstar
finds the minimal switch count that works for every ensemble size by a
warm-started ascent on one residual network, and reports the binary-search
trace a cold probe per k would give;
crosscheck runs the flow route against the brute-force enumeration and the
expanded-network flow over a whole (k, q) grid.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from .errors import ConsistencyError, ScaleError
from .flow import (
    Residual,
    augment,
    build_lifted_network,
    build_small_network,
    compact_arcs,
    compact_capacity,
    compact_unreachable,
    max_flow,
    residual_arrays,
    residual_min_cut,
    shift_switch_count,
)
from .graph import (
    brute_force_check,
    counting_sides,
    counting_violation,
    in_neighbor_sets,
    kstar_brute,
)
from .pattern import SparsityPattern
from .results import (
    EmptyAlphaIn,
    KStarResult,
    Saturated,
    Unreachable,
    Verdict,
    VerdictStats,
    ViolatingSubset,
)

MAX_CROSSCHECK_STATES = 10
# Each cell runs a check, two subset enumerations and two max-flows, the
# expanded one growing with k*q; the grid's size is checked before any runs.
MAX_CROSSCHECK_CELLS = 1 << 10


def check_structural(pattern: SparsityPattern, k: int, q: int) -> Verdict:
    """Decide structural controllability for (k, q).

    False verdicts carry a verified certificate: the unreachable state nodes,
    or a state subset violating the counting condition, extracted from a
    minimum cut of the witness-mode network.  Everything runs on the compact
    network's int arcs, built straight from the pattern's stars.
    """
    if not isinstance(k, int) or k < 0:
        raise ValueError("switch count k must be an integer >= 0")
    if not isinstance(q, int) or q < 1:
        raise ValueError("ensemble size q must be an integer >= 1")
    n, m = pattern.n, pattern.m
    target = n * q
    tail, head = compact_arcs(n, m, pattern.stars)
    unreachable = compact_unreachable(n, m, tail, head)
    if unreachable:
        return Verdict(False, Unreachable(unreachable), VerdictStats(None, target))
    res = residual_arrays(m + 2 * n + 2, tail, head,
                          compact_capacity(n, m, tail, k, q, witness_mode=True))
    theta = augment(res)
    stats = VerdictStats(theta, target)
    if theta == target:
        return Verdict(True, Saturated(theta), stats)
    subset, alpha, beta = _sink_side_states(res, n, m, residual_min_cut(res, theta))
    lhs, rhs = _violation(n, k, q, subset, alpha, beta)
    return Verdict(False, ViolatingSubset(subset, lhs, rhs, k, q), stats)


def _sink_side_states(res: Residual, n: int, m: int, sink_side) -> tuple[frozenset[int], int, int]:
    """The states whose right copy mu_j lies on the sink side of a cut of the
    compact residual res, with their numbers of state and control
    in-neighbours.  The edges leaving mu_j are the reverses of the arcs into
    it, whose heads are its in-neighbours (lam_c is c, nu_i is m+i), and its
    arc to the sink."""
    mu = m + n
    subset = frozenset(j for j in range(1, n + 1) if sink_side[mu + j])
    left = {res.head[e] for j in subset for e in res.adj[mu + j]}
    left.discard(len(res.adj) - 1)
    beta = sum(1 for u in left if u <= m)
    return subset, len(left) - beta, beta


def _violation(n: int, k: int, q: int, subset, alpha: int, beta: int) -> tuple[int, int]:
    """Both sides of the counting condition for a cut-derived subset, which
    must violate it; ConsistencyError is raised if it does not (a cut that is
    not the source side of a witness-mode min cut for (k, q))."""
    lhs, rhs = counting_sides(n, k, q, len(subset), alpha, beta)
    if lhs >= rhs:
        raise ConsistencyError("cut-derived subset satisfies the counting condition; "
                               "the cut is not a witness-mode min cut")
    return lhs, rhs


def witness_from_cut(pattern: SparsityPattern, k: int, q: int, cut) -> frozenset[int]:
    """Read a violating subset off a witness-mode min cut given by node names
    (min_cut of build_small_network): the state nodes whose right copies sit
    on the sink side.

    With infinite middle arcs that subset always violates the counting
    condition; ConsistencyError is raised if it does not.
    """
    subset = frozenset(j for j in range(1, pattern.n + 1) if ("mu", j) not in cut)
    ns = in_neighbor_sets(pattern, subset)
    _violation(pattern.n, k, q, subset, len(ns.alpha_in), len(ns.beta_in))
    return subset


def compute_kstar(pattern: SparsityPattern) -> KStarResult:
    """Minimal switch count working for every ensemble size.

    At the ensemble size q = mn+1 the counting condition already implies it
    for every q, and for k <= n-1 it reduces to (k+1)|alpha_in(V')| >= |V'|,
    so k* = max ceil(|V'| / |alpha_in(V')|) - 1 over state subsets V'.  An
    unreachable pattern, or one with a state that has no state in-neighbour,
    has no finite k*; the latter keeps the single probe at (n-1, mn+1),
    whose min cut gives the EmptyAlphaIn subset.

    Otherwise one witness-mode network at q = mn+1, valid for every k <= n-1,
    is solved at k = 0 and then ascended: while the flow is short of
    n(mn+1), the source-maximal min cut gives a violating V', k becomes
    ceil(|V'| / |alpha_in(V')|) - 1 (above the current k, never above k*),
    and the source arcs are raised with the flow kept.  The trace replays the
    binary search over [0, n-1] that probes the same network cold: probes at
    k >= k* saturate, and each probe below k* is solved warm from the
    residual of the largest failing k below it.  Max-flow values do not
    depend on which maximum flow is found, so the trace is the same.
    """
    n, m = pattern.n, pattern.m
    tail, head = compact_arcs(n, m, pattern.stars)
    unreachable = compact_unreachable(n, m, tail, head)
    if unreachable:
        return KStarResult(None, Unreachable(unreachable))
    qbar = m * n + 1
    target = n * qbar
    cap = compact_capacity(n, m, tail, n - 1, qbar, witness_mode=True)
    res = residual_arrays(m + 2 * n + 2, tail, head, cap)

    def violating(k: int, theta: int) -> tuple[frozenset[int], int]:
        subset, alpha, beta = _sink_side_states(res, n, m, residual_min_cut(res, theta))
        _violation(n, k, qbar, subset, alpha, beta)
        return subset, alpha

    state_heads = head[bisect_left(tail, m + 1):len(tail) - n]
    if len(set(state_heads)) < n:
        # Some state has no state in-neighbour.  A violation at (n-1, mn+1)
        # needs n|alpha_in| < |V'| <= n, so the violating subset has none.
        theta = augment(res)
        subset, _ = violating(n - 1, theta)
        return KStarResult(None, EmptyAlphaIn(subset), ((n - 1, theta, target),))
    shift_switch_count(res, n, m, qbar, -(n - 1))  # down to k = 0, still at zero flow
    k, theta = 0, augment(res)
    failing = {}  # k -> (max-flow value, residual) for every k solved short of target
    while theta < target:
        failing[k] = (theta, res.copy())
        subset, alpha = violating(k, theta)
        k_next = -(-len(subset) // alpha) - 1
        if k_next <= k:
            raise ConsistencyError(f"kstar ascent stalled at k={k}")
        shift_switch_count(res, n, m, qbar, k_next - k)
        theta += augment(res)
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
            theta_below, res_below = failing[below]
            res_mid = res_below.copy()
            shift_switch_count(res_mid, n, m, qbar, mid - below)
            failing[mid] = (theta_below + augment(res_mid), res_mid)
        theta_mid = failing[mid][0]
        if theta_mid >= target:
            raise ConsistencyError(f"probe at k={mid} saturates below k*={k}")
        trace.append((mid, theta_mid, target))
        lo = mid + 1
    return KStarResult(k, None, tuple(trace))


@dataclass(frozen=True)
class CrosscheckCell:
    k: int
    q: int
    structural: bool
    brute: bool
    theta: int
    theta_hat: int | None
    counting_ok: bool
    agree: bool


@dataclass(frozen=True)
class CrosscheckReport:
    n: int
    m: int
    k_max: int
    q_max: int
    cells: tuple[CrosscheckCell, ...]
    kstar_search: int | None
    kstar_enumerated: int | None
    kstar_agree: bool
    disagreements: tuple[str, ...]

    @property
    def agree(self) -> bool:
        return not self.disagreements


def crosscheck(pattern: SparsityPattern, k_max: int, q_max: int) -> CrosscheckReport:
    """Oracle-agreement harness over the grid [0..k_max] x [1..q_max]:
    flow decision vs. subset enumeration, compact vs. expanded max-flow value,
    and binary-search vs. enumerated minimal switch count."""
    if pattern.n > MAX_CROSSCHECK_STATES:
        raise ScaleError(f"crosscheck requires n <= {MAX_CROSSCHECK_STATES}")
    if k_max < 0 or q_max < 1:
        raise ValueError("k_max must be >= 0 and q_max >= 1")
    if (k_max + 1) * q_max > MAX_CROSSCHECK_CELLS:
        raise ScaleError(f"(k_max+1)*q_max = {(k_max + 1) * q_max} grid cells exceed the "
                         f"guard {MAX_CROSSCHECK_CELLS}")
    cells = []
    disagreements = []
    for k in range(k_max + 1):
        for q in range(1, q_max + 1):
            flow_verdict = check_structural(pattern, k, q)
            brute_verdict = brute_force_check(pattern, k, q)
            theta = max_flow(build_small_network(pattern, k, q)).value_total
            try:
                theta_hat = max_flow(build_lifted_network(pattern, k, q)).value_total
            except ScaleError:
                theta_hat = None
            counting_ok = counting_violation(pattern, k, q) is None
            agree = flow_verdict.decision == brute_verdict.decision
            if not agree:
                disagreements.append(
                    f"k={k} q={q}: flow decision {flow_verdict.decision} "
                    f"!= brute decision {brute_verdict.decision}"
                )
            if theta_hat is not None and theta != theta_hat:
                agree = False
                disagreements.append(f"k={k} q={q}: theta {theta} != theta_hat {theta_hat}")
            if (theta == pattern.n * q) != counting_ok:
                agree = False
                disagreements.append(
                    f"k={k} q={q}: flow saturation {theta == pattern.n * q} "
                    f"!= counting condition {counting_ok}"
                )
            cells.append(
                CrosscheckCell(k, q, flow_verdict.decision, brute_verdict.decision,
                               theta, theta_hat, counting_ok, agree)
            )
    ks_search = compute_kstar(pattern)
    ks_enum = kstar_brute(pattern)
    kstar_agree = ks_search.value == ks_enum.value
    if not kstar_agree:
        disagreements.append(
            f"kstar: search {ks_search.value} != enumeration {ks_enum.value}"
        )
    return CrosscheckReport(
        pattern.n, pattern.m, k_max, q_max, tuple(cells),
        ks_search.value, ks_enum.value, kstar_agree, tuple(disagreements),
    )


def crosscheck_to_dict(report: CrosscheckReport) -> dict:
    def kv(v):
        return "infinite" if v is None else v

    return {
        "n": report.n,
        "m": report.m,
        "k_max": report.k_max,
        "q_max": report.q_max,
        "cells": [
            {
                "k": c.k,
                "q": c.q,
                "structural": c.structural,
                "brute": c.brute,
                "theta": c.theta,
                "theta_hat": c.theta_hat,
                "counting_ok": c.counting_ok,
                "agree": c.agree,
            }
            for c in report.cells
        ],
        "kstar_search": kv(report.kstar_search),
        "kstar_enumerated": kv(report.kstar_enumerated),
        "kstar_agree": report.kstar_agree,
        "disagreements": list(report.disagreements),
        "agree": report.agree,
    }


def recheck_certificate(pattern: SparsityPattern, verdict: Verdict) -> bool:
    """Independent certificate verification from the pattern alone: plain BFS
    and integer arithmetic over the star positions, no flow solver."""
    cert = verdict.certificate
    if isinstance(cert, ViolatingSubset):
        if verdict.decision:
            return False
        subset = cert.subset
        if not subset or not all(1 <= i <= pattern.n for i in subset):
            return False
        alpha_in = {j for i, j in pattern.stars if i in subset and j <= pattern.n}
        beta_in = {j for i, j in pattern.stars if i in subset and j > pattern.n}
        lhs = (cert.k + 1) * len(beta_in) + (cert.k + 1) * cert.q * len(alpha_in)
        rhs = cert.q * len(subset)
        return lhs == cert.lhs and rhs == cert.rhs and lhs < rhs
    if isinstance(cert, Unreachable):
        if verdict.decision:
            return False
        out: dict[int, list[int]] = {j: [] for j in range(1, pattern.n + 1)}
        seen = set()
        for i, j in pattern.stars:
            if j <= pattern.n:
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
        unreachable = frozenset(range(1, pattern.n + 1)) - seen
        return bool(unreachable) and cert.nodes == unreachable
    if isinstance(cert, Saturated):
        return verdict.decision and verdict.stats.target == cert.value
    return False
