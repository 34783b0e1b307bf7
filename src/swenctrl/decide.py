"""Cross-checks and certificates around the decision core.

check_structural and compute_kstar live in core, which imports nothing of
this module; they are imported here so that their names still resolve
from swenctrl.decide.  crosscheck runs the flow route against the
brute-force enumeration, and the transport solver's compact value against
the expanded network's matching value, over a whole (k, q) grid: it
searches reachability once, solves the compact network warm (one transport
problem per ensemble size, its switch count raised row by row) and
enumerates the pattern's state subsets once for all its cells;
witness_from_cut reads a violating subset off a named min cut, and
recheck_certificate verifies a verdict's certificate from the pattern
alone, both counting the subset by graph._subset_sides.
"""

from __future__ import annotations

from .core import (
    Transport,
    _cut_sides,
    check_kq,
    check_structural,
    compute_kstar,
    unreachable_states,
)
from .errors import ConsistencyError, ScaleError
from .flow import lifted_values
from .graph import (
    _kstar_brute,
    _least_violation,
    _subset_classes,
    _subset_sides,
    reachability_check,
)
from .pattern import SparsityPattern
from .results import FrozenValue, Saturated, Unreachable, Verdict, ViolatingSubset

MAX_CROSSCHECK_STATES = 10
# The subsets are enumerated once per pattern, and the expanded network's
# matching values once per grid (flow.lifted_values), their adjacency and
# matchings growing with k and q; the compact values come from one transport
# problem per ensemble size, solved on as k grows, so a cell costs the flow
# it adds and its least violation.  The grid's size is checked before any runs.
MAX_CROSSCHECK_CELLS = 1 << 10


def witness_from_cut(pattern: SparsityPattern, k: int, q: int, cut) -> frozenset[int]:
    """Read a violating subset off a witness-mode min cut given by node names
    (min_cut of build_small_network): the state nodes whose right copies sit
    on the sink side.

    With infinite middle arcs that subset always violates the counting
    condition (graph._subset_sides); ConsistencyError is raised if not.
    """
    subset = frozenset(j for j in range(1, pattern.n + 1) if ("mu", j) not in cut)
    lhs, rhs = _subset_sides(pattern, k, q, subset)
    if lhs >= rhs:
        raise ConsistencyError("cut-derived subset satisfies the counting condition; "
                               "the cut is not a witness-mode min cut")
    return subset


class CrosscheckCell(FrozenValue):
    __slots__ = _fields = ("k", "q", "structural", "brute", "theta", "theta_hat", "counting_ok",
                           "agree")


class CrosscheckReport(FrozenValue):
    __slots__ = _fields = ("n", "m", "k_max", "q_max", "cells", "kstar_search", "kstar_enumerated",
                           "kstar_agree", "disagreements")

    @property
    def agree(self) -> bool:
        return not self.disagreements


def crosscheck(pattern: SparsityPattern, k_max: int, q_max: int) -> CrosscheckReport:
    """Oracle-agreement harness over the grid [0..k_max] x [1..q_max]:
    flow decision vs. subset enumeration, the compact network's max-flow
    value theta vs. the expanded network's matching value theta_hat, and
    the ascent's vs. the enumerated minimal switch count.  The flow side is
    check_structural's rule, solved warm: one reachability search
    (core.unreachable_states), and per ensemble size q one transport
    problem, set up at k = 0 and raised a switch per row (Transport.shift),
    the network of (k+1, q) holding that of (k, q) with larger supplies.
    theta is its value, on an unreachable pattern too, where the network
    may still saturate; a reachable cell short of n*q prices its min cut
    (core._cut_sides), raising ConsistencyError unless the flow is maximal.
    Max-flow values and the source-maximal min cut are the same for every
    maximum flow, so each cell reads as a cold check would.  theta_hat, a
    Hopcroft-Karp matching value, shares no code with it: one
    flow.lifted_values call gives it for the whole grid off one expanded
    adjacency whose lists grow layer by layer, each cell's matching
    warm-started from a smaller cell's; a cell over the arc guard has
    theta_hat None.  The subsets are enumerated once, after the guards,
    into the classes that every cell's least violation is read from, once
    for its brute decision and counting condition."""
    n, m, rows = pattern.n, pattern.m, pattern.rows
    if n > MAX_CROSSCHECK_STATES:
        raise ScaleError(f"crosscheck requires n <= {MAX_CROSSCHECK_STATES}")
    check_kq(n, m, k_max, q_max)
    if (k_max + 1) * q_max > MAX_CROSSCHECK_CELLS:
        raise ScaleError(f"(k_max+1)*q_max = {(k_max + 1) * q_max} grid cells exceed the "
                         f"guard {MAX_CROSSCHECK_CELLS}")
    unreachable = reachability_check(pattern)
    classes = _subset_classes(pattern)
    theta_hats = lifted_values(pattern, k_max, q_max)
    blind = unreachable_states(rows, n)
    transports = [Transport(rows, n, m, 0, q) for q in range(1, q_max + 1)]
    cells = []
    disagreements = []
    for k in range(k_max + 1):
        for q, transport in enumerate(transports, 1):
            if k:
                transport.shift(1)
            subset = transport.solve(n * q)
            theta = transport.value
            if subset is not None and not blind:
                _cut_sides(rows, n, k, q, subset, theta)
            structural = not blind and subset is None
            counting_ok = _least_violation(classes, k, q) is None
            brute = not unreachable and counting_ok
            theta_hat = theta_hats[k][q - 1]
            agree = structural == brute
            if not agree:
                disagreements.append(
                    f"k={k} q={q}: flow decision {structural} != brute decision {brute}"
                )
            if theta_hat is not None and theta != theta_hat:
                agree = False
                disagreements.append(f"k={k} q={q}: theta {theta} != theta_hat {theta_hat}")
            if (theta == n * q) != counting_ok:
                agree = False
                disagreements.append(
                    f"k={k} q={q}: flow saturation {theta == n * q} "
                    f"!= counting condition {counting_ok}"
                )
            cells.append(CrosscheckCell(k, q, structural, brute, theta, theta_hat, counting_ok,
                                        agree))
    ks_search = compute_kstar(pattern)
    ks_enum = _kstar_brute(classes, unreachable)
    kstar_agree = ks_search.value == ks_enum.value
    if not kstar_agree:
        disagreements.append(
            f"kstar: search {ks_search.value} != enumeration {ks_enum.value}"
        )
    return CrosscheckReport(
        n, m, k_max, q_max, tuple(cells),
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
        "cells": [{name: getattr(c, name) for name in CrosscheckCell._fields}
                  for c in report.cells],
        "kstar_search": kv(report.kstar_search),
        "kstar_enumerated": kv(report.kstar_enumerated),
        "kstar_agree": report.kstar_agree,
        "disagreements": list(report.disagreements),
        "agree": report.agree,
    }


def recheck_certificate(pattern: SparsityPattern, verdict: Verdict) -> bool:
    """Independent certificate verification from the pattern alone: plain BFS
    and integer arithmetic over the star positions, no flow solver.  It reads
    the pattern's rows, a violating subset only its own states' rows, with
    the referees' code (graph's reachability search and _subset_sides),
    apart from the solver's.  A violating subset must carry a (k, q) that
    passes check_kq and come with the target n*q.  A Saturated certificate
    is accepted only on a true verdict whose flow value theta equals both
    the certificate's value and the target, and whose target is n*q for an
    int q >= 1; it proves no more than that (a brute-force verdict, which
    has no theta, fails it)."""
    cert = verdict.certificate
    if isinstance(cert, ViolatingSubset):
        k, q = cert.k, cert.q
        try:
            check_kq(pattern.n, pattern.m, k, q)
        except (ValueError, ScaleError):
            return False
        if verdict.decision or verdict.stats.target != pattern.n * q:
            return False
        subset = cert.subset
        if not subset or not all(type(i) is int and 1 <= i <= pattern.n for i in subset):
            return False
        lhs, rhs = _subset_sides(pattern, k, q, subset)
        return lhs == cert.lhs and rhs == cert.rhs and lhs < rhs
    if isinstance(cert, Unreachable):
        if verdict.decision:
            return False
        unreachable = reachability_check(pattern)
        return (bool(unreachable) and all(type(i) is int for i in cert.nodes)
                and cert.nodes == unreachable)
    if isinstance(cert, Saturated):
        target, n = verdict.stats.target, pattern.n
        return (verdict.decision is True and isinstance(target, int) and target >= n
                and target % n == 0 and verdict.stats.theta == cert.value == target)
    return False
