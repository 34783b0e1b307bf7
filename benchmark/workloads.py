"""The four benchmark workloads: which inputs each operation kind runs on,
what answer each input must give, and how a run's time is shared out.

Every workload runs all six operation kinds, so each reports every
end-to-end metric; the pattern family and sizes are what differ.  Sizes are
fixed per workload and only the random structure follows the seed, so runs
with different seeds sample the same latency distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import generators as G

# Distinct small patterns per kind: enough that the median and tail of a
# run do not hang on which few patterns the seed drew.
SMALL_CASES = 192

KINDS = ("check", "kstar", "cli_check", "cli_kstar", "crosscheck", "oracle")


@dataclass
class Case:
    """One input of one operation kind.

    k, q are the check arguments (crosscheck: k_max, q_max; oracle: the
    sampled k, q).  `expect` is the answer known by construction: for check,
    (decision, certificate type); for kstar, (k*, witness type); None leaves
    the answer to the brute-force referee.  Oracle cases carry `trials`."""

    family: str
    n: int
    m: int
    stars: frozenset
    k: int = 0
    q: int = 1
    expect: tuple | None = None
    trials: int = 0
    text: str = ""
    path: str = ""
    pattern: object = None

    @property
    def key(self) -> tuple:
        return (self.family, self.n, self.stars)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json."""

    build: Callable[[int, dict], dict]  # (seed, sizes) -> kind -> cases
    shares: dict  # kind -> share of the run's wall time
    sizes: dict   # kind -> n, recorded with every result


def _seeds(seed: int, count: int):
    return [seed * 1000 + i for i in range(count)]


def _backbone(seed: int, sz: dict) -> dict:
    main = [G.backbone(sz["check"], s) for s in _seeds(seed, 6)]
    probe = [G.backbone(sz["kstar"], s) for s in _seeds(seed, 12)]
    check = [Case("backbone", *p, k=1, q=3, expect=(True, "Saturated")) for p in main]
    kstar = [Case("backbone", *p, expect=(0, "NoneType")) for p in probe]
    return {
        "check": check,
        "kstar": kstar,
        "cli_check": check,
        "cli_kstar": kstar,
        "crosscheck": [Case("backbone", *G.backbone(sz["crosscheck"], s), k=2, q=3)
                       for s in _seeds(seed, SMALL_CASES)],
        "oracle": [Case("backbone", *G.backbone(sz["oracle"], s), k=1, q=2, trials=2)
                   for s in _seeds(seed, SMALL_CASES)],
    }


def _hub(seed: int, sz: dict) -> dict:
    n = sz["check"]
    ks = G.hub_kstar(n)
    pats = [G.hub(n, s) for s in _seeds(seed, 6)]
    # Two of every three checks run at k* (saturated), one just below it
    # (violating subset), at the saturating ensemble size q = mn + 1.
    check = [
        Case("hub", *p, k=ks - (i % 3 == 2), q=p[1] * n + 1,
             expect=(True, "Saturated") if i % 3 != 2 else (False, "ViolatingSubset"))
        for i, p in enumerate(pats)
    ]
    kstar = [Case("hub", *p, expect=(ks, "NoneType")) for p in pats]
    return {
        "check": check,
        "kstar": kstar,
        "cli_check": check,
        "cli_kstar": kstar,
        "crosscheck": [Case("hub", *G.hub(sz["crosscheck"], s), k=2, q=3)
                       for s in _seeds(seed, SMALL_CASES)],
        "oracle": [Case("hub", *G.hub(sz["oracle"], s), k=1, q=2, trials=2)
                   for s in _seeds(seed, SMALL_CASES)],
    }


def _sparse(n: int, seeds) -> list:
    # One pattern in five is unreachable; the rest take the cut path.
    return [(G.sparse_fail(n, s, i % 5 == 4), i % 5 == 4) for i, s in enumerate(seeds)]


def _sparse_fail(seed: int, sz: dict) -> dict:
    pats = _sparse(sz["check"], _seeds(seed, 10))
    check = [
        Case("sparse-fail", *p, k=1, q=3,
             expect=(False, "Unreachable" if unreach else "ViolatingSubset"))
        for p, unreach in pats
    ]
    kstar = [
        Case("sparse-fail", *p, expect=(None, "Unreachable" if unreach else "EmptyAlphaIn"))
        for p, unreach in pats
    ]
    return {
        "check": check,
        "kstar": kstar,
        "cli_check": check,
        "cli_kstar": kstar,
        "crosscheck": [Case("sparse-fail", *p, k=2, q=3)
                       for p, _ in _sparse(sz["crosscheck"], _seeds(seed, SMALL_CASES))],
        "oracle": [Case("sparse-fail", *p, k=1, q=2, trials=2)
                   for p, _ in _sparse(sz["oracle"], _seeds(seed, SMALL_CASES))],
    }


def _referee(seed: int, sz: dict) -> dict:
    pats = [G.small_random(sz["check"], s) for s in _seeds(seed, SMALL_CASES)]
    check = [Case("referee", *p, k=k, q=q) for p in pats for k in range(3) for q in (1, 2, 3)]
    kstar = [Case("referee", *p) for p in pats]
    return {
        "check": check,
        "kstar": kstar,
        "cli_check": check[4::9],  # one (k, q) = (1, 2) per pattern
        "cli_kstar": kstar,
        "crosscheck": [Case("referee", *G.small_random(sz["crosscheck"], s), k=3, q=3)
                       for s in _seeds(seed, SMALL_CASES)],
        "oracle": [Case("referee", *G.small_random(sz["oracle"], s), k=1, q=3, trials=2)
                   for s in _seeds(seed, SMALL_CASES)],
    }


# The family workloads spend most of a run on check and kstar; the referee
# calls there are cheap and only need enough samples for a tail.  (At 0.1
# each, their tails moved to p97 and spread twice as much between runs.)
FAMILY_SHARES = {"check": 0.25, "kstar": 0.25, "cli_check": 0.2, "cli_kstar": 0.2,
                 "crosscheck": 0.05, "oracle": 0.05}

WORKLOADS = {
    "backbone": Workload(
        _backbone,
        FAMILY_SHARES,
        {"check": 512, "kstar": 200, "crosscheck": 8, "oracle": 7},
    ),
    "hub": Workload(
        _hub,
        FAMILY_SHARES,
        {"check": 800, "kstar": 800, "crosscheck": 10, "oracle": 8},
    ),
    "sparse-fail": Workload(
        _sparse_fail,
        FAMILY_SHARES,
        {"check": 480, "kstar": 480, "crosscheck": 8, "oracle": 7},
    ),
    "referee": Workload(
        _referee,
        {"check": 0.1, "kstar": 0.1, "cli_check": 0.15, "cli_kstar": 0.15,
         "crosscheck": 0.25, "oracle": 0.25},
        {"check": 10, "kstar": 10, "crosscheck": 10, "oracle": 8},
    ),
}


def build_cases(workload: str, seed: int, sizes: dict | None = None) -> dict:
    """Operation kind -> list of cases; the same seed gives the same cases.
    `sizes` overrides the workload's pattern sizes (the self-test uses it)."""
    spec = WORKLOADS[workload]
    return spec.build(seed, sizes or spec.sizes)
