"""Seeded pattern generators owned by the benchmark.

They do not import swenctrl, so a change to the program cannot change a
workload's inputs.  A pattern is (n, m, stars) with 1-based (row, column)
stars over the n x (n+m) template; row i lists the in-neighbours of state i
(column j <= n is state j, column n+c is input c).  Every generator returns
the same pattern for the same arguments.
"""

from __future__ import annotations

import random
from collections import deque

HUB_BLOCK = 8  # states per hub block; gives k* = HUB_BLOCK - 1 when n % 8 == 0
STAR_DENSITY = 0.05  # share of random stars in backbone and sparse-fail patterns
REFEREE_DENSITY = 0.3  # share of stars in the small referee patterns


def _random_stars(rng: random.Random, n: int, m: int, density: float, rows) -> set:
    """round(density * cells) distinct random stars in the given rows.  A
    fixed count, rather than one coin per cell, keeps small patterns, whose
    cost grows with the star count, alike from seed to seed."""
    width = n + m
    rows = list(rows)
    cells = rng.sample(range(len(rows) * width), round(density * len(rows) * width))
    return {(rows[c // width], c % width + 1) for c in cells}


def backbone(n: int, seed: int):
    """Self-loops, a broadcast first input column and random stars at
    STAR_DENSITY.  Every state is its own in-neighbour, so k* = 0 and every
    check saturates."""
    m = max(1, n // 10)
    rng = random.Random(f"backbone:{n}:{seed}")
    stars = _random_stars(rng, n, m, STAR_DENSITY, range(1, n + 1))
    stars.update((i, i) for i in range(1, n + 1))
    stars.update((i, n + 1) for i in range(1, n + 1))
    return n, m, frozenset(stars)


def hub(n: int, seed: int):
    """States split at random into blocks of HUB_BLOCK (the last may be
    smaller); each block's only state in-neighbour is its hub, a random
    state.  One input column reaches every state.  k* = (largest block) - 1."""
    rng = random.Random(f"hub:{n}:{seed}")
    order = list(range(1, n + 1))
    rng.shuffle(order)
    blocks = [order[i:i + HUB_BLOCK] for i in range(0, n, HUB_BLOCK)]
    hubs = rng.sample(range(1, n + 1), len(blocks))
    stars = {(i, h) for h, block in zip(hubs, blocks) for i in block}
    stars.update((i, n + 1) for i in range(1, n + 1))
    return n, 1, frozenset(stars)


def hub_kstar(n: int) -> int:
    """The constructed minimal switch count of hub(n, seed)."""
    return min(n, HUB_BLOCK) - 1


def sparse_fail(n: int, seed: int, unreachable: bool):
    """Backbone-like pattern that fails every check.

    Reachable variant: a random block of states keeps only the broadcast
    input star (no state in-neighbour), so every check with q > k+1 returns
    a violating subset and k* is infinite after one probe.  Unreachable
    variant: a random block has no input star and no state in-neighbour
    outside itself, so it cannot be reached from any input."""
    m = max(1, n // 10)
    rng = random.Random(f"sparse-fail:{n}:{seed}:{int(unreachable)}")
    block = frozenset(rng.sample(range(1, n + 1), max(1, n // 20)))
    stars = set()
    for i, j in _random_stars(rng, n, m, STAR_DENSITY, range(1, n + 1)):
        if i not in block:
            stars.add((i, j))
        elif unreachable and j <= n and j in block:
            stars.add((i, j))
    stars.update((i, i) for i in range(1, n + 1) if i not in block or unreachable)
    stars.update((i, n + 1) for i in range(1, n + 1) if i not in block or not unreachable)
    return n, m, frozenset(stars)


def reachable(n: int, m: int, stars) -> bool:
    """Every state lies on a directed path from some input."""
    out = {j: [] for j in range(1, n + 1)}
    seen = set()
    for i, j in stars:
        if j <= n:
            out[j].append(i)
        else:
            seen.add(i)
    queue = deque(seen)
    while queue:
        for v in out[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == n


def small_random(n: int, seed: int):
    """Small random pattern with every state reachable (redrawn until it is),
    for the brute-force and exact-rank referees."""
    rng = random.Random(f"referee:{n}:{seed}")
    while True:
        stars = frozenset(_random_stars(rng, n, 2, REFEREE_DENSITY, range(1, n + 1)))
        if reachable(n, 2, stars):
            return n, 2, stars


def grid_text(n: int, m: int, stars) -> str:
    """The pattern in the grid file format."""
    rows = [["0"] * (n + m) for _ in range(n)]
    for i, j in stars:
        rows[i - 1][j - 1] = "*"
    return f"{n} {m}\n" + "".join(" ".join(row) + "\n" for row in rows)
