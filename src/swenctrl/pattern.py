"""Sparsity patterns and their realizations.

A pattern is a star/zero template over an n x (n+m) matrix: columns 1..n form
the state block, columns n+1..n+m the input block.  Read as a digraph, the
star (i, j) is an edge into state i from state j or from input j-n.
Everything downstream (flow networks, decisions, numerical referees) works on
its stars, whose ranges the SparsityPattern constructor checks.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from .errors import ParseError, ScaleError

MAX_PATTERN_DIM = 1 << 16  # guard on n+m of a pattern; lift_ensemble checks n*q before allocating
MAX_GENERATED_N = 1 << 12  # guard on n in random_pattern
MAX_SAMPLE_CELLS = 1 << 18  # guard on the matrix entries sample_instance allocates
DEFAULT_VALUE_BOUND = 10007


@dataclass(frozen=True)
class SparsityPattern:
    """Star positions of an n x (n+m) template, 1-based (row, column) pairs."""

    n: int
    m: int
    stars: frozenset[tuple[int, int]]

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ValueError("state dimension n must be an integer >= 1")
        if not isinstance(self.m, int) or self.m < 0:
            raise ValueError("input count m must be an integer >= 0")
        if self.n + self.m > MAX_PATTERN_DIM:
            raise ScaleError(f"n + m = {self.n + self.m} exceeds the dimension guard {MAX_PATTERN_DIM}")
        object.__setattr__(self, "stars", frozenset(self.stars))
        for i, j in self.stars:
            if not (1 <= i <= self.n):
                raise ValueError(f"star row index {i} out of range 1..{self.n}")
            if not (1 <= j <= self.n + self.m):
                raise ValueError(f"star column index {j} out of range 1..{self.n + self.m}")


def parse_pattern(text: str, fmt: str = "grid") -> SparsityPattern:
    """Parse pattern text in either the grid or the JSON format."""
    if fmt == "grid":
        return _parse_grid(text)
    if fmt == "json":
        return _parse_json(text)
    raise ValueError(f"unknown pattern format {fmt!r} (expected 'grid' or 'json')")


_GRID_TOKENS = frozenset(("0", "*"))


def _parse_grid(text: str) -> SparsityPattern:
    n = m = None
    rows = 0
    stars: list[tuple[int, int]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        toks = line.split()
        if n is None:
            if len(toks) != 2:
                raise ParseError(f"line {ln}: header must be 'n m', got {len(toks)} token(s)")
            try:
                n, m = int(toks[0]), int(toks[1])
            except ValueError:
                raise ParseError(f"line {ln}: header must contain two integers") from None
            if n < 1:
                raise ParseError(f"line {ln}: state dimension n must be >= 1")
            if m < 0:
                raise ParseError(f"line {ln}: input count m must be >= 0")
            continue
        if rows == n:
            raise ParseError(f"line {ln}: expected exactly {n} pattern rows, found an extra row")
        if len(toks) != n + m:
            raise ParseError(f"line {ln}: expected {n + m} tokens, got {len(toks)}")
        if not _GRID_TOKENS.issuperset(toks):
            for col, tok in enumerate(toks, start=1):
                if tok not in _GRID_TOKENS:
                    raise ParseError(f"line {ln}, column {col}: unknown token {tok!r}")
        rows += 1
        cells = "".join(toks)  # one character per column
        col = cells.find("*")
        while col >= 0:
            stars.append((rows, col + 1))
            col = cells.find("*", col + 1)
    if n is None:
        raise ParseError("missing header line 'n m'")
    if rows != n:
        raise ParseError(f"expected {n} pattern rows, got {rows}")
    return SparsityPattern(n, m, frozenset(stars))


def _parse_json(text: str) -> SparsityPattern:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ParseError("top-level JSON value must be an object")
    for key in ("n", "m", "stars"):
        if key not in obj:
            raise ParseError(f"missing key {key!r}")
    n, m, entries = obj["n"], obj["m"], obj["stars"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ParseError("n: must be an integer >= 1")
    if not isinstance(m, int) or isinstance(m, bool) or m < 0:
        raise ParseError("m: must be an integer >= 0")
    if not isinstance(entries, list):
        raise ParseError("stars: must be an array of [row, column] pairs")
    stars = set()
    for idx, entry in enumerate(entries):
        ok = (
            isinstance(entry, list)
            and len(entry) == 2
            and all(isinstance(x, int) and not isinstance(x, bool) for x in entry)
        )
        if not ok:
            raise ParseError(f"stars[{idx}]: must be a pair of integers")
        i, j = entry
        if not 1 <= i <= n:
            raise ParseError(f"stars[{idx}]: row index {i} out of range 1..{n}")
        if not 1 <= j <= n + m:
            raise ParseError(f"stars[{idx}]: column index {j} out of range 1..{n + m}")
        stars.add((i, j))
    return SparsityPattern(n, m, frozenset(stars))


def serialize_pattern(pattern: SparsityPattern, fmt: str = "grid") -> str:
    """Canonical text form; parse_pattern(serialize_pattern(p, f), f) == p."""
    if fmt == "grid":
        lines = [f"{pattern.n} {pattern.m}"]
        for i in range(1, pattern.n + 1):
            row = ["*" if (i, j) in pattern.stars else "0" for j in range(1, pattern.n + pattern.m + 1)]
            lines.append(" ".join(row))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        obj = {"n": pattern.n, "m": pattern.m, "stars": [list(s) for s in sorted(pattern.stars)]}
        return json.dumps(obj, sort_keys=True) + "\n"
    raise ValueError(f"unknown pattern format {fmt!r} (expected 'grid' or 'json')")


def lift_ensemble(pattern: SparsityPattern, q: int) -> SparsityPattern:
    """Ensemble-of-q expansion: q diagonal copies of the state block, the input
    block stacked so all copies share the m input columns."""
    if not isinstance(q, int) or q < 1:
        raise ValueError("ensemble size q must be an integer >= 1")
    n = pattern.n
    if n * q > MAX_PATTERN_DIM:
        raise ScaleError(f"lifted state dimension n*q = {n * q} exceeds {MAX_PATTERN_DIM}")
    stars = set()
    for i, j in pattern.stars:
        for p in range(q):
            if j <= n:
                stars.add((p * n + i, p * n + j))
            else:
                stars.add((p * n + i, n * q + (j - n)))
    return SparsityPattern(n * q, pattern.m, frozenset(stars))


def random_pattern(n: int, m: int, density, seed: int) -> SparsityPattern:
    """Each of the n(n+m) cells becomes a star independently with probability
    `density`; identical seed gives an identical pattern."""
    if not isinstance(n, int) or not 1 <= n <= MAX_GENERATED_N:
        raise ValueError(f"n must be an integer in 1..{MAX_GENERATED_N}")
    if not isinstance(m, int) or m < 0:
        raise ValueError("m must be an integer >= 0")
    d = float(density)
    if not 0.0 <= d <= 1.0:
        raise ValueError("density must lie in [0, 1]")
    rng = random.Random(seed)
    stars = frozenset(
        (i, j) for i in range(1, n + 1) for j in range(1, n + m + 1) if rng.random() < d
    )
    return SparsityPattern(n, m, stars)


Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class EnsembleInstance:
    """Concrete integer matrices conforming to a pattern: one (A, B) block pair
    per subsystem p in 1..q and switching segment ell in 0..k."""

    pattern: SparsityPattern
    k: int
    q: int
    blocks: dict[tuple[int, int], tuple[Matrix, Matrix]]

    def __post_init__(self):
        if self.k < 0:
            raise ValueError("switch count k must be >= 0")
        if self.q < 1:
            raise ValueError("ensemble size q must be >= 1")
        n, m = self.pattern.n, self.pattern.m
        expected = {(p, ell) for p in range(1, self.q + 1) for ell in range(self.k + 1)}
        if set(self.blocks) != expected:
            raise ValueError("blocks must carry exactly one (A, B) pair per (subsystem, segment)")
        for (p, ell), (a, b) in self.blocks.items():
            if len(a) != n or any(len(row) != n for row in a):
                raise ValueError(f"block A[{p},{ell}] is not {n}x{n}")
            if len(b) != n or any(len(row) != m for row in b):
                raise ValueError(f"block B[{p},{ell}] is not {n}x{m}")
            for i in range(n):
                for j in range(n):
                    if a[i][j] != 0 and (i + 1, j + 1) not in self.pattern.stars:
                        raise ValueError(f"A[{p},{ell}] nonzero at zero-entry ({i + 1}, {j + 1})")
                for c in range(m):
                    if b[i][c] != 0 and (i + 1, n + c + 1) not in self.pattern.stars:
                        raise ValueError(f"B[{p},{ell}] nonzero at zero-entry ({i + 1}, {n + c + 1})")


def sample_instance(
    pattern: SparsityPattern,
    k: int,
    q: int,
    seed: int,
    value_bound: int = DEFAULT_VALUE_BOUND,
) -> EnsembleInstance:
    """Draw every star entry uniformly from 1..value_bound, deterministically
    under `seed`; zero entries stay exactly zero."""
    if k < 0:
        raise ValueError("switch count k must be >= 0")
    if q < 1:
        raise ValueError("ensemble size q must be >= 1")
    if value_bound < 2:
        raise ValueError("value_bound must be >= 2")
    n, m = pattern.n, pattern.m
    cells = q * (k + 1) * n * (n + m)
    if cells > MAX_SAMPLE_CELLS:
        raise ScaleError(
            f"q*(k+1)*n*(n+m) = {cells} matrix entries exceed the sampling guard {MAX_SAMPLE_CELLS}"
        )
    rng = random.Random(seed)
    stars = sorted(pattern.stars)  # row-major, the order of the draws
    blocks = {}
    for p in range(1, q + 1):
        for ell in range(k + 1):
            a = [[0] * n for _ in range(n)]
            b = [[0] * m for _ in range(n)]
            for i, j in stars:
                v = rng.randint(1, value_bound)
                if j <= n:
                    a[i - 1][j - 1] = v
                else:
                    b[i - 1][j - n - 1] = v
            blocks[(p, ell)] = (tuple(map(tuple, a)), tuple(map(tuple, b)))
    return EnsembleInstance(pattern, k, q, blocks)
