"""Sparsity patterns and their realizations.

A pattern is a star/zero template over an n x (n+m) matrix: columns 1..n form
the state block, columns n+1..n+m the input block.  Read as a digraph, the
star (i, j) is an edge into state i from state j or from input j-n.  A
SparsityPattern keeps its rows, for each state the sorted tuple of its star
columns, which the parsers hand over as they read them; they are the one
graph every module of the package reads.  A realization, an
EnsembleInstance, holds one int per star for each subsystem and switching
segment.  The stars, the (row, column) pairs, and a realization's dense
blocks are views built on each read, for the public API only.
"""

from __future__ import annotations

import json

from .core import check_kq
from .errors import ParseError, ScaleError
from .results import FrozenValue

MAX_PATTERN_DIM = 1 << 16  # guard on n+m of a pattern
MAX_GENERATED_N = 1 << 12  # guard on n in random_pattern
# Guards on a pattern's text, checked before any per-star object exists:
# the stars of a grid (every "*", comments included) and the characters of
# a JSON text.  Under a 1 GiB address space the parsers ran out of memory on
# a fully starred n = 6000 grid and on an n = 2500 JSON file.  Of the
# subcommands, flowdump peaks highest on a grid: 541 MB at 2.25M stars and
# 952 MB at 4M.  Compact JSON peaks near 28 bytes per character in the
# parser: 278 MB at 9.8M characters and 542 MB at 20.4M (2-core Xeon, Python
# 3.11).  Both bounds admit the largest benchmark inputs by far.
MAX_GRID_STARS = 1 << 21
MAX_JSON_CHARS = 1 << 23
# Guard on a sample's q(k+1)n(n+m) matrix entries, though it stores its stars
# only: they bound its blocks view, the referee's B columns and rank work.
MAX_SAMPLE_CELLS = 1 << 18
DEFAULT_VALUE_BOUND = 10007
# Guard on the sampled entries: the exact rank's integers grow with their
# bits, and one trial at the rank guard (dense n = 8, m = 2, k = 0, q = 8)
# took 1.9 s at the default and 8.8 s at 2^32 on a 2-core Xeon.
MAX_VALUE_BOUND = 1 << 32
# The referee's rank criteria (oracle.controllability_rank); kept here so the
# CLI can offer them without importing the referee.
CRITERIA = ("invariant_closure", "sequential_subspace")


class SparsityPattern(FrozenValue):
    """Star positions of an n x (n+m) template.

    SparsityPattern(n, m, stars) takes the stars as 1-based (row, column)
    pairs.  rows[i-1] is the sorted tuple of the columns of row i's stars;
    equality and hashing follow (n, m, rows), and stars is their frozenset
    of (row, column) pairs, built anew on each read.
    """

    __slots__ = _fields = ("n", "m", "rows")

    def __init__(self, n: int, m: int, stars):
        _check_dims(n, m)
        stars = frozenset(stars)
        for i, j in stars:
            if not (1 <= i <= n):
                raise ValueError(f"star row index {i} out of range 1..{n}")
            if not (1 <= j <= n + m):
                raise ValueError(f"star column index {j} out of range 1..{n + m}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", _rows_of(n, stars))

    @classmethod
    def from_rows(cls, n: int, m: int, rows: tuple[tuple[int, ...], ...]) -> SparsityPattern:
        """The pattern whose row i holds the star columns rows[i-1], each row a
        tuple sorted ascending without repeats, as the parsers read them.
        The range checks run per row, on its first and last column."""
        _check_dims(n, m)
        if len(rows) != n:
            raise ValueError(f"expected {n} rows, got {len(rows)}")
        for row in rows:
            if row and not (1 <= row[0] and row[-1] <= n + m):
                bad = row[0] if row[0] < 1 else row[-1]
                raise ValueError(f"star column index {bad} out of range 1..{n + m}")
        self = object.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rows", rows)
        return self

    @property
    def stars(self) -> frozenset[tuple[int, int]]:
        return frozenset((i, j) for i, row in enumerate(self.rows, 1) for j in row)

    def __reduce__(self):
        return type(self).from_rows, (self.n, self.m, self.rows)


def _rows_of(n: int, stars) -> tuple[tuple[int, ...], ...]:
    """The rows of an n-row pattern with the given stars, all in range."""
    rows: list[list[int]] = [[] for _ in range(n)]
    for i, j in sorted(stars):
        rows[i - 1].append(j)
    return tuple(map(tuple, rows))


def _check_dims(n, m) -> None:
    if type(n) is not int or n < 1:
        raise ValueError("state dimension n must be an integer >= 1")
    if type(m) is not int or m < 0:
        raise ValueError("input count m must be an integer >= 0")
    if n + m > MAX_PATTERN_DIM:
        raise ScaleError(f"n + m = {n + m} exceeds the dimension guard {MAX_PATTERN_DIM}")


def parse_pattern(text: str, fmt: str = "grid") -> SparsityPattern:
    """Parse pattern text in either the grid or the JSON format."""
    if fmt == "grid":
        return _parse_grid(text)
    if fmt == "json":
        return _parse_json(text)
    raise ValueError(f"unknown pattern format {fmt!r} (expected 'grid' or 'json')")


_GRID_TOKENS = frozenset(("0", "*"))


def _parse_grid(text: str) -> SparsityPattern:
    if len(text) > MAX_GRID_STARS:  # a shorter text cannot hold more stars: skip the count
        stars = text.count("*")
        if stars > MAX_GRID_STARS:
            raise ScaleError(f"{stars} stars in the grid text exceed the guard {MAX_GRID_STARS}")
    n = m = None
    rows: list[tuple[int, ...]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            toks = line.split()
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
            width = n + m
            continue
        if len(rows) == n:
            raise ParseError(f"line {ln}: expected exactly {n} pattern rows, found an extra row")
        # A row written with single spaces holds its tokens at the even
        # positions; any other row is split, and its errors reported.
        cells = line[::2]
        if not (len(line) == 2 * width - 1 and cells.count("0") + cells.count("*") == width
                and line.count(" ") == width - 1):
            toks = line.split()
            if len(toks) != width:
                raise ParseError(f"line {ln}: expected {width} tokens, got {len(toks)}")
            if not _GRID_TOKENS.issuperset(toks):
                for col, tok in enumerate(toks, start=1):
                    if tok not in _GRID_TOKENS:
                        raise ParseError(f"line {ln}, column {col}: unknown token {tok!r}")
            cells = "".join(toks)  # one character per column
        row = []
        col = cells.find("*")
        while col >= 0:
            row.append(col + 1)
            col = cells.find("*", col + 1)
        rows.append(tuple(row))
    if n is None:
        raise ParseError("missing header line 'n m'")
    if len(rows) != n:
        raise ParseError(f"expected {n} pattern rows, got {len(rows)}")
    return SparsityPattern.from_rows(n, m, tuple(rows))


def _parse_json(text: str) -> SparsityPattern:
    if len(text) > MAX_JSON_CHARS:
        raise ScaleError(f"JSON text of {len(text)} characters exceeds the guard {MAX_JSON_CHARS}")
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
    _check_dims(n, m)  # before the n rows are allocated
    return SparsityPattern.from_rows(n, m, _rows_of(n, stars))


def serialize_pattern(pattern: SparsityPattern, fmt: str = "grid") -> str:
    """Canonical text form; parse_pattern(serialize_pattern(p, f), f) == p."""
    if fmt == "grid":
        lines = [f"{pattern.n} {pattern.m}"]
        for row in pattern.rows:
            cells = ["0"] * (pattern.n + pattern.m)
            for j in row:
                cells[j - 1] = "*"
            lines.append(" ".join(cells))
        return "\n".join(lines) + "\n"
    if fmt == "json":
        stars = [[i, j] for i, row in enumerate(pattern.rows, 1) for j in row]
        obj = {"n": pattern.n, "m": pattern.m, "stars": stars}
        return json.dumps(obj, sort_keys=True) + "\n"
    raise ValueError(f"unknown pattern format {fmt!r} (expected 'grid' or 'json')")


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
    import random  # only the generators need it

    rng = random.Random(seed)
    columns = range(1, n + m + 1)
    rows = tuple(tuple(j for j in columns if rng.random() < d) for _ in range(n))
    return SparsityPattern.from_rows(n, m, rows)


class EnsembleInstance(FrozenValue):
    """A realization of a pattern: values holds one int per star, for each
    subsystem p in 1..q, then each switching segment ell in 0..k, then the
    stars row-major, the order sample_instance draws them in.  entries(p, ell)
    is the one reader of that layout; blocks, the dense (A, B) pair of each
    (p, ell), is built from it on each read, for the public API only."""

    __slots__ = _fields = ("pattern", "k", "q", "values")

    def __init__(self, pattern: SparsityPattern, k: int, q: int, values):
        check_kq(pattern.n, pattern.m, k, q)
        values = tuple(values)
        size = q * (k + 1) * sum(map(len, pattern.rows))
        # type, not isinstance: no bool, and a dict's (p, ell) keys fail
        if len(values) != size or not {int}.issuperset(map(type, values)):
            raise ValueError(f"values must be {size} ints, one per star and (subsystem, segment)")
        FrozenValue.__init__(self, pattern, k, q, values)

    def entries(self, p: int, ell: int) -> list[tuple[int, int, int]]:
        """Subsystem p's nonzero stars in segment ell, as (row, column, value), row-major."""
        if not (1 <= p <= self.q and 0 <= ell <= self.k):
            raise ValueError(f"(p, ell) = ({p}, {ell}) out of range 1..{self.q} x 0..{self.k}")
        rows = self.pattern.rows
        size = sum(map(len, rows))
        start = ((p - 1) * (self.k + 1) + ell) * size
        values = iter(self.values[start:start + size])
        return [(i, j, x) for i, row in enumerate(rows, 1) for j, x in zip(row, values) if x]

    @property
    def blocks(self) -> dict:
        n, m = self.pattern.n, self.pattern.m
        blocks = {}
        for p in range(1, self.q + 1):
            for ell in range(self.k + 1):
                dense = [[0] * (n + m) for _ in range(n)]
                for i, j, x in self.entries(p, ell):
                    dense[i - 1][j - 1] = x
                blocks[(p, ell)] = (tuple(tuple(row[:n]) for row in dense),
                                    tuple(tuple(row[n:]) for row in dense))
        return blocks


def check_sample_size(pattern: SparsityPattern, k: int, q: int, value_bound: int) -> None:
    """The sampler's guards, checked before any draw: check_kq on (k, q),
    ValueError when value_bound < 2, and ScaleError when value_bound exceeds
    MAX_VALUE_BOUND or a (k, q) sample of `pattern` spans more than
    MAX_SAMPLE_CELLS matrix entries."""
    check_kq(pattern.n, pattern.m, k, q)
    if value_bound < 2:
        raise ValueError("value_bound must be >= 2")
    if value_bound > MAX_VALUE_BOUND:
        raise ScaleError(f"value_bound of {value_bound.bit_length()} bits exceeds the guard "
                         f"2^{MAX_VALUE_BOUND.bit_length() - 1}")
    cells = q * (k + 1) * pattern.n * (pattern.n + pattern.m)
    if cells > MAX_SAMPLE_CELLS:
        raise ScaleError(
            f"q*(k+1)*n*(n+m) = {cells} matrix entries exceed the sampling guard {MAX_SAMPLE_CELLS}"
        )


def sample_instance(pattern: SparsityPattern, k: int, q: int, seed: int,
                    value_bound: int = DEFAULT_VALUE_BOUND) -> EnsembleInstance:
    """Draw every star's value uniformly from 1..value_bound, in the order of
    EnsembleInstance.values, deterministically under `seed`: each draw is
    randint's own rejection loop on getrandbits, so the stream is
    random.Random(seed)'s randint(1, value_bound) stream.  check_sample_size
    runs its guards before any draw."""
    check_sample_size(pattern, k, q, value_bound)
    import random  # only the generators need it

    getrandbits = random.Random(seed).getrandbits
    bits = value_bound.bit_length()
    values = []
    for _ in range(q * (k + 1) * sum(map(len, pattern.rows))):
        # randint(1, value_bound)'s own rejection loop, inlined
        v = getrandbits(bits)
        while v >= value_bound:
            v = getrandbits(bits)
        values.append(v + 1)
    return EnsembleInstance(pattern, k, q, values)
