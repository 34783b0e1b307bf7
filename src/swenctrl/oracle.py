"""Exact-arithmetic numerical referee.

Random integer realizations of a pattern are assembled into the block-diagonal
ensemble system and tested for controllability of the switched dynamics.  The
rank is the dimension of a Krylov span built by deflated products and kept as
an integer echelon basis.  No floating point anywhere: structural claims are
generic-rank claims and a tolerance would blur exactly the cases under test.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from math import gcd

from .decide import check_structural
from .errors import ScaleError
from .pattern import DEFAULT_VALUE_BOUND, EnsembleInstance, SparsityPattern, sample_instance

MAX_ORACLE_DIM = 64  # guard on q*n for the exact-arithmetic rank
# Guard on the samples one referee call draws, checked before the first; it
# admits oracle_agreement's retry at 4x trials for up to 1024 trials.
MAX_ORACLE_TRIALS = 1 << 12

CRITERIA = ("mode_span", "sequential_subspace")

Matrix = tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class RankReport:
    rank: int
    full_dim: int
    controllable: bool
    criterion: str
    d_range_used: tuple[int, int]


def assemble_segment(instance: EnsembleInstance, ell: int) -> tuple[Matrix, Matrix]:
    """Block-diagonal A and stacked B of the q-ensemble for one segment."""
    if not 0 <= ell <= instance.k:
        raise ValueError(f"segment index {ell} out of range 0..{instance.k}")
    n, m, q = instance.pattern.n, instance.pattern.m, instance.q
    dim = n * q
    a = [[0] * dim for _ in range(dim)]
    b = [[0] * m for _ in range(dim)]
    for p in range(1, q + 1):
        ab, bb = instance.blocks[(p, ell)]
        base = (p - 1) * n
        for i in range(n):
            row = a[base + i]
            for j in range(n):
                row[base + j] = ab[i][j]
            for c in range(m):
                b[base + i][c] = bb[i][c]
    return tuple(map(tuple, a)), tuple(map(tuple, b))


def _sparse_rows(a: Matrix) -> list[list[tuple[int, int]]]:
    """Each row of `a` as its (column, value) nonzeros."""
    return [[(j, x) for j, x in enumerate(row) if x] for row in a]


def _matvec(rows, v: list[int]) -> list[int]:
    """rows @ v for `rows` from `_sparse_rows`; q blocks on the diagonal make
    a product cost q*|stars| multiplications, not (qn)^2."""
    return [sum(x * v[j] for j, x in row) for row in rows]


def _columns(b, dim: int, m: int):
    return [[b[r][c] for r in range(dim)] for c in range(m)]


def _strip_content(v: list[int]) -> list[int]:
    g = 0
    for x in v:
        g = gcd(g, x)
        if g == 1:
            return v
    return v if g == 0 else [x // g for x in v]


class _SpanBasis:
    """Incremental exact row space over the integers, in echelon form: one
    primitive integer row per pivot column, zero left of its pivot."""

    def __init__(self, dim: int):
        self.dim = dim
        self.pivots: dict[int, list[int]] = {}

    def _reduce(self, vec: list[int]) -> list[int]:
        """An integer multiple of `vec` minus pivot rows, zero in every pivot
        column, made primitive once at the end."""
        v = vec
        for c in range(self.dim):
            if v[c] and c in self.pivots:
                row = self.pivots[c]
                g = gcd(v[c], row[c])
                fa, fb = row[c] // g, v[c] // g
                v = [fa * x - fb * y for x, y in zip(v, row)]
        return _strip_content(v)

    def add(self, vec: list[int]) -> list[int] | None:
        """Insert an integer vector; return its reduced primitive row when it
        enlarged the span, None when it was already in it."""
        v = self._reduce(vec)
        lead = next((i for i, x in enumerate(v) if x), None)
        if lead is None:
            return None
        self.pivots[lead] = v
        return v

    def contains(self, vec: list[int]) -> bool:
        return not any(self._reduce(vec))

    @property
    def dimension(self) -> int:
        return len(self.pivots)

    def vectors(self) -> list[list[int]]:
        return [self.pivots[c] for c in sorted(self.pivots)]


def reach_subspace(a: Matrix, generators, dim: int) -> _SpanBasis:
    """Smallest A-invariant subspace containing the generators (block-Krylov
    with deflation).  Only reduced rows are multiplied by A: each differs from
    the raw power by a combination of rows already in the span, so the span
    is the same and the integers stay far smaller.  Every row enters the
    frontier once, so there are at most dim products."""
    rows = _sparse_rows(a)
    basis = _SpanBasis(dim)
    frontier = [w for w in map(basis.add, generators) if w is not None]
    while frontier and basis.dimension < dim:
        grown = []
        for v in frontier:
            w = basis.add(_matvec(rows, v))
            if w is not None:
                grown.append(w)
                if basis.dimension == dim:
                    break
        frontier = grown
    return basis


def controllability_rank(
    instance: EnsembleInstance,
    criterion: str = "mode_span",
    include_d0: bool = True,
) -> RankReport:
    """Exact controllability test of the assembled switched ensemble system.

    mode_span: rank of the union over segments ell of the columns of
    A[ell]^d B[ell].  The literal power range is 1..qn; by default d = 0 is
    included as well, since without it a driftless system (A = 0, B != 0)
    would test as uncontrollable.  It is computed as the dimension of the
    sum of the segments' Krylov spaces, which that range spans.
    sequential_subspace: iterate V_{ell+1} = reach(A[ell+1], im B[ell+1] +
    V_ell) and report dim V_k.
    """
    n, m, q = instance.pattern.n, instance.pattern.m, instance.q
    dim = n * q
    if dim > MAX_ORACLE_DIM:
        raise ScaleError(f"q*n = {dim} exceeds the exact-arithmetic guard {MAX_ORACLE_DIM}")
    if criterion == "mode_span":
        # By Cayley-Hamilton the columns of A^d B for d = 0..qn span the
        # Krylov space K(A, B), and those for d = 1..qn span K(A, A B), so the
        # literal rank is the dimension of the sum of these spaces.
        d_range = (0 if include_d0 else 1, dim)
        span = _SpanBasis(dim)
        for ell in range(instance.k + 1):
            a, b = assemble_segment(instance, ell)
            generators = _columns(b, dim, m)
            if not include_d0:
                rows = _sparse_rows(a)
                generators = [_matvec(rows, v) for v in generators]
            for v in reach_subspace(a, generators, dim).vectors():
                span.add(v)
                if span.dimension == dim:
                    return RankReport(dim, dim, True, criterion, d_range)
        rank = span.dimension
        return RankReport(rank, dim, False, criterion, d_range)
    if criterion == "sequential_subspace":
        basis = None
        for ell in range(instance.k + 1):
            a, b = assemble_segment(instance, ell)
            generators = _columns(b, dim, m)
            if basis is not None:
                generators.extend(basis.vectors())
            basis = reach_subspace(a, generators, dim)
        rank = basis.dimension
        return RankReport(rank, dim, rank == dim, criterion, (0, dim - 1))
    raise ValueError(f"unknown criterion {criterion!r} (expected one of {CRITERIA})")


def _trial_seed(seed: int, t: int) -> int:
    return (seed * 6364136223846793005 + 1442695040888963407 * t) % (1 << 64)


def monte_carlo_controllable(
    pattern: SparsityPattern,
    k: int,
    q: int,
    trials: int,
    seed: int,
    value_bound: int = DEFAULT_VALUE_BOUND,
    criterion: str = "mode_span",
    include_d0: bool = True,
) -> tuple[bool, int]:
    """True iff any of `trials` random realizations is controllable; one
    controllable sample certifies structural controllability, while structural
    uncontrollability forces rank deficiency in every sample."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_ORACLE_TRIALS:
        raise ScaleError(f"trials = {trials} exceeds the guard {MAX_ORACLE_TRIALS}")
    if q * pattern.n > MAX_ORACLE_DIM:
        raise ScaleError(f"q*n = {q * pattern.n} exceeds the guard {MAX_ORACLE_DIM}")
    successes = 0
    for t in range(1, trials + 1):
        instance = sample_instance(pattern, k, q, seed=_trial_seed(seed, t), value_bound=value_bound)
        report = controllability_rank(instance, criterion=criterion, include_d0=include_d0)
        if report.controllable:
            successes += 1
    return successes > 0, successes


@dataclass(frozen=True)
class AgreementCell:
    pattern_id: str
    k: int
    q: int
    structural: bool
    numerical: bool
    successes: int
    trials: int
    criterion: str
    retried: bool


@dataclass(frozen=True)
class AgreementReport:
    cells: tuple[AgreementCell, ...]
    hard_disagreements: tuple[str, ...]
    genericity_misses: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.hard_disagreements


def oracle_agreement(
    corpus,
    k_max: int,
    q_max: int,
    trials: int = 10,
    seed: int = 0,
    value_bound: int = DEFAULT_VALUE_BOUND,
    criterion: str = "mode_span",
) -> AgreementReport:
    """Compare structural verdicts against the numerical referee over a grid.

    corpus: iterable of (name, pattern).  structural=false with any full-rank
    sample is a hard disagreement (it falsifies the implementation);
    structural=true with no full-rank sample is retried at 4x trials and then
    logged as a genericity miss, never silently dropped.
    """
    corpus = list(corpus)
    if 4 * trials > MAX_ORACLE_TRIALS:
        raise ScaleError(f"4*trials = {4 * trials} (the retry) exceeds the guard "
                         f"{MAX_ORACLE_TRIALS}")
    for _, pat in corpus:
        if q_max * pat.n > MAX_ORACLE_DIM:
            raise ScaleError(
                f"corpus pattern with n = {pat.n} exceeds q*n <= {MAX_ORACLE_DIM} at q_max = {q_max}"
            )
    cells = []
    hard = []
    misses = []
    for name, pat in corpus:
        base = seed ^ zlib.crc32(name.encode())
        for k in range(k_max + 1):
            for q in range(1, q_max + 1):
                cell_seed = _trial_seed(base, k * (q_max + 1) + q)
                structural = check_structural(pat, k, q).decision
                ok, successes = monte_carlo_controllable(
                    pat, k, q, trials, cell_seed, value_bound, criterion
                )
                used_trials = trials
                retried = False
                if structural and not ok:
                    retried = True
                    ok2, succ2 = monte_carlo_controllable(
                        pat, k, q, 4 * trials, _trial_seed(cell_seed, 1), value_bound, criterion
                    )
                    ok = ok or ok2
                    successes += succ2
                    used_trials += 4 * trials
                numerical = ok
                if not structural and successes > 0:
                    hard.append(
                        f"{name} k={k} q={q}: structurally uncontrollable but "
                        f"{successes} full-rank sample(s)"
                    )
                if structural and not numerical:
                    misses.append(
                        f"{name} k={k} q={q}: no full-rank sample in {used_trials} trials"
                    )
                cells.append(
                    AgreementCell(name, k, q, structural, numerical, successes,
                                  used_trials, criterion, retried)
                )
    return AgreementReport(tuple(cells), tuple(hard), tuple(misses))
