"""Exact-arithmetic numerical referee.

Random integer realizations of a pattern are tested for controllability of
the switched ensemble dynamics, one (k, q) cell at a time, in one order: the
sampler's guards, the cell's structural verdict, the proof (_deficient),
then the trials.  A false verdict's certificate that checks on the pattern's
rows at the cell's k and q proves every realization deficient, so such a
cell draws no sample.  Every other cell draws its trials, and each sample is
ranked first mod a prime, where a full rank is full over the rationals too,
and otherwise in exact integers.

Each segment's block-diagonal system is read from the sample's star values,
as the nonzeros of A's rows and the columns of B.  Both criteria grow one
basis, kept in echelon form, by deflated block-Krylov steps (_closure): the
segments are visited in turn, and each grows the basis under its A, from
its B columns on its first visit and from every row that entered since it
last grew.  One pass gives sequential_subspace's V_k, and passes until one
adds nothing give the invariant closure.  No floating point anywhere:
structural claims are generic-rank claims and a tolerance would blur
exactly the cases under test.  Modular arithmetic only ever proves full
rank; every deficient sample, and every short RankReport, is ranked in
exact integers.

The modular pass runs the same steps on packed vectors: a vector mod PRIME
is one int with one 64-bit lane per coordinate, A is reduced mod PRIME into
qn packed columns, so A v is qn multiply-adds, and a reduction step is one
multiply-add of the whole vector with a pivot row kept negated.  Lanes stay
below 2 qn PRIME^2 < 2^37 at qn <= 64, so they never carry, and they are
reduced mod PRIME once per inserted vector.
"""

from __future__ import annotations

import struct
import zlib
from functools import partial
from math import gcd
from operator import mul

from .core import check_structural
from .errors import ScaleError
from .pattern import (
    CRITERIA,
    DEFAULT_VALUE_BOUND,
    EnsembleInstance,
    SparsityPattern,
    check_sample_size,
    sample_instance,
)
from .results import FrozenValue, Unreachable, ViolatingSubset

MAX_ORACLE_DIM = 64  # guard on q*n for the exact-arithmetic rank
# Guard on the samples one referee call draws, checked before the first; it
# admits oracle_agreement's retry at 4x trials for up to 1024 trials.
MAX_ORACLE_TRIALS = 1 << 12
# The largest prime below 2^15: a product of two reduced entries is below
# 2^30, so a packed vector's 64-bit lanes stay below 2 qn PRIME^2 < 2^37 at
# qn <= MAX_ORACLE_DIM and never carry into the next lane (see _ModSpan).
PRIME = 32749


class RankReport(FrozenValue):
    __slots__ = _fields = ("rank", "full_dim", "controllable", "criterion")


def _segment(instance: EnsembleInstance, ell: int) -> tuple[list, list[list[int]]]:
    """Segment ell's block-diagonal A as the (column, value) nonzeros of each
    row, and its stacked B as m columns, read from the q subsystems' stars."""
    n, q = instance.pattern.n, instance.q
    rows = [[] for _ in range(q * n)]
    columns = [[0] * (q * n) for _ in range(instance.pattern.m)]
    for p in range(1, q + 1):
        base = (p - 1) * n - 1
        for i, j, x in instance.entries(p, ell):
            if j <= n:
                rows[base + i].append((base + j, x))
            else:
                columns[j - n - 1][base + i] = x
    return rows, columns


def _matvec(rows, v: list[int]) -> list[int]:
    """rows @ v for `rows` from `_segment`; q blocks on the diagonal make a
    product cost q*|stars| multiplications, not (qn)^2."""
    return [sum(x * v[j] for j, x in row) for row in rows]


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

    @property
    def dimension(self) -> int:
        return len(self.pivots)

    def vectors(self) -> list[list[int]]:
        return [self.pivots[c] for c in sorted(self.pivots)]


class _ModSpan:
    """Incremental row space mod PRIME on packed vectors: a vector is one int
    with one 64-bit lane per coordinate, lane c in bits 64c..64c+63, packed
    and unpacked by struct.  Each pivot row is reduced against the rows
    before it, so it is zero at their pivot columns, and is 1 at its own
    pivot column c.  It is stored negated (lanes -x % PRIME), so that the
    step that clears lane c of a vector V is the one multiply-add
    V += f * row, with f lane c of V mod PRIME; steps in insertion order
    never refill a lane already cleared.  Lanes never carry: a vector enters
    with lanes below dim * PRIME^2, each of at most dim steps adds less than
    PRIME^2, and with PRIME < 2^15 the sum stays below 2^64 for dim < 2^33
    (below 2^37 at dim <= 64).  Lanes are reduced mod PRIME once per add.
    PRIME is read when the span is made."""

    def __init__(self, dim: int):
        self.dim = dim
        self.prime = PRIME
        self.layout = struct.Struct(f"<{dim}Q")
        # (64 * pivot column, negated row), in insertion order
        self.pivots: list[tuple[int, int]] = []

    def pack(self, values) -> int:
        p = self.prime
        return int.from_bytes(self.layout.pack(*[x % p for x in values]), "little")

    def lanes(self, v: int) -> tuple[int, ...]:
        return self.layout.unpack(v.to_bytes(self.layout.size, "little"))

    def columns(self, rows) -> list[int]:
        """The columns of A mod PRIME, packed, for A's `rows` from `_segment`."""
        p = self.prime
        columns = [0] * self.dim
        for i, row in enumerate(rows):
            for j, x in row:
                columns[j] += x % p << 64 * i
        return columns

    def product(self, columns: list[int], v: int) -> int:
        """A v for a packed v with lanes below PRIME: dim multiply-adds of
        A's packed `columns`, each lane below dim * PRIME^2."""
        return sum(map(mul, self.lanes(v), columns))

    def add(self, v: int) -> int | None:
        """Insert a packed vector with lanes below dim * PRIME^2; return its
        reduced row, negated, when it enlarged the span, else None."""
        p = self.prime
        for shift, row in self.pivots:
            f = (v >> shift & 0xFFFFFFFFFFFFFFFF) % p
            if f:
                v += f * row
        lanes = self.lanes(v)
        lead = next((i for i, x in enumerate(lanes) if x % p), None)
        if lead is None:
            return None
        scale = -pow(lanes[lead], -1, p)
        row = self.pack([x * scale for x in lanes])
        self.pivots.append((64 * lead, row))
        return row

    @property
    def dimension(self) -> int:
        return len(self.pivots)


def _grow(product, generators, frontier: list, basis: _SpanBasis | _ModSpan):
    """Deflated block-Krylov steps: grow `basis` to the smallest subspace
    that holds it and the generators and is invariant under A, where
    `product(v)` is A v, yielding each row as it enters.  The `frontier`
    rows, already in the basis, and every row that enters are multiplied
    once each, so at most dim rows are.  Only reduced rows are multiplied:
    each differs from the raw power by a combination of rows already in the
    span, so the span is the same."""
    for v in generators:
        w = basis.add(v)
        if w is not None:
            frontier.append(w)
            yield w
    while frontier and basis.dimension < basis.dim:
        grown = []
        for v in frontier:
            w = basis.add(product(v))
            if w is not None:
                grown.append(w)
                yield w
                if basis.dimension == basis.dim:
                    return
        frontier = grown


def _closure(instance: EnsembleInstance, span, one_pass: bool) -> _SpanBasis | _ModSpan:
    """The invariant closure, the smallest subspace that holds every
    segment's B columns and is invariant under every segment's A, or with
    one_pass sequential_subspace's V_k, kept as a `span` (_SpanBasis, or
    _ModSpan with packed vectors and products).  The segments ell = 0..k are
    visited in turn, each read when first reached, and each grows the one
    basis under A_ell: from B_ell on its first visit, and from every row
    that entered since it last grew.  One pass is V_k.  A segment reached
    again with no new row ends the closure, since every other segment has
    grown since and so has multiplied every row."""
    k = instance.k
    basis = span(instance.pattern.n * instance.q)
    rows, grown, products = [], [0] * (k + 1), [None] * (k + 1)
    ell = 0
    while basis.dimension < basis.dim:
        generators = ()
        if products[ell] is None:
            a_rows, generators = _segment(instance, ell)
            if span is _ModSpan:
                products[ell] = partial(basis.product, basis.columns(a_rows))
                generators = [basis.pack(v) for v in generators]
            else:
                products[ell] = partial(_matvec, a_rows)
        elif grown[ell] == len(rows):
            break
        rows.extend(_grow(products[ell], generators, rows[grown[ell]:], basis))
        grown[ell] = len(rows)
        if one_pass and ell == k:
            break
        ell = (ell + 1) % (k + 1)
    return basis


def controllability_rank(instance: EnsembleInstance,
                         criterion: str = "invariant_closure") -> RankReport:
    """Exact controllability test of the assembled switched ensemble system.

    invariant_closure: the dimension of the smallest subspace that holds
    every segment's B columns and is invariant under every segment's A, the
    controllable subspace when the k+1 realizations may be switched in any
    order and as often as wanted (Sun, Ge and Lee, Automatica 2002).
    sequential_subspace: dim V_k for V_ell = reach(A_ell, im B_ell +
    V_(ell-1)), one pass of k switches; V_k lies in the closure.
    Both are ranked first mod PRIME, where a full dimension is full over the
    rationals too (a maximal minor nonzero mod PRIME is nonzero), and in
    exact integers only when the modular one is short.
    """
    dim = instance.pattern.n * instance.q
    if dim > MAX_ORACLE_DIM:
        raise ScaleError(f"q*n = {dim} exceeds the exact-arithmetic guard {MAX_ORACLE_DIM}")
    _check_criterion(criterion)
    one_pass = criterion == "sequential_subspace"
    rank = _closure(instance, _ModSpan, one_pass).dimension
    if rank < dim:
        rank = _closure(instance, _SpanBasis, one_pass).dimension
    return RankReport(rank, dim, rank == dim, criterion)


def _check_criterion(criterion: str) -> None:
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r} (expected one of {CRITERIA})")


def _trial_seed(seed: int, t: int) -> int:
    return (seed * 6364136223846793005 + 1442695040888963407 * t) % (1 << 64)


def _deficient(pattern: SparsityPattern, k: int, q: int, certificate) -> bool:
    """True when the structural `certificate` proves every realization of the
    cell (k, q) deficient under every criterion, checked on the pattern's
    rows with the cell's own k and q; False proves nothing.  Its states must
    be a nonempty set of ints in 1..n.  Every criterion's space lies in the
    invariant closure, and both proofs bound the closure.  A ViolatingSubset
    V' passes when (k+1)|beta_in| + q(k+1)|alpha_in| < q|V'|: the rows of V'
    in all q copies then have nonzeros in fewer than q|V'| columns of
    [A_0 B_0 .. A_k B_k], so some u != 0 on them has u^T A_ell = u^T B_ell = 0
    for every ell (Lin's dilation), and the closure lies in u's orthogonal
    complement.  An Unreachable U passes when no row of U reads an input or
    a state outside U, so U's coordinates stay zero in every B column and
    every product of the closure."""
    if isinstance(certificate, ViolatingSubset):
        states = certificate.subset
    elif isinstance(certificate, Unreachable):
        states = certificate.nodes
    else:
        return False
    n = pattern.n
    if not states or not all(type(i) is int and 1 <= i <= n for i in states):
        return False
    columns = frozenset().union(*[pattern.rows[i - 1] for i in states])
    if isinstance(certificate, Unreachable):
        return columns <= states
    alpha = sum(j <= n for j in columns)
    return (k + 1) * (len(columns) - alpha) + q * (k + 1) * alpha < q * len(states)


def _successes(pattern, k, q, trials, seed, value_bound, criterion) -> int:
    """The full-rank samples among `trials`, trial t drawn under
    _trial_seed(seed, t)."""
    successes = 0
    for t in range(1, trials + 1):
        instance = sample_instance(pattern, k, q, seed=_trial_seed(seed, t), value_bound=value_bound)
        successes += controllability_rank(instance, criterion).controllable
    return successes


def monte_carlo_controllable(
    pattern: SparsityPattern,
    k: int,
    q: int,
    trials: int,
    seed: int,
    value_bound: int = DEFAULT_VALUE_BOUND,
    criterion: str = "invariant_closure",
) -> tuple[bool, int]:
    """True iff any of `trials` random realizations is controllable; one
    controllable sample certifies structural controllability, while structural
    uncontrollability forces rank deficiency in every sample.  Past the
    guards, check_structural runs once: a cell whose certificate passes
    _deficient answers (False, 0) with no draw and no rank, and every other
    cell draws its trials, so the verdict never decides an answer alone."""
    if type(trials) is not int or trials < 1:
        raise ValueError("trials must be >= 1")
    if trials > MAX_ORACLE_TRIALS:
        raise ScaleError(f"trials = {trials} exceeds the guard {MAX_ORACLE_TRIALS}")
    if q * pattern.n > MAX_ORACLE_DIM:
        raise ScaleError(f"q*n = {q * pattern.n} exceeds the guard {MAX_ORACLE_DIM}")
    check_sample_size(pattern, k, q, value_bound)
    _check_criterion(criterion)
    if _deficient(pattern, k, q, check_structural(pattern, k, q).certificate):
        return False, 0
    successes = _successes(pattern, k, q, trials, seed, value_bound, criterion)
    return successes > 0, successes


class AgreementCell(FrozenValue):
    __slots__ = _fields = ("pattern_id", "k", "q", "structural", "numerical", "successes", "trials",
                           "criterion", "retried")


class AgreementReport(FrozenValue):
    __slots__ = _fields = ("cells", "hard_disagreements", "genericity_misses")

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
    criterion: str = "invariant_closure",
) -> AgreementReport:
    """Compare structural verdicts against the numerical referee over a grid.

    corpus: iterable of (name, pattern).  structural=false with any full-rank
    sample is a hard disagreement (it falsifies the implementation);
    structural=true with no full-rank sample is retried at 4x trials and then
    logged as a genericity miss, never silently dropped.  A cell runs as in
    monte_carlo_controllable, its retry sharing its one verdict; every
    guard is checked before the first cell.
    """
    corpus = list(corpus)
    if type(trials) is not int or trials < 1:
        raise ValueError("trials must be >= 1")
    if 4 * trials > MAX_ORACLE_TRIALS:
        raise ScaleError(f"4*trials = {4 * trials} (the retry) exceeds the guard "
                         f"{MAX_ORACLE_TRIALS}")
    for _, pat in corpus:
        if q_max * pat.n > MAX_ORACLE_DIM:
            raise ScaleError(
                f"corpus pattern with n = {pat.n} exceeds q*n <= {MAX_ORACLE_DIM} at q_max = {q_max}"
            )
        check_sample_size(pat, k_max, q_max, value_bound)
    _check_criterion(criterion)
    cells, hard, misses = [], [], []
    for name, pat in corpus:
        base = seed ^ zlib.crc32(name.encode())
        for k in range(k_max + 1):
            for q in range(1, q_max + 1):
                cell_seed = _trial_seed(base, k * (q_max + 1) + q)
                verdict = check_structural(pat, k, q)
                structural = verdict.decision
                successes = 0
                if not _deficient(pat, k, q, verdict.certificate):
                    successes = _successes(pat, k, q, trials, cell_seed, value_bound, criterion)
                used_trials = trials
                retried = structural and not successes
                if retried:
                    successes = _successes(pat, k, q, 4 * trials, _trial_seed(cell_seed, 1),
                                           value_bound, criterion)
                    used_trials += 4 * trials
                numerical = successes > 0
                if not structural and numerical:
                    hard.append(f"{name} k={k} q={q}: structurally uncontrollable but "
                                f"{successes} full-rank sample(s)")
                if structural and not numerical:
                    misses.append(f"{name} k={k} q={q}: no full-rank sample in {used_trials} "
                                  "trials")
                cells.append(AgreementCell(name, k, q, structural, numerical, successes,
                                           used_trials, criterion, retried))
    return AgreementReport(tuple(cells), tuple(hard), tuple(misses))
