"""Exact-arithmetic numerical referee.

Random integer realizations of a pattern are tested for controllability of
the switched ensemble dynamics, one (k, q) cell at a time, in one order: the
sampler's guards, the cell's structural verdict, the proof (_deficient),
then the trials.  A false verdict's certificate that checks on the pattern's
rows at the cell's k and q proves every realization deficient, so such a
cell draws no sample.  Every other cell draws its trials, and each sample is
ranked, under mode_span first mod a prime, where a full rank is full over
the rationals too, and otherwise in exact integers.

Each segment's block-diagonal system is read from the sample's star values,
as the nonzeros of A's rows and the columns of B.  The mode_span rank is
the dimension of the sum of the segments' Krylov spaces, found in one pass:
each segment's span is grown by deflated products and kept as an integer
echelon basis, and every new row joins the union at once.  Once the union
fills more than half the space and another segment follows, it is kept as
an integer basis of its orthogonal complement instead, and each later
segment cuts it directly: each complement vector u is kept beside its image
u^T A^d and cut by that image's dot with each generator for d < qn, which
suffices by Cayley-Hamilton.  No floating point anywhere: structural claims
are generic-rank claims and a tolerance would blur exactly the cases under
test.  Modular arithmetic only ever proves full rank; every deficient
sample, and every RankReport, is ranked in exact integers.

The modular pass runs the same Krylov steps and union on packed vectors: a
vector mod PRIME is one int with one 64-bit lane per coordinate, A is
reduced mod PRIME into qn packed columns, so A v is qn multiply-adds,
and a reduction step is one multiply-add of the whole vector with a pivot
row kept negated.  Lanes stay below 2 qn PRIME^2 < 2^37 at qn <= 64, so
they never carry, and they are reduced mod PRIME once per inserted vector.
On a 2-core Xeon under CPython 3.11 the pass takes a median of 0.40 ms on
the referee workload's samples (n = 8, q = 3, k = 1), where a pass on lists
of ints took 0.67 ms, and on a backbone sample at k = 1 it takes 2.4, 13.2
and 73 ms at qn = 64, 128 and 256, where the lists took 7.0, 46 and 316 ms.
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
    __slots__ = _fields = ("rank", "full_dim", "controllable", "criterion", "d_range_used")


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


def _vecmat(v: list[int], rows) -> list[int]:
    """v @ A for A's `rows` from `_segment`, scattering each nonzero."""
    out = [0] * len(v)
    for x, row in zip(v, rows):
        if x:
            for j, a in row:
                out[j] += x * a
    return out


def _dot(u: list[int], v: list[int]) -> int:
    return sum(x * y for x, y in zip(u, v))


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


class _Complement:
    """A span U of more than half the space, kept as an integer basis of its
    orthogonal complement.  A later segment's Krylov space K is cut from it
    directly, with no basis of K: u is orthogonal to U + K exactly when it is
    orthogonal to U and u^T A^d g = 0 for every generator g and every d, and
    by Cayley-Hamilton d < dim suffices."""

    def __init__(self, span: _SpanBasis):
        # One null vector of the echelon rows per free column f: x[f] = 1,
        # the other free columns 0, and the pivot entries by fraction-free
        # back-substitution, scaling x whenever a pivot does not divide.
        dim, pivots = span.dim, span.pivots
        self.dim = dim
        self.basis = []
        for f in range(dim):
            if f in pivots:
                continue
            x = [0] * dim
            x[f] = 1
            for c in sorted((c for c in pivots if c < f), reverse=True):
                row = pivots[c]
                s = _dot(row[c + 1:], x[c + 1:])
                if s:
                    g = gcd(s, row[c])
                    scale = row[c] // g
                    if scale != 1:
                        x = [scale * y for y in x]
                    x[c] = -s // g
            self.basis.append(_strip_content(x))

    def cut(self, rows, generators) -> None:
        """Keep each vector u as one row [u | u^T A^d], for d = 0 .. dim-1: a
        row whose image has a nonzero dot with a generator drops out, the
        others with one are combined with it to make theirs zero, and then
        every image advances by one product.  A row whose image is zero is
        set aside, since no power can cut it."""
        dim = self.dim
        live, done = [u + u for u in self.basis], []
        for d in range(dim):
            if d:
                advanced = []
                for w in live:
                    image = _vecmat(w[dim:], rows)
                    (advanced if any(image) else done).append(w[:dim] + image)
                live = advanced
            if not live:
                break
            for g in generators:
                dots = [_dot(w[dim:], g) for w in live]
                hits = [i for i, x in enumerate(dots) if x]
                if not hits:
                    continue
                j = min(hits, key=lambda i: abs(dots[i]))
                pivot, dp = live[j], dots[j]
                for i in hits:
                    if i != j:
                        c = gcd(dp, dots[i])
                        fa, fb = dp // c, dots[i] // c
                        live[i] = _strip_content([fa * x - fb * y for x, y in zip(live[i], pivot)])
                del live[j]
        self.basis = [w[:dim] for w in done + live]

    @property
    def dimension(self) -> int:
        return self.dim - len(self.basis)


def _grow(product, generators, basis: _SpanBasis | _ModSpan):
    """Deflated block-Krylov steps: grow `basis` to the smallest subspace
    that holds the generators and is invariant under A, where `product(v)`
    is A v, yielding each row as it enters.  Only reduced rows are
    multiplied: each differs from the raw power by a combination of rows
    already in the span, so the span is the same.  Every row enters the
    frontier once, so there are at most dim products."""
    frontier = []
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


def reach_subspace(rows, generators, dim: int) -> _SpanBasis:
    """Smallest subspace that holds the generators and is invariant under
    the matrix whose rows are `rows`, each as its (column, value) nonzeros."""
    basis = _SpanBasis(dim)
    for _ in _grow(partial(_matvec, rows), generators, basis):
        pass
    return basis


def _union_dimension(instance: EnsembleInstance, include_d0: bool, span) -> int:
    """Dimension of the sum of the segments' Krylov spaces, with each span
    kept as a `span` (_SpanBasis or _ModSpan); qn as soon as the union
    reaches it.  A _ModSpan's vectors and products are packed.  Only an
    exact union switches to its complement."""
    dim = instance.pattern.n * instance.q
    union = span(dim)
    for ell in range(instance.k + 1):
        rows, generators = _segment(instance, ell)
        if span is _ModSpan:
            product = partial(union.product, union.columns(rows))
            generators = [union.pack(v) for v in generators]
        else:
            product = partial(_matvec, rows)
        if not include_d0:
            generators = [product(v) for v in generators]
        if ell and isinstance(union, _SpanBasis) and 2 * union.dimension > dim:
            union = _Complement(union)
        if not isinstance(union, span):  # the complement side
            union.cut(rows, generators)
            if union.dimension == dim:
                return dim
            continue
        # segment 0's Krylov basis is the union itself
        basis = span(dim) if ell else union
        for w in _grow(product, generators, basis):
            if basis is not union:
                union.add(w)
            if union.dimension == dim:
                return dim
    return union.dimension


def _full_mod_p(instance: EnsembleInstance, include_d0: bool) -> bool:
    """True when the mode_span rank is full mod PRIME, which proves it full:
    the union mod PRIME is the span of the literal power columns reduced mod
    PRIME, and a nonzero maximal minor mod PRIME is nonzero over the
    rationals.  False proves nothing."""
    return _union_dimension(instance, include_d0, _ModSpan) == instance.pattern.n * instance.q


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
    sum of the segments' Krylov spaces, which that range spans, in one pass:
    each segment's new rows join the union as they are found.
    sequential_subspace: iterate V_{ell+1} = reach(A[ell+1], im B[ell+1] +
    V_ell) and report dim V_k.
    """
    n, q = instance.pattern.n, instance.q
    dim = n * q
    if dim > MAX_ORACLE_DIM:
        raise ScaleError(f"q*n = {dim} exceeds the exact-arithmetic guard {MAX_ORACLE_DIM}")
    _check_criterion(criterion)
    if criterion == "mode_span":
        # By Cayley-Hamilton the columns of A^d B for d = 0..qn span the
        # Krylov space K(A, B), and those for d = 1..qn span K(A, A B), so the
        # literal rank is the dimension of the sum of these spaces.
        rank = _union_dimension(instance, include_d0, _SpanBasis)
        return RankReport(rank, dim, rank == dim, criterion, (0 if include_d0 else 1, dim))
    # sequential_subspace
    basis = None
    for ell in range(instance.k + 1):
        rows, generators = _segment(instance, ell)
        if basis is not None:
            generators.extend(basis.vectors())
        basis = reach_subspace(rows, generators, dim)
    rank = basis.dimension
    return RankReport(rank, dim, rank == dim, criterion, (0, dim - 1))


def _check_criterion(criterion: str) -> None:
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r} (expected one of {CRITERIA})")


def _trial_seed(seed: int, t: int) -> int:
    return (seed * 6364136223846793005 + 1442695040888963407 * t) % (1 << 64)


def _deficient(pattern: SparsityPattern, k: int, q: int, certificate) -> bool:
    """True when the structural `certificate` proves every realization of the
    cell (k, q) deficient under both criteria, checked on the pattern's rows
    with the cell's own k and q; False proves nothing.  Its states must be a
    nonempty set of ints in 1..n.  A ViolatingSubset V' passes when
    (k+1)|beta_in| + q(k+1)|alpha_in| < q|V'|: the rows of V' in all q copies
    then have nonzeros in fewer than q|V'| columns of [A_0 B_0 .. A_k B_k],
    so some u != 0 on them has u^T A_ell = u^T B_ell = 0 for every ell
    (Lin's dilation).  An Unreachable U passes when no row of U reads an
    input or a state outside U, so U's coordinates stay zero in every
    Krylov vector."""
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


def _successes(pattern, k, q, trials, seed, value_bound, criterion, include_d0) -> int:
    """The full-rank samples among `trials`, trial t drawn under
    _trial_seed(seed, t): under mode_span each is first ranked mod PRIME,
    where a full answer proves it full, and otherwise exactly."""
    mode_span = criterion == "mode_span"
    successes = 0
    for t in range(1, trials + 1):
        instance = sample_instance(pattern, k, q, seed=_trial_seed(seed, t), value_bound=value_bound)
        if (mode_span and _full_mod_p(instance, include_d0)
                or controllability_rank(instance, criterion, include_d0).controllable):
            successes += 1
    return successes


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
    successes = _successes(pattern, k, q, trials, seed, value_bound, criterion, include_d0)
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
    criterion: str = "mode_span",
) -> AgreementReport:
    """Compare structural verdicts against the numerical referee over a grid.

    corpus: iterable of (name, pattern).  structural=false with any full-rank
    sample is a hard disagreement (it falsifies the implementation);
    structural=true with no full-rank sample is retried at 4x trials and then
    logged as a genericity miss, never silently dropped.  A cell runs as in
    monte_carlo_controllable with d = 0, its retry sharing its one verdict;
    every guard is checked before the first cell.
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
                    successes = _successes(pat, k, q, trials, cell_seed, value_bound, criterion,
                                           True)
                used_trials = trials
                retried = structural and not successes
                if retried:
                    successes = _successes(pat, k, q, 4 * trials, _trial_seed(cell_seed, 1),
                                           value_bound, criterion, True)
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
