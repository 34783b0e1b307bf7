import itertools
import json
import random
from pathlib import Path
from types import SimpleNamespace

import pytest
from helpers import (
    FIG1,
    FIG2A,
    INTEGRATOR,
    TWO_CYCLE,
    assemble_segment,
    benchmark_pattern,
    exact_rank,
    literal_closure_rank,
    reference_monte_carlo,
)

from swenctrl import oracle
from swenctrl.decide import check_structural, recheck_certificate
from swenctrl.errors import ScaleError
from swenctrl.graph import core_condition_holds
from swenctrl.oracle import controllability_rank, monte_carlo_controllable, oracle_agreement
from swenctrl.pattern import (
    CRITERIA,
    DEFAULT_VALUE_BOUND,
    MAX_SAMPLE_CELLS,
    EnsembleInstance,
    SparsityPattern,
    random_pattern,
    sample_instance,
)
from swenctrl.results import Saturated, Unreachable, ViolatingSubset

GOLDEN_RANKS = Path(__file__).parent / "golden" / "oracle_ranks.json"
GOLDEN_AGREEMENT = Path(__file__).parent / "golden" / "oracle_agreement.json"
GOLDEN_CENSUS = Path(__file__).parent / "golden" / "closure_census.json"


def test_exact_rank_basics():
    assert exact_rank([]) == 0
    assert exact_rank([[0, 0], [0, 0]]) == 0
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 0, 0], [0, 1, 0], [1, 1, 0]]) == 2
    assert exact_rank([[2, 0], [0, 3], [1, 1]]) == 2


def test_exact_rank_matches_fraction_elimination():
    rng = random.Random(0)
    for _ in range(50):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        mat = [[rng.randint(-5, 5) for _ in range(cols)] for _ in range(rows)]
        # independent oracle: plain Gaussian elimination over Fractions
        from fractions import Fraction

        work = [[Fraction(x) for x in row] for row in mat]
        rank = 0
        for c in range(cols):
            piv = next((r for r in range(rank, rows) if work[r][c]), None)
            if piv is None:
                continue
            work[rank], work[piv] = work[piv], work[rank]
            for r in range(rank + 1, rows):
                if work[r][c]:
                    f = work[r][c] / work[rank][c]
                    work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
            rank += 1
        assert exact_rank(mat) == rank


def test_assemble_blocks_structure():
    inst = sample_instance(FIG2A, k=1, q=3, seed=11)
    a, b = assemble_segment(inst, 0)
    n, q = FIG2A.n, 3
    assert len(a) == n * q and len(b) == n * q
    for i in range(n * q):
        for j in range(n * q):
            if i // n != j // n:
                assert a[i][j] == 0
    for p in range(q):
        ab, bb = inst.blocks[(p + 1, 0)]
        for i in range(n):
            assert tuple(a[p * n + i][p * n : (p + 1) * n]) == ab[i]
            assert tuple(b[p * n + i]) == bb[i]
    with pytest.raises(ValueError):
        assemble_segment(inst, 2)


def _deficient_by_scan(instance, certificate):
    """oracle._deficient's answer from a scan of every dense entry of the
    certificate's rows in a realization with every star nonzero."""
    if isinstance(certificate, ViolatingSubset):
        states = certificate.subset
    elif isinstance(certificate, Unreachable):
        states = certificate.nodes
    else:
        return False
    n = instance.pattern.n
    if not states or not states <= set(range(1, n + 1)):
        return False
    columns = {(p if j <= n else 0, ell, j) for (p, ell), (a, b) in instance.blocks.items()
               for i in states for j, x in enumerate(a[i - 1] + b[i - 1], 1) if x}
    if isinstance(certificate, ViolatingSubset):
        return len(columns) < instance.q * len(states)
    return bool(states) and all(j in states for _, _, j in columns)


def test_segment_and_deficient_match_dense_scans():
    # Hand-set values, a third of them zero, on patterns with empty rows and
    # with m = 0: the referee reads each segment from the star values as a
    # scan of the dense blocks would, and proves a certificate from the
    # pattern's rows as a scan of a realization with every star nonzero would.
    rng = random.Random(27)
    seen = set()
    for t in range(300):
        n, m = rng.randint(1, 6), (0, rng.randint(0, 3))[t % 2]
        rows = random_pattern(n, m, rng.random(), rng.randrange(1 << 30)).rows
        empty = rng.randrange(n)
        pattern = SparsityPattern.from_rows(n, m, rows[:empty] + ((),) + rows[empty + 1:])
        k, q = rng.randint(0, 2), rng.randint(1, 3)
        size = q * (k + 1) * sum(map(len, pattern.rows))
        values = [rng.choice((0, 0, -3, 1, 2, 7)) for _ in range(size)]
        inst = EnsembleInstance(pattern, k, q, values)
        for ell in range(k + 1):
            rows, columns = oracle._segment(inst, ell)
            a, b = assemble_segment(inst, ell)
            assert rows == [[(j, x) for j, x in enumerate(row) if x] for row in a]
            assert columns == [list(col) for col in zip(*b)] and len(columns) == m
        nonzero = EnsembleInstance(pattern, k, q, [1] * size)
        subset = rng.sample(range(1, n + 2), rng.randint(0, n))
        for certificate in (ViolatingSubset(subset, 0, 1, k, q), Unreachable(subset),
                            Saturated(n * q), None):
            expected = _deficient_by_scan(nonzero, certificate)
            assert oracle._deficient(pattern, k, q, certificate) == expected
            seen.add((type(certificate), expected))
    assert {(ViolatingSubset, True), (ViolatingSubset, False),
            (Unreachable, True), (Unreachable, False)} <= seen


def test_integrator_rank_examples():
    r = controllability_rank(sample_instance(INTEGRATOR, 0, 1, seed=3))
    assert (r.rank, r.full_dim, r.controllable) == (1, 1, True)
    r = controllability_rank(sample_instance(INTEGRATOR, 0, 2, seed=3))
    assert (r.rank, r.controllable) == (1, False)
    r = controllability_rank(sample_instance(INTEGRATOR, 1, 2, seed=3))
    assert (r.rank, r.controllable) == (2, True)


def test_closure_matches_literal_rank():
    # The kernel's closure must have the rank of the literal closure, full or
    # deficient, and V_k must lie in it; small value bounds make
    # coincidental deficiency common, so both the modular pass and the exact
    # rank behind it run.  qn stays at most 24.
    rng = random.Random(5)
    deficient = short = 0
    for t in range(600):
        n = rng.randint(1, 8)
        m = rng.randint(0, 3)
        density = 0.0 if t % 25 == 0 else rng.random()
        pattern = random_pattern(n, m, density, rng.randrange(1 << 30))
        k = rng.randint(0, 2)
        q = rng.randint(1, 24 // n)
        inst = sample_instance(pattern, k, q, seed=rng.randrange(1 << 30),
                               value_bound=rng.choice((2, 3, 10007)))
        report = controllability_rank(inst)
        assert report.rank == literal_closure_rank(inst), t
        assert (report.full_dim, report.controllable) == (n * q, report.rank == n * q)
        one_pass = controllability_rank(inst, criterion="sequential_subspace").rank
        assert one_pass <= report.rank
        deficient += not report.controllable
        short += one_pass < report.rank
    assert deficient >= 200, deficient
    assert short, short


def test_oracle_ranks_match_golden():
    # Ranks of both criteria over 200 seeded instances; the closure's ranks
    # were computed by helpers.literal_closure_rank, the sequential ones by
    # its earlier exact code, unchanged since.
    cases = json.loads(GOLDEN_RANKS.read_text())["cases"]
    assert len(cases) == 200
    for case in cases:
        pattern = SparsityPattern(case["n"], case["m"], frozenset(map(tuple, case["stars"])))
        inst = sample_instance(pattern, case["k"], case["q"], seed=case["seed"],
                               value_bound=case["value_bound"])
        assert sorted(case["ranks"]) == sorted(CRITERIA)
        for criterion, expected in case["ranks"].items():
            report = controllability_rank(inst, criterion=criterion)
            assert [report.rank, report.controllable] == expected, (case["name"], criterion)


def test_closure_reads_each_segment_once_and_multiplies_each_row_once(monkeypatch):
    # Each segment is read when the cycle first reaches it, in order, and
    # multiplies each row of the basis at most once over all its visits, so
    # at most qn products per segment, in the modular pass and in the exact
    # rank alike; one pass reads every segment.
    reads, products = [], {}
    segment, matvec, product = oracle._segment, oracle._matvec, oracle._ModSpan.product

    def counting_segment(instance, ell):
        reads.append(ell)
        return segment(instance, ell)

    def counting_matvec(rows, v):
        products[id(rows)] = products.get(id(rows), 0) + 1
        return matvec(rows, v)

    def counting_product(self, columns, v):
        products[id(columns)] = products.get(id(columns), 0) + 1
        return product(self, columns, v)

    monkeypatch.setattr(oracle, "_segment", counting_segment)
    monkeypatch.setattr(oracle, "_matvec", counting_matvec)
    monkeypatch.setattr(oracle._ModSpan, "product", counting_product)
    cells = [(FIG1, 1, 3), (FIG2A, 2, 3), (benchmark_pattern("hub", 16, 0), 6, 3)]
    cells += [(random_pattern(6, 1, 0.3, seed), 3, 2) for seed in range(6)]
    for pattern, k, q in cells:
        for seed in range(3):
            inst = sample_instance(pattern, k, q, seed=seed, value_bound=(2, 10007)[seed % 2])
            for span in (oracle._ModSpan, oracle._SpanBasis):
                for one_pass in (False, True):
                    reads.clear()
                    products.clear()
                    basis = oracle._closure(inst, span, one_pass)
                    assert reads == list(range(len(reads))), reads
                    assert len(reads) == k + 1 or basis.dimension == basis.dim, reads
                    assert max(products.values(), default=0) <= pattern.n * q, products


def test_closure_is_the_smallest_invariant_span():
    # The exact closure's rows hold every segment's B columns and map into
    # their span under every segment's A, read from the dense assembly; V_k
    # holds the last segment's B columns and is invariant under its A.
    rng = random.Random(2)
    for t in range(60):
        n = rng.randint(1, 4)
        pattern = random_pattern(n, rng.randint(0, 2), rng.random(), rng.randrange(1 << 30))
        inst = sample_instance(pattern, rng.randint(0, 3), rng.randint(1, 3),
                               seed=rng.randrange(1 << 30), value_bound=(2, 3, 7)[t % 3])
        dim = inst.pattern.n * inst.q
        for one_pass in (False, True):
            basis = oracle._closure(inst, oracle._SpanBasis, one_pass)
            for ell in range(inst.k + 1) if not one_pass else (inst.k,):
                a, b = assemble_segment(inst, ell)
                for v in basis.vectors():
                    image = [sum(a[i][j] * v[j] for j in range(dim)) for i in range(dim)]
                    assert not any(basis._reduce(image)), (t, ell)
                for c in range(inst.pattern.m):
                    assert not any(basis._reduce([row[c] for row in b])), (t, ell)


def test_closure_runs_until_a_pass_adds_nothing():
    # Hand-set values on the chain 1 -> 2 -> .. -> n fed by the input at
    # state 1: segment 0 keeps the links out of odd states and segment 1 the
    # links out of even ones, so each pass of the two segments adds two
    # states, and the closure needs n / 2 passes where V_k holds 3 states.
    for n in (6, 8):
        rows = ((n + 1,),) + tuple((i,) for i in range(1, n))
        pattern = SparsityPattern.from_rows(n, 1, rows)
        values = [1] + [i % 2 for i in range(1, n)] + [0] + [1 - i % 2 for i in range(1, n)]
        inst = EnsembleInstance(pattern, 1, 1, values)
        assert literal_closure_rank(inst) == n
        assert [controllability_rank(inst, criterion=c).rank for c in CRITERIA] == [n, 3]


def test_smallest_one_pass_gap():
    # n = 3, m = 1 with rows ((2,), (4,), (2,)) at (1, 2) is true: the closure
    # is full on a sample, while V_k stays 5 of 6 on every sample.
    pattern = SparsityPattern.from_rows(3, 1, ((2,), (4,), (2,)))
    assert check_structural(pattern, 1, 2).decision
    closure = [controllability_rank(sample_instance(pattern, 1, 2, seed=s)) for s in range(4)]
    one_pass = [controllability_rank(sample_instance(pattern, 1, 2, seed=s),
                                     criterion="sequential_subspace") for s in range(4)]
    assert [r.rank for r in closure] == [6] * 4
    assert [r.rank for r in one_pass] == [5] * 4


def test_hub16_closure_pins():
    # hub16 (k* = 7): at (6, 3) the closure is full and V_k is 47 of 48; at
    # the false cells (5, 2) and (6, 4) the closure is deficient.
    hub = benchmark_pattern("hub", 16, 0)
    assert check_structural(hub, 6, 3).decision
    inst = sample_instance(hub, 6, 3, seed=1)
    assert controllability_rank(inst).rank == 48
    assert controllability_rank(inst, criterion="sequential_subspace").rank == 47
    for k, q in ((5, 2), (6, 4)):
        assert not check_structural(hub, k, q).decision
        assert not controllability_rank(sample_instance(hub, k, q, seed=1)).controllable


def closure_census() -> dict:
    """Every pattern with (n, m) in {(2, 1), (2, 2), (3, 1)} at k <= 2 and
    q <= 3, each cell ranked on two samples at value bound 2^31: a false
    cell's samples mod PRIME only, where a full closure would prove the cell
    controllable, a true cell's closure and V_k as controllability_rank
    ranks them.  Returns the count of true and false cells and the true
    cells whose V_k is short on both samples, as [n, m, rows, k, q]."""
    counts = {"true": 0, "false": 0}
    gaps = []
    for n, m in ((2, 1), (2, 2), (3, 1)):
        columns = range(1, n + m + 1)
        subsets = [c for r in range(n + m + 1) for c in itertools.combinations(columns, r)]
        for rows in itertools.product(subsets, repeat=n):
            pattern = SparsityPattern.from_rows(n, m, rows)
            for k in range(3):
                for q in range(1, 4):
                    samples = [sample_instance(pattern, k, q, seed=seed, value_bound=1 << 31)
                               for seed in (1, 2)]
                    if not check_structural(pattern, k, q).decision:
                        counts["false"] += 1
                        for inst in samples:
                            full = oracle._closure(inst, oracle._ModSpan, False).dimension == n * q
                            assert not full, ("a false cell with a full closure", rows, k, q)
                        continue
                    counts["true"] += 1
                    assert any(controllability_rank(inst).controllable for inst in samples), (
                        "a true cell with a deficient closure", rows, k, q)
                    if not any(controllability_rank(inst, criterion="sequential_subspace")
                               .controllable for inst in samples):
                        gaps.append([n, m, [list(row) for row in rows], k, q])
    return dict(counts, one_pass_gaps=gaps)


def test_closure_census():
    # On every small pattern a true verdict is a full closure and a false
    # one a deficient closure.  One pass of k switches misses 12 true cells,
    # all at n = 3, m = 1 and (1, 2): the relabellings of rows ((2,), (4,),
    # (2,)), some with input stars added.
    assert closure_census() == json.loads(GOLDEN_CENSUS.read_text())


def test_closure_agreement_on_one_pass_gaps():
    # The smallest one-pass gap and hub16 (at qn <= 64, so q <= 4 over its
    # whole k range) agree with the verdict under the closure: no hard
    # disagreement and no genericity miss.
    smallest = SparsityPattern.from_rows(3, 1, ((2,), (4,), (2,)))
    report = oracle_agreement([("smallest", smallest)], 2, 3, trials=2, seed=7)
    hub = oracle_agreement([("hub16", benchmark_pattern("hub", 16, 0))], 7, 4, trials=2, seed=7)
    for r in (report, hub):
        assert not r.hard_disagreements and not r.genericity_misses
    assert any(cell.structural for cell in hub.cells)


def test_criteria_agree_on_corpus():
    corpus = [FIG2A, TWO_CYCLE, INTEGRATOR]
    rng = random.Random(4)
    for pattern in corpus:
        for k in (0, 1, 2):
            for q in (1, 2, 3):
                inst = sample_instance(pattern, k, q, seed=rng.randint(0, 10**6))
                closure = controllability_rank(inst, criterion="invariant_closure")
                seq = controllability_rank(inst, criterion="sequential_subspace")
                assert closure.controllable == seq.controllable, (pattern, k, q)


def test_unknown_criterion_rejected():
    inst = sample_instance(INTEGRATOR, 0, 1, seed=0)
    with pytest.raises(ValueError, match="criterion"):
        controllability_rank(inst, criterion="gramian")


def test_scale_guard():
    p = SparsityPattern(40, 1, frozenset())
    with pytest.raises(ScaleError):
        monte_carlo_controllable(p, 0, 2, trials=1, seed=0)


def test_monte_carlo_fig2a():
    ok, successes = monte_carlo_controllable(FIG2A, 2, 3, trials=10, seed=1)
    assert ok and successes >= 1
    ok, successes = monte_carlo_controllable(FIG2A, 1, 3, trials=10, seed=1)
    assert not ok and successes == 0


def test_monte_carlo_empty_pattern():
    empty = SparsityPattern(2, 1, frozenset())
    ok, successes = monte_carlo_controllable(empty, 1, 2, trials=5, seed=0)
    assert not ok and successes == 0


def test_monte_carlo_deterministic():
    assert monte_carlo_controllable(FIG2A, 2, 3, trials=6, seed=7) == monte_carlo_controllable(
        FIG2A, 2, 3, trials=6, seed=7
    )


def _monte_carlo_cells():
    """Criterion 6's corpus over its (k, q) grids at 10 trials, then two
    members of each benchmark family at its oracle size and (k, q)."""
    cells = [(pattern, k, q, 10)
             for pattern, k_max, q_max in ((FIG2A, 2, 3), (TWO_CYCLE, 2, 3), (INTEGRATOR, 2, 3),
                                           (FIG1, 1, 2))
             for k in range(k_max + 1) for q in range(1, q_max + 1)]
    families = (("backbone", 7, 2), ("hub", 8, 2), ("sparse-fail", 7, 2),
                ("sparse-fail-unreachable", 7, 2), ("small_random", 8, 3))
    cells += [(benchmark_pattern(family, n, seed), 1, q, 3)
              for family, n, q in families for seed in range(2)]
    return cells


@pytest.fixture
def closure_spans(monkeypatch):
    """The span class of every kernel run, in order: _ModSpan for a modular
    pass, _SpanBasis for an exact rank."""
    spans = []
    closure = oracle._closure

    def counting_closure(instance, span, one_pass):
        spans.append(span)
        return closure(instance, span, one_pass)

    monkeypatch.setattr(oracle, "_closure", counting_closure)
    return spans


def test_monte_carlo_matches_an_exact_rank_on_every_trial(monkeypatch, closure_spans):
    # The modular pass only replaces an exact full rank by a proof of it, so
    # every answer is the exact-only call's, also when the pass never says full.
    answers = {}
    for seed, (pattern, k, q, trials) in enumerate(_monte_carlo_cells()):
        for criterion in CRITERIA:
            args = (pattern, k, q, trials, seed, DEFAULT_VALUE_BOUND, criterion)
            answers[args] = monte_carlo_controllable(*args)
            assert answers[args] == reference_monte_carlo(*args), args
    assert oracle._ModSpan in closure_spans
    monkeypatch.setattr(oracle._ModSpan, "add", lambda self, v: None)
    for args, answer in answers.items():
        assert monte_carlo_controllable(*args) == answer, args


def _fake_certificates(pattern, k, q):
    """A fake verdict's certificates: Saturated, and wrong ones that the
    proof must not believe on a controllable cell: every state as a
    violating subset (with states 0 and n+1, which do not exist) or as
    unreachable, and an empty unreachable set."""
    n = pattern.n
    return (Saturated(n * q), ViolatingSubset(range(n + 2), 0, n * q, k, q),
            Unreachable(range(1, n + 1)), Unreachable(()))


@pytest.mark.parametrize("decision", [True, False])
def test_the_structural_verdict_never_changes_an_answer(monkeypatch, decision):
    # The verdict spares a cell's trials only where its certificate passes
    # on the pattern, so a verdict that is wrong on some cells, with a
    # certificate that is wrong there too, leaves every answer the
    # exact-only call's.
    for which in range(4):
        monkeypatch.setattr(oracle, "check_structural", lambda pattern, k, q: SimpleNamespace(
            decision=decision, certificate=_fake_certificates(pattern, k, q)[which]))
        for seed, (pattern, k, q, trials) in enumerate(_monte_carlo_cells()):
            for criterion in CRITERIA:
                args = (pattern, k, q, trials, seed, DEFAULT_VALUE_BOUND, criterion)
                assert monte_carlo_controllable(*args) == reference_monte_carlo(*args), (
                    which, args)


@pytest.fixture
def exact_ranks(monkeypatch):
    """The arguments of every exact rank the referee takes."""
    calls = []
    controllability_rank = oracle.controllability_rank

    def counting_rank(*args, **kwargs):
        calls.append(args)
        return controllability_rank(*args, **kwargs)

    monkeypatch.setattr(oracle, "controllability_rank", counting_rank)
    return calls


@pytest.fixture
def trial_path_calls(monkeypatch):
    """The count of calls of each name that a cell's verdict, proof and
    trials run, kept up to date as the referee runs."""
    counts = dict.fromkeys(("check_structural", "sample_instance", "_closure",
                            "controllability_rank"), 0)
    for name in counts:
        def counting(*args, _name=name, _original=getattr(oracle, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(oracle, name, counting)
    return counts


def test_a_checked_certificate_spares_every_rank(trial_path_calls):
    # Hub n=8 at k=1 < k*=7, a referee cell and FIG2A at (1, 3) violate the
    # counting condition, and a sparse-fail cell has an unreachable state:
    # their certificates pass, so each cell, also in oracle_agreement, makes
    # its one check_structural call and draws and ranks nothing.  An unknown
    # criterion is refused before the verdict.
    cells = [(benchmark_pattern("hub", 8, 0), 1, 2, ViolatingSubset),
             (benchmark_pattern("small_random", 8, 12), 1, 3, ViolatingSubset),
             (FIG2A, 1, 3, ViolatingSubset),
             (benchmark_pattern("sparse-fail-unreachable", 7, 0), 1, 2, Unreachable)]
    calls = trial_path_calls
    only_the_verdict = {"check_structural": 1, "sample_instance": 0, "_closure": 0,
                        "controllability_rank": 0}
    for pattern, k, q, kind in cells:
        assert isinstance(check_structural(pattern, k, q).certificate, kind)
        for criterion in CRITERIA:
            calls.update(dict.fromkeys(calls, 0))
            answer = monte_carlo_controllable(pattern, k, q, 4, 0, criterion=criterion)
            assert answer == (False, 0)
            assert calls == only_the_verdict, (pattern, k, q, criterion)
        calls.update(dict.fromkeys(calls, 0))
        with pytest.raises(ValueError, match="unknown criterion 'gramian'"):
            monte_carlo_controllable(pattern, k, q, 4, 0, criterion="gramian")
        assert not any(calls.values())
    corpus = [("hub", cells[0][0]), ("unreachable", cells[3][0])]
    report = oracle_agreement(corpus, 1, 2, trials=3)
    assert not any(cell.structural or cell.successes or cell.retried for cell in report.cells)
    assert calls == dict(only_the_verdict, check_structural=len(report.cells))
    with pytest.raises(ValueError, match="unknown criterion 'gramian'"):
        oracle_agreement(corpus, 1, 2, trials=3, criterion="gramian")
    assert calls["check_structural"] == len(report.cells)


def test_genuine_certificates_check_and_prove_deficiency():
    # On seeded random patterns, the solver's certificate of every false
    # cell proves it deficient and passes the independent recheck, and each
    # of its samples has a deficient rank under both criteria; a true cell's
    # Saturated certificate proves nothing.
    # Small value bounds make coincidental cancellation common.
    rng = random.Random(25)
    kinds = {ViolatingSubset: 0, Unreachable: 0}
    for t in range(400):
        n = rng.randint(1, 6)
        pattern = random_pattern(n, rng.randint(1, 2), rng.uniform(0.3, 0.7),
                                 rng.randrange(1 << 30))
        k, q = rng.randint(0, 2), rng.randint(1, 4)
        verdict = check_structural(pattern, k, q)
        proved = oracle._deficient(pattern, k, q, verdict.certificate)
        assert proved is (not verdict.decision), (t, verdict)
        if verdict.decision:
            continue
        assert recheck_certificate(pattern, verdict), (t, verdict)
        kinds[type(verdict.certificate)] += 1
        for seed in range(2):
            inst = sample_instance(pattern, k, q, seed=seed, value_bound=(2, 3, 10007)[t % 3])
            for criterion in CRITERIA:
                report = controllability_rank(inst, criterion=criterion)
                assert not report.controllable, (t, criterion)
    assert kinds[ViolatingSubset] >= 30 and kinds[Unreachable] >= 30, kinds


def test_the_proof_rejects_tampered_certificates():
    # FIG2A at (1, 3) has the violating subset {1}: 2 < 3.  The proof prices
    # a subset at the cell's own (k, q), whatever the certificate carries.
    assert check_structural(FIG2A, 1, 3).certificate == ViolatingSubset({1}, 2, 3, 1, 3)
    at_q2 = check_structural(FIG2A, 0, 2).certificate
    assert at_q2 == ViolatingSubset({1}, 1, 2, 0, 2)
    assert core_condition_holds(FIG2A, 1, 3, {1, 2})[0]
    assert core_condition_holds(FIG2A, 2, 3, {1})[0]
    assert oracle._deficient(FIG2A, 1, 3, ViolatingSubset({1}, 2, 3, 1, 3))
    assert oracle._deficient(FIG2A, 1, 3, at_q2)  # it violates at (1, 3) too
    for k, q, cert in [
        (1, 3, ViolatingSubset({1, 2}, 2, 3, 1, 3)),  # a state added: 8 >= 6
        (2, 3, ViolatingSubset({1}, 2, 3, 1, 3)),  # priced at (1, 3), not (2, 3)
        (2, 3, at_q2),  # priced at (0, 2)
        (1, 3, ViolatingSubset((), 0, 0, 1, 3)),  # empty
        (1, 3, ViolatingSubset({1, 3}, 2, 6, 1, 3)),  # state out of range
        (1, 3, ViolatingSubset({0, 1}, 2, 6, 1, 3)),  # state out of range
        (1, 3, ViolatingSubset({True}, 2, 3, 1, 3)),  # not an int state
        (1, 3, ViolatingSubset({1.0}, 2, 3, 1, 3)),  # not an int state
    ]:
        assert not oracle._deficient(FIG2A, k, q, cert), (k, q, cert)
    # States 2 and 3 feed each other and nothing else reaches them.
    p = SparsityPattern(3, 1, frozenset({(1, 4), (2, 3), (3, 2)}))
    assert check_structural(p, 0, 1).certificate == Unreachable({2, 3})
    assert oracle._deficient(p, 0, 1, Unreachable({2, 3}))
    for nodes in ({2}, {3},  # an in-neighbour outside the set
                  {1, 2, 3},  # a row reads the input
                  (),  # empty
                  {2, 3, 4}, {0, 2, 3}):  # states out of range
        assert not oracle._deficient(p, 0, 1, Unreachable(nodes)), nodes


def test_a_true_cell_draws_every_trial_seed_in_order(monkeypatch):
    # At value bound 2 some samples are deficient, so both rank passes run.
    seeds = []

    def recording_sample(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return sample_instance(*args, **kwargs)

    monkeypatch.setattr(oracle, "sample_instance", recording_sample)
    for pattern, k, q in ((FIG2A, 2, 3), (benchmark_pattern("backbone", 7, 0), 1, 2)):
        assert check_structural(pattern, k, q).decision
        for criterion in CRITERIA:
            seeds.clear()
            monte_carlo_controllable(pattern, k, q, 6, 17, value_bound=2, criterion=criterion)
            assert seeds == [oracle._trial_seed(17, t) for t in range(1, 7)]


def test_oracle_agreement_decides_each_cell_once(monkeypatch):
    # One verdict per cell, shared with its trials and its retry: one trial
    # at value bound 2 leaves some true cells with no full sample.
    calls = []

    def counting_check(*args):
        calls.append(args)
        return check_structural(*args)

    monkeypatch.setattr(oracle, "check_structural", counting_check)
    report = oracle_agreement([("fig2a", FIG2A), ("two_cycle", TWO_CYCLE)], 2, 3, trials=1,
                              value_bound=2)
    assert any(cell.retried for cell in report.cells)
    assert len(calls) == len(set(calls)) == len(report.cells) == 18


def test_modular_pass_first_after_a_full_or_an_expected_full_sample(closure_spans):
    # Hub n=8 at k=1 < k*=7 is structurally uncontrollable and its
    # certificate passes, so no kernel runs; every backbone trial runs the
    # modular pass first, under both criteria, and every sample is proved
    # full mod p without an exact rank.
    trials = 6
    assert monte_carlo_controllable(benchmark_pattern("hub", 8, 0), 1, 2, trials, 0) == (False, 0)
    assert not closure_spans
    backbone = benchmark_pattern("backbone", 7, 0)
    for criterion in CRITERIA:
        closure_spans.clear()
        assert monte_carlo_controllable(backbone, 1, 2, trials, 0, criterion=criterion) == (
            True, trials)
        assert closure_spans == [oracle._ModSpan] * trials


def test_full_mod_p_implies_full_rank(monkeypatch):
    # A full modular pass must be a full exact rank: the literal closure's
    # for invariant_closure, the exact kernel's for sequential_subspace.
    # Small value bounds make deficient samples common; a bound above the
    # modulus lets entries vanish mod it, which at PRIME is rare, so half
    # the instances run with the modulus 7 in its place.  qn stays at most 24.
    rng = random.Random(21)
    answers = {True: 0, False: 0}
    vanished = 0
    missed_at_7 = False  # a sample full exactly but not mod 7
    for t in range(600):
        if t == 300:
            monkeypatch.setattr(oracle, "PRIME", 7)
        prime = oracle.PRIME
        n = rng.randint(1, 8)
        pattern = random_pattern(n, rng.randint(0, 3), rng.random(), rng.randrange(1 << 30))
        inst = sample_instance(pattern, rng.randint(0, 3), rng.randint(1, 24 // n),
                               seed=rng.randrange(1 << 30),
                               value_bound=(2, 3, 10007, 2 * prime)[t % 4])
        vanished += sum(x % prime == 0 for a, b in inst.blocks.values()
                        for row in a + b for x in row if x)
        one_pass = t // 4 % 2 == 1
        dim = n * inst.q
        full = oracle._closure(inst, oracle._ModSpan, one_pass).dimension == dim
        answers[full] += 1
        if full or prime == 7 and not missed_at_7:
            if one_pass:
                exact = oracle._closure(inst, oracle._SpanBasis, True).dimension
            else:
                exact = literal_closure_rank(inst)
            if full:
                assert exact == dim, (t, prime)
            else:
                missed_at_7 = exact == dim
    assert answers[True] and answers[False], answers
    assert vanished
    # the patched modulus reaches the modular pass
    assert missed_at_7


def test_modular_dimension_matches_rank_mod_of_literal_columns(monkeypatch):
    # The modular closure's dimension is the rank mod the prime of the
    # literal closure, full or deficient; a quarter of the instances run
    # with the modulus 7, where entries and minors vanish mod it often.
    # Instances keep qn <= 24, but one in 25 reaches up to the guard, 64.
    rng = random.Random(30)
    prime = oracle.PRIME
    deficient = 0
    for t in range(500):
        monkeypatch.setattr(oracle, "PRIME", 7 if t // 4 % 4 == 0 else prime)
        n = rng.randint(1, 8)
        pattern = random_pattern(n, rng.randint(0, 3), rng.random(), rng.randrange(1 << 30))
        q = rng.randint(1, (64 if t % 25 == 0 else 24) // n)
        inst = sample_instance(pattern, rng.randint(0, 3), q, seed=rng.randrange(1 << 30),
                               value_bound=(2, 3, 10007, 1 << 32)[t % 4])
        dimension = oracle._closure(inst, oracle._ModSpan, False).dimension
        assert dimension == literal_closure_rank(inst, oracle.PRIME), (t, oracle.PRIME)
        deficient += dimension < n * q
    assert deficient >= 200, deficient


def test_structural_false_forces_rank_deficiency():
    # Necessity: every sampled realization of an uncontrollable cell is
    # rank-deficient, over many seeds.
    cells = [(FIG2A, 1, 3), (INTEGRATOR, 0, 2), (INTEGRATOR, 1, 3)]
    for pattern, k, q in cells:
        assert not check_structural(pattern, k, q).decision
        for seed in range(30):
            inst = sample_instance(pattern, k, q, seed=seed)
            assert not controllability_rank(inst).controllable


def test_oracle_agreement_corpus():
    corpus = [("fig2a", FIG2A), ("two_cycle", TWO_CYCLE), ("integrator", INTEGRATOR)]
    report = oracle_agreement(corpus, 2, 2, trials=10, seed=5)
    assert report.clean
    assert not report.hard_disagreements
    for cell in report.cells:
        if not cell.structural:
            assert cell.successes == 0


def agreement_reports() -> dict:
    """oracle_agreement on criterion 6's corpus and grids, under both
    criteria, at the default value bound with 10 trials and at 2 with one,
    where some true cells retry, each report as plain lists."""
    reports = {}
    for criterion in CRITERIA:
        for value_bound, trials in ((DEFAULT_VALUE_BOUND, 10), (2, 1)):
            for corpus, k_max, q_max, seed in (
                    ([("fig2a", FIG2A), ("two_cycle", TWO_CYCLE), ("integrator", INTEGRATOR)],
                     2, 3, 60_000),
                    ([("fig1", FIG1)], 1, 2, 60_001)):
                report = oracle_agreement(corpus, k_max, q_max, trials, seed, value_bound,
                                          criterion)
                reports[f"{criterion}/{value_bound}/{corpus[0][0]}"] = {
                    "cells": [[getattr(cell, name) for name in cell._fields]
                              for cell in report.cells],
                    "hard_disagreements": list(report.hard_disagreements),
                    "genericity_misses": list(report.genericity_misses),
                }
    return reports


def test_oracle_agreement_golden():
    # The sequential_subspace reports were frozen before the structural proof
    # moved from each sample to the cell.
    assert agreement_reports() == json.loads(GOLDEN_AGREEMENT.read_text())


def test_oracle_agreement_scale_pre():
    with pytest.raises(ScaleError):
        oracle_agreement([("fig1", FIG1)], 1, 13, trials=1, seed=0)


class Started(Exception):
    pass


@pytest.fixture
def no_cell(monkeypatch):
    """Make drawing a sample or deciding a cell raise Started."""
    def started(*args, **kwargs):
        raise Started

    monkeypatch.setattr(oracle, "sample_instance", started)
    monkeypatch.setattr(oracle, "check_structural", started)


def test_trials_guard_before_any_trial(no_cell):
    most = oracle.MAX_ORACLE_TRIALS
    with pytest.raises(Started):
        monte_carlo_controllable(FIG2A, 0, 1, trials=most, seed=0)
    with pytest.raises(ScaleError, match="trials"):
        monte_carlo_controllable(FIG2A, 0, 1, trials=most + 1, seed=0)
    # oracle_agreement may retry a cell at 4x trials, so its ceiling is a quarter
    with pytest.raises(Started):
        oracle_agreement([("fig2a", FIG2A)], 0, 1, trials=most // 4, seed=0)
    with pytest.raises(ScaleError, match="trials"):
        oracle_agreement([("fig2a", FIG2A)], 0, 1, trials=most // 4 + 1, seed=0)


def test_oracle_agreement_rejects_no_trials_before_any_cell(no_cell):
    # The cells' trials skip monte_carlo_controllable's guards, so
    # oracle_agreement checks trials >= 1 before its first cell.
    with pytest.raises(ValueError, match="trials must be >= 1"):
        oracle_agreement([("fig2a", FIG2A)], 0, 1, trials=0, seed=0)


def test_sampling_guard_before_any_cell(no_cell):
    # The sampler's guard on q(k+1)n(n+m) entries is checked for every corpus
    # pattern before the first cell: 8 * 409 * 8 * 10 = 261760 entries fit
    # MAX_SAMPLE_CELLS = 2^18, 8 * 410 * 8 * 10 = 262400 do not.
    dense = SparsityPattern(8, 2, frozenset((i, j) for i in range(1, 9) for j in range(1, 11)))
    assert 8 * 409 * 80 <= MAX_SAMPLE_CELLS < 8 * 410 * 80
    with pytest.raises(Started):
        oracle_agreement([("fig2a", FIG2A), ("dense", dense)], 408, 8, trials=1, seed=0)
    with pytest.raises(ScaleError, match="exceed the sampling guard 262144"):
        oracle_agreement([("fig2a", FIG2A), ("dense", dense)], 409, 8, trials=1, seed=0)


def test_random_patterns_necessity_direction():
    rng = random.Random(8)
    for seed in range(12):
        p = random_pattern(rng.randint(1, 3), rng.randint(0, 2), rng.random(), seed)
        for k, q in [(0, 1), (1, 2), (0, 2)]:
            structural = check_structural(p, k, q).decision
            ok, successes = monte_carlo_controllable(p, k, q, trials=4, seed=seed)
            if not structural:
                assert successes == 0
