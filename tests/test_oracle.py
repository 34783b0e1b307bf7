import json
import random
from pathlib import Path

import pytest
from helpers import FIG1, FIG2A, INTEGRATOR, TWO_CYCLE, exact_rank, literal_mode_span_rank

from swenctrl import oracle
from swenctrl.decide import check_structural
from swenctrl.errors import ScaleError
from swenctrl.oracle import (
    assemble_segment,
    controllability_rank,
    monte_carlo_controllable,
    oracle_agreement,
    reach_subspace,
)
from swenctrl.pattern import SparsityPattern, random_pattern, sample_instance

GOLDEN_RANKS = Path(__file__).parent / "golden" / "oracle_ranks.json"


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


def test_integrator_rank_examples():
    r = controllability_rank(sample_instance(INTEGRATOR, 0, 1, seed=3))
    assert (r.rank, r.full_dim, r.controllable) == (1, 1, True)
    r = controllability_rank(sample_instance(INTEGRATOR, 0, 2, seed=3))
    assert (r.rank, r.controllable) == (1, False)
    r = controllability_rank(sample_instance(INTEGRATOR, 1, 2, seed=3))
    assert (r.rank, r.controllable) == (2, True)


def test_literal_d_range_misses_driftless_system():
    # With drift A = 0 the literal power range 1..qn spans nothing.
    r = controllability_rank(sample_instance(INTEGRATOR, 0, 1, seed=3), include_d0=False)
    assert r.rank == 0 and not r.controllable
    assert r.d_range_used == (1, 1)


def test_rank_monotone_in_d_range():
    inst = sample_instance(FIG2A, k=1, q=2, seed=9)
    dim = FIG2A.n * 2
    a0, b0 = assemble_segment(inst, 0)
    a1, b1 = assemble_segment(inst, 1)
    prev_rank = 0
    cols0 = [[b0[r][c] for r in range(dim)] for c in range(FIG2A.m)]
    cols1 = [[b1[r][c] for r in range(dim)] for c in range(FIG2A.m)]
    collected = []
    for _ in range(dim + 1):
        collected.extend(cols0)
        collected.extend(cols1)
        rank = exact_rank(collected)
        assert rank >= prev_rank
        prev_rank = rank
        cols0 = [[sum(a0[i][j] * v[j] for j in range(dim)) for i in range(dim)] for v in cols0]
        cols1 = [[sum(a1[i][j] * v[j] for j in range(dim)) for i in range(dim)] for v in cols1]


def test_mode_span_matches_literal_rank():
    # The Krylov span must give the rank of every literal power column, full
    # or deficient; small value bounds make coincidental deficiency common.
    rng = random.Random(5)
    deficient = 0
    for t in range(600):
        n = rng.randint(1, 8)
        m = rng.randint(0, 3)
        density = 0.0 if t % 25 == 0 else rng.random()
        pattern = random_pattern(n, m, density, rng.randrange(1 << 30))
        k = rng.randint(0, 2)
        q = rng.randint(1, 32 // n)
        inst = sample_instance(pattern, k, q, seed=rng.randrange(1 << 30),
                               value_bound=rng.choice((2, 3, 10007)))
        reports = {d0: controllability_rank(inst, include_d0=d0) for d0 in (True, False)}
        for include_d0, report in reports.items():
            assert report.d_range_used == (0 if include_d0 else 1, n * q)
            assert report.rank == literal_mode_span_rank(inst, include_d0), (t, include_d0)
            assert report.controllable == (report.rank == n * q)
        deficient += not reports[True].controllable
    assert deficient >= 200


def test_oracle_ranks_match_golden():
    # Ranks of both criteria, with and without d = 0, over 200 seeded
    # instances; the mode_span ranks were computed by Bareiss elimination of
    # every literal power column.
    cases = json.loads(GOLDEN_RANKS.read_text())["cases"]
    assert len(cases) == 200
    for case in cases:
        pattern = SparsityPattern(case["n"], case["m"], frozenset(map(tuple, case["stars"])))
        inst = sample_instance(pattern, case["k"], case["q"], seed=case["seed"],
                               value_bound=case["value_bound"])
        for key, expected in case["ranks"].items():
            criterion, d0 = key.split("/")
            report = controllability_rank(inst, criterion=criterion, include_d0=d0 == "d0")
            assert [report.rank, report.controllable] == expected, (case["name"], key)


def test_mode_span_products_per_segment(monkeypatch):
    # Deflation multiplies each new basis row once: at most qn products per
    # segment, where the literal power range needs m * qn.
    per_segment = []
    assemble, matvec = oracle.assemble_segment, oracle._matvec

    def counting_assemble(instance, ell):
        per_segment.append(0)
        return assemble(instance, ell)

    def counting_matvec(*args):
        per_segment[-1] += 1
        return matvec(*args)

    monkeypatch.setattr(oracle, "assemble_segment", counting_assemble)
    monkeypatch.setattr(oracle, "_matvec", counting_matvec)
    k, q = 1, 3
    qn = FIG1.n * q
    for seed in range(5):
        per_segment.clear()
        oracle.controllability_rank(sample_instance(FIG1, k, q, seed=seed))
        assert per_segment and max(per_segment) <= qn, per_segment


def test_reach_subspace_fixpoint_invariant():
    rng = random.Random(2)
    for _ in range(20):
        dim = rng.randint(1, 4)
        a = tuple(tuple(rng.randint(0, 3) for _ in range(dim)) for _ in range(dim))
        gens = [[rng.randint(0, 3) for _ in range(dim)] for _ in range(rng.randint(0, 2))]
        basis = reach_subspace(a, gens, dim)
        for v in list(basis.vectors()):
            image = [sum(a[i][j] * v[j] for j in range(dim)) for i in range(dim)]
            assert basis.contains(image)
        for v in gens:
            assert basis.contains(v)


def test_criteria_agree_on_corpus():
    corpus = [FIG2A, TWO_CYCLE, INTEGRATOR]
    rng = random.Random(4)
    for pattern in corpus:
        for k in (0, 1, 2):
            for q in (1, 2, 3):
                inst = sample_instance(pattern, k, q, seed=rng.randint(0, 10**6))
                span = controllability_rank(inst, criterion="mode_span")
                seq = controllability_rank(inst, criterion="sequential_subspace")
                assert span.controllable == seq.controllable, (pattern, k, q)


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


def test_oracle_agreement_scale_pre():
    with pytest.raises(ScaleError):
        oracle_agreement([("fig1", FIG1)], 1, 13, trials=1, seed=0)


def test_trials_guard_before_any_trial(monkeypatch):
    class Started(Exception):
        pass

    def started(*args, **kwargs):
        raise Started

    monkeypatch.setattr(oracle, "sample_instance", started)
    monkeypatch.setattr(oracle, "check_structural", started)
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


def test_random_patterns_necessity_direction():
    rng = random.Random(8)
    for seed in range(12):
        p = random_pattern(rng.randint(1, 3), rng.randint(0, 2), rng.random(), seed)
        for k, q in [(0, 1), (1, 2), (0, 2)]:
            structural = check_structural(p, k, q).decision
            ok, successes = monte_carlo_controllable(p, k, q, trials=4, seed=seed)
            if not structural:
                assert successes == 0
