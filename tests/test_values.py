"""Value semantics of every result, certificate, network and report class:
equality and hashing by field within one class only, the keyword repr,
no assignment or deletion, and copy and pickle round trips; plus the checks
the constructors run."""

import copy
import pickle
from fractions import Fraction

import pytest

from swenctrl.decide import CrosscheckCell, CrosscheckReport
from swenctrl.flow import FlowAssignment, FlowNetwork, build_small_network
from swenctrl.oracle import AgreementCell, AgreementReport, RankReport
from swenctrl.pattern import EnsembleInstance, SparsityPattern
from swenctrl.results import (
    ArgmaxSubset,
    EmptyAlphaIn,
    KStarResult,
    Saturated,
    Unreachable,
    Verdict,
    VerdictStats,
    ViolatingSubset,
    certificate_from_dict,
    certificate_to_dict,
)

P = SparsityPattern(2, 1, frozenset({(1, 3), (2, 1), (2, 3)}))
P_REPR = "SparsityPattern(n=2, m=1, rows=((3,), (1, 3)))"
NET = build_small_network(P, 0, 1)
CELL = CrosscheckCell(0, 1, True, True, 2, 2, True, True)
CELL_REPR = ("CrosscheckCell(k=0, q=1, structural=True, brute=True, theta=2, theta_hat=2, "
             "counting_ok=True, agree=True)")
AGREEMENT_CELL = AgreementCell("fig", 0, 1, True, True, 3, 3, "invariant_closure", False)
AGREEMENT_CELL_REPR = ("AgreementCell(pattern_id='fig', k=0, q=1, structural=True, "
                       "numerical=True, successes=3, trials=3, "
                       "criterion='invariant_closure', retried=False)")
# One value per star of P, row-major: (1, 3), (2, 1), (2, 3).
VALUES = (1, 5, 2)

# (class, field values, today's repr); equal values build equal objects.
CASES = [
    (Unreachable, (frozenset({1, 2}),), "Unreachable(nodes=frozenset({1, 2}))"),
    (ViolatingSubset, (frozenset({1}), 2, 3, 1, 3),
     "ViolatingSubset(subset=frozenset({1}), lhs=2, rhs=3, k=1, q=3)"),
    (Saturated, (4,), "Saturated(value=4)"),
    (EmptyAlphaIn, (frozenset({1}),), "EmptyAlphaIn(subset=frozenset({1}))"),
    (ArgmaxSubset, (frozenset({2}),), "ArgmaxSubset(subset=frozenset({2}))"),
    (VerdictStats, (5, 6), "VerdictStats(theta=5, target=6)"),
    (Verdict, (True, Saturated(6), VerdictStats(6, 6)),
     "Verdict(decision=True, certificate=Saturated(value=6), "
     "stats=VerdictStats(theta=6, target=6))"),
    (KStarResult, (1, ArgmaxSubset(frozenset({1})), ((0, 1, 2), (1, 2, 2))),
     "KStarResult(value=1, witness=ArgmaxSubset(subset=frozenset({1})), "
     "trace=((0, 1, 2), (1, 2, 2)))"),
    (SparsityPattern, (2, 1, P.stars), P_REPR),
    (EnsembleInstance, (P, 0, 1, VALUES),
     f"EnsembleInstance(pattern={P_REPR}, k=0, q=1, values=(1, 5, 2))"),
    (CrosscheckCell, (0, 1, True, True, 2, 2, True, True), CELL_REPR),
    (CrosscheckReport, (2, 1, 0, 1, (CELL,), 0, 0, True, ()),
     f"CrosscheckReport(n=2, m=1, k_max=0, q_max=1, cells=({CELL_REPR},), kstar_search=0, "
     "kstar_enumerated=0, kstar_agree=True, disagreements=())"),
    (FlowNetwork, ("small", 2, 1, 0, 1, False, NET.nodes, NET.arcs, NET.capacity),
     f"FlowNetwork(kind='small', n=2, m=1, k=0, q=1, witness_mode=False, nodes={NET.nodes!r}, "
     f"arcs={NET.arcs!r}, capacity={NET.capacity!r})"),
    (FlowAssignment, ((1, Fraction(1, 2)), Fraction(3, 2)),
     "FlowAssignment(values=(1, Fraction(1, 2)), value_total=Fraction(3, 2))"),
    (RankReport, (2, 2, True, "invariant_closure"),
     "RankReport(rank=2, full_dim=2, controllable=True, criterion='invariant_closure')"),
    (AgreementCell, ("fig", 0, 1, True, True, 3, 3, "invariant_closure", False),
     AGREEMENT_CELL_REPR),
    (AgreementReport, ((AGREEMENT_CELL,), ("x",), ()),
     f"AgreementReport(cells=({AGREEMENT_CELL_REPR},), hard_disagreements=('x',), "
     "genericity_misses=())"),
]
IDS = [cls.__name__ for cls, *_ in CASES]


def fresh(cls, values):
    return cls(*copy.deepcopy(values))


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_equality_within_the_class_only(cls, values, text):
    a, b = fresh(cls, values), fresh(cls, values)
    assert a == b and not a != b
    twin = type(f"{cls.__name__}Twin", (cls,), {})(*values)
    assert a != twin and twin != a
    assert a != values


def test_equal_fields_in_another_class_differ():
    subset = frozenset({1})
    kinds = [Unreachable(subset), EmptyAlphaIn(subset), ArgmaxSubset(subset)]
    for x in kinds:
        for y in kinds:
            assert (x == y) == (x is y)
    assert Saturated(2) != VerdictStats(2, 2) and Saturated(2) != 2


def test_unequal_fields_differ():
    assert Unreachable(frozenset({1})) != Unreachable(frozenset({2}))
    assert ViolatingSubset({1}, 2, 3, 1, 3) != ViolatingSubset({1}, 2, 3, 1, 4)
    assert SparsityPattern(2, 1, {(1, 3)}) != SparsityPattern(2, 2, {(1, 3)})
    assert KStarResult(1, None) != KStarResult(1, None, ((0, 1, 1),))


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_hash_follows_the_fields(cls, values, text):
    a, b = fresh(cls, values), fresh(cls, values)
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_repr(cls, values, text):
    assert repr(cls(*values)) == text


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, values, text):
    obj = cls(*values)
    field = text[len(cls.__name__) + 1:].split("=", 1)[0]
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, None)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.no_such_field = 1
    assert getattr(obj, field) is before


@pytest.mark.parametrize("cls, values, text", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, values, text):
    obj = cls(*values)
    for other in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
        assert type(other) is cls and other == obj and repr(other) == text


def test_pattern_round_trip_keeps_rows_and_stars():
    fresh_rows = SparsityPattern.from_rows(2, 1, ((3,), (1, 3)))
    for other in (copy.copy(fresh_rows), pickle.loads(pickle.dumps(fresh_rows))):
        assert other.rows == ((3,), (1, 3)) and other.stars == P.stars


@pytest.mark.parametrize("cls", [CrosscheckCell, CrosscheckReport, FlowNetwork, FlowAssignment,
                                 RankReport, AgreementCell, AgreementReport])
def test_the_base_init_takes_one_value_per_field(cls):
    values = next(v for c, v, _ in CASES if c is cls)
    for wrong in (values[:-1], (*values, None)):
        with pytest.raises(TypeError, match=rf"{cls.__name__}\(\) takes {len(values)} field "
                                            rf"values, got {len(wrong)}"):
            cls(*wrong)


def test_verdict_rejects_a_missing_or_mismatched_certificate():
    stats = VerdictStats(6, 6)
    with pytest.raises(ValueError, match="a verdict must carry a certificate"):
        Verdict(True, None, stats)
    with pytest.raises(ValueError, match="a true verdict must carry a Saturated certificate"):
        Verdict(True, ViolatingSubset({1}, 2, 3, 1, 3), stats)
    with pytest.raises(ValueError, match="a false verdict cannot carry a Saturated certificate"):
        Verdict(False, Saturated(6), stats)
    assert Verdict(False, Unreachable({2}), VerdictStats(None, 6)).certificate.nodes == {2}


def test_kstar_result_trace_defaults_to_empty():
    assert KStarResult(None, EmptyAlphaIn({1})).trace == ()
    assert KStarResult(value=2, witness=None).trace == ()
    assert KStarResult(value=None, witness=None).is_infinite
    assert KStarResult(3, None, trace=((0, 1, 2),)).trace == ((0, 1, 2),)


def test_subsets_are_stored_as_frozensets():
    assert type(Unreachable([1, 2]).nodes) is frozenset
    assert type(ViolatingSubset([1], 2, 3, 1, 3).subset) is frozenset
    assert type(EmptyAlphaIn({1}).subset) is frozenset
    assert type(ArgmaxSubset((1, 1)).subset) is frozenset
    assert Unreachable([1, 2]) == Unreachable({2, 1})


def test_ensemble_instance_checks_its_fields():
    with pytest.raises(ValueError, match="k must be an integer >= 0"):
        EnsembleInstance(P, -1, 1, VALUES)
    with pytest.raises(ValueError, match="q must be an integer >= 1"):
        EnsembleInstance(P, 0, 0, VALUES)
    with pytest.raises(ValueError, match="must be 6 ints"):
        EnsembleInstance(P, 1, 1, VALUES)
    inst = EnsembleInstance(P, 0, 1, list(VALUES))
    assert inst.values == VALUES
    assert inst.blocks == {(1, 0): (((0, 0), (5, 0)), ((1,), (2,)))}


@pytest.mark.parametrize("cert, expected", [
    # sets of small ints that a frozenset iterates out of order
    (Unreachable({3, 8}), {"type": "unreachable", "nodes": [3, 8]}),
    (ViolatingSubset({9, 2}, 5, 6, 1, 3),
     {"type": "violating_subset", "subset": [2, 9], "lhs": 5, "rhs": 6, "k": 1, "q": 3}),
    (Saturated(6), {"type": "saturated", "value": 6}),
    (EmptyAlphaIn({8, 1, 4}), {"type": "empty_alpha_in", "subset": [1, 4, 8]}),
    (ArgmaxSubset({5}), {"type": "argmax_subset", "subset": [5]}),
], ids=lambda x: type(x).__name__)
def test_certificate_json_round_trip(cert, expected):
    d = certificate_to_dict(cert)
    assert d == expected and list(d) == list(expected)
    assert certificate_from_dict(d) == cert


def test_certificate_json_rejects_unknown_types():
    assert certificate_to_dict(None) is None and certificate_from_dict(None) is None
    with pytest.raises(TypeError, match="unknown certificate type VerdictStats"):
        certificate_to_dict(VerdictStats(1, 2))
    with pytest.raises(ValueError, match="unknown certificate type 'cut'"):
        certificate_from_dict({"type": "cut", "subset": [1]})
    with pytest.raises(ValueError, match="unknown certificate type None"):
        certificate_from_dict({"subset": [1]})
