"""The record classes' value semantics, pinned on fixed instances.

Each case builds a record twice and once with one field changed, and states
its repr, what its hash is taken over (None: unhashable) and a field that
rejects assignment: every record is frozen.  The expected values are those
the records had as `@dataclass` classes, so a rewrite of the classes keeps
them.
"""
import copy
import pickle
from collections import Counter
from fractions import Fraction

import pytest

from permdom import oracle, sequences
from permdom.constructions import CombWitness
from permdom.domination import DominationResult
from permdom.graph import PermutationGraph, build_graph
from permdom.oracle import Census, HeuristicQuality, TallyReport
from permdom.perm import Permutation
from permdom.sequences import RationalPolynomial, StOffsetFamily
from permdom.verify import CheckResult, VerificationRun


def _census(optimal=4):
    return Census(Counter({(1, True, 1, 0): 2}), Counter({1: 2}),
                  Counter({(1, 2, 1): 2}), Counter({3: 1}),
                  HeuristicQuality(6, 2, optimal))


def _family(k0_value=14):
    poly = RationalPolynomial.of(14, Fraction(29, 2), Fraction(1, 2))
    return StOffsetFamily(r=4, polynomial=poly, k0_value=k0_value,
                          newton_coefficients=(14, 15, 1))


# (name, build(changed), repr, hashed over, a field that rejects
# assignment); build(False) and build(True) differ in one field.
CASES = [
    ("Permutation",
     lambda x: Permutation((2, 3, 1) if x else (3, 1, 2)),
     "Permutation([3,1,2])", ((3, 1, 2),), "image"),
    ("PermutationGraph",
     lambda x: PermutationGraph(3, (4, 4, 3 + x), Permutation((3, 1, 2))),
     "PermutationGraph(n=3, rows=(4, 4, 3), source=Permutation([3,1,2]))",
     (3, (4, 4, 3), Permutation((3, 1, 2))), "rows"),
    ("DominationResult",
     lambda x: DominationResult(2, frozenset({1, 3}), "exact", repaired=x),
     "DominationResult(gamma=2, witness=frozenset({1, 3}), method='exact', "
     "repaired=False)", (2, frozenset({1, 3}), "exact", False), "gamma"),
    ("TallyReport",
     lambda x: TallyReport(2 + x, {1: 2}, {1: 2}, {}, {}, {}),
     "TallyReport(n=2, g={1: 2}, c={1: 2}, d={}, f1={}, st={})",
     None, "g"),
    ("HeuristicQuality",
     lambda x: HeuristicQuality(6, 2, 4 - x),
     "HeuristicQuality(total=6, excluded=2, optimal=4)", (6, 2, 4), "optimal"),
    ("Census",
     lambda x: _census(4 - x),
     "Census(tally=Counter({(1, True, 1, 0): 2}), singletons=Counter({1: 2}), "
     "pairs=Counter({(1, 2, 1): 2}), efficient=Counter({3: 1}), "
     "heuristic=HeuristicQuality(total=6, excluded=2, optimal=4))", None,
     "heuristic"),
    ("CheckResult",
     lambda x: CheckResult("pairs", "n <= 3", x, None if x else "at n=2"),
     "CheckResult(name='pairs', range_note='n <= 3', passed=False, "
     "first_mismatch='at n=2', detail=None)",
     ("pairs", "n <= 3", False, "at n=2", None), "passed"),
    ("VerificationRun",
     lambda x: VerificationRun([CheckResult("pairs", "n <= 3", True)] * (1 + x)),
     "VerificationRun(checks=[CheckResult(name='pairs', range_note='n <= 3', "
     "passed=True, first_mismatch=None, detail=None)])", None, "checks"),
    ("CombWitness",
     lambda x: CombWitness(frozenset({1}), frozenset({2}), {1: 2 + x}),
     "CombWitness(spine=frozenset({1}), teeth=frozenset({2}), matching={1: 2})",
     None, "matching"),
    ("RationalPolynomial",
     lambda x: RationalPolynomial.of(0, 1 + x),
     "RationalPolynomial(coefficients=(Fraction(0, 1), Fraction(1, 1)))",
     ((Fraction(0), Fraction(1)),), "coefficients"),
    ("StOffsetFamily",
     lambda x: _family(14 + x),
     "StOffsetFamily(r=4, polynomial=RationalPolynomial(coefficients="
     "(Fraction(14, 1), Fraction(29, 2), Fraction(1, 2))), k0_value=14, "
     "newton_coefficients=(14, 15, 1))",
     (4, RationalPolynomial.of(14, Fraction(29, 2), Fraction(1, 2)), 14,
      (14, 15, 1)), "k0_value"),
]
IDS = [case[0] for case in CASES]
FROZEN = [(name, build, field) for name, build, *_, field in CASES]


def test_every_record_class_has_a_case():
    classes = {Permutation, PermutationGraph, DominationResult, TallyReport,
               HeuristicQuality, Census, CheckResult, VerificationRun,
               CombWitness, RationalPolynomial, StOffsetFamily}
    assert {cls.__name__ for cls in classes} == set(IDS)
    assert [type(build(False)).__name__ for _, build, *_ in CASES] == IDS


@pytest.mark.parametrize("name, build, text, hashed, field", CASES, ids=IDS)
def test_repr_equality_and_hash(name, build, text, hashed, field):
    a, b, other = build(False), build(False), build(True)
    assert repr(a) == text
    assert a == b and not a != b and a is not b
    assert a != other and not a == other
    assert a != text and a.__eq__(text) is NotImplemented
    if hashed is None:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(hashed)


@pytest.mark.parametrize("name, build, field", FROZEN, ids=[f[0] for f in FROZEN])
def test_frozen_records_reject_assignment(name, build, field):
    record = build(False)
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(build(True), field))
    assert record == build(False)


@pytest.mark.parametrize("name, build, text, hashed, field", CASES, ids=IDS)
def test_records_pickle_and_copy(name, build, text, hashed, field):
    record = build(False)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record),
                 copy.deepcopy(record)):
        assert type(twin) is type(record) and twin == record
        assert repr(twin) == text


def test_an_unpickled_permutation_keeps_its_positions():
    p = pickle.loads(pickle.dumps(Permutation((3, 1, 2))))
    assert [p.position(v) for v in (1, 2, 3)] == [2, 3, 1]


def test_a_graph_from_build_graph_equals_its_direct_record():
    assert build_graph(Permutation((3, 1, 2))) == CASES[1][1](False)


def test_sums_of_records_add_field_by_field():
    assert HeuristicQuality(6, 2, 4) + HeuristicQuality(1, 0, 1) == HeuristicQuality(7, 2, 5)
    total = _census() + _census(3)
    assert total.tally == Counter({(1, True, 1, 0): 4})
    assert total.heuristic == HeuristicQuality(12, 4, 7)


@pytest.mark.parametrize("n", range(1, 7))
def test_a_pooled_census_equals_the_in_process_one(monkeypatch, n):
    # Pool workers pickle each chunk's Census back to the parent.
    monkeypatch.setattr(oracle, "POOL_MIN_ORDER", 1)
    assert oracle.census(n, jobs=2) == oracle.census(n, jobs=1)


def test_lifted_families_are_records():
    assert sequences.lift_families(4)[4] == _family()


# (class, its fields by name in parameter order, the defaults of the trailing
# ones): every constructor's parameters, which callers pass by position or
# by name.
FIELDS = [
    (Permutation, {"image": (3, 1, 2)}, {}),
    (PermutationGraph, {"n": 3, "rows": (4, 4, 3), "source": Permutation((3, 1, 2))}, {}),
    (DominationResult, {"gamma": 2, "witness": frozenset({1, 3}), "method": "exact",
                        "repaired": True}, {"repaired": False}),
    (TallyReport, {"n": 2, "g": {1: 2}, "c": {1: 2}, "d": {}, "f1": {}, "st": {}}, {}),
    (HeuristicQuality, {"total": 6, "excluded": 2, "optimal": 4}, {}),
    (Census, {"tally": Counter({(1, True, 1, 0): 2}), "singletons": Counter({1: 2}),
              "pairs": Counter({(1, 2, 1): 2}), "efficient": Counter({3: 1}),
              "heuristic": HeuristicQuality(6, 2, 4)}, {}),
    (CheckResult, {"name": "pairs", "range_note": "n <= 3", "passed": False,
                   "first_mismatch": "at n=2", "detail": "n=2: 1/1"},
     {"first_mismatch": None, "detail": None}),
    (VerificationRun, {"checks": [CheckResult("pairs", "n <= 3", True)]}, {}),
    (CombWitness, {"spine": frozenset({1}), "teeth": frozenset({2}), "matching": {1: 2}}, {}),
    (RationalPolynomial, {"coefficients": (Fraction(0), Fraction(1))}, {}),
    (StOffsetFamily, {"r": 4, "polynomial": RationalPolynomial.of(14, 1), "k0_value": 14,
                      "newton_coefficients": (14, 15, 1)}, {}),
]
FIELD_IDS = [cls.__name__ for cls, *_ in FIELDS]
WITH_DEFAULTS = [case for case in FIELDS if case[2]]


def test_every_record_class_has_its_fields_listed():
    assert FIELD_IDS == IDS


@pytest.mark.parametrize("cls, fields, defaults", FIELDS, ids=FIELD_IDS)
def test_positional_and_keyword_calls_build_equal_records(cls, fields, defaults):
    by_position, by_name = cls(*fields.values()), cls(**fields)
    assert by_position == by_name and repr(by_position) == repr(by_name)
    assert {name: getattr(by_name, name) for name in fields} == fields


@pytest.mark.parametrize("cls, fields, defaults", WITH_DEFAULTS,
                         ids=[case[0].__name__ for case in WITH_DEFAULTS])
def test_an_omitted_default_takes_its_value(cls, fields, defaults):
    required = {name: value for name, value in fields.items() if name not in defaults}
    assert list(fields)[len(required):] == list(defaults)  # defaults trail
    for record in (cls(*required.values()), cls(**required)):
        assert {name: getattr(record, name) for name in fields} == {**fields, **defaults}


@pytest.mark.parametrize("call", ["missing", "extra", "unknown", "twice"])
@pytest.mark.parametrize("cls, fields, defaults", FIELDS, ids=FIELD_IDS)
def test_a_wrong_call_raises_type_error(cls, fields, defaults, call):
    values = list(fields.values())
    required = len(fields) - len(defaults)
    args, kwargs = {
        "missing": (values[:required - 1], {}),
        "extra": (values + [None], {}),
        "unknown": ([], {**fields, "bogus": None}),
        "twice": (values[:1], fields),
    }[call]
    with pytest.raises(TypeError):
        cls(*args, **kwargs)
