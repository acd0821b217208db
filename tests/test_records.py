"""The contract of the immutable record classes.

Each case is one record class and the values of its fields, in field
order. The checks pin what callers rely on: fields cannot be assigned or
deleted, equality and hash are those of the field tuple within one class
only, the repr is ``Name(field=value, ...)`` (the strings below were
captured from the dataclass-based classes), records pickle, and fields
can be given by keyword.
"""

import pickle

import numpy as np
import pytest

from ruledict import (
    And,
    CongruenceReport,
    ConstraintSet,
    Dataset,
    Dictionary,
    FitResult,
    GroupingStructure,
    Implies,
    Not,
    Or,
    RankedModels,
    ScoredModel,
    Sequential,
    StageResult,
    Unit,
    UnitRule,
    Universe,
    VarSet,
    make_universe,
)

U = make_universe(["A", "B", "C"])
A, BC = VarSet(U, 1), VarSet(U, 6)
RULE = UnitRule(A, ConstraintSet.of(1))
MODEL = ScoredModel(BC, -1.5, 0.5, (1.0, -2.0))

FIELDS = {
    Universe: {"names": ("A", "B", "C")},
    VarSet: {"universe": U, "mask": 6},
    ConstraintSet: {"counts": frozenset({0, 2})},
    UnitRule: {"scope": BC, "constraint": ConstraintSet.of(1)},
    Unit: {"rule": RULE},
    Not: {"child": Unit(RULE)},
    And: {"left": Unit(RULE), "right": Not(Unit(RULE))},
    StageResult: {"chosen": BC},
    GroupingStructure: {"universe": U, "groups": (A, BC)},
    CongruenceReport: {
        "congruent": False,
        "missing": Dictionary.from_masks(U, [0, 6]),
        "extra": Dictionary(U),
        "rule_family": None,
        "method_family": Dictionary.from_masks(U, [7]),
    },
    Dataset: {
        "universe": make_universe(["A"]),
        "outcome": "Y",
        "X": np.array([[1.0], [2.0]]),
        "y": np.array([3.0, 4.0]),
    },
    FitResult: {
        "subset": BC, "intercept": 0.5, "coefficients": (1.0, -2.0), "rss": 3.0, "tss": 4.0, "k": 3,
    },
    ScoredModel: {"subset": BC, "score": -1.5, "intercept": 0.5, "coefficients": (1.0, -2.0)},
    RankedModels: {"criterion": "bic", "models": (MODEL,)},
}

REPRS = {
    Universe: "Universe(names=('A', 'B', 'C'))",
    VarSet: "VarSet({B,C})",
    ConstraintSet: "ConstraintSet({0,2})",
    UnitRule: "UnitRule(scope=VarSet({B,C}), constraint=ConstraintSet({1}))",
    Unit: "Unit(rule=UnitRule(scope=VarSet({A}), constraint=ConstraintSet({1})))",
    Not: "Not(child=Unit(rule=UnitRule(scope=VarSet({A}), constraint=ConstraintSet({1}))))",
    And: "And(left=Unit(rule=UnitRule(scope=VarSet({A}), constraint=ConstraintSet({1}))), "
    "right=Not(child=Unit(rule=UnitRule(scope=VarSet({A}), constraint=ConstraintSet({1})))))",
    StageResult: "StageResult(chosen=VarSet({B,C}))",
    GroupingStructure: "GroupingStructure(universe=Universe(names=('A', 'B', 'C')), "
    "groups=(VarSet({A}), VarSet({B,C})))",
    CongruenceReport: "CongruenceReport(congruent=False, missing=Dictionary(2 entries), "
    "extra=Dictionary(0 entries), rule_family=None, method_family=Dictionary(1 entries))",
    Dataset: "Dataset(universe=Universe(names=('A',)), outcome='Y', X=array([[1.],\n"
    "       [2.]]), y=array([3., 4.]))",
    FitResult: "FitResult(subset=VarSet({B,C}), intercept=0.5, coefficients=(1.0, -2.0), "
    "rss=3.0, tss=4.0, k=3)",
    ScoredModel: "ScoredModel(subset=VarSet({B,C}), score=-1.5, intercept=0.5, "
    "coefficients=(1.0, -2.0))",
    RankedModels: "RankedModels(criterion='bic', models=(ScoredModel(subset=VarSet({B,C}), "
    "score=-1.5, intercept=0.5, coefficients=(1.0, -2.0)),))",
}

#: Rule nodes compare as trees and hash bottom-up; datasets compare by identity.
NODES = (Unit, Not, And)
TUPLE_EQUALITY = [cls for cls in FIELDS if cls not in NODES and cls is not Dataset]

CLASSES = pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)


def build(cls):
    return cls(*FIELDS[cls].values())


def same_dataset(a, b):
    return (a.universe, a.outcome) == (b.universe, b.outcome) and all(
        np.array_equal(x, y) for x, y in ((a.X, b.X), (a.y, b.y))
    )


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    record = build(cls)
    for name, value in FIELDS[cls].items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value


@pytest.mark.parametrize("cls", TUPLE_EQUALITY, ids=lambda cls: cls.__name__)
def test_equality_and_hash_are_those_of_the_field_tuple(cls):
    values = tuple(FIELDS[cls].values())
    record, again = build(cls), build(cls)
    assert record == again and not record != again
    assert hash(record) == hash(again) == hash(values)


def test_rule_nodes_compare_as_trees():
    for cls in NODES:
        twin = cls(*(pickle.loads(pickle.dumps(v)) for v in FIELDS[cls].values()))
        assert twin == build(cls) and hash(twin) == hash(build(cls))


def test_datasets_compare_by_identity():
    record = build(Dataset)
    assert record == record and record != build(Dataset)
    assert hash(record) == hash(record)


@CLASSES
def test_never_equal_to_another_class_with_the_same_fields(cls):
    record = build(cls)
    assert record != tuple(FIELDS[cls].values())
    if cls in NODES:
        return  # a subclass is no rule node; the next test covers the node classes
    lookalike = type("Lookalike", (cls,), {"__slots__": ()})(*FIELDS[cls].values())
    assert record != lookalike and lookalike != record


def test_node_classes_with_the_same_fields_differ():
    left, right = FIELDS[And]["left"], FIELDS[And]["right"]
    nodes = [kind(left, right) for kind in (And, Or, Implies, Sequential)]
    nodes.append(Not(Unit(RULE)))  # a Not and a Unit each have one field
    nodes.append(Unit(RULE))
    for i, a in enumerate(nodes):
        for j, b in enumerate(nodes):
            assert (a == b) == (i == j)


@CLASSES
def test_repr(cls):
    assert repr(build(cls)) == REPRS[cls]


@CLASSES
def test_pickle_round_trip(cls):
    record = build(cls)
    again = pickle.loads(pickle.dumps(record))
    assert type(again) is cls and again is not record
    if cls is Dataset:
        assert same_dataset(again, record)
    else:
        assert again == record and hash(again) == hash(record)


@CLASSES
def test_keyword_construction(cls):
    by_keyword = cls(**FIELDS[cls])
    if cls is Dataset:
        assert same_dataset(by_keyword, build(cls))
    else:
        assert by_keyword == build(cls)


def test_congruence_report_family_defaults():
    fields = FIELDS[CongruenceReport]
    short = CongruenceReport(fields["congruent"], fields["missing"], fields["extra"])
    assert (short.rule_family, short.method_family) == (None, None)
    assert short == CongruenceReport(
        congruent=fields["congruent"], missing=fields["missing"], extra=fields["extra"],
        rule_family=None, method_family=None,
    )
    with pytest.raises(TypeError):
        CongruenceReport(fields["congruent"])
    with pytest.raises(TypeError):
        CongruenceReport(*fields.values(), not_a_field=1)
