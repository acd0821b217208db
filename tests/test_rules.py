import math
import random
import warnings

import numpy as np
import pytest

from ruledict.core import ConstraintSet, Dictionary, VarSet, make_universe, powerset
from ruledict.errors import (
    ArityMismatch,
    EnumerationTooLarge,
    InvalidStageResult,
    MissingStageResult,
    ParseError,
    UnsupportedForEquivalence,
)
from ruledict.rules import (
    And,
    Implies,
    Not,
    Or,
    Sequential,
    SequentialScopeWarning,
    StageResult,
    Unit,
    UnitRule,
    combine,
    eval_rule,
    expr_from_json_obj,
    expr_to_json_obj,
    is_coherent,
    rule_from_dictionary,
    rules_equivalent,
    sequential_nodes,
    stage_outcomes,
    unit_dictionary,
)

from oracles import eval_masks, random_rule, random_unit, unit_member_masks


def unit(u, counts, names):
    return Unit(UnitRule(VarSet.of_names(u, names), ConstraintSet.of(*counts)))


@pytest.fixture
def abcd():
    return make_universe(["A", "B", "C", "D"])


@pytest.fixture
def interaction():
    # main effect A, grouped effects B1/B2, grouped interactions AB1/AB2
    return make_universe(["A", "B1", "B2", "AB1", "AB2"])


class TestCoherence:
    def test_count_above_scope_size(self, abcd):
        r = UnitRule(VarSet.of_names(abcd, ["A", "B"]), ConstraintSet.of(3))
        assert not is_coherent(r)

    def test_zero_always_fits(self, abcd):
        r = UnitRule(VarSet.of_names(abcd, ["A", "B"]), ConstraintSet.of(0))
        assert is_coherent(r)
        assert is_coherent(UnitRule(VarSet.empty(abcd), ConstraintSet.of(0)))

    def test_mixed_counts_judged_by_max(self, abcd):
        r = UnitRule(VarSet.of_names(abcd, ["A", "B"]), ConstraintSet.of(0, 5))
        assert not is_coherent(r)

    def test_every_small_count_set(self, abcd):
        for names in ([], ["A"], ["A", "B"], ["A", "B", "C"], ["A", "B", "C", "D"]):
            scope = VarSet.of_names(abcd, names)
            for bits in range(1, 1 << 7):
                counts = ConstraintSet(frozenset(c for c in range(7) if bits >> c & 1))
                assert is_coherent(UnitRule(scope, counts)) == (counts.max <= len(names))

    def test_wide_count_range_is_judged_by_its_size(self, abcd):
        r = UnitRule(VarSet.full(abcd), ConstraintSet.closed_range(0, 10 ** 6))
        assert not is_coherent(r) and len(unit_dictionary(abcd, r)) == 0


class TestUnitDictionary:
    def test_free_selection_is_powerset(self, abcd):
        r = UnitRule(VarSet.full(abcd), ConstraintSet.closed_range(0, 4))
        assert unit_dictionary(abcd, r) == powerset(abcd)

    def test_full_count_range_on_partial_scope_is_powerset(self, abcd):
        # any count 0..|scope| is allowed, so the scope imposes nothing
        r = UnitRule(VarSet.of_names(abcd, ["A", "B"]), ConstraintSet.closed_range(0, 2))
        assert unit_dictionary(abcd, r) == powerset(abcd)

    def test_incoherent_is_empty(self, abcd):
        r = UnitRule(VarSet.of_names(abcd, ["A"]), ConstraintSet.of(2))
        assert len(unit_dictionary(abcd, r)) == 0

    def test_incoherent_even_when_some_count_fits(self, abcd):
        # 0 would fit, but 9 never can, and a rule must honor all its counts
        r = UnitRule(VarSet.of_names(abcd, ["A", "B"]), ConstraintSet.of(0, 9))
        assert len(unit_dictionary(abcd, r)) == 0

    def test_both_or_neither_pair(self):
        u = make_universe(["A", "A2", "B1", "B2", "AB1", "AB2"])
        r = UnitRule(VarSet.of_names(u, ["B1", "B2"]), ConstraintSet.of(0, 2))
        d = unit_dictionary(u, r)
        # 2 scope choices times 2^4 free choices
        assert len(d) == 32
        for v in d:
            assert ("B1" in v) == ("B2" in v)

    def test_exact_size_formula(self, abcd):
        # C(3,1) + C(3,2) = 6 scope choices, one free covariate doubles it
        r = UnitRule(VarSet.of_names(abcd, ["A", "B", "C"]), ConstraintSet.of(1, 2))
        assert len(unit_dictionary(abcd, r)) == 12

    def test_matches_membership_oracle(self):
        rng = random.Random(20260817)
        for _ in range(200):
            size = rng.randint(1, 8)
            u = make_universe([f"v{i}" for i in range(size)])
            r = random_unit(rng, u).rule
            got = set(unit_dictionary(u, r).masks())
            assert got == unit_member_masks(u, r)

    def test_enumeration_cap(self, abcd):
        r = UnitRule(VarSet.full(abcd), ConstraintSet.closed_range(0, 4))
        with pytest.raises(EnumerationTooLarge):
            unit_dictionary(abcd, r, max_entries=15)


class TestCombine:
    def test_not_complements_within_powerset(self, abcd):
        d = Dictionary.from_masks(abcd, [0, 15])
        got = combine("not", abcd, d)
        assert set(got.masks()) == set(range(16)) - {0, 15}

    def test_not_of_powerset_is_empty(self, abcd):
        assert len(combine("not", abcd, powerset(abcd))) == 0

    def test_and_or(self, abcd):
        d1 = Dictionary.from_masks(abcd, [0, 1, 2])
        d2 = Dictionary.from_masks(abcd, [2, 3])
        assert combine("and", abcd, d1, d2).masks() == (2,)
        assert combine("or", abcd, d1, d2).masks() == (0, 1, 2, 3)

    def test_implies_keeps_left_failures(self, abcd):
        d1 = Dictionary.from_masks(abcd, [1, 2])
        d2 = Dictionary.from_masks(abcd, [2, 3])
        got = combine("implies", abcd, d1, d2)
        # everything outside d1, plus the overlap
        assert set(got.masks()) == (set(range(16)) - {1, 2}) | {2}

    def test_arity_checks(self, abcd):
        d = Dictionary.from_masks(abcd, [0])
        with pytest.raises(ArityMismatch):
            combine("not", abcd, d, d)
        with pytest.raises(ArityMismatch):
            combine("and", abcd, d)
        with pytest.raises(ArityMismatch):
            combine("nand", abcd, d, d)


class TestSequentialRestrict:
    """What a sequential rule keeps of its second stage: the entries within the outcome."""

    def test_full_outcome_keeps_everything(self, abcd):
        d2 = Dictionary.from_masks(abcd, [0, 3, 12])
        assert d2.within(VarSet.full(abcd)) == d2

    def test_empty_outcome(self, abcd):
        with_empty = Dictionary.from_masks(abcd, [0, 3])
        without = Dictionary.from_masks(abcd, [3, 12])
        assert with_empty.within(VarSet.empty(abcd)).masks() == (0,)
        assert len(without.within(VarSet.empty(abcd))) == 0

    def test_membership_by_containment(self, abcd):
        d2 = Dictionary.from_masks(abcd, [0b0010, 0b0011, 0b1000, 0b1010, 0b1111])
        kept = d2.within(VarSet.of_names(abcd, ["A", "B"]))
        assert kept.masks() == (0b0010, 0b0011)


class TestEvalRule:
    def test_paired_groups(self, abcd):
        r = And(unit(abcd, [0, 2], ["A", "B"]), unit(abcd, [0, 2], ["C", "D"]))
        assert eval_rule(abcd, r).masks() == (0b0000, 0b0011, 0b1100, 0b1111)

    def test_at_least_one_per_group(self, abcd):
        r = And(unit(abcd, [1, 2], ["A", "B"]), unit(abcd, [1, 2], ["C", "D"]))
        assert eval_rule(abcd, r).masks() == (5, 6, 7, 9, 10, 11, 13, 14, 15)

    def test_interaction_hierarchy(self, interaction):
        u = interaction
        r = And(
            And(unit(u, [0, 2], ["B1", "B2"]), unit(u, [0, 2], ["AB1", "AB2"])),
            Implies(unit(u, [1, 2], ["AB1", "AB2"]), unit(u, [3], ["A", "B1", "B2"])),
        )
        d = eval_rule(u, r)
        assert d.to_json_obj() == [
            [],
            ["A"],
            ["B1", "B2"],
            ["A", "B1", "B2"],
            ["A", "B1", "B2", "AB1", "AB2"],
        ]

    def test_relaxed_interaction_hierarchy(self, interaction):
        u = interaction
        r = And(
            And(unit(u, [0, 2], ["B1", "B2"]), unit(u, [0, 2], ["AB1", "AB2"])),
            Implies(unit(u, [1, 2], ["AB1", "AB2"]), unit(u, [1, 2, 3], ["A", "B1", "B2"])),
        )
        # the relaxed completion requirement admits two extra families
        assert eval_rule(u, r).masks() == (0, 1, 6, 7, 25, 30, 31)

    def test_conditional_pairing(self, abcd):
        first = And(unit(abcd, [0, 2], ["A", "B"]), unit(abcd, [0, 2], ["C", "D"]))
        second = And(
            Implies(unit(abcd, [1], ["A"]), unit(abcd, [1], ["B"])),
            Implies(unit(abcd, [1], ["C"]), unit(abcd, [1], ["D"])),
        )
        assert eval_rule(abcd, second).masks() == (0, 2, 3, 8, 10, 11, 12, 14, 15)
        seq = Sequential(first, second)
        chosen = StageResult(VarSet.of_names(abcd, ["A", "B"]))
        got = eval_rule(abcd, seq, stages={seq: chosen})
        assert got.masks() == (0, 2, 3)

    def test_missing_stage(self, abcd):
        seq = Sequential(unit(abcd, [0, 2], ["A", "B"]), unit(abcd, [0, 1, 2], ["A", "B"]))
        with pytest.raises(MissingStageResult):
            eval_rule(abcd, seq)

    def test_invalid_stage(self, abcd):
        seq = Sequential(unit(abcd, [0, 2], ["A", "B"]), unit(abcd, [0, 1, 2], ["A", "B"]))
        bad = StageResult(VarSet.of_names(abcd, ["A"]))
        with pytest.raises(InvalidStageResult):
            eval_rule(abcd, seq, stages={seq: bad})

    def test_deterministic(self, interaction):
        u = interaction
        r = Or(Not(unit(u, [1], ["A"])), unit(u, [2], ["B1", "B2"]))
        assert eval_rule(u, r).masks() == eval_rule(u, r).masks()

    def test_matches_set_algebra_oracle(self):
        rng = random.Random(20260818)
        for _ in range(120):
            size = rng.randint(1, 6)
            u = make_universe([f"v{i}" for i in range(size)])
            expr = random_rule(rng, u, depth=3)
            assert set(eval_rule(u, expr).masks()) == eval_masks(u, expr, {})


class TestScopeWarning:
    def _disjoint_stages(self, u):
        left = And(unit(u, [0, 1], ["A"]), unit(u, [0], ["B"]))
        right = And(unit(u, [0, 1], ["B"]), unit(u, [0], ["A"]))
        return Sequential(left, right)

    def test_warns_on_support_mismatch(self):
        u = make_universe(["A", "B"])
        seq = self._disjoint_stages(u)
        chosen = StageResult(VarSet.empty(u))
        with pytest.warns(SequentialScopeWarning):
            got = eval_rule(u, seq, stages={seq: chosen})
        # the warning is advisory; the restriction itself still runs
        assert got.masks() == (0,)

    def test_warns_from_stage_enumeration_too(self):
        u = make_universe(["A", "B"])
        with pytest.warns(SequentialScopeWarning):
            stage_outcomes(u, self._disjoint_stages(u))

    def test_silent_when_supports_match(self, abcd):
        seq = Sequential(
            unit(abcd, [0, 2], ["A", "B"]), unit(abcd, [0, 1, 2], ["A", "B"])
        )
        chosen = StageResult(VarSet.of_names(abcd, ["A", "B"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            eval_rule(abcd, seq, stages={seq: chosen})


class TestStageOutcomes:
    def test_pairs_then_free_completion(self, abcd):
        first = And(unit(abcd, [0, 2], ["A", "B"]), unit(abcd, [0, 2], ["C", "D"]))
        second = And(unit(abcd, [0, 1, 2], ["A", "B"]), unit(abcd, [0, 1, 2], ["C", "D"]))
        pairs = stage_outcomes(abcd, Sequential(first, second))
        assert [(m.mask, len(d)) for m, d in pairs] == [
            (0b0000, 1),
            (0b0011, 4),
            (0b1100, 4),
            (0b1111, 16),
        ]
        # each per-outcome dictionary is the subsets of that outcome
        for m, d in pairs:
            assert all(v.issubset(m) for v in d)

    def test_order_follows_first_stage(self, abcd):
        first = unit(abcd, [0, 2], ["A", "B"])
        second = unit(abcd, [0, 1, 2], ["A", "B"])
        pairs = stage_outcomes(abcd, Sequential(first, second))
        assert [m.mask for m, _ in pairs] == list(eval_rule(abcd, first).masks())


class TestSequentialNodes:
    def test_document_order(self, abcd):
        s1 = Sequential(unit(abcd, [0], ["A"]), unit(abcd, [0], ["A"]))
        s2 = Sequential(unit(abcd, [0], ["B"]), unit(abcd, [0], ["B"]))
        found = sequential_nodes(And(s1, s2))
        assert found == [s1, s2]

    def test_none_found(self, abcd):
        assert sequential_nodes(unit(abcd, [0], ["A"])) == []


class TestEquivalence:
    def test_commuted_conjunction(self, abcd):
        a = unit(abcd, [0, 2], ["A", "B"])
        b = unit(abcd, [1, 2], ["C", "D"])
        assert rules_equivalent(abcd, And(a, b), And(b, a))

    def test_distinct_counts(self, abcd):
        assert not rules_equivalent(
            abcd, unit(abcd, [0], ["A"]), unit(abcd, [1], ["A"])
        )

    def test_sequential_unsupported(self, abcd):
        seq = Sequential(unit(abcd, [0], ["A"]), unit(abcd, [0], ["A"]))
        with pytest.raises(UnsupportedForEquivalence):
            rules_equivalent(abcd, seq, seq)
        with pytest.raises(UnsupportedForEquivalence):
            rules_equivalent(abcd, unit(abcd, [0], ["A"]), Not(seq))


class TestRuleFromDictionary:
    def test_single_empty_entry(self, abcd):
        d = Dictionary.from_masks(abcd, [0])
        assert eval_rule(abcd, rule_from_dictionary(abcd, d)) == d

    def test_empty_dictionary_maps_to_incoherent_rule(self, abcd):
        d = Dictionary(abcd)
        r = rule_from_dictionary(abcd, d)
        assert isinstance(r, Unit) and not is_coherent(r.rule)
        assert len(eval_rule(abcd, r)) == 0

    def test_round_trip(self, abcd):
        d = Dictionary.from_masks(abcd, [5, 6, 7, 9, 10, 11, 13, 14, 15])
        assert eval_rule(abcd, rule_from_dictionary(abcd, d)) == d

    def test_random_round_trips(self):
        rng = np.random.default_rng(20260819)
        for _ in range(60):
            size = int(rng.integers(0, 7))
            u = make_universe([f"v{i}" for i in range(size)])
            n = 1 << size
            picks = [m for m in range(n) if rng.random() < 0.4]
            d = Dictionary.from_masks(u, picks)
            assert eval_rule(u, rule_from_dictionary(u, d)) == d


class TestTraversal:
    def test_equality_is_structural(self, abcd):
        a, b = unit(abcd, [1], ["A"]), unit(abcd, [1], ["B"])
        assert And(a, Or(a, b)) == And(unit(abcd, [1], ["A"]), Or(a, b))
        assert hash(And(a, Or(a, b))) == hash(And(unit(abcd, [1], ["A"]), Or(a, b)))
        assert And(a, And(a, b)) != And(And(a, b), a)
        assert And(a, b) != Or(a, b)
        assert Not(a) != a
        assert a != "select {1} of {A}"
        assert len({Implies(a, b), Implies(a, b), Sequential(a, b)}) == 2

    def test_non_nodes_are_type_errors(self, abcd):
        bad = And(unit(abcd, [1], ["A"]), "select {1} of {B}")
        for walk in (lambda e: eval_rule(abcd, e), expr_to_json_obj, sequential_nodes, hash):
            with pytest.raises(TypeError, match="not a rule expression"):
                walk(bad)

    def test_errors_come_in_left_to_right_post_order(self, abcd):
        seq = Sequential(unit(abcd, [0, 2], ["A", "B"]), unit(abcd, [0, 1, 2], ["A", "B"]))
        other = Sequential(unit(abcd, [1], ["C"]), unit(abcd, [1], ["C"]))
        bad = StageResult(VarSet.of_names(abcd, ["A"]))
        # The left operator's invalid stage is reported before the right one's missing stage.
        with pytest.raises(InvalidStageResult):
            eval_rule(abcd, And(seq, other), stages={seq: bad})
        with pytest.raises(MissingStageResult):
            eval_rule(abcd, And(other, seq), stages={seq: bad})

    def test_scope_warning_points_at_the_caller(self):
        u = make_universe(["A", "B"])
        seq = Sequential(
            And(unit(u, [0, 1], ["A"]), unit(u, [0], ["B"])),
            And(unit(u, [0, 1], ["B"]), unit(u, [0], ["A"])),
        )
        with pytest.warns(SequentialScopeWarning) as record:
            eval_rule(u, Not(seq), stages={seq: StageResult(VarSet.empty(u))})
        assert record[0].filename == __file__


class TestExprJson:
    def test_round_trip(self, interaction):
        u = interaction
        seq = Sequential(unit(u, [0, 2], ["B1", "B2"]), unit(u, [0, 1, 2], ["B1", "B2"]))
        expr = And(Or(Not(unit(u, [1], ["A"])), seq), unit(u, [2], ["AB1", "AB2"]))
        obj = expr_to_json_obj(expr)
        assert expr_from_json_obj(u, obj) == expr

    def test_unit_shape(self, abcd):
        obj = expr_to_json_obj(unit(abcd, [2, 0], ["B", "A"]))
        assert obj == {"op": "unit", "counts": [0, 2], "scope": ["A", "B"]}

    def test_unknown_op_rejected(self, abcd):
        with pytest.raises(ArityMismatch):
            expr_from_json_obj(abcd, {"op": "xor"})

    def test_non_string_op_rejected(self, abcd):
        with pytest.raises(ParseError):
            expr_from_json_obj(abcd, {"op": ["and"], "left": {}, "right": {}})


def _count_in(scope_mask, counts):
    return lambda m: (m & scope_mask).bit_count() in counts


@pytest.mark.parametrize("n", [20, 21, 24, 25, 40, 64])
class TestLargeUniverses:
    """Both dictionary representations and the boundary between them.

    Up to 20 covariates a dictionary is a bitmap, above that a mask
    tuple. Each unit scope leaves 6 covariates free, so high bits are
    set and the dictionaries stay small; membership is checked against
    the per-mask popcount predicate.
    """

    def units(self, n):
        rng = random.Random(20261018 + n)
        u = make_universe([f"v{i}" for i in range(n)])
        out = []
        for counts_of in (lambda s: {0, 1, s}, lambda s: {s - 1, s}):
            free = rng.sample(range(n), 6)
            scope = u.full_mask & ~sum(1 << i for i in free)
            counts = counts_of(scope.bit_count())
            rule = UnitRule(VarSet(u, scope), ConstraintSet(frozenset(counts)))
            out.append((Unit(rule), scope, counts))
        return u, rng, out

    def probes(self, rng, u, listed):
        """1,000 seeded masks: half uniform, half a listed mask with one bit flipped."""
        out = [rng.getrandbits(u.size) for _ in range(500)]
        out += [rng.choice(listed) ^ 1 << rng.randrange(u.size) for _ in range(500)]
        return out

    def assert_exact(self, rng, u, d, member, size):
        masks = d.masks()
        assert len(d) == size
        assert list(masks) == sorted(set(masks))
        assert all(member(m) for m in masks)
        for m in self.probes(rng, u, masks):
            assert (VarSet(u, m) in d) == member(m)

    def test_units_and_or(self, n):
        u, rng, ((e1, s1, c1), (e2, s2, c2)) = self.units(n)
        p1, p2 = _count_in(s1, c1), _count_in(s2, c2)
        d1, d2 = eval_rule(u, e1), eval_rule(u, e2)
        for d, scope, counts, p in ((d1, s1, c1, p1), (d2, s2, c2, p2)):
            width = scope.bit_count()
            size = sum(math.comb(width, c) for c in counts) << (n - width)
            self.assert_exact(rng, u, d, p, size)
        both = sum(1 for m in d1.masks() if p2(m))
        self.assert_exact(rng, u, eval_rule(u, And(e1, e2)), lambda m: p1(m) and p2(m), both)
        self.assert_exact(
            rng, u, eval_rule(u, Or(e1, e2)), lambda m: p1(m) or p2(m), len(d1) + len(d2) - both
        )

    def test_sequential_stage(self, n):
        u, rng, ((e1, s1, c1), (e2, s2, c2)) = self.units(n)
        d1 = eval_rule(u, e1)
        chosen = max(d1.masks())
        node = Sequential(e1, e2)
        d = eval_rule(u, node, stages={node: StageResult(VarSet(u, chosen))})
        p2 = _count_in(s2, c2)
        inside = lambda m: p2(m) and not m & ~chosen
        size = sum(1 for m in eval_rule(u, e2).masks() if inside(m))
        assert size > 0
        self.assert_exact(rng, u, d, inside, size)
