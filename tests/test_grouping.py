import random
from functools import reduce
from operator import or_

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruledict.core import DEFAULT_MAX_ENUM, Dictionary, VarSet, make_universe, powerset
from ruledict.errors import (
    EnumerationTooLarge,
    IncompatibleGrouping,
    InvalidGrouping,
    ParseError,
    SynthesisFailure,
    UseClosureInstead,
)
from ruledict.grouping import (
    CongruenceReport,
    GroupingStructure,
    Method,
    check_compatibility,
    check_log_congruence,
    check_ogl_necessary,
    method_rule,
    synthesize_log_grouping,
    union_closure,
)
from ruledict.rules import eval_rule

from oracles import (
    closure_by_enumeration,
    closure_by_sets,
    first_union_gap,
    irreducible_generators,
    lift,
    ogl_families,
    random_covering_groups,
)


@pytest.fixture
def ab():
    return make_universe(["A", "B"])


@pytest.fixture
def abcd():
    return make_universe(["A", "B", "C", "D"])


@pytest.fixture
def interaction():
    return make_universe(["A", "B1", "B2", "AB1", "AB2"])


def grouping(u, *name_lists):
    return GroupingStructure.of_names(u, name_lists)


class TestGroupingStructure:
    def test_masks_and_disjointness(self, abcd):
        g = grouping(abcd, ["A", "B"], ["C", "D"])
        assert g.masks() == (0b0011, 0b1100)
        assert g.is_disjoint()
        overlapping = grouping(abcd, ["A", "B"], ["B", "C"], ["D"])
        assert not overlapping.is_disjoint()

    def test_no_groups(self, abcd):
        with pytest.raises(InvalidGrouping):
            GroupingStructure(abcd, ())

    def test_no_groups_cover_only_the_empty_universe(self, abcd):
        empty = make_universe([])
        assert GroupingStructure(empty, ()).masks() == ()
        assert GroupingStructure.from_text(empty, "# no groups\n") == GroupingStructure(empty, ())
        with pytest.raises(InvalidGrouping, match="groups do not cover {A,B,C,D}"):
            GroupingStructure(abcd, ())

    def test_empty_group(self, abcd):
        with pytest.raises(InvalidGrouping):
            GroupingStructure(abcd, (VarSet.empty(abcd), VarSet.full(abcd)))

    def test_duplicate_group(self, abcd):
        with pytest.raises(InvalidGrouping):
            grouping(abcd, ["A", "B"], ["B", "A"], ["C", "D"])

    def test_cover_required(self, abcd):
        with pytest.raises(InvalidGrouping) as exc:
            grouping(abcd, ["A", "B"], ["D"])
        assert "{C}" in str(exc.value)

    def test_universe_mismatch(self, ab, abcd):
        with pytest.raises(InvalidGrouping):
            GroupingStructure(abcd, (VarSet.full(ab),))

    def test_text_round_trip(self, abcd):
        g = grouping(abcd, ["A"], ["B", "C"], ["D"])
        text = g.to_text()
        assert text == "{A}\n{B,C}\n{D}"
        again = GroupingStructure.from_text(abcd, "# groups\n" + text + "\n")
        assert again == g

    def test_text_errors_name_their_line(self, abcd):
        with pytest.raises(ParseError, match="^expected a brace-delimited set at line 3, got 'A,B'$"):
            GroupingStructure.from_text(abcd, "{A}\n# {B}\nA,B\n{C,D}\n")
        with pytest.raises(ParseError, match="^empty name in set at line 2: '{B,}'$"):
            GroupingStructure.from_text(abcd, "{A}\n  {B,} # trailing comma\n")

    def test_json_round_trip(self, abcd):
        g = grouping(abcd, ["A", "B"], ["C", "D"])
        obj = g.to_json_obj()
        assert obj == [["A", "B"], ["C", "D"]]
        assert GroupingStructure.from_json_obj(abcd, obj) == g

    def test_json_shape_checked(self, abcd):
        with pytest.raises(InvalidGrouping):
            GroupingStructure.from_json_obj(abcd, {"groups": []})
        with pytest.raises(InvalidGrouping):
            GroupingStructure.from_json_obj(abcd, ["A", "B"])


class TestUnionClosure:
    def test_singletons_give_powerset(self, ab):
        g = grouping(ab, ["A"], ["B"])
        assert union_closure(g) == powerset(ab)

    def test_single_group(self, ab):
        g = grouping(ab, ["A", "B"])
        assert union_closure(g).masks() == (0b00, 0b11)

    def test_overlapping_groups(self, interaction):
        g = grouping(
            interaction, ["A"], ["B1", "B2"], ["A", "B1", "B2", "AB1", "AB2"]
        )
        assert union_closure(g).masks() == (0, 1, 6, 7, 31)

    def test_always_contains_empty_and_full(self, abcd):
        g = grouping(abcd, ["A", "B", "C"], ["B", "C", "D"])
        closure = union_closure(g)
        assert VarSet.empty(abcd) in closure
        assert VarSet.full(abcd) in closure

    def test_pairwise_union_closed(self, abcd):
        g = grouping(abcd, ["A", "B"], ["B", "C"], ["D"])
        masks = set(union_closure(g).masks())
        for a in masks:
            for b in masks:
                assert a | b in masks

    def test_matches_subfamily_enumeration(self):
        rng = random.Random(20260821)
        for _ in range(150):
            size = rng.randint(1, 10)
            u = make_universe([f"v{i}" for i in range(size)])
            g = random_covering_groups(rng, u)
            assert len(g.groups) <= 12
            got = set(union_closure(g).masks())
            want = closure_by_enumeration(size, g.masks())
            assert got == want

    def test_cap(self):
        u = make_universe([f"v{i}" for i in range(10)])
        g = GroupingStructure(u, tuple(VarSet.of_indices(u, [i]) for i in range(10)))
        with pytest.raises(EnumerationTooLarge):
            union_closure(g, max_entries=100)

    def test_cap_is_the_closure_size(self):
        u = make_universe([f"v{i}" for i in range(6)])
        g = GroupingStructure(u, tuple(VarSet.of_indices(u, [i, i + 1]) for i in range(5)))
        size = len(closure_by_enumeration(6, g.masks()))
        assert len(union_closure(g, max_entries=size)) == size
        with pytest.raises(EnumerationTooLarge):
            union_closure(g, max_entries=size - 1)


class TestLogCongruence:
    def test_congruent(self, ab):
        d = Dictionary.from_masks(ab, [0, 3])
        report = check_log_congruence(d, grouping(ab, ["A", "B"]))
        assert report.congruent
        assert len(report.missing) == 0 and len(report.extra) == 0
        assert report.rule_family is None and report.method_family is None

    def test_missing_entries(self, ab):
        report = check_log_congruence(powerset(ab), grouping(ab, ["A", "B"]))
        assert not report.congruent
        assert report.missing.masks() == (1, 2)
        assert len(report.extra) == 0

    def test_extra_entries(self, ab):
        d = Dictionary.from_masks(ab, [0, 3])
        report = check_log_congruence(d, grouping(ab, ["A"], ["B"]))
        assert not report.congruent
        assert len(report.missing) == 0
        assert report.extra.masks() == (1, 2)

    def test_hierarchy_dictionary(self, interaction):
        d = Dictionary.from_masks(interaction, [0, 1, 6, 7, 31])
        g = grouping(
            interaction, ["A"], ["B1", "B2"], ["A", "B1", "B2", "AB1", "AB2"]
        )
        assert check_log_congruence(d, g).congruent


class TestOglNecessary:
    def test_single_group_whole_universe(self, ab):
        d = Dictionary.from_masks(ab, [0])
        report = check_ogl_necessary(d, grouping(ab, ["A", "B"]))
        assert report.congruent

    def test_singletons_against_powerset(self, ab):
        report = check_ogl_necessary(powerset(ab), grouping(ab, ["A"], ["B"]))
        assert report.congruent

    def test_full_universe_ignored_on_both_sides(self, ab):
        d = Dictionary.from_masks(ab, [0, 3])
        report = check_ogl_necessary(d, grouping(ab, ["A", "B"]))
        assert report.congruent
        assert report.rule_family.masks() == (0,)
        assert report.method_family.masks() == (0,)

    def test_hierarchy_grouping_fails_here(self, interaction):
        # this grouping passes the latent check but not the plain one
        d = Dictionary.from_masks(interaction, [0, 1, 6, 7, 31])
        g = grouping(
            interaction, ["A"], ["B1", "B2"], ["A", "B1", "B2", "AB1", "AB2"]
        )
        report = check_ogl_necessary(d, g)
        assert not report.congruent
        assert report.missing.to_json_obj() == [["A"], ["B1", "B2"], ["A", "B1", "B2"]]
        assert report.extra.to_json_obj() == [
            ["AB1", "AB2"],
            ["A", "AB1", "AB2"],
            ["B1", "B2", "AB1", "AB2"],
        ]

    def test_verdict_matches_enumeration_oracle(self):
        rng = random.Random(20260822)
        for _ in range(100):
            size = rng.randint(1, 8)
            u = make_universe([f"v{i}" for i in range(size)])
            g = random_covering_groups(rng, u)
            n_masks = rng.randint(1, 5)
            d = Dictionary.from_masks(
                u, [rng.randrange(1 << size) for _ in range(n_masks)]
            )
            report = check_ogl_necessary(d, g)
            closure = closure_by_enumeration(size, g.masks())
            comps = {u.full_mask & ~m for m in closure} - {u.full_mask}
            want = set(d.masks()) - {u.full_mask} == comps
            assert report.congruent == want


class TestSynthesis:
    def test_powerset_gives_singletons(self):
        u = make_universe(["A", "B", "C"])
        g = synthesize_log_grouping(powerset(u))
        assert g.masks() == (1, 2, 4)

    def test_hierarchy_dictionary(self, interaction):
        d = Dictionary.from_masks(interaction, [0, 1, 6, 7, 31])
        g = synthesize_log_grouping(d)
        assert g.to_json_obj() == [
            ["A"],
            ["B1", "B2"],
            ["A", "B1", "B2", "AB1", "AB2"],
        ]

    def test_minimal_grouping_can_be_smaller_than_a_congruent_one(self, interaction):
        d = Dictionary.from_masks(interaction, [0, 1, 6, 7, 25, 30, 31])
        five_groups = grouping(
            interaction,
            ["A"],
            ["B1", "B2"],
            ["A", "B1", "B2", "AB1", "AB2"],
            ["A", "AB1", "AB2"],
            ["B1", "B2", "AB1", "AB2"],
        )
        assert check_log_congruence(d, five_groups).congruent
        synthesized = synthesize_log_grouping(d)
        # the full-universe group is a union of the others, so it drops out
        assert synthesized.masks() == (1, 6, 25, 30)

    def test_missing_empty_set(self, ab):
        with pytest.raises(SynthesisFailure) as exc:
            synthesize_log_grouping(Dictionary.from_masks(ab, [3]))
        assert exc.value.reason == "missing-empty-set"

    def test_missing_full_set(self, ab):
        with pytest.raises(SynthesisFailure) as exc:
            synthesize_log_grouping(Dictionary.from_masks(ab, [0, 1]))
        assert exc.value.reason == "missing-full-set"

    def test_union_gap_with_witness(self):
        u = make_universe(["A", "B", "C"])
        d = Dictionary.from_masks(u, [0, 1, 2, 7])
        with pytest.raises(SynthesisFailure) as exc:
            synthesize_log_grouping(d)
        err = exc.value
        assert err.reason == "not-union-closed"
        a, b = err.witness
        assert {a.mask, b.mask} == {1, 2}

    def test_closure_round_trip(self):
        rng = random.Random(20260823)
        for _ in range(150):
            size = rng.randint(1, 8)
            u = make_universe([f"v{i}" for i in range(size)])
            g = random_covering_groups(rng, u)
            d = union_closure(g)
            g2 = synthesize_log_grouping(d)
            assert union_closure(g2) == d

    def test_synthesized_grouping_is_minimal(self):
        rng = random.Random(20260824)
        checked = 0
        for _ in range(120):
            size = rng.randint(2, 7)
            u = make_universe([f"v{i}" for i in range(size)])
            g = random_covering_groups(rng, u)
            d = union_closure(g)
            g2 = synthesize_log_grouping(d)
            if len(g2.groups) < 2:
                continue
            checked += 1
            for drop in range(len(g2.groups)):
                kept = [m for i, m in enumerate(g2.masks()) if i != drop]
                assert closure_by_enumeration(size, tuple(kept)) != set(d.masks())
        assert checked >= 40

    def test_deterministic(self, interaction):
        d = Dictionary.from_masks(interaction, [0, 1, 6, 7, 31])
        assert synthesize_log_grouping(d) == synthesize_log_grouping(d)


@st.composite
def groupings(draw, max_vars=10, min_vars=1):
    """A covering grouping over ``min_vars`` to ``max_vars`` covariates."""
    n = draw(st.integers(min_vars, max_vars))
    u = make_universe([f"v{i}" for i in range(n)])
    masks = draw(st.lists(st.integers(1, u.full_mask), min_size=1, max_size=6, unique=True))
    leftover = u.full_mask & ~reduce(or_, masks)
    if leftover:
        masks.append(leftover)
    return GroupingStructure(u, tuple(VarSet(u, m) for m in masks))


@st.composite
def near_closures(draw):
    """A grouping and its union closure with up to three masks toggled."""
    g = draw(groupings())
    toggled = draw(st.sets(st.integers(0, g.universe.full_mask), max_size=3))
    return g, closure_by_sets(g.masks(), DEFAULT_MAX_ENUM) ^ toggled


class TestBitmapPathMatchesOracles:
    """The bitmap transforms against the pairwise and set-based references."""

    @given(groupings(), st.integers(-2, 1))
    def test_closure_and_its_cap(self, g, slack):
        cap = max(1, len(closure_by_sets(g.masks(), DEFAULT_MAX_ENUM)) + slack)
        try:
            want = closure_by_sets(g.masks(), cap)
        except EnumerationTooLarge:
            with pytest.raises(EnumerationTooLarge):
                union_closure(g, max_entries=cap)
        else:
            assert union_closure(g, max_entries=cap).masks() == tuple(sorted(want))

    @given(near_closures())
    def test_synthesis_groups_or_witness(self, case):
        g, masks = case
        u = g.universe
        d = Dictionary.from_masks(u, masks)
        if 0 not in masks or u.full_mask not in masks:
            with pytest.raises(SynthesisFailure) as exc:
                synthesize_log_grouping(d)
            assert exc.value.reason in ("missing-empty-set", "missing-full-set")
            return
        gap = first_union_gap(masks)
        if gap is None:
            assert synthesize_log_grouping(d).masks() == tuple(irreducible_generators(masks))
        else:
            with pytest.raises(SynthesisFailure) as exc:
                synthesize_log_grouping(d)
            assert exc.value.reason == "not-union-closed"
            assert tuple(v.mask for v in exc.value.witness) == gap

    @given(near_closures())
    def test_ogl_families(self, case):
        g, masks = case
        d = Dictionary.from_masks(g.universe, masks)
        rule, method = ogl_families(
            g.universe.size, masks, closure_by_sets(g.masks(), DEFAULT_MAX_ENUM)
        )
        report = check_ogl_necessary(d, g)
        assert report.rule_family.masks() == tuple(sorted(rule))
        assert report.method_family.masks() == tuple(sorted(method))
        assert report.missing.masks() == tuple(sorted(rule - method))
        assert report.extra.masks() == tuple(sorted(method - rule))
        assert report.congruent == (rule == method)

    @pytest.mark.parametrize("scope", [0b11100000, 0b01010010])
    @pytest.mark.parametrize("counts", [(0, 1, 3), (0, 2, 3), (0, 1, 2, 3), (0, 3)])
    def test_witness_next_to_free_variables(self, scope, counts):
        u = make_universe([f"v{i}" for i in range(8)])
        masks = {m for m in range(1 << 8) if (m & scope).bit_count() in counts}
        d = Dictionary.from_masks(u, masks)
        gap = first_union_gap(masks)
        if gap is None:
            assert synthesize_log_grouping(d).masks() == tuple(irreducible_generators(masks))
        else:
            with pytest.raises(SynthesisFailure) as exc:
                synthesize_log_grouping(d)
            assert tuple(v.mask for v in exc.value.witness) == gap

    def test_tuple_path_above_the_bitmap_boundary(self):
        u = make_universe([f"v{i}" for i in range(21)])
        masks = (0b11, 0b110, 1 << 5, 0b111 << 10, u.full_mask)
        g = GroupingStructure(u, tuple(VarSet(u, m) for m in masks))
        closure = closure_by_sets(masks, DEFAULT_MAX_ENUM)
        d = union_closure(g)
        assert d.masks() == tuple(sorted(closure))
        assert set(d.masks()) == closure_by_enumeration(u.size, masks)
        synthesized = synthesize_log_grouping(d)
        assert synthesized.masks() == tuple(irreducible_generators(closure))
        # No input group is a union of the others, so they come back sorted.
        assert synthesized.masks() == tuple(sorted(masks))
        assert union_closure(synthesized) == d
        rule, method = ogl_families(u.size, closure, closure)
        report = check_ogl_necessary(d, g)
        assert report.rule_family.masks() == tuple(sorted(rule))
        assert report.method_family.masks() == tuple(sorted(method))
        assert all(u.full_mask & ~m in closure for m in report.method_family.masks())
        assert len(report.method_family) == len(closure) - 1
        for dropped, witness in [(0b111, (0b11, 0b110)), (0b111 << 10 | 1 << 5, (1 << 5, 0b111 << 10))]:
            gappy = closure - {dropped}
            with pytest.raises(SynthesisFailure) as exc:
                synthesize_log_grouping(Dictionary.from_masks(u, gappy))
            a, b = (v.mask for v in exc.value.witness)
            assert (a, b) == witness == first_union_gap(gappy)
            assert a | b not in gappy
            ordered = sorted(gappy)
            earlier = [(x, y) for x in ordered for y in ordered if x < y and (x, y) < (a, b)]
            assert all(x | y in gappy for x, y in earlier)
        with pytest.raises(EnumerationTooLarge):
            union_closure(g, max_entries=len(closure) - 1)


@st.composite
def eight_variable_cases(draw):
    """An 8-variable grouping and its union closure with up to three masks toggled."""
    g = draw(groupings(min_vars=8, max_vars=8))
    toggled = draw(st.sets(st.integers(0, 0xFF), max_size=3))
    return g, closure_by_sets(g.masks(), DEFAULT_MAX_ENUM) ^ toggled


def _synthesis(u, family):
    """The synthesized group masks, or the failure reason and its witness masks."""
    try:
        return "groups", synthesize_log_grouping(Dictionary.from_masks(u, family)).masks()
    except SynthesisFailure as exc:
        return exc.reason, tuple(v.mask for v in exc.witness or ())


class TestStoragesAgree:
    """The same families on both sides of the storage boundary, related by φ."""

    @given(eight_variable_cases())
    def test_lifted_results_map_through_phi(self, case):
        g8, masks8 = case
        u21 = make_universe([f"v{i}" for i in range(21)])
        g21 = GroupingStructure(u21, tuple(VarSet(u21, lift(m)) for m in g8.masks()))
        results = []
        for g, masks in ((g8, masks8), (g21, {lift(m) for m in masks8})):
            u = g.universe
            closure, got_closure = closure_by_sets(g.masks(), DEFAULT_MAX_ENUM), union_closure(g)
            assert got_closure.masks() == tuple(sorted(closure))
            rule, method = ogl_families(u.size, masks, closure)
            report = check_ogl_necessary(Dictionary.from_masks(u, masks), g)
            assert report.rule_family.masks() == tuple(sorted(rule))
            assert report.method_family.masks() == tuple(sorted(method))
            kind, got = _synthesis(u, masks)
            if kind == "groups":
                assert got == tuple(irreducible_generators(masks))
            elif kind == "not-union-closed":
                assert got == first_union_gap(masks)
            closed = Dictionary.from_masks(u, masks).union_generators()[1]
            assert closed == (0 in masks and first_union_gap(masks) is None)
            results.append((got_closure, report, kind, got))
        (closure8, report8, kind8, got8), (closure21, report21, kind21, got21) = results
        assert closure21.masks() == tuple(map(lift, closure8.masks()))
        for name in ("rule_family", "method_family", "missing", "extra"):
            assert getattr(report21, name).masks() == tuple(map(lift, getattr(report8, name).masks()))
        assert (kind21, got21) == (kind8, tuple(map(lift, got8)))

    @pytest.mark.parametrize("dropped", [None, 0b1111, 0b11111, 0b1111111])
    def test_many_generators(self, dropped):
        """The empty set and every set of at least 4 of 8 variables, generated by its 70 4-sets.

        Dropping a 4-set keeps it union-closed; dropping a larger set does not.
        """
        masks8 = {m for m in range(1 << 8) if m == 0 or m.bit_count() >= 4} - {dropped}
        results = []
        for n, masks in ((8, masks8), (21, {lift(m) for m in masks8})):
            u = make_universe([f"v{i}" for i in range(n)])
            generators, closed = Dictionary.from_masks(u, masks).union_generators()
            kind, got = _synthesis(u, masks)
            if first_union_gap(masks) is None:
                assert closed and kind == "groups"
                assert got == generators.masks() == tuple(irreducible_generators(masks))
            else:
                assert not closed and (kind, got) == ("not-union-closed", first_union_gap(masks))
            results.append((kind, got))
        (kind8, got8), (kind21, got21) = results
        if dropped is None:
            assert len(got8) == 70
        assert (kind21, got21) == (kind8, tuple(map(lift, got8)))


def test_witness_search_tries_generators_only(monkeypatch):
    """A late witness at 17 variables: every subset of v0..v13 is an entry and joins cleanly.

    Only the 14 singletons among them are generators, so the search
    reaches {v14} after 14 calls instead of 2**14.
    """
    u = make_universe([f"v{i}" for i in range(17)])
    d = Dictionary.of_counts(u, 0b111 << 14, (0, 1, 3))
    calls = []
    unjoinable = Dictionary.unjoinable
    monkeypatch.setattr(Dictionary, "unjoinable", lambda self, a: calls.append(a) or unjoinable(self, a))
    with pytest.raises(SynthesisFailure) as exc:
        synthesize_log_grouping(d)
    assert tuple(v.mask for v in exc.value.witness) == (1 << 14, 1 << 15)
    assert len(calls) <= 15


class TestCompatibility:
    def test_lasso_needs_singletons(self, abcd):
        singles = grouping(abcd, ["A"], ["B"], ["C"], ["D"])
        pairs = grouping(abcd, ["A", "B"], ["C", "D"])
        for m in (Method.LASSO, Method.ADAPTIVE_LASSO):
            assert check_compatibility(m, singles)
            assert not check_compatibility(m, pairs)

    def test_group_penalties_need_partition(self, abcd):
        pairs = grouping(abcd, ["A", "B"], ["C", "D"])
        overlap = grouping(abcd, ["A", "B"], ["B", "C"], ["D"])
        for m in (Method.GROUP_LASSO, Method.EXCLUSIVE_GROUP_LASSO):
            assert check_compatibility(m, pairs)
            assert not check_compatibility(m, overlap)

    def test_latent_overlapping_accepts_anything(self, abcd):
        overlap = grouping(abcd, ["A", "B"], ["B", "C"], ["D"])
        assert check_compatibility(Method.LATENT_OVERLAPPING_GROUP_LASSO, overlap)

    def test_display_metadata(self):
        for m in Method:
            assert m.display_name
            assert m.penalty_description


class TestMethodRule:
    def test_lasso_rule_is_free_selection(self, abcd):
        singles = grouping(abcd, ["A"], ["B"], ["C"], ["D"])
        expr = method_rule(Method.LASSO, singles)
        assert eval_rule(abcd, expr) == powerset(abcd)

    def test_group_lasso_pairs(self, abcd):
        pairs = grouping(abcd, ["A", "B"], ["C", "D"])
        expr = method_rule(Method.GROUP_LASSO, pairs)
        assert eval_rule(abcd, expr).masks() == (0b0000, 0b0011, 0b1100, 0b1111)

    def test_exclusive_group_lasso_pairs(self, abcd):
        pairs = grouping(abcd, ["A", "B"], ["C", "D"])
        expr = method_rule(Method.EXCLUSIVE_GROUP_LASSO, pairs)
        assert eval_rule(abcd, expr).masks() == (5, 6, 7, 9, 10, 11, 13, 14, 15)

    def test_matches_per_group_count_filter(self):
        rng = np.random.default_rng(20260825)
        for _ in range(60):
            size = int(rng.integers(2, 9))
            u = make_universe([f"v{i}" for i in range(size)])
            order = rng.permutation(size)
            cuts = sorted(
                set(rng.integers(1, size, size=int(rng.integers(0, 3))).tolist())
            )
            bounds = [0] + cuts + [size]
            masks = []
            for lo, hi in zip(bounds, bounds[1:]):
                m = 0
                for i in order[lo:hi]:
                    m |= 1 << int(i)
                masks.append(m)
            g = GroupingStructure(u, tuple(VarSet(u, m) for m in masks))
            for method in (Method.GROUP_LASSO, Method.EXCLUSIVE_GROUP_LASSO):
                got = set(eval_rule(u, method_rule(method, g)).masks())
                want = set()
                for s in range(1 << size):
                    ok = True
                    for m in masks:
                        hit = (s & m).bit_count()
                        if method is Method.GROUP_LASSO:
                            ok = ok and hit in (0, m.bit_count())
                        else:
                            ok = ok and 1 <= hit <= m.bit_count()
                    if ok:
                        want.add(s)
                assert got == want

    def test_latent_overlapping_refused(self, abcd):
        g = grouping(abcd, ["A", "B"], ["B", "C"], ["D"])
        with pytest.raises(UseClosureInstead):
            method_rule(Method.LATENT_OVERLAPPING_GROUP_LASSO, g)

    def test_incompatible_grouping_refused(self, abcd):
        overlap = grouping(abcd, ["A", "B"], ["B", "C"], ["D"])
        with pytest.raises(IncompatibleGrouping):
            method_rule(Method.GROUP_LASSO, overlap)
        pairs = grouping(abcd, ["A", "B"], ["C", "D"])
        with pytest.raises(IncompatibleGrouping):
            method_rule(Method.LASSO, pairs)


class TestReportShape:
    def test_report_is_frozen(self, ab):
        report = check_log_congruence(Dictionary.from_masks(ab, [0]), grouping(ab, ["A", "B"]))
        assert isinstance(report, CongruenceReport)
        with pytest.raises(AttributeError):
            report.congruent = True
