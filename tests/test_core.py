import ast
import enum
import os
import pickle
import random
import re
import time
import tracemalloc
from functools import reduce
from operator import eq, le, or_

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ruledict.core import (
    ConstraintSet,
    Dictionary,
    Record,
    Universe,
    VarSet,
    dictionary_support,
    make_universe,
    parse_braced_names,
    powerset,
)
from ruledict.errors import (
    DuplicateVariable,
    EnumerationTooLarge,
    ParseError,
    UniverseTooLarge,
    UnknownVariable,
)

from oracles import closure_by_sets, first_union_gap, irreducible_generators


@pytest.fixture
def abc():
    return make_universe(["A", "B", "C"])


class TestUniverse:
    def test_basic_construction(self, abc):
        assert abc.size == 3
        assert abc.names == ("A", "B", "C")
        assert abc.index("A") == 0
        assert abc.index("C") == 2
        assert "B" in abc
        assert "Z" not in abc

    def test_six_variable_universe(self):
        u = make_universe(["A", "A2", "B1", "B2", "AB1", "AB2"])
        assert u.size == 6
        assert u.full_mask == 0b111111

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateVariable):
            make_universe(["A", "A"])

    def test_too_many_rejected(self):
        names = [f"x{i}" for i in range(65)]
        with pytest.raises(UniverseTooLarge):
            make_universe(names)
        # 64 exactly is allowed
        assert make_universe(names[:64]).size == 64

    def test_bad_names_rejected(self):
        with pytest.raises(ParseError):
            make_universe(["A", ""])
        with pytest.raises(ParseError):
            make_universe([3])

    def test_unknown_index(self, abc):
        with pytest.raises(UnknownVariable):
            abc.index("Z")

    def test_index_matches_the_name_tuple(self):
        names = [f"x{i}" for i in range(64)]
        u = make_universe(names)
        assert [u.index(n) for n in names] == [names.index(n) for n in names]
        with pytest.raises(UnknownVariable, match="^unknown variable 'x64'$"):
            u.index("x64")
        with pytest.raises(UnknownVariable, match=r"^unknown variable \['x0'\]$"):
            u.index(["x0"])
        again = pickle.loads(pickle.dumps(u))
        assert again == u and [again.index(n) for n in names] == list(range(64)) and "x63" in again
        # Built directly, a repeated name is refused as make_universe refuses it.
        with pytest.raises(DuplicateVariable):
            Universe(("A", "B", "A"))

    @pytest.mark.parametrize(
        "names,error,message",
        [
            (("A", 3), ParseError, "invalid variable name 3"),
            (("A", ""), ParseError, "invalid variable name ''"),
            (("A", "A", ""), ParseError, "invalid variable name ''"),  # names are checked before repeats
            (tuple(f"x{i}" for i in range(65)), UniverseTooLarge, "65 covariates exceed the cap of 64"),
            (("A",) * 65, UniverseTooLarge, "65 covariates exceed the cap of 64"),  # the size before repeats
            (("A", "B", "B", "A"), DuplicateVariable, "duplicate variable 'B'"),
        ],
        ids=["non-string", "empty", "empty-and-repeated", "65-names", "65-repeats", "repeated"],
    )
    def test_constructor_checks_as_make_universe(self, names, error, message):
        for build in (Universe, make_universe):
            with pytest.raises(error) as exc:
                build(names)
            assert type(exc.value) is error and str(exc.value) == message

    def test_pickling_keeps_and_checks_the_names(self):
        u = make_universe([f"x{i}" for i in range(64)])
        again = pickle.loads(pickle.dumps(u))
        assert again == u and again.index("x63") == 63
        # "Q" occurs nowhere else in the pickle, so this repeats "A".
        data = pickle.dumps(make_universe(["A", "Q"])).replace(b"Q", b"A")
        with pytest.raises(DuplicateVariable, match="^duplicate variable 'A'$"):
            pickle.loads(data)

    def test_empty_universe_allowed(self):
        u = make_universe([])
        assert u.size == 0
        assert u.full_mask == 0

    @pytest.mark.parametrize("build", [list, iter, lambda names: (n for n in names)], ids=["list", "iter", "generator"])
    def test_any_iterable_of_names_is_held_as_a_tuple(self, build):
        names = ("A", "B")
        u = Universe(build(names))
        assert type(u.names) is tuple and u.names == names
        assert u == Universe(names) == make_universe(build(names)) and hash(u) == hash(Universe(names))
        assert pickle.loads(pickle.dumps(u)) == u
        v, d = VarSet(u, 1), Dictionary.from_masks(u, [1])
        tuple_v, tuple_d = VarSet(make_universe("AB"), 1), Dictionary.from_masks(make_universe("AB"), [1])
        assert v == tuple_v and hash(v) == hash(tuple_v)
        assert d == tuple_d and hash(d) == hash(tuple_d)
        assert v in tuple_d and tuple_v in d and VarSet(u, 2) not in tuple_d


class TestVarSet:
    def test_mask_and_names(self, abc):
        v = VarSet.of_names(abc, ["C", "A"])
        assert v.mask == 0b101
        assert list(v) == ["A", "C"]
        assert v.names() == ("A", "C")
        assert len(v) == 2
        assert "A" in v and "B" not in v

    def test_equality_ignores_order(self, abc):
        assert VarSet.of_names(abc, ["B", "A"]) == VarSet.of_names(abc, ["A", "B"])

    def test_set_algebra(self, abc):
        ab = VarSet.of_names(abc, ["A", "B"])
        bc = VarSet.of_names(abc, ["B", "C"])
        assert ab.union(bc) == VarSet.full(abc)
        assert ab.intersection(bc) == VarSet.of_names(abc, ["B"])
        assert ab.difference(bc) == VarSet.of_names(abc, ["A"])
        assert ab.complement() == VarSet.of_names(abc, ["C"])
        assert VarSet.of_names(abc, ["B"]).issubset(ab)
        assert not ab.issubset(bc)
        assert VarSet.empty(abc) <= ab <= VarSet.full(abc)

    @pytest.mark.parametrize("n", [3, 21])
    def test_set_algebra_rejects_other_universe(self, n):
        """A subset over other names, or over another width, is not relabelled."""
        u = make_universe([f"v{i}" for i in range(n)])
        a = VarSet(u, 3)
        for other in (make_universe([f"w{i}" for i in range(n)]), make_universe([f"v{i}" for i in range(n + 1)])):
            b = VarSet(other, 3)
            for op in (VarSet.union, VarSet.intersection, VarSet.difference, VarSet.issubset, le):
                with pytest.raises(UnknownVariable):
                    op(a, b)
            assert b not in Dictionary(u, [a])
        same = VarSet(make_universe([f"v{i}" for i in range(n)]), 1)
        assert a.union(same) == a and same <= a and same in Dictionary(u, [same])

    def test_text_form(self, abc):
        assert VarSet.of_names(abc, ["C", "A"]).to_text() == "{A,C}"
        assert VarSet.empty(abc).to_text() == "{}"

    def test_out_of_range_mask_rejected(self, abc):
        with pytest.raises(UnknownVariable):
            VarSet(abc, 1 << 3)
        with pytest.raises(UnknownVariable):
            VarSet(abc, -1)

    def test_unknown_name_rejected(self, abc):
        with pytest.raises(UnknownVariable):
            VarSet.of_names(abc, ["A", "Z"])


class TestDictionary:
    def test_canonical_order_and_dedup(self, abc):
        d = Dictionary.from_masks(abc, [0b110, 0b001, 0b110, 0b000])
        assert d.masks() == (0b000, 0b001, 0b110)
        assert len(d) == 3

    def test_empty_vs_empty_entry(self, abc):
        nothing = Dictionary(abc)
        only_empty = Dictionary.from_masks(abc, [0])
        assert len(nothing) == 0
        assert len(only_empty) == 1
        assert nothing != only_empty

    def test_masks_outside_universe_rejected(self, abc):
        with pytest.raises(UnknownVariable):
            Dictionary.from_masks(abc, [1 << 3])
        with pytest.raises(UnknownVariable):
            Dictionary.from_masks(abc, [-1])

    def test_membership(self, abc):
        d = Dictionary.from_masks(abc, [0b011])
        assert VarSet.of_names(abc, ["A", "B"]) in d
        assert VarSet.of_names(abc, ["A"]) not in d

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
    def test_membership_matches_masks(self, n):
        u = make_universe([f"v{i}" for i in range(n)])
        masks = {m for m in range(1 << n) if m % 3 != 1}
        d = Dictionary.from_masks(u, masks)
        assert [VarSet(u, m) in d for m in range(1 << n)] == [m in masks for m in range(1 << n)]
        # A subset of a larger universe, or of one with other names, is never a member.
        bigger = make_universe([f"v{i}" for i in range(n + 3)])
        assert all(VarSet(bigger, m) not in d for m in range(1 << (n + 3)))
        renamed = make_universe([f"w{i}" for i in range(n)])
        assert all(VarSet(renamed, m) not in d for m in range(1 << n))

    def test_membership_cost_does_not_grow_with_the_map(self):
        # Shifting the 2**20-bit map per test took over 2.5 s for these probes.
        u = make_universe([f"v{i}" for i in range(20)])
        d = powerset(u)
        probes = [VarSet(u, (i * 2654435761) & u.full_mask) for i in range(200_000)]
        start = time.perf_counter()
        assert all(v in d for v in probes)
        assert time.perf_counter() - start < 1.0

    def test_set_algebra(self, abc):
        d1 = Dictionary.from_masks(abc, [0, 1, 2])
        d2 = Dictionary.from_masks(abc, [2, 4])
        assert d1.union(d2).masks() == (0, 1, 2, 4)
        assert d1.intersection(d2).masks() == (2,)
        assert d1.difference(d2).masks() == (0, 1)

    def test_intersection_sets_the_smaller_family(self):
        """Two mask tuples meet through a set of the smaller one, whichever is on the left:
        256 entries against 65,536 over 24 variables, where a set of the larger takes 2.5 MiB."""
        import tracemalloc

        from ruledict.rules import UnitRule, unit_dictionary

        u = make_universe([f"v{i}" for i in range(24)])
        low = (1 << 16) - 1
        small = unit_dictionary(u, UnitRule(VarSet(u, low), ConstraintSet(frozenset({16}))))
        large = unit_dictionary(u, UnitRule(VarSet(u, u.full_mask ^ low), ConstraintSet(frozenset({0}))))
        assert (len(small), len(large)) == (256, 65536)
        results, peaks = [], []
        for a, b in ((small, large), (large, small)):
            tracemalloc.start()
            results.append(a.intersection(b).masks())
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert results[0] == results[1] == (low,)
        assert max(peaks) < 0.25 * 2**20, peaks

    @pytest.mark.parametrize("n", [3, 21])
    def test_entries_from_another_universe_rejected(self, n):
        """Entries over other names, or over another width, are not relabelled into the universe."""
        u = make_universe([f"v{i}" for i in range(n)])
        for other in (make_universe([f"w{i}" for i in range(n)]), make_universe([f"v{i}" for i in range(n + 1)])):
            with pytest.raises(UnknownVariable):
                Dictionary(u, [VarSet(other, 3)])
        same_names = make_universe([f"v{i}" for i in range(n)])
        assert Dictionary(u, [VarSet(same_names, 3)]).masks() == (3,)

    @pytest.mark.parametrize("n1, n2", [(3, 4), (3, 30), (21, 30)])
    def test_set_algebra_rejects_other_universe(self, n1, n2):
        u1 = make_universe([f"v{i}" for i in range(n1)])
        u2 = make_universe([f"v{i}" for i in range(n2)])
        d1 = Dictionary.from_masks(u1, [0, 1])
        d2 = Dictionary.from_masks(u2, [1, 1 << (n2 - 1)])
        for a, b in ((d1, d2), (d2, d1)):
            for op in (a.union, a.intersection, a.difference):
                with pytest.raises(UnknownVariable):
                    op(b)

    @pytest.mark.parametrize("n", [3, 25])
    def test_of_counts_ignores_repeated_counts(self, n):
        u = make_universe([f"v{i}" for i in range(n)])
        scope = u.full_mask >> 2
        once = Dictionary.of_counts(u, scope, [1])
        twice = Dictionary.of_counts(u, scope, [1, 1])
        assert twice == once
        assert len(twice) == (n - 2) * 4
        assert twice.masks() == tuple(sorted(set(twice.masks())))

    def test_text_round_trip(self, abc):
        d = Dictionary.from_masks(abc, [0, 0b101, 0b111])
        text = d.to_text()
        assert text == "{}\n{A,C}\n{A,B,C}"
        again = Dictionary.from_text(abc, text)
        assert again == d
        # serialize -> parse -> serialize is the identity
        assert again.to_text() == text

    def test_text_form_comments_and_blanks(self, abc):
        text = "# header\n\n{A} # trailing\n"
        d = Dictionary.from_text(abc, text)
        assert d.masks() == (0b001,)

    def test_json_round_trip(self, abc):
        d = Dictionary.from_masks(abc, [0, 0b110])
        obj = d.to_json_obj()
        assert obj == [[], ["B", "C"]]
        assert Dictionary.from_json_obj(abc, obj) == d

    def test_bad_text_rejected(self, abc):
        with pytest.raises(ParseError):
            Dictionary.from_text(abc, "A,B")
        with pytest.raises(ParseError):
            Dictionary.from_text(abc, "{A,,B}")
        with pytest.raises(UnknownVariable):
            Dictionary.from_text(abc, "{A,Z}")


def _family(draw, u):
    mask = st.integers(0, u.full_mask)
    if not draw(st.booleans()):
        return draw(st.sets(mask, max_size=40))
    closure = closure_by_sets(draw(st.lists(mask, min_size=1, max_size=5)), 2 ** 20)
    return closure ^ draw(st.sets(mask, max_size=2))


@st.composite
def families(draw, count=1):
    """``count`` families on one universe on either side of the storage
    boundary: 5 variables (bitmap), 21 or 64 (mask tuple).

    Half the draws are the union closure of a few groups, with up to two
    masks toggled, so closed and non-closed families both occur.
    """
    u = make_universe([f"v{i}" for i in range(draw(st.sampled_from([5, 21, 64])))])
    return (u, *(_family(draw, u) for _ in range(count)))


class TestStorageMethods:
    """The storage-specific Dictionary methods against brute force over masks, on both storages."""

    @given(families(), st.integers(0, (1 << 21) - 1))
    def test_joined_unjoinable_and_complements(self, case, a):
        u, masks = case
        a &= u.full_mask
        d = Dictionary.from_masks(u, masks)
        assert d.joined(a).masks() == tuple(sorted({m | a for m in masks}))
        assert d.unjoinable(a).masks() == tuple(sorted(b for b in masks if a | b not in masks))
        assert d.complements().masks() == tuple(sorted(u.full_mask & ~m for m in masks))

    @given(families())
    def test_union_generators(self, case):
        u, masks = case
        generators, closed = Dictionary.from_masks(u, masks).union_generators()
        gap, irreducible = first_union_gap(masks), irreducible_generators(masks)
        assert closed == (0 in masks and gap is None)
        if closed:
            assert generators.masks() == tuple(irreducible)
        else:
            # Irreducible entries only, and every one up to the first failing entry.
            assert set(generators.masks()) <= set(irreducible)
            assert gap is None or {m for m in irreducible if m <= gap[0]} <= set(generators.masks())

    @given(families(count=2))
    def test_set_algebra(self, case):
        u, a, b = case
        da, db = Dictionary.from_masks(u, a), Dictionary.from_masks(u, b)
        assert da.union(db).masks() == tuple(sorted(a | b))
        assert da.intersection(db).masks() == tuple(sorted(a & b))
        assert da.difference(db).masks() == tuple(sorted(a - b))
        for m in a | b | {0, u.full_mask}:
            assert (VarSet(u, m) in da) == (m in a)
        again = Dictionary(u, [VarSet(u, m) for m in sorted(a, reverse=True)])
        assert again == da and hash(again) == hash(da)
        assert (da == db) == (a == b)

    @given(families(), st.integers(0, 22))
    def test_halves(self, case, k):
        u, masks = case
        k %= u.size + 2
        runs = {}
        for m in sorted(masks):
            runs.setdefault(m >> k, []).append(m & ((1 << k) - 1))
        got = [(high, list(lows)) for high, lows in Dictionary.from_masks(u, masks).halves(k)]
        assert got == list(runs.items())

    @given(families(), st.integers(0, 22))
    def test_halves_hands_each_run_to_each(self, case, k):
        d = Dictionary.from_masks(*case)
        k %= d.universe.size + 2
        assert list(d.halves(k, list)) == [(high, list(lows)) for high, lows in d.halves(k)]

    @staticmethod
    def _counted_halves(d, k):
        """``(pairs, calls)``: what ``d.halves(k, each)`` yields, and the runs ``each`` was given."""
        calls = []
        pairs = list(d.halves(k, lambda lows: calls.append(lows) or len(calls)))
        return pairs, calls

    def test_halves_calls_each_once_per_distinct_run_on_the_bitmap(self):
        u = make_universe([f"v{i}" for i in range(20)])
        d = Dictionary.of_counts(u, u.full_mask, range(11))  # select 0..10 of all 20
        pairs, calls = self._counted_halves(d, 10)
        # A high half's run depends only on its size: 1,024 runs, 11 distinct.
        assert len(pairs) == 1024 and len(calls) == len(set(calls)) == 11
        assert [calls[n - 1] for _, n in pairs] == [lows for _, lows in d.halves(10)]

    def test_halves_calls_each_once_per_distinct_run_on_the_mask_tuple(self):
        u = make_universe([f"v{i}" for i in range(24)])
        patterns = [(0, 5), (1, 2, 3), (1023,)]
        d = Dictionary.from_masks(u, [h << 10 | low for h in range(0, 1 << 14, 7) for low in patterns[h % 3]])
        pairs, calls = self._counted_halves(d, 10)
        assert len(pairs) == len(range(0, 1 << 14, 7)) and sorted(calls) == patterns
        assert [calls[n - 1] for _, n in pairs] == [lows for _, lows in d.halves(10)]

    @pytest.mark.parametrize("n", [5, 21])
    def test_known_families(self, n):
        u = make_universe([f"v{i}" for i in range(n)])
        closed = Dictionary.from_masks(u, [0, 0b1, 0b110, 0b111])
        generators, is_closed = closed.union_generators()
        assert generators.masks() == (0b1, 0b110) and is_closed
        assert not Dictionary.from_masks(u, [0, 0b1, 0b10]).union_generators()[1]
        generators, is_closed = Dictionary.from_masks(u, [0b1]).union_generators()
        assert generators.masks() == (0b1,) and not is_closed
        assert not Dictionary(u) and not Dictionary(u).complements()
        assert Dictionary.from_masks(u, [0]) and Dictionary.from_masks(u, [u.full_mask])


class TestCapPolicy:
    """Where the enumeration cap applies: ``of_counts`` for unit families, ``negated`` for complements.

    Each is checked against a plain scan of ``range(2**n)``, on the bitmap at
    0-6 variables and on the mask tuple at 21, with the cap at the result
    size (passes) and one below it (raises before anything is listed).
    """

    @staticmethod
    def _negated_case(d, members):
        """``d.negated`` against the masks of ``range(2**n)`` that are not in ``members``."""
        n = d.universe.size
        got = d.negated(1 << n).masks()
        # Compared lazily: at 21 variables a second tuple of 2**21 ints would double the test's memory.
        assert len(got) == (1 << n) - len(members)
        assert all(map(eq, got, (m for m in range(1 << n) if m not in members)))
        # ``match``, not ``as exc``: a kept traceback would hold this frame, and
        # with it 2**21 masks, in a cycle until the next garbage collection.
        text = f"2^{n} subsets exceed the enumeration cap of {(1 << n) - 1}"
        with pytest.raises(EnumerationTooLarge, match=f"^{re.escape(text)}$"):
            d.negated((1 << n) - 1)

    @pytest.mark.parametrize("n", range(7))
    def test_negated_on_the_bitmap(self, n):
        u = make_universe([f"v{i}" for i in range(n)])
        rng = random.Random(n)
        for masks in ([], range(1 << n), [rng.getrandbits(n) for _ in range(1 << n >> 1)]):
            self._negated_case(Dictionary.from_masks(u, masks), set(masks))

    @pytest.mark.parametrize("kind", ["empty", "full", "random"])
    def test_negated_on_the_mask_tuple(self, kind):
        u = make_universe([f"v{i}" for i in range(21)])
        if kind == "empty":
            self._negated_case(Dictionary(u), ())
        elif kind == "full":
            self._negated_case(Dictionary.from_masks(u, range(1 << 21)), range(1 << 21))
        else:
            masks = set(random.Random(21).sample(range(1 << 21), 500))
            self._negated_case(Dictionary.from_masks(u, masks), masks)

    def test_negated_keeps_no_lookup_set_on_the_mask_tuple(self):
        u = make_universe([f"v{i}" for i in range(21)])
        d = Dictionary.from_masks(u, range(0, 1 << 21, 2))
        tracemalloc.start()
        try:
            assert len(d.negated(1 << 21)) == 1 << 20
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        # A set of the operand's 2**20 masks, kept after the call, is 32 MiB.
        assert kept < 2**20, kept

    @staticmethod
    def _of_counts_case(n, scope, counts):
        u = make_universe([f"v{i}" for i in range(n)])
        want = [m for m in range(1 << n) if (m & scope).bit_count() in counts]
        assert Dictionary.of_counts(u, scope, counts, max_entries=len(want)).masks() == tuple(want)
        text = f"unit dictionary would have {len(want)} entries, over the cap of {len(want) - 1}"
        with pytest.raises(EnumerationTooLarge, match=f"^{re.escape(text)}$"):
            Dictionary.of_counts(u, scope, counts, max_entries=len(want) - 1)

    @pytest.mark.parametrize("n", range(7))
    def test_of_counts_on_the_bitmap(self, n):
        rng = random.Random(n)
        self._of_counts_case(n, 0, [0])  # every subset
        for _ in range(5):
            scope = rng.getrandbits(n)
            width = scope.bit_count()
            # One count the scope can hold, and maybe some it cannot.
            self._of_counts_case(n, scope, [rng.randint(0, width), *rng.sample(range(width + 3), 2)])

    @pytest.mark.parametrize("scope, counts", [((1 << 21) - 1, [0, 1, 2, 21]), (0b111 << 18, [0, 2, 4])])
    def test_of_counts_on_the_mask_tuple(self, scope, counts):
        self._of_counts_case(21, scope, counts)

    def test_of_counts_every_subset_over_the_cap(self):
        u = make_universe([f"v{i}" for i in range(21)])
        with pytest.raises(EnumerationTooLarge) as exc:
            Dictionary.of_counts(u, 0, [0], max_entries=(1 << 21) - 1)
        assert str(exc.value) == "unit dictionary would have 2097152 entries, over the cap of 2097151"


class TestSharedViews:
    """Reads of one Dictionary, in any order, give what a fresh Dictionary gives."""

    READS = {
        "in": lambda d, probes: [VarSet(d.universe, m) in d for m in probes],
        "halves": lambda d, probes: [list(d.halves(k)) for k in range(d.universe.size + 2)],
        "complements": lambda d, probes: d.complements(),
        "masks": lambda d, probes: d.masks(),
        "list": lambda d, probes: list(d),
        "len": lambda d, probes: len(d),
        "union_generators": lambda d, probes: d.union_generators(),
        "unjoinable": lambda d, probes: [d.unjoinable(a) for a in probes[:8]],
    }

    def _check(self, u, masks, probes, seed):
        rng = random.Random(seed)
        orders = [list(self.READS), list(self.READS)[::-1]]
        orders += [rng.sample(list(self.READS), len(self.READS)) * 2 for _ in range(3)]
        for order in orders:
            d = Dictionary.from_masks(u, masks)
            for name in order:
                fresh = Dictionary.from_masks(u, masks)
                assert self.READS[name](d, probes) == self.READS[name](fresh, probes), (masks, order, name)
                assert d == fresh and hash(d) == hash(fresh)

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_every_family_over_few_variables(self, n):
        u = make_universe([f"v{i}" for i in range(n)])
        probes = list(range(1 << n))
        for family in range(1 << (1 << n)):
            self._check(u, [m for m in probes if family >> m & 1], probes, family)

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8, 21])
    @pytest.mark.parametrize("kind", ["random", "closed", "closed-but-empty"])
    def test_seeded_families(self, n, kind):
        """Random families, and union-closed ones with and without the empty set, as ``union_generators`` reads them."""
        rng = random.Random(f"{n}:{kind}")
        u = make_universe([f"v{i}" for i in range(n)])
        if kind == "random":
            masks = {rng.getrandbits(n) for _ in range(rng.choice([1, 12, 40, 200]))}
        else:
            masks = closure_by_sets([rng.getrandbits(n) for _ in range(5)], 2 ** 20)
            if kind == "closed-but-empty":
                masks.discard(0)
        probes = [0, u.full_mask, *sorted(masks), *(rng.getrandbits(n) for _ in range(40))]
        self._check(u, masks, probes, n)


def _package_trees():
    """``(file name, syntax tree)`` for each module of the package."""
    package = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "ruledict")
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def test_storage_stays_inside_core():
    """Only core.py may touch how a Dictionary is stored."""
    private = {"_data", "_bitmap", "_of", "_bytes", "_lookup", "_mask_set", "_view", "_combine"}
    internals = {"var_planes", "_bit_positions", "BITMAP_MAX_VARS"}
    leaks = []
    for name, tree in _package_trees():
        if name == "core.py":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in private | internals:
                leaks.append(f"{name}:{node.lineno} .{node.attr}")
            elif isinstance(node, ast.ImportFrom):
                leaks += [f"{name}:{node.lineno} import {a.name}" for a in node.names if a.name in internals]
    assert not leaks


def test_rules_leaves_the_cap_to_core():
    """``rules.py`` neither sizes a unit nor builds a powerset: ``Dictionary`` decides where the cap applies."""
    tree = dict(_package_trees())["rules.py"]
    imported = {a.name for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom)) for a in node.names}
    assert not imported & {"math", "powerset", "EnumerationTooLarge"}


def test_oracles_borrow_no_private_helper():
    """The references in ``oracles.py`` import no ``_``-prefixed name from the package:
    a reference that runs the library's own helper cannot catch a fault in it."""
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "oracles.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    borrowed = [
        f"{node.lineno} {node.module}.{a.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ruledict"
        for a in node.names
        if a.name.startswith("_")
    ]
    assert not borrowed


def test_os_exit_only_in_entry_and_workers():
    """``os._exit`` reachable from ``cli.main`` would end an in-process caller, such as a test run.

    It may appear only in ``cli.entry`` and in the forked worker branch of
    ``select``, and only the ``__main__`` guard may call ``entry``.
    """
    exits, entry_calls = [], []
    for name, tree in _package_trees():
        parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}

        def enclosing(node):
            while node in parents:
                node = parents[node]
                yield node

        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and node.attr == "_exit"
                    or isinstance(node, ast.ImportFrom) and "_exit" in {a.name for a in node.names}):
                chain = list(enclosing(node))
                function = next((p.name for p in chain if isinstance(p, ast.FunctionDef)), None)
                tests = [ast.unparse(p.test) for p in chain if isinstance(p, ast.If)]
                exits.append((name, function, "pid == 0" in tests))
            elif isinstance(node, ast.Call) and ast.unparse(node.func) in {"entry", "cli.entry"}:
                entry_calls.append((name, [ast.unparse(p.test) for p in enclosing(node) if isinstance(p, ast.If)]))
    assert sorted(exits) == [("cli.py", "entry", False), ("select.py", "_run_chunks", True)]
    assert entry_calls == [("cli.py", ["__name__ == '__main__'"])]


def test_main_catches_no_exception_wholesale():
    """No ``except`` clause in ``cli.main`` catches ``Exception`` or ``BaseException``, bare or named:
    that would turn an engine bug into an input error."""
    tree = dict(_package_trees())["cli.py"]
    main = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    caught = []
    for handler in ast.walk(main):
        if isinstance(handler, ast.ExceptHandler):
            caught += [ast.unparse(name) for name in ast.walk(handler.type)] if handler.type else ["(bare)"]
    assert caught and not {"(bare)", "Exception", "BaseException", "builtins.Exception", "builtins.BaseException"} & set(caught)


class _Pair(Record):
    __slots__ = ("left", "right", "_note")
    _defaults = {"right": 0}


class _One(Record):
    __slots__ = ("value",)


class TestRecordBinding:
    """Keyword construction and the one-field hash, on records made here."""

    def test_every_field_by_keyword(self):
        assert _Pair(left=1, right=2) == _Pair(right=2, left=1) == _Pair(1, 2) == _Pair(1, right=2)
        assert _Pair(left=1) == _Pair(1) == _Pair(1, 0)
        assert ConstraintSet(counts=frozenset({1})) == ConstraintSet.of(1)

    @pytest.mark.parametrize(
        "args,kwargs",
        [
            ((), {"right": 2}),
            ((), {}),
            ((1,), {"left": 1}),
            ((1, 2), {"right": 2}),
            ((), {"left": 1, "other": 3}),
            ((), {"left": 1, "right": 2, "other": 3}),
            ((1, 2, 3), {}),
        ],
        ids=["missing", "none", "repeated", "repeated-default", "unknown-instead", "unknown-extra",
             "too-many"],
    )
    def test_bad_fields(self, args, kwargs):
        with pytest.raises(TypeError, match=r"^_Pair\(\) takes the fields \('left', 'right'\), got "):
            _Pair(*args, **kwargs)

    def test_one_field_hash_is_the_tuple_hash(self):
        lookalike = type("Lookalike", (_One,), {"__slots__": ()})
        for record in (_One("x"), _One(value=(1, 2)), lookalike("x")):
            assert hash(record) == hash((record.value,))
        assert _One("x") != lookalike("x")


class TestConstraintSet:
    def test_of_and_range(self):
        assert ConstraintSet.of(2, 0).counts == frozenset({0, 2})
        assert ConstraintSet.closed_range(1, 3).counts == frozenset({1, 2, 3})
        assert ConstraintSet.closed_range(2, 2).counts == frozenset({2})

    def test_max_and_membership(self):
        c = ConstraintSet.of(0, 3)
        assert c.max == 3
        assert 0 in c and 1 not in c

    def test_text(self):
        assert ConstraintSet.of(2, 0, 1).to_text() == "{0,1,2}"
        assert ConstraintSet.of(100, 2, 10).to_text() == "{2,10,100}"
        assert ConstraintSet.closed_range(8, 12).to_text() == "{8,9,10,11,12}"
        assert ConstraintSet.of(enum.IntEnum("Count", {"BIG": 300}).BIG, 7).to_text() == "{7,300}"

    def test_range_checks_its_ends_only(self):
        wide = ConstraintSet.closed_range(2, 10 ** 6)
        same = ConstraintSet(frozenset(range(2, 10 ** 6 + 1)))
        assert wide == same and hash(wide) == hash(same) and wide.counts == same.counts
        for lo, hi in ((-1, 3), (-5, -2)):
            with pytest.raises(ParseError):
                ConstraintSet.closed_range(lo, hi)

    def test_invalid(self):
        with pytest.raises(ParseError):
            ConstraintSet(frozenset())
        with pytest.raises(ParseError):
            ConstraintSet.of(-1)
        with pytest.raises(ParseError):
            ConstraintSet.of(True)
        with pytest.raises(ParseError):
            ConstraintSet.closed_range(3, 1)

    def test_counts_above_universe_size_representable(self):
        # incoherence is a rule property, not a validation error here
        assert ConstraintSet.of(99).max == 99


class TestPowerset:
    def test_sizes(self, abc):
        assert len(powerset(abc)) == 8

    def test_empty_universe(self):
        d = powerset(make_universe([]))
        assert len(d) == 1
        assert d.entries[0].mask == 0

    def test_order_and_extremes(self):
        u = make_universe(["A", "B", "C", "D"])
        d = powerset(u)
        assert len(d) == 16
        assert d.entries[0] == VarSet.empty(u)
        assert d.entries[-1] == VarSet.full(u)

    def test_every_subset_exactly_once(self):
        for size in range(11):
            u = make_universe([f"v{i}" for i in range(size)])
            masks = powerset(u).masks()
            assert masks == tuple(range(1 << size))

    def test_cap(self, abc):
        with pytest.raises(EnumerationTooLarge):
            powerset(abc, max_entries=7)
        assert len(powerset(abc, max_entries=8)) == 8


class TestSupport:
    def test_fold_of_unions(self, abc):
        d = Dictionary.from_masks(abc, [0b001, 0b110])
        assert dictionary_support(d) == VarSet.full(abc)

    def test_empty_cases(self, abc):
        assert dictionary_support(Dictionary(abc)) == VarSet.empty(abc)
        assert dictionary_support(Dictionary.from_masks(abc, [0])) == VarSet.empty(abc)

    def test_support_of_powerset(self, abc):
        assert dictionary_support(powerset(abc)) == VarSet.full(abc)

    @pytest.mark.parametrize("n", [1, 2, 5, 12, 20, 21, 30])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_the_union_of_the_masks(self, n, seed):
        """Random families on both storages (bitmap up to 20 variables, mask tuple above)."""
        rng = random.Random(1000 * n + seed)
        u = make_universe([f"v{i}" for i in range(n)])
        for size in (0, 1, 3, 40):
            mask_bits = rng.sample(range(n), rng.randint(0, n))
            masks = [sum(1 << i for i in mask_bits if rng.random() < 0.3) for _ in range(size)]
            d = Dictionary.from_masks(u, masks)
            assert dictionary_support(d).mask == reduce(or_, d.masks(), 0)


class TestParseBracedNames:
    def test_empty_braces(self, abc):
        assert parse_braced_names(abc, "{}") == VarSet.empty(abc)

    def test_spaces_tolerated(self, abc):
        assert parse_braced_names(abc, "{ A , C }") == VarSet.of_names(abc, ["A", "C"])

    def test_errors(self, abc):
        with pytest.raises(ParseError):
            parse_braced_names(abc, "A,B")
        with pytest.raises(UnknownVariable):
            parse_braced_names(abc, "{Q}")
