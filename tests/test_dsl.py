import random

import pytest

from ruledict.core import ConstraintSet, VarSet, make_universe
from ruledict.dsl import format_rule, is_rule_name, parse_rule, read_rule_document, split_names
from ruledict.errors import ParseError, UnknownVariable
from ruledict.rules import (
    And,
    Implies,
    Not,
    Or,
    Sequential,
    Unit,
    UnitRule,
    _children,
    _preorder,
)

from oracles import random_rule


@pytest.fixture
def abcd():
    return make_universe(["A", "B", "C", "D"])


def unit(u, counts, names):
    return Unit(UnitRule(VarSet.of_names(u, names), ConstraintSet.of(*counts)))


class TestParseBasics:
    def test_unit_with_count_list(self, abcd):
        got = parse_rule("select {0,2} of {A,B}", abcd)
        assert got == unit(abcd, [0, 2], ["A", "B"])

    def test_unit_with_count_range(self, abcd):
        got = parse_rule("select 0..4 of {A,B,C,D}", abcd)
        assert got == unit(abcd, [0, 1, 2, 3, 4], ["A", "B", "C", "D"])

    def test_degenerate_range(self, abcd):
        assert parse_rule("select 2..2 of {A,B}", abcd) == unit(abcd, [2], ["A", "B"])

    def test_empty_scope(self, abcd):
        got = parse_rule("select {0} of {}", abcd)
        assert got == Unit(UnitRule(VarSet.empty(abcd), ConstraintSet.of(0)))

    def test_comments_and_whitespace(self, abcd):
        text = """
        # a pair constraint
        select {0,2} of {A,B}   # inline note
        """
        assert parse_rule(text, abcd) == unit(abcd, [0, 2], ["A", "B"])

    def test_multiline_rule(self, abcd):
        text = "select {0,2} of {A,B}\n  and\nselect {0,2} of {C,D}"
        got = parse_rule(text, abcd)
        assert got == And(unit(abcd, [0, 2], ["A", "B"]), unit(abcd, [0, 2], ["C", "D"]))


class TestPrecedence:
    def test_not_binds_tightest(self, abcd):
        got = parse_rule("not select {1} of {A} and select {1} of {B}", abcd)
        assert got == And(Not(unit(abcd, [1], ["A"])), unit(abcd, [1], ["B"]))

    def test_and_over_or(self, abcd):
        a, b, c = ("select {1} of {A}", "select {1} of {B}", "select {1} of {C}")
        got = parse_rule(f"{a} or {b} and {c}", abcd)
        assert got == Or(
            unit(abcd, [1], ["A"]), And(unit(abcd, [1], ["B"]), unit(abcd, [1], ["C"]))
        )

    def test_or_over_arrow(self, abcd):
        a, b, c = ("select {1} of {A}", "select {1} of {B}", "select {1} of {C}")
        got = parse_rule(f"{a} or {b} -> {c}", abcd)
        assert got == Implies(
            Or(unit(abcd, [1], ["A"]), unit(abcd, [1], ["B"])), unit(abcd, [1], ["C"])
        )

    def test_and_or_left_associative(self, abcd):
        a, b, c = ("select {1} of {A}", "select {1} of {B}", "select {1} of {C}")
        assert parse_rule(f"{a} and {b} and {c}", abcd) == And(
            And(unit(abcd, [1], ["A"]), unit(abcd, [1], ["B"])), unit(abcd, [1], ["C"])
        )
        assert parse_rule(f"{a} or {b} or {c}", abcd) == Or(
            Or(unit(abcd, [1], ["A"]), unit(abcd, [1], ["B"])), unit(abcd, [1], ["C"])
        )

    def test_arrows_right_associative(self, abcd):
        a, b, c = ("select {1} of {A}", "select {1} of {B}", "select {1} of {C}")
        assert parse_rule(f"{a} -> {b} -> {c}", abcd) == Implies(
            unit(abcd, [1], ["A"]), Implies(unit(abcd, [1], ["B"]), unit(abcd, [1], ["C"]))
        )

    def test_mixed_arrow_chain(self, abcd):
        a, b, c = ("select {1} of {A}", "select {1} of {B}", "select {1} of {C}")
        assert parse_rule(f"{a} => {b} -> {c}", abcd) == Sequential(
            unit(abcd, [1], ["A"]), Implies(unit(abcd, [1], ["B"]), unit(abcd, [1], ["C"]))
        )

    def test_parens_override(self, abcd):
        a, b, c = ("select {1} of {A}", "select {1} of {B}", "select {1} of {C}")
        got = parse_rule(f"({a} or {b}) and {c}", abcd)
        assert got == And(
            Or(unit(abcd, [1], ["A"]), unit(abcd, [1], ["B"])), unit(abcd, [1], ["C"])
        )

    def test_double_negation_kept(self, abcd):
        got = parse_rule("not not select {1} of {A}", abcd)
        assert got == Not(Not(unit(abcd, [1], ["A"])))


class TestParseErrors:
    def assert_parse_error(self, text, abcd):
        with pytest.raises(ParseError) as exc:
            parse_rule(text, abcd)
        err = exc.value
        assert err.span is not None
        assert err.span[0] <= err.span[1]
        assert err.expected, f"no expected tokens for {text!r}"
        return err

    def test_empty_input(self, abcd):
        err = self.assert_parse_error("", abcd)
        assert "end of input" in str(err)

    def test_missing_counts(self, abcd):
        self.assert_parse_error("select of {A}", abcd)

    def test_unclosed_counts(self, abcd):
        self.assert_parse_error("select {1 of {A}", abcd)

    def test_missing_of(self, abcd):
        self.assert_parse_error("select {1} from {A}", abcd)

    def test_trailing_input(self, abcd):
        err = self.assert_parse_error("select {1} of {A} select", abcd)
        assert "trailing" in str(err)

    def test_dangling_operator(self, abcd):
        self.assert_parse_error("select {1} of {A} and", abcd)

    def test_unbalanced_paren(self, abcd):
        self.assert_parse_error("(select {1} of {A}", abcd)

    def test_negative_count(self, abcd):
        self.assert_parse_error("select -1..2 of {A}", abcd)

    def test_descending_range(self, abcd):
        err = self.assert_parse_error("select 3..1 of {A}", abcd)
        # the span covers the whole offending range expression
        assert err.span == (7, 11)

    def test_keyword_not_a_name(self, abcd):
        self.assert_parse_error("select {1} of {and}", abcd)

    def test_stray_character(self, abcd):
        err = self.assert_parse_error("select {1} @ {A}", abcd)
        assert err.span == (11, 12)

    def test_unknown_variable_span(self, abcd):
        with pytest.raises(UnknownVariable) as exc:
            parse_rule("select {1} of {Z}", abcd)
        assert exc.value.span == (15, 16)

    def test_spans_are_byte_offsets(self):
        u = make_universe(["A"])
        text = "# π\nselect {1} of {Q}"
        with pytest.raises(UnknownVariable) as exc:
            parse_rule(text, u)
        # the comment holds a two-byte character, shifting Q by one byte
        assert exc.value.span == (20, 21)


class TestNames:
    @pytest.mark.parametrize("name", ["A", "_", "x_1", "B2", "selected", "Of"])
    def test_rule_names(self, name):
        assert is_rule_name(name)
        assert parse_rule(f"select {{1}} of {{{name}}}", make_universe([name]))

    @pytest.mark.parametrize("name", ["Å", "A B", "1x", "x-1", "A\n", "#x", "12", "", "select", "of", "and", "or", "not"])
    def test_names_rule_text_cannot_write(self, name):
        assert not is_rule_name(name)

    @pytest.mark.parametrize(
        "text,names",
        [("A, B,C", ["A", "B", "C"]), (" A ,, B ,", ["A", "B"]), (",", []), ("", []), ("A B, Å", ["A B", "Å"])],
    )
    def test_split_names(self, text, names):
        assert split_names(text) == names


class TestRuleDocument:
    def test_vars_preamble(self):
        u, expr = read_rule_document("vars: A, B\nselect {1} of {A}")
        assert u.names == ("A", "B")
        assert expr == unit(u, [1], ["A"])

    def test_comment_before_preamble(self):
        u, _ = read_rule_document("# note\n\nvars: A, B\nselect {0} of {A}")
        assert u.names == ("A", "B")

    def test_explicit_universe_wins(self):
        forced = make_universe(["A", "B", "C"])
        u, expr = read_rule_document("vars: X, Y\nselect {1} of {A}", universe=forced)
        assert u is forced
        assert expr == unit(forced, [1], ["A"])

    def test_no_universe_anywhere(self):
        with pytest.raises(ParseError) as exc:
            read_rule_document("select {1} of {A}")
        assert exc.value.expected == ["'vars:' preamble"]

    def test_empty_vars_line(self):
        with pytest.raises(ParseError):
            read_rule_document("vars:\nselect {1} of {A}")

    def test_duplicate_vars_rejected(self):
        from ruledict.errors import DuplicateVariable

        with pytest.raises(DuplicateVariable):
            read_rule_document("vars: A, A\nselect {1} of {A}")

    @pytest.mark.parametrize(
        "text,error,message,span",
        [
            ("vars: A, B\nselect {1} of {A, C}", UnknownVariable, "unknown variable 'C'", (29, 30)),
            ("# note\nvars:\nselect {1} of {A}", ParseError, "empty vars declaration", (7, 12)),
            # é is two bytes, so this document ends at byte 37
            ("# é\nvars: A, B\nselect {1} of {A} and", ParseError,
             "expected a rule, got end of input", (37, 37)),
        ],
        ids=["unknown-variable", "empty-vars", "end-of-input"],
    )
    def test_spans_count_from_the_document_start(self, text, error, message, span):
        with pytest.raises(error) as exc:
            read_rule_document(text)
        assert (str(exc.value), exc.value.span) == (message, span)

    @pytest.mark.parametrize(
        "text,error,message,span",
        [
            ("vars: A, B\r\n\r\nselect {1} of {A, C}\r\n", UnknownVariable, "unknown variable 'C'", (32, 33)),
            ("\tvars: A, B\nselect {1} of {Q}", UnknownVariable, "unknown variable 'Q'", (27, 28)),
            ("vars: A, B  # the universe\nselect {1} of {Q}", UnknownVariable, "unknown variable 'Q'", (42, 43)),
            ("\n# note\n   \nvars: A\nselect {1} of {Q}", UnknownVariable, "unknown variable 'Q'", (35, 36)),
            ("# note\nvars: A, B", ParseError, "expected a rule, got end of input", (17, 17)),
            # π, é and Å are two bytes each
            ("# π\nvars: A\nselect {1} of {Q}", UnknownVariable, "unknown variable 'Q'", (28, 29)),
            ("vars: é, A\nselect {1} of {Q}", UnknownVariable, "unknown variable 'Q'", (27, 28)),
            ("# π\nvars: A\nselect {1} of {Å}", ParseError, "unexpected character 'Å'", (28, 30)),
        ],
        ids=["crlf", "tab-before-vars", "comment-after-names", "blank-and-comment-lines-first",
             "vars-is-the-last-line", "two-byte-comment", "two-byte-name", "two-byte-bad-character"],
    )
    def test_rule_body_spans_after_the_preamble(self, text, error, message, span):
        with pytest.raises(error) as exc:
            read_rule_document(text)
        assert (str(exc.value), exc.value.span) == (message, span)


class TestFormat:
    def test_unit_canonical_spelling(self, abcd):
        e = Unit(
            UnitRule(VarSet.of_names(abcd, ["B", "A"]), ConstraintSet.of(2, 0))
        )
        assert format_rule(e) == "select {0,2} of {A,B}"

    def test_range_prints_as_count_list(self, abcd):
        e = unit(abcd, [0, 1, 2], ["A", "B"])
        assert format_rule(e) == "select {0,1,2} of {A,B}"

    def test_parens_only_where_needed(self, abcd):
        a = unit(abcd, [1], ["A"])
        b = unit(abcd, [1], ["B"])
        c = unit(abcd, [1], ["C"])
        assert format_rule(And(a, Or(b, c))) == (
            "select {1} of {A} and (select {1} of {B} or select {1} of {C})"
        )
        assert format_rule(Or(And(a, b), c)) == (
            "select {1} of {A} and select {1} of {B} or select {1} of {C}"
        )
        assert format_rule(And(And(a, b), c)) == (
            "select {1} of {A} and select {1} of {B} and select {1} of {C}"
        )
        assert format_rule(And(a, And(b, c))) == (
            "select {1} of {A} and (select {1} of {B} and select {1} of {C})"
        )

    def test_arrow_formatting(self, abcd):
        a = unit(abcd, [1], ["A"])
        b = unit(abcd, [1], ["B"])
        c = unit(abcd, [1], ["C"])
        assert format_rule(Implies(a, Implies(b, c))) == (
            "select {1} of {A} -> select {1} of {B} -> select {1} of {C}"
        )
        assert format_rule(Implies(Implies(a, b), c)) == (
            "(select {1} of {A} -> select {1} of {B}) -> select {1} of {C}"
        )
        assert format_rule(Sequential(And(a, b), c)) == (
            "select {1} of {A} and select {1} of {B} => select {1} of {C}"
        )

    def test_not_formatting(self, abcd):
        a = unit(abcd, [1], ["A"])
        b = unit(abcd, [1], ["B"])
        assert format_rule(Not(And(a, b))) == (
            "not (select {1} of {A} and select {1} of {B})"
        )
        assert format_rule(And(Not(a), b)) == (
            "not select {1} of {A} and select {1} of {B}"
        )

    def test_round_trip_fixed_cases(self, abcd):
        texts = [
            "select {0,2} of {A,B}",
            "not select {1} of {A}",
            "select {1} of {A} and (select {1} of {B} or select {1} of {C})",
            "(select {0,2} of {A,B} -> select {2} of {C,D}) => select {0,1} of {A,B}",
        ]
        for text in texts:
            expr = parse_rule(text, abcd)
            assert format_rule(expr) == text
            assert parse_rule(format_rule(expr), abcd) == expr

    def test_round_trip_random_trees(self):
        rng = random.Random(20260820)
        for _ in range(500):
            size = rng.randint(1, 6)
            u = make_universe([f"v{i}" for i in range(size)])
            expr = random_rule(rng, u, depth=4, allow_seq=True)
            assert parse_rule(format_rule(expr), u) == expr


class TestLongInputs:
    def count_units(self, expr):
        return sum(1 for node in _preorder(expr, _children) if isinstance(node, Unit))

    def test_flat_and_chain(self, abcd):
        n = 20000
        text = " and ".join(["select {0,1} of {A}"] * n)
        assert self.count_units(parse_rule(text, abcd)) == n

    def test_flat_or_chain(self, abcd):
        n = 20000
        text = " or ".join(["select {0,1} of {A}"] * n)
        assert self.count_units(parse_rule(text, abcd)) == n

    def test_long_arrow_chain(self, abcd):
        n = 20000
        text = " -> ".join(["select {0,1} of {A}"] * n)
        assert self.count_units(parse_rule(text, abcd)) == n

    def test_deep_not_nesting(self, abcd):
        n = 20000
        text = "not " * n + "select {0,1} of {A}"
        expr = parse_rule(text, abcd)
        depth = 0
        while isinstance(expr, Not):
            expr = expr.child
            depth += 1
        assert depth == n
