"""Text syntax for selection rules.

Grammar, lowest precedence first:

    rule     := impl_seq
    impl_seq := or_expr (("->" | "=>") impl_seq)?      right-associative
    or_expr  := and_expr ("or" and_expr)*
    and_expr := not_expr ("and" not_expr)*
    not_expr := "not" not_expr | atom
    atom     := unit | "(" rule ")"
    unit     := "select" counts "of" varset
    counts   := "{" int ("," int)* "}" | int ".." int
    varset   := "{" name ("," name)* "}" | "{" "}"

Names match [A-Za-z_][A-Za-z0-9_]*. "#" starts a line comment. A rule
document may begin with a "vars: A, B, C" line declaring the universe.
The parser keeps operators and open parentheses on an explicit stack
and the formatter writes through the rule-tree walker, so neither long
nor deeply nested rules recurse.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .core import ConstraintSet, Universe, VarSet, make_universe
from .errors import ParseError, UnknownVariable
from .rules import And, Implies, Not, Or, RuleExpr, Sequential, Unit, UnitRule, _text


class SourceSpan(NamedTuple):
    """Byte range [start, end) into the rule text."""

    start: int
    end: int


class Token(NamedTuple):
    kind: str
    text: str
    # char offsets; converted to byte offsets only when an error needs them
    cstart: int
    cend: int


_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>\#[^\n]*)
    | (?P<arrow>->)
    | (?P<darrow>=>)
    | (?P<dotdot>\.\.)
    | (?P<int>[0-9]+)
    | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<lbrace>\{)
    | (?P<rbrace>\})
    | (?P<lparen>\()
    | (?P<rparen>\))
    | (?P<comma>,)
    | (?P<bad>.)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"select", "of", "and", "or", "not"}

#: Largest upper end of a ``lo..hi`` count range. The range becomes a set
#: of every count in it, and no count above 64 can match a subset anyway.
_MAX_RANGE_END = 10 ** 7


def _byte_span(text: str, cstart: int, cend: int) -> SourceSpan:
    # Only computed when raising; fixtures are ASCII so this is usually identity.
    start = len(text[:cstart].encode("utf-8"))
    end = start + len(text[cstart:cend].encode("utf-8"))
    return SourceSpan(start, end)


def _tokenize(text: str) -> list[Token]:
    # One scan: every character starts a match, the last group catching
    # any character no token can start with.
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind in ("ws", "comment"):
            continue
        start, end = m.span()
        if kind == "bad":
            raise ParseError(
                f"unexpected character {m.group()!r}",
                span=_byte_span(text, start, end),
                expected=["a token"],
            )
        word = m.group()
        if kind == "name" and word in _KEYWORDS:
            kind = word
        tokens.append(Token(kind, word, start, end))
    tokens.append(Token("eof", "", len(text), len(text)))
    return tokens


# Precedence levels; higher binds tighter. Arrows are right-associative,
# and/or left-associative.
_LEVEL_ARROW = 1
_LEVEL_OR = 2
_LEVEL_AND = 3
_LEVEL_NOT = 4
_LEVEL_ATOM = 5

# Level, operator text, and right-associativity. A same-level child keeps
# its parens on the left of a right-associative operator, else on the right.
_SYNTAX = {
    Unit: (_LEVEL_ATOM, None, False),
    Implies: (_LEVEL_ARROW, " -> ", True),
    Sequential: (_LEVEL_ARROW, " => ", True),
    Or: (_LEVEL_OR, " or ", False),
    And: (_LEVEL_AND, " and ", False),
    Not: (_LEVEL_NOT, "not ", False),
}

_INFIX = {"and": And, "or": Or, "arrow": Implies, "darrow": Sequential}


def _reduce(args: list, ops: list, level: int, right_assoc: bool) -> None:
    """Apply the waiting operators that bind tighter than a new one at ``level``.

    A same-level operator binds tighter unless ``right_assoc``. Stops at
    the innermost open parenthesis, a ``None`` on ``ops``.
    """
    while ops and ops[-1] is not None:
        top = _SYNTAX[ops[-1]][0]
        if top < level or (top == level and right_assoc):
            return
        node = ops.pop()
        if node is Not:
            args.append(Not(args.pop()))
        else:
            right = args.pop()
            args.append(node(args.pop(), right))


class _Parser:
    def __init__(self, text: str, universe: Universe):
        self.text = text
        self.universe = universe
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(f"expected {what}", [what], tok)
        return self.advance()

    def fail(self, message: str, expected: list[str], tok: Token | None = None):
        tok = tok or self.peek()
        shown = f", got {tok.text!r}" if tok.text else ", got end of input"
        raise ParseError(
            message + shown,
            span=_byte_span(self.text, tok.cstart, tok.cend),
            expected=expected,
        )

    def parse(self) -> RuleExpr:
        expr = self.rule()
        tok = self.peek()
        if tok.kind != "eof":
            self.fail("trailing input after rule", ["end of input"], tok)
        return expr

    def rule(self) -> RuleExpr:
        """Read one rule, up to the first token that cannot continue it.

        Operands wait on ``args``, and operators and open parentheses on
        ``ops``, until a looser operator, a ``)`` or the end applies them.
        """
        args: list[RuleExpr] = []
        ops: list = []
        while True:
            tok = self.peek()
            if tok.kind in ("not", "lparen"):
                ops.append(Not if self.advance().kind == "not" else None)
                continue
            if tok.kind != "select":
                self.fail("expected a rule", ["'select'", "'('", "'not'"], tok)
            args.append(self.unit())
            # Close every group that ends here, then continue after an operator.
            while (kind := self.peek().kind) not in _INFIX:
                _reduce(args, ops, 0, False)
                if not ops:
                    return args.pop()
                self.expect("rparen", "')'")
                ops.pop()
            level, _, right_assoc = _SYNTAX[_INFIX[kind]]
            _reduce(args, ops, level, right_assoc)
            ops.append(_INFIX[self.advance().kind])

    def unit(self) -> RuleExpr:
        self.expect("select", "'select'")
        counts = self.counts()
        self.expect("of", "'of'")
        scope = self.varset()
        return Unit(UnitRule(scope, counts))

    def counts(self) -> ConstraintSet:
        tok = self.peek()
        if tok.kind == "lbrace":
            self.advance()
            return ConstraintSet(frozenset(self.items(self.int_value)))
        if tok.kind == "int":
            lo = self.int_value()
            self.expect("dotdot", "'..'")
            hi_tok = self.peek()
            hi = self.int_value()
            if hi < lo:
                raise ParseError(
                    f"empty count range {lo}..{hi}",
                    span=_byte_span(self.text, tok.cstart, hi_tok.cend),
                    expected=["an upper bound >= the lower bound"],
                )
            if hi > _MAX_RANGE_END:
                raise ParseError(
                    f"count range {lo}..{hi} ends above {_MAX_RANGE_END}",
                    span=_byte_span(self.text, tok.cstart, hi_tok.cend),
                    expected=[f"an upper bound <= {_MAX_RANGE_END}"],
                )
            return ConstraintSet.closed_range(lo, hi)
        self.fail("expected selection counts", ["'{'", "an integer"], tok)

    def int_value(self) -> int:
        tok = self.expect("int", "an integer")
        return int(tok.text)

    def items(self, item) -> list:
        """The comma-separated values ``item`` reads, up to and through the closing ``}``."""
        values = [item()]
        while self.peek().kind == "comma":
            self.advance()
            values.append(item())
        self.expect("rbrace", "'}'")
        return values

    def varset(self) -> VarSet:
        self.expect("lbrace", "'{'")
        if self.peek().kind == "rbrace":
            self.advance()
            return VarSet.empty(self.universe)
        names = self.items(self.name_value)
        try:
            return VarSet.of_names(self.universe, [tok.text for tok in names])
        except UnknownVariable as exc:
            tok = next(tok for tok in names if tok.text not in self.universe)
            exc.span = _byte_span(self.text, tok.cstart, tok.cend)
            raise

    def name_value(self) -> Token:
        tok = self.peek()
        # Keywords double as names inside braces would be confusing; require
        # a plain name token here.
        if tok.kind != "name":
            self.fail("expected a variable name", ["a variable name"], tok)
        return self.advance()


def parse_rule(text: str, u: Universe) -> RuleExpr:
    """Parse rule text against a known universe.

    Raises
    ------
    ParseError
        Malformed syntax; carries a byte span and the expected tokens.
    UnknownVariable
        A scope names a covariate outside ``u``; carries the name's span.
    """
    return _Parser(text, u).parse()


_VARS_RE = re.compile(r"^\s*vars\s*:\s*(.*)$")


def read_rule_document(text: str, universe: Universe | None = None) -> tuple[Universe, RuleExpr]:
    """Parse a rule file: optional ``vars:`` preamble, then one rule.

    A supplied ``universe`` wins over the preamble. Without either, there
    is nothing to resolve names against and parsing fails. Spans are byte
    offsets into the whole of ``text``.
    """
    preamble = start = 0  # characters up to the rule, and up to the current line
    declared = None
    for line in text.split("\n"):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            start += len(line) + 1
            continue
        m = _VARS_RE.match(stripped)
        if m:
            names = [p.strip() for p in m.group(1).split(",") if p.strip()]
            if not names:
                raise ParseError(
                    "empty vars declaration",
                    span=_byte_span(text, start, start + len(line)),
                    expected=["at least one variable name"],
                )
            declared = make_universe(names)
            preamble = start + len(line) + 1
        break
    if universe is None:
        universe = declared
    if universe is None:
        raise ParseError(
            "no universe: add a 'vars:' line or pass the variables explicitly",
            span=SourceSpan(0, 0),
            expected=["'vars:' preamble"],
        )
    # The preamble as one space per byte, so the rule's spans count from the document's start.
    body = " " * len(text[:preamble].encode("utf-8")) + text[preamble:]
    return universe, parse_rule(body, universe)


# ---------------------------------------------------------------------------
# Pretty-printing

def format_rule(expr: RuleExpr) -> str:
    """Canonical text for a rule expression.

    Counts print sorted ascending, scope names in universe index order,
    parentheses only where precedence demands them. Parsing the result
    reproduces ``expr`` structurally.
    """

    def expand(item):
        # A node's text, in parentheses if its parent's level binds tighter, or as tight and strict.
        node, parent, strict = item
        if type(node) not in _SYNTAX:
            raise TypeError(f"not a rule expression: {node!r}")
        level, word, right_assoc = _SYNTAX[type(node)]
        if level == _LEVEL_ATOM:
            parts = [f"select {node.rule.constraint.to_text()} of {node.rule.scope.to_text()}"]
        elif level == _LEVEL_NOT:
            parts = [word, (node.child, level, False)]
        else:
            parts = [(node.left, level, right_assoc), word, (node.right, level, not right_assoc)]
        if level < parent or (strict and level == parent):
            return ["(", *parts, ")"]
        return parts

    return _text((expr, 0, False), expand)
