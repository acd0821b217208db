"""Selection rules as expression trees, and their dictionaries.

A rule is either a unit rule (select some permitted number of covariates
from a scope set) or a combination of rules under five operations: not,
and, or, material implication, and two-stage sequencing. Every rule over a
fixed universe has exactly one dictionary, computed here as a fold over the
tree: unit leaves via the closed-form union construction, inner nodes via
set algebra on the child dictionaries. Every traversal runs on an explicit
stack, so rules of any depth work.

Sequencing is the odd one out: its dictionary depends on the outcome
actually chosen in the first stage, so evaluation takes that outcome as an
explicit input and a helper enumerates all possible outcomes instead.
"""

from __future__ import annotations

import math
import warnings
from functools import reduce
from typing import Callable, Iterator, Mapping

from .core import (
    ConstraintSet,
    DEFAULT_MAX_ENUM,
    Dictionary,
    Record,
    Universe,
    VarSet,
    dictionary_support,
    powerset,
)
from .errors import (
    ArityMismatch,
    EnumerationTooLarge,
    InvalidStageResult,
    MissingStageResult,
    ParseError,
    UnsupportedForEquivalence,
)


class SequentialScopeWarning(UserWarning):
    """The two stages of a sequential rule can select different variables.

    Sequencing is intended for stages that range over the same variables;
    when the stage dictionaries have different supports the result is still
    computed literally, but it may not mean what the author intended.
    """


class UnitRule(Record):
    """Atomic rule: the number of selected covariates in ``scope`` must lie in ``constraint``."""

    __slots__ = ("scope", "constraint")
    scope: VarSet
    constraint: ConstraintSet


def is_coherent(rule: UnitRule) -> bool:
    """True iff the rule can be satisfied: max(constraint) <= |scope|."""
    # Distinct counts from 0 up: more than |scope| + 1 of them reach above |scope|.
    return len(rule.constraint.counts) <= len(rule.scope) + 1 and rule.constraint.max <= len(rule.scope)


class RuleExpr(Record):
    """Base class for rule expression nodes.

    Each node type has a fixed number of children, so the pre-order
    sequence of (node type, unit rule) pairs fixes a tree. Equality
    compares that sequence instead of recursing. The hash is built
    bottom-up, once per node, and kept on the node.
    """

    __slots__ = ("_hash",)

    def _preorder_keys(self) -> Iterator[tuple]:
        return ((type(n), getattr(n, "rule", None)) for n in _preorder(self, _children))

    def __eq__(self, other):
        if not isinstance(other, RuleExpr):
            return NotImplemented
        return tuple(self._preorder_keys()) == tuple(other._preorder_keys())

    def __hash__(self):
        def visit(node, kids):
            if not hasattr(node, "_hash"):
                key = (type(node), getattr(node, "rule", None), *kids)
                object.__setattr__(node, "_hash", hash(key))
            return node._hash

        # A subtree hashed before is not walked again.
        return _fold(self, lambda n: () if hasattr(n, "_hash") else _children(n), visit)

    def __repr__(self):
        # The record text, Not(child=Unit(rule=UnitRule(...))), on an explicit stack.
        def expand(item):
            if type(item) is Unit:
                return (f"Unit(rule={item.rule!r})",)
            first, *rest = _SHAPES[type(item)][1]
            parts = [f"{type(item).__qualname__}({first}=", getattr(item, first)]
            for field in rest:
                parts += [f", {field}=", getattr(item, field)]
            return parts + [")"]

        return _text(self, expand)

    def __reduce__(self):
        # The pickler recurses into fields, so a deep tree ships flat, in
        # post-order: each leaf as its unit rule, each other node as its class.
        flat = []
        _fold(self, _children, lambda node, _: flat.append(
            node.rule if type(node) is Unit else type(node)))
        return _from_postorder, (tuple(flat),)


class Unit(RuleExpr):
    __slots__ = ("rule",)
    rule: UnitRule


class Not(RuleExpr):
    __slots__ = ("child",)
    child: RuleExpr


class _Binary(RuleExpr):
    """A node with two operands; the subclass names the operation."""

    __slots__ = ("left", "right")
    left: RuleExpr
    right: RuleExpr


class And(_Binary):
    __slots__ = ()


class Or(_Binary):
    __slots__ = ()


class Implies(_Binary):
    __slots__ = ()


class Sequential(_Binary):
    __slots__ = ()


#: Each node type's ``op`` tag in JSON, and the fields holding its children.
_SHAPES = {
    Unit: ("unit", ()),
    Not: ("not", ("child",)),
    And: ("and", ("left", "right")),
    Or: ("or", ("left", "right")),
    Implies: ("implies", ("left", "right")),
    Sequential: ("seq", ("left", "right")),
}
_NODES = {tag: (cls, fields) for cls, (tag, fields) in _SHAPES.items()}


def _children(node) -> tuple:
    """The child nodes of a rule node, left to right."""
    if type(node) not in _SHAPES:
        raise TypeError(f"not a rule expression: {node!r}")
    return tuple(getattr(node, field) for field in _SHAPES[type(node)][1])


def _preorder(root, children: Callable) -> Iterator:
    """Pre-order traversal on an explicit stack: an item, then each of ``children(item)``."""
    stack = [root]
    while stack:
        item = stack.pop()
        yield item
        stack.extend(reversed(children(item)))


def _text(root, expand: Callable) -> str:
    """Join a text tree: ``expand(item)`` lists the strings and items standing in its place."""
    items = _preorder(root, lambda item: () if isinstance(item, str) else expand(item))
    return "".join(item for item in items if isinstance(item, str))


def _fold(root, children: Callable, visit: Callable):
    """Post-order fold over a tree, on an explicit stack.

    ``visit(node, results)`` gets the results of ``children(node)``, left
    to right, and returns the node's own. Nodes are visited in the order a
    recursive evaluation visits them, so errors and warnings come out in
    the same order.
    """
    results: list = []
    stack = [(root, None)]
    while stack:
        node, kids = stack.pop()
        if kids is None:
            kids = children(node)
            if kids:
                stack.append((node, kids))
                stack.extend((kid, None) for kid in reversed(kids))
                continue
        first = len(results) - len(kids)
        value = visit(node, results[first:])
        del results[first:]
        results.append(value)
    return results[0]


def _from_postorder(flat: tuple) -> RuleExpr:
    """Rebuild the tree that :meth:`RuleExpr.__reduce__` flattened."""
    stack: list = []
    for item in flat:
        if isinstance(item, UnitRule):
            stack.append(Unit(item))
            continue
        first = len(stack) - len(_SHAPES[item][1])
        kids = stack[first:]
        del stack[first:]
        stack.append(item(*kids))
    return stack[0]


class StageResult(Record):
    """The subset actually chosen when the first stage of a sequential rule ran."""

    __slots__ = ("chosen",)
    chosen: VarSet


def unit_dictionary(
    u: Universe, rule: UnitRule, max_entries: int = DEFAULT_MAX_ENUM
) -> Dictionary:
    """Dictionary of a unit rule via the closed-form construction.

    For a coherent rule the entries are exactly the unions of a subset
    ``a`` of the scope with ``|a|`` in the constraint and any subset ``b``
    of the covariates outside the scope. Distinct (a, b) pairs give
    distinct unions, so the result size is known up front. An incoherent
    rule (some required count exceeds the scope size) has the empty
    dictionary: no subset of the universe can respect it.

    Parameters
    ----------
    u
        Universe the rule lives in.
    rule
        The unit rule; its scope must belong to ``u``.
    max_entries
        Cap on the number of entries produced.

    Raises
    ------
    EnumerationTooLarge
        If the exact entry count would exceed ``max_entries``.
    """
    if not is_coherent(rule):
        return Dictionary(u)
    width = len(rule.scope)
    count = sum(math.comb(width, c) for c in rule.constraint.counts) << (u.size - width)
    if count > max_entries:
        raise EnumerationTooLarge(
            f"unit dictionary would have {count} entries, over the cap of {max_entries}"
        )
    return Dictionary.of_counts(u, rule.scope.mask, rule.constraint.counts)


def combine(
    op: str,
    u: Universe,
    d1: Dictionary,
    d2: Dictionary | None = None,
    max_entries: int = DEFAULT_MAX_ENUM,
) -> Dictionary:
    """Apply one dictionary-level operation.

    ``op`` is one of "not", "and", "or", "implies". Negation is complement
    within the powerset; and/or are intersection/union; implication keeps
    every subset that either fails the left rule or satisfies both.

    Raises
    ------
    ArityMismatch
        If ``d2`` is missing for a binary operation or supplied for "not".
    EnumerationTooLarge
        If complementation needs a powerset enumeration over the cap.
    """
    if op == "not":
        if d2 is not None:
            raise ArityMismatch("'not' takes a single dictionary")
        return powerset(u, max_entries).difference(d1)
    if d2 is None:
        raise ArityMismatch(f"{op!r} needs two dictionaries")
    if op == "and":
        return d1.intersection(d2)
    if op == "or":
        return d1.union(d2)
    if op != "implies":
        raise ArityMismatch(f"unknown operation {op!r}")
    # Outside d1 anything passes; inside it, d2 must hold too: not d1 or d2.
    return powerset(u, max_entries).difference(d1).union(d2)


def _check_sequential_scopes(d1: Dictionary, d2: Dictionary, stacklevel: int) -> None:
    s1, s2 = dictionary_support(d1), dictionary_support(d2)
    if s1 != s2:
        warnings.warn(
            f"sequential stages select over different variables ({s1.to_text()} vs {s2.to_text()})",
            SequentialScopeWarning,
            stacklevel=stacklevel,
        )


def eval_rule(
    u: Universe,
    expr: RuleExpr,
    stages: Mapping[Sequential, StageResult] | None = None,
    max_entries: int = DEFAULT_MAX_ENUM,
) -> Dictionary:
    """Compute the unique dictionary congruent to ``expr``.

    Parameters
    ----------
    u
        Universe of discourse.
    expr
        Rule expression tree.
    stages
        First-stage outcomes for sequential nodes, keyed by the node. Each
        chosen subset must be an entry of that node's first-stage
        dictionary.
    max_entries
        Enumeration cap passed through to unit and complement expansion.

    Raises
    ------
    MissingStageResult
        A sequential node has no entry in ``stages``.
    InvalidStageResult
        A supplied outcome is not in the first stage's dictionary.
    """
    stages = stages or {}

    def visit(node, kids):
        kind = type(node)
        if kind is Unit:
            return unit_dictionary(u, node.rule, max_entries)
        if kind is not Sequential:
            return combine(_SHAPES[kind][0], u, *kids, max_entries=max_entries)
        d1, d2 = kids
        stage = stages.get(node)
        if stage is None:
            raise MissingStageResult(
                "sequential rule needs the outcome chosen by its first stage"
            )
        if stage.chosen not in d1:
            raise InvalidStageResult(
                f"stage outcome {stage.chosen.to_text()} is not permitted by the first stage"
            )
        # After the stage checks, so a failed call warns nothing. Reported
        # from the caller of eval_rule, past visit and _fold.
        _check_sequential_scopes(d1, d2, stacklevel=5)
        return d2.within(stage.chosen)

    return _fold(expr, _children, visit)


def stage_outcomes(
    u: Universe, expr: Sequential, max_entries: int = DEFAULT_MAX_ENUM
) -> list[tuple[VarSet, Dictionary]]:
    """Enumerate a sequential rule's dictionary for every possible first-stage outcome.

    Returns (outcome, dictionary) pairs in the first stage's canonical
    order. Useful for exhaustive analysis when the data-driven outcome is
    not yet known.
    """
    d1 = eval_rule(u, expr.left, max_entries=max_entries)
    d2 = eval_rule(u, expr.right, max_entries=max_entries)
    _check_sequential_scopes(d1, d2, stacklevel=3)
    return [(m, d2.within(m)) for m in d1]


def sequential_nodes(expr: RuleExpr) -> list[Sequential]:
    """All sequential nodes in pre-order document order."""
    return [n for n in _preorder(expr, _children) if isinstance(n, Sequential)]


def rules_equivalent(
    u: Universe, e1: RuleExpr, e2: RuleExpr, max_entries: int = DEFAULT_MAX_ENUM
) -> bool:
    """True iff the two rules have positionally identical dictionaries.

    Raises
    ------
    UnsupportedForEquivalence
        If either expression contains a sequential node; those dictionaries
        depend on a first-stage outcome, so rule-level equivalence is not
        defined for them.
    """
    for e in (e1, e2):
        if sequential_nodes(e):
            raise UnsupportedForEquivalence(
                "equivalence is undefined for rules containing sequential stages"
            )
    return eval_rule(u, e1, max_entries=max_entries) == eval_rule(u, e2, max_entries=max_entries)


def rule_from_dictionary(u: Universe, d: Dictionary) -> RuleExpr:
    """Build a rule whose dictionary is exactly ``d``.

    Each entry F becomes the conjunction "select all of F" and "select
    none of the rest"; entries are joined with or. The construction is
    deliberately unminimized. The empty dictionary maps to an incoherent
    unit rule that demands more covariates than the universe holds.
    """
    if len(d) == 0:
        return Unit(UnitRule(VarSet.full(u), ConstraintSet.of(u.size + 1)))
    parts = []
    for entry in d:
        inside = Unit(UnitRule(entry, ConstraintSet.of(len(entry))))
        outside = Unit(UnitRule(entry.complement(), ConstraintSet.of(0)))
        parts.append(And(inside, outside))
    return reduce(Or, parts)


def expr_to_json_obj(expr: RuleExpr) -> dict:
    """Nested-object form with ``op`` tags: unit/not/and/or/implies/seq."""

    def visit(node, kids):
        tag, fields = _SHAPES[type(node)]
        if tag != "unit":
            return {"op": tag, **dict(zip(fields, kids))}
        return {
            "op": "unit",
            "counts": sorted(node.rule.constraint.counts),
            "scope": list(node.rule.scope),
        }

    return _fold(expr, _children, visit)


def _json_field(obj, key: str, kind: type = object):
    """``obj[key]``, or ParseError when ``obj`` is no object, lacks it, or it is not a ``kind``."""
    if not isinstance(obj, dict):
        raise ParseError(f"rule node must be a JSON object, got {obj!r}")
    if key not in obj:
        raise ParseError(f"rule node {obj.get('op', '?')!r} has no {key!r} field")
    value = obj[key]
    if not isinstance(value, kind):
        raise ParseError(f"rule node field {key!r} must be a {kind.__name__}, got {value!r}")
    return value


def expr_from_json_obj(u: Universe, obj: dict) -> RuleExpr:
    """Inverse of :func:`expr_to_json_obj` against a known universe.

    Raises
    ------
    ParseError
        If a node is not an object or lacks a field its ``op`` needs.
    ArityMismatch
        If a node's ``op`` is no known tag.
    """

    def children(node) -> tuple:
        op = _json_field(node, "op", str)
        if op not in _NODES:
            raise ArityMismatch(f"unknown rule op {op!r}")
        return tuple(_json_field(node, field) for field in _NODES[op][1])

    def visit(node, kids):
        cls = _NODES[node["op"]][0]
        if cls is not Unit:
            return cls(*kids)
        scope = VarSet.of_names(u, _json_field(node, "scope", list))
        counts = _json_field(node, "counts", list)
        if not all(isinstance(c, int) for c in counts):
            raise ParseError(f"rule node counts must be integers, got {counts!r}")
        return Unit(UnitRule(scope, ConstraintSet(frozenset(counts))))

    return _fold(obj, children, visit)
