"""Independent reference computations for the test suite.

Everything here recomputes expected values from first principles using
representations different from the library's: per-subset membership
scans instead of product constructions, subfamily enumeration instead
of fixpoints, normal equations instead of orthogonal decompositions.
Tests compare library output against these.
"""

from __future__ import annotations

import random

import numpy as np

from ruledict.core import ConstraintSet, Universe, VarSet
from ruledict.errors import EnumerationTooLarge
from ruledict.grouping import GroupingStructure
from ruledict.rules import (
    And,
    Implies,
    Not,
    Or,
    RuleExpr,
    Sequential,
    Unit,
    UnitRule,
)


def unit_member_masks(u: Universe, rule: UnitRule) -> set[int]:
    """All subsets s with |s ∩ scope| in the count set, by direct scan.

    An incoherent rule (largest count exceeds the scope size) has the
    empty dictionary even when some of its counts are achievable.
    """
    if rule.constraint.max > len(rule.scope):
        return set()
    counts = rule.constraint.counts
    scope = rule.scope.mask
    return {
        m
        for m in range(1 << u.size)
        if bin(m & scope).count("1") in counts
    }


def eval_masks(u: Universe, expr: RuleExpr, stages=None) -> set[int]:
    """Set-algebra evaluation of a rule expression, subset by subset."""
    full = set(range(1 << u.size))
    if isinstance(expr, Unit):
        return unit_member_masks(u, expr.rule)
    if isinstance(expr, Not):
        return full - eval_masks(u, expr.child, stages)
    if isinstance(expr, And):
        return eval_masks(u, expr.left, stages) & eval_masks(u, expr.right, stages)
    if isinstance(expr, Or):
        return eval_masks(u, expr.left, stages) | eval_masks(u, expr.right, stages)
    if isinstance(expr, Implies):
        d1 = eval_masks(u, expr.left, stages)
        d2 = eval_masks(u, expr.right, stages)
        return (full - d1) | (d1 & d2)
    if isinstance(expr, Sequential):
        chosen = stages[expr].chosen.mask
        d2 = eval_masks(u, expr.right, stages)
        return {m for m in d2 if m & ~chosen == 0}
    raise TypeError(expr)


def closure_by_enumeration(universe_size: int, group_masks) -> set[int]:
    """Union closure by brute force over all 2^I subfamilies."""
    group_masks = list(group_masks)
    out = set()
    for pick in range(1 << len(group_masks)):
        m = 0
        for i, gm in enumerate(group_masks):
            if pick >> i & 1:
                m |= gm
        out.add(m)
    return out


def closure_by_sets(group_masks, max_entries: int) -> set[int]:
    """Union closure one group at a time over a set of masks.

    Raises EnumerationTooLarge as soon as the reached set passes
    ``max_entries``, as the library does.
    """
    reached = {0}
    for gm in group_masks:
        reached |= {m | gm for m in reached}
        if len(reached) > max_entries:
            raise EnumerationTooLarge(f"union closure exceeds {max_entries} entries")
    return reached


def first_union_gap(masks) -> tuple[int, int] | None:
    """The first pair a < b, in ascending order, with a | b outside the family."""
    ordered = sorted(set(masks))
    present = set(ordered)
    for i, a in enumerate(ordered):
        for b in ordered[i + 1 :]:
            if (a | b) not in present:
                return a, b
    return None


def irreducible_generators(masks) -> list[int]:
    """Non-empty entries that are not the union of the entries strictly inside them."""
    nonzero = sorted(set(masks) - {0})
    out = []
    for m in nonzero:
        union = 0
        for other in nonzero:
            if other != m and (other & ~m) == 0:
                union |= other
        if union != m:
            out.append(m)
    return out


def ogl_families(universe_size: int, masks, closure) -> tuple[set[int], set[int]]:
    """The two families the overlapping check compares, full universe set aside.

    The rule side is the dictionary; the method side is the complements
    of the group unions.
    """
    full = (1 << universe_size) - 1
    return set(masks) - {full}, {full & ~m for m in closure} - {full}


def normal_equations_fit(design: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Textbook least squares: solve (X'X) b = X'y directly."""
    xtx = design.T @ design
    xty = design.T @ y
    return np.linalg.solve(xtx, xty)


# ---------------------------------------------------------------------------
# Random object generators. All driven by random.Random so runs are
# reproducible from a seed.


def random_unit(rng: random.Random, u: Universe, coherent_bias=0.8) -> Unit:
    scope_mask = rng.randrange(1 << u.size)
    scope = VarSet(u, scope_mask)
    size = len(scope)
    if size > 0 and rng.random() < coherent_bias:
        pool = range(size + 1)
    else:
        # allow counts past the scope size so incoherent units appear
        pool = range(u.size + 2)
    n_counts = rng.randint(1, min(3, len(pool)))
    counts = rng.sample(list(pool), n_counts)
    return Unit(UnitRule(scope, ConstraintSet(frozenset(counts))))


def random_rule(
    rng: random.Random, u: Universe, depth: int, allow_seq: bool = False
) -> RuleExpr:
    if depth <= 0 or rng.random() < 0.35:
        return random_unit(rng, u)
    kinds = ["not", "and", "or", "implies"]
    if allow_seq:
        kinds.append("seq")
    kind = rng.choice(kinds)
    if kind == "not":
        return Not(random_rule(rng, u, depth - 1, allow_seq))
    left = random_rule(rng, u, depth - 1, allow_seq)
    right = random_rule(rng, u, depth - 1, allow_seq)
    if kind == "and":
        return And(left, right)
    if kind == "or":
        return Or(left, right)
    if kind == "implies":
        return Implies(left, right)
    return Sequential(left, right)


def random_masks(rng: random.Random, u: Universe) -> list[int]:
    total = 1 << u.size
    k = rng.randint(0, total)
    return rng.sample(range(total), k)


def random_covering_groups(rng: random.Random, u: Universe) -> GroupingStructure:
    """A random grouping: non-empty groups whose union is the universe."""
    n_groups = rng.randint(1, 5)
    masks = []
    for _ in range(n_groups):
        m = rng.randrange(1, 1 << u.size)
        if m not in masks:
            masks.append(m)
    covered = 0
    for m in masks:
        covered |= m
    leftover = u.full_mask & ~covered
    if leftover:
        # every existing mask lies inside `covered`, so this is new
        masks.append(leftover)
    return GroupingStructure(u, tuple(VarSet(u, m) for m in masks))
