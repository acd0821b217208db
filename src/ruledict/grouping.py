"""Grouping structures and their relationship to selection dictionaries.

A grouping structure is a family of non-empty covariate groups covering
the universe. Penalised estimators built from groups can only realise
certain selection patterns; this module checks whether a dictionary is
exactly the pattern family of a grouping (latent overlapping style),
whether a weaker necessary condition holds (plain overlapping style),
synthesises a grouping from a dictionary when one exists, and gives the
equivalent selection rule for the classical group penalties. One code
path serves every dictionary: joining a group, complements, the union
test and the generators are :class:`~ruledict.core.Dictionary` methods,
and how a dictionary is stored is known to :mod:`ruledict.core` alone.
"""

from __future__ import annotations

import enum
from functools import reduce

from .core import (
    DEFAULT_MAX_ENUM,
    ConstraintSet,
    Dictionary,
    Record,
    Universe,
    VarSet,
    read_brace_lines,
)
from .errors import (
    EnumerationTooLarge,
    IncompatibleGrouping,
    InvalidGrouping,
    SynthesisFailure,
    UseClosureInstead,
)
from .rules import And, RuleExpr, Unit, UnitRule


class GroupingStructure(Record):
    """Non-empty groups of covariates whose union is the whole universe."""

    __slots__ = ("universe", "groups")
    universe: Universe
    groups: tuple[VarSet, ...]

    def __post_init__(self):
        seen = set()
        union = 0
        for g in self.groups:
            if g.universe is not self.universe and g.universe != self.universe:
                raise InvalidGrouping("group universe differs from the grouping's")
            if g.mask == 0:
                raise InvalidGrouping("groups must be non-empty")
            if g.mask in seen:
                raise InvalidGrouping(f"duplicate group {g.to_text()}")
            seen.add(g.mask)
            union |= g.mask
        if union != self.universe.full_mask:
            missing = VarSet(self.universe, self.universe.full_mask & ~union)
            raise InvalidGrouping(f"groups do not cover {missing.to_text()}")

    @classmethod
    def of_names(cls, u: Universe, groups) -> "GroupingStructure":
        return cls(u, tuple(VarSet.of_names(u, names) for names in groups))

    def masks(self) -> tuple[int, ...]:
        return tuple(g.mask for g in self.groups)

    def is_disjoint(self) -> bool:
        total = 0
        for g in self.groups:
            if total & g.mask:
                return False
            total |= g.mask
        return True

    def to_text(self) -> str:
        return "\n".join(g.to_text() for g in self.groups)

    def to_json_obj(self) -> list[list[str]]:
        return [list(g) for g in self.groups]

    @classmethod
    def from_text(cls, u: Universe, text: str) -> "GroupingStructure":
        return cls(u, tuple(read_brace_lines(u, text)))

    @classmethod
    def from_json_obj(cls, u: Universe, obj) -> "GroupingStructure":
        if not isinstance(obj, list) or not all(isinstance(entry, list) for entry in obj):
            raise InvalidGrouping("grouping JSON must be an array of name arrays")
        return cls(u, tuple(VarSet.of_names(u, entry) for entry in obj))


class Method(enum.Enum):
    """Penalised selection methods with a known pattern family."""

    LASSO = "lasso"
    ADAPTIVE_LASSO = "adaptive-lasso"
    GROUP_LASSO = "group-lasso"
    EXCLUSIVE_GROUP_LASSO = "exclusive-group-lasso"
    LATENT_OVERLAPPING_GROUP_LASSO = "latent-overlapping-group-lasso"

    @property
    def display_name(self) -> str:
        return _METHOD_DISPLAY[self]

    @property
    def penalty_description(self) -> str:
        return _METHOD_PENALTY[self]


_METHOD_DISPLAY = {
    Method.LASSO: "Lasso",
    Method.ADAPTIVE_LASSO: "Adaptive Lasso",
    Method.GROUP_LASSO: "Group Lasso",
    Method.EXCLUSIVE_GROUP_LASSO: "Exclusive Group Lasso",
    Method.LATENT_OVERLAPPING_GROUP_LASSO: "Latent Overlapping Group Lasso",
}

_METHOD_PENALTY = {
    Method.LASSO: "sum of absolute coefficients",
    Method.ADAPTIVE_LASSO: "weighted sum of absolute coefficients",
    Method.GROUP_LASSO: "sum of euclidean norms over disjoint groups",
    Method.EXCLUSIVE_GROUP_LASSO: "sum of squared l1 norms over disjoint groups",
    Method.LATENT_OVERLAPPING_GROUP_LASSO: "infimum over latent decompositions of group norms",
}


def union_closure(g: GroupingStructure, max_entries: int = DEFAULT_MAX_ENUM) -> Dictionary:
    """All unions of subfamilies of the groups, including the empty union.

    One pass joins each group onto every union reached so far, so the cost
    is bounded by the number of distinct unions, not the 2^m subfamilies.
    """
    reached = Dictionary.from_masks(g.universe, (0,))
    for gm in g.masks():
        reached = reached.union(reached.joined(gm))
        if len(reached) > max_entries:
            raise EnumerationTooLarge(f"union closure exceeds {max_entries} entries")
    return reached


class CongruenceReport(Record):
    """Outcome of comparing a dictionary against a grouping's pattern family.

    ``missing`` holds dictionary entries the family cannot produce;
    ``extra`` holds family members outside the dictionary. The two
    optional families record the compared sets for the overlapping
    check, which compares complements rather than the closure itself.
    """

    __slots__ = ("congruent", "missing", "extra", "rule_family", "method_family")
    _defaults = {"rule_family": None, "method_family": None}
    congruent: bool
    missing: Dictionary
    extra: Dictionary
    rule_family: Dictionary | None
    method_family: Dictionary | None


def check_log_congruence(
    d: Dictionary, g: GroupingStructure, max_entries: int = DEFAULT_MAX_ENUM
) -> CongruenceReport:
    """Does the latent overlapping grouping realise exactly ``d``?

    The realisable patterns of the latent overlapping penalty are the
    unions of groups, so this is an equality test against the union
    closure.
    """
    closure = union_closure(g, max_entries)
    missing = d.difference(closure)
    extra = closure.difference(d)
    return CongruenceReport(
        congruent=not missing and not extra,
        missing=missing,
        extra=extra,
    )


def check_ogl_necessary(
    d: Dictionary, g: GroupingStructure, max_entries: int = DEFAULT_MAX_ENUM
) -> CongruenceReport:
    """Necessary condition for the plain overlapping penalty to realise ``d``.

    The zero patterns of that penalty are unions of groups, so the
    nonzero patterns are complements of such unions. The full universe
    is realisable regardless (take the empty union, or penalise
    nothing), so it is set aside on both sides before comparing.
    """
    u = g.universe
    full = Dictionary.from_masks(u, (u.full_mask,))
    rule_family = d.difference(full)
    method_family = union_closure(g, max_entries).complements().difference(full)
    missing = rule_family.difference(method_family)
    extra = method_family.difference(rule_family)
    return CongruenceReport(
        congruent=not missing and not extra,
        missing=missing,
        extra=extra,
        rule_family=rule_family,
        method_family=method_family,
    )


def synthesize_log_grouping(d: Dictionary) -> GroupingStructure:
    """Build a grouping whose union closure is exactly ``d``, if one exists.

    One exists iff ``d`` contains the empty set and the full universe
    and is closed under pairwise unions. On failure the raised error
    says which condition broke, with a witness pair for closure: the
    first pair a < b, in ascending mask order, whose union is missing.
    That a is irreducible, as were it the union of smaller entries c1..ck,
    some ci would fail first, with the entry b | c1 | ... | c(i-1); so the
    witness search runs :meth:`Dictionary.unjoinable` on generators only.
    """
    u = d.universe
    if VarSet.empty(u) not in d:
        raise SynthesisFailure(
            "dictionary lacks the empty set", reason="missing-empty-set"
        )
    if VarSet.full(u) not in d:
        raise SynthesisFailure(
            "dictionary lacks the full universe", reason="missing-full-set"
        )
    groups, closed = d.union_generators()
    if not closed:
        a, gaps = next((a, gaps) for a in groups.masks() if (gaps := d.unjoinable(a)))
        a, b = VarSet(u, a), VarSet(u, gaps.masks()[0])
        raise SynthesisFailure(
            f"not closed under union: {a.to_text()} with {b.to_text()}",
            reason="not-union-closed",
            witness=(a, b),
        )
    return GroupingStructure(u, groups.entries)


def check_compatibility(method: Method, g: GroupingStructure) -> bool:
    """Can this method be driven by this grouping at all?

    The lasso variants need singleton groups; the disjoint group
    penalties need a partition; the latent overlapping penalty accepts
    any grouping.
    """
    if method in (Method.LASSO, Method.ADAPTIVE_LASSO):
        return all(len(grp) == 1 for grp in g.groups)
    if method in (Method.GROUP_LASSO, Method.EXCLUSIVE_GROUP_LASSO):
        return g.is_disjoint()
    return True


def method_rule(method: Method, g: GroupingStructure) -> RuleExpr:
    """Selection rule whose dictionary matches the method's pattern family.

    Raises
    ------
    IncompatibleGrouping
        The grouping fails :func:`check_compatibility` for the method.
    UseClosureInstead
        The latent overlapping family is not a conjunction of per-group
        count rules; compute :func:`union_closure` directly.
    """
    if method is Method.LATENT_OVERLAPPING_GROUP_LASSO:
        raise UseClosureInstead(
            "the latent overlapping pattern family is the union closure of the "
            "groups, not a per-group count rule"
        )
    if not check_compatibility(method, g):
        raise IncompatibleGrouping(
            f"{method.display_name} cannot use grouping:\n{g.to_text()}"
        )
    u = g.universe
    if method in (Method.LASSO, Method.ADAPTIVE_LASSO):
        return Unit(UnitRule(VarSet.full(u), ConstraintSet.closed_range(0, u.size)))
    if method is Method.GROUP_LASSO:
        units = [
            Unit(UnitRule(grp, ConstraintSet.of(0, len(grp)))) for grp in g.groups
        ]
    else:  # exclusive group lasso
        units = [
            Unit(UnitRule(grp, ConstraintSet.closed_range(1, len(grp))))
            for grp in g.groups
        ]
    return reduce(And, units)
