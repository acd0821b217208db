"""Grouping structures and their relationship to selection dictionaries.

A grouping structure is a family of non-empty covariate groups covering
the universe. Penalised estimators built from groups can only realise
certain selection patterns; this module checks whether a dictionary is
exactly the pattern family of a grouping (for the latent overlapping
style), whether a weaker necessary condition holds (for the plain
overlapping style), synthesises a grouping from a dictionary when one
exists, and produces the equivalent selection rule for the classical
group penalties.
"""

from __future__ import annotations

import enum
from functools import reduce

from .core import (
    BITMAP_MAX_VARS,
    DEFAULT_MAX_ENUM,
    ConstraintSet,
    Dictionary,
    Record,
    Universe,
    VarSet,
    _bit_positions,
    parse_braced_names,
    var_planes,
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
        if not self.groups:
            raise InvalidGrouping("a grouping needs at least one group")
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
        groups = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            groups.append(parse_braced_names(u, line, "grouping entry"))
        return cls(u, tuple(groups))

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

    Computed in one pass over the groups: after each group, the reached
    unions are those of the groups so far. Bounded by the number of
    distinct unions rather than the 2^m subfamilies. On a bitmap, adding
    a group forces its bits into every reached mask: for each member
    ``i``, the masks without ``i`` move up by ``2**i``.
    """
    u = g.universe
    bitmap = u.size <= BITMAP_MAX_VARS
    planes = var_planes(u.size) if bitmap else ()
    reached = 1 if bitmap else {0}
    for gm in g.masks():
        if bitmap:
            moved = reached
            for i in _bit_positions(gm):
                moved = (moved & planes[i]) | ((moved & ~planes[i]) << (1 << i))
            reached |= moved
        else:
            reached |= {m | gm for m in reached}
        if (reached.bit_count() if bitmap else len(reached)) > max_entries:
            raise EnumerationTooLarge(f"union closure exceeds {max_entries} entries")
    return Dictionary._of(u, reached) if bitmap else Dictionary.from_masks(u, reached)


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
    closure = union_closure(g, max_entries)
    if closure._bitmap:
        # Mask m maps to full ^ m, which reverses the 2**n-bit map.
        complements = Dictionary._of(u, _reverse_bits(closure._data, 1 << u.size))
    else:
        complements = Dictionary.from_masks(u, (u.full_mask & ~m for m in closure.masks()))
    full = Dictionary.from_masks(u, (u.full_mask,))
    rule_family = d.difference(full)
    method_family = complements.difference(full)
    missing = rule_family.difference(method_family)
    extra = method_family.difference(rule_family)
    return CongruenceReport(
        congruent=not missing and not extra,
        missing=missing,
        extra=extra,
        rule_family=rule_family,
        method_family=method_family,
    )


#: Each byte value with its 8 bits in reverse order.
_BYTE_REVERSED = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _reverse_bits(bits: int, width: int) -> int:
    """``bits`` read backwards over ``width`` bits: bit m moves to ``width - 1 - m``."""
    size = (width + 7) // 8
    flipped = int.from_bytes(bits.to_bytes(size, "big").translate(_BYTE_REVERSED), "little")
    return flipped >> (8 * size - width)


def _irreducible_bitmap(d: Dictionary) -> tuple[int, ...] | None:
    """The union-irreducible entries of a bitmap family that holds the empty set.

    Returns ``None`` when the family is not union-closed. For each
    variable ``j``, the up-closure ``up`` of the entries containing ``j``
    marks the masks m whose union U(m) of entries inside m contains
    ``j``; a family with the empty set is union-closed exactly when its
    members are the fixed points U(m) = m. Shifting ``up`` one variable
    further marks the masks with an entry strictly inside them that
    contains ``j``, and an entry is irreducible exactly when some
    variable of it is in no entry strictly inside it. This is the subset
    zeta transform done bit-parallel: about 2n^2 operations on
    ``2**n``-bit ints.
    """
    planes = var_planes(d.universe.size)
    steps = [(~p, 1 << i) for i, p in enumerate(planes)]
    bits = d._data
    fixed = (1 << (1 << d.universe.size)) - 1
    exposed = 0
    for plane in planes:
        up = bits & plane
        for outside, shift in steps:
            up |= (up & outside) << shift
        fixed &= ~(up ^ plane)
        below = 0
        for outside, shift in steps:
            below |= (up & outside) << shift
        exposed |= plane & ~below
    if fixed != bits:
        return None
    return Dictionary._of(d.universe, bits & exposed).masks()


def _first_gap(d: Dictionary) -> tuple[int, int] | None:
    """The first pair a < b of entries, in ascending order, whose union is no entry.

    ``None`` when the family is union-closed. On a bitmap, projecting
    the family onto the supersets of a (bit b of ``proj`` is bit a|b of
    the family) takes one step per variable of a; a mask tuple is
    searched pair by pair.
    """
    if not d._bitmap:
        masks = d.masks()
        present = set(masks)
        pairs = ((a, b) for i, a in enumerate(masks) for b in masks[i + 1 :])
        return next(((a, b) for a, b in pairs if a | b not in present), None)
    planes = var_planes(d.universe.size)
    bits = d._data
    for a in d.masks():
        proj = bits
        for i in _bit_positions(a):
            upper = proj & planes[i]
            proj = upper | (upper >> (1 << i))
        gaps = (bits & ~proj) >> (a + 1)
        if gaps:
            return a, a + (gaps & -gaps).bit_length()
    return None


def _irreducible_generators(masks: tuple[int, ...]) -> list[int]:
    """Entries that are not unions of strictly smaller entries, pairwise."""
    nonzero = [m for m in masks if m != 0]
    out = []
    for m in nonzero:
        union = 0
        for other in nonzero:
            if other != m and (other & ~m) == 0:
                union |= other
        if union != m:
            out.append(m)
    return out


def synthesize_log_grouping(d: Dictionary) -> GroupingStructure:
    """Build a grouping whose union closure is exactly ``d``, if one exists.

    One exists iff ``d`` contains the empty set and the full universe
    and is closed under pairwise unions. On failure the raised error
    says which condition broke, with a witness pair for closure: the
    first pair a < b, in ascending mask order, whose union is missing.
    Over at most :data:`BITMAP_MAX_VARS` covariates this costs about n^2
    bitmap operations; over more it compares every pair of entries.
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
    # The irreducibles of a union-closed family generate it.
    if d._bitmap:
        groups = _irreducible_bitmap(d)
        gap = _first_gap(d) if groups is None else None
    else:
        gap = _first_gap(d)
        groups = _irreducible_generators(d.masks()) if gap is None else None
    if gap is not None:
        a, b = VarSet(u, gap[0]), VarSet(u, gap[1])
        raise SynthesisFailure(
            f"not closed under union: {a.to_text()} with {b.to_text()}",
            reason="not-union-closed",
            witness=(a, b),
        )
    return GroupingStructure(u, tuple(VarSet(u, m) for m in groups))


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
