"""Independent reference computations for the test suite.

Everything here recomputes expected values from first principles using
representations different from the library's: per-subset membership
scans instead of product constructions, subfamily enumeration instead
of fixpoints, normal equations instead of orthogonal decompositions.
A few are frozen copies of earlier library code, kept as references
that a faster path must match exactly. Tests compare library output
against these.
"""

from __future__ import annotations

import csv
import math
import random

import numpy as np

from ruledict.core import ConstraintSet, Dictionary, Universe, VarSet
from ruledict.errors import (
    ConstantOutcome,
    DatasetTooSmall,
    EmptyDictionary,
    EnumerationTooLarge,
    MissingValue,
    ParseError,
    RankDeficient,
    SchemaMismatch,
    Underdetermined,
)
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
from ruledict.select import (
    CRITERIA,
    Dataset,
    FitResult,
    RankedModels,
    ScoredModel,
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


#: Bits 8-20 of a 21-variable universe.
_HIGH = ((1 << 21) - 1) & ~0xFF


def lift(m: int) -> int:
    """φ: an 8-variable mask into 21 variables, bits 8-20 set along with bit 7.

    φ keeps unions, mask order and the full set, so everything computed
    over 8 variables (bitmap) maps through φ onto the same computation
    over 21 variables (mask tuple).
    """
    return m | _HIGH if m & 0x80 else m


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
# Best-subset selection as it was before the per-model loop was hoisted:
# one design per model from names, one reordering of X per CV fit. The
# library must match it bit for bit.


def _fold_bounds(n: int, folds: int) -> list[tuple[int, int]]:
    """Contiguous blocks whose sizes differ by at most one, the larger ones first."""
    base, rem = divmod(n, folds)
    starts = [i * base + min(i, rem) for i in range(folds + 1)]
    return list(zip(starts, starts[1:]))


def score(f: FitResult, criterion: str, n: int) -> float:
    """The aic, bic and adjr2 scores in the library's operation order, so that
    the bits match: gaussian profile likelihood with the variance as one more
    parameter, adjusted R-squared negated, and -inf for a perfect fit."""
    if f.rss == 0.0:
        return float("-inf")
    if criterion == "aic":
        return n * math.log(f.rss / n) + 2 * (f.k + 1)
    if criterion == "bic":
        return n * math.log(f.rss / n) + (f.k + 1) * math.log(n)
    if n <= f.k:
        raise DatasetTooSmall(f"adjusted r2 needs n > {f.k}, have n={n}")
    if f.tss == 0.0:
        raise ConstantOutcome("adjusted r2 is undefined: every outcome value is the same")
    r2 = 1.0 - f.rss / f.tss
    adjusted = 1.0 - (1.0 - r2) * (n - 1) / (n - f.k)
    return -adjusted


def _design(d: Dataset, s: VarSet) -> np.ndarray:
    idx = [d.universe.index(name) for name in s]
    return np.column_stack([np.ones(d.n), d.X[:, idx]] if idx else [np.ones(d.n)])


def fit_ols(d: Dataset, s: VarSet) -> FitResult:
    """Least squares with intercept for one subset.

    Uses an orthogonal decomposition (numpy lstsq) rather than the
    normal equations. Rank deficiency is an error: silently dropping a
    column would change which subset was actually fitted.
    """
    k = len(s) + 1
    if k > d.n:
        raise Underdetermined(f"{k} parameters but only {d.n} rows")
    design = _design(d, s)
    beta, _, rank, _ = np.linalg.lstsq(design, d.y, rcond=None)
    if rank < k:
        raise RankDeficient(f"design for {s.to_text()} has rank {rank} < {k}")
    resid = d.y - design @ beta
    rss = float(resid @ resid)
    centered = d.y - d.y.mean()
    tss = float(centered @ centered)
    return FitResult(
        subset=s,
        intercept=float(beta[0]),
        coefficients=tuple(float(b) for b in beta[1:]),
        rss=rss,
        tss=tss,
        k=k,
    )


def _cv_score(d: Dataset, s: VarSet, folds: int, order: np.ndarray) -> float:
    idx = [d.universe.index(name) for name in s]
    X = d.X[order][:, idx] if idx else np.empty((d.n, 0))
    y = d.y[order]
    total = 0.0
    for start, end in _fold_bounds(d.n, folds):
        train = np.concatenate([np.arange(0, start), np.arange(end, d.n)])
        design = np.column_stack([np.ones(train.size), X[train]])
        beta, _, rank, _ = np.linalg.lstsq(design, y[train], rcond=None)
        if rank < design.shape[1]:
            raise RankDeficient(
                f"training fold design for {s.to_text()} is rank deficient"
            )
        test = np.arange(start, end)
        pred = np.column_stack([np.ones(test.size), X[test]]) @ beta
        err = y[test] - pred
        total += float(err @ err)
    return total / d.n


def rank_key(m: ScoredModel) -> tuple:
    """The sort key of a model: score, then subset size, then mask."""
    return m.score, len(m.subset), m.subset.mask


def select_best(
    d: Dataset,
    D: Dictionary,
    criterion: str,
    folds: int | None = None,
    seed: int | None = None,
) -> RankedModels:
    """Fit and score every dictionary entry; return them ranked.

    ``criterion`` is one of aic, bic, adjr2, cv. Cross-validation
    requires ``folds``; its score is the held-out squared error pooled
    over all rows, and the reported coefficients still come from the
    full-data fit. ``seed`` shuffles rows before blocking into folds;
    ``folds`` and ``seed`` are errors for the other criteria.
    Ties rank the smaller subset first, then canonical subset order.
    """
    if criterion not in CRITERIA:
        raise ValueError(f"unknown criterion {criterion!r}")
    if criterion == "cv":
        if folds is None:
            raise ValueError("criterion 'cv' requires folds")
        if folds < 2:
            raise ValueError("folds must be at least 2")
        if folds > d.n:
            raise DatasetTooSmall(f"{folds} folds but only {d.n} rows")
    elif folds is not None or seed is not None:
        raise ValueError(f"folds and seed apply only to criterion 'cv', not {criterion!r}")
    if not D:
        raise EmptyDictionary(
            "the dictionary is empty (an incoherent rule admits no subsets), "
            "so there is nothing to select from"
        )
    if D.universe != d.universe:
        raise SchemaMismatch("dictionary and dataset use different universes")
    if criterion == "cv":
        largest = max(len(s) for s in D.entries)
        min_train = d.n - max(end - start for start, end in _fold_bounds(d.n, folds))
        if largest + 1 > min_train:
            raise DatasetTooSmall(
                f"training folds of {min_train} rows cannot fit {largest + 1} parameters"
            )
        if seed is None:
            order = np.arange(d.n)
        else:
            order = np.random.default_rng(seed).permutation(d.n)
    scored = []
    for subset in D.entries:
        fit = fit_ols(d, subset)
        if criterion == "cv":
            value = _cv_score(d, subset, folds, order)
        else:
            value = score(fit, criterion, d.n)
        scored.append(
            ScoredModel(
                subset=subset,
                score=value,
                intercept=fit.intercept,
                coefficients=fit.coefficients,
            )
        )
    scored.sort(key=rank_key)
    return RankedModels(criterion=criterion, models=tuple(scored))


# ---------------------------------------------------------------------------
# The CSV loader as it stood when every cell went through its own checks
# into a list of Python-float rows. The library's loader must give the
# same array, or the same error class and text.

_FROZEN_MISSING_TOKENS = {"", "na", "nan", "n/a", "null", "none"}


def _records(fh, path):
    """The CSV records of ``fh``, with a decoding error or a malformed record
    raised as a ParseError that names ``path`` and the 1-based record."""
    rownum = 0
    try:
        for rownum, record in enumerate(csv.reader(fh), start=1):
            yield record
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None
    except csv.Error as exc:
        raise ParseError(f"{path}: row {rownum + 1}: {exc}", row=rownum + 1) from None


def load_dataset(path, outcome: str, u: Universe) -> Dataset:
    if outcome in u:
        raise SchemaMismatch(f"outcome column {outcome!r} is also a covariate")
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = _records(fh, path)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaMismatch("empty file: no header row") from None
        header = [h.strip() for h in header]
        positions = {}
        for idx, name in enumerate(header):
            if name not in positions:
                positions[name] = idx
        needed = list(u.names) + [outcome]
        for name in needed:
            if name not in positions:
                raise SchemaMismatch(f"missing column {name!r} in header")
        cols = [positions[name] for name in needed]
        rows = []
        for rownum, record in enumerate(reader, start=2):
            if not record or (len(record) == 1 and not record[0].strip()):
                continue
            values = []
            for name, idx in zip(needed, cols):
                if idx >= len(record):
                    raise MissingValue(
                        f"row {rownum} has no value for column {name!r}",
                        row=rownum,
                        column=name,
                    )
                cell = record[idx].strip()
                if cell.lower() in _FROZEN_MISSING_TOKENS:
                    raise MissingValue(
                        f"missing value at row {rownum}, column {name!r}",
                        row=rownum,
                        column=name,
                    )
                try:
                    value = float(cell)
                except ValueError:
                    raise ParseError(
                        f"non-numeric cell {cell!r} at row {rownum}, column {name!r}",
                        row=rownum,
                        column=name,
                    ) from None
                if not math.isfinite(value):
                    raise MissingValue(
                        f"non-finite value at row {rownum}, column {name!r}",
                        row=rownum,
                        column=name,
                    )
                values.append(value)
            rows.append(values)
    if len(rows) < 2:
        raise DatasetTooSmall(f"need at least 2 data rows, found {len(rows)}")
    data = np.asarray(rows, dtype=np.float64)
    return Dataset(universe=u, outcome=outcome, X=data[:, : u.size], y=data[:, u.size])


# ---------------------------------------------------------------------------
# Frozen copies of the rule text writers as they stood before both came to
# share one pre-order walker: canonical text and the record repr must keep
# these bytes.

# Level, operator text, and right-associativity, as ruledict.dsl had them.
_FROZEN_ATOM, _FROZEN_NOT = 5, 4
_FROZEN_SYNTAX = {
    Implies: (1, " -> ", True),
    Sequential: (1, " => ", True),
    Or: (2, " or ", False),
    And: (3, " and ", False),
    Not: (_FROZEN_NOT, "not ", False),
}
_FROZEN_FIELDS = {
    Unit: (),
    Not: ("child",),
    And: ("left", "right"),
    Or: ("left", "right"),
    Implies: ("left", "right"),
    Sequential: ("left", "right"),
}


def format_rule_reference(expr: RuleExpr) -> str:
    """``ruledict.dsl.format_rule`` as it was: one stack of text and
    (node, parent level, strict) items, joined once."""
    out = []
    stack: list = [(expr, 0, False)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        node, parent, strict = item
        if isinstance(node, Unit):
            level = _FROZEN_ATOM
        elif type(node) in _FROZEN_SYNTAX:
            level, word, right_assoc = _FROZEN_SYNTAX[type(node)]
        else:
            raise TypeError(f"not a rule expression: {node!r}")
        if level < parent or (strict and level == parent):
            out.append("(")
            stack.append(")")
        if level == _FROZEN_ATOM:
            out.append(f"select {node.rule.constraint.to_text()} of {{{','.join(node.rule.scope)}}}")
        elif level == _FROZEN_NOT:
            out.append(word)
            stack.append((node.child, level, False))
        else:
            stack.append((node.right, level, not right_assoc))
            stack.append(word)
            stack.append((node.left, level, right_assoc))
    return "".join(out)


def _postorder_fold(root, children, visit):
    """``ruledict.rules._fold`` as it was, which the frozen repr runs on."""
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


def rule_repr_reference(expr: RuleExpr) -> str:
    """``RuleExpr.__repr__`` as it was: the opening text goes out when a
    node's children are taken, the ")" when the node is visited, and the
    text between two fields is a child of its own."""
    out = []

    def opening(item):
        if isinstance(item, str):
            out.append(item)
            return ()
        if type(item) is Unit:
            out.append(f"Unit(rule={item.rule!r})")
            return ()
        first, *rest = _FROZEN_FIELDS[type(item)]
        out.append(f"{type(item).__qualname__}({first}=")
        kids = [getattr(item, first)]
        for field in rest:
            kids += [f", {field}=", getattr(item, field)]
        return kids

    def closing(item, _):
        if isinstance(item, RuleExpr) and type(item) is not Unit:
            out.append(")")

    _postorder_fold(expr, opening, closing)
    return "".join(out)


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
