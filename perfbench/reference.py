"""Independent references for every job the benchmark runs.

Nothing here calls the engine under test. Rules are kept as small tuple
trees made by the generators and evaluated subset by subset: a unit is
the set of masks whose popcount inside the scope is an allowed count,
and the connectives are element-wise boolean algebra over all 2^n
masks. Groupings use brute-force irreducibles and a closure made by
enumerating every subfamily of groups. Least squares uses the normal
equations instead of an orthogonal decomposition.

A rule tree is one of
    ("unit", scope_indices, counts)
    ("not", child)
    ("and" | "or" | "implies", left, right)
with scope indices and counts as ascending tuples.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Score and coefficient tolerance for select: |a - b| <= TOL * (1 + |b|).
# Normal equations and the engine's orthogonal solver agree to within
# 5e-14 on the well-conditioned designs the generator makes, while
# neighbouring scores in a ranking lie 1e-9 or more apart.
SELECT_TOL = 1e-10

_LEVEL = {"implies": 1, "or": 2, "and": 3, "not": 4, "unit": 5}


# ---------------------------------------------------------------------------
# Rules


def eval_bitmap(n: int, expr, node_sizes: list | None = None) -> np.ndarray:
    """Boolean array over all 2^n masks: True where the rule admits the subset.

    When ``node_sizes`` is given, the entry count of every node is appended
    in post-order.
    """
    masks = np.arange(1 << n, dtype=np.uint32)

    def ev(e):
        op = e[0]
        if op == "unit":
            scope = 0
            for i in e[1]:
                scope |= 1 << i
            if max(e[2]) > len(e[1]):
                r = np.zeros(masks.shape, dtype=bool)
            else:
                r = np.isin(np.bitwise_count(masks & np.uint32(scope)), e[2])
        elif op == "not":
            r = ~ev(e[1])
        else:
            a, b = ev(e[1]), ev(e[2])
            if op == "and":
                r = a & b
            elif op == "or":
                r = a | b
            else:
                r = ~a | b
        if node_sizes is not None:
            node_sizes.append(int(r.sum()))
        return r

    return ev(expr)


def format_rule(names, expr) -> str:
    """Canonical rule text: sorted counts, scope in universe order, minimal parens."""
    op = expr[0]
    if op == "unit":
        counts = ",".join(str(c) for c in expr[2])
        scope = ",".join(names[i] for i in expr[1])
        return f"select {{{counts}}} of {{{scope}}}"
    if op == "not":
        return "not " + _child(names, expr[1], _LEVEL["not"], strict=False)
    if op in ("and", "or"):
        lvl = _LEVEL[op]
        return (
            _child(names, expr[1], lvl, strict=False)
            + f" {op} "
            + _child(names, expr[2], lvl, strict=True)
        )
    return (
        _child(names, expr[1], _LEVEL["implies"], strict=True)
        + " -> "
        + _child(names, expr[2], _LEVEL["implies"], strict=False)
    )


def _child(names, expr, parent_level: int, strict: bool) -> str:
    text = format_rule(names, expr)
    lvl = _LEVEL[expr[0]]
    if lvl < parent_level or (strict and lvl == parent_level):
        return "(" + text + ")"
    return text


def rule_document(names, expr) -> str:
    return "vars: " + ", ".join(names) + "\n" + format_rule(names, expr) + "\n"


# ---------------------------------------------------------------------------
# Expected CLI output. json.dumps(indent=2) is the documented format; long
# subset lists are assembled from per-mask fragments so that a 10^5-entry
# reference costs a join instead of a full serialisation.


class EntryText:
    """JSON text of every subset of one universe, at list-element indent."""

    def __init__(self, names):
        self.names = list(names)
        n = len(self.names)
        quoted = [json.dumps(x) for x in self.names]
        texts = ["    []"]
        for i in range(n):
            # Masks with top bit i are the earlier ones plus name i.
            name_line = "      " + quoted[i]
            for m in range(1 << i):
                prev = texts[m]
                if m == 0:
                    texts.append("    [\n" + name_line + "\n    ]")
                else:
                    texts.append(prev[:-6] + ",\n" + name_line + "\n    ]")
        self.texts = texts

    def list_text(self, masks) -> str:
        """``json.dumps(entries, indent=2)`` nested one level, for these masks."""
        if len(masks) == 0:
            return "[]"
        t = self.texts
        return "[\n" + ",\n".join([t[m] for m in masks]) + "\n  ]"


def masks_to_names(names, masks) -> list[list[str]]:
    return [[names[i] for i in range(len(names)) if m >> i & 1] for m in masks]


def dump_with_lists(payload: dict, lists: dict, entry_text: EntryText) -> str:
    """json.dumps(payload, indent=2) where each key in ``lists`` maps to a mask list.

    The keys named in ``lists`` must be present in ``payload`` with value None.
    """
    text = json.dumps(payload, indent=2)
    for key, masks in lists.items():
        marker = f"{json.dumps(key)}: null"
        text = text.replace(marker, f"{json.dumps(key)}: {entry_text.list_text(masks)}")
    return text + "\n"


def expected_dict_output(names, expr, bitmap, entry_text: EntryText) -> str:
    masks = np.flatnonzero(bitmap)
    payload = {
        "universe": list(names),
        "rule": format_rule(names, expr),
        "size": int(masks.size),
        "dictionary": None,
    }
    return dump_with_lists(payload, {"dictionary": masks.tolist()}, entry_text)


# ---------------------------------------------------------------------------
# Groupings


def irreducibles(masks: np.ndarray) -> list[int]:
    """Non-empty entries that are not the union of the entries strictly below them."""
    arr = np.asarray(masks, dtype=np.uint32)
    out = []
    for m in arr.tolist():
        if m == 0:
            continue
        below = arr[((arr & np.uint32(~m & 0xFFFFFFFF)) == 0) & (arr != m)]
        union = int(np.bitwise_or.reduce(below)) if below.size else 0
        if union != m:
            out.append(m)
    return out


def closure_by_subfamilies(group_masks) -> np.ndarray:
    """Sorted distinct unions over all 2^G subfamilies of the groups."""
    unions = np.zeros(1, dtype=np.uint32)
    for g in group_masks:
        unions = np.concatenate([unions, unions | np.uint32(g)])
    return np.unique(unions)


def grouping_reference(n: int, bitmap: np.ndarray) -> dict:
    """Everything the grouping jobs need: groups, closure and the ogl families."""
    masks = np.flatnonzero(bitmap).astype(np.uint32)
    full = (1 << n) - 1
    groups = irreducibles(masks)
    closure = closure_by_subfamilies(groups)
    if not np.array_equal(closure, masks):
        raise ValueError("generated grouping rule is not union-closed")
    rule_family = masks[masks != full]
    comp = np.unique(np.uint32(full) & ~closure)
    method_family = comp[comp != full]
    return {
        "masks": masks,
        "groups": sorted(groups),
        "closure_size": int(closure.size),
        "rule_family": rule_family,
        "method_family": method_family,
        "ogl_missing": np.setdiff1d(rule_family, method_family),
        "ogl_extra": np.setdiff1d(method_family, rule_family),
    }


def grouping_text(names, groups) -> str:
    return "".join(
        "{" + ",".join(names[i] for i in range(len(names)) if g >> i & 1) + "}\n"
        for g in groups
    )


def expected_synth_output(names, expr, ref) -> str:
    payload = {
        "universe": list(names),
        "rule": format_rule(names, expr),
        "groups": masks_to_names(names, ref["groups"]),
    }
    return json.dumps(payload, indent=2) + "\n"


def expected_check_output(names, method: str, ref, entry_text: EntryText):
    """(stdout, exit code) of ``check`` against the reference grouping."""
    if method == "log":
        payload = {"method": "log", "congruent": True, "missing": [], "extra": []}
        return json.dumps(payload, indent=2) + "\n", 0
    lists = {
        "missing": ref["ogl_missing"].tolist(),
        "extra": ref["ogl_extra"].tolist(),
        "rule_family": ref["rule_family"].tolist(),
        "method_family": ref["method_family"].tolist(),
    }
    congruent = not lists["missing"] and not lists["extra"]
    payload = {"method": "ogl", "congruent": congruent, **dict.fromkeys(lists)}
    return dump_with_lists(payload, lists, entry_text), 0 if congruent else 1


# ---------------------------------------------------------------------------
# Least squares


def fold_bounds(n: int, folds: int) -> list[tuple[int, int]]:
    base, rem = divmod(n, folds)
    out, start = [], 0
    for i in range(folds):
        size = base + (1 if i < rem else 0)
        out.append((start, start + size))
        start += size
    return out


def select_reference(X, y, subsets, criterion: str, folds=None, seed=None) -> dict:
    """Normal-equations fit of every subset: {mask: (score, intercept, coefs)}.

    ``subsets`` are masks over the columns of X. Scores follow the
    documented definitions: gaussian AIC/BIC with the variance counted as
    a parameter, and for cv the held-out squared error pooled over all
    rows, with folds as contiguous blocks of the (optionally shuffled) rows.
    """
    n, p = X.shape
    A = np.column_stack([np.ones(n), X])
    gram, xty = A.T @ A, A.T @ y
    if criterion == "cv":
        order = np.arange(n) if seed is None else np.random.default_rng(seed).permutation(n)
        As, ys = A[order], y[order]
        blocks = []
        for start, end in fold_bounds(n, folds):
            At, yt = As[start:end], ys[start:end]
            blocks.append((gram - At.T @ At, xty - At.T @ yt, At, yt))
    out = {}
    for mask in subsets:
        cols = [0] + [i + 1 for i in range(p) if mask >> i & 1]
        sub = np.ix_(cols, cols)
        beta = np.linalg.solve(gram[sub], xty[cols])
        resid = y - A[:, cols] @ beta
        rss = float(resid @ resid)
        k = len(cols)
        if criterion == "aic":
            value = n * math.log(rss / n) + 2 * (k + 1)
        elif criterion == "bic":
            value = n * math.log(rss / n) + (k + 1) * math.log(n)
        else:
            total = 0.0
            for g, b, At, yt in blocks:
                bf = np.linalg.solve(g[sub], b[cols])
                err = yt - At[:, cols] @ bf
                total += float(err @ err)
            value = total / n
        out[mask] = (value, float(beta[0]), [float(v) for v in beta[1:]])
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= SELECT_TOL * (1.0 + abs(b))


def check_select_output(stdout: bytes, names, ref: dict) -> str | None:
    """None when the ranking matches the reference, else the first problem found.

    The order must be ascending by reference score, ties broken by subset
    size and then mask. Two neighbours may swap only when their reference
    scores agree within the tolerance, since no reference can order them
    more finely than that.
    """
    try:
        models = json.loads(stdout)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if not isinstance(models, list) or len(models) != len(ref):
        return f"expected {len(ref)} models, got {len(models) if isinstance(models, list) else type(models).__name__}"
    index = {name: i for i, name in enumerate(names)}
    seen = set()
    keys = []
    for pos, m in enumerate(models):
        try:
            subset = m["subset"]
            mask = sum(1 << index[s] for s in subset)
        except (KeyError, TypeError):
            return f"model {pos}: malformed subset"
        if subset != [s for s in names if mask >> index[s] & 1]:
            return f"model {pos}: subset {subset} not in universe order"
        if mask not in ref or mask in seen:
            return f"model {pos}: unexpected or repeated subset {subset}"
        seen.add(mask)
        score, intercept, coefs = ref[mask]
        if not isinstance(m.get("score"), (int, float)) or not _close(m["score"], score):
            return f"model {pos} {subset}: score {m.get('score')!r}, reference {score!r}"
        if not isinstance(m.get("intercept"), (int, float)) or not _close(m["intercept"], intercept):
            return f"model {pos} {subset}: intercept {m.get('intercept')!r}, reference {intercept!r}"
        got = m.get("coefficients")
        if not isinstance(got, dict) or list(got) != subset:
            return f"model {pos} {subset}: coefficient names {got!r}"
        for name, want in zip(subset, coefs):
            if not isinstance(got[name], (int, float)) or not _close(got[name], want):
                return f"model {pos} {subset}: coefficient {name} {got[name]!r}, reference {want!r}"
        keys.append((score, len(subset), mask))
    for pos in range(len(keys) - 1):
        a, b = keys[pos], keys[pos + 1]
        if a > b and not _close(a[0], b[0]):
            return f"ranks {pos + 1} and {pos + 2} are out of order: scores {a[0]!r} then {b[0]!r}"
    return None
