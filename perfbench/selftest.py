"""Self-test of the output checkers, on outputs built from the references alone.

The checkers must accept a correct output and reject one with a single
dictionary entry dropped, one with a single score perturbed, and one
with two ranks swapped. ``run.py`` runs this before every measurement;
it can also be run on its own:

    python3 perfbench/selftest.py
"""

from __future__ import annotations

import json
import sys

sys.dont_write_bytecode = True

import numpy as np

import reference as ref
from workloads import Job


def _dict_outputs():
    n = 6
    names = [f"v{i}" for i in range(n)]
    expr = ("or", ("unit", (0, 2, 3), (1, 2)), ("not", ("unit", (1, 4), (2,))))
    bitmap = ref.eval_bitmap(n, expr)
    texts = ref.EntryText(names)
    good = ref.expected_dict_output(names, expr, bitmap, texts)
    dropped = bitmap.copy()
    dropped[np.flatnonzero(bitmap)[len(np.flatnonzero(bitmap)) // 2]] = False
    bad = ref.expected_dict_output(names, expr, dropped, texts)
    return Job("dict", [], int(bitmap.sum()), 0, 0, "", expected=good), good, bad


def _select_outputs():
    names = ["v0", "v1", "v2", "v3"]
    rng = np.random.default_rng(7)
    X = rng.standard_normal((60, 4))
    y = X @ np.array([1.0, -0.5, 0.0, 0.0]) + rng.standard_normal(60)
    expected = ref.select_reference(X, y, range(16), "bic")
    ranked = sorted(expected, key=lambda m: (expected[m][0], bin(m).count("1"), m))

    def render(order, scores):
        models = []
        for mask in order:
            subset = [names[i] for i in range(4) if mask >> i & 1]
            _, intercept, coefs = expected[mask]
            models.append({
                "subset": subset,
                "score": scores[mask],
                "intercept": intercept,
                "coefficients": dict(zip(subset, coefs)),
            })
        return json.dumps(models, indent=2).encode()

    scores = {m: expected[m][0] for m in expected}
    perturbed = dict(scores)
    perturbed[ranked[5]] *= 1 + 1e-4
    swapped = list(ranked)
    swapped[0], swapped[1] = swapped[1], swapped[0]
    return (
        lambda out: ref.check_select_output(out, names, expected),
        render(ranked, scores),
        render(ranked, perturbed),
        render(swapped, scores),
    )


def run() -> list[str]:
    """Checker misbehaviours found; empty when every case is judged right."""
    problems = []
    job, good, dropped = _dict_outputs()
    if job.verify(0, good.encode(), b""):
        problems.append("dict checker rejects the reference output")
    if not job.verify(0, dropped.encode(), b""):
        problems.append("dict checker accepts a dictionary with one entry dropped")
    check, good, perturbed, swapped = _select_outputs()
    if check(good):
        problems.append("select checker rejects the reference ranking: " + check(good))
    if not check(perturbed):
        problems.append("select checker accepts a ranking with one score perturbed")
    if not check(swapped):
        problems.append("select checker accepts a ranking with two ranks swapped")
    return problems


if __name__ == "__main__":
    found = run()
    for p in found:
        print("FAIL " + p)
    print("checker self-test: " + ("failed" if found else "ok"))
    sys.exit(1 if found else 0)
