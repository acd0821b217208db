"""Seeded job lists for the three workloads.

Each workload is a fixed list of job slots. The seed draws the inputs of
every slot (rule scopes and counts, variable roles, data values), while
the slot fixes the shape and the size of the work, so the job list costs
about the same for every seed. ``build`` writes the input files and
returns the jobs with their expected results, computed by ``reference``
without calling the engine.
"""

from __future__ import annotations

import functools
import hashlib
import os
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref


@dataclass
class Job:
    """One CLI invocation and what a correct run of it produces."""

    name: str
    argv: list[str]  # arguments after ``python3 -m ruledict.cli``
    entries: int  # size of the dictionary the job evaluates
    fits: int  # OLS solves the job needs
    exit_code: int
    rule_text: str  # for the traced run's replay of the evaluation
    # Exact expected stdout, or a checker for outputs known only to a tolerance.
    expected: str | None = None
    checker: Callable[[bytes], str | None] | None = None

    def __post_init__(self):
        if self.expected is not None:
            self.expected_digest = digest(self.expected.encode())

    def verify_status(self, code: int, stderr: bytes) -> str | None:
        """None when the exit code is the expected one and nothing crashed."""
        if b"Traceback" in stderr:
            return "traceback on stderr: " + stderr.decode(errors="replace")[-300:]
        if code != self.exit_code:
            tail = stderr.decode(errors="replace")[-300:]
            return f"exit code {code}, expected {self.exit_code}: {tail}"
        return None

    def verify(self, code: int, stdout: bytes, stderr: bytes) -> str | None:
        """None for a correct run, else what was wrong with it."""
        problem = self.verify_status(code, stderr)
        if problem:
            return problem
        if self.checker is not None:
            return self.checker(stdout)
        if digest(stdout) == self.expected_digest:
            return None
        got = stdout.decode(errors="replace").split("\n")
        want = self.expected.split("\n")
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return f"stdout line {i + 1} is {a[:80]!r}, reference {b[:80]!r}"
        return f"stdout has {len(got)} lines, reference {len(want)}"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _names(n: int) -> list[str]:
    return [f"v{i}" for i in range(n)]


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path


# ---------------------------------------------------------------------------
# enumerate

ENUM_VARS = 16
U = "U"
# (shape, target entries, target summed node entries), sizes as multiples
# of 2^ENUM_VARS. Targets sit near the median of each shape's draws.
ENUM_SLOTS = [
    (("or", ("and", U, U), ("and", U, U)), 0.45, 3.0),
    (("implies", ("and", U, U), ("or", U, U)), 0.95, 4.0),
    (("and", ("not", ("or", U, U)), ("or", U, ("and", U, U))), 0.12, 4.5),
    (("or", ("implies", U, ("and", U, U)), ("and", ("not", U), ("or", U, U))), 0.80, 6.3),
]
ENUM_DRAWS = 64


def _random_unit(rng: random.Random, n: int):
    k = rng.randint(2, 6)
    scope = tuple(sorted(rng.sample(range(n), k)))
    counts = tuple(sorted(rng.sample(range(k + 1), rng.randint(1, k))))
    return ("unit", scope, counts)


def _fill(rng: random.Random, n: int, shape):
    if shape == U:
        return _random_unit(rng, n)
    return (shape[0],) + tuple(_fill(rng, n, c) for c in shape[1:])


def _enumerate_jobs(rng: random.Random, workdir: str) -> list[Job]:
    n = ENUM_VARS
    names = _names(n)
    texts = ref.EntryText(names)
    jobs = []
    for slot, (shape, want_e, want_w) in enumerate(ENUM_SLOTS):
        # Draw several rules of this shape and keep the one closest to the
        # slot's size, so that every seed gives the slot the same cost.
        best = None
        for _ in range(ENUM_DRAWS):
            expr = _fill(rng, n, shape)
            sizes: list[int] = []
            bitmap = ref.eval_bitmap(n, expr, sizes)
            e, w = sizes[-1] / (1 << n), sum(sizes) / (1 << n)
            miss = max(abs(e / want_e - 1), abs(w / want_w - 1))
            if best is None or miss < best[0]:
                best = (miss, expr, bitmap, sizes)
        _, expr, bitmap, sizes = best
        doc = ref.rule_document(names, expr)
        path = _write(workdir, f"enum{slot}.rule", doc)
        jobs.append(
            Job(
                name=f"dict{slot}",
                argv=["dict", "--rule", path],
                entries=sizes[-1],
                fits=0,
                exit_code=0,
                expected=ref.expected_dict_output(names, expr, bitmap, texts),
                rule_text=doc,
            )
        )
    return jobs


# ---------------------------------------------------------------------------
# grouping

# Blocks of a union-closed rule. A pair is selected both or neither; a
# heredity triple (a, b, ab) admits the interaction ab only with both
# parents (strong) or at least one (weak). Free variables are unconstrained.
# Each recipe fixes the universe size and the exact entry count. Few
# constraints over many free variables keep the dictionary large next to
# the cost of evaluating the rule, so synthesis dominates.
GROUP_RECIPES = [
    {"strong": 1, "weak": 1, "pair": 1, "free": 5},  # 13 vars, 2,240 entries
    {"strong": 1, "weak": 1, "pair": 1, "free": 6},  # 14 vars, 4,480 entries
]


def _heredity(a: int, b: int, ab: int, strong: bool):
    parents = (min(a, b), max(a, b))
    counts = (2,) if strong else (1, 2)
    return ("implies", ("unit", (ab,), (1,)), ("unit", parents, counts))


def _grouping_rule(rng: random.Random, recipe: dict):
    n = 3 * (recipe["strong"] + recipe["weak"]) + 2 * recipe["pair"] + recipe["free"]
    roles = list(range(n))
    rng.shuffle(roles)
    constraints = []
    for kind in ("strong", "weak"):
        for _ in range(recipe[kind]):
            a, b, ab = roles.pop(), roles.pop(), roles.pop()
            constraints.append(_heredity(a, b, ab, kind == "strong"))
    for _ in range(recipe["pair"]):
        a, b = roles.pop(), roles.pop()
        constraints.append(("unit", (min(a, b), max(a, b)), (0, 2)))
    rng.shuffle(constraints)
    expr = constraints[0]
    for c in constraints[1:]:
        expr = ("and", expr, c)
    return n, expr


def _grouping_jobs(rng: random.Random, workdir: str) -> list[Job]:
    jobs = []
    for slot, recipe in enumerate(GROUP_RECIPES):
        n, expr = _grouping_rule(rng, recipe)
        names = _names(n)
        bitmap = ref.eval_bitmap(n, expr)
        r = ref.grouping_reference(n, bitmap)
        doc = ref.rule_document(names, expr)
        rule_path = _write(workdir, f"group{slot}.rule", doc)
        groups_path = _write(workdir, f"group{slot}.groups", ref.grouping_text(names, r["groups"]))
        entries = int(r["masks"].size)
        jobs.append(
            Job(
                name=f"synthesize{slot}",
                argv=["synthesize", "--rule", rule_path],
                entries=entries,
                fits=0,
                exit_code=0,
                expected=ref.expected_synth_output(names, expr, r),
                rule_text=doc,
            )
        )
        texts = ref.EntryText(names)
        for method in ("log", "ogl"):
            out, code = ref.expected_check_output(names, method, r, texts)
            jobs.append(
                Job(
                    name=f"check-{method}{slot}",
                    argv=["check", "--rule", rule_path, "--grouping", groups_path, "--method", method],
                    entries=entries,
                    fits=0,
                    exit_code=code,
                    expected=out,
                    rule_text=doc,
                )
            )
    return jobs


# ---------------------------------------------------------------------------
# select

# (variables, rows, criterion, folds, shuffle seed given)
SELECT_SLOTS = [
    (10, 500, "bic", None, False),
    (10, 5000, "aic", None, False),
    (10, 1000, "cv", 5, False),
    (10, 1000, "cv", 5, True),
    (12, 1000, "bic", None, False),
]


def _dataset(rng: np.random.Generator, p: int, rows: int):
    """Gaussian design with mildly correlated columns and three true effects."""
    X = rng.standard_normal((rows, p))
    X[:, 1:] += 0.3 * X[:, :-1]
    beta = np.zeros(p)
    beta[rng.choice(p, 3, replace=False)] = rng.uniform(0.5, 2.0, 3) * rng.choice([-1, 1], 3)
    y = X @ beta + rng.standard_normal(rows)
    return X, y


def _csv(names, X, y) -> str:
    lines = [",".join(names + ["y"])]
    for row, target in zip(X.tolist(), y.tolist()):
        lines.append(",".join(repr(v) for v in row) + "," + repr(target))
    return "\n".join(lines) + "\n"


def _select_jobs(rng: random.Random, workdir: str) -> list[Job]:
    data_rng = np.random.default_rng(rng.getrandbits(64))
    datasets = {}
    jobs = []
    for slot, (p, rows, criterion, folds, shuffled) in enumerate(SELECT_SLOTS):
        names = _names(p)
        if (p, rows) not in datasets:
            X, y = _dataset(data_rng, p, rows)
            path = _write(workdir, f"data{p}x{rows}.csv", _csv(names, X, y))
            datasets[(p, rows)] = (X, y, path)
        X, y, data_path = datasets[(p, rows)]
        expr = ("unit", tuple(range(p)), tuple(range(p + 1)))
        doc = ref.rule_document(names, expr)
        rule_path = _write(workdir, f"all{p}.rule", doc)
        argv = ["select", "--rule", rule_path, "--data", data_path, "--outcome", "y",
                "--criterion", criterion]
        seed = None
        if folds:
            argv += ["--folds", str(folds)]
            if shuffled:
                seed = rng.randrange(1 << 16)
                argv += ["--seed", str(seed)]
        models = 1 << p
        expected = ref.select_reference(X, y, range(models), criterion, folds, seed)
        jobs.append(
            Job(
                name=f"{criterion}{folds or ''}{'s' if shuffled else ''}-{p}x{rows}",
                argv=argv,
                entries=models,
                fits=models * (1 + (folds or 0)),
                exit_code=0,
                checker=functools.partial(ref.check_select_output, names=names, ref=expected),
                rule_text=doc,
            )
        )
    return jobs


BUILDERS = {
    "enumerate": _enumerate_jobs,
    "grouping": _grouping_jobs,
    "select": _select_jobs,
}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the inputs of one workload and seed; return its job list."""
    return BUILDERS[workload](random.Random(f"{workload}:{seed}"), workdir)
