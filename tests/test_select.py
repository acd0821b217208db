import errno
import math
import os
import random
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import ruledict.select
from ruledict.core import BITMAP_MAX_VARS, Dictionary, VarSet, make_universe, powerset
from ruledict.errors import (
    DatasetTooSmall,
    EmptyDictionary,
    MissingValue,
    ParseError,
    RankDeficient,
    RuledictError,
    SchemaMismatch,
    Underdetermined,
)
from ruledict.select import (
    CRITERIA,
    Dataset,
    FitResult,
    RankedModels,
    ScoredModel,
    _fold_bounds,
    _pcg64,
    _permutation,
    fit_ols,
    load_dataset,
    score,
    select_best,
)

import oracles
from oracles import normal_equations_fit


@pytest.fixture
def abc():
    return make_universe(["A", "B", "C"])


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def linear_dataset(u, n=120, seed=20260826, sigma=0.1):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, u.size))
    y = 2.0 * X[:, 0] - 1.0 * X[:, 1] + sigma * rng.normal(size=n)
    return Dataset(universe=u, outcome="Y", X=X, y=y)


class TestLoadDataset:
    def test_basic(self, tmp_path, abc):
        path = write_csv(tmp_path, "A,B,C,Y\n1,2,3,4\n5,6,7,8\n")
        d = load_dataset(path, "Y", abc)
        assert d.n == 2
        assert d.X.tolist() == [[1, 2, 3], [5, 6, 7]]
        assert d.y.tolist() == [4, 8]

    def test_column_order_follows_universe(self, tmp_path, abc):
        path = write_csv(tmp_path, "Y,C,A,B\n9,3,1,2\n8,6,4,5\n")
        d = load_dataset(path, "Y", abc)
        assert d.X.tolist() == [[1, 2, 3], [4, 5, 6]]
        assert d.y.tolist() == [9, 8]

    def test_extra_columns_ignored(self, tmp_path, abc):
        path = write_csv(tmp_path, "A,B,C,junk,Y\n1,2,3,x,4\n5,6,7,y,8\n")
        d = load_dataset(path, "Y", abc)
        assert d.n == 2

    def test_header_whitespace_stripped(self, tmp_path, abc):
        path = write_csv(tmp_path, " A , B , C , Y \n1,2,3,4\n5,6,7,8\n")
        assert load_dataset(path, "Y", abc).n == 2

    def test_blank_lines_skipped(self, tmp_path, abc):
        path = write_csv(tmp_path, "A,B,C,Y\n1,2,3,4\n\n5,6,7,8\n\n")
        assert load_dataset(path, "Y", abc).n == 2

    def test_missing_column(self, tmp_path, abc):
        path = write_csv(tmp_path, "A,B,Y\n1,2,3\n4,5,6\n")
        with pytest.raises(SchemaMismatch):
            load_dataset(path, "Y", abc)

    def test_outcome_clashes_with_covariate(self, tmp_path, abc):
        path = write_csv(tmp_path, "A,B,C\n1,2,3\n4,5,6\n")
        with pytest.raises(SchemaMismatch):
            load_dataset(path, "A", abc)

    def test_empty_file(self, tmp_path, abc):
        path = write_csv(tmp_path, "")
        with pytest.raises(SchemaMismatch):
            load_dataset(path, "Y", abc)

    def test_missing_token(self, tmp_path, abc):
        path = write_csv(tmp_path, "A,B,C,Y\n1,2,3,4\n5,NA,7,8\n")
        with pytest.raises(MissingValue) as exc:
            load_dataset(path, "Y", abc)
        assert exc.value.row == 3
        assert exc.value.column == "B"

    def test_empty_cell(self, tmp_path, abc):
        path = write_csv(tmp_path, "A,B,C,Y\n1,,3,4\n5,6,7,8\n")
        with pytest.raises(MissingValue) as exc:
            load_dataset(path, "Y", abc)
        assert exc.value.row == 2

    def test_non_numeric_cell(self, tmp_path, abc):
        path = write_csv(tmp_path, "A,B,C,Y\n1,2,3,4\n5,6,seven,8\n")
        with pytest.raises(ParseError) as exc:
            load_dataset(path, "Y", abc)
        assert exc.value.row == 3
        assert exc.value.column == "C"

    def test_non_finite_cell(self, tmp_path, abc):
        path = write_csv(tmp_path, "A,B,C,Y\n1,2,3,inf\n5,6,7,8\n")
        with pytest.raises(MissingValue) as exc:
            load_dataset(path, "Y", abc)
        assert exc.value.column == "Y"

    def test_short_row(self, tmp_path, abc):
        path = write_csv(tmp_path, "A,B,C,Y\n1,2,3,4\n5,6\n")
        with pytest.raises(MissingValue) as exc:
            load_dataset(path, "Y", abc)
        assert exc.value.row == 3

    def test_too_few_rows(self, tmp_path, abc):
        path = write_csv(tmp_path, "A,B,C,Y\n1,2,3,4\n")
        with pytest.raises(DatasetTooSmall):
            load_dataset(path, "Y", abc)
        path = write_csv(tmp_path, "A,B,C,Y\n")
        with pytest.raises(DatasetTooSmall):
            load_dataset(path, "Y", abc)

    def test_not_utf8(self, tmp_path, abc):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"A,B,C,Y\n1,2,3,4\n5,6,\xff7,8\n")
        with pytest.raises(ParseError, match=re.escape(f"{path}: not UTF-8 text")):
            load_dataset(path, "Y", abc)

    def test_duplicate_header_uses_first(self, tmp_path, abc):
        """A name given twice, a covariate's or the outcome's, reads its first column."""
        path = write_csv(tmp_path, "A,B,C,Y,Y\n1,2,3,4,99\n5,6,7,8,99\n")
        d = load_dataset(path, "Y", abc)
        assert d.y.tolist() == [4, 8]
        path = write_csv(tmp_path, "B,A, B ,C,Y,A\n2,1,-2,3,4,-1\n6,5,-6,7,8,-5\n")
        d = load_dataset(path, "Y", abc)
        assert d.X.tolist() == [[1, 2, 3], [5, 6, 7]]
        assert d.y.tolist() == [4, 8]

    def test_first_failing_row_wins(self, tmp_path, abc):
        path = write_csv(tmp_path, "A,B,C,Y\n1,2,3,4\n5,inf,7,8\n9,abc,1,2\n")
        with pytest.raises(MissingValue, match="non-finite value at row 3, column 'B'"):
            load_dataset(path, "Y", abc)
        path = write_csv(tmp_path, "A,B,C,Y\n1,2,inf,4\n5,abc,7,8\n")
        with pytest.raises(MissingValue, match="non-finite value at row 2, column 'C'"):
            load_dataset(path, "Y", abc)

    def test_finite_cells_whose_sum_overflows_load(self, tmp_path, abc):
        path = write_csv(tmp_path, "A,B,C,Y\n1e308,1e308,1e308,1e308\n-1e308,1,-1e308,2\n")
        d = load_dataset(path, "Y", abc)
        assert d.X.tolist() == [[1e308, 1e308, 1e308], [-1e308, 1, -1e308]]
        assert d.y.tolist() == [1e308, 2]

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_frozen_per_cell_loader(self, tmp_path, abc, seed):
        """The same array, laid out alike, or the same error class, text, row and column."""
        rng = random.Random(seed)
        for case in range(250):
            path = tmp_path / f"{case}.csv"
            path.write_text(_random_csv(rng), encoding="utf-8")
            assert _load_outcome(load_dataset, path, abc) == _load_outcome(oracles.load_dataset, path, abc)


#: Cells the CSV differential draws from: missing tokens, non-finite and
#: overflowing numbers, and text that float() reads but a stricter parser would not.
TRICKY_CELLS = [
    "nan", "-nan", "+nan", "NaN", "inf", "-inf", "1e400", "-1e400", "", " ", "NA", "n/a", "none",
    "null", "1_0", " 3 ", "\uff11", "1e308", "-1e308", "1e-320", "x", "0x1", "--1", "1e", "\u20033",
]


def _random_csv(rng):
    """A small CSV over A, B, C, Y, some of its cells tricky, some rows short or blank."""
    tricky = rng.choice([0.0, 0.05, 0.3])
    lines = [rng.choice(["A,B,C,Y", "Y,C,B,A,extra", " A ,B,C,Y"])]
    for _ in range(rng.randrange(0, 7)):
        roll = rng.random()
        if roll < 0.1:
            lines.append(rng.choice(["", " ", ","]))
            continue
        width = 5 if roll > 0.2 else rng.randrange(1, 5)
        lines.append(",".join(
            rng.choice(TRICKY_CELLS) if rng.random() < tricky
            else rng.choice([str(rng.randrange(-9, 10)), repr(rng.uniform(-1e3, 1e3))])
            for _ in range(width)
        ))
    return "\n".join(lines) + rng.choice(["", "\n"])


def _load_outcome(loader, path, u):
    try:
        d = loader(path, "Y", u)
    except RuledictError as exc:
        return type(exc), str(exc), getattr(exc, "row", None), getattr(exc, "column", None)
    return [(a.shape, a.strides, a.dtype, a.tobytes()) for a in (d.X, d.y)]


class TestFitOls:
    def test_intercept_only(self, abc):
        d = linear_dataset(abc)
        fit = fit_ols(d, VarSet.empty(abc))
        assert fit.intercept == pytest.approx(float(d.y.mean()))
        assert fit.coefficients == ()
        assert fit.rss == pytest.approx(fit.tss)
        assert fit.k == 1

    def test_recovers_exact_coefficients(self, abc):
        rng = np.random.default_rng(7)
        X = rng.normal(size=(40, 3))
        y = 1.0 + 2.0 * X[:, 0] - 3.0 * X[:, 2]
        d = Dataset(universe=abc, outcome="Y", X=X, y=y)
        fit = fit_ols(d, VarSet.of_names(abc, ["A", "C"]))
        assert fit.rss < 1e-18
        assert fit.intercept == pytest.approx(1.0)
        assert fit.coefficient_map()["A"] == pytest.approx(2.0)
        assert fit.coefficient_map()["C"] == pytest.approx(-3.0)

    def test_matches_normal_equations(self, abc):
        d = linear_dataset(abc, n=50)
        for mask in range(1, 8):
            s = VarSet(abc, mask)
            fit = fit_ols(d, s)
            idx = [abc.index(name) for name in s]
            design = np.column_stack([np.ones(d.n), d.X[:, idx]])
            beta = normal_equations_fit(design, d.y)
            assert fit.intercept == pytest.approx(beta[0], abs=1e-8)
            for got, want in zip(fit.coefficients, beta[1:]):
                assert got == pytest.approx(want, abs=1e-8)

    def test_residual_orthogonality(self, abc):
        d = linear_dataset(abc, n=60)
        s = VarSet.of_names(abc, ["A", "B"])
        fit = fit_ols(d, s)
        design = np.column_stack([np.ones(d.n), d.X[:, [0, 1]]])
        pred = design @ np.array([fit.intercept, *fit.coefficients])
        resid = d.y - pred
        assert np.abs(design.T @ resid).max() < 1e-8

    def test_underdetermined(self, abc):
        rng = np.random.default_rng(8)
        d = Dataset(
            universe=abc, outcome="Y", X=rng.normal(size=(3, 3)), y=rng.normal(size=3)
        )
        with pytest.raises(Underdetermined):
            fit_ols(d, VarSet.full(abc))

    def test_rank_deficient(self, abc):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(30, 3))
        X[:, 1] = X[:, 0]  # B duplicates A
        d = Dataset(universe=abc, outcome="Y", X=X, y=rng.normal(size=30))
        with pytest.raises(RankDeficient):
            fit_ols(d, VarSet.of_names(abc, ["A", "B"]))

    def test_subset_of_another_universe(self, abc):
        # Over C,B,A,D the subset's names would pick the columns as (C, A).
        d = linear_dataset(abc, n=30)
        w = make_universe(["C", "B", "A", "D"])
        with pytest.raises(SchemaMismatch):
            fit_ols(d, VarSet.of_names(w, ["A", "C"]))


class TestScore:
    def fit(self, rss, tss=100.0, k=3):
        u = make_universe(["A", "B"])
        return FitResult(
            subset=VarSet.full(u), intercept=0.0, coefficients=(0.0, 0.0),
            rss=rss, tss=tss, k=k,
        )

    def test_aic(self):
        got = score(self.fit(rss=20.0, k=3), "aic", n=10)
        assert got == pytest.approx(10 * math.log(2.0) + 2 * 4)

    def test_bic(self):
        got = score(self.fit(rss=20.0, k=3), "bic", n=10)
        assert got == pytest.approx(10 * math.log(2.0) + 4 * math.log(10))

    def test_bic_penalises_harder_for_large_n(self):
        f = self.fit(rss=20.0, k=3)
        assert score(f, "bic", n=100) > score(f, "aic", n=100)

    def test_adjr2_negated(self):
        f = self.fit(rss=25.0, tss=100.0, k=3)
        r2 = 1 - 25.0 / 100.0
        adjusted = 1 - (1 - r2) * (10 - 1) / (10 - 3)
        assert score(f, "adjr2", n=10) == pytest.approx(-adjusted)

    def test_adjr2_needs_spare_rows(self):
        with pytest.raises(DatasetTooSmall):
            score(self.fit(rss=1.0, k=3), "adjr2", n=3)

    def test_perfect_fit_scores_neg_inf(self):
        for criterion in ("aic", "bic", "adjr2"):
            assert score(self.fit(rss=0.0), criterion, n=10) == float("-inf")

    def test_unknown_criterion(self):
        with pytest.raises(ValueError):
            score(self.fit(rss=1.0), "r2", n=10)
        with pytest.raises(ValueError):
            score(self.fit(rss=1.0), "cv", n=10)


class TestSelectBest:
    def test_bic_finds_true_support(self, abc):
        d = linear_dataset(abc)
        result = select_best(d, powerset(abc), "bic")
        assert result.criterion == "bic"
        assert len(result.models) == 8
        assert result.best.subset.names() == ("A", "B")
        coef = dict(zip(result.best.subset, result.best.coefficients))
        assert coef["A"] == pytest.approx(2.0, abs=0.05)
        assert coef["B"] == pytest.approx(-1.0, abs=0.05)

    def test_ranking_is_sorted(self, abc):
        d = linear_dataset(abc)
        result = select_best(d, powerset(abc), "aic")
        scores = [s for _, s in result.ranking()]
        assert scores == sorted(scores)

    def test_scores_within_dictionary_only(self, abc):
        d = linear_dataset(abc)
        constrained = Dictionary.from_masks(abc, [0, 0b100])
        result = select_best(d, constrained, "bic")
        assert len(result.models) == 2
        assert {m.subset.mask for m in result.models} == {0, 0b100}

    def test_thirty_variable_universe(self):
        # Past the bitmap boundary: the dictionary is a mask tuple.
        u = make_universe([f"v{i}" for i in range(30)])
        rng = np.random.default_rng(20261018)
        X = rng.normal(size=(200, 30))
        y = 2.0 * X[:, 28] - 1.0 * X[:, 29] + 0.1 * rng.normal(size=200)
        data = Dataset(universe=u, outcome="Y", X=X, y=y)
        masks = [0, 1 << 28, 1 << 29, 3 << 28, 1 | 3 << 28]
        result = select_best(data, Dictionary.from_masks(u, masks), "bic")
        assert sorted(m.subset.mask for m in result.models) == masks
        assert result.best.subset.names() == ("v28", "v29")
        assert result.best.coefficients == pytest.approx((2.0, -1.0), abs=0.05)

    def test_empty_dictionary(self, abc):
        d = linear_dataset(abc)
        with pytest.raises(EmptyDictionary):
            select_best(d, Dictionary(abc), "bic")

    def test_universe_mismatch(self, abc):
        d = linear_dataset(abc)
        other = make_universe(["A", "B"])
        with pytest.raises(SchemaMismatch):
            select_best(d, powerset(other), "bic")

    def test_perfect_fit_tie_breaks_to_smaller_subset(self, abc):
        # an identically zero outcome is the one case where rss is exactly 0.0
        rng = np.random.default_rng(11)
        X = rng.normal(size=(30, 3))
        d = Dataset(universe=abc, outcome="Y", X=X, y=np.zeros(30))
        result = select_best(d, Dictionary.from_masks(abc, [0b001, 0b011]), "aic")
        assert result.best.score == float("-inf")
        assert result.best.subset.mask == 0b001

    def test_equal_scores_tie_break_by_mask(self, abc):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(40, 3))
        X[:, 1] = X[:, 0]  # identical columns give identical fits
        y = X[:, 0] + 0.1 * rng.normal(size=40)
        d = Dataset(universe=abc, outcome="Y", X=X, y=y)
        result = select_best(d, Dictionary.from_masks(abc, [0b001, 0b010]), "bic")
        assert result.models[0].score == result.models[1].score
        assert result.best.subset.mask == 0b001

    def test_criteria_validation(self, abc):
        d = linear_dataset(abc)
        with pytest.raises(ValueError):
            select_best(d, powerset(abc), "mdl")
        with pytest.raises(ValueError):
            select_best(d, powerset(abc), "bic", folds=5)
        for criterion in ("aic", "bic", "adjr2"):
            with pytest.raises(ValueError, match="only to criterion 'cv'"):
                select_best(d, powerset(abc), criterion, seed=1)
        with pytest.raises(ValueError):
            select_best(d, powerset(abc), "cv")
        with pytest.raises(ValueError):
            select_best(d, powerset(abc), "cv", folds=1)
        with pytest.raises(ValueError, match="seed must be non-negative, got -3"):
            select_best(d, powerset(abc), "cv", folds=5, seed=-3)

    def test_cv_folds_exceed_rows(self, abc):
        d = linear_dataset(abc, n=10)
        with pytest.raises(DatasetTooSmall):
            select_best(d, powerset(abc), "cv", folds=11)

    def test_cv_training_folds_too_small(self, abc):
        rng = np.random.default_rng(13)
        d = Dataset(
            universe=abc, outcome="Y", X=rng.normal(size=(6, 3)), y=rng.normal(size=6)
        )
        with pytest.raises(DatasetTooSmall):
            select_best(d, powerset(abc), "cv", folds=2)

    def test_cv_deterministic_without_seed(self, abc):
        d = linear_dataset(abc)
        r1 = select_best(d, powerset(abc), "cv", folds=5)
        r2 = select_best(d, powerset(abc), "cv", folds=5)
        assert [(m.subset.mask, m.score) for m in r1.models] == [
            (m.subset.mask, m.score) for m in r2.models
        ]

    def test_cv_seeded_deterministic_but_different(self, abc):
        d = linear_dataset(abc)
        plain = select_best(d, powerset(abc), "cv", folds=5)
        seeded = select_best(d, powerset(abc), "cv", folds=5, seed=1)
        seeded_again = select_best(d, powerset(abc), "cv", folds=5, seed=1)
        assert [m.score for m in seeded.models] == [m.score for m in seeded_again.models]
        key = VarSet.of_names(abc, ["A", "B"])
        plain_score = dict(plain.ranking())[key]
        seeded_score = dict(seeded.ranking())[key]
        assert plain_score != seeded_score

    def test_cv_matches_fold_loop_oracle(self, abc):
        d = linear_dataset(abc, n=37)
        folds = 4
        result = select_best(d, powerset(abc), "cv", folds=folds)
        base, rem = divmod(d.n, folds)
        sizes = [base + (1 if i < rem else 0) for i in range(folds)]
        starts = np.cumsum([0] + sizes)
        for m in result.models:
            idx = [abc.index(name) for name in m.subset]
            total = 0.0
            for f in range(folds):
                lo, hi = int(starts[f]), int(starts[f + 1])
                train = np.r_[0:lo, hi : d.n]
                test = np.r_[lo:hi]
                design = np.column_stack([np.ones(train.size), d.X[np.ix_(train, idx)]])
                beta = normal_equations_fit(design, d.y[train])
                pred = np.column_stack([np.ones(test.size), d.X[np.ix_(test, idx)]]) @ beta
                total += float(((d.y[test] - pred) ** 2).sum())
            assert m.score == pytest.approx(total / d.n, abs=1e-8)

    def test_cv_coefficients_come_from_full_data_fit(self, abc):
        d = linear_dataset(abc)
        result = select_best(d, powerset(abc), "cv", folds=5)
        for m in result.models:
            full = fit_ols(d, m.subset)
            assert m.intercept == full.intercept
            assert m.coefficients == full.coefficients

    def test_fold_sizes_differ_by_at_most_one(self):
        for n in (10, 37, 100):
            for folds in (2, 3, 7):
                bounds = _fold_bounds(n, folds)
                sizes = [end - start for start, end in bounds]
                assert sum(sizes) == n
                assert max(sizes) - min(sizes) <= 1
                assert bounds[0][0] == 0 and bounds[-1][1] == n
                for (_, e1), (s2, _) in zip(bounds, bounds[1:]):
                    assert e1 == s2

    def test_criteria_tuple(self):
        assert CRITERIA == ("aic", "bic", "adjr2", "cv")


#: The seeds the pure-Python permutation is checked on: every seed
#: below 300, and seeds of one to seven 32-bit words.
PERMUTATION_SEEDS = [*range(300), 2**32 - 1, 2**32, 2**64 + 1, 2**127 + 9, 2**200 + 3, 42452]


class TestPermutation:
    """``_permutation`` is numpy's ``default_rng(seed).permutation(n)``, without ``numpy.random``."""

    def test_matches_numpy(self):
        for seed in PERMUTATION_SEEDS:
            for n in (0, 1, 2, 3, 33, 257, 1000):
                assert _permutation(seed, n) == np.random.default_rng(seed).permutation(n).tolist(), (seed, n)

    def test_raw_outputs_match_numpy(self):
        for seed in PERMUTATION_SEEDS[::7]:
            raw = _pcg64(seed)
            assert [next(raw) for _ in range(9)] == np.random.PCG64(seed).random_raw(9).tolist()

    @pytest.mark.parametrize("seed, n, want", [
        (0, 12, [9, 2, 7, 4, 5, 11, 0, 3, 6, 10, 8, 1]),
        (2**64 + 1, 12, [6, 2, 8, 10, 1, 5, 3, 4, 7, 0, 9, 11]),
    ])
    def test_pinned(self, seed, n, want):
        """Literal orders, so that a change on either side of the differential shows."""
        assert _permutation(seed, n) == want
        assert np.random.default_rng(seed).permutation(n).tolist() == want

    def test_numpy_integer_seed(self):
        assert _permutation(np.int64(7), 50) == _permutation(7, 50)


def _ranked_bits(ranked):
    """Everything a ranking reports, floats compared with ==."""
    return ranked.criterion, [
        (m.subset.mask, m.score, m.intercept, m.coefficients) for m in ranked.models
    ]


def _seeded_dataset(u, rows, seed, order="view"):
    """A dataset laid out as load_dataset makes it (X a view of one C-ordered block)."""
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(rows, u.size + 1))
    data[:, 1:u.size] += 0.3 * data[:, : u.size - 1]
    data[:, u.size] = data[:, : min(3, u.size)].sum(axis=1) + rng.normal(size=rows)
    X = data[:, : u.size]
    if order == "F":
        X = np.asfortranarray(X)
    return Dataset(universe=u, outcome="Y", X=X, y=data[:, u.size])


RUNS = [("aic", None, None), ("bic", None, None), ("adjr2", None, None),
        ("cv", 5, None), ("cv", 3, 20261018)]


class TestMatchesFrozenReference:
    """select_best is bit-identical to the one-design-per-model loop in tests/oracles.py."""

    @pytest.mark.parametrize("seed", range(6))
    def test_seeded_powerset_and_sparse(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 9))
        u = make_universe([f"x{i}" for i in range(p)])
        d = _seeded_dataset(u, int(rng.integers(40, 400)), seed, "F" if seed == 5 else "view")
        sparse = Dictionary.from_masks(u, rng.integers(0, 1 << p, 12).tolist())
        for D in (powerset(u), sparse):
            for criterion, folds, cv_seed in RUNS:
                got = select_best(d, D, criterion, folds=folds, seed=cv_seed)
                want = oracles.select_best(d, D, criterion, folds=folds, seed=cv_seed)
                assert _ranked_bits(got) == _ranked_bits(want), (criterion, folds, cv_seed)

    def test_mask_tuple_dictionary(self):
        u = make_universe([f"v{i}" for i in range(23)])
        assert u.size > BITMAP_MAX_VARS
        rng = np.random.default_rng(23)
        masks = [0, u.full_mask] + [
            sum(1 << int(i) for i in rng.choice(23, int(rng.integers(1, 7)), replace=False))
            for _ in range(30)
        ]
        D = Dictionary.from_masks(u, masks)
        d = _seeded_dataset(u, 300, 23)
        for criterion, folds, cv_seed in RUNS:
            got = select_best(d, D, criterion, folds=folds, seed=cv_seed)
            want = oracles.select_best(d, D, criterion, folds=folds, seed=cv_seed)
            assert _ranked_bits(got) == _ranked_bits(want), (criterion, folds, cv_seed)

    def test_benchmark_size_cv5(self):
        u = make_universe([f"x{i}" for i in range(10)])
        d = _seeded_dataset(u, 1000, 10)
        got = select_best(d, powerset(u), "cv", folds=5)
        assert _ranked_bits(got) == _ranked_bits(oracles.select_best(d, powerset(u), "cv", folds=5))

    def test_fit_ols(self):
        u = make_universe([f"x{i}" for i in range(6)])
        d = _seeded_dataset(u, 90, 6)
        for mask in range(1 << u.size):
            s = VarSet(u, mask)
            assert fit_ols(d, s) == oracles.fit_ols(d, s)

    def _same_error(self, d, D, criterion, folds=None):
        with pytest.raises(RankDeficient) as got:
            select_best(d, D, criterion, folds=folds)
        with pytest.raises(RankDeficient) as want:
            oracles.select_best(d, D, criterion, folds=folds)
        assert str(got.value) == str(want.value)
        return str(got.value)

    def test_collinear_full_fit(self, abc):
        d = _seeded_dataset(abc, 50, 3)
        d.X[:, 2] = 2.0 * d.X[:, 0]
        for criterion, folds in (("bic", None), ("cv", 5)):
            message = self._same_error(d, powerset(abc), criterion, folds)
            assert message == "design for {A,C} has rank 2 < 3"

    def test_collinear_on_a_training_fold_only(self, abc):
        # C is zero outside the first block, so the first training fold has a
        # zero column while the full data have full rank.
        d = _seeded_dataset(abc, 50, 4)
        d.X[10:, 2] = 0.0
        select_best(d, powerset(abc), "bic")
        message = self._same_error(d, powerset(abc), "cv", folds=5)
        assert message == "training fold design for {C} is rank deficient"


#: Score draws that tie across subset sizes, hold perfect fits, signed zeros, or NaN.
SCORE_DRAWS = {
    "ties-across-sizes": [-2.5, 0.5, 1.0],
    "perfect-fits": [-np.inf, -np.inf, 3.25, -1.0],
    "signed-zeros": [-0.0, 0.0, 2.0],
    "nan": [np.nan, np.nan, -np.inf, 0.0, 1.0, np.inf],
}


class TestRankOrder:
    """A block's rank order is the key sort frozen in tests/oracles.py, NaN scores included."""

    @pytest.mark.parametrize("kind", SCORE_DRAWS)
    @pytest.mark.parametrize("seed", range(8))
    def test_matches_the_frozen_sort(self, kind, seed):
        rng = np.random.default_rng(seed)
        n = 64 if seed < 2 else int(rng.integers(1, 65))
        u = make_universe([f"v{i}" for i in range(n)])
        draws = int(rng.integers(1, 600))
        masks = tuple(sorted({int.from_bytes(rng.bytes(8), "little") & u.full_mask for _ in range(draws)}))
        if n == 64:
            assert masks[-1] >= 1 << 63
        scores = rng.choice(SCORE_DRAWS[kind], len(masks))
        block = np.concatenate([[score, *rng.normal(size=1 + m.bit_count())] for score, m in zip(scores, masks)])
        # One float object per value, as the list of models in mask order held them.
        values, models, at = block.tolist(), [], 0
        for m in masks:
            end = at + 2 + m.bit_count()
            models.append(ScoredModel(VarSet(u, m), values[at], values[at + 1], tuple(values[at + 2:end])))
            at = end
        want = tuple(sorted(models, key=oracles.rank_key))
        offsets = np.cumsum([0] + [2 + m.bit_count() for m in masks])
        got = RankedModels._of_block("bic", u, masks, block, offsets).models
        assert [m.subset.mask for m in got] == [m.subset.mask for m in want]
        assert repr(got) == repr(want)


@pytest.fixture
def two_processes(monkeypatch):
    """select_best shares the chunks with one forked worker, whatever the
    CPU count and whatever BLAS thread pool this process runs."""
    monkeypatch.setattr(ruledict.select, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(ruledict.select, "_single_threaded", lambda: True)


def _forbidden_fork():
    raise AssertionError("os.fork was called")


def _assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not hasattr(os, "memfd_create"), reason="workers need fork and memfd_create")
class TestForkedWorkers:
    """Chunks fitted by a forked worker give the frozen loop's ranking, bit for bit."""

    @pytest.mark.parametrize("p", [10, 11])
    def test_powerset_over_many_chunks(self, two_processes, p):
        u = make_universe([f"x{i}" for i in range(p)])
        d = _seeded_dataset(u, 60, p)
        D = powerset(u)
        assert len(D) >= 8 * ruledict.select._CHUNK
        for criterion, folds, cv_seed in RUNS:
            got = select_best(d, D, criterion, folds=folds, seed=cv_seed)
            want = oracles.select_best(d, D, criterion, folds=folds, seed=cv_seed)
            assert _ranked_bits(got) == _ranked_bits(want), (criterion, folds, cv_seed)
        _assert_no_children()

    def test_mask_tuple_dictionary(self, two_processes, monkeypatch):
        # The forked run's block is byte for byte the block one process writes.
        u = make_universe([f"v{i}" for i in range(23)])
        rng = np.random.default_rng(29)
        D = Dictionary.from_masks(u, [
            sum(1 << int(i) for i in rng.choice(23, int(rng.integers(0, 8)), replace=False))
            for _ in range(600)
        ])
        assert u.size > BITMAP_MAX_VARS and len(D) > 3 * ruledict.select._CHUNK
        assert len(D) % ruledict.select._CHUNK, "the last chunk should be partial"
        d = _seeded_dataset(u, 80, 29)
        fork, forks = os.fork, []
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        for criterion, folds, cv_seed in RUNS:
            del forks[:]
            got = select_best(d, D, criterion, folds=folds, seed=cv_seed)
            assert forks, "no worker was forked"
            want = oracles.select_best(d, D, criterion, folds=folds, seed=cv_seed)
            assert _ranked_bits(got) == _ranked_bits(want), (criterion, folds, cv_seed)
            with monkeypatch.context() as one_process:
                one_process.setattr(ruledict.select, "_usable_cpus", lambda: 1)
                one_process.setattr(os, "fork", _forbidden_fork)
                alone = select_best(d, D, criterion, folds=folds, seed=cv_seed)
            assert got._block[2].tobytes() == alone._block[2].tobytes(), (criterion, folds, cv_seed)
        _assert_no_children()

    def test_late_rank_deficiency_raises_the_serial_error(self, two_processes, capfd):
        # Only the models holding both x8 and x9 are rank deficient; the
        # first of them, mask 768, sits in a late chunk.
        u = make_universe([f"x{i}" for i in range(10)])
        d = _seeded_dataset(u, 60, 31)
        d.X[:, 9] = 2.0 * d.X[:, 8]
        assert 768 // ruledict.select._CHUNK > 1
        for criterion, folds in (("bic", None), ("cv", 5)):
            with pytest.raises(RankDeficient) as got:
                select_best(d, powerset(u), criterion, folds=folds)
            with pytest.raises(RankDeficient) as want:
                oracles.select_best(d, powerset(u), criterion, folds=folds)
            assert str(got.value) == str(want.value) == "design for {x8,x9} has rank 2 < 3"
            _assert_no_children()
        assert capfd.readouterr() == ("", "")

    def test_undelivered_chunks_are_rerun(self, two_processes, monkeypatch):
        # A worker leaves on its 20th fit, partway through its first chunk: the
        # models before it are in the block, and the chunk's done byte is not set.
        caller, lstsq, worker_fits = os.getpid(), np.linalg.lstsq, []

        def leave_partway(*args, **kwargs):
            if os.getpid() != caller:
                worker_fits.append(1)
                if len(worker_fits) == 20:
                    os._exit(0)
            return lstsq(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", leave_partway)
        u = make_universe([f"x{i}" for i in range(10)])
        d = _seeded_dataset(u, 60, 37)
        for criterion, folds in (("aic", None), ("cv", 5)):
            got = select_best(d, powerset(u), criterion, folds=folds)
            want = oracles.select_best(d, powerset(u), criterion, folds=folds)
            assert _ranked_bits(got) == _ranked_bits(want)
            _assert_no_children()

    def test_failed_fork_leaves_the_work_here(self, two_processes, monkeypatch):
        def fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fork)
        u = make_universe([f"x{i}" for i in range(9)])
        d = _seeded_dataset(u, 60, 41)
        got = select_best(d, powerset(u), "bic")
        assert _ranked_bits(got) == _ranked_bits(oracles.select_best(d, powerset(u), "bic"))


class TestNoFork:
    """Where a fork is not safe or cannot help, select_best never calls it."""

    def test_one_usable_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(ruledict.select, "_single_threaded", lambda: True)
        monkeypatch.setattr(os, "fork", _forbidden_fork)
        u = make_universe([f"x{i}" for i in range(9)])
        d = _seeded_dataset(u, 60, 43)
        got = select_best(d, powerset(u), "cv", folds=3)
        assert _ranked_bits(got) == _ranked_bits(oracles.select_best(d, powerset(u), "cv", folds=3))

    @pytest.mark.skipif(not hasattr(os, "memfd_create"), reason="workers need fork and memfd_create")
    def test_other_threads(self):
        # A fresh interpreter forks a worker exactly when it runs one thread:
        # with OPENBLAS_NUM_THREADS=1 it does, with a BLAS pool it does not,
        # and a running Python thread stops the fork either way.
        script = textwrap.dedent(
            """
            import os, threading
            import numpy as np
            import ruledict.select as S
            from ruledict.core import make_universe, powerset

            S._usable_cpus = lambda: 2
            forks = []
            fork = os.fork
            os.fork = lambda: forks.append(1) or fork()
            u = make_universe([f"x{i}" for i in range(8)])
            rng = np.random.default_rng(5)
            d = S.Dataset(u, "Y", rng.normal(size=(40, 8)), rng.normal(size=40))
            tasks = len(os.listdir("/proc/self/task"))
            S.select_best(d, powerset(u), "bic")
            first = len(forks)
            stop = threading.Event()
            waiter = threading.Thread(target=stop.wait, args=(30,))
            waiter.start()
            S.select_best(d, powerset(u), "bic")
            stop.set()
            waiter.join(timeout=30)
            print(tasks, first, len(forks), waiter.is_alive())
            """
        )
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        seen = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                                  timeout=120)
            assert proc.returncode == 0, proc.stderr.decode()[-600:]
            tasks, first, total, alive = proc.stdout.split()
            assert int(first) == (tasks == b"1"), (threads, proc.stdout)
            assert (total, alive) == (first, b"False"), (threads, proc.stdout)
            seen.add(tasks == b"1")
        assert True in seen, "no interpreter ran with a single thread"
