import math

import numpy as np
import pytest

from ruledict.core import BITMAP_MAX_VARS, Dictionary, VarSet, make_universe, powerset
from ruledict.errors import (
    DatasetTooSmall,
    EmptyDictionary,
    MissingValue,
    ParseError,
    RankDeficient,
    SchemaMismatch,
    Underdetermined,
)
from ruledict.select import (
    CRITERIA,
    Dataset,
    FitResult,
    _fold_bounds,
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

    def test_duplicate_header_uses_first(self, tmp_path, abc):
        path = write_csv(tmp_path, "A,B,C,Y,Y\n1,2,3,4,99\n5,6,7,8,99\n")
        d = load_dataset(path, "Y", abc)
        assert d.y.tolist() == [4, 8]


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
