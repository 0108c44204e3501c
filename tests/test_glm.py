import math
import tracemalloc

import numpy as np
import pytest

import riskcontest as rc
from riskcontest import glm
from riskcontest.errors import (
    DegenerateOutcomeError,
    StratificationError,
    UnsupportedFitError,
    ValidationError,
)
from riskcontest.glm import FitResult

from conftest import planted_dataset, two_by_two


def four_folds(y):
    return rc.make_folds(y, 4, np.random.default_rng(0))


def random_binary(n, p, seed, prevalence=0.4):
    rng = np.random.default_rng(seed)
    x = (rng.random((n, p)) < prevalence).astype(float)
    eta = -0.3 + x @ rng.normal(0, 0.8, p)
    y = (rng.random(n) < rc.expit(eta)).astype(float)
    return x, y


class TestFitLogistic:
    def test_intercept_only_balanced(self):
        y = np.array([0.0, 1.0] * 50)
        fit = rc.fit_logistic(np.empty((100, 0)), y)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)
        assert fit.converged

    @pytest.mark.parametrize("cells", [(30, 10, 20, 40), (12, 9, 7, 25), (50, 5, 8, 44)])
    def test_two_by_two_matches_closed_form(self, cells):
        ec, eo, uc, uo = cells
        x, y = two_by_two(ec, eo, uc, uo)
        fit = rc.fit_logistic(x, y)
        assert fit.slopes[0] == pytest.approx(math.log(ec * uo / (eo * uc)), abs=1e-8)
        assert fit.intercept == pytest.approx(math.log(uc / uo), abs=1e-8)

    def test_ridge_dominance(self):
        x, y = two_by_two(30, 10, 20, 40)
        fit = rc.fit_logistic(x, y, ridge=1e9)
        assert abs(fit.slopes[0]) < 1e-3
        assert fit.intercept == pytest.approx(math.log(y.mean() / (1 - y.mean())), abs=1e-3)
        assert fit.std_errors is None  # penalized fits carry no Wald machinery

    def test_single_class_raises(self):
        with pytest.raises(DegenerateOutcomeError):
            rc.fit_logistic(np.zeros((10, 1)), np.ones(10))

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            rc.fit_logistic(np.zeros((3, 5)), np.array([0, 1, 0]))
        with pytest.raises(ValidationError):
            rc.fit_logistic(np.zeros((4, 2)), np.array([0.0, 1.0]))

    def test_zero_ridge_is_unpenalized(self):
        """ridge=0.0 is the default fit, standard errors included."""
        x, y = random_binary(300, 4, seed=9)
        plain, zero = rc.fit_logistic(x, y), rc.fit_logistic(x, y, ridge=0.0)
        assert zero.std_errors is not None
        assert zero.coefficients.tobytes() == plain.coefficients.tobytes()
        assert zero.std_errors.tobytes() == plain.std_errors.tobytes()
        assert (zero.deviance, zero.converged, zero.iterations, zero.separation_flag) == (
            plain.deviance, plain.converged, plain.iterations, plain.separation_flag)

    @pytest.mark.parametrize("ridge", [math.nan, math.inf, -1.0])
    def test_bad_ridge_rejected(self, ridge):
        """A NaN or infinite weight once gave an intercept-only fit flagged
        converged; every fit rejects it, alone or among valid weights."""
        x, y = random_binary(200, 3, seed=10)
        with pytest.raises(ValidationError):
            rc.fit_logistic(x, y, ridge=ridge)
        table = rc.PatternTable(x, y, four_folds(y))
        with pytest.raises(ValidationError):
            table.cv_deviances([[0, 1]], ridge)
        with pytest.raises(ValidationError):
            table.cv_deviances([[0], [1], [2]], [0.0, 1.0, ridge])
        with pytest.raises(ValidationError):
            rc.cv_deviance(x, y, (0,), four_folds(y), ridge)

    def test_ridge_sequence_length_checked(self):
        """One weight, or one per subset row; a single-element sequence
        broadcasts with the bits of the scalar."""
        x, y = random_binary(200, 3, seed=11)
        table = rc.PatternTable(x, y, four_folds(y))
        subsets = [[0], [1], [2]]
        for ridge in ([0.0, 1.0], [0.0, 1.0, 2.0, 3.0], [[0.0, 1.0, 2.0]]):
            with pytest.raises(ValidationError):
                table.fold_fits(subsets, ridge)
            with pytest.raises(ValidationError):
                table.cv_deviances(subsets, ridge)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(
            table.fold_fits(subsets, [0.5]), table.fold_fits(subsets, 0.5)))

    def test_deviance_non_increasing_within_fit(self, monkeypatch):
        # A fit capped at i iterations stops at the deviance of iteration i.
        x, y = random_binary(300, 5, seed=2)
        trace: list[float] = []
        for cap in range(glm.MAX_ITER + 1):
            monkeypatch.setattr(glm, "MAX_ITER", cap)
            fit = rc.fit_logistic(x, y)
            trace.append(fit.deviance)
            if fit.converged:
                break
        assert fit.converged and not fit.separation_flag and len(trace) > 3
        assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(trace, trace[1:]))

    def test_nesting_never_hurts_in_sample(self):
        x, y = random_binary(400, 6, seed=3)
        smaller = rc.fit_logistic(x[:, :4], y).deviance
        larger = rc.fit_logistic(x[:, :5], y).deviance
        assert larger <= smaller + 1e-8

    def test_row_permutation_invariance(self):
        x, y = random_binary(200, 4, seed=4)
        fit = rc.fit_logistic(x, y)
        perm = np.random.default_rng(0).permutation(200)
        fit_p = rc.fit_logistic(x[perm], y[perm])
        assert np.max(np.abs(fit.coefficients - fit_p.coefficients)) < 1e-10

    def test_ridge_shrinkage_monotone(self):
        x, y = random_binary(300, 5, seed=5)
        norms = [np.linalg.norm(rc.fit_logistic(x, y, ridge=lam).slopes)
                 for lam in (0.0, 1.0, 10.0, 100.0, 1000.0)]
        assert all(b <= a + 1e-10 for a, b in zip(norms, norms[1:]))

    def test_separated_column_gets_flag_and_pvalues(self):
        # Column 1 perfectly predicts the outcome: the raw MLE diverges.
        rng = np.random.default_rng(6)
        n = 200
        y = np.array([1.0] * 100 + [0.0] * 100)
        x = np.column_stack([y, (rng.random(n) < 0.4).astype(float)])
        fit = rc.fit_logistic(x, y)
        assert fit.separation_flag
        assert np.all(np.isfinite(fit.coefficients))
        assert fit.std_errors is not None
        pvals = rc.wald_pvalues(fit)
        assert np.all((pvals >= 0) & (pvals <= 1))

    def test_gradient_matches_finite_differences(self):
        x, y = random_binary(80, 4, seed=7)
        rng = np.random.default_rng(8)
        step = 1e-5
        for _ in range(20):
            beta = rng.normal(0, 1, 5)
            grad = rc.log_likelihood_gradient(x, y, beta)
            numeric = np.empty_like(grad)
            for i in range(beta.size):
                hi, lo = beta.copy(), beta.copy()
                hi[i] += step
                lo[i] -= step
                numeric[i] = (rc.log_likelihood(x, y, hi) - rc.log_likelihood(x, y, lo)) / (2 * step)
            rel = np.abs(grad - numeric) / np.maximum(np.abs(grad), 1e-8)
            assert rel.max() < 1e-5


class TestWald:
    def test_zero_coefficient_gives_one(self):
        fit = FitResult(np.array([0.3, 0.0]), np.array([0.1, 1.0]), 10.0, True, 3)
        assert rc.wald_pvalues(fit)[0] == 1.0

    def test_reference_z_value(self):
        fit = FitResult(np.array([0.0, 1.959964]), np.array([1.0, 1.0]), 10.0, True, 3)
        assert rc.wald_pvalues(fit)[0] == pytest.approx(0.05, abs=1e-6)

    def test_requires_std_errors(self):
        fit = FitResult(np.array([0.0, 1.0]), None, 10.0, True, 3)
        with pytest.raises(UnsupportedFitError):
            rc.wald_pvalues(fit)


class TestFolds:
    def test_balanced_contest_folds(self):
        y = np.array([1] * 2000 + [0] * 2000)
        plan = rc.make_folds(y, 4, np.random.default_rng(0))
        for f in range(1, 5):
            fold = plan.assignments == f
            assert int(y[fold].sum()) == 500
            assert int(fold.sum()) == 1000

    def test_partition(self):
        y = np.array([1] * 13 + [0] * 17)
        plan = rc.make_folds(y, 3, np.random.default_rng(1))
        assert plan.assignments.shape == (30,)
        assert set(np.unique(plan.assignments)) == {1, 2, 3}

    def test_same_seed_same_folds(self):
        y = np.array([1] * 30 + [0] * 30)
        a = rc.make_folds(y, 5, np.random.default_rng(9)).assignments
        b = rc.make_folds(y, 5, np.random.default_rng(9)).assignments
        assert np.array_equal(a, b)

    def test_small_class_raises(self):
        y = np.array([1] * 3 + [0] * 40)
        with pytest.raises(StratificationError):
            rc.make_folds(y, 4, np.random.default_rng(0))

    def test_fold_count_validation(self):
        with pytest.raises(ValidationError):
            rc.make_folds(np.array([0, 1] * 10), 1, np.random.default_rng(0))


class TestCvDeviance:
    def test_intercept_only_balanced(self):
        y = np.array([1.0] * 200 + [0.0] * 200)
        plan = rc.make_folds(y, 4, np.random.default_rng(2))
        value = rc.cv_deviance(np.empty((400, 0)), y, (), plan)
        assert value == pytest.approx(2 * math.log(2), abs=0.01)

    def test_signal_beats_intercept(self):
        data = planted_dataset(n=500, d=4, seed=21)
        x = data.x.astype(float)
        y = data.y.astype(float)
        plan = rc.make_folds(data.y, 4, np.random.default_rng(3))
        assert rc.cv_deviance(x, y, (0,), plan) < rc.cv_deviance(x, y, (), plan)

    def test_duplicated_column_stays_finite(self):
        data = planted_dataset(n=300, d=3, seed=22)
        x = np.column_stack([data.x, data.x[:, 0]]).astype(float)
        y = data.y.astype(float)
        plan = rc.make_folds(data.y, 4, np.random.default_rng(4))
        value = rc.cv_deviance(x, y, (0, 3), plan)
        assert math.isfinite(value)

    @pytest.mark.parametrize("subset", [(-1,), (1, 1), (7,), (0, 2.0)])
    def test_bad_column_indices_rejected(self, subset):
        """A negative index would score the last column, a repeated one a
        duplicated column, and one past the end raised numpy's IndexError."""
        x, y = random_binary(300, 4, seed=23)
        plan = rc.make_folds(y, 4, np.random.default_rng(5))
        with pytest.raises(ValidationError):
            rc.cv_deviance(x, y, subset, plan)
        table = rc.PatternTable(x, y, plan)
        with pytest.raises(ValidationError):
            table.fold_fits([list(subset)])
        with pytest.raises(ValidationError):
            table.cv_deviances([list(subset)])

    def test_plan_holding_out_no_row_rejected(self):
        x, y = random_binary(100, 2, seed=24)
        with pytest.raises(ValidationError):
            rc.cv_deviance(x, y, (0,), rc.CvPlan(2, np.zeros(100, dtype=np.int64)))

    @pytest.mark.parametrize("label", [-1, 3])
    def test_fold_label_outside_the_plan_rejected(self, label):
        x, y = random_binary(100, 2, seed=24)
        labels = np.arange(100) % 2 + 1
        labels[7] = label
        with pytest.raises(ValidationError):
            rc.PatternTable(x, y, rc.CvPlan(2, labels))

    def test_held_out_counts_memory_is_linear(self):
        """The held-out counts of 2,000 folds come from one pass over the
        rows: peak memory stays linear in n + n_folds * k, where an
        (n_folds, n) fold mask would take n_folds * n."""
        config = rc.SimulationConfig(seed=424242)
        rng = np.random.default_rng(config.seed)
        data = rc.simulate_dataset(rc.draw_ground_truth(config, rng), config, rng)
        plan = rc.make_folds(data.y, 2000, np.random.default_rng(0))
        tracemalloc.start()
        try:
            table = rc.PatternTable(data.x, data.y, plan)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        k = len(table.patterns)
        assert table.n_held == data.n
        assert peak <= 8 * (64 * data.n + 4 * plan.n_folds * k)


class TestBootstrap:
    def test_size_one_returns_the_only_index(self):
        assert rc.bootstrap_resample(1, np.random.default_rng(0)).tolist() == [0]

    def test_same_seed_same_multiset(self):
        a = rc.bootstrap_resample(50, np.random.default_rng(5))
        b = rc.bootstrap_resample(50, np.random.default_rng(5))
        assert np.array_equal(a, b)

    def test_distinct_fraction(self):
        rng = np.random.default_rng(6)
        n = 4000
        fractions = [np.unique(rc.bootstrap_resample(n, rng)).size / n
                     for _ in range(100)]
        assert np.mean(fractions) == pytest.approx(1 - (1 - 1 / n) ** n, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValidationError):
            rc.bootstrap_resample(0, np.random.default_rng(0))
