import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import riskcontest as rc
from riskcontest.errors import DegenerateOutcomeError, ValidationError


def lasso_data(n=500, p=8, seed=0):
    rng = np.random.default_rng(seed)
    x = (rng.random((n, p)) < 0.35).astype(float)
    eta = -0.8 + 1.3 * x[:, 0] - 1.0 * x[:, 1] + 0.6 * x[:, 2]
    y = (rng.random(n) < rc.expit(eta)).astype(float)
    return x, y


def kkt_violation(x, y, lam, fit):
    """Largest stationarity residual of the standardized L1 problem."""
    scale = x.std(axis=0)
    scale = np.where(scale == 0.0, 1.0, scale)
    xs = (x - x.mean(axis=0)) / scale
    beta_std = fit.slopes * scale
    prob = rc.expit(fit.intercept + x @ fit.slopes)
    g = xs.T @ (prob - y) / y.size
    worst = abs(float(np.mean(prob - y)))
    for j in range(x.shape[1]):
        if beta_std[j] != 0.0:
            worst = max(worst, abs(g[j] + lam * math.copysign(1.0, beta_std[j])))
        else:
            worst = max(worst, max(0.0, abs(g[j]) - lam))
    return worst


class TestLambdaMax:
    def test_matches_stationarity_oracle(self):
        x, y = lasso_data(seed=1)
        scale = x.std(axis=0)
        xs = (x - x.mean(axis=0)) / np.where(scale == 0, 1, scale)
        oracle = np.max(np.abs(xs.T @ (y - y.mean()))) / y.size
        assert rc.lasso_lambda_max(x, y) == pytest.approx(oracle, rel=1e-12)

    def test_everything_zero_at_lambda_max(self):
        x, y = lasso_data(seed=2)
        lmax = rc.lasso_lambda_max(x, y)
        for lam in (lmax, lmax * 1.5):
            fit = rc.fit_lasso_path(x, y, np.array([lam]))[0]
            assert np.all(fit.slopes == 0.0)
            ybar = y.mean()
            assert fit.intercept == pytest.approx(math.log(ybar / (1 - ybar)), abs=1e-12)


class TestPath:
    def test_zero_penalty_matches_mle(self):
        x, y = lasso_data(seed=3)
        lmax = rc.lasso_lambda_max(x, y)
        grid = np.concatenate([np.geomspace(lmax, lmax / 100, 10), [0.0]])
        path = rc.fit_lasso_path(x, y, grid, kkt_tol=1e-9)
        mle = rc.fit_logistic(x, y)
        assert np.max(np.abs(path[-1].coefficients - mle.coefficients)) < 1e-6

    def test_kkt_on_every_solution(self):
        x, y = lasso_data(seed=4)
        grid = rc.default_lambda_grid(x, y)
        path = rc.fit_lasso_path(x, y, grid)
        for lam, fit in zip(grid, path):
            assert fit.converged
            assert kkt_violation(x, y, float(lam), fit) <= 1e-6

    @pytest.mark.parametrize("seed", [5, 6, 7])
    def test_support_grows_as_penalty_falls(self, seed):
        x, y = lasso_data(seed=seed)
        path = rc.fit_lasso_path(x, y, rc.default_lambda_grid(x, y, 30))
        sizes = [int(np.count_nonzero(f.slopes)) for f in path]
        # grid is decreasing, so support size must be non-decreasing here
        assert all(b >= a for a, b in zip(sizes, sizes[1:]))

    def test_constant_column_never_enters(self):
        x, y = lasso_data(seed=8)
        x[:, 4] = 0.0
        path = rc.fit_lasso_path(x, y, rc.default_lambda_grid(x, y, 20))
        assert all(fit.slopes[4] == 0.0 for fit in path)

    def test_deviance_reported_on_original_scale(self):
        x, y = lasso_data(seed=9)
        fit = rc.fit_lasso_path(x, y, rc.default_lambda_grid(x, y, 5))[-1]
        assert fit.deviance == pytest.approx(
            -2 * rc.log_likelihood(x, y, fit.coefficients), rel=1e-12)

    def test_grid_validation(self):
        x, y = lasso_data(seed=10)
        with pytest.raises(ValidationError):
            rc.fit_lasso_path(x, y, np.array([0.1, 0.2]))
        with pytest.raises(ValidationError):
            rc.fit_lasso_path(x, y, np.array([0.1, -0.2]))

    def test_single_class_raises(self):
        with pytest.raises(DegenerateOutcomeError):
            rc.fit_lasso_path(np.zeros((10, 2)), np.ones(10))

    def test_wrong_length_y_raises(self):
        x, y = lasso_data(seed=11)
        with pytest.raises(ValidationError):
            rc.fit_lasso_path(x, y[:-1])

    def test_no_varying_column_raises(self):
        x = np.zeros((40, 3))
        y = np.arange(40) % 2.0
        with pytest.raises(ValidationError, match="lambda_max is 0"):
            rc.fit_lasso_path(x, y)


class TestPatternPath:
    """The path runs on the distinct rows of x with trial and case counts."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(80, 400), st.integers(1, 6),
           st.floats(0.05, 0.5))
    def test_row_kkt_and_row_order(self, seed, n, p, prevalence):
        # Few sparse binary columns, so most rows repeat another row.
        rng = np.random.default_rng(seed)
        x = (rng.random((n, p)) < prevalence).astype(float)
        y = (rng.random(n) < rc.expit(-0.5 + x @ rng.normal(0, 1.5, p))).astype(float)
        assume(0 < y.sum() < n)
        grid = np.geomspace(0.2, 2e-4, 20)
        path = rc.fit_lasso_path(x, y, grid)
        for lam, fit in zip(grid, path):
            assert fit.converged
            assert kkt_violation(x, y, float(lam), fit) <= 1e-6
        perm = rng.permutation(n)
        for fit, fit_p in zip(path, rc.fit_lasso_path(x[perm], y[perm], grid)):
            assert np.array_equal(fit.coefficients, fit_p.coefficients)
            assert fit.deviance == fit_p.deviance
