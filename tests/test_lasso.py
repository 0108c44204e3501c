import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import riskcontest as rc
from riskcontest import glm
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


# ---------------------------------------------------------------------------
# The batched kernel against the scalar coordinate descent it replaced.
# ---------------------------------------------------------------------------

def scalar_cd(xs, trials, cases, lam, b0, beta, kkt_tol):
    """The one-problem coordinate descent that _lasso_path replaced, kept as
    the reference: every rule of the batched kernel, one member at a time."""
    n, p = trials.sum(), xs.shape[1]
    for outer in range(1, glm.LASSO_MAX_OUTER + 1):
        eta = b0 + xs @ beta
        prob = rc.expit(eta)
        resid = trials * prob - cases
        g = xs.T @ resid / n
        viol = np.where(beta != 0.0, np.abs(g + lam * np.sign(beta)), np.abs(g) - lam)
        if max(abs(float(resid.sum())) / n, float(np.max(viol, initial=0.0))) <= kkt_tol:
            return b0, beta, True, outer

        w = trials * np.maximum(prob * (1.0 - prob), 1e-10)
        r = -resid / w
        wx2 = (w @ xs**2) / n
        wsum = float(w.sum())
        for _ in range(1000):
            delta = 0.0
            for j in range(p):
                if wx2[j] == 0.0:
                    continue
                old = beta[j]
                rho = float(w @ (xs[:, j] * r)) / n + wx2[j] * old
                new = math.copysign(max(abs(rho) - lam, 0.0), rho) / wx2[j]
                if new != old:
                    r -= (new - old) * xs[:, j]
                    beta[j] = new
                    delta = max(delta, abs(new - old))
            shift = float(w @ r) / wsum
            if shift != 0.0:
                b0 += shift
                r -= shift
                delta = max(delta, abs(shift))
            if delta < 1e-10:
                break
    return b0, beta, False, glm.LASSO_MAX_OUTER


def scalar_path(patterns, trials, cases, grid, kkt_tol=glm.KKT_TOL):
    """(coefficients (L, p + 1), converged (L,)) of the scalar path on the
    patterns with at least one trial."""
    live = trials > 0
    patterns, trials, cases = patterns[live], trials[live], cases[live]
    n = trials.sum()
    mean = trials @ patterns / n
    scale = np.sqrt(trials @ (patterns - mean) ** 2 / n)
    scale = np.where(scale == 0.0, 1.0, scale)
    xs = (patterns - mean) / scale
    ybar = float(cases.sum() / n)
    b0, beta = math.log(ybar / (1.0 - ybar)), np.zeros(patterns.shape[1])
    coef, converged = [], []
    for lam in grid:
        b0, beta, conv, _ = scalar_cd(xs, trials, cases, float(lam), b0, beta, kkt_tol)
        coef.append(np.concatenate(([b0 - float(np.sum(beta * mean / scale))], beta / scale)))
        converged.append(conv)
    return np.array(coef), np.array(converged)


def fold_counts(x, y, plan):
    """The batch PatternTable.lasso_cv_deviance fits: the distinct patterns
    and (n_folds + 1, k) training trials and cases, all rows last."""
    table = glm.PatternTable(x, y, plan)
    all_n, all_c = table.counts[:2]
    held_n, held_c = np.split(table.counts[2:], 2)
    return (table, np.vstack([all_n - held_n, all_n]), np.vstack([all_c - held_c, all_c]),
            held_n, held_c)


@st.composite
def cv_problems(draw):
    """Sparse binary x of few columns, so many patterns repeat and folds
    leave some patterns without training rows, with a stratified plan."""
    seed = draw(st.integers(0, 2**32 - 1))
    n, p = draw(st.integers(60, 300)), draw(st.integers(1, 6))
    n_folds = draw(st.integers(2, 6))
    rng = np.random.default_rng(seed)
    x = (rng.random((n, p)) < draw(st.floats(0.05, 0.5))).astype(float)
    y = (rng.random(n) < rc.expit(-0.5 + x @ rng.normal(0, 1.5, p))).astype(float)
    assume(min(y.sum(), n - y.sum()) >= 2 * n_folds)
    assume(rc.lasso_lambda_max(x, y) > 0.0)
    plan = rc.make_folds(y, n_folds, rng)
    return x, y, plan, rng


def member_bytes(paths, i):
    return tuple(a[i].tobytes() for a in paths)


class TestBatchedPath:
    """_lasso_path fits many paths over one pattern matrix at once."""

    @settings(max_examples=15, deadline=None)
    @given(cv_problems())
    def test_member_bits_do_not_depend_on_the_batch(self, problem):
        x, y, plan, rng = problem
        table, trials, cases, _, _ = fold_counts(x, y, plan)
        grid = rc.default_lambda_grid(x, y, 10)
        full = glm._lasso_path(table.patterns, trials, cases, grid)
        perm = rng.permutation(len(trials))
        shuffled = glm._lasso_path(table.patterns, trials[perm], cases[perm], grid)
        for i, place in enumerate(np.argsort(perm)):
            alone = glm._lasso_path(table.patterns, trials[i:i + 1], cases[i:i + 1], grid)
            assert member_bytes(alone, 0) == member_bytes(full, i)
            assert member_bytes(shuffled, place) == member_bytes(full, i)
        # fit_lasso_path is the one-member batch of the all-rows counts.
        _, path, _ = table.lasso_cv_deviance(grid)
        for fit, fit_b in zip(rc.fit_lasso_path(x, y, grid), path):
            assert fit.coefficients.tobytes() == fit_b.coefficients.tobytes()
            assert (fit.deviance, fit.converged, fit.iterations) == \
                (fit_b.deviance, fit_b.converged, fit_b.iterations)

    # The stopping rules are thresholds: in a rare draw a sum rounded the
    # other way can let one side run one more sweep, and the paths then differ
    # by up to LASSO_SWEEP_TOL. Fixed draws keep the 1e-12 check repeatable.
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(cv_problems())
    def test_matches_scalar_reference(self, problem):
        x, y, plan, _ = problem
        table, trials, cases, held_n, held_c = fold_counts(x, y, plan)
        grid = rc.default_lambda_grid(x, y, 10)
        paths = glm._lasso_path(table.patterns, trials, cases, grid)
        ref_curve = np.empty((len(held_n), grid.size))
        for f, (t, c) in enumerate(zip(trials, cases)):
            coef, conv = scalar_path(table.patterns, t, c, grid)
            # Relative to the fit's largest coefficient, so a coefficient
            # entering the path near zero is held to the fit's scale.
            scale = np.abs(coef).max(axis=1, keepdims=True)
            assert np.all(np.abs(paths[0][f] - coef) <= 1e-12 * scale)
            assert np.array_equal(paths[2][f], conv)
            if f < len(held_n):
                eta = coef[:, :1] + coef[:, 1:] @ table.patterns.T
                ref_curve[f] = glm._deviances(eta, held_n[f], held_c[f]) / held_n[f].sum()
        curve, _, _ = table.lasso_cv_deviance(grid)
        np.testing.assert_allclose(curve, ref_curve, rtol=1e-12, atol=0)

    def test_zero_trial_patterns_add_nothing(self):
        """A pattern without trials leaves a member's path as if it were
        absent, up to the order of the sums."""
        x, y = lasso_data(n=300, p=4, seed=12)
        patterns, trials, cases, _ = glm._pattern_counts(x, y)
        grid = rc.default_lambda_grid(x, y, 10)
        drop = np.zeros(len(patterns), dtype=bool)
        drop[::3] = True
        t, c = np.where(drop, 0.0, trials), np.where(drop, 0.0, cases)
        with np.errstate(all="raise"):
            with_zeros = glm._lasso_path(patterns, t[None], c[None], grid)
        without = glm._lasso_path(patterns[~drop], t[None, ~drop], c[None, ~drop], grid)
        np.testing.assert_allclose(with_zeros[0], without[0], rtol=1e-12, atol=1e-14)
        assert np.array_equal(with_zeros[2], without[2])

    def test_single_class_member_raises(self):
        x, y = lasso_data(n=200, p=3, seed=13)
        patterns, trials, cases, _ = glm._pattern_counts(x, y)
        grid = rc.default_lambda_grid(x, y, 5)
        with pytest.raises(DegenerateOutcomeError):
            glm._lasso_path(patterns, np.vstack([trials, trials]),
                            np.vstack([cases, trials]), grid)


class TestLassoCvPlans:
    """lasso_cv_deviance on plans make_folds never draws."""

    def setup_method(self):
        rng = np.random.default_rng(14)
        self.x = (rng.random((100, 3)) < 0.5).astype(float)
        self.y = (rng.random(100) < 0.4).astype(float)
        self.grid = rc.default_lambda_grid(self.x, self.y, 8)

    def test_fold_without_training_rows(self):
        table = glm.PatternTable(self.x, self.y, rc.CvPlan(2, np.ones(100, dtype=np.int64)))
        with pytest.raises(ValidationError, match="fold 1 leaves no training row"):
            table.lasso_cv_deviance(self.grid)

    def test_fold_without_held_out_rows(self):
        table = glm.PatternTable(self.x, self.y, rc.CvPlan(3, np.arange(100) % 2 + 1))
        with pytest.raises(ValidationError, match="fold 3 holds out no row"):
            table.lasso_cv_deviance(self.grid)

    def test_single_class_training_fold(self):
        # Fold 2 holds out every control, so its complement is all cases.
        labels = np.where(self.y == 0, 2, 1)
        table = glm.PatternTable(self.x, self.y, rc.CvPlan(2, labels))
        with pytest.raises(DegenerateOutcomeError):
            table.lasso_cv_deviance(self.grid)
