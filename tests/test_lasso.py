import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import riskcontest as rc
from riskcontest import glm
from riskcontest.errors import DegenerateOutcomeError, ValidationError


@pytest.fixture(autouse=True)
def small_caps(request, monkeypatch):
    """Caps the kernel's outer iterations and sweeps far below
    production's 250 and 1000 per penalty, so a kernel that never settles
    fails in seconds instead of minutes. Every member in these tests
    converges within 5 outer iterations of at most 9 sweeps. The plain
    coordinate descent of test_matches_tight_coordinate_descent needs the
    production caps."""
    if request.function.__name__ != "test_matches_tight_coordinate_descent":
        monkeypatch.setattr(glm, "LASSO_MAX_OUTER", 30)
        monkeypatch.setattr(glm, "LASSO_MAX_SWEEPS", 60)


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
    def test_zero_penalty_matches_mle(self, monkeypatch):
        monkeypatch.setattr(glm, "KKT_TOL", 1e-9)
        x, y = lasso_data(seed=3)
        lmax = rc.lasso_lambda_max(x, y)
        grid = np.concatenate([np.geomspace(lmax, lmax / 100, 10), [0.0]])
        path = rc.fit_lasso_path(x, y, grid)
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
# The batched kernel against one-path scalar references.
# ---------------------------------------------------------------------------

def scalar_cd(xs, trials, cases, lam, b0, beta, kkt_tol, solve=True,
              sweep_tol=glm.LASSO_SWEEP_TOL):
    """The one-problem twin of the batched kernel: every rule of
    _lasso_cd and _lasso_sweeps, one member at a time. It keeps the working
    residual over the patterns, where the kernel carries each quadratic as
    its Gram and gradient, so it is an independent reference for the same
    rules. With solve=False it is the plain coordinate descent the kernel
    replaced, which takes no active-set step. Returns (b0, beta, converged,
    outer iterations, sweeps, accepted active-set solves)."""
    n, p = trials.sum(), xs.shape[1]
    sweeps = steps = 0
    z = np.vstack([np.ones(len(trials)), xs.T])
    for outer in range(1, glm.LASSO_MAX_OUTER + 1):
        eta = b0 + xs @ beta
        prob = rc.expit(eta)
        resid = trials * prob - cases
        g = xs.T @ resid / n
        viol = np.where(beta != 0.0, np.abs(g + lam * np.sign(beta)), np.abs(g) - lam)
        if max(abs(float(resid.sum())) / n, float(np.max(viol, initial=0.0))) <= kkt_tol:
            return b0, beta, True, outer, sweeps, steps

        w = trials * np.maximum(prob * (1.0 - prob), 1e-10)
        r = -resid / w
        wx2 = (w @ xs**2) / n
        wsum = float(w.sum())
        # Correctly rounded sums, so equal columns give equal entries.
        gram = np.array([[math.fsum(w * a * b) for b in z] for a in z]) / n if solve else None
        settled = bool(np.any(beta != 0.0))
        for _ in range(glm.LASSO_MAX_SWEEPS):
            if solve and settled:
                active = [0] + [j + 1 for j in range(p) if beta[j] != 0.0]
                # An active column equal over the trials to an earlier
                # active one keeps its value.
                solved = [a for a in active if not any(
                    i < a and gram[i, a] == gram[i, i] == gram[a, a] for i in active)]
                rhs = z[solved] @ (w * r) / n - lam * np.sign(
                    np.concatenate(([0.0], beta)))[solved]
                try:
                    step = np.linalg.solve(gram[np.ix_(solved, solved)], rhs)
                except np.linalg.LinAlgError:
                    pass  # a singular system gets no step
                else:
                    new = beta.copy()
                    new[np.array(solved[1:], dtype=int) - 1] += step[1:]
                    if np.array_equal(np.sign(new), np.sign(beta)):
                        b0 += step[0]
                        beta = new
                        r -= step @ z[solved]
                        steps += 1
            sweeps += 1
            start = beta.copy()
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
            if delta < sweep_tol:
                break
            settled = bool(np.any(beta != 0.0)) and np.array_equal(np.sign(beta), np.sign(start))
    return b0, beta, False, glm.LASSO_MAX_OUTER, sweeps, steps


def scalar_path(patterns, trials, cases, grid, kkt_tol=glm.KKT_TOL, **rules):
    """(coefficients (L, p + 1), converged, sweeps and active-set steps
    taken (L,)) of the scalar path on the patterns with at least one trial;
    rules go to scalar_cd."""
    live = trials > 0
    patterns, trials, cases = patterns[live], trials[live], cases[live]
    n = trials.sum()
    mean = trials @ patterns / n
    scale = np.sqrt(trials @ (patterns - mean) ** 2 / n)
    scale = np.where(scale == 0.0, 1.0, scale)
    xs = (patterns - mean) / scale
    ybar = float(cases.sum() / n)
    b0, beta = math.log(ybar / (1.0 - ybar)), np.zeros(patterns.shape[1])
    coef, converged, sweeps, steps = [], [], [], []
    for lam in grid:
        b0, beta, conv, _, swept, stepped = scalar_cd(xs, trials, cases, float(lam), b0, beta,
                                                      kkt_tol, **rules)
        coef.append(np.concatenate(([b0 - float(np.sum(beta * mean / scale))], beta / scale)))
        converged.append(conv)
        sweeps.append(swept)
        steps.append(stepped)
    return np.array(coef), np.array(converged), np.array(sweeps), np.array(steps)


def standardized_objective(patterns, trials, cases, lam, coef):
    """The lasso objective _lasso_cd minimizes at coefficients coef (0/1
    scale, intercept first), and coef on the standardized scale."""
    n = trials.sum()
    mean = trials @ patterns / n
    scale = np.sqrt(trials @ (patterns - mean) ** 2 / n)
    scale = np.where(scale == 0.0, 1.0, scale)
    eta = coef[0] + patterns @ coef[1:]
    point = np.concatenate(([coef[0] + coef[1:] @ mean], coef[1:] * scale))
    obj = float(trials @ np.logaddexp(0.0, eta) - cases @ eta) / n
    return obj + lam * float(np.abs(point[1:]).sum()), point


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
        # fit_lasso_path is the one-member batch of the all-rows counts,
        # whose coefficients lasso_cv_deviance returns.
        coef, dev, converged, iterations = (part[-1] for part in full[:4])
        assert table.lasso_cv_deviance(grid)[1].tobytes() == coef.tobytes()
        fits = rc.fit_lasso_path(x, y, grid)
        assert len(fits) == len(coef)
        for l, fit in enumerate(fits):
            assert fit.coefficients.tobytes() == coef[l].tobytes()
            assert (fit.deviance, fit.converged, fit.iterations) == \
                (dev[l], converged[l], iterations[l])

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
            coef, conv, sweeps, steps = scalar_path(table.patterns, t, c, grid)
            # Relative to the fit's largest coefficient, so a coefficient
            # entering the path near zero is held to the fit's scale.
            scale = np.abs(coef).max(axis=1, keepdims=True)
            assert np.all(np.abs(paths[0][f] - coef) <= 1e-12 * scale)
            assert np.array_equal(paths[2][f], conv)
            assert np.array_equal(paths[4][f], sweeps) and np.array_equal(paths[5][f], steps)
            if f < len(held_n):
                eta = coef[:, :1] + coef[:, 1:] @ table.patterns.T
                ref_curve[f] = glm._deviances(eta, held_n[f], held_c[f]) / held_n[f].sum()
        curve, _, _ = table.lasso_cv_deviance(grid)
        np.testing.assert_allclose(curve, ref_curve, rtol=1e-12, atol=0)

    # Plain coordinate descent run until no sweep moves by 1e-14 solves each
    # quadratic as exactly as the active-set step does, but both paths stop
    # where the KKT conditions hold within KKT_TOL, so they agree only as far
    # as a fit's curvature lets that stop pin it down. On the flat
    # small-penalty fits of sparse folds, coefficients 1e-4 apart (relative)
    # differ by 1e-11 in objective, so the coefficient tolerance is 1e-3. The
    # objectives are held to convexity's bound: at two points whose
    # subgradient residuals are within KKT_TOL, the objectives differ by at
    # most KKT_TOL times the points' l1 distance on the standardized scale.
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(cv_problems())
    def test_matches_tight_coordinate_descent(self, problem):
        x, y, plan, _ = problem
        table, trials, cases, _, _ = fold_counts(x, y, plan)
        grid = rc.default_lambda_grid(x, y, 10)
        paths = glm._lasso_path(table.patterns, trials, cases, grid)
        for f, (t, c) in enumerate(zip(trials, cases)):
            coef, conv, _, _ = scalar_path(table.patterns, t, c, grid, solve=False,
                                           sweep_tol=1e-14)
            assert np.array_equal(paths[2][f], conv)
            scale = np.abs(coef).max(axis=1, keepdims=True)
            assert np.all(np.abs(paths[0][f] - coef) <= 1e-3 * scale)
            live = t > 0
            for lam, fit, ref in zip(grid, paths[0][f], coef):
                obj, point = standardized_objective(table.patterns[live], t[live], c[live],
                                                    lam, fit)
                obj_ref, point_ref = standardized_objective(table.patterns[live], t[live],
                                                            c[live], lam, ref)
                assert abs(obj - obj_ref) <= \
                    glm.KKT_TOL * np.abs(point - point_ref).sum() + 1e-13 * abs(obj_ref)

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


class TestActiveSetSteps:
    """_lasso_cd from warm starts that make the active-set step matter: a
    slope started with the wrong sign, two active columns equal over a
    member's trials, two active columns that mirror each other, which
    makes the member's system exactly singular, and a column constant over
    a member's trials, whose Gram diagonal is 0, next to a plain member."""

    LAM = 0.02

    def setup_method(self):
        rng = np.random.default_rng(15)
        self.patterns = np.array(list(itertools.product((0.0, 1.0), repeat=4)))
        col = self.patterns.T
        trials = rng.integers(5, 20, size=(4, 16)).astype(float)
        # Member 2 sees columns 1 and 2 equal; member 3 sees column 3 as
        # 1 - column 0 with column 0's mean exactly 1/2, so its standardized
        # columns 0 and 3 are exact negatives.
        trials[2, col[1] != col[2]] = 0.0
        trials[3] = np.where(col[3] == col[0], 0.0, 10.0)
        prob = rc.expit(-0.3 - 1.2 * col[0] + 0.9 * col[1])
        cases = rng.binomial(trials.astype(int), prob)
        # Member 4 has trials only where column 2 is 1, so column 2 is
        # constant over its trials alone.
        trials = np.vstack([trials, np.where(col[2] == 1.0, rng.integers(5, 20, size=16), 0.0)])
        cases = np.vstack([cases, rng.binomial(trials[4].astype(int), prob)])
        self.trials, self.cases = trials, cases.astype(float)
        xs, _, _ = glm._standardize(self.patterns, trials)
        self.xs = np.ascontiguousarray(xs.transpose(2, 0, 1))
        # Column 0 lowers the odds, so member 1 starts it with the wrong
        # sign; member 3's two slopes push the same way.
        self.beta = np.zeros((4, 5))
        self.beta[0, 1] = 0.5
        self.beta[1:3, 2] = 0.3
        self.beta[[0, 3], 3] = -0.3, 0.3
        self.beta[[0, 1, 3], 4] = -0.6, 0.4, 0.2
        self.b0 = glm._log_odds(trials.sum(axis=1), self.cases.sum(axis=1))

    def run(self, members):
        b0, beta = self.b0[members].copy(), self.beta[:, members].copy()
        out = glm._lasso_cd(self.xs[:, members], self.trials[members], self.cases[members],
                            self.trials[members].sum(axis=1), self.LAM, b0, beta)
        return (b0, beta) + out

    def test_members_keep_solo_bits_and_meet_kkt(self, monkeypatch):
        singular_found = []
        newton_steps = glm._newton_steps

        def recording_steps(hess, grad, lam):
            steps, singular = newton_steps(hess, grad, lam)
            singular_found.append(singular.any())
            return steps, singular

        monkeypatch.setattr(glm, "_newton_steps", recording_steps)
        batch = self.run(np.arange(5))
        # Member 3's system was singular.
        assert any(singular_found)
        # Member 4's constant column stays at exactly 0.
        assert batch[1][2, 4] == 0.0
        for i in range(5):
            solo = self.run(np.array([i]))
            assert [a.tobytes() for a in solo] == [a[..., i:i + 1].tobytes() for a in batch]
            live = self.trials[i] > 0
            xs, t, c = self.xs[:, i, live].T, self.trials[i, live], self.cases[i, live]
            b0, beta = batch[0][i], batch[1][:, i]
            resid = t * rc.expit(b0 + xs @ beta) - c
            g = xs.T @ resid / t.sum()
            viol = np.where(beta != 0.0, np.abs(g + self.LAM * np.sign(beta)), np.abs(g) - self.LAM)
            assert batch[2][i]
            assert max(abs(resid.sum()) / t.sum(), viol.max()) <= 1e-6

    def test_matches_scalar_twin(self):
        # Member 3's mirrored columns tie exactly, so which of its optimal
        # splits a descent ends at is up to rounding; it is left out here.
        members = np.array([0, 1, 2, 4])
        batch = self.run(members)
        for pos, i in enumerate(members):
            live = self.trials[i] > 0
            b0, beta, conv, outer, sweeps, steps = scalar_cd(
                self.xs[:, i, live].T, self.trials[i, live], self.cases[i, live], self.LAM,
                float(self.b0[i]), self.beta[:, i].copy(), glm.KKT_TOL)
            coef, ref = np.append(batch[0][pos], batch[1][:, pos]), np.append(b0, beta)
            assert np.all(np.abs(coef - ref) <= 1e-12 * np.abs(ref).max())
            assert (batch[2][pos], batch[3][pos], batch[4][pos], batch[5][pos]) == \
                (conv, outer, sweeps, steps)
        assert batch[5][2] > 0
        # Member 4, the last one run, keeps its constant column at 0 in both.
        assert batch[1][2, 3] == beta[2] == 0.0


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
