import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import riskcontest as rc
from riskcontest import glm
from riskcontest.errors import DegenerateOutcomeError, ValidationError

from conftest import _deviances


# The plain coordinate descent the kernel is held to (scalar_cd with
# solve=False): at most CD_MAX_SWEEPS sweeps per quadratic, each quadratic
# done when no coordinate moved by CD_SWEEP_TOL in a sweep.
CD_MAX_SWEEPS = 1000
CD_SWEEP_TOL = 1e-10


@pytest.fixture(autouse=True)
def small_caps(request, monkeypatch):
    """Caps the kernel's outer iterations far below production's 250 per
    penalty, so a kernel that never settles fails in seconds instead of
    minutes. Every member in these tests converges within 5 outer
    iterations. The plain coordinate descent of
    test_matches_tight_coordinate_descent needs the production cap."""
    if request.function.__name__ != "test_matches_tight_coordinate_descent":
        monkeypatch.setattr(glm, "LASSO_MAX_OUTER", 30)


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

def scalar_steps(z, wn, r, lam, coef):
    """The one-member twin of _lasso_steps: the same active-set rules on
    the subproblem of the standardized patterns' rows z (p + 1, k), with
    weights wn = w / n and the working residual r over the patterns, from
    coef (p + 1,). The gradient is read from r before every decision, where
    the kernel carries it as g -= H delta. Returns the new coef and the
    steps taken."""
    q = len(coef)
    # Correctly rounded sums, so equal columns give equal entries.
    gram = np.array([[math.fsum(wn * a * b) for b in z] for a in z])
    free = np.diag(gram) > 0.0
    coef = np.where(free | (np.arange(q) == 0), coef, 0.0)
    signs = np.sign(coef)
    signs[0] = 0.0
    for step in range(1, 3 * q + 1):
        active = [0] + [j for j in range(1, q) if signs[j] != 0.0]
        # An active column equal over the trials to an earlier active one
        # keeps its value.
        solved = [a for a in active if not any(
            i < a and gram[i, a] == gram[i, i] == gram[a, a] for i in active)]
        system = gram[np.ix_(solved, solved)] * (1.0 + glm.ACTIVE_SET_RIDGE * np.eye(len(solved)))
        delta = np.zeros(q)
        delta[solved] = np.linalg.solve(system, z[solved] @ (wn * r) - lam * signs[solved])
        new = coef + delta
        crossing = [j for j in range(1, q) if signs[j] != 0.0 and np.sign(new[j]) != signs[j]]
        if crossing:
            fractions = [0.0 if coef[j] == 0.0 else coef[j] / (coef[j] - new[j])
                         for j in crossing]
            part = min(fractions)
            first = crossing[fractions.index(part)]
            new = coef + part * delta
            for j in range(1, q):
                if signs[j] != 0.0 and (j == first or np.sign(new[j]) != signs[j]):
                    new[j], signs[j] = 0.0, 0.0
        r = r - (new - coef) @ z
        coef = new
        if crossing:
            continue
        g = z @ (wn * r)
        viol = [abs(g[j]) - lam if signs[j] == 0.0 and free[j] else -np.inf for j in range(1, q)]
        if max(viol, default=-np.inf) <= glm.LASSO_ENTRY_TOL:
            return coef, step
        enter = int(np.argmax(viol)) + 1
        signs[enter] = np.sign(g[enter])
    return coef, 3 * q


def scalar_cd(xs, trials, cases, lam, b0, beta, kkt_tol, solve=True, sweep_tol=CD_SWEEP_TOL):
    """The one-problem twin of the batched kernel: every rule of _lasso_solve,
    one member at a time, with each quadratic minimized by scalar_steps. It
    keeps the working residual over the patterns, where the kernel carries
    each quadratic as its Gram and gradient, so it is an independent
    reference for the same rules. With solve=False it is the plain cyclic
    coordinate descent the kernel replaced, each quadratic swept until no
    coordinate moves by sweep_tol, at most CD_MAX_SWEEPS times. Returns (b0,
    beta, converged, outer iterations, active-set steps or sweeps)."""
    n, p = trials.sum(), xs.shape[1]
    count = 0
    z = np.vstack([np.ones(len(trials)), xs.T])
    for outer in range(1, glm.LASSO_MAX_OUTER + 1):
        eta = b0 + xs @ beta
        prob = rc.expit(eta)
        resid = trials * prob - cases
        g = xs.T @ resid / n
        viol = np.where(beta != 0.0, np.abs(g + lam * np.sign(beta)), np.abs(g) - lam)
        if max(abs(float(resid.sum())) / n, float(np.max(viol, initial=0.0))) <= kkt_tol:
            return b0, beta, True, outer, count

        w = trials * np.maximum(prob * (1.0 - prob), 1e-10)
        r = -resid / w
        if solve:
            coef, steps = scalar_steps(z, w / n, r, lam, np.concatenate(([b0], beta)))
            b0, beta, count = float(coef[0]), coef[1:], count + steps
            continue
        wx2 = (w @ xs**2) / n
        wsum = float(w.sum())
        for _ in range(CD_MAX_SWEEPS):
            count += 1
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
    return b0, beta, False, glm.LASSO_MAX_OUTER, count


def scalar_path(patterns, trials, cases, grid, kkt_tol=glm.KKT_TOL, **rules):
    """(coefficients (L, p + 1), converged, outer iterations and active-set
    steps or sweeps (L,)) of the scalar path on the patterns with at least
    one trial; rules go to scalar_cd."""
    live = trials > 0
    patterns, trials, cases = patterns[live], trials[live], cases[live]
    n = trials.sum()
    mean = trials @ patterns / n
    scale = np.sqrt(trials @ (patterns - mean) ** 2 / n)
    scale = np.where(scale == 0.0, 1.0, scale)
    xs = (patterns - mean) / scale
    ybar = float(cases.sum() / n)
    b0, beta = math.log(ybar / (1.0 - ybar)), np.zeros(patterns.shape[1])
    coef, converged, outers, counts = [], [], [], []
    for lam in grid:
        b0, beta, conv, outer, count = scalar_cd(xs, trials, cases, float(lam), b0, beta,
                                                 kkt_tol, **rules)
        coef.append(np.concatenate(([b0 - float(np.sum(beta * mean / scale))], beta / scale)))
        converged.append(conv)
        outers.append(outer)
        counts.append(count)
    return np.array(coef), np.array(converged), np.array(outers), np.array(counts)


def standardized_objective(patterns, trials, cases, lam, coef):
    """The lasso objective _lasso_solve minimizes at coefficients coef (0/1
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
        full = glm._lasso_path(table.patterns, trials, cases, grid, trials, cases)
        perm = rng.permutation(len(trials))
        shuffled = glm._lasso_path(table.patterns, trials[perm], cases[perm], grid,
                                    trials[perm], cases[perm])
        for i, place in enumerate(np.argsort(perm)):
            alone = glm._lasso_path(table.patterns, trials[i:i + 1], cases[i:i + 1], grid,
                                    trials[i:i + 1], cases[i:i + 1])
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

    # The stopping rules are thresholds (KKT_TOL, LASSO_ENTRY_TOL): in a rare
    # draw a sum rounded the other way can let one side take one more step,
    # and the paths then differ by up to KKT_TOL. Fixed draws keep the 1e-12
    # check repeatable.
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(cv_problems())
    def test_matches_scalar_reference(self, problem):
        x, y, plan, _ = problem
        table, trials, cases, held_n, held_c = fold_counts(x, y, plan)
        grid = rc.default_lambda_grid(x, y, 10)
        paths = glm._lasso_path(table.patterns, trials, cases, grid, trials, cases)
        ref_curve = np.empty((len(held_n), grid.size))
        for f, (t, c) in enumerate(zip(trials, cases)):
            coef, conv, outer, steps = scalar_path(table.patterns, t, c, grid)
            # Relative to the fit's largest coefficient, so a coefficient
            # entering the path near zero is held to the fit's scale.
            scale = np.abs(coef).max(axis=1, keepdims=True)
            assert np.all(np.abs(paths[0][f] - coef) <= 1e-12 * scale)
            assert np.array_equal(paths[2][f], conv)
            assert np.array_equal(paths[3][f], outer) and np.array_equal(paths[4][f], steps)
            if f < len(held_n):
                eta = coef[:, :1] + coef[:, 1:] @ table.patterns.T
                ref_curve[f] = _deviances(eta, held_n[f], held_c[f]) / held_n[f].sum()
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
        paths = glm._lasso_path(table.patterns, trials, cases, grid, trials, cases)
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
            with_zeros = glm._lasso_path(patterns, t[None], c[None], grid, t[None], c[None])
        without = glm._lasso_path(patterns[~drop], t[None, ~drop], c[None, ~drop], grid,
                                  t[None, ~drop], c[None, ~drop])
        np.testing.assert_allclose(with_zeros[0], without[0], rtol=1e-12, atol=1e-14)
        assert np.array_equal(with_zeros[2], without[2])

    def test_single_class_member_raises(self):
        x, y = lasso_data(n=200, p=3, seed=13)
        patterns, trials, cases, _ = glm._pattern_counts(x, y)
        grid = rc.default_lambda_grid(x, y, 5)
        with pytest.raises(DegenerateOutcomeError):
            counts = np.vstack([trials, trials]), np.vstack([cases, trials])
            glm._lasso_path(patterns, *counts, grid, *counts)


class TestStandardizedGram:
    """The lasso's Gram: the weighted Gram of the design [1, x] summed over
    its nonzero pairs (_Fits.gram) and standardized with every member's
    means and scales (_standardized_gram)."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(3, 8), st.integers(4, 40),
           st.floats(0.05, 0.5))
    def test_matches_fsum_gram(self, seed, p, k, prevalence):
        """On sparse 0/1 patterns with zero-trial cells, H agrees with the
        correctly rounded Gram of the standardized patterns to 1e-13
        relative; member 0 sees columns 0 and 1 equal, so they give equal
        entries bit for bit, and members 1 and 2 see column 2 constant at 1
        and at 0, so its row and column are exactly zero."""
        rng = np.random.default_rng(seed)
        patterns = (rng.random((k, p)) < prevalence).astype(float)
        trials = rng.integers(1, 30, (5, k)).astype(float)
        trials[rng.random((5, k)) < 0.3] = 0.0
        col = patterns.T
        trials[0, col[0] != col[1]] = 0.0
        trials[1, col[2] == 0.0] = 0.0
        trials[2, col[2] == 1.0] = 0.0
        assume(np.all(trials.sum(axis=1) > 0))
        fits = glm._Fits.from_counts(patterns, trials, np.zeros_like(trials))
        w = fits.trials * rng.random(fits.trials.size)
        gram = glm._standardized_gram(fits.gram(w, 0), *glm._standardize(fits))
        for i, w_i in enumerate(np.split(w, np.cumsum(fits.sizes)[:-1])):
            live = trials[i] > 0
            x, t = patterns[live], trials[i, live]
            n = math.fsum(t)
            mean = np.array([math.fsum(t * c) for c in x.T]) / n
            scale = np.sqrt([math.fsum(t * (c - m) ** 2) / n for c, m in zip(x.T, mean)])
            z = np.vstack([np.ones(len(x)), ((x - mean) / np.where(scale == 0.0, 1.0, scale)).T])
            ref = np.array([[math.fsum(w_i * a * b) for b in z] for a in z])
            assert np.abs(gram[i] - ref).max() <= 1e-13 * np.abs(ref).max()
        twins = gram[0]
        assert twins[1, 1] == twins[2, 2] == twins[1, 2] == twins[2, 1]
        assert np.array_equal(twins[1], twins[2]) and np.array_equal(twins[:, 1], twins[:, 2])
        for constant in gram[1:3]:
            assert not constant[3].any() and not constant[:, 3].any()


class TestActiveSetSteps:
    """_lasso_solve from warm starts that make the active-set step matter: a
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
        # Column 0 lowers the odds, so member 1 starts it with the wrong
        # sign; member 3's two slopes push the same way.
        self.beta = np.zeros((4, 5))
        self.beta[0, 1] = 0.5
        self.beta[1:3, 2] = 0.3
        self.beta[[0, 3], 3] = -0.3, 0.3
        self.beta[[0, 1, 3], 4] = -0.6, 0.4, 0.2
        self.b0 = glm._log_odds(trials.sum(axis=1), self.cases.sum(axis=1))

    def fits(self, members):
        return glm._Fits.from_counts(self.patterns, self.trials[members], self.cases[members])

    def run(self, members):
        """_lasso_solve's intercepts (M,), slopes (p, M), converged flags,
        outer iterations and active-set steps."""
        coef = np.column_stack([self.b0[members], self.beta[:, members].T])
        fits = self.fits(members)
        out = glm._lasso_solve(fits, *glm._standardize(fits), self.LAM, coef)
        return (coef[:, 0], np.ascontiguousarray(coef[:, 1:].T)) + out

    def member(self, i):
        """Member i's patterns with trials, standardized with the kernel's
        means and scales, and their trials and cases."""
        live = self.trials[i] > 0
        mean, scale = glm._standardize(self.fits([i]))
        return ((self.patterns[live] - mean[:, 1:]) / scale[:, 1:], self.trials[i, live],
                self.cases[i, live])

    def test_members_keep_solo_bits_and_meet_kkt(self, monkeypatch):
        conditions = []
        newton_steps = glm._newton_steps

        def recording_steps(hess, grad, lam):
            conditions.extend(np.linalg.cond(hess))
            return newton_steps(hess, grad, lam)

        monkeypatch.setattr(glm, "_newton_steps", recording_steps)
        batch = self.run(np.arange(5))
        # Member 3's active-set system was singular but for the ridge.
        assert max(conditions) > 1e10
        # Member 4's constant column stays at exactly 0.
        assert batch[1][2, 4] == 0.0
        for i in range(5):
            solo = self.run(np.array([i]))
            assert [a.tobytes() for a in solo] == [a[..., i:i + 1].tobytes() for a in batch]
            xs, t, c = self.member(i)
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
            b0, beta, conv, outer, steps = scalar_cd(
                *self.member(i), self.LAM, float(self.b0[i]), self.beta[:, i].copy(),
                glm.KKT_TOL)
            coef, ref = np.append(batch[0][pos], batch[1][:, pos]), np.append(b0, beta)
            assert np.all(np.abs(coef - ref) <= 1e-12 * np.abs(ref).max())
            assert (batch[2][pos], batch[3][pos], batch[4][pos]) == (conv, outer, steps)
        # Member 2's second twin column was active from the start, so it
        # kept its value in every step while the first took the rest.
        assert batch[1][2, 2] == self.beta[2, 2]
        # Member 4, the last one run, keeps its constant column at 0 in both.
        assert batch[1][2, 3] == beta[2] == 0.0


@st.composite
def subproblems(draw):
    """A batch of lasso subproblems as _lasso_solve hands them to _lasso_steps:
    the weighted Gram H of a design [1, x] with centred columns and a
    gradient g in its range, one penalty, and warm starts of random signs.
    Designs of few rows are singular. Some columns are zero, so H_jj = 0
    (and g_j = 0), some of them with a nonzero warm start, and some members
    see a later column equal to an earlier one (twins), as do many 0/1
    designs of few rows. A twin starts at 0 or with the sign of its first
    earlier twin that starts nonzero: along a path no twin enters while an
    earlier twin is active, and an active later twin keeps its value."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m, p = draw(st.integers(1, 5)), draw(st.integers(1, 8))
    q = p + 1
    n = draw(st.integers(2, 60))
    binary = draw(st.booleans())
    grams, grads, coefs = [], [], []
    for _ in range(m):
        x = rng.random((n, q)) < 0.4 if binary else rng.normal(size=(n, q))
        x = x - x.mean(axis=0)
        x[:, 0] = 1.0
        x[:, 1:][:, rng.random(p) < 0.15] = 0.0
        w = rng.random(n) + 0.05
        gram = (x * w[:, None]).T @ x / n
        gram = np.triu(gram) + np.triu(gram, 1).T
        grad = x.T @ (w * rng.normal(size=n)) / n
        coef = rng.normal(size=q) * (rng.random(q) < 0.6)
        if p >= 2 and rng.random() < 0.5:
            i, j = np.sort(rng.choice(np.arange(1, q), 2, replace=False))
            gram[j], gram[:, j], grad[j] = gram[i], gram[:, i], grad[i]
        for j in range(2, q):
            earlier = [coef[i] for i in range(1, j)
                       if gram[i, j] == gram[i, i] == gram[j, j] and coef[i] != 0.0]
            if earlier:
                coef[j] = abs(coef[j]) * np.sign(earlier[0])
        grams.append(gram)
        grads.append(grad)
        coefs.append(coef)
    grad = np.array(grads)
    lam = draw(st.floats(0.05, 1.0)) * float(np.abs(grad[:, 1:]).max())
    return np.array(grams), grad, lam, np.array(coefs)


def subproblem_objective(gram, grad, lam, start, coef):
    """delta'H delta / 2 - g'delta + lam * ||coef_slopes||_1, delta = coef - start."""
    delta = coef - start
    return 0.5 * delta @ gram @ delta - grad @ delta + lam * np.abs(coef[1:]).sum()


def tight_cd(gram, grad, lam, coef, tol=1e-14, max_sweeps=100_000):
    """Plain cyclic coordinate descent on one subproblem, run until no
    coordinate moves by tol relative to the largest; a coordinate with
    H_jj = 0 goes to 0."""
    coef, grad = coef.copy(), grad.copy()
    for _ in range(max_sweeps):
        moved = 0.0
        for j in range(1, len(coef)):
            old, h = coef[j], gram[j, j]
            rho = grad[j] + h * old
            new = math.copysign(max(abs(rho) - lam, 0.0), rho) / h if h > 0.0 else 0.0
            grad -= gram[:, j] * (new - old)
            coef[j], moved = new, max(moved, abs(new - old))
        shift = grad[0] / gram[0, 0]
        coef[0] += shift
        grad -= gram[:, 0] * shift
        if max(moved, abs(shift)) < tol * (1.0 + np.abs(coef).max()):
            return coef
    raise AssertionError("coordinate descent did not settle")


class TestSubproblemSteps:
    """_lasso_steps, the active-set solve of each quadratic subproblem."""

    @settings(max_examples=60, deadline=None)
    @given(subproblems())
    def test_kkt_cd_and_batch(self, problem):
        gram, grad, lam, start = problem
        m, q = start.shape
        coef, steps = glm._lasso_steps(gram, grad, lam, start)
        for i in range(m):
            alone = glm._lasso_steps(gram[i:i + 1], grad[i:i + 1], lam, start[i:i + 1])
            assert alone[0].tobytes() == coef[i:i + 1].tobytes()
            assert alone[1].tolist() == [steps[i]]
            assert steps[i] < 3 * q
            free = np.diag(gram[i]) > 0.0
            assert np.all(coef[i, 1:][~free[1:]] == 0.0)
            # The subproblem's conditions at the result, to rounding.
            g = grad[i] - gram[i] @ (coef[i] - start[i])
            s = np.sign(coef[i, 1:])
            tol = 1e-10 * (1.0 + np.abs(grad[i]).max())
            assert abs(g[0]) <= tol
            assert np.all(np.where(s != 0.0, np.abs(g[1:] - lam * s), np.abs(g[1:]) - lam) <= tol)
            # Tight coordinate descent reaches the same optimal value. Twins
            # may split their total differently, so each later twin's value
            # is added to its first twin's; then, where the other columns
            # are independent, the coefficients agree too.
            ref = tight_cd(gram[i], grad[i], lam, start[i])
            obj = subproblem_objective(gram[i], grad[i], lam, start[i], coef[i])
            obj_ref = subproblem_objective(gram[i], grad[i], lam, start[i], ref)
            assert abs(obj - obj_ref) <= 1e-10 * (1.0 + abs(obj_ref))
            merged, merged_ref, kept = coef[i].copy(), ref.copy(), free.copy()
            for j in range(2, q):
                twin = [k for k in range(1, j) if gram[i, k, j] == gram[i, k, k] == gram[i, j, j]]
                if twin and free[j]:
                    merged[twin[0]] += merged[j]
                    merged_ref[twin[0]] += merged_ref[j]
                    merged[j] = merged_ref[j] = 0.0
                    kept[j] = False
            if np.linalg.cond(gram[i][np.ix_(kept, kept)]) < 1e6:
                assert np.all(np.abs(merged - merged_ref) <=
                              1e-8 * (1.0 + np.abs(merged_ref).max()))


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
