"""Pattern fits against row-by-row fits, and batched fits against single ones.

glm fits every logistic model on distinct covariate patterns. The reference
here fits the same data one row per observation, with unit trials, through
conftest's scalar IRLS, which keeps every rule of glm's batched kernel but
sums with matmul, so the two differ only in the order of floating-point
sums. PatternTable.cv_deviances must equal the held-out sums of
PatternTable.fold_fits bit for bit, whatever the chunk boundaries.
"""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import riskcontest as rc
from riskcontest import glm
from riskcontest.errors import DegenerateOutcomeError
from riskcontest.glm import FALLBACK_RIDGE, _irls_batch, _newton_steps

from conftest import _grouped_deviance, _irls, five_case_contest

RTOL = 1e-12
# A fit that separates goes on from where it stands to the optimum of a
# tiny ridge. Along the separated direction that objective is almost flat,
# so the rounding of the two summation orders moves the optimum reached by
# about 1e-8.
SEPARATED_RTOL = 1e-6
PENALTIES = [0.0, 0.01, 1.0]


def row_fit(x, y, ridge=0.0):
    """(beta, deviance, std_errors, separated, iterations) of a row-wise fit."""
    n, p = x.shape
    xmat = np.hstack([np.ones((n, 1)), x])
    beta, dev, conv, it, separated = _irls(xmat, np.ones(n), y, ridge)
    std = None
    if ridge == 0.0 and conv:
        prob = rc.expit(xmat @ beta)
        info = (xmat * np.clip(prob * (1 - prob), 1e-10, None)[:, None]).T @ xmat
        if separated:
            info[np.arange(1, p + 1), np.arange(1, p + 1)] += FALLBACK_RIDGE
        std = np.sqrt(np.diag(np.linalg.inv(info)))
    return beta, dev, std, separated, it


def row_cv_deviance(x, y, cols, plan, ridge=0.0):
    cols = sorted(cols)
    total = 0.0
    for f in range(1, plan.n_folds + 1):
        test = plan.assignments == f
        beta, *_ = row_fit(x[~test][:, cols], y[~test], ridge)
        eta = beta[0] + x[test][:, cols] @ beta[1:]
        total += _grouped_deviance(eta, np.ones(int(test.sum())), y[test])
    return total / y.shape[0]


def ridge_optimum(x, y):
    """The FALLBACK_RIDGE fit of rows (x, y): Newton steps from the log-odds
    start, halved only where the objective rises by more than 1e-9, far
    above its rounding, until the step is below 1e-14 relative or 100
    steps have run."""
    xmat = np.hstack([np.ones((len(y), 1)), x])
    pen = np.full(xmat.shape[1], FALLBACK_RIDGE)
    pen[0] = 0.0

    def objective(beta):
        return _grouped_deviance(xmat @ beta, 1.0, y) + float(pen @ beta**2)

    beta = np.zeros(xmat.shape[1])
    beta[0] = np.log(y.mean() / (1.0 - y.mean()))
    for _ in range(100):
        prob = rc.expit(xmat @ beta)
        hess = (xmat * (prob * (1.0 - prob))[:, None]).T @ xmat + np.diag(pen)
        step = np.linalg.solve(hess, xmat.T @ (y - prob) - pen * beta)
        t, obj = 1.0, objective(beta)
        while objective(beta + t * step) > obj + 1e-9:
            t *= 0.5
        beta = beta + t * step
        if np.abs(step).max() <= 1e-14 * (1.0 + np.abs(beta).max()):
            break
    return beta


def same_bits(a, b):
    return len(a) == len(b) and all(x.tobytes() == y.tobytes() for x, y in zip(a, b))


def assert_close(actual, expected, rtol):
    actual, expected = np.atleast_1d(actual), np.atleast_1d(expected)
    scale = max(float(np.max(np.abs(expected))), 1e-300)
    assert float(np.max(np.abs(actual - expected))) <= rtol * scale


contests = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(60, 300),
    "p": st.integers(1, 6),
    "prevalence": st.floats(0.05, 0.6),
})


def draw(seed, n, p, prevalence):
    """Sparse binary risk factors with random effects, both classes present
    at least four times so that four stratified folds exist."""
    rng = np.random.default_rng(seed)
    while True:
        x = (rng.random((n, p)) < prevalence).astype(float)
        y = (rng.random(n) < rc.expit(-0.5 + x @ rng.normal(0, 1.5, p))).astype(float)
        if 4 <= y.sum() <= n - 4:
            return x, y, rng


class TestFitLogistic:
    @settings(max_examples=80, deadline=None)
    @given(contests, st.sampled_from(PENALTIES))
    def test_matches_row_fit(self, case, ridge):
        x, y, _ = draw(**case)
        fit = rc.fit_logistic(x, y, ridge)
        beta, dev, std, separated, iterations = row_fit(x, y, ridge)
        assert (fit.separation_flag, fit.iterations) == (separated, iterations)
        assert (fit.std_errors is None) == (std is None)
        rtol = SEPARATED_RTOL if separated else RTOL
        assert_close(fit.coefficients, beta, rtol)
        assert_close(fit.deviance, dev, rtol)
        if std is not None:
            assert_close(fit.std_errors, std, rtol)


def walk_only(monkeypatch):
    """Turn off the kernel's reading of separation from the counts, so every
    separated fit walks out to SEPARATION_BOUND first."""
    monkeypatch.setattr(glm, "_one_class_columns",
                        lambda fits: np.zeros((len(fits.sizes), fits.q), dtype=int))


class TestSeparationFromCounts:
    """Column 0 is exposed on five rows, all of them cases: a quasi-complete
    separation that the kernel reads from the counts."""

    @staticmethod
    def data():
        rng = np.random.default_rng(11)
        x = (rng.random((200, 2)) < 0.3).astype(float)
        y = (rng.random(200) < 0.4).astype(float)
        x[:, 0] = 0.0
        x[np.flatnonzero(y)[:5], 0] = 1.0
        return x, y

    def test_one_class_column_starts_in_the_ridge_pass(self, monkeypatch):
        """Under a cap of 10 iterations the fit is flagged and reaches the
        ridge optimum; the walk alone has not even met the separation after
        13."""
        x, y = self.data()
        monkeypatch.setattr(glm, "MAX_ITER", 10)
        fit = rc.fit_logistic(x, y)
        assert fit.separation_flag and fit.converged
        assert_close(fit.coefficients, ridge_optimum(x, y), 1e-9)
        walk_only(monkeypatch)
        monkeypatch.setattr(glm, "MAX_ITER", 13)
        walk = rc.fit_logistic(x, y)
        assert not (walk.separation_flag or walk.converged)

    @pytest.mark.parametrize("scale", [2.0, 0.5])
    def test_scaled_column_starts_in_the_ridge_pass(self, scale):
        """With x doubled or halved no column is 0/1, yet the one-class
        column is read from the counts: the fit ends flagged at the ridge
        optimum. At scale 2 the walk alone stopped on the flat objective,
        converged and unflagged, with a slope of 10.9 and a standard error
        of 9.4e3."""
        x, y = self.data()
        fit = rc.fit_logistic(scale * x, y)
        assert fit.separation_flag and fit.converged
        assert_close(fit.coefficients, ridge_optimum(scale * x, y), 1e-9)


class TestCvDeviance:
    @settings(max_examples=60, deadline=None)
    @given(contests, st.sampled_from(PENALTIES))
    def test_matches_row_cv(self, case, ridge):
        x, y, rng = draw(**case)
        plan = rc.make_folds(y, 4, rng)
        cols = range(x.shape[1])
        separates = any(row_fit(x[plan.assignments != f], y[plan.assignments != f], ridge)[3]
                        for f in range(1, plan.n_folds + 1))
        assert_close(rc.cv_deviance(x, y, cols, plan, ridge),
                     row_cv_deviance(x, y, cols, plan, ridge),
                     SEPARATED_RTOL if separates else RTOL)

    @settings(max_examples=60, deadline=None)
    @given(contests)
    def test_separated_column(self, case):
        # Column 0 is exposed only among cases, so every fold separates.
        x, y, rng = draw(**case)
        x[:, 0] = y * (rng.random(y.size) < 0.5)
        plan = rc.make_folds(y, 4, rng)
        cols = range(x.shape[1])
        assert_close(rc.cv_deviance(x, y, cols, plan),
                     row_cv_deviance(x, y, cols, plan), SEPARATED_RTOL)

    @settings(max_examples=60, deadline=None)
    @given(contests, st.booleans())
    def test_refit_folds_reach_the_ridge_optimum(self, case, exposed_cases):
        """A fold fit refit with FALLBACK_RIDGE ends at that ridge fit's
        optimum, not where a stopping rule happened to halt on a flat
        objective: the CV deviance, with every refit fold scored by a ridge
        fit run until its Newton step is below 1e-14, agrees to 1e-9."""
        x, y, rng = draw(**case)
        if exposed_cases:
            x[:, 0] = y * (rng.random(y.size) < 0.5)
        plan = rc.make_folds(y, 4, rng)
        cols = list(range(x.shape[1]))
        table = rc.PatternTable(x, y, plan)
        _, held, refit, _ = table.fold_fits([cols])
        reference = held[0].copy()
        for f in np.flatnonzero(refit[0]):
            test = plan.assignments == f + 1
            beta = ridge_optimum(x[~test], y[~test])
            eta = beta[0] + x[test] @ beta[1:]
            reference[f] = _grouped_deviance(eta, np.ones(int(test.sum())), y[test])
        assert_close(sum(held[0].tolist()), sum(reference.tolist()), 1e-9)


class TestFoldDeviances:
    @settings(max_examples=80, deadline=None)
    @given(contests, st.sampled_from(PENALTIES), st.sampled_from([0, 2, 3, 4]))
    def test_matches_row_fits(self, case, ridge, n_folds):
        """n_folds = 0 draws a one-fold holdout plan whose rows labelled 0
        are never held out; otherwise a make_folds plan. Columns come in a
        random order, which the training fit must keep."""
        x, y, rng = draw(**case)
        if n_folds:
            plan = rc.make_folds(y, n_folds, rng)
        else:
            labels = np.zeros(y.size, dtype=np.int64)
            for cls in (1, 0):
                idx = rng.permutation(np.flatnonzero(y == cls))
                labels[idx[:int(rng.uniform(0.1, 0.5) * idx.size)]] = 1
            plan = rc.CvPlan(1, labels)
        p = x.shape[1]
        cols = [int(c) for c in rng.permutation(p)[:rng.integers(0, p + 1)]]
        folds = rc.PatternTable(x, y, plan).fold_fits([cols], ridge)
        assert all(part.shape == (1, plan.n_folds) for part in folds)
        for f, (train_dev, held_dev) in enumerate(zip(folds[0][0], folds[1][0]), 1):
            test = plan.assignments == f
            fit = rc.fit_logistic(x[~test][:, cols], y[~test], ridge)
            assert train_dev == fit.deviance
            eta = fit.intercept + x[test][:, cols] @ fit.slopes
            assert_close(held_dev, _grouped_deviance(eta, np.ones(int(test.sum())), y[test]),
                         SEPARATED_RTOL if fit.separation_flag else RTOL)

        perm = rng.permutation(y.size)
        permuted = rc.PatternTable(x[perm], y[perm],
                                   rc.CvPlan(plan.n_folds, plan.assignments[perm]))
        assert same_bits(permuted.fold_fits([cols], ridge), folds)

    @settings(max_examples=40, deadline=None)
    @given(contests, st.sampled_from(PENALTIES), st.integers(0, 6))
    def test_subsets_match_one_at_a_time(self, case, ridge, size):
        """Subsets whose designs have different numbers of cells, fit in
        one batch, keep the bits of their one-subset fits."""
        x, y, rng = draw(**case)
        plan = rc.make_folds(y, 3, rng)
        table = rc.PatternTable(x, y, plan)
        subsets = list(combinations(range(x.shape[1]), min(size, x.shape[1])))
        subsets = [list(rng.permutation(cols)) for cols in subsets]
        batch = table.fold_fits(subsets, ridge)
        for i, cols in enumerate(subsets):
            assert same_bits(table.fold_fits([cols], ridge), [part[i:i + 1] for part in batch])


grids = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "n": st.integers(1, 60),
    "p": st.integers(0, 5),
    "prevalence": st.floats(0.05, 0.95),
    "scale": st.sampled_from([1.0, 2.0, 0.5]),
})


def scaled_grid(seed, n, p, prevalence, scale):
    """(n, p) binary x times scale, so x is 0/1, doubled or halved."""
    rng = np.random.default_rng(seed)
    return scale * (rng.random((n, p)) < prevalence), rng


class TestCollapseOrder:
    """_collapse and PatternTable._project share one sort-and-group routine:
    _collapse is checked against np.unique, and _project against _collapse
    of one subset at a time."""

    @settings(max_examples=200, deadline=None)
    @given(grids)
    @example({"seed": 0, "n": 7, "p": 0, "prevalence": 0.5, "scale": 1.0})
    @example({"seed": 0, "n": 1, "p": 3, "prevalence": 0.5, "scale": 2.0})
    def test_collapse_matches_unique(self, case):
        """The distinct rows sort with the last column as the primary key,
        as np.unique sorts the rows with their columns reversed."""
        x, _ = scaled_grid(**case)
        patterns, inv = glm._collapse(x)
        unique, unique_inv = np.unique(x[:, ::-1], axis=0, return_inverse=True)
        assert patterns.tobytes() == unique[:, ::-1].tobytes()
        assert patterns.shape == unique.shape
        assert np.array_equal(inv, unique_inv.ravel())

    @settings(max_examples=100, deadline=None)
    @given(grids, st.integers(1, 6))
    @example({"seed": 0, "n": 1, "p": 2, "prevalence": 0.5, "scale": 0.5}, 3)
    def test_project_matches_collapse_of_each_subset(self, case, n_subsets):
        """The projected design, owners and counts of a batch of subsets,
        s = 0 included, equal _collapse of each subset's patterns with its
        counts summed, subset after subset."""
        x, rng = scaled_grid(**case)
        y = (rng.random(len(x)) < 0.5).astype(float)
        table = rc.PatternTable(x, y, rc.CvPlan(2, rng.integers(0, 3, len(x))))
        p = x.shape[1]
        s = int(rng.integers(0, p + 1))
        subsets = np.array([rng.permutation(p)[:s] for _ in range(n_subsets)],
                           dtype=np.intp).reshape(n_subsets, s)
        designs, owners, counts = [], [], []
        for i, cols in enumerate(subsets):
            sub, inv = glm._collapse(table.patterns[:, cols])
            designs.append(np.column_stack([np.ones(len(sub)), sub]))
            owners.append(np.full(len(sub), i, dtype=np.intp))
            counts.append(glm._pattern_sums(inv, len(sub), table.counts))
        expected = (np.vstack(designs), np.concatenate(owners), np.hstack(counts))
        assert same_bits(table._project(subsets), expected)


class TestSingleCopies:
    """Each rule that several kernels share, against a direct reference."""

    @settings(max_examples=100, deadline=None)
    @given(grids, st.integers(2, 5))
    @example({"seed": 0, "n": 1, "p": 0, "prevalence": 0.5, "scale": 1.0}, 2)
    def test_table_counts_match_a_row_loop(self, case, n_folds):
        """PatternTable's counts, n_held and min_train, counted one row at a
        time; row 0 and about a quarter of the rest are labelled 0, in no
        fold."""
        x, rng = scaled_grid(**case)
        y = (rng.random(len(x)) < 0.5).astype(float)
        labels = np.where(rng.random(len(x)) < 0.25, 0, rng.integers(1, n_folds + 1, len(x)))
        labels[0] = 0
        table = rc.PatternTable(x, y, rc.CvPlan(n_folds, labels))
        expected = np.zeros((2 + 2 * n_folds, len(table.patterns)))
        for row, label, outcome in zip(x, labels, y):
            j = next(j for j, pattern in enumerate(table.patterns)
                     if np.array_equal(pattern, row))
            expected[[0, 1], j] += 1.0, outcome
            if label:
                expected[[1 + label, 1 + n_folds + label], j] += 1.0, outcome
        assert table.counts.shape == expected.shape
        assert table.counts.tobytes() == expected.tobytes()
        held = [int(np.sum(labels == fold)) for fold in range(1, n_folds + 1)]
        assert table.n_held == sum(held)
        assert table.min_train == len(x) - max(held)

    def test_irls_weight_floor(self):
        """Where |eta| >= 40, p(1 - p) is below 1e-17, and every weight is
        exactly its trials times the 1e-10 floor; elsewhere it is trials *
        p(1 - p)."""
        patterns = np.arange(4.0)[:, None]
        trials = np.array([[1.0, 2.0, 3.0, 4.0], [5.0, 0.0, 7.0, 8.0]])
        fits = glm._Fits.from_counts(patterns, trials, np.ones_like(trials))
        eta = np.array([-1e3, -40.0, -39.5, 0.0, 3.0, 40.0, 55.0])
        p, w = fits.irls_weights(eta)
        assert p.tobytes() == rc.expit(eta).tobytes()
        far = np.abs(eta) >= 40.0
        assert w[far].tobytes() == (fits.trials[far] * 1e-10).tobytes()
        near = np.abs(eta) <= 3.0
        assert w[near].tobytes() == (fits.trials[near] * p[near] * (1.0 - p[near])).tobytes()


def test_wide_contest_keeps_every_column_distinct():
    """With 64 or more columns no integer code fits a row; the planted
    column (0-based 67, reported 1-based) must still win."""
    rng = np.random.default_rng(7)
    n, d = 400, 70
    x = (rng.random((n, d)) < 0.3).astype(np.int8)
    y = (rng.random(n) < rc.expit(-0.5 + 2.0 * x[:, 67])).astype(np.int8)
    spec = rc.SelectorSpec("team_c", seed=0, size_min=1, size_max=1)
    assert rc.run_selector(rc.Dataset(x, y), spec).selected == (68,)

    plan = rc.make_folds(y, 4, np.random.default_rng(spec.seed))
    xf, yf = x.astype(float), y.astype(float)
    table = rc.PatternTable(xf, yf, plan)
    assert table.cv_deviances([[67]])[0][0] == pytest.approx(
        row_cv_deviance(xf, yf, (67,), plan), rel=RTOL)


def test_bootstrap_matches_row_refits():
    """team_d's bootstrap recounts the patterns of the full data, and every
    p-value equals, bit for bit, that of a refit of the resampled rows."""
    config = rc.SimulationConfig(n_cases=400, n_controls=400, seed=5)
    rng = np.random.default_rng(config.seed)
    data = rc.simulate_dataset(rc.draw_ground_truth(config, rng), config, rng)
    spec = rc.SelectorSpec("team_d", seed=3, n_resamples=30)
    x, y = data.x.astype(float), data.y.astype(float)
    row_rng = np.random.default_rng(spec.seed)
    expected = []
    for _ in range(spec.n_resamples):
        idx = rc.bootstrap_resample(data.n, row_rng)
        expected.append(rc.wald_pvalues(rc.fit_logistic(x[idx], y[idx])))
    expected = np.array(expected)

    fits = rc.bootstrap_fits(data.x, data.y, spec.n_resamples,
                             np.random.default_rng(spec.seed))
    assert np.array_equal([rc.wald_pvalues(fit) for fit in fits], expected)
    table = rc.run_selector(data, spec).method_report.splitlines()[-data.d:]
    assert table == [f"x{j + 1}," + ",".join(f"{v:.6g}" for v in expected[:, j])
                     for j in range(data.d)]


def test_bootstrap_leaves_out_one_class_resamples():
    """On a 5-case contest, resamples 59, 67 and 82 (seed 0) draw no case:
    their entries are None, and every other fit equals, bit for bit, the
    fit_logistic fit of its resampled rows, drawn as before."""
    data = five_case_contest()
    x, y = data.x.astype(float), data.y.astype(float)
    fits = rc.bootstrap_fits(data.x, data.y, 100, np.random.default_rng(0))
    row_rng = np.random.default_rng(0)
    for fit in fits:
        idx = rc.bootstrap_resample(data.n, row_rng)
        if fit is None:
            assert y[idx].sum() == 0
            continue
        expected = rc.fit_logistic(x[idx], y[idx])
        assert fit.coefficients.tobytes() == expected.coefficients.tobytes()
        assert fit.std_errors.tobytes() == expected.std_errors.tobytes()
        assert (fit.deviance, fit.converged, fit.iterations, fit.separation_flag) == (
            expected.deviance, expected.converged, expected.iterations,
            expected.separation_flag)
    assert [i for i, fit in enumerate(fits) if fit is None] == [59, 67, 82]


def test_bootstrap_with_no_resample_of_both_classes():
    """One case in 40 rows: the 3 resamples of seed 2 all miss it, so
    nothing is fit and team_d has no resample left."""
    x = np.tile([[0, 1], [1, 0], [1, 1], [0, 0]], (10, 1))
    y = np.zeros(40)
    y[0] = 1
    assert rc.bootstrap_fits(x, y, 3, np.random.default_rng(2)) == [None] * 3
    with pytest.raises(rc.UnsupportedFitError):
        rc.run_selector(rc.Dataset(x, y), rc.SelectorSpec("team_d", seed=2, n_resamples=3))


def test_bootstrap_of_one_class_rows_raises_before_any_draw():
    data = five_case_contest()
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    for y in (np.zeros(data.n), np.ones(data.n)):
        with pytest.raises(DegenerateOutcomeError):
            rc.bootstrap_fits(data.x, y, 10, rng)
    assert rng.bit_generator.state == state


def test_bootstrap_runs_as_one_kernel_call(monkeypatch):
    """The bootstrap's fits run as one batch whatever their cell counts: on
    this contest the 30 resamples hold 23-30 cells each."""
    config = rc.SimulationConfig(n_cases=400, n_controls=400, seed=5)
    rng = np.random.default_rng(config.seed)
    data = rc.simulate_dataset(rc.draw_ground_truth(config, rng), config, rng)
    calls = []
    kernel = glm._irls_batch
    monkeypatch.setattr(glm, "_irls_batch", lambda *args: calls.append(1) or kernel(*args))
    rc.bootstrap_fits(data.x, data.y, 30, np.random.default_rng(3))
    assert len(calls) == 1


problems = st.fixed_dictionaries({
    "seed": st.integers(0, 2**32 - 1),
    "members": st.integers(1, 12),
    "cells": st.integers(1, 10),
    "q": st.integers(1, 4),
})


def dense_fits(design, trials, successes):
    """The _Fits of dense problems: member i has the cells design[i] (m, q),
    trials[i] and successes[i] (m,), given as entries."""
    members, cells = trials.shape
    design = np.broadcast_to(design, (members, cells, design.shape[-1]))
    return glm._Fits.from_entries(design.reshape(members * cells, -1),
                                  np.repeat(np.arange(members), cells), np.arange(members * cells),
                                  trials.ravel(), successes.ravel(), members)


def dense_kernel(design, trials, successes, lam):
    """_irls_batch on the dense problems of dense_fits."""
    return _irls_batch(dense_fits(design, trials, successes), lam)


def grouped_problems(seed, members, cells, q):
    """Random grouped-binomial problems on binary designs with an intercept
    column. Cells hold 0-29 trials; the first cell of every member has both
    outcomes. Rank-deficient designs and separation both occur."""
    rng = np.random.default_rng(seed)
    design = np.ones((members, cells, q))
    design[..., 1:] = rng.random(design[..., 1:].shape) < 0.5
    trials = rng.integers(0, 30, (members, cells)).astype(float)
    trials[:, 0] += 2
    successes = rng.binomial(trials.astype(int), rng.random((members, cells))).astype(float)
    successes[:, 0] = np.clip(successes[:, 0], 1, trials[:, 0] - 1)
    return design, trials, successes, rng


class TestBatchedKernel:
    @settings(max_examples=80, deadline=None)
    @given(problems, st.sampled_from(PENALTIES + ["mixed"]))
    def test_batch_invariance(self, case, ridge):
        """Every member's beta, deviance, flags and iterations have the same
        bits alone, in the full batch, in a shuffled batch and in uneven
        chunks; "mixed" gives each member its own ridge weight from
        PENALTIES."""
        design, trials, successes, rng = grouped_problems(**case)
        n = len(trials)
        if ridge == "mixed":
            lams = rng.choice(PENALTIES, n)

        def run(idx):
            idx = np.asarray(idx)
            own = design if len(design) == 1 else design[idx]
            lam = lams[idx] if ridge == "mixed" else ridge
            return dense_kernel(own, trials[idx], successes[idx], lam)

        full = run(np.arange(n))
        for i in range(n):
            assert same_bits(run([i]), [part[i:i + 1] for part in full])
        order = rng.permutation(n)
        assert same_bits(run(order), [part[order] for part in full])
        cuts = np.r_[0, np.sort(rng.choice(np.arange(1, n), min(n - 1, 2), replace=False)), n]
        chunks = [run(np.arange(a, b)) for a, b in zip(cuts[:-1], cuts[1:])]
        assert same_bits([np.concatenate(parts) for parts in zip(*chunks)], full)

    @settings(max_examples=60, deadline=None)
    @given(problems, st.sampled_from(PENALTIES + ["mixed"]), st.integers(1, 4))
    def test_bits_depend_on_own_cells_with_trials(self, case, ridge, most):
        """A member's bits depend on its own cells with trials alone: member i
        keeps its first counts[i] cells, and its beta, deviance, flags and
        iterations have the same bits alone, batched with members of other
        cell counts, and with up to `most` zero-trial cells of any values
        inserted among its cells, alone or batched. About half the members
        get a one-class column 1, which the counts flag at lam = 0 whatever
        values the zero-trial cells hold."""
        design, trials, successes, rng = grouped_problems(**case)
        n, m, q = design.shape
        if q > 1:
            caught = rng.random(n) < 0.5
            design[caught, 0, 1] = 0.0
            exposed = caught[:, None] & (design[..., 1] == 1.0)
            successes[exposed] = trials[exposed]
        lams = rng.choice(PENALTIES, n) if ridge == "mixed" else np.full(n, ridge)
        counts = rng.integers(1, m + 1, n)

        def cells(i, padded):
            rows, t, s = design[i, :counts[i]], trials[i, :counts[i]], successes[i, :counts[i]]
            if padded:
                at = rng.integers(0, counts[i] + 1, rng.integers(1, most + 1))
                extra = rng.choice([0.0, 1.0, 2.0, -0.5], (at.size, q))
                rows, t, s = (np.insert(rows, at, extra, axis=0), np.insert(t, at, 0.0),
                              np.insert(s, at, 0.0))
            return rows, t, s

        def run(members, padded):
            parts = [cells(i, padded) for i in members]
            sizes = [len(t) for _, t, _ in parts]
            fits = glm._Fits.from_entries(np.concatenate([rows for rows, _, _ in parts]),
                                          np.repeat(np.arange(len(parts)), sizes),
                                          np.arange(sum(sizes)),
                                          np.concatenate([t for _, t, _ in parts]),
                                          np.concatenate([s for _, _, s in parts]), len(parts))
            return _irls_batch(fits, lams[members])

        alone = [run([i], False) for i in range(n)]
        for padded in (False, True):
            batch = run(np.arange(n), padded)
            for i in range(n):
                assert same_bits([part[i:i + 1] for part in batch], alone[i])
                if padded:
                    assert same_bits(run([i], True), alone[i])

    @settings(max_examples=40, deadline=None)
    @given(problems, st.sampled_from([0.0, "mixed"]))
    def test_refit_has_a_budget_of_its_own(self, case, ridge):
        """A separated member goes on from where its first pass stood, with
        MAX_ITER iterations of its own: once a cap lets the first pass reach
        the separation, a cap that cuts the ridge pass leaves the member
        unconverged after its walk and that cap, and any cap that lets the
        ridge pass finish gives the bits of the uncapped fit, whose
        iterations count both passes."""
        design, trials, successes, rng = grouped_problems(**case)
        lam = rng.choice(PENALTIES, len(trials)) if ridge == "mixed" else ridge
        full = dense_kernel(design, trials, successes, lam)
        separated = np.flatnonzero(full[3])
        total = full[4][separated]
        # A member read from the counts takes no walk; a walked one is first
        # flagged at the cap that equals its walk.
        caught = (glm._one_class_columns(dense_fits(design, trials, successes)).any(axis=1)
                  & (np.asarray(lam) == 0.0))[separated]
        flagged_at = np.zeros(len(separated), dtype=int)
        for cap in range(1, glm.MAX_ITER + 1):
            if flagged_at.all() and cap > total.max(initial=0):
                break
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(glm, "MAX_ITER", cap)
                fits = dense_kernel(design, trials, successes, lam)
            flagged_at[(flagged_at == 0) & fits[3][separated]] = cap
            for i, first, read, its in zip(separated, flagged_at, caught, total):
                if not first:
                    continue
                walk = 0 if read else first
                own = [part[i:i + 1] for part in fits]
                if cap >= its - walk:
                    assert same_bits(own, [part[i:i + 1] for part in full])
                else:
                    assert (own[2][0], own[3][0], own[4][0]) == (False, True, walk + cap)

    @settings(max_examples=60, deadline=None)
    @given(contests, st.sampled_from(PENALTIES), st.integers(0, 6), st.booleans())
    # A quasi-separated fold fit that stops by DEVIANCE_RTOL while its slope
    # still grows: summing its cells in another order moves the CV deviance
    # by about 1e-9.
    @example({"seed": 25740, "n": 208, "p": 2, "prevalence": 0.0625}, 0.0, 1, True)
    def test_cv_deviances_match_scalar_fold_fits(self, case, ridge, size, doubled):
        """cv_deviances is the held-out sum of the one-subset fold_fits over
        n_held, bit for bit, on binary x and on x doubled."""
        x, y, rng = draw(**case)
        if doubled:
            x = 2.0 * x
        plan = rc.make_folds(y, 4, rng)
        table = rc.PatternTable(x, y, plan)
        subsets = np.array(list(combinations(range(x.shape[1]), min(size, x.shape[1]))))
        devs, refit, converged = table.cv_deviances(subsets, ridge)
        assert devs.shape == (len(subsets),)
        assert refit.shape == converged.shape == (len(subsets), plan.n_folds)
        for cols, dev in zip(subsets, devs):
            _, held, _, _ = table.fold_fits([cols], ridge)
            assert dev == sum(held[0].tolist()) / table.n_held
            assert rc.cv_deviance(x, y, cols, plan, ridge) == dev

    @settings(max_examples=30, deadline=None)
    @given(contests, st.sampled_from(PENALTIES), st.integers(1, 4), st.integers(1, 200))
    def test_chunk_boundaries_keep_bits(self, case, ridge, size, elements):
        """With BATCH_ELEMENTS small, every subset's fold fits run in
        smaller chunks and keep their bits."""
        x, y, rng = draw(**case)
        table = rc.PatternTable(x, y, rc.make_folds(y, 4, rng))
        subsets = np.array(list(combinations(range(x.shape[1]), min(size, x.shape[1]))))

        def run():
            return table.cv_deviances(subsets, ridge), table.fold_fits(subsets, ridge)

        (devs, refit, converged), folds = run()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(glm, "BATCH_ELEMENTS", elements)
            (c_devs, c_refit, c_converged), c_folds = run()
        assert devs.tobytes() == c_devs.tobytes()
        assert np.array_equal(refit, c_refit) and np.array_equal(converged, c_converged)
        assert same_bits(c_folds, folds)

    def test_newton_steps_singular_members_keep_solo_bits(self):
        """Members 1 and 4 have exactly singular Newton systems: at lam = 0
        they get zero steps and every member the bits of its solo solve;
        under a ridge the batch raises."""
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 3, 3))
        hess = a @ a.transpose(0, 2, 1) + np.eye(3)
        hess[1] = [[2.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 0.0]]
        hess[4] = [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]
        grad = rng.normal(size=(6, 3))
        steps, singular = _newton_steps(hess, grad, 0.0)
        assert singular.tolist() == [False, True, False, False, True, False]
        assert not steps[singular].any()
        for i in range(6):
            solo_steps, solo_singular = _newton_steps(hess[i:i + 1], grad[i:i + 1], 0.0)
            assert solo_steps.tobytes() == steps[i:i + 1].tobytes()
            assert solo_singular[0] == singular[i]
        with pytest.raises(np.linalg.LinAlgError):
            _newton_steps(hess, grad, 1.0)
        # Per-member weights: a ridge only on regular members changes
        # nothing; a ridge on a singular member raises.
        mixed = np.array([1.0, 0.0, 0.01, 1.0, 0.0, 0.0])
        mixed_steps, mixed_singular = _newton_steps(hess, grad, mixed)
        assert mixed_steps.tobytes() == steps.tobytes()
        assert mixed_singular.tolist() == singular.tolist()
        with pytest.raises(np.linalg.LinAlgError):
            _newton_steps(hess, grad, np.array([0.0, 0.0, 0.0, 0.0, 1.0, 0.0]))

    def test_single_class_training_fold_raises(self):
        """Fold 1 holds every case, so its training counts have none."""
        x, y, _ = draw(seed=3, n=80, p=2, prevalence=0.4)
        labels = np.where(y == 1, 1, 2)
        table = rc.PatternTable(x, y, rc.CvPlan(2, labels))
        with pytest.raises(DegenerateOutcomeError):
            table.cv_deviances(np.array([[0], [1]]))
        with pytest.raises(DegenerateOutcomeError):
            table.fold_fits([[0, 1]])
