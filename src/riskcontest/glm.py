"""Logistic-regression core: IRLS fitting, penalties, CV folds, bootstrap.

Every fit runs on distinct covariate patterns: _pattern_counts collapses the
rows to their distinct values with trial and case counts, and the IRLS fit,
the lasso path, the CV table and the bootstrap work on those counts. Pattern
and row fits agree to a relative 1e-12 in coefficients, deviance, standard
errors and CV deviance, and to about 1e-8 for an ill-conditioned fit refit
with the separation ridge (tests/test_grouped.py). A bootstrap fit equals the
fit of its resampled rows bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateOutcomeError,
    StratificationError,
    UnsupportedFitError,
    ValidationError,
)

# Fixed numerical constants of the IRLS fit.
MAX_ITER = 100
DEVIANCE_RTOL = 1e-10
SEPARATION_BOUND = 15.0
FALLBACK_RIDGE = 1e-6


def expit(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function 1 / (1 + exp(-z))."""
    z = np.asarray(z, dtype=float)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _grouped_deviance(eta: np.ndarray, trials: np.ndarray, successes: np.ndarray) -> float:
    # -2 * log-likelihood of a binomial logit model, binomial constants omitted.
    return 2.0 * float(np.sum(trials * np.logaddexp(0.0, eta) - successes * eta))


def _collapse(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of x and, for every row, the index of its distinct row.

    The distinct rows come sorted with the last column as the primary key.
    """
    n, p = x.shape
    if p == 0:
        return x[:1], np.zeros(n, dtype=np.intp)
    order = np.lexsort(x.T)
    ordered = x[order]
    first = np.empty(n, dtype=bool)
    first[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    inv = np.empty(n, dtype=np.intp)
    inv[order] = np.cumsum(first) - 1
    return ordered[first], inv


def _pattern_counts(x, y):
    """Validate (x, y); return the distinct rows of x, the number of rows and
    of cases on each, and every row's index into the distinct rows."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValidationError("x must be (n, p) with y of length n")
    patterns, inv = _collapse(x)
    trials, cases = _pattern_sums(inv, len(patterns), np.vstack([np.ones(y.size), y]))
    return patterns, trials, cases, inv


def _pattern_sums(inv: np.ndarray, k: int, weights: np.ndarray) -> np.ndarray:
    """(g, k) sums of the (g, n) weights over the rows of each of k patterns."""
    g = weights.shape[0]
    cells = (np.arange(g)[:, None] * k + inv).ravel()
    return np.bincount(cells, weights=weights.ravel(), minlength=g * k).reshape(g, k)


def log_likelihood(x: np.ndarray, y: np.ndarray, coefficients: np.ndarray) -> float:
    """Bernoulli log-likelihood at `coefficients` (intercept first)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eta = coefficients[0] + x @ coefficients[1:]
    return float(np.sum(y * eta - np.logaddexp(0.0, eta)))


def log_likelihood_gradient(x: np.ndarray, y: np.ndarray, coefficients: np.ndarray) -> np.ndarray:
    """Analytic gradient of log_likelihood with respect to all coefficients."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    resid = y - expit(coefficients[0] + x @ coefficients[1:])
    return np.concatenate(([resid.sum()], x.T @ resid))


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty attached to a logistic fit.

    kind is "none" or "ridge" (for the lasso, see fit_lasso_path); lam >= 0 is
    the penalty weight, and lam = 0 is "none". The intercept is unpenalized.
    """

    kind: str = "none"
    lam: float = 0.0

    def __post_init__(self):
        if self.kind not in ("none", "ridge"):
            raise ValidationError(f"unknown penalty kind {self.kind!r}")
        if self.lam < 0:
            raise ValidationError("penalty weight must be non-negative")

    @property
    def ridge_lam(self) -> float:
        """The ridge weight a fit uses: lam for "ridge", 0 for "none"."""
        return self.lam if self.kind == "ridge" else 0.0


NO_PENALTY = PenaltySpec()


@dataclass(frozen=True)
class FitResult:
    """Fitted logistic model.

    coefficients holds the intercept followed by one log odds ratio per
    column of x. std_errors is present only for converged unpenalized fits;
    separation_flag marks fits that were stabilized with a tiny ridge after
    quasi-complete separation or a singular information matrix.
    """

    coefficients: np.ndarray
    std_errors: np.ndarray | None
    deviance: float
    converged: bool
    iterations: int
    separation_flag: bool = False

    @property
    def intercept(self) -> float:
        return float(self.coefficients[0])

    @property
    def slopes(self) -> np.ndarray:
        return self.coefficients[1:]


@dataclass(frozen=True)
class CvPlan:
    """Cross-validation fold assignment: labels 1..n_folds, one per row; a
    row labelled 0 is in no fold, so it is always trained on."""

    n_folds: int
    assignments: np.ndarray


def _irls(xmat, trials, successes, lam, trace=None):
    """Newton/IRLS with step halving on the ridge-penalized deviance.

    xmat includes the intercept column, which the ridge leaves unpenalized.
    An unpenalized fit (lam = 0) that moves any |coefficient| past
    SEPARATION_BOUND or meets a singular Newton system is refit with
    FALLBACK_RIDGE, so every caller gets an estimate.
    Returns (beta, deviance, converged, iterations, separated).
    """
    m, q = xmat.shape
    total = float(trials.sum())
    hits = float(successes.sum())
    if hits <= 0.0 or hits >= total:
        raise DegenerateOutcomeError("outcome vector contains a single class")

    pen = np.ones(q)
    pen[0] = 0.0

    beta = np.zeros(q)
    ybar = hits / total
    beta[0] = math.log(ybar / (1.0 - ybar))
    eta = xmat @ beta
    dev = _grouped_deviance(eta, trials, successes)
    obj = dev + lam * float(np.sum(pen * beta**2))
    if trace is not None:
        trace.append(dev)

    for it in range(1, MAX_ITER + 1):
        p = expit(eta)
        # Clip per trial, so a pattern of t rows weighs what its rows do.
        w = trials * np.maximum(p * (1.0 - p), 1e-10)
        grad = xmat.T @ (successes - trials * p) - lam * pen * beta
        hess = (xmat * w[:, None]).T @ xmat
        if lam:
            hess[np.arange(q), np.arange(q)] += lam * pen
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            if lam:
                raise
            break

        # Step halving: accept the first candidate that does not increase the
        # objective; if even the tiniest step fails we are at the optimum.
        t = 1.0
        for _ in range(30):
            cand = beta + t * step
            eta_c = xmat @ cand
            dev_c = _grouped_deviance(eta_c, trials, successes)
            obj_c = dev_c + lam * float(np.sum(pen * cand**2))
            if obj_c <= obj * (1.0 + 1e-14) + 1e-14:
                break
            t *= 0.5
        else:
            return beta, dev, True, it, False

        if not lam and float(np.max(np.abs(cand))) > SEPARATION_BOUND:
            break

        rel = abs(obj - obj_c) / (abs(obj) + 0.1)
        beta, eta, dev, obj = cand, eta_c, dev_c, obj_c
        if trace is not None:
            trace.append(dev)
        if rel < DEVIANCE_RTOL:
            return beta, dev, True, it, False
    else:
        return beta, dev, False, MAX_ITER, False
    # Separated or singular: only an unpenalized fit breaks out of the loop.
    *fit, _ = _irls(xmat, trials, successes, FALLBACK_RIDGE, trace)
    return (*fit, True)


def fit_logistic(x: np.ndarray, y: np.ndarray, penalty: PenaltySpec = NO_PENALTY) -> FitResult:
    """Maximum-likelihood or ridge logistic regression via IRLS on the
    distinct covariate patterns of x.

    Parameters
    ----------
    x : (n, p) binary design matrix, intercept added internally.
    y : length-n binary outcome; must contain both classes.
    penalty : "none" or "ridge". Ridge adds lam * ||slopes||^2 to the
        deviance objective; the intercept stays unpenalized.

    Quasi-complete separation (any |coefficient| > SEPARATION_BOUND during
    iteration) and singular Newton systems are handled by refitting with a
    tiny ridge; such fits carry separation_flag = True but still report
    standard errors so Wald machinery stays usable.
    """
    patterns, trials, cases, _ = _pattern_counts(x, y)
    return _fit_counts(patterns, trials, cases, penalty)


def _fit_counts(patterns, trials, cases, penalty=NO_PENALTY) -> FitResult:
    """fit_logistic on pattern counts; patterns with no trials are dropped."""
    live = trials > 0
    patterns, trials, cases = patterns[live], trials[live], cases[live]
    n, p = int(trials.sum()), patterns.shape[1]
    if n <= p:
        raise ValidationError(f"need more rows than columns (n={n}, p={p})")
    xmat = np.column_stack([np.ones(len(patterns)), patterns])
    beta, dev, conv, it, separated = _irls(xmat, trials, cases, penalty.ridge_lam)

    std = None
    if penalty.kind == "none" and conv:
        prob = expit(xmat @ beta)
        w = trials * np.maximum(prob * (1.0 - prob), 1e-10)
        info = (xmat * w[:, None]).T @ xmat
        if separated:
            # Same stabilization that produced the estimate.
            idx = np.arange(1, p + 1)
            info[idx, idx] += FALLBACK_RIDGE
        try:
            std = np.sqrt(np.diag(np.linalg.inv(info)))
        except np.linalg.LinAlgError:
            std = None

    return FitResult(beta, std, dev, conv, it, separated)


def wald_pvalues(fit: FitResult) -> np.ndarray:
    """Two-sided Wald p-values for the slope coefficients of a fit."""
    if fit.std_errors is None:
        raise UnsupportedFitError("fit has no standard errors (penalized or unconverged)")
    z = fit.slopes / fit.std_errors[1:]
    root2 = math.sqrt(2.0)
    return np.array([math.erfc(abs(v) / root2) for v in z])


def make_folds(y: np.ndarray, n_folds: int, rng: np.random.Generator) -> CvPlan:
    """Stratified fold assignment: each class shuffled, then dealt round-robin."""
    y = np.asarray(y)
    if n_folds < 2:
        raise ValidationError("need at least 2 folds")
    labels = np.empty(y.shape[0], dtype=np.int64)
    for cls in (1, 0):
        idx = np.flatnonzero(y == cls)
        if idx.size < n_folds:
            raise StratificationError(
                f"class {cls} has {idx.size} members, fewer than {n_folds} folds")
        shuffled = rng.permutation(idx)
        labels[shuffled] = np.arange(shuffled.size) % n_folds + 1
    return CvPlan(n_folds, labels)


class PatternTable:
    """Trial and case counts of the distinct covariate patterns of (x, y), in
    all rows and in the held-out rows of every fold of a CvPlan, built once
    to score many column subsets. Rows labelled 0 are never held out.

    fold_deviances projects the patterns onto a subset's columns and fits
    every fold's training counts, all rows minus the held-out ones;
    lasso_cv_deviance fits every fold's path.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, plan: CvPlan):
        self.patterns, trials, cases, inv = _pattern_counts(x, y)
        if plan.assignments.shape != inv.shape:
            raise ValidationError("x must be (n, p) with y and the folds of length n")
        held = plan.assignments == np.arange(1, plan.n_folds + 1)[:, None]
        # Rows 0 and 1: all trials and cases; then F rows of held-out trials
        # per fold and F of held-out cases.
        self.counts = np.vstack([trials, cases, _pattern_sums(
            inv, len(self.patterns), np.vstack([held, held * y]))])
        self.n_held = int(held.sum())
        self.min_train = inv.size - int(held.sum(axis=1).max())

    def fold_deviances(self, cols, penalty: PenaltySpec = NO_PENALTY) -> list[tuple[float, float]]:
        """(training deviance, held-out deviance) per fold of the model on the
        columns `cols`, in the order given, fit on the fold's training counts."""
        if self.min_train <= len(cols):
            raise ValidationError(
                f"need more rows than columns (n={self.min_train}, p={len(cols)})")
        sub, inv = _collapse(self.patterns[:, cols])
        design = np.column_stack([np.ones(len(sub)), sub])
        all_n, all_c, *held = _pattern_sums(inv, len(sub), self.counts)
        folds = []
        for n_te, c_te in zip(held[:len(held) // 2], held[len(held) // 2:]):
            live = all_n > n_te
            beta, dev, *_ = _irls(design[live], (all_n - n_te)[live],
                                  (all_c - c_te)[live], penalty.ridge_lam)
            folds.append((dev, _grouped_deviance(design @ beta, n_te, c_te)))
        return folds

    def cv_deviance(self, subset, penalty: PenaltySpec = NO_PENALTY) -> float:
        """cv_deviance(x, y, subset, plan, penalty) on this table's x, y and plan."""
        return sum(held for _, held in self.fold_deviances(sorted(subset), penalty)) / self.n_held

    def lasso_cv_deviance(self, grid) -> np.ndarray:
        """(n_folds, len(grid)) held-out deviance per held-out row of the
        lasso path on all columns, fit on every fold's complement."""
        all_n, all_c = self.counts[:2]
        held_n, held_c = np.split(self.counts[2:], 2)
        curve = np.empty((len(held_n), len(grid)))
        for f, (n_te, c_te) in enumerate(zip(held_n, held_c)):
            n_tr, c_tr = all_n - n_te, all_c - c_te
            live = n_tr > 0
            path = _lasso_path(self.patterns[live], n_tr[live], c_tr[live], grid)
            curve[f] = [_grouped_deviance(fit.intercept + self.patterns @ fit.slopes,
                                          n_te, c_te) for fit in path]
        return curve / held_n.sum(axis=1)[:, None]


def cv_deviance(x: np.ndarray, y: np.ndarray, subset, plan: CvPlan,
                penalty: PenaltySpec = NO_PENALTY) -> float:
    """Mean held-out deviance of the model on the given columns of x.

    For every fold the model is fit on the complement and -2 log-likelihood
    is accumulated on the held-out rows; the total is divided by the number
    of held-out rows, n for a make_folds plan. `subset`
    holds 0-based column indices; an empty subset fits the intercept alone.
    To score many subsets on one plan, build a PatternTable once.
    """
    return PatternTable(x, y, plan).cv_deviance(subset, penalty)


def bootstrap_resample(n: int, rng: np.random.Generator) -> np.ndarray:
    """n row indices drawn uniformly with replacement (0-based)."""
    if n < 1:
        raise ValidationError("resample size must be positive")
    return rng.integers(0, n, size=n)


def bootstrap_fits(x: np.ndarray, y: np.ndarray, n_resamples: int,
                   rng: np.random.Generator) -> list[FitResult]:
    """fit_logistic(x[idx], y[idx]) for each of n_resamples draws of
    idx = bootstrap_resample(len(y), rng), from one collapse of the rows."""
    patterns, _, _, inv = _pattern_counts(x, y)
    y, k = np.asarray(y, dtype=float), len(patterns)
    resamples = (bootstrap_resample(y.size, rng) for _ in range(n_resamples))
    return [_fit_counts(patterns, np.bincount(inv[idx], minlength=k),
                        np.bincount(inv[idx], weights=y[idx], minlength=k))
            for idx in resamples]


# ---------------------------------------------------------------------------
# Lasso path: cyclic coordinate descent on the quadratic approximation with
# warm starts, glmnet-style. Columns are standardized internally and the
# coefficients reported back on the original 0/1 scale.
# ---------------------------------------------------------------------------

KKT_TOL = 1e-7
LASSO_MAX_OUTER = 250


def _standardize(patterns, trials):
    # Mean and standard deviation over the rows the trial counts stand for.
    n = trials.sum()
    mean = trials @ patterns / n
    scale = np.sqrt(trials @ (patterns - mean) ** 2 / n)
    scale = np.where(scale == 0.0, 1.0, scale)
    return (patterns - mean) / scale, mean, scale


def lasso_lambda_max(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty for which the lasso keeps every slope at zero.

    From the stationarity condition at the intercept-only model:
    max_j |x~_j' (y - ybar)| / n over standardized columns x~.
    """
    patterns, trials, cases, _ = _pattern_counts(x, y)
    xs, _, _ = _standardize(patterns, trials)
    n = trials.sum()
    return float(np.max(np.abs(xs.T @ (cases - trials * (cases.sum() / n))))) / n


def default_lambda_grid(x: np.ndarray, y: np.ndarray, n_lambdas: int = 50,
                        min_ratio: float = 1e-3) -> np.ndarray:
    """Log-spaced grid from lambda_max down to lambda_max * min_ratio."""
    lmax = lasso_lambda_max(x, y)
    if lmax == 0.0:
        raise ValidationError("lasso lambda_max is 0: no column of x varies with y")
    return np.geomspace(lmax, lmax * min_ratio, n_lambdas)


def _lasso_cd(xs, trials, cases, lam, b0, beta, kkt_tol):
    """Solve one lasso problem at penalty lam, warm-started at (b0, beta).

    Objective: (1/n) sum[-c*eta + t*log(1+exp(eta))] + lam * ||beta||_1 over
    standardized patterns with t trials and c cases each, n trials in all.
    The outer loop re-quadratizes with observation weights t*p(1-p);
    convergence is checked on the exact subgradient conditions.
    """
    n, p = trials.sum(), xs.shape[1]
    for outer in range(1, LASSO_MAX_OUTER + 1):
        eta = b0 + xs @ beta
        prob = expit(eta)
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
    return b0, beta, False, LASSO_MAX_OUTER


def fit_lasso_path(x: np.ndarray, y: np.ndarray, lambda_grid=None, *,
                   kkt_tol: float = KKT_TOL) -> list[FitResult]:
    """Lasso solutions along a decreasing penalty grid, warm-started.

    Returns one FitResult per grid point with coefficients on the original
    0/1 scale. Every solution satisfies the subgradient optimality
    conditions of the standardized problem within kkt_tol.
    """
    patterns, trials, cases, _ = _pattern_counts(x, y)
    if not 0.0 < cases.sum() < trials.sum():
        raise DegenerateOutcomeError("outcome vector contains a single class")
    grid = default_lambda_grid(x, y) if lambda_grid is None else lambda_grid
    return _lasso_path(patterns, trials, cases, grid, kkt_tol)


def _lasso_path(patterns, trials, cases, lambda_grid, kkt_tol=KKT_TOL):
    """fit_lasso_path on pattern counts, every one with at least one trial."""
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size == 0 or np.any(grid < 0) or np.any(np.diff(grid) >= 0):
        raise ValidationError("lambda grid must be strictly decreasing and non-negative")

    xs, mean, scale = _standardize(patterns, trials)
    ybar = float(cases.sum() / trials.sum())
    b0 = math.log(ybar / (1.0 - ybar))
    beta = np.zeros(patterns.shape[1])

    results = []
    for lam in grid:
        b0, beta, conv, iters = _lasso_cd(xs, trials, cases, float(lam), b0, beta, kkt_tol)
        slopes = beta / scale
        intercept = b0 - float(np.sum(beta * mean / scale))
        coef = np.concatenate(([intercept], slopes))
        dev = _grouped_deviance(intercept + patterns @ slopes, trials, cases)
        results.append(FitResult(coef, None, dev, conv, iters))
    return results
