"""Logistic-regression core: IRLS fitting, penalties, CV folds, bootstrap.

Every fit runs on distinct covariate patterns: _pattern_counts collapses the
rows to their distinct values with trial and case counts, and the IRLS fit,
the lasso path, the CV table and the bootstrap work on those counts. Pattern
and row fits agree to a relative 1e-12 in coefficients, deviance, standard
errors and CV deviance, and to about 1e-8 for an ill-conditioned fit refit
with the separation ridge (tests/test_grouped.py).

Every IRLS fit runs on one batched kernel, _irls_batch: Newton/IRLS with
step halving on M grouped-binomial problems at once, each with its own ridge
weight, which the kernel carries as data and never branches on. Its sums run
through np.einsum and .sum(axis=...), never matmul, so a member's result has
the same bits whatever the batch size, the member's place in it or the chunk
boundaries. _fit_members takes the fits as (member, cell) entries and runs
the members with the same number of cells as one batch. fit_logistic is a
batch of one and bootstrap_fits fits all its resamples at once, each keeping
exactly its patterns with trials.

PatternTable.fold_fits is the one cross-validation routine: team_a's
holdout steps, team_c's exhaustive search, the ridge CV curve and cv_deviance
all read it. A ridge weight is a plain number, one for all subsets or one
per subset, so the ridge CV curve's penalties run as one batch; _fit_members
rejects any weight that is not finite and >= 0. fold_fits projects the
table's patterns onto each subset's columns and collapses them as _collapse
would, so fold fit (subset, fold) keeps exactly the subset's cells with
training trials, in _collapse order. A fold's training deviance therefore
equals the fit_logistic fit of its training rows bit for bit, its held-out
deviance is summed cell by cell, and cv_deviances is the held-out sum of
fold_fits over n_held, bit for bit.

_lasso_path fits M lasso paths over one (k, p) pattern matrix at once, one
member per row of (M, k) trial and case counts; PatternTable.lasso_cv_deviance
runs every fold's training counts and the all-rows counts as one batch, and
fit_lasso_path is a batch of one. Each member keeps every rule of glmnet-style
coordinate descent on its own: its own weighted standardization, the log-odds
start, the 1e-10 weight clip, the KKT check at kkt_tol, LASSO_MAX_OUTER outer
iterations, up to LASSO_MAX_SWEEPS sweeps that end when nothing moved by
LASSO_SWEEP_TOL, the skip of a column constant over its trials and the
intercept shift. A member that is done stops changing, so it runs exactly the
iterations it would run alone, and the Python loop runs once per coordinate
per sweep for the whole batch. A pattern with no trials in a member has zero
weight and zero working residual, so it adds exactly nothing to that member's
sums. The kernel sums with np.einsum and .sum(axis=...), so a member's
coefficients, deviance, converged flag and iterations have the same bits
whatever the batch size or the member's place in it. The paths agree with the
one-path scalar descent they replaced to 1e-12 relative (tests/test_lasso.py).
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
# (fold fit, pattern) pairs in one chunk of PatternTable.fold_fits; a fold
# fit has at most one cell per pattern.
BATCH_ELEMENTS = 100_000


def expit(z: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function 1 / (1 + exp(-z))."""
    z = np.asarray(z, dtype=float)
    ez = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + ez), ez / (1.0 + ez))


def _deviances(eta, trials, successes):
    # -2 * log-likelihood of binomial logit models over the last axis,
    # binomial constants omitted.
    return 2.0 * (trials * np.logaddexp(0.0, eta) - successes * eta).sum(axis=-1)


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


def _log_odds(trials, cases):
    """Every member's log odds of a case, from its (M, k) trial and case
    counts; DegenerateOutcomeError if a member has a single class."""
    total, hits = trials.sum(axis=1), cases.sum(axis=1)
    if np.any((hits <= 0.0) | (hits >= total)):
        raise DegenerateOutcomeError("outcome vector contains a single class")
    return np.array([math.log(odds) for odds in (hits / total) / (1.0 - hits / total)])


def _newton_steps(hess, grad, lam):
    """Solve every member's Newton system, with lam a scalar or one ridge
    weight per member. A singular member with lam = 0 gets a zero step and a
    True in the returned mask; one with lam > 0 raises LinAlgError."""
    try:
        return np.linalg.solve(hess, grad[..., None])[..., 0], np.zeros(len(grad), dtype=bool)
    except np.linalg.LinAlgError:
        # Sign 0 marks a zero LU pivot, the condition on which solve raises.
        singular = np.linalg.slogdet(hess)[0] == 0.0
        if np.any(singular & (lam > 0)):
            raise
    steps = np.zeros_like(grad)
    steps[~singular] = np.linalg.solve(hess[~singular], grad[~singular, :, None])[..., 0]
    return steps, singular


def _irls_batch(design, trials, successes, lam):
    """Newton/IRLS with step halving on the ridge-penalized deviance of M
    grouped-binomial problems at once, each with its own ridge weight.

    design is (M, m, q), intercept column first, which the ridge leaves
    unpenalized; trials and successes are (M, m), and a cell may have no
    trials; lam is a scalar or one weight per member. Each member starts at
    its log-odds intercept, clips its weights per trial, takes the first of
    30 halved Newton steps that does not raise its objective (none: it is at
    its optimum) and converges when the objective moves by less than
    DEVIANCE_RTOL relative. A member with lam = 0 that moves any
    |coefficient| past SEPARATION_BOUND or meets a singular Newton system is
    refit with FALLBACK_RIDGE, so every member gets an estimate; a singular
    system under lam > 0 raises LinAlgError. A member leaves the batch when
    it finishes. Returns beta (M, q), deviance (M,), converged (M,),
    separated (M,) and iterations (M,): the refit's for a separated member,
    MAX_ITER for one that did not converge.
    """
    n_members, q = len(trials), design.shape[-1]
    pen = np.ones(q)
    pen[0] = 0.0
    diag = np.arange(q)
    lam = np.broadcast_to(lam, n_members)
    ridge = lam[:, None] * pen

    def score(xt, beta, t, c, lam):
        # Linear predictor, deviance and penalized objective at beta.
        eta = np.einsum("...qk,...q->...k", xt, beta)
        dev = _deviances(eta, t, c)
        return eta, dev, dev + lam * np.einsum("q,mq,mq->m", pen, beta, beta)

    def accepted(obj_c, obj):
        return obj_c <= obj * (1.0 + 1e-14) + 1e-14

    out_beta = np.zeros((n_members, q))
    out_dev = np.empty(n_members)
    converged = np.zeros(n_members, dtype=bool)
    separated = np.zeros(n_members, dtype=bool)
    iterations = np.full(n_members, MAX_ITER)
    # The design is kept as (M, q, m), so every sum runs over cells.
    xt = np.ascontiguousarray(design.transpose(0, 2, 1))
    live, t, c = np.arange(n_members), trials, successes
    beta = out_beta.copy()
    beta[:, 0] = _log_odds(trials, successes)
    eta, dev, obj = score(xt, beta, t, c, lam)

    for it in range(1, MAX_ITER + 1):
        p = expit(eta)
        w = t * np.maximum(p * (1.0 - p), 1e-10)
        grad = np.einsum("...k,...qk->...q", c - t * p, xt)
        hess = np.einsum("...ak,...bk->...ab", xt * w[:, None], xt)
        grad -= ridge * beta
        hess[:, diag, diag] += ridge
        step, singular = _newton_steps(hess, grad, lam)

        # Step halving: the full step for every member, then halved steps
        # where the objective rose. Members whose every candidate fails are
        # at their optimum.
        cand = beta + step
        eta_c, dev_c, obj_c = score(xt, cand, t, c, lam)
        halving = np.flatnonzero(~singular & ~accepted(obj_c, obj))
        for j in range(1, 30):
            if not halving.size:
                break
            b = beta[halving] + 0.5**j * step[halving]
            e, d, o = score(xt[halving], b, t[halving], c[halving], lam[halving])
            ok = accepted(o, obj[halving])
            took = halving[ok]
            cand[took], eta_c[took], dev_c[took], obj_c[took] = b[ok], e[ok], d[ok], o[ok]
            halving = halving[~ok]
        optimal = np.zeros(len(live), dtype=bool)
        optimal[halving] = True

        moved = ~(singular | optimal)
        refit = singular | (moved & (lam == 0) & (np.abs(cand).max(axis=1) > SEPARATION_BOUND))
        moved &= ~refit
        rel = np.abs(obj - obj_c) / (np.abs(obj) + 0.1)
        beta = np.where(moved[:, None], cand, beta)
        eta = np.where(moved[:, None], eta_c, eta)
        dev, obj = np.where(moved, dev_c, dev), np.where(moved, obj_c, obj)

        done = optimal | (moved & (rel < DEVIANCE_RTOL))
        finished = done | refit
        if finished.any():
            converged[live[done]] = True
            separated[live[refit]] = True
            iterations[live[finished]] = it
            out_beta[live[finished]], out_dev[live[finished]] = beta[finished], dev[finished]
            keep = ~finished
            live, beta, eta, dev, obj = live[keep], beta[keep], eta[keep], dev[keep], obj[keep]
            xt, t, c, lam, ridge = xt[keep], t[keep], c[keep], lam[keep], ridge[keep]
            if not live.size:
                break
    out_beta[live], out_dev[live] = beta, dev

    if separated.any():
        redo = np.flatnonzero(separated)
        out_beta[redo], out_dev[redo], converged[redo], _, iterations[redo] = _irls_batch(
            design[redo], trials[redo], successes[redo], FALLBACK_RIDGE)
    return out_beta, out_dev, converged, separated, iterations


def fit_logistic(x: np.ndarray, y: np.ndarray, ridge: float = 0.0) -> FitResult:
    """Maximum-likelihood or ridge logistic regression via IRLS on the
    distinct covariate patterns of x.

    Parameters
    ----------
    x : (n, p) binary design matrix, intercept added internally.
    y : length-n binary outcome; must contain both classes.
    ridge : finite weight >= 0; adds ridge * ||slopes||^2 to the deviance
        objective, and the intercept stays unpenalized. A fit with ridge 0
        that converged reports standard errors.

    Quasi-complete separation (any |coefficient| > SEPARATION_BOUND during
    iteration) and singular Newton systems are handled by refitting with a
    tiny ridge; such fits carry separation_flag = True but still report
    standard errors so Wald machinery stays usable.
    """
    patterns, trials, cases, _ = _pattern_counts(x, y)
    return _fit_counts(patterns, trials[None], cases[None], ridge)[0]


def _fit_members(design, member, cell, trials, successes, n_members, lam):
    """_irls_batch on n_members problems given entry by entry: entry e puts
    trials[e] and successes[e] on row cell[e] of the (cells, q) design in
    member member[e], the entries sorted by member, then by cell, and lam is
    one ridge weight or one per member; ValidationError unless every weight
    is finite and >= 0. The members with the same number of entries run as
    one batch. Returns beta (M, q), deviance (M,), converged (M,), separated
    (M,) and iterations (M,)."""
    lam = np.broadcast_to(np.asarray(lam, dtype=float), n_members)
    if not np.all(np.isfinite(lam) & (lam >= 0.0)):
        raise ValidationError("a ridge weight must be finite and non-negative")
    sizes = np.bincount(member, minlength=n_members)
    starts = np.cumsum(sizes) - sizes
    fits = (np.empty((n_members, design.shape[1])), np.empty(n_members),
            np.empty(n_members, dtype=bool), np.empty(n_members, dtype=bool),
            np.empty(n_members, dtype=int))
    for m in np.flatnonzero(np.bincount(sizes)):
        group = np.flatnonzero(sizes == m)
        idx = starts[group, None] + np.arange(m)
        for out, part in zip(fits, _irls_batch(design[cell[idx]], trials[idx],
                                               successes[idx], lam[group])):
            out[group] = part
    return fits


def _fit_counts(patterns, trials, cases, ridge=0.0) -> list[FitResult]:
    """fit_logistic on each row of (M, k) trial and case counts over the k
    patterns; each fit drops the patterns it has no trials on."""
    n, p = trials.sum(axis=1), patterns.shape[1]
    if np.any(n <= p):
        raise ValidationError(f"need more rows than columns (n={int(n.min())}, p={p})")
    design = np.column_stack([np.ones(len(patterns)), patterns])
    member, cell = np.nonzero(trials)
    fits = _fit_members(design, member, cell, trials[member, cell], cases[member, cell],
                        len(trials), ridge)
    results = []
    for t, (beta, dev, conv, separated, it) in zip(trials, zip(*fits)):
        std = None
        if ridge == 0.0 and conv:
            xmat, t = design[t > 0], t[t > 0]
            prob = expit(xmat @ beta)
            w = t * np.maximum(prob * (1.0 - prob), 1e-10)
            info = (xmat * w[:, None]).T @ xmat
            if separated:
                # Same stabilization that produced the estimate.
                idx = np.arange(1, p + 1)
                info[idx, idx] += FALLBACK_RIDGE
            try:
                std = np.sqrt(np.diag(np.linalg.inv(info)))
            except np.linalg.LinAlgError:
                std = None
        results.append(FitResult(beta, std, float(dev), bool(conv), int(it), bool(separated)))
    return results


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

    fold_fits projects the patterns onto each subset's columns and fits
    every fold's training counts, all rows minus the held-out ones, in
    batched runs, and cv_deviances sums its held-out deviances;
    lasso_cv_deviance fits every fold's path.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, plan: CvPlan):
        self.patterns, trials, cases, inv = _pattern_counts(x, y)
        if plan.assignments.shape != inv.shape:
            raise ValidationError("x must be (n, p) with y and the folds of length n")
        f, k = plan.n_folds, len(self.patterns)
        if np.any((plan.assignments < 0) | (plan.assignments > f)):
            raise ValidationError(f"fold labels must lie in 0..{f}")
        # Cell (fold, pattern) of every row; the cells of label 0 are dropped.
        cells = plan.assignments * k + inv
        held_n = np.bincount(cells, minlength=(f + 1) * k)[k:].reshape(f, k)
        held_c = np.bincount(cells, weights=y, minlength=(f + 1) * k)[k:].reshape(f, k)
        # Rows 0 and 1: all trials and cases; then F rows of held-out trials
        # per fold and F of held-out cases.
        self.counts = np.vstack([trials, cases, held_n, held_c])
        self.n_folds, self.n_held = f, int(held_n.sum())
        self.min_train = inv.size - int(held_n.sum(axis=1).max())
        # Each column's values as dense ranks: _project's compact sort keys.
        self.ranks = np.array([_collapse(col[:, None])[1] for col in self.patterns.T],
                              np.min_scalar_type(k)).reshape(-1, k)

    def _columns(self, subsets) -> np.ndarray:
        """subsets as an (M, s) array whose rows are s distinct columns of x,
        with more training rows than columns in every fold."""
        cols = np.asarray(subsets)
        if cols.size == 0:
            cols = cols.astype(np.intp)
        if cols.ndim != 2 or not len(cols) or cols.dtype.kind not in "iu":
            raise ValidationError("column subsets must be rows of integer indices")
        d, s = self.patterns.shape[1], cols.shape[1]
        if np.any((cols < 0) | (cols >= d)):
            raise ValidationError(f"column indices must lie in 0..{d - 1}")
        ordered = np.sort(cols, axis=1)
        if np.any(ordered[:, 1:] == ordered[:, :-1]):
            raise ValidationError("a column subset repeats an index")
        if self.min_train <= s:
            raise ValidationError(f"need more rows than columns (n={self.min_train}, p={s})")
        return cols

    def fold_fits(self, subsets, ridge=0.0):
        """Fit every fold of every row of an (M, s) array of column subsets,
        its columns in the order given, on the fold's training counts, with
        one ridge weight or one per row, in chunks of about BATCH_ELEMENTS
        fold fit x pattern pairs. Returns (M, n_folds) arrays: the training
        deviance, the held-out deviance, the mask of fits refit with
        FALLBACK_RIDGE and the mask of fits that converged."""
        subsets = self._columns(subsets)
        lam = np.asarray(ridge, dtype=float)
        if lam.ndim > 1 or lam.size not in (1, len(subsets)):
            raise ValidationError(f"need one ridge weight or one per subset row "
                                  f"({len(subsets)}), not {lam.size}")
        lam = np.broadcast_to(lam, len(subsets))
        chunk = max(1, BATCH_ELEMENTS // (self.n_folds * len(self.patterns)))
        parts = [self._fit_chunk(subsets[rows], lam[rows])
                 for rows in np.array_split(np.arange(len(subsets)), -(-len(subsets) // chunk))]
        return tuple(np.concatenate(part) for part in zip(*parts))

    def cv_deviances(self, subsets, ridge=0.0):
        """cv_deviance of every row of an (M, s) array of column subsets,
        with one ridge weight or one per row.

        Returns the M deviances and fold_fits' two (M, n_folds) masks: the
        fold fits refit with FALLBACK_RIDGE, and those that converged.
        """
        if not self.n_held:
            raise ValidationError("the plan holds out no row")
        _, held, refit, converged = self.fold_fits(subsets, ridge)
        # Summed fold by fold, so a deviance equals sum(held[i]) / n_held.
        return sum(held.T) / self.n_held, refit, converged

    def _project(self, subsets):
        """The patterns of every row of an (M, s) array of column subsets,
        projected onto its columns and collapsed as _collapse does: sorted
        with the subset's last column as the primary key. Returns the design
        of the distinct rows, subset after subset, with an intercept column,
        each row's subset and the (2 + 2 n_folds, rows) counts."""
        (n_sub, s), k = subsets.shape, len(self.patterns)
        keys = self.ranks[subsets.T]  # (s, n_sub, k)
        order = (np.lexsort(keys, axis=-1) if s
                 else np.broadcast_to(np.arange(k), (n_sub, k)))
        keys = np.take_along_axis(keys, order[None], axis=2)
        first = np.ones((n_sub, k), dtype=bool)
        np.any(keys[:, :, 1:] != keys[:, :, :-1], axis=0, out=first[:, 1:])
        starts = np.flatnonzero(first)
        owner = starts // k
        order = order.ravel()
        design = np.column_stack([np.ones(len(starts)),
                                  self.patterns[order[starts, None], subsets[owner]]])
        counts = np.add.reduceat(self.counts[:, order], starts, axis=1)
        return design, owner, counts

    def _fit_chunk(self, subsets, lam):
        n_sub, f = len(subsets), self.n_folds
        design, owner, counts = self._project(subsets)
        held_n, held_c = counts[2:2 + f], counts[2 + f:]
        train_n, train_c = counts[0] - held_n, counts[1] - held_c

        # Fold fit (i, fold) is member fold * n_sub + i; it keeps exactly the
        # cells of subset i with training trials, in cell order.
        fold, cell = np.nonzero(train_n)
        beta, train_dev, converged, separated, _ = _fit_members(
            design, fold * n_sub + owner[cell], cell, train_n[fold, cell], train_c[fold, cell],
            n_sub * f, np.tile(lam, f))

        # Held-out deviance, summed per member in cell order.
        fold, cell = np.nonzero(held_n)
        member = fold * n_sub + owner[cell]
        eta = np.einsum("eq,eq->e", design[cell], beta[member])
        terms = held_n[fold, cell] * np.logaddexp(0.0, eta) - held_c[fold, cell] * eta
        held_dev = 2.0 * np.bincount(member, terms, n_sub * f)
        return tuple(a.reshape(f, n_sub).T for a in (train_dev, held_dev, separated, converged))

    def lasso_cv_deviance(self, grid):
        """Lasso paths on all columns, fit on every fold's complement and on
        all rows as one batch of n_folds + 1 members.

        Returns the (n_folds, len(grid)) held-out deviance per held-out row
        of every fold's path, the all-rows path as one FitResult per
        penalty, and the (n_folds + 1, len(grid)) converged mask, the
        all-rows path last.
        """
        all_n, all_c = self.counts[:2]
        held_n, held_c = np.split(self.counts[2:], 2)
        held_rows = held_n.sum(axis=1)
        for f, rows in enumerate(held_rows, start=1):
            if rows == 0:
                raise ValidationError(f"fold {f} holds out no row")
            if rows == all_n.sum():
                raise ValidationError(f"fold {f} leaves no training row")
        paths = _lasso_path(self.patterns, np.vstack([all_n - held_n, all_n]),
                            np.vstack([all_c - held_c, all_c]), grid)
        coef = paths[0][:-1]
        eta = coef[..., :1] + np.einsum("kp,flp->flk", self.patterns, coef[..., 1:])
        curve = _deviances(eta, held_n[:, None], held_c[:, None])
        return curve / held_rows[:, None], _path_fits(paths, -1), paths[2]


def cv_deviance(x: np.ndarray, y: np.ndarray, subset, plan: CvPlan,
                ridge: float = 0.0) -> float:
    """Mean held-out deviance of the model on the given columns of x.

    For every fold the model, with the ridge weight on its slopes, is fit on
    the complement and -2 log-likelihood is accumulated on the held-out
    rows; the total is divided by the number of held-out rows, n for a
    make_folds plan. `subset` holds 0-based column indices; an empty subset
    fits the intercept alone.
    To score many subsets on one plan, build a PatternTable once.
    """
    return float(PatternTable(x, y, plan).cv_deviances([sorted(subset)], ridge)[0][0])


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
    # Only the (M, 2, k) counts are kept, not the M index arrays.
    counts = np.array([(np.bincount(inv[idx], minlength=k),
                        np.bincount(inv[idx], weights=y[idx], minlength=k))
                       for idx in resamples]).reshape(n_resamples, 2, k)
    return _fit_counts(patterns, counts[:, 0], counts[:, 1])


# ---------------------------------------------------------------------------
# Lasso path: cyclic coordinate descent on the quadratic approximation with
# warm starts, glmnet-style (Friedman, Hastie & Tibshirani 2010, JSS 33(1)).
# Columns are standardized internally and the coefficients reported back on
# the original 0/1 scale. _lasso_path runs M paths over one pattern matrix
# at once: each coordinate update acts on every member still sweeping.
# ---------------------------------------------------------------------------

KKT_TOL = 1e-7
LASSO_MAX_OUTER = 250
LASSO_MAX_SWEEPS = 1000
LASSO_SWEEP_TOL = 1e-10


def _standardize(patterns, trials):
    # Mean and standard deviation over the rows the trial counts stand for,
    # per row of trials (..., k); standardized patterns are (..., k, p).
    n = trials.sum(axis=-1)[..., None]
    mean = np.einsum("...k,kp->...p", trials, patterns) / n
    centered = patterns - mean[..., None, :]
    scale = np.sqrt(np.einsum("...k,...kp->...p", trials, centered**2) / n)
    scale = np.where(scale == 0.0, 1.0, scale)
    return centered / scale[..., None, :], mean, scale


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


def _lasso_cd(xs, trials, cases, n, lam, b0, beta, kkt_tol):
    """Solve M lasso problems at penalty lam, warm-started at (b0, beta).

    Member i's objective: (1/n_i) sum[-c*eta + t*log(1+exp(eta))]
    + lam * ||beta_i||_1 over its standardized patterns xs[:, i] (p, M, k),
    with t trials and c cases per pattern, n_i trials in all. The outer loop
    re-quadratizes with observation weights t*p(1-p); a member stops when
    its exact subgradient conditions hold within kkt_tol, and its inner
    sweeps stop when no coefficient moved by LASSO_SWEEP_TOL. b0 (M,) and
    beta (p, M) are updated in place. Returns converged (M,) and the outer
    iterations (M,).
    """
    n_members = len(n)
    converged = np.zeros(n_members, dtype=bool)
    iterations = np.full(n_members, LASSO_MAX_OUTER)
    live = np.arange(n_members)
    for outer in range(1, LASSO_MAX_OUTER + 1):
        x, t, c, m, b, b_0 = xs[:, live], trials[live], cases[live], n[live], beta[:, live], b0[live]
        prob = expit(b_0[:, None] + np.einsum("pik,pi->ik", x, b))
        resid = t * prob - c
        g = np.einsum("pik,ik->pi", x, resid) / m
        viol = np.where(b != 0.0, np.abs(g + lam * np.sign(b)), np.abs(g) - lam)
        met = np.maximum(np.abs(resid.sum(axis=1)) / m, viol.max(axis=0, initial=0.0)) <= kkt_tol
        converged[live[met]], iterations[live[met]] = True, outer
        if met.all():
            break
        go = ~met
        live, x, t, m, b, b_0 = live[go], x[:, go], t[go], m[go], b[:, go], b_0[go]
        prob, resid = prob[go], resid[go]

        w = t * np.maximum(prob * (1.0 - prob), 1e-10)
        # A pattern with no trials has w = 0 and r = -0, so it adds nothing.
        r = -resid / np.where(t > 0.0, w, 1.0)
        wx = x * w
        wx2 = np.einsum("pik,pik->pi", wx, x) / m
        # A coordinate with wx2 = 0 is constant over the member's trials and
        # stays at 0: dividing by inf keeps every update of it at 0.
        wx2_div = np.where(wx2 == 0.0, np.inf, wx2)
        b_0, b = _lasso_sweeps(x, wx, w, r, m, wx2, wx2_div, lam, b_0, b)
        b0[live], beta[:, live] = b_0, b
    return converged, iterations


def _lasso_sweeps(x, wx, w, r, n, wx2, wx2_div, lam, b0, beta):
    """Cyclic coordinate sweeps on the members' weighted least-squares
    problems, at most LASSO_MAX_SWEEPS each; a member leaves once no
    coordinate or intercept moved by LASSO_SWEEP_TOL in a sweep. Returns
    the updated (b0, beta)."""
    out_b0, out_beta = np.empty_like(b0), np.empty_like(beta)
    sweeping = np.arange(len(n))
    wsum = w.sum(axis=1)
    einsum, maximum, minimum = np.einsum, np.maximum, np.minimum
    for _ in range(LASSO_MAX_SWEEPS):
        start = beta.copy()
        for j, (x_j, wx_j, wx2_j, div_j) in enumerate(zip(x, wx, wx2, wx2_div)):
            old = beta[j]
            rho = einsum("ik,ik->i", wx_j, r) / n + wx2_j * old
            new = (rho - minimum(maximum(rho, -lam), lam)) / div_j
            # An unmoved coordinate subtracts zeros from r.
            r -= (new - old)[:, None] * x_j
            beta[j] = new
        shift = einsum("ik,ik->i", w, r) / wsum
        b0 += shift
        r -= shift[:, None]
        # Each coordinate moved once, by its final minus its starting value.
        moved = np.abs(beta - start).max(axis=0, initial=0.0)
        moving = maximum(moved, np.abs(shift)) >= LASSO_SWEEP_TOL
        if not moving.all():
            done = ~moving
            out_b0[sweeping[done]], out_beta[:, sweeping[done]] = b0[done], beta[:, done]
            sweeping = sweeping[moving]
            if not sweeping.size:
                return out_b0, out_beta
            x, wx, w, r, n = x[:, moving], wx[:, moving], w[moving], r[moving], n[moving]
            wx2, wx2_div, wsum = wx2[:, moving], wx2_div[:, moving], wsum[moving]
            b0, beta = b0[moving], beta[:, moving]
    out_b0[sweeping], out_beta[:, sweeping] = b0, beta
    return out_b0, out_beta


def fit_lasso_path(x: np.ndarray, y: np.ndarray, lambda_grid=None, *,
                   kkt_tol: float = KKT_TOL) -> list[FitResult]:
    """Lasso solutions along a decreasing penalty grid, warm-started.

    Returns one FitResult per grid point with coefficients on the original
    0/1 scale. Every solution satisfies the subgradient optimality
    conditions of the standardized problem within kkt_tol.
    """
    patterns, trials, cases, _ = _pattern_counts(x, y)
    # A single class raises here, not as the grid's zero lambda_max.
    _log_odds(trials[None], cases[None])
    grid = default_lambda_grid(x, y) if lambda_grid is None else lambda_grid
    return _path_fits(_lasso_path(patterns, trials[None], cases[None], grid, kkt_tol), 0)


def _path_fits(paths, i) -> list[FitResult]:
    """Member i of _lasso_path's output as one FitResult per penalty."""
    coef, dev, conv, iters = paths
    return [FitResult(coef[i, l], None, float(dev[i, l]), bool(conv[i, l]), int(iters[i, l]))
            for l in range(coef.shape[1])]


def _lasso_path(patterns, trials, cases, lambda_grid, kkt_tol=KKT_TOL):
    """fit_lasso_path on M sets of counts over the k patterns (p columns) at
    once: trials and cases are (M, k), and a pattern may have no trials.

    Returns coefficients (M, L, p + 1) on the 0/1 scale, deviance (M, L),
    converged (M, L) and outer iterations (M, L) for the L grid points.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size == 0 or np.any(grid < 0) or np.any(np.diff(grid) >= 0):
        raise ValidationError("lambda grid must be strictly decreasing and non-negative")
    b0, n = _log_odds(trials, cases), trials.sum(axis=1)

    xs, mean, scale = _standardize(patterns, trials)
    xs = np.ascontiguousarray(xs.transpose(2, 0, 1))  # (p, M, k)
    beta = np.zeros((patterns.shape[1], len(n)))

    coef = np.empty((len(n), grid.size, patterns.shape[1] + 1))
    converged = np.empty((len(n), grid.size), dtype=bool)
    iterations = np.empty((len(n), grid.size), dtype=int)
    for l, lam in enumerate(grid):
        converged[:, l], iterations[:, l] = _lasso_cd(
            xs, trials, cases, n, float(lam), b0, beta, kkt_tol)
        coef[:, l, 1:] = beta.T / scale
        coef[:, l, 0] = b0 - (beta.T * mean / scale).sum(axis=1)
    eta = coef[..., :1] + np.einsum("kp,ilp->ilk", patterns, coef[..., 1:])
    return coef, _deviances(eta, trials[:, None], cases[:, None]), converged, iterations
