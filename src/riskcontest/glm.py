"""Logistic-regression core: IRLS fitting, penalties, CV folds, bootstrap.

Every fit runs on distinct covariate patterns: _pattern_counts collapses the
rows to their distinct values with trial and case counts, and the IRLS fit,
the lasso path, the CV table and the bootstrap work on those counts. Pattern
and row fits agree to a relative 1e-12 in coefficients, deviance, standard
errors and CV deviance, and to about 1e-8 for an ill-conditioned fit refit
with the separation ridge (tests/test_grouped.py).

Every IRLS fit runs on one batched kernel, _irls_batch: Newton/IRLS with
step halving on M grouped-binomial problems at once. Its sums run through
np.einsum and .sum(axis=...), never matmul, so a member's result has the same
bits whatever the batch size, the member's place in it or the chunk
boundaries. fit_logistic is a batch of one; bootstrap_fits fits all its
resamples, and PatternTable.subsets_fold_deviances every fold of many column
subsets, through _irls_stacked. Each of those members keeps exactly its own
patterns with trials, in _collapse order, and _irls_stacked stacks the
members with the same number of them. So a bootstrap fit equals a
fit_logistic refit of its resampled rows, and a fold's training deviance the
fit_logistic fit of its training rows, bit for bit.

PatternTable.cv_deviances scores many same-size column subsets on the
full-factorial design of 2^s cells that every size-s subset of binary columns
shares, or on all k patterns projected onto each subset's columns, absent
cells getting no trials. Its CV deviances agree with those of the collapsed
per-fold designs of fold_deviances to a relative 1e-12, 1e-6 for fits refit
with the separation ridge. A quasi-separated fold fit that stops by
DEVIANCE_RTOL with |beta| still under SEPARATION_BOUND and growing is the
exception: the sums over the two designs round differently, the two fits
stop at slightly different beta, and their CV deviances can differ by about
1e-9 relative (1.7e-9 on a 208-row, 2-column contest whose fold had all 12
exposed rows as cases; beta stopped near 11.3, growing about 1 per
iteration).

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
# Elements, summed over its working arrays, of one chunk of fold fits in
# PatternTable.cv_deviances: 0.8 MB of float64.
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


def _grouped_deviance(eta: np.ndarray, trials: np.ndarray, successes: np.ndarray) -> float:
    return float(_deviances(eta, trials, successes))


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


def _newton_steps(hess, grad, lam):
    """Solve every member's Newton system; under lam = 0 a singular member
    gets a zero step and a True in the returned mask."""
    singular = np.zeros(len(grad), dtype=bool)
    try:
        return np.linalg.solve(hess, grad[..., None])[..., 0], singular
    except np.linalg.LinAlgError:
        if lam:
            raise
    steps = np.zeros_like(grad)
    for i in range(len(grad)):
        try:
            steps[i] = np.linalg.solve(hess[i], grad[i, :, None])[:, 0]
        except np.linalg.LinAlgError:
            singular[i] = True
    return steps, singular


def _irls_batch(design, trials, successes, lam):
    """Newton/IRLS with step halving on the ridge-penalized deviance of M
    grouped-binomial problems at once, with one ridge lam.

    design is (1 or M, m, q), intercept column first, which the ridge leaves
    unpenalized; a first axis of 1 is shared by every member. trials and
    successes are (M, m), and a cell may have no trials. Each member starts
    at its log-odds intercept, clips its weights per trial, takes the first
    of 30 halved Newton steps that does not raise its objective (none: it is
    at its optimum) and converges when the objective moves by less than
    DEVIANCE_RTOL relative. At lam = 0 a member that moves any |coefficient|
    past SEPARATION_BOUND or meets a singular Newton system is refit with
    FALLBACK_RIDGE, so every member gets an estimate; under a ridge a
    singular system raises LinAlgError. A member leaves the batch when it
    finishes. Returns beta (M, q), deviance (M,), converged (M,), separated
    (M,) and iterations (M,): the refit's for a separated member, MAX_ITER
    for one that did not converge.
    """
    n_members, q = len(trials), design.shape[-1]
    total, hits = trials.sum(axis=1), successes.sum(axis=1)
    if np.any((hits <= 0.0) | (hits >= total)):
        raise DegenerateOutcomeError("outcome vector contains a single class")
    pen = np.ones(q)
    pen[0] = 0.0
    diag = np.arange(q)

    def score(xt, beta, t, c):
        # Linear predictor, deviance and penalized objective at beta.
        eta = np.einsum("...qk,...q->...k", xt, beta)
        dev = _deviances(eta, t, c)
        return eta, dev, dev + lam * (pen * beta**2).sum(axis=1) if lam else dev

    def accepted(obj_c, obj):
        return obj_c <= obj * (1.0 + 1e-14) + 1e-14

    out_beta = np.zeros((n_members, q))
    out_dev = np.empty(n_members)
    converged = np.zeros(n_members, dtype=bool)
    separated = np.zeros(n_members, dtype=bool)
    iterations = np.full(n_members, MAX_ITER)
    # The design is kept as (1 or M, q, m), so every sum runs over cells.
    xt = np.ascontiguousarray(design.transpose(0, 2, 1))
    shared = len(xt) == 1
    live, t, c = np.arange(n_members), trials, successes
    beta = out_beta.copy()
    beta[:, 0] = [math.log(odds) for odds in (hits / total) / (1.0 - hits / total)]
    eta, dev, obj = score(xt, beta, t, c)

    for it in range(1, MAX_ITER + 1):
        p = expit(eta)
        w = t * np.maximum(p * (1.0 - p), 1e-10)
        grad = np.einsum("...k,...qk->...q", c - t * p, xt)
        hess = np.einsum("...ak,...bk->...ab", xt * w[:, None], xt)
        if lam:
            grad -= lam * pen * beta
            hess[:, diag, diag] += lam * pen
        step, singular = _newton_steps(hess, grad, lam)

        # Step halving: the full step for every member, then halved steps
        # where the objective rose. Members whose every candidate fails are
        # at their optimum.
        cand = beta + step
        eta_c, dev_c, obj_c = score(xt, cand, t, c)
        halving = np.flatnonzero(~singular & ~accepted(obj_c, obj))
        for j in range(1, 30):
            if not halving.size:
                break
            b = beta[halving] + 0.5**j * step[halving]
            e, d, o = score(xt if shared else xt[halving], b, t[halving], c[halving])
            ok = accepted(o, obj[halving])
            took = halving[ok]
            cand[took], eta_c[took], dev_c[took], obj_c[took] = b[ok], e[ok], d[ok], o[ok]
            halving = halving[~ok]
        optimal = np.zeros(len(live), dtype=bool)
        optimal[halving] = True

        moved = ~(singular | optimal)
        refit = singular
        if not lam:
            refit = refit | (moved & (np.abs(cand).max(axis=1) > SEPARATION_BOUND))
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
            t, c = t[keep], c[keep]
            if not shared:
                xt = xt[keep]
            if not live.size:
                break
    out_beta[live], out_dev[live] = beta, dev

    if separated.any():
        redo = np.flatnonzero(separated)
        out_beta[redo], out_dev[redo], converged[redo], _, iterations[redo] = _irls_batch(
            design if shared else design[redo], trials[redo], successes[redo], FALLBACK_RIDGE)
    return out_beta, out_dev, converged, separated, iterations


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
    return _fit_counts(patterns, trials[None], cases[None], penalty)[0]


def _irls_stacked(members, lam):
    """_irls_batch on (design, trials, successes) members whose cells all
    have trials; the members with the same number of cells run as one
    batch. Returns one (beta, deviance, converged, separated, iterations)
    per member."""
    sizes = [len(trials) for _, trials, _ in members]
    fits = [None] * len(members)
    for m in sorted(set(sizes)):
        group = [i for i, size in enumerate(sizes) if size == m]
        batch = (np.stack(part) for part in zip(*(members[i] for i in group)))
        for i, fit in zip(group, zip(*_irls_batch(*batch, lam))):
            fits[i] = fit
    return fits


def _fit_counts(patterns, trials, cases, penalty=NO_PENALTY) -> list[FitResult]:
    """fit_logistic on each row of (M, k) trial and case counts over the k
    patterns; each fit drops the patterns it has no trials on."""
    n, p = trials.sum(axis=1), patterns.shape[1]
    if np.any(n <= p):
        raise ValidationError(f"need more rows than columns (n={int(n.min())}, p={p})")
    design = np.column_stack([np.ones(len(patterns)), patterns])
    members = [(design[t > 0], t[t > 0], c[t > 0]) for t, c in zip(trials, cases)]
    results = []
    for (xmat, t, _), (beta, dev, conv, separated, it) in zip(
            members, _irls_stacked(members, penalty.ridge_lam)):
        std = None
        if penalty.kind == "none" and conv:
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

    fold_deviances projects the patterns onto a subset's columns and fits
    every fold's training counts, all rows minus the held-out ones;
    subsets_fold_deviances and cv_deviances fit those of many same-size
    subsets in one batched run; lasso_cv_deviance fits every fold's path.
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
        self.n_folds, self.n_held = plan.n_folds, int(held.sum())
        self.min_train = inv.size - int(held.sum(axis=1).max())
        self.binary = bool(np.all((self.patterns == 0) | (self.patterns == 1)))

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

    def fold_deviances(self, cols, penalty: PenaltySpec = NO_PENALTY) -> list[tuple[float, float]]:
        """(training deviance, held-out deviance) per fold of the model on the
        columns `cols`, in the order given, fit on the fold's training counts."""
        return self.subsets_fold_deviances([cols], penalty)[0]

    def subsets_fold_deviances(self, subsets, penalty: PenaltySpec = NO_PENALTY):
        """fold_deviances of every row of an (M, s) array of column subsets;
        all M x n_folds fold fits go to one _irls_stacked call."""
        designs, held, members = [], [], []
        for cols in self._columns(subsets):
            sub, inv = _collapse(self.patterns[:, cols])
            counts = _pattern_sums(inv, len(sub), self.counts)
            designs.append(np.column_stack([np.ones(len(sub)), sub]))
            held.append(counts[2:].reshape(2, self.n_folds, -1))
            members += [(designs[-1][t > 0], t[t > 0], c[t > 0])
                        for t, c in zip(*counts[:2, None] - held[-1])]
        fits = _irls_stacked(members, penalty.ridge_lam)
        f = self.n_folds
        return [[(float(dev), _grouped_deviance(design @ beta, n_te, c_te))
                 for (beta, dev, *_), n_te, c_te in zip(fits[i * f:(i + 1) * f], *h)]
                for i, (design, h) in enumerate(zip(designs, held))]

    def cv_deviances(self, subsets, penalty: PenaltySpec = NO_PENALTY):
        """cv_deviance of every row of an (M, s) array of column subsets.

        Returns the M deviances and two (M, n_folds) masks: the fold fits
        refit with FALLBACK_RIDGE, and the fold fits that converged.
        When x is binary and 2^s <= k, the number of distinct patterns, every
        subset shares the full-factorial design of 2^s cells, absent cells
        getting no trials; otherwise a subset's design is the k patterns
        projected onto its columns. _irls_batch fits every subset x fold, in
        chunks whose working arrays hold about BATCH_ELEMENTS elements.
        """
        subsets = self._columns(subsets)
        if not self.n_held:
            raise ValidationError("the plan holds out no row")
        s, k = subsets.shape[1], len(self.patterns)
        factorial = self.binary and 2**s <= k
        # A fold fit's share of the working arrays, as measured: a dozen
        # arrays of its m cells and its weighted design, q per cell, then its
        # share of the pattern counts, or its own design and transpose.
        m, q = (2**s if factorial else k), s + 1
        per_fit = m * (12 + q) + k * (1 if factorial else 2 * q)
        chunk = max(1, BATCH_ELEMENTS // (self.n_folds * per_fit))
        parts = [self._score_chunk(subsets[i:i + chunk], factorial, penalty.ridge_lam)
                 for i in range(0, len(subsets), chunk)]
        return tuple(np.concatenate(part) for part in zip(*parts))

    def _score_chunk(self, subsets, factorial, lam):
        n_sub, s = subsets.shape
        if factorial:
            design = np.column_stack(
                [np.ones(2**s), np.arange(2**s)[:, None] >> np.arange(s) & 1])[None]
            # Each pattern's cell: bit j is its value on the subset's column j.
            cells = np.repeat(np.arange(n_sub)[:, None] << s, len(self.patterns), axis=1)
            for j, col in enumerate(subsets.T):
                cells += self.patterns.T[col].astype(np.intp) << j
            counts = np.array([np.bincount(cells.ravel(), np.tile(row, n_sub), n_sub << s)
                               for row in self.counts]).reshape(len(self.counts), n_sub, 2**s)
        else:
            projected = self.patterns[:, subsets].transpose(1, 0, 2)  # (n_sub, k, s)
            design = np.repeat(np.concatenate(
                [np.ones(projected.shape[:2] + (1,)), projected], axis=2), self.n_folds, axis=0)
            counts = self.counts[:, None]
        all_n, all_c = counts[:2]
        held_n, held_c = np.split(counts[2:], 2)

        def members(a):
            # (n_folds, n_sub or 1, m) to one row per fold fit, fit (i, f)
            # of subset i and fold f at row i * n_folds + f.
            a = np.broadcast_to(a, (self.n_folds, n_sub, a.shape[-1]))
            return a.transpose(1, 0, 2).reshape(n_sub * self.n_folds, -1)

        beta, _, converged, separated, _ = _irls_batch(
            design, members(all_n - held_n), members(all_c - held_c), lam)
        eta = np.einsum("...kq,...q->...k", design, beta)
        held = _deviances(eta, members(held_n), members(held_c)).reshape(n_sub, self.n_folds)
        return (held.sum(axis=1) / self.n_held, separated.reshape(n_sub, self.n_folds),
                converged.reshape(n_sub, self.n_folds))

    def cv_deviance(self, subset, penalty: PenaltySpec = NO_PENALTY) -> float:
        """cv_deviance(x, y, subset, plan, penalty) on this table's x, y and plan."""
        return float(self.cv_deviances([sorted(subset)], penalty)[0][0])

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
    if not 0.0 < cases.sum() < trials.sum():
        raise DegenerateOutcomeError("outcome vector contains a single class")
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
    n, hits = trials.sum(axis=1), cases.sum(axis=1)
    if np.any((hits <= 0.0) | (hits >= n)):
        raise DegenerateOutcomeError("outcome vector contains a single class")

    xs, mean, scale = _standardize(patterns, trials)
    xs = np.ascontiguousarray(xs.transpose(2, 0, 1))  # (p, M, k)
    b0 = np.array([math.log(odds) for odds in (hits / n) / (1.0 - hits / n)])
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
