"""Logistic-regression core: IRLS fitting, penalties, CV folds, bootstrap.

Every fit runs on distinct covariate patterns: _pattern_counts collapses the
rows to their distinct values with trial and case counts, and the IRLS fit,
the lasso path, the CV table and the bootstrap work on those counts. Pattern
and row fits agree to a relative 1e-12 in coefficients, deviance, standard
errors and CV deviance, and to about 1e-8 for an ill-conditioned fit refit
with the separation ridge (tests/test_grouped.py).

Every IRLS fit runs on one batched kernel, _irls_batch: Newton/IRLS with
step halving on M grouped-binomial problems at once, each with its own ridge
weight, which the kernel carries as data and never branches on. Separation
is read from the counts first: an unpenalized member with a column that
has no negative value and whose trials where it is nonzero are all cases
or all controls is quasi-completely separated, and it starts at once in
the ridge pass, with FALLBACK_RIDGE as its weight, near that pass's
optimum. The walk covers the rest: any other member that separates
continues from where it stands in the same loop, with FALLBACK_RIDGE as
its weight and MAX_ITER fresh iterations. A ridge pass runs until its
Newton step is negligible, so a refit ends at the ridge optimum whatever
path led there. The kernel takes the fits as a _Fits, the
design representation of both kernels: each (member, cell) entry's nonzero
columns and pairs of nonzero columns. The linear predictor, gradient,
Hessian, deviance and exposed counts are each one np.bincount, which sums a
member's entries left to right in cell order, and a cell with no trials
adds exact zeros. So a member's result has the same bits whatever the batch
size, the member's place in it, the chunk boundaries or the other members'
cell counts, and every batch runs as one. fit_logistic is a batch of one
and bootstrap_fits fits all its resamples of both classes at once, each
keeping exactly its patterns with trials.

PatternTable.fold_fits is the one cross-validation routine: team_a's
holdout steps, team_c's exhaustive search, the ridge CV curve and cv_deviance
all read it. A ridge weight is a plain number, one for all subsets or one
per subset, so the ridge CV curve's penalties run as one batch; _irls_batch
rejects any weight that is not finite and >= 0. fold_fits projects the
table's patterns onto each subset's columns and collapses them with _runs,
_collapse's own sort-and-group pass, so fold fit (subset, fold) keeps
exactly the subset's cells with training trials, in _collapse order. A
fold's training deviance therefore equals the fit_logistic fit of its
training rows bit for bit, its held-out deviance is summed cell by cell,
and cv_deviances is the held-out sum of fold_fits over n_held, bit for bit.

_lasso_path fits M lasso paths over one (k, p) pattern matrix at once, one
member per row of (M, k) trial and case counts; PatternTable.lasso_cv_deviance
runs every fold's training counts and the all-rows counts as one batch, and
fit_lasso_path is a batch of one. Each member keeps every rule of the
glmnet-style outer loop on its own: its own weighted standardization, the
log-odds start, the 1e-10 weight clip, the KKT check at KKT_TOL and
LASSO_MAX_OUTER outer iterations. Each quadratic subproblem is carried as
its Gram and gradient alone (glmnet's covariance updates), so its solve
holds no pattern-length array, and it is solved by active-set steps
(_lasso_steps; Osborne, Presnell & Turlach 2000): each step solves the
stationarity equations of the intercept and the nonzero slopes with their
signs held, cut short where a slope would cross zero, which then leaves;
after a whole step the zero slope that most breaks its condition enters.
A column constant over a member's trials never enters, and of two columns
equal over them only the first enters. Most
subproblems take one or two steps, and the Python loop runs once per step
for the whole batch. A member that is done leaves the batch, so it runs
exactly the iterations it would run alone. The paths run on a _Fits of the
design [1, patterns], each member keeping its patterns with trials: the
linear predictor is taken at the 0/1-scale coefficients, and the gradient
and the Gram are the design's sums, centred and scaled with the member's
means and scales (_standardized). The sums are np.bincounts and each
member's system is solved on its own, so a member's coefficients,
deviance, converged flag, iterations and steps have the same bits whatever
the batch size or the member's place in it. The paths agree to 1e-12
relative with a one-path scalar reference that takes the same steps, and
with plain coordinate descent run to a 1e-14 sweep tolerance as far as the
KKT_TOL stop allows (tests/test_lasso.py).
"""

from __future__ import annotations

import functools
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


def _runs(keys):
    """The stable lexicographic order of the last axis of an (s, ..., n) key
    stack, keys[-1] the primary key, and the mask of the first entry of each
    run of equal keys in that order; with s = 0 a row is one run. _collapse
    and PatternTable._project both collapse with it."""
    order = (np.lexsort(keys, axis=-1) if len(keys)
             else np.broadcast_to(np.arange(keys.shape[-1]), keys.shape[1:]))
    ordered = np.take_along_axis(keys, order[None], axis=-1)
    first = np.ones(order.shape, dtype=bool)
    np.any(ordered[..., 1:] != ordered[..., :-1], axis=0, out=first[..., 1:])
    return order, first


def _collapse(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows of x and, for every row, the index of its distinct row.

    The distinct rows come in _runs order, the last column the primary key.
    """
    order, first = _runs(x.T)
    inv = np.empty(len(x), dtype=np.intp)
    inv[order] = np.cumsum(first) - 1
    return x[order[first]], inv


def _pattern_counts(x, y):
    """Validate (x, y), y 0/1; return the distinct rows of x, the number of
    rows and of cases on each, and every row's index into the distinct rows."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],):
        raise ValidationError("x must be (n, p) with y of length n")
    if not ((y == 0.0) | (y == 1.0)).all():
        raise ValidationError("outcomes must be 0/1")
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
    quasi-complete separation or a singular information matrix, whether read
    from the counts at the start or met on the way. iterations counts every
    Newton iteration of the fit.
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


def _log_odds(total, hits):
    """Every member's log odds of a case, from its (M,) trials and cases in
    all; DegenerateOutcomeError if a member has a single class."""
    if np.any((hits <= 0.0) | (hits >= total)):
        raise DegenerateOutcomeError("outcome vector contains a single class")
    return np.array([math.log(odds) for odds in (hits / total) / (1.0 - hits / total)])


def _solve(a, b):
    """np.linalg.solve on a stack of systems a (M, q, q) and b (M, q, r). A
    singular system gets a zero solution and a True in the returned mask;
    every other member's solution has the bits of its solo solve."""
    try:
        return np.linalg.solve(a, b), np.zeros(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        # Sign 0 marks a zero LU pivot, the condition on which solve raises.
        singular = np.linalg.slogdet(a)[0] == 0.0
    out = np.zeros(b.shape)
    out[~singular] = np.linalg.solve(a[~singular], b[~singular])
    return out, singular


def _newton_steps(hess, grad, lam):
    """Solve every member's Newton system, with lam a scalar or one ridge
    weight per member. A singular member with lam = 0 gets a zero step and a
    True in the returned mask; one with lam > 0 raises LinAlgError."""
    steps, singular = _solve(hess, grad[..., None])
    if np.any(singular & (lam > 0)):
        raise np.linalg.LinAlgError("Singular matrix")
    return steps[..., 0], singular


def _largest(a):
    """Every row's largest |value| of the (M, q) array a, one column at a
    time: for a few columns that is many times faster than .max(axis=1)."""
    return functools.reduce(np.maximum, np.abs(a.T))


def _ranges(starts, lengths):
    """The ranges arange(s, s + n) for every s and n, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts + lengths - np.cumsum(lengths), lengths)


@functools.lru_cache(maxsize=128)
def _upper_triangle(q):
    """np.triu_indices(q, 1): the rows and columns of the entries above the
    diagonal of a q x q matrix, built once per q."""
    return np.triu_indices(q, 1)


class _Fits:
    """M grouped-binomial fits held as the nonzeros of their designs.

    Fit i has sizes[i] entries, the fits' entries one after another, each a
    design row with its trials and successes; an entry may have no trials.
    Every entry keeps its nonzero columns (nz_count of them: nz_col, nz_val)
    and its pairs of nonzero columns a <= b (pair_count of them: pair_slot
    a * q + b and pair_val, the product of the two values), in column order.
    Every sum over a fit's entries is one np.bincount over these lists, and
    bincount adds each bin's weights in input order: a sum runs left to
    right in entry order, and an entry with no trials adds an exact zero. So
    a fit's sums depend on its own entries alone, not on the other fits.
    """

    def __init__(self, q, sizes, trials, successes, nz_count, nz_col, nz_val,
                 pair_count, pair_slot, pair_val):
        self.q, self.sizes, self.trials, self.successes = q, sizes, trials, successes
        self.nz_count, self.nz_col, self.nz_val = nz_count, nz_col, nz_val
        self.pair_count, self.pair_slot, self.pair_val = pair_count, pair_slot, pair_val

    @classmethod
    def from_entries(cls, design, member, cell, trials, successes, n_members):
        """The fits whose entry e is row cell[e] of the (cells, q) design in
        fit member[e], with trials[e] and successes[e]; the entries come
        sorted by member, each member's in the order its sums run."""
        q = design.shape[1]
        rows, cols = np.nonzero(design)
        vals = design[rows, cols]
        count = np.bincount(rows, minlength=len(design))
        start = np.cumsum(count) - count
        # Every design row's pairs: each nonzero with itself and each later one.
        reach = np.repeat(start + count, count) - np.arange(cols.size)
        first = np.repeat(np.arange(cols.size), reach)
        second = _ranges(np.arange(cols.size), reach)
        slot = (cols[first] * q + cols[second]).astype(np.min_scalar_type(q * q))
        product = vals[first] * vals[second]
        pair_count = count * (count + 1) // 2
        nz = _ranges(start[cell], count[cell])
        pairs = _ranges((np.cumsum(pair_count) - pair_count)[cell], pair_count[cell])
        return cls(q, np.bincount(member, minlength=n_members), trials, successes,
                   count[cell], cols[nz].astype(np.min_scalar_type(q)), vals[nz],
                   pair_count[cell], slot[pairs], product[pairs])

    @classmethod
    def from_counts(cls, patterns, trials, cases):
        """The fits of the rows of (M, k) trial and case counts on the design
        [1, patterns], each keeping its patterns with trials, in order."""
        design = np.column_stack([np.ones(len(patterns)), patterns])
        member, cell = np.nonzero(trials)
        return cls.from_entries(design, member, cell, trials[member, cell], cases[member, cell],
                                len(trials))

    def take(self, keep):
        """The fits where the (M,) mask keep is True, and their entries' mask."""
        entries = np.repeat(keep, self.sizes)
        nz, pairs = np.repeat(entries, self.nz_count), np.repeat(entries, self.pair_count)
        return _Fits(self.q, self.sizes[keep], self.trials[entries], self.successes[entries],
                     self.nz_count[entries], self.nz_col[nz], self.nz_val[nz],
                     self.pair_count[entries], self.pair_slot[pairs],
                     self.pair_val[pairs]), entries

    @functools.cached_property
    def fit(self):
        """Every entry's fit."""
        return np.repeat(np.arange(len(self.sizes)), self.sizes)

    @functools.cached_property
    def nz_bin(self):
        """Every nonzero's bin fit * q + column."""
        bins = np.repeat(self.fit * self.q, self.nz_count)
        bins += self.nz_col
        return bins

    @functools.cached_property
    def pair_bin(self):
        """Every pair of nonzeros' bin fit * q * q + pair_slot."""
        bins = np.repeat(self.fit * (self.q * self.q), self.pair_count)
        bins += self.pair_slot
        return bins

    def sums(self, values):
        """(M,) sums over every fit's entries of one value per entry."""
        return np.bincount(self.fit, values, len(self.sizes))

    def column_sums(self, weights):
        """(M, q) sums X'w over every fit's entries, one weight per entry."""
        n, q = len(self.sizes), self.q
        terms = np.repeat(weights, self.nz_count)
        terms *= self.nz_val
        return np.bincount(self.nz_bin, terms, n * q).reshape(n, q)

    def gram(self, weights, diagonal):
        """(M, q, q) weighted Grams X'WX + diag(diagonal), for one weight per
        entry and an (M, q) diagonal: the upper triangle summed, mirrored,
        then the diagonal added."""
        n, q = len(self.sizes), self.q
        terms = np.repeat(weights, self.pair_count)
        terms *= self.pair_val
        gram = np.bincount(self.pair_bin, terms, n * q * q).reshape(n, q, q)
        upper, lower = _upper_triangle(q)
        gram[:, lower, upper] = gram[:, upper, lower]
        gram[:, np.arange(q), np.arange(q)] += diagonal
        return gram

    def predictor(self, beta):
        """Every entry's linear predictor at the fits' (M, q) beta."""
        n = len(self.nz_count)
        terms = beta.ravel()[self.nz_bin]
        terms *= self.nz_val
        return np.bincount(np.repeat(np.arange(n), self.nz_count), terms, n)

    def deviances(self, eta):
        """(M,) deviances at the entries' linear predictors eta."""
        return 2.0 * self.sums(self.trials * np.logaddexp(0.0, eta) - self.successes * eta)

    def irls_weights(self, eta):
        """Every entry's case probability p at the linear predictors eta and
        its IRLS weight trials * p(1 - p), with p(1 - p) clipped at 1e-10."""
        p = expit(eta)
        return p, self.trials * np.maximum(p * (1.0 - p), 1e-10)


def _one_class_columns(fits):
    """(M, q) directions of the columns that separate the _Fits fits
    quasi-completely by their counts, 0 elsewhere and on the intercept; an
    entry with no trials is ignored. A column with no negative value whose
    exposed trials (those where it is nonzero) are all cases gets +1/v, all
    controls -1/v, where v is the mean of its nonzero values over those
    trials: 1 for a 0/1 column. Along such a column the deviance falls
    without bound (Albert & Anderson 1984). The exposed cases and controls
    are sums of whole numbers, so the signs do not depend on the order of
    the sums."""
    n, trials = len(fits.sizes) * fits.q, np.repeat(fits.trials, fits.nz_count)
    exposed = np.bincount(fits.nz_bin, trials, n)
    cases = np.bincount(fits.nz_bin, np.repeat(fits.successes, fits.nz_count), n)
    signs = (cases == exposed).astype(float) - (cases == 0.0)
    signs[np.bincount(fits.nz_bin[(fits.nz_val < 0.0) & (trials > 0.0)], minlength=n) > 0] = 0.0
    signs[::fits.q] = 0.0  # the intercepts
    caught = np.flatnonzero(signs)
    signs[caught] *= exposed[caught] / np.bincount(fits.nz_bin, trials * fits.nz_val, n)[caught]
    return signs.reshape(-1, fits.q)


def _irls_batch(fits, lam):
    """Newton/IRLS with step halving on the ridge-penalized deviance of the
    M grouped-binomial problems of the _Fits fits at once, each with its own
    ridge weight.

    Each fit's design has its intercept column first, and an entry may have
    no trials. lam is one ridge weight or one per member, each finite and
    >= 0 (ValidationError otherwise); the ridge leaves the intercept
    unpenalized. Each member starts at its log-odds intercept, clips its
    weights per trial, takes the first of 30 halved Newton steps that does
    not raise its objective (none: it is at its optimum) and converges when
    the objective moves by less than DEVIANCE_RTOL relative, within MAX_ITER
    iterations.

    The linear predictor, gradient, Hessian, deviance and exposed counts are
    each one np.bincount over the fits' nonzeros that sums a member's
    entries left to right, and an entry with no trials adds exact zeros. So
    a member's bits depend on its own entries alone: not on the batch, its
    place in it, the chunk or the other members' entry counts.

    A member with lam = 0 is separated, and refit with FALLBACK_RIDGE, in
    one of two ways. Separation is read from the counts first: a member
    with a one-class column of no negative value (_one_class_columns)
    starts at once in the ridge pass, from its log-odds intercept with each
    such column at (SEPARATION_BOUND - 3) / v toward its class, v the mean
    of its nonzero values, so that its term averages SEPARATION_BOUND - 3
    over its exposed trials. The walk covers the rest: a
    member that moves any |coefficient| past SEPARATION_BOUND or meets a
    singular Newton system continues in the same loop from its last
    accepted beta, with MAX_ITER fresh iterations. A ridge pass converges
    when its full Newton step is below 1e-9 (1 + max |beta|); so every
    member gets an estimate, and a refit's is the ridge optimum, not a point
    where a flat objective stopped moving. That holds too for a member read
    from the counts whose walk would have stopped on the DEVIANCE_RTOL flat
    objective short of SEPARATION_BOUND, unflagged.

    The start along a caught column sets the ridge pass's length. The
    deviance pulls a one-class slope up by about 2 T exp(-eta) for T
    exposed trials, the ridge back by 2 FALLBACK_RIDGE beta, so for a few
    exposed trials the optimum lies near 11-13, just inside
    SEPARATION_BOUND. On the benchmark's contests separated fits took
    5.1-6.0 iterations on average from 12, 5.7-7.0 from 11 or 13, about 11
    from 15 and 14-17 from slope 0.

    A singular system under lam > 0 raises LinAlgError. A member leaves the
    batch when it finishes. Returns beta (M, q), deviance (M,), converged
    (M,), separated (M,) and iterations (M,), the Newton iterations of
    every pass.
    """
    n_members, q = len(fits.sizes), fits.q
    lam = np.broadcast_to(np.asarray(lam, dtype=float), n_members)
    if not np.all(np.isfinite(lam) & (lam >= 0.0)):
        raise ValidationError("a ridge weight must be finite and non-negative")
    pen = np.ones(q)
    pen[0] = 0.0

    def objective(dev, beta, lam):
        return dev + lam * np.einsum("q,mq,mq->m", pen, beta, beta)

    def accepted(obj_c, obj):
        return obj_c <= obj * (1.0 + 1e-14) + 1e-14

    converged = np.zeros(n_members, dtype=bool)
    iterations = np.zeros(n_members, dtype=int)
    live = np.arange(n_members)
    beta = np.zeros((n_members, q))
    beta[:, 0] = _log_odds(fits.sums(fits.trials), fits.sums(fits.successes))
    # A lam = 0 member with a one-class column starts in the ridge pass,
    # each such column (SEPARATION_BOUND - 3) / v toward its class.
    signs = _one_class_columns(fits) * (lam == 0)[:, None]
    separated = signs.any(axis=1)
    beta += (SEPARATION_BOUND - 3.0) * signs
    lam = np.where(separated, FALLBACK_RIDGE, lam)
    eta = fits.predictor(beta)
    dev = fits.deviances(eta)
    out_beta, out_dev = beta.copy(), dev.copy()
    # Every live member's Newton iterations, and the count at which its
    # current pass has run MAX_ITER of them.
    age, limit = np.zeros(n_members, dtype=int), np.full(n_members, MAX_ITER)

    for _ in range(2 * MAX_ITER):
        age += 1
        ridge = lam[:, None] * pen
        obj = objective(dev, beta, lam)
        p, w = fits.irls_weights(eta)
        grad = fits.column_sums(fits.successes - fits.trials * p) - ridge * beta
        step, singular = _newton_steps(fits.gram(w, ridge), grad, lam)

        # Step halving: the full step for every member, then halved steps
        # where the objective rose. Members whose every candidate fails are
        # at their optimum.
        cand = beta + step
        eta_c = fits.predictor(cand)
        dev_c = fits.deviances(eta_c)
        obj_c = objective(dev_c, cand, lam)
        halving = ~singular & ~accepted(obj_c, obj)
        idx = np.flatnonzero(halving)
        if idx.size:
            sub = fits.take(halving)[0]
        for j in range(1, 30):
            if not idx.size:
                break
            b = beta[idx] + 0.5**j * step[idx]
            d = sub.deviances(sub.predictor(b))
            o = objective(d, b, lam[idx])
            ok = accepted(o, obj[idx])
            if ok.any():
                took = idx[ok]
                cand[took], dev_c[took], obj_c[took] = b[ok], d[ok], o[ok]
                idx, sub = idx[~ok], sub.take(~ok)[0]
        if idx.size < halving.sum():
            eta_c = fits.predictor(cand)
        optimal = np.zeros(len(live), dtype=bool)
        optimal[idx] = True

        moved = ~(singular | optimal)
        refit = singular | (moved & (lam == 0) & (_largest(cand) > SEPARATION_BOUND))
        moved &= ~refit
        # A ridge pass stops on its Newton step, any other on its objective.
        stop = np.where(separated[live], _largest(step) <= 1e-9 * (1.0 + _largest(beta)),
                        np.abs(obj - obj_c) / (np.abs(obj) + 0.1) < DEVIANCE_RTOL)
        beta = np.where(moved[:, None], cand, beta)
        eta = np.where(np.repeat(moved, fits.sizes), eta_c, eta)
        dev = np.where(moved, dev_c, dev)

        if refit.any():
            # The ridge pass continues from the last accepted beta.
            redo = np.flatnonzero(refit)
            separated[live[redo]] = True
            lam = np.where(refit, FALLBACK_RIDGE, lam)
            limit[redo] = age[redo] + MAX_ITER

        done = optimal | (moved & stop)
        finished = done | (age == limit)
        if finished.any():
            converged[live[done]] = True
            iterations[live[finished]] = age[finished]
            out_beta[live[finished]], out_dev[live[finished]] = beta[finished], dev[finished]
            keep = ~finished
            fits, entries = fits.take(keep)
            live, beta, eta, dev, age, limit, lam = (
                live[keep], beta[keep], eta[entries], dev[keep], age[keep], limit[keep], lam[keep])
            if not live.size:
                break
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

    Quasi-complete separation and singular Newton systems are handled by a
    fit to the optimum of a tiny ridge (FALLBACK_RIDGE). A column with no
    negative value whose nonzero rows are all cases or all controls is read
    from the counts, and the fit starts in the ridge pass at once; any other
    separation is met when a |coefficient| passes SEPARATION_BOUND, and the
    fit continues from where it stands. Such fits carry separation_flag =
    True but still report standard errors so Wald machinery stays usable.
    The fit is a batch of one.
    """
    patterns, trials, cases, _ = _pattern_counts(x, y)
    return _fit_counts(patterns, trials[None], cases[None], ridge)[0]


def _fit_counts(patterns, trials, cases, ridge=0.0) -> list[FitResult]:
    """fit_logistic on each row of (M, k) trial and case counts over the k
    patterns, as one _irls_batch run; each fit drops the patterns it has no
    trials on."""
    n, p = trials.sum(axis=1), patterns.shape[1]
    if np.any(n <= p):
        raise ValidationError(f"need more rows than columns (n={int(n.min())}, p={p})")
    fits = _Fits.from_counts(patterns, trials, cases)
    beta, dev, conv, separated, its = _irls_batch(fits, ridge)
    std = [None] * len(trials)
    if ridge == 0.0 and conv.any():
        # Every converged fit's information matrix at its estimate, with the
        # stabilization that produced a separated fit's estimate.
        fits = fits.take(conv)[0]
        slopes = np.arange(p + 1) > 0
        info = fits.gram(fits.irls_weights(fits.predictor(beta[conv]))[1],
                         FALLBACK_RIDGE * (separated[conv, None] & slopes))
        inverse, singular = _solve(info, np.broadcast_to(np.eye(p + 1), info.shape))
        for i, cov, bad in zip(np.flatnonzero(conv), inverse, singular):
            std[i] = None if bad else np.sqrt(np.diag(cov))
    return [FitResult(*fit) for fit in zip(beta, std, dev.tolist(), conv.tolist(), its.tolist(),
                                          separated.tolist())]


def wald_pvalues(fit: FitResult) -> np.ndarray:
    """Two-sided Wald p-values for the slope coefficients of a fit."""
    if fit.std_errors is None:
        raise UnsupportedFitError("fit has no standard errors (penalized or unconverged)")
    z = fit.slopes / fit.std_errors[1:]
    root2 = math.sqrt(2.0)
    return np.array([math.erfc(abs(v) / root2) for v in z])


def make_folds(y: np.ndarray, n_folds: int, rng: np.random.Generator) -> CvPlan:
    """Stratified folds of a 0/1 outcome: each class shuffled, dealt round-robin."""
    y = np.asarray(y)
    if n_folds < 2:
        raise ValidationError("need at least 2 folds")
    if not ((y == 0) | (y == 1)).all():
        raise ValidationError("fold outcomes must be 0/1")
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

    fold_fits projects the patterns onto each subset's columns in _collapse
    order (_runs) and fits every fold's training counts, all rows minus the
    held-out ones, one _irls_batch run per chunk, and cv_deviances sums its
    held-out deviances; lasso_cv_deviance fits every fold's path.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, plan: CvPlan):
        self.patterns, trials, cases, inv = _pattern_counts(x, y)
        if plan.assignments.shape != inv.shape:
            raise ValidationError("x must be (n, p) with y and the folds of length n")
        f, k = plan.n_folds, len(self.patterns)
        if np.any((plan.assignments < 0) | (plan.assignments > f)):
            raise ValidationError(f"fold labels must lie in 0..{f}")
        # Trials and cases of cell (fold, pattern), label 0's cells dropped.
        held = _pattern_sums(plan.assignments * k + inv, (f + 1) * k,
                             np.vstack([np.ones(inv.size), y]))[:, k:].reshape(2 * f, k)
        # Rows 0 and 1: all trials and cases; then F rows of held-out trials
        # per fold and F of held-out cases.
        self.counts = np.vstack([trials, cases, held])
        held_n = held[:f].sum(axis=1)
        self.n_folds, self.n_held = f, int(held_n.sum())
        self.min_train = inv.size - int(held_n.max())

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
        fold fit x pattern pairs, each chunk one _irls_batch run. Returns
        (M, n_folds) arrays: the training deviance, the held-out deviance,
        the mask of fits refit with FALLBACK_RIDGE and the mask of fits that
        converged."""
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
        projected onto its columns and collapsed by _runs as _collapse does.
        Returns the design of the distinct rows, subset after subset, with an
        intercept column, each row's subset and the (2 + 2 n_folds, rows) counts."""
        k = len(self.patterns)
        order, first = _runs(self.patterns.T[subsets.T])  # keys (s, M, k)
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
        beta, train_dev, converged, separated, _ = _irls_batch(
            _Fits.from_entries(design, fold * n_sub + owner[cell], cell, train_n[fold, cell],
                               train_c[fold, cell], n_sub * f), np.tile(lam, f))

        # Held-out deviance, summed per member in cell order.
        fold, cell = np.nonzero(held_n)
        member = fold * n_sub + owner[cell]
        eta = np.einsum("eq,eq->e", design[cell], beta[member])
        terms = held_n[fold, cell] * np.logaddexp(0.0, eta) - held_c[fold, cell] * eta
        held_dev = 2.0 * np.bincount(member, terms, n_sub * f)
        return tuple(a.reshape(f, n_sub).T for a in (train_dev, held_dev, separated, converged))

    def lasso_cv_deviance(self, grid):
        """Lasso paths on all columns, fit on every fold's complement and on
        all rows as one batch of n_folds + 1 members, each quadratic
        subproblem solved by active-set steps (_lasso_steps).

        Returns the (n_folds, len(grid)) held-out deviance per held-out row
        of every fold's path, the all-rows path's (len(grid), p + 1)
        coefficients, intercept first, and the (n_folds + 1, len(grid))
        converged mask and active-set steps, the all-rows path last.
        """
        all_n, all_c = self.counts[:2]
        held_n, held_c = np.split(self.counts[2:], 2)
        held_rows = held_n.sum(axis=1)
        for f, rows in enumerate(held_rows, start=1):
            if rows == 0:
                raise ValidationError(f"fold {f} holds out no row")
            if rows == all_n.sum():
                raise ValidationError(f"fold {f} leaves no training row")
        # Each fold's path is scored on its held-out counts, the all-rows
        # path on none.
        coef, dev, converged, _, steps = _lasso_path(
            self.patterns, np.vstack([all_n - held_n, all_n]), np.vstack([all_c - held_c, all_c]),
            grid, np.vstack([held_n, 0.0 * all_n]), np.vstack([held_c, 0.0 * all_c]))
        return dev[:-1] / held_rows[:, None], coef[-1], (converged, steps)


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
                   rng: np.random.Generator) -> list[FitResult | None]:
    """fit_logistic(x[idx], y[idx]) for each of n_resamples draws of
    idx = bootstrap_resample(len(y), rng), from one collapse of the rows.
    A resample with a single outcome class has no fit: its entry is None.
    Rows of a single class raise DegenerateOutcomeError."""
    if n_resamples < 1:
        raise ValidationError("need at least one resample")
    patterns, trials, cases, inv = _pattern_counts(x, y)
    _log_odds(trials.sum(keepdims=True), cases.sum(keepdims=True))
    rows = np.vstack([np.ones(inv.size), y])
    resamples = (bootstrap_resample(inv.size, rng) for _ in range(n_resamples))
    # Only the (M, 2, k) counts are kept, not the M index arrays.
    counts = np.array([_pattern_sums(inv[idx], len(patterns), rows[:, idx]) for idx in resamples])
    hits = counts[:, 1].sum(axis=1)
    both = (hits > 0) & (hits < inv.size)
    fits = iter(_fit_counts(patterns, counts[both, 0], counts[both, 1]) if both.any() else ())
    return [next(fits) if ok else None for ok in both]


# ---------------------------------------------------------------------------
# Lasso path: the quadratic approximation with warm starts, glmnet-style
# (Friedman, Hastie & Tibshirani 2010, JSS 33(1)), each quadratic carried as
# its Gram and gradient (their section 2.2) and solved by active-set steps
# (Osborne, Presnell & Turlach 2000). Columns are standardized internally
# and the coefficients reported back on the original 0/1 scale. _lasso_path
# runs M paths over one pattern matrix at once: each step solves the systems
# of every member still stepping.
# ---------------------------------------------------------------------------

KKT_TOL = 1e-7
LASSO_MAX_OUTER = 250
# An inactive slope enters a subproblem's active set when |g_j| exceeds lam
# by more than rounding.
LASSO_ENTRY_TOL = 1e-12
# Every diagonal entry of an active-set system is raised by this fraction
# of itself.
ACTIVE_SET_RIDGE = 1e-12


def _standardize(fits):
    """The (M, p + 1) means and scales over every member's trials of the
    columns of its design [1, x], the intercept's 0 and 1, from the trials'
    Gram S: column j's variance (S_jj - mean_j S_0j) / n is exactly 0 for a
    column constant over the trials, whose scale is then 1."""
    gram, n = fits.gram(fits.trials, 0), fits.sums(fits.trials)[:, None]
    mean = gram[:, 0] / n
    mean[:, 0] = 0.0
    scale = np.sqrt((np.diagonal(gram, axis1=1, axis2=2) - mean * gram[:, 0]) / n)
    return mean, np.where(scale == 0.0, 1.0, scale)


def _standardized(sums, mean, scale):
    """Sums over the design [1, x] along the last axis, taken to the design
    [1, (x - mean) / scale] of _standardize's mean and scale: each column's
    sum less its mean times the intercept's, over its scale."""
    return (sums - mean * sums[..., :1]) / scale


def _standardized_gram(gram, mean, scale):
    """(M, p + 1, p + 1) Grams of [1, x] taken by _standardized, columns then
    rows. Columns with equal sums, means and scales give bit-equal entries;
    one constant over a member's trials, an exactly zero row and column."""
    mean, scale = mean[:, None], scale[:, None]
    return _standardized(_standardized(gram, mean, scale).transpose(0, 2, 1), mean, scale)


def _original_scale(coef, mean, scale):
    """The (M, p + 1) coefficients on the 0/1 scale, intercept first, of the
    standardized coefficients coef (M, p + 1), intercept first."""
    slopes = coef[:, 1:] / scale[:, 1:]
    return np.column_stack([coef[:, 0] - (slopes * mean[:, 1:]).sum(axis=1), slopes])


def lasso_lambda_max(x: np.ndarray, y: np.ndarray) -> float:
    """Smallest penalty for which the lasso keeps every slope at zero.

    From the stationarity condition at the intercept-only model:
    max_j |x~_j' (y - ybar)| / n over standardized columns x~.
    """
    patterns, trials, cases, _ = _pattern_counts(x, y)
    fits = _Fits.from_counts(patterns, trials[None], cases[None])
    n = trials.sum()
    sums = fits.column_sums(fits.successes - fits.trials * (cases.sum() / n))
    return float(np.max(np.abs(_standardized(sums, *_standardize(fits))[0, 1:]))) / n


def default_lambda_grid(x: np.ndarray, y: np.ndarray, n_lambdas: int = 50,
                        min_ratio: float = 1e-3) -> np.ndarray:
    """Log-spaced grid from lambda_max down to lambda_max * min_ratio."""
    lmax = lasso_lambda_max(x, y)
    if lmax == 0.0:
        raise ValidationError("lasso lambda_max is 0: no column of x varies with y")
    return np.geomspace(lmax, lmax * min_ratio, n_lambdas)


def _lasso_solve(fits, mean, scale, lam, coef):
    """Solve M lasso problems at penalty lam, warm-started at the
    standardized coefficients coef (M, p + 1), intercept first.

    Member i's objective: (1/n_i) sum[-c*eta + t*log(1+exp(eta))]
    + lam * ||beta_i||_1 over the entries of fit i of the _Fits fits, with t
    trials and c cases per entry, n_i trials in all, and its design's
    columns standardized with its _standardize mean and scale. The outer
    loop re-quadratizes with observation weights t*p(1-p) into the
    subproblem's Gram and gradient, the design's sums standardized, and
    minimizes each quadratic with the active-set steps of _lasso_steps; a
    member stops when its exact subgradient conditions hold within KKT_TOL,
    and leaves the fits. coef is updated in place. Returns converged, outer
    iterations and active-set steps, each (M,).
    """
    n_members = len(coef)
    converged = np.zeros(n_members, dtype=bool)
    iterations = np.full(n_members, LASSO_MAX_OUTER)
    steps = np.zeros(n_members, dtype=int)
    live = np.arange(n_members)
    n = fits.sums(fits.trials)
    for outer in range(1, LASSO_MAX_OUTER + 1):
        point = coef[live]
        prob, w = fits.irls_weights(fits.predictor(_original_scale(point, mean, scale)))
        resid = fits.trials * prob - fits.successes
        # Minus the gradient of the mean negative log-likelihood, (M, p + 1).
        grad = -_standardized(fits.column_sums(resid), mean, scale) / n[:, None]
        slopes = point[:, 1:]
        viol = np.where(slopes != 0.0, np.abs(grad[:, 1:] - lam * np.sign(slopes)),
                        np.abs(grad[:, 1:]) - lam)
        met = np.maximum(np.abs(grad[:, 0]), viol.max(axis=1, initial=0.0)) <= KKT_TOL
        converged[live[met]], iterations[live[met]] = True, outer
        if met.all():
            break
        if met.any():
            go = ~met
            fits, entries = fits.take(go)
            live, mean, scale, n, point = live[go], mean[go], scale[go], n[go], point[go]
            w, grad = w[entries], grad[go]
        gram = _standardized_gram(fits.gram(w, 0), mean, scale) / n[:, None, None]
        coef[live], stepped = _lasso_steps(gram, grad, lam, point)
        steps[live] += stepped
    return converged, iterations, steps


def _lasso_steps(gram, grad, lam, coef):
    """Minimize every member's weighted least-squares lasso problem
    delta'H delta / 2 - g'delta + lam * ||(coef + delta)_slopes||_1 over
    steps delta from coef (M, p + 1), intercept first, carried as its Gram
    H (M, p + 1, p + 1) and gradient g (M, p + 1) alone, both on the
    standardized scale (_standardized_gram, _standardized); every move
    delta updates g -= H delta, so the steps hold no pattern-length array.

    Active-set steps (Osborne, Presnell & Turlach 2000, IMA J. Numer. Anal.
    20(3)): the active set A is the intercept and the slopes with a sign,
    and each step solves its stationarity equations with the signs s held,
    H_AA delta = g_A - lam * s_A. Rows and columns outside A are the
    identity's with a zero right-hand side, so their step is 0. Slope j is
    the twin of an earlier column i when H_ij = H_ii = H_jj, as for columns
    equal over the member's trials; an active twin of an active column
    keeps its value, which keeps such a pair from making H_AA singular.
    Every diagonal entry of H_AA is raised by ACTIVE_SET_RIDGE of itself, so
    a system whose active columns are dependent over the member's trials,
    exactly or to rounding, still gives a step that descends, along the
    dependence, to where it is cut at a crossing; unraised, such a system
    gives a zero step or one of rounding noise. A step that _newton_steps
    still finds singular is 0. The twins and the raised Gram are built once
    per call, since H does not change within it.

    If an active slope would cross zero, the member takes the step up to
    the first crossing and drops that slope. Otherwise it takes the whole
    step, and its worst inactive slope with |g_j| > lam + LASSO_ENTRY_TOL
    enters with the sign of g_j, the first of equals, so the first of twin
    columns. A member stops after a whole step that lets no slope in: its
    point then meets the subproblem's conditions to rounding. A slope with
    H_jj = 0, a column constant over the member's trials, is set to 0 and
    never enters. A member runs at most 3 (p + 1) steps, and leaves the
    batch when it stops, so it takes the steps it would take alone. Returns
    the new coef and every member's steps.
    """
    n_members, q = coef.shape
    out = np.empty_like(coef)
    steps = np.full(n_members, 3 * q)
    live = np.arange(n_members)
    diag = np.diagonal(gram, axis1=1, axis2=2)
    free = diag[:, 1:] > 0.0
    twins = (gram == diag[:, :, None]) & (gram == diag[:, None, :]) & np.tri(q, k=-1, dtype=bool)
    raised = gram * (1.0 + ACTIVE_SET_RIDGE * np.eye(q))
    coef = np.column_stack([coef[:, 0], np.where(free, coef[:, 1:], 0.0)])
    signs = np.sign(coef)
    signs[:, 0] = 0.0
    grad = grad.copy()
    for step in range(1, 3 * q + 1):
        active = signs != 0.0
        active[:, 0] = True
        active &= ~(twins & active[:, None, :]).any(axis=-1)
        delta = _newton_steps(np.where(active[:, :, None] & active[:, None, :], raised, np.eye(q)),
                              np.where(active, grad - lam * signs, 0.0), 0.0)[0]
        new = coef + delta
        cross = (signs != 0.0) & (np.sign(new) != signs)
        partial = cross.any(axis=1)
        if partial.any():
            # The fraction of the step at which each crossing slope reaches
            # 0, none for a slope that entered at 0; the member stops at the
            # first and drops that slope.
            frac = np.divide(coef, coef - new, out=np.full(coef.shape, np.inf),
                             where=cross & (coef != 0.0))
            frac[cross & (coef == 0.0)] = 0.0
            new[partial] = coef[partial] + frac[partial].min(axis=1)[:, None] * delta[partial]
            drop = (signs != 0.0) & (np.sign(new) != signs)
            drop[partial, frac[partial].argmin(axis=1)] = True
            new[drop], signs[drop] = 0.0, 0.0
        grad -= np.einsum("iab,ib->ia", gram, new - coef)
        coef = new

        viol = np.where((signs[:, 1:] == 0.0) & free, np.abs(grad[:, 1:]) - lam, -np.inf)
        enter = ~partial & (viol.max(axis=1, initial=-np.inf) > LASSO_ENTRY_TOL)
        slope = viol[enter].argmax(axis=1) + 1
        signs[enter, slope] = np.sign(grad[enter, slope])
        done = ~(partial | enter)
        if done.any():
            steps[live[done]], out[live[done]] = step, coef[done]
            keep = ~done
            live, gram, raised, twins, grad, coef, signs, free = (
                live[keep], gram[keep], raised[keep], twins[keep], grad[keep], coef[keep],
                signs[keep], free[keep])
            if not live.size:
                return out, steps
    out[live] = coef
    return out, steps


def fit_lasso_path(x: np.ndarray, y: np.ndarray, lambda_grid=None) -> list[FitResult]:
    """Lasso solutions along a decreasing penalty grid, warm-started.

    Returns one FitResult per grid point with coefficients on the original
    0/1 scale. Every solution satisfies the subgradient optimality
    conditions of the standardized problem within KKT_TOL.
    """
    patterns, trials, cases, _ = _pattern_counts(x, y)
    # A single class raises here, not as the grid's zero lambda_max.
    _log_odds(trials.sum(keepdims=True), cases.sum(keepdims=True))
    grid = default_lambda_grid(x, y) if lambda_grid is None else lambda_grid
    coef, dev, conv, iters, _ = _lasso_path(patterns, trials[None], cases[None], grid,
                                            trials[None], cases[None])
    return [FitResult(b, None, float(d), bool(c), int(i))
            for b, d, c, i in zip(coef[0], dev[0], conv[0], iters[0])]


def _lasso_path(patterns, trials, cases, lambda_grid, score_trials, score_cases):
    """fit_lasso_path on M sets of counts over the k patterns (p columns) at
    once: trials and cases are (M, k), and a pattern may have no trials.
    Each member's deviance is taken on its row of the (M, k) score_trials
    and score_cases, which may differ from the counts it is fit on.

    Returns coefficients (M, L, p + 1) on the 0/1 scale, and deviance,
    converged, outer iterations and active-set steps, each (M, L), for the
    L grid points.
    """
    grid = np.asarray(lambda_grid, dtype=float)
    if grid.size == 0 or np.any(grid < 0) or np.any(np.diff(grid) >= 0):
        raise ValidationError("lambda grid must be strictly decreasing and non-negative")
    fits = _Fits.from_counts(patterns, trials, cases)
    scored = _Fits.from_counts(patterns, score_trials, score_cases)
    m, q = len(trials), patterns.shape[1] + 1
    point = np.zeros((m, q))
    point[:, 0] = _log_odds(fits.sums(fits.trials), fits.sums(fits.successes))
    mean, scale = _standardize(fits)

    coef = np.empty((m, grid.size, q))
    dev = np.empty((m, grid.size))
    converged = np.empty((m, grid.size), dtype=bool)
    iterations, steps = (np.empty((m, grid.size), dtype=int) for _ in range(2))
    for l, lam in enumerate(grid):
        converged[:, l], iterations[:, l], steps[:, l] = _lasso_solve(
            fits, mean, scale, float(lam), point)
        coef[:, l] = _original_scale(point, mean, scale)
        dev[:, l] = scored.deviances(scored.predictor(coef[:, l]))
    return coef, dev, converged, iterations, steps
