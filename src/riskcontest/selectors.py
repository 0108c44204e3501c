"""Automated selection strategies: the four team procedures plus baselines.

Every selector consumes a Dataset and a SelectorSpec and emits a Submission
whose method_report carries the full decision path, so a run can be audited
(or re-plotted) after the fact. All selectors are deterministic given
(data, spec.seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .errors import EnumerationBudgetError, UnsupportedFitError, ValidationError
# No selector calls fit_logistic, cv_deviance or fit_lasso_path (team_b takes
# its full-data path from PatternTable.lasso_cv_deviance); all three stay
# importable here because perfbench's tracer wraps them by this module's names.
from .glm import (
    CvPlan,
    PatternTable,
    bootstrap_fits,
    cv_deviance,
    default_lambda_grid,
    fit_lasso_path,
    fit_logistic,
    make_folds,
    wald_pvalues,
)
from .sim import Dataset

METHODS = (
    "team_a",
    "team_b",
    "team_c",
    "team_d",
    "random_baseline",
    "full_baseline",
    "empty_baseline",
)


@dataclass(frozen=True)
class Submission:
    """A named set of selected 1-based variable indices plus its audit trail."""

    team: str
    selected: tuple[int, ...]
    method_report: str = ""

    def __post_init__(self):
        if len(set(self.selected)) != len(self.selected):
            raise ValidationError("selected indices must be unique")
        if any(j < 1 for j in self.selected):
            raise ValidationError("selected indices are 1-based")


@dataclass(frozen=True)
class SelectorSpec:
    """Method name plus tuning knobs; fields a method ignores are harmless.

    n_folds=None lets each method pick its own default (4 for the exhaustive
    search, 10 for the penalized-path CV).
    """

    method: str
    seed: int = 0
    size_min: int = 3
    size_max: int = 7
    n_folds: int | None = None
    n_resamples: int = 100
    median_p_threshold: float = 0.05
    max_select: int = 3
    max_keep: int = 7
    budget: int = 1_000_000
    train_fraction: float = 0.75
    n_lambdas: int = 50
    lambda_min_ratio: float = 1e-3

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValidationError(f"unknown method {self.method!r}")
        if self.seed < 0:
            raise ValidationError("seed must be non-negative")
        if not 1 <= self.size_min <= self.size_max:
            raise ValidationError("need 1 <= size_min <= size_max")
        if self.n_folds is not None and self.n_folds < 2:
            raise ValidationError("need at least 2 folds")
        if self.n_resamples < 1:
            raise ValidationError("need at least one resample")
        if not 0.0 < self.train_fraction < 1.0:
            raise ValidationError("train_fraction must be in (0, 1)")
        if self.max_select < 0 or self.max_keep < 0:
            raise ValidationError("selection caps must be non-negative")
        if self.n_lambdas < 1 or not 0.0 < self.lambda_min_ratio < 1.0:
            raise ValidationError("need n_lambdas >= 1 and 0 < lambda_min_ratio < 1")


def run_selector(data: Dataset, spec: SelectorSpec) -> Submission:
    """Dispatch a SelectorSpec to its implementation."""
    if spec.method in ("team_a", "team_c", "random_baseline") and spec.size_max > data.d:
        raise ValidationError(f"size_max {spec.size_max} exceeds d = {data.d}")
    if spec.method == "team_a":
        return select_team_a(data, spec)
    if spec.method == "team_b":
        return select_team_b(data, spec)
    if spec.method == "team_c":
        return select_team_c(data, spec)
    if spec.method == "team_d":
        return select_team_d(data, spec)
    return select_baseline(data, spec)


def _to_1based(cols) -> tuple[int, ...]:
    return tuple(sorted(int(c) + 1 for c in cols))


def _holdout_plan(y, fraction, rng) -> CvPlan:
    """One-fold plan: each class shuffled, its first `fraction` kept for
    training (label 0) and the rest held out (label 1)."""
    labels = np.zeros(y.size, dtype=np.int64)
    for cls, name in ((1, "case"), (0, "control")):
        idx = rng.permutation(np.flatnonzero(y == cls))
        n_train = int(round(fraction * idx.size))
        if idx.size and not n_train:
            raise ValidationError(f"train_fraction {fraction} leaves no {name} to train on")
        labels[idx[n_train:]] = 1
    if not labels.any():
        raise ValidationError(f"train_fraction {fraction} holds out no row")
    return CvPlan(1, labels)


def _fold_fit_line(masks) -> str:
    """The report line counting the fold fits of fold_fits' (refit, converged) masks."""
    refit, converged = (np.concatenate([m.ravel() for m in ms]) for ms in zip(*masks))
    return (f"fold fits: {refit.size} run, {int(refit.sum())} refit with the separation "
            f"ridge, {refit.size - int(converged.sum())} not converged")


def select_team_a(data: Dataset, spec: SelectorSpec) -> Submission:
    """Holdout best subset: greedy forward selection per size on a stratified
    75/25 split, keeping the candidate size with the lowest test deviance.
    The report's last line counts the fold fits of all forward steps, those
    refit with the separation ridge and those that did not converge, as
    team_c's does; the steps use the fits as they are."""
    plan = _holdout_plan(data.y, spec.train_fraction, np.random.default_rng(spec.seed))
    table = PatternTable(data.x, data.y, plan)
    n_test = table.n_held

    lines = [f"stratified split: {data.n - n_test} train / {n_test} test rows"]
    chosen: list[int] = []
    remaining = list(range(data.d))
    test_devs: dict[int, float] = {}
    masks = []
    while len(chosen) < spec.size_max:
        # One fold: column 0 of the (candidates, 1) deviances.
        train, held, refit, converged = table.fold_fits([chosen + [j] for j in remaining])
        masks.append((refit, converged))
        i = int(np.argmin(train[:, 0]))  # ties: lowest column index
        chosen.append(remaining.pop(i))
        lines.append(f"forward step {len(chosen)}: add x{chosen[-1] + 1} "
                     f"(train deviance {train[i, 0]:.3f})")
        if len(chosen) >= spec.size_min:
            test_devs[len(chosen)] = held[i, 0] / n_test

    for size, test_dev in test_devs.items():
        lines.append(f"size {size}: test deviance per row {test_dev:.6f}")
    best = min(test_devs, key=test_devs.get)  # ties: the smaller size
    lines.append(f"picked size {best} with test deviance {test_devs[best]:.6f}")
    lines.append(_fold_fit_line(masks))
    return Submission("team_a", _to_1based(chosen[:best]), "\n".join(lines))


def select_team_b(data: Dataset, spec: SelectorSpec) -> Submission:
    """Penalized-regression screen with a conservative cap.

    Cross-validates a lasso path, applies the one-standard-error rule, and
    keeps at most max_select variables (largest coefficients first). The
    fold paths and the full-data path whose one-SE coefficients are kept run
    as one batch in PatternTable.lasso_cv_deviance. A ridge CV curve and
    the per-variable case/control exposure comparison go into the audit
    trail as the corroborating evidence; the curve is one
    PatternTable.cv_deviances call with one ridge weight per row, so the
    fold fits of all 11 weights share their batches. The report's last line
    counts the lasso fits (paths x penalties), those that did not converge,
    which are used as they are, and the active-set steps that solved the
    paths' quadratic subproblems.
    """
    rng = np.random.default_rng(spec.seed)
    n_folds = spec.n_folds if spec.n_folds is not None else 10
    plan = make_folds(data.y, n_folds, rng)

    table = PatternTable(data.x, data.y, plan)
    grid = default_lambda_grid(data.x, data.y, spec.n_lambdas, spec.lambda_min_ratio)
    curve, coef, (converged, steps) = table.lasso_cv_deviance(grid)
    mean = curve.mean(axis=0)
    se = curve.std(axis=0, ddof=1) / math.sqrt(n_folds)
    i_min = int(np.argmin(mean))
    # Grid is decreasing, so the smallest index within one SE of the minimum
    # is the most conservative admissible penalty.
    i_1se = int(np.flatnonzero(mean <= mean[i_min] + se[i_min])[0])

    slopes = coef[i_1se, 1:]
    nonzero = np.flatnonzero(slopes != 0.0)
    kept = nonzero
    if nonzero.size > spec.max_select:
        order = np.argsort(-np.abs(slopes[nonzero]), kind="stable")
        kept = np.sort(nonzero[order[:spec.max_select]])

    ridge_weights = np.geomspace(1e3, 1e-2, 11)
    ridge_cv, _, _ = table.cv_deviances(np.tile(np.arange(data.d), (ridge_weights.size, 1)),
                                        ridge_weights)

    lines = [f"lasso CV over {grid.size} penalties, {n_folds} folds"]
    lines.append("lambda,mean_cv_deviance,se")
    lines.extend(f"{grid[i]:.6g},{mean[i]:.6f},{se[i]:.6f}" for i in range(grid.size))
    lines.append(f"minimum at lambda={grid[i_min]:.6g}; "
                 f"one-SE choice lambda={grid[i_1se]:.6g}")
    lines.append("nonzero at one-SE lambda: "
                 + (" ".join(f"x{j + 1}={slopes[j]:+.4f}" for j in nonzero) or "none"))
    lines.append("ridge CV (lambda: deviance): "
                 + " ".join(f"{l:.3g}:{d:.4f}" for l, d in zip(ridge_weights, ridge_cv)))
    lines.append("exposed counts, cases vs controls:")
    exposed = zip(data.x[data.y == 1].sum(axis=0), data.x[data.y == 0].sum(axis=0))
    lines.extend(f"x{j}: {int(a)} vs {int(b)}" for j, (a, b) in enumerate(exposed, 1))
    if nonzero.size > spec.max_select:
        lines.append(f"capped to the {spec.max_select} largest coefficients")
    lines.append(f"lasso fits: {converged.size} run ({n_folds + 1} paths x {grid.size} "
                 f"penalties), {converged.size - int(converged.sum())} not converged, "
                 f"{int(steps.sum())} active-set steps")
    return Submission("team_b", _to_1based(kept), "\n".join(lines))


def select_team_c(data: Dataset, spec: SelectorSpec) -> Submission:
    """Exhaustive best-subset search scored by shared-fold cross-validation.

    Enumerates every subset of sizes size_min..size_max, scores each by
    k-fold held-out deviance on one shared fold assignment, and returns the
    argmin; ties go to the smaller, then lexicographically first subset.
    PatternTable.cv_deviances scores all subsets of one size together: each
    subset x fold fit keeps the subset's covariate patterns with training
    rows, and the fits with the same number of them run as one batched IRLS
    run. The report counts the fold fits, those refit with the separation
    ridge and those that did not converge; the scores use the refits as
    they are.
    """
    n_subsets = sum(math.comb(data.d, s)
                    for s in range(spec.size_min, spec.size_max + 1))
    if n_subsets > spec.budget:
        raise EnumerationBudgetError(
            f"{n_subsets} candidate subsets exceed the budget of {spec.budget}")

    rng = np.random.default_rng(spec.seed)
    n_folds = spec.n_folds if spec.n_folds is not None else 4
    plan = make_folds(data.y, n_folds, rng)
    table = PatternTable(data.x, data.y, plan)

    leaders: list[tuple[float, tuple[int, ...]]] = []
    masks = []
    for s in range(spec.size_min, spec.size_max + 1):
        subsets = np.fromiter(chain.from_iterable(combinations(range(data.d), s)),
                              dtype=np.intp, count=math.comb(data.d, s) * s).reshape(-1, s)
        devs, refit, converged = table.cv_deviances(subsets)
        masks.append((refit, converged))
        # Five best of this size, ties in enumeration order; sorted() is
        # stable too, so ties across sizes go to the smaller size.
        leaders += [(float(devs[i]), tuple(int(c) for c in subsets[i]))
                    for i in np.argsort(devs, kind="stable")[:5]]
    leaders = sorted(leaders, key=lambda t: t[0])[:5]

    lines = [f"exhaustive search: {n_subsets} subsets of sizes "
             f"{spec.size_min}..{spec.size_max}, {n_folds}-fold CV"]
    lines.append("top candidates (cv deviance per row):")
    lines.extend(f"  {dev:.6f}  {{{' '.join(f'x{c + 1}' for c in cols)}}}"
                 for dev, cols in leaders)
    lines.append(_fold_fit_line(masks))
    return Submission("team_c", _to_1based(leaders[0][1]), "\n".join(lines))


def select_team_d(data: Dataset, spec: SelectorSpec) -> Submission:
    """Bootstrap p-value screen: refit the full model on resamples, keep the
    variables whose median Wald p-value falls below the threshold (at most
    max_keep, smallest medians first). The report counts the resamples refit
    with the separation ridge. A resample with one outcome class, or whose
    fit has no standard errors, is left out of the medians and counted in
    its own line at the report's end; with none left, UnsupportedFitError."""
    fits = bootstrap_fits(data.x, data.y, spec.n_resamples,
                          np.random.default_rng(spec.seed))
    fitted = [fit for fit in fits if fit is not None]
    usable = [fit for fit in fitted if fit.std_errors is not None]
    if not usable:
        raise UnsupportedFitError("no bootstrap fit has standard errors" if fitted else
                                  "no bootstrap resample has both outcome classes")
    pvals = np.array([wald_pvalues(fit) for fit in usable])

    medians = np.median(pvals, axis=0)
    below = np.flatnonzero(medians < spec.median_p_threshold)
    kept = below
    if below.size > spec.max_keep:
        order = np.argsort(medians[below], kind="stable")
        kept = np.sort(below[order[:spec.max_keep]])

    lines = [f"{spec.n_resamples} bootstrap resamples of {data.n} rows, "
             f"full {data.d}-variable fits"]
    lines.append("median p per variable: "
                 + " ".join(f"x{j + 1}={medians[j]:.4f}" for j in range(data.d)))
    lines.append(f"threshold {spec.median_p_threshold}, cap {spec.max_keep}")
    lines.append(f"{sum(fit.separation_flag for fit in fitted)} of {len(fits)} resamples "
                 f"refit with the separation ridge")
    lines.append("p-value table (variable; one column per resample):")
    for j in range(data.d):
        lines.append(f"x{j + 1}," + ",".join(f"{v:.6g}" for v in pvals[:, j]))
    if len(usable) < len(fitted):
        lines.append(f"{len(fitted) - len(usable)} of {len(fits)} resamples dropped: "
                     f"fit without standard errors")
    if len(fitted) < len(fits):
        lines.append(f"{len(fits) - len(fitted)} of {len(fits)} resamples dropped: "
                     f"one outcome class only")
    return Submission("team_d", _to_1based(kept), "\n".join(lines))


def select_baseline(data: Dataset, spec: SelectorSpec) -> Submission:
    """Control arms: a random admissible subset, everything, or nothing."""
    if spec.method == "empty_baseline":
        return Submission("empty_baseline", (), "selects nothing")
    if spec.method == "full_baseline":
        return Submission("full_baseline", tuple(range(1, data.d + 1)),
                          "selects every variable")
    if spec.method != "random_baseline":
        raise ValidationError(f"{spec.method!r} is not a baseline")
    rng = np.random.default_rng(spec.seed)
    size = int(rng.integers(spec.size_min, spec.size_max + 1))
    cols = rng.choice(data.d, size=size, replace=False)
    return Submission("random_baseline", _to_1based(cols),
                      f"uniform subset of size {size}")
