import math

import numpy as np
import pytest

import riskcontest as rc
from riskcontest.errors import DegenerateOutcomeError, SimulationBudgetError
from riskcontest.glm import (
    DEVIANCE_RTOL,
    FALLBACK_RIDGE,
    MAX_ITER,
    SEPARATION_BOUND,
    expit,
)

# The recorded classroom contest used as the canonical regression fixture:
# seven relevant variables out of twenty, effects as revealed after the game.
CLASSROOM_EFFECTS = {3: -0.9, 6: -0.72, 10: 0.53, 12: -1.26, 14: -0.64, 16: -0.8, 20: -1.13}
CLASSROOM_PICKS = {
    "team_a": (3, 6, 8, 16, 17, 20),
    "team_b": (3, 6, 8),
    "team_c": (3, 5, 6, 12, 16, 17),
    "team_d": (3, 5, 6, 12, 17),
}
CLASSROOM_SCORES = {"team_a": 44, "team_b": 31, "team_c": 44, "team_d": 31}


@pytest.fixture(scope="session")
def classroom_truth() -> rc.GroundTruth:
    prev = rc.prevalence_grid(20, 0.03, 0.001)
    return rc.GroundTruth(tuple(sorted(CLASSROOM_EFFECTS)), dict(CLASSROOM_EFFECTS),
                          (), tuple(float(p) for p in prev))


@pytest.fixture(scope="session")
def classroom_submissions() -> dict[str, rc.Submission]:
    return {team: rc.Submission(team, picks) for team, picks in CLASSROOM_PICKS.items()}


@pytest.fixture(scope="session")
def default_contest() -> tuple[rc.GroundTruth, rc.Dataset]:
    """One full-size contest instance shared by the slower tests."""
    config = rc.SimulationConfig(seed=424242)
    rng = np.random.default_rng(config.seed)
    truth = rc.draw_ground_truth(config, rng)
    return truth, rc.simulate_dataset(truth, config, rng)


def two_by_two(exposed_cases, exposed_controls, unexposed_cases, unexposed_controls):
    """Single binary covariate laid out from its 2x2 table."""
    x = np.concatenate([
        np.ones(exposed_cases + exposed_controls),
        np.zeros(unexposed_cases + unexposed_controls),
    ])
    y = np.concatenate([
        np.ones(exposed_cases), np.zeros(exposed_controls),
        np.ones(unexposed_cases), np.zeros(unexposed_controls),
    ])
    return x[:, None], y


def planted_dataset(n=600, d=8, prevalence=0.5, effect=3.0, seed=0) -> rc.Dataset:
    """One strong predictor in column 1, the rest pure noise."""
    rng = np.random.default_rng(seed)
    x = (rng.random((n, d)) < prevalence).astype(np.int8)
    eta = -1.0 + effect * x[:, 0]
    y = (rng.random(n) < rc.expit(eta)).astype(np.int8)
    if y.sum() < 8 or y.sum() > n - 8:  # keep folds stratifiable
        return planted_dataset(n, d, prevalence, effect, seed + 10_000)
    return rc.Dataset(x, y)


def null_dataset(n=400, d=6, prevalence=0.3, seed=0) -> rc.Dataset:
    rng = np.random.default_rng(seed)
    x = (rng.random((n, d)) < prevalence).astype(np.int8)
    y = np.zeros(n, dtype=np.int8)
    y[: n // 2] = 1
    rng.shuffle(y)
    return rc.Dataset(x, y)


def five_case_contest(seed=2) -> rc.Dataset:
    """A default-d contest of 5 cases and 1,000 controls: about one
    bootstrap resample in 150 draws no case."""
    config = rc.SimulationConfig(n_cases=5, n_controls=1000, seed=seed)
    rng = np.random.default_rng(config.seed)
    return rc.simulate_dataset(rc.draw_ground_truth(config, rng), config, rng)


def reference_simulate(truth, config, rng):
    """simulate_dataset's draw with the confounder inflation computed over
    every cell of each batch, as 10.0 ** (conf @ links): the reference that
    sim.simulate_dataset, which computes it only on rows with an active
    confounder, must equal byte for byte. Returns (x, y, confounders)."""
    d = config.d
    prev = np.asarray(truth.prevalences, dtype=float)
    beta = np.zeros(d)
    for j, e in truth.effects.items():
        beta[j - 1] = e
    conf_prev = np.array([c.prevalence for c in truth.confounders], dtype=float)
    conf_eff = np.array([c.log_or for c in truth.confounders], dtype=float)
    links = np.zeros((len(truth.confounders), d))
    for i, c in enumerate(truth.confounders):
        for j in c.linked:
            links[i, j - 1] = 1.0

    need = [config.n_cases, config.n_controls]
    pools = [[], []]
    draws = 0
    while (got := [sum(len(xs) for xs, _ in pool) for pool in pools]) != need:
        if draws >= config.max_draws:
            raise SimulationBudgetError(
                f"exhausted {draws} population draws with {got[0]}/{need[0]} cases "
                f"and {got[1]}/{need[1]} controls; the intercept may be too "
                f"extreme for the requested pool sizes")
        b = min(rc.sim._BATCH, config.max_draws - draws)
        draws += b

        conf = (rng.random((b, conf_prev.size)) < conf_prev).astype(float)
        inflation = 10.0 ** (conf @ links)
        p_eff = np.minimum(prev * inflation, np.maximum(prev, 0.5))
        x = (rng.random((b, d)) < p_eff).astype(np.int8)
        eta = config.baseline_intercept + x @ beta + conf @ conf_eff
        y = rng.random(b) < expit(eta)

        for pool, rows, have, want in zip(pools, (y, ~y), got, need):
            take = np.flatnonzero(rows)[:want - have]
            pool.append((x[take], conf[take]))

    x_all = np.vstack([xs for pool in pools for xs, _ in pool])
    conf_all = np.vstack([cs for pool in pools for _, cs in pool]).astype(np.int8)
    y_all = np.repeat(np.array([1, 0], dtype=np.int8), need)
    perm = rng.permutation(config.n_total)
    return x_all[perm], y_all[perm], conf_all[perm]


def _deviances(eta, trials, successes):
    """-2 log-likelihood of grouped-binomial logit models over the last
    axis, binomial constants omitted."""
    return 2.0 * (trials * np.logaddexp(0.0, eta) - successes * eta).sum(axis=-1)


def _grouped_deviance(eta, trials, successes) -> float:
    """-2 log-likelihood of one grouped-binomial logit model."""
    return float(_deviances(eta, trials, successes))


def _irls(xmat, trials, successes, lam, start=None):
    """Newton/IRLS with step halving on the ridge-penalized deviance, one
    problem at a time with matmul sums: the reference for glm._irls_batch.

    xmat includes the intercept column, which the ridge leaves unpenalized.
    An unpenalized fit (lam = 0) with a column of no negative value whose
    trials where it is nonzero are all cases or all controls starts at once
    in the FALLBACK_RIDGE pass, from the log-odds start with each such
    column (SEPARATION_BOUND - 3) / v toward its class, v the mean of its
    nonzero values over those trials. Any other unpenalized fit that moves any
    |coefficient| past SEPARATION_BOUND or meets a singular Newton system is
    refit with FALLBACK_RIDGE, so every caller gets an estimate: the ridge
    pass goes on from the last accepted beta (`start`) and stops once its
    full Newton step is negligible.
    Returns (beta, deviance, converged, iterations, separated); iterations
    counts the Newton iterations of both passes.
    """
    m, q = xmat.shape
    total = float(trials.sum())
    hits = float(successes.sum())
    if hits <= 0.0 or hits >= total:
        raise DegenerateOutcomeError("outcome vector contains a single class")

    pen = np.ones(q)
    pen[0] = 0.0

    if start is None:
        beta = np.zeros(q)
        ybar = hits / total
        beta[0] = math.log(ybar / (1.0 - ybar))
        if not lam:
            seen = trials > 0
            signs = np.zeros(q)
            for j in range(1, q):
                if (xmat[seen, j] >= 0.0).all():
                    exposed = seen & (xmat[:, j] != 0.0)
                    cases = float(successes[exposed].sum())
                    controls = float((trials - successes)[exposed].sum())
                    if (controls == 0.0) != (cases == 0.0):
                        mean = float(trials[exposed] @ xmat[exposed, j]) / (cases + controls)
                        signs[j] = ((controls == 0.0) - (cases == 0.0)) / mean
            if signs.any():
                beta = beta + (SEPARATION_BOUND - 3.0) * signs
                *fit, _ = _irls(xmat, trials, successes, FALLBACK_RIDGE, beta)
                return (*fit, True)
    else:
        beta = start
    eta = xmat @ beta
    dev = _grouped_deviance(eta, trials, successes)
    obj = dev + lam * float(np.sum(pen * beta**2))

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
        small = float(np.max(np.abs(step))) <= 1e-9 * (1.0 + float(np.max(np.abs(beta))))

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
        if (small if start is not None else rel < DEVIANCE_RTOL):
            return beta, dev, True, it, False
    else:
        return beta, dev, False, MAX_ITER, False
    # Separated or singular: only an unpenalized fit breaks out of the loop.
    beta, dev, converged, ridge_pass, _ = _irls(xmat, trials, successes, FALLBACK_RIDGE, beta)
    return beta, dev, converged, it + ridge_pass, True
