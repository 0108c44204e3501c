"""Hidden-truth generator: sparse binary risk factors under case-control sampling.

A contest instance is a GroundTruth (which variables matter and how much)
plus a Dataset drawn from it. Outcomes are generated prospectively and rows
are rejection-sampled into fixed-size case and control pools, so odds ratios
are preserved while the intercept is not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, SimulationBudgetError, ValidationError
from .glm import expit

_BATCH = 16384


@dataclass(frozen=True)
class SimulationConfig:
    """All knobs of the data generator.

    Variable j's marginal prevalence comes from a log-uniform grid between
    prev_max and prev_min (strictly decreasing in j). Effects are log odds
    ratios with magnitude in [effect_lo, effect_hi] and random sign. The
    draw budget caps how many population records rejection sampling may
    consume before giving up (positive; None means 500 per requested row).
    """

    d: int = 20
    n_cases: int = 2000
    n_controls: int = 2000
    prev_max: float = 0.03
    prev_min: float = 0.001
    k_min: int = 3
    k_max: int = 7
    effect_lo: float = 0.5
    effect_hi: float = 1.5
    n_confounders: int = 2
    confounder_prev: float = 0.01
    baseline_intercept: float = -3.0
    seed: int = 0
    jitter_prevalences: bool = False
    draw_budget: int | None = None

    def __post_init__(self):
        if not 0.0 < self.prev_min < self.prev_max < 1.0:
            raise ConfigurationError("need 0 < prev_min < prev_max < 1")
        # k < d, so d >= 2: Youden's index needs a variable that is not relevant.
        if not 1 <= self.k_min <= self.k_max < self.d:
            raise ConfigurationError("need 1 <= k_min <= k_max < d")
        if not 0.0 < self.effect_lo <= self.effect_hi:
            raise ConfigurationError("need 0 < effect_lo <= effect_hi")
        if self.n_cases <= 0 or self.n_controls <= 0:
            raise ConfigurationError("n_cases and n_controls must be positive")
        if self.n_confounders < 0:
            raise ConfigurationError("n_confounders must be non-negative")
        if self.n_confounders and not 0.0 < self.confounder_prev < 1.0:
            raise ConfigurationError("confounder_prev must be in (0, 1)")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.draw_budget is not None and self.draw_budget <= 0:
            raise ConfigurationError("draw_budget must be positive")

    @property
    def n_total(self) -> int:
        return self.n_cases + self.n_controls

    @property
    def max_draws(self) -> int:
        return self.draw_budget if self.draw_budget is not None else 500 * self.n_total


@dataclass(frozen=True)
class Confounder:
    """Latent binary confounder: its own effect on the outcome plus a list of
    linked risk factors whose conditional prevalence it multiplies by 10
    while active. The inflated prevalence is capped at 0.5, or at the
    factor's own prevalence when that is higher: a factor drawn at p is
    drawn at min(p * 10**a, max(p, 0.5)), with a the number of active
    confounders linked to it."""

    log_or: float
    linked: tuple[int, ...]  # 1-based risk-factor indices
    prevalence: float


@dataclass(frozen=True)
class GroundTruth:
    """The sealed answer key of one contest instance."""

    relevant: tuple[int, ...]  # sorted 1-based indices of influential variables
    effects: dict[int, float]  # index -> log odds ratio
    confounders: tuple[Confounder, ...] = ()
    prevalences: tuple[float, ...] = ()

    def __post_init__(self):
        if set(self.effects) != set(self.relevant):
            raise ValidationError("effects must be keyed exactly by the relevant set")
        if len(set(self.relevant)) != len(self.relevant):
            raise ValidationError("relevant indices must be unique")
        d = len(self.prevalences)
        for j in self.relevant:
            if not 1 <= j <= d:
                raise ValidationError(f"relevant index {j} outside 1..{d}")
        for c in self.confounders:
            for j in c.linked:
                if not 1 <= j <= d:
                    raise ValidationError(f"confounder link {j} outside 1..{d}")

    @property
    def k(self) -> int:
        return len(self.relevant)

    @property
    def d(self) -> int:
        return len(self.prevalences)


@dataclass(frozen=True)
class Dataset:
    """Contestant-facing data: binary design matrix x and outcome y (1 = case)."""

    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        if self.x.ndim != 2 or self.y.shape != (self.x.shape[0],):
            raise ValidationError("x must be (n, d) with y of length n")
        if not all(((a == 0) | (a == 1)).all() for a in (self.x, self.y)):
            raise ValidationError("dataset entries must be 0/1")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]

    @property
    def n_cases(self) -> int:
        return int(self.y.sum())


def prevalence_grid(d: int, prev_max: float, prev_min: float) -> np.ndarray:
    """Strictly decreasing prevalences, uniform on a log scale.

    grid[j] = prev_max * (prev_min/prev_max) ** ((j-1)/(d-1)) for j = 1..d.
    """
    if d < 2:
        raise ConfigurationError("need at least 2 variables")
    if not 0.0 < prev_min < prev_max < 1.0:
        raise ConfigurationError("need 0 < prev_min < prev_max < 1")
    j = np.arange(d, dtype=float)
    return prev_max * (prev_min / prev_max) ** (j / (d - 1))


def _draw_effect(config: SimulationConfig, rng: np.random.Generator) -> float:
    sign = -1.0 if rng.random() < 0.5 else 1.0
    return sign * float(rng.uniform(config.effect_lo, config.effect_hi))


def draw_ground_truth(config: SimulationConfig, rng: np.random.Generator) -> GroundTruth:
    """Draw the hidden relevant set, its effects, and the confounder wiring.

    k is uniform on {k_min..k_max}; relevant indices are drawn without
    replacement; each effect is a random sign times a uniform magnitude on
    [effect_lo, effect_hi]. Each confounder gets an effect by the same rule
    and is linked to two distinct non-relevant variables (fewer if not
    enough are left).
    """
    k = int(rng.integers(config.k_min, config.k_max + 1))
    relevant = np.sort(rng.choice(config.d, size=k, replace=False)) + 1
    effects = {int(j): _draw_effect(config, rng) for j in relevant}

    if config.jitter_prevalences:
        draws = np.exp(rng.uniform(math.log(config.prev_min),
                                   math.log(config.prev_max), config.d))
        prev = np.sort(draws)[::-1]
    else:
        prev = prevalence_grid(config.d, config.prev_max, config.prev_min)

    non_relevant = np.setdiff1d(np.arange(1, config.d + 1), relevant)
    confounders = []
    for _ in range(config.n_confounders):
        n_links = min(2, non_relevant.size)
        linked = tuple(int(v) for v in np.sort(
            rng.choice(non_relevant, size=n_links, replace=False)))
        confounders.append(Confounder(_draw_effect(config, rng), linked,
                                      config.confounder_prev))

    return GroundTruth(tuple(int(j) for j in relevant), effects,
                       tuple(confounders), tuple(float(p) for p in prev))


def simulate_dataset(truth: GroundTruth, config: SimulationConfig,
                     rng: np.random.Generator, *, return_confounders: bool = False):
    """Draw one case-control dataset from a ground truth.

    Population records are generated in batches: latent confounders first,
    then one uniform per risk factor, then a Bernoulli outcome from the
    logistic model. A risk factor is 1 where its uniform falls below its
    prevalence, inflated on rows with an active confounder (see Confounder);
    in any other row the inflation is exactly 1.0, so the capped prevalence
    min(p * 1.0, max(p, 0.5)) is p itself, bit for bit, and only rows with
    an active confounder compute it. Records fill the case and control
    pools until both reach their targets; the pools are concatenated and
    shuffled, and confounder columns are dropped.

    A batch does only the work its outputs need. For every row it reads the
    relevant columns (nonzero effect) alone and sums the log odds term by
    term in a fixed order: the intercept, each relevant column's effect
    where it is 1 in column order, then each active confounder's effect.
    Only the rows kept for a pool get all d columns. The uniforms go into
    one (batch, d) buffer reused by every batch of the call, which draws
    the same numbers in the same order as a fresh array would.

    With return_confounders=True also returns the latent confounder matrix
    aligned to the emitted rows (instructor diagnostics; never part of the
    contestant dataset). Raises SimulationBudgetError if the pools cannot be
    filled within config.max_draws population records.
    """
    d = config.d
    if truth.d != d:
        raise ValidationError(f"truth has {truth.d} prevalences, config expects {d}")
    prev = np.asarray(truth.prevalences, dtype=float)

    beta = np.zeros(d)
    for j, e in truth.effects.items():
        beta[j - 1] = e
    rel = np.flatnonzero(beta)
    conf_prev = np.array([c.prevalence for c in truth.confounders], dtype=float)
    conf_eff = np.array([c.log_or for c in truth.confounders], dtype=float)
    links = np.zeros((len(truth.confounders), d))
    for i, c in enumerate(truth.confounders):
        for j in c.linked:
            links[i, j - 1] = 1.0

    def risk_factors(u, conf, cols):
        """The risk factors on columns cols of the records with uniforms u
        (on all d columns) and confounders conf."""
        x = u[:, cols] < prev[cols]
        hit = np.flatnonzero(conf @ np.ones(conf_prev.size))
        x[hit] = u[hit][:, cols] < np.minimum(prev[cols] * 10.0 ** (conf[hit] @ links[:, cols]),
                                               np.maximum(prev[cols], 0.5))
        return x

    need, got = [config.n_cases, config.n_controls], [0, 0]
    pools = [[], []]  # (x, confounder) blocks of the cases, then of the controls
    uniforms = np.empty((min(_BATCH, config.max_draws), d))
    draws = 0

    while got != need:
        if draws >= config.max_draws:
            raise SimulationBudgetError(
                f"exhausted {draws} population draws with {got[0]}/{need[0]} cases "
                f"and {got[1]}/{need[1]} controls; the intercept may be too "
                f"extreme for the requested pool sizes")
        b = min(_BATCH, config.max_draws - draws)
        draws += b

        conf = rng.random((b, conf_prev.size)) < conf_prev
        u = rng.random(out=uniforms[:b])
        eta = np.full(b, config.baseline_intercept)
        for coef, on in zip(beta[rel], risk_factors(u, conf, rel).T):
            np.add(eta, coef, out=eta, where=on)
        for coef, on in zip(conf_eff, conf.T):
            np.add(eta, coef, out=eta, where=on)
        y = rng.random(b) < expit(eta)

        for i, rows in enumerate((y, ~y)):
            take = np.flatnonzero(rows)[:need[i] - got[i]]
            pools[i].append((risk_factors(u[take], conf[take], slice(None)).astype(np.int8),
                             conf[take]))
            got[i] += take.size

    x_all = np.vstack([xs for pool in pools for xs, _ in pool])
    conf_all = np.vstack([cs for pool in pools for _, cs in pool]).astype(np.int8)
    y_all = np.repeat(np.array([1, 0], dtype=np.int8), need)
    perm = rng.permutation(config.n_total)
    dataset = Dataset(x_all[perm], y_all[perm])
    if return_confounders:
        return dataset, conf_all[perm]
    return dataset
