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
    consume before giving up (None means 500 per requested row).
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
        if not 1 <= self.k_min <= self.k_max <= self.d:
            raise ConfigurationError("need 1 <= k_min <= k_max <= d")
        if not 0.0 < self.effect_lo <= self.effect_hi:
            raise ConfigurationError("need 0 < effect_lo <= effect_hi")
        if self.n_cases <= 0 or self.n_controls <= 0:
            raise ConfigurationError("n_cases and n_controls must be positive")
        if self.n_confounders < 0:
            raise ConfigurationError("n_confounders must be non-negative")
        if self.n_confounders and not 0.0 < self.confounder_prev < 1.0:
            raise ConfigurationError("confounder_prev must be in (0, 1)")
        if self.d < 2:
            raise ConfigurationError("need at least 2 variables")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")

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
    (capped at 0.5) while active."""

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
        if not np.isin(self.x, (0, 1)).all() or not np.isin(self.y, (0, 1)).all():
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


def _check_consistent(truth: GroundTruth, config: SimulationConfig) -> None:
    if truth.d != config.d:
        raise ValidationError(f"truth has {truth.d} prevalences, config expects {config.d}")


def simulate_dataset(truth: GroundTruth, config: SimulationConfig,
                     rng: np.random.Generator, *, return_confounders: bool = False):
    """Draw one case-control dataset from a ground truth.

    Population records are generated in batches: latent confounders first,
    then risk factors at their (possibly confounder-inflated) prevalences,
    then a Bernoulli outcome from the logistic model. Records fill the case
    and control pools until both reach their targets; the pools are
    concatenated and shuffled, and confounder columns are dropped.

    With return_confounders=True also returns the latent confounder matrix
    aligned to the emitted rows (instructor diagnostics; never part of the
    contestant dataset). Raises SimulationBudgetError if the pools cannot be
    filled within config.max_draws population records.
    """
    _check_consistent(truth, config)
    d = config.d
    prev = np.asarray(truth.prevalences, dtype=float)

    beta = np.zeros(d)
    for j, e in truth.effects.items():
        beta[j - 1] = e
    n_conf = len(truth.confounders)
    conf_prev = np.array([c.prevalence for c in truth.confounders], dtype=float)
    conf_eff = np.array([c.log_or for c in truth.confounders], dtype=float)
    links = np.zeros((n_conf, d))
    for i, c in enumerate(truth.confounders):
        for j in c.linked:
            links[i, j - 1] = 1.0

    need_cases, need_controls = config.n_cases, config.n_controls
    case_x, case_c = [], []
    control_x, control_c = [], []
    got_cases = got_controls = 0
    draws = 0

    while got_cases < need_cases or got_controls < need_controls:
        if draws >= config.max_draws:
            raise SimulationBudgetError(
                f"exhausted {draws} population draws with {got_cases}/{need_cases} cases "
                f"and {got_controls}/{need_controls} controls; the intercept may be too "
                f"extreme for the requested pool sizes")
        b = min(_BATCH, config.max_draws - draws)
        draws += b

        if n_conf:
            conf = (rng.random((b, n_conf)) < conf_prev).astype(float)
            inflation = 10.0 ** (conf @ links)
            p_eff = np.minimum(prev * inflation, 0.5)
        else:
            conf = np.zeros((b, 0))
            p_eff = np.broadcast_to(prev, (b, d))
        x = (rng.random((b, d)) < p_eff).astype(np.int8)
        eta = config.baseline_intercept + x @ beta + conf @ conf_eff
        y = rng.random(b) < expit(eta)

        if got_cases < need_cases:
            take = np.flatnonzero(y)[:need_cases - got_cases]
            case_x.append(x[take])
            case_c.append(conf[take])
            got_cases += take.size
        if got_controls < need_controls:
            take = np.flatnonzero(~y)[:need_controls - got_controls]
            control_x.append(x[take])
            control_c.append(conf[take])
            got_controls += take.size

    x_all = np.vstack(case_x + control_x)
    conf_all = np.vstack(case_c + control_c).astype(np.int8)
    y_all = np.concatenate([np.ones(need_cases, dtype=np.int8),
                            np.zeros(need_controls, dtype=np.int8)])
    perm = rng.permutation(config.n_total)
    dataset = Dataset(x_all[perm], y_all[perm])
    if return_confounders:
        return dataset, conf_all[perm]
    return dataset
