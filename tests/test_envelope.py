"""Cheap extremes of what the validators accept: a 60-row contest (30 cases,
30 controls) with d = 2 and d = 20, and with d = 70 for team_a, n_folds
equal to the smaller class, train_fraction close to 0 and to 1,
size_max = d and one resample. Each case ends in a Submission or a
ContestError, within a tracemalloc bound. team_b and team_d also run on a
d = 70 default contest, within a bound in their fits' nonzero pairs."""

import tracemalloc

import numpy as np
import pytest

import riskcontest as rc
from riskcontest import glm

# At n = 60 one chunk of fold fits sets the peak. A chunk covers about
# BATCH_ELEMENTS (fold fit, pattern) pairs of the table; _irls_batch keeps
# each fold fit's cells with training trials as their nonzeros and pairs of
# nonzeros, and per fold fit a few dense (q, q) and (q,) arrays. The largest
# case here, team_c at d = 20 with 30 folds, runs 11,400 fold fits of
# q = 4 on 29,600 cells and 67,700 nonzero pairs in one kernel run and
# peaks near 12 MB, most of it in stacks of 4 x 4 Hessians (1.5 MB each).
# The bound allows 128 bytes per (fold fit, pattern) pair of a chunk, and
# 4 MB for the O(n + n_folds * k) rest.
PEAK_BOUND = 2 * 8 * 8 * glm.BATCH_ELEMENTS + 4_000_000
# team_d's fits at d = 70 run as one kernel run, which holds each fit's
# nonzero pairs a few times over: a column pair and a product each, and a
# bin and a term each while it sums a Gram. The rest is fixed for one
# contest: the 100 fits' dense 71 x 71 Hessians and inverses (4 MB a
# stack), the data and the counts.
PAIR_BYTES = 48
PAIR_ALLOWANCE = 12_000_000
# team_b's ridge curve runs its 110 fold fits of all 71 columns as one
# kernel run, whose dense 71 x 71 Hessian stacks are 4.4 MB each; its lasso
# paths hold no dense (q, q) array per pattern.
RIDGE_ALLOWANCE = 16_000_000


def cases(d):
    small = dict(size_min=1, size_max=min(d, 3))
    yield "team_a", dict(size_min=1, size_max=d)
    for fraction in (1e-9, 0.01, 0.99, 1 - 1e-9):
        yield "team_a", dict(size_min=1, size_max=d, train_fraction=fraction)
    yield "team_b", {}
    yield "team_b", dict(n_folds=30)
    yield "team_c", small
    yield "team_c", dict(small, n_folds=30)
    yield "team_d", {}
    yield "team_d", dict(n_resamples=1)


CASES = [(d, method, options) for d in (2, 20) for method, options in cases(d)]
CASES += [(70, method, options) for method, options in cases(70) if method == "team_a"]


@pytest.mark.parametrize("d, method, options", CASES,
                         ids=[f"d{d}-{m}" + "".join(f"-{k}={v}" for k, v in o.items())
                              for d, m, o in CASES])
def test_extreme_config_answers_within_memory(d, method, options):
    config = rc.SimulationConfig(d=d, n_cases=30, n_controls=30, k_min=1,
                                 k_max=min(2, d - 1), seed=60)
    rng = np.random.default_rng(config.seed)
    data = rc.simulate_dataset(rc.draw_ground_truth(config, rng), config, rng)
    spec = rc.SelectorSpec(method, seed=1, **options)
    tracemalloc.start()
    try:
        result = rc.run_selector(data, spec)
    except rc.ContestError:
        result = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert result is None or isinstance(result, rc.Submission)
    assert peak <= PEAK_BOUND


def contest_d70():
    config = rc.SimulationConfig(d=70, seed=424242)
    rng = np.random.default_rng(config.seed)
    return rc.simulate_dataset(rc.draw_ground_truth(config, rng), config, rng)


def pattern_pairs(patterns):
    """Every pattern's nonzero pairs as a cell of a fit: a pattern with j
    nonzeros has j + 1 with the intercept, so (j + 1)(j + 2) / 2 pairs."""
    ones = (patterns != 0.0).sum(axis=1)
    return (ones + 1) * (ones + 2) // 2


def peak_of(data, spec):
    tracemalloc.start()
    try:
        result = rc.run_selector(data, spec)
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert isinstance(result, rc.Submission)
    return peak


def test_team_d_at_d70_within_memory_of_its_nonzero_pairs():
    """team_d on a d = 70 default contest (4,000 rows) peaks within
    PAIR_BYTES per nonzero pair of its bootstrap fits plus PAIR_ALLOWANCE."""
    data = contest_d70()
    spec = rc.SelectorSpec("team_d", seed=1)
    # A resample's fit has one cell per pattern it draws.
    patterns, inv = glm._collapse(data.x.astype(float))
    pairs_of = pattern_pairs(patterns)
    draws = np.random.default_rng(spec.seed)
    pairs = sum(int(pairs_of[np.unique(inv[rc.bootstrap_resample(data.n, draws)])].sum())
                for _ in range(spec.n_resamples))
    assert peak_of(data, spec) <= PAIR_BYTES * pairs + PAIR_ALLOWANCE


def test_team_b_at_d70_within_memory_of_its_nonzero_pairs():
    """team_b on the same contest peaks within PAIR_BYTES per nonzero pair
    of its fits plus RIDGE_ALLOWANCE. Its lasso paths fit every fold's
    training counts and all rows; its ridge curve fits every fold's training
    counts on all columns once per ridge weight."""
    data = contest_d70()
    spec = rc.SelectorSpec("team_b", seed=1)
    plan = rc.make_folds(data.y, 10, np.random.default_rng(spec.seed))
    table = glm.PatternTable(data.x, data.y, plan)
    train = table.counts[0] - table.counts[2:2 + plan.n_folds]
    pairs_of = pattern_pairs(table.patterns)
    lasso = sum(int(pairs_of[t > 0].sum()) for t in [*train, table.counts[0]])
    ridge = 11 * sum(int(pairs_of[t > 0].sum()) for t in train)
    assert peak_of(data, spec) <= PAIR_BYTES * (lasso + ridge) + RIDGE_ALLOWANCE
