"""Cheap extremes of what the validators accept: a 60-row contest (30 cases,
30 controls) with d = 2 and d = 20, n_folds equal to the smaller class,
train_fraction close to 0 and to 1, size_max = d and one resample. Each
case ends in a Submission or a ContestError, within a tracemalloc bound."""

import tracemalloc

import numpy as np
import pytest

import riskcontest as rc
from riskcontest import glm

# At n = 60 one chunk of fold fits sets the peak: about BATCH_ELEMENTS
# (fold fit, pattern) cells, each with a design row of up to 8 floats,
# which _irls_batch holds twice (team_a's wider rows come in far fewer
# cells). The rest is O(n + n_folds * k), under 4 MB here.
PEAK_BOUND = 2 * 8 * 8 * glm.BATCH_ELEMENTS + 4_000_000


def cases(d):
    small = dict(size_min=1, size_max=min(d, 3))
    yield "team_a", dict(size_min=1, size_max=d)
    for fraction in (1e-9, 0.01, 0.99, 1 - 1e-9):
        yield "team_a", dict(size_min=1, size_max=d, train_fraction=fraction)
    yield "team_b", dict(n_folds=30)
    yield "team_c", small
    yield "team_c", dict(small, n_folds=30)
    yield "team_d", {}
    yield "team_d", dict(n_resamples=1)


CASES = [(d, method, options) for d in (2, 20) for method, options in cases(d)]


@pytest.mark.parametrize("d, method, options", CASES,
                         ids=[f"d{d}-{m}" + "".join(f"-{k}={v}" for k, v in o.items())
                              for d, m, o in CASES])
def test_extreme_config_answers_within_memory(d, method, options):
    config = rc.SimulationConfig(d=d, n_cases=30, n_controls=30, k_min=1, k_max=2, seed=60)
    rng = np.random.default_rng(config.seed)
    data = rc.simulate_dataset(rc.draw_ground_truth(config, rng), config, rng)
    spec = rc.SelectorSpec(method, seed=1, **options)
    # tracemalloc slows team_b's lasso about sixfold, so its bound is
    # checked at d = 2 only.
    traced = method != "team_b" or d == 2
    if traced:
        tracemalloc.start()
    try:
        result = rc.run_selector(data, spec)
    except rc.ContestError:
        result = None
    finally:
        peak = tracemalloc.get_traced_memory()[1]  # 0 when not tracing
        tracemalloc.stop()
    assert result is None or isinstance(result, rc.Submission)
    assert peak <= PEAK_BOUND
