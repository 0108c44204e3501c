"""Cheap extremes of what the validators accept: a 60-row contest (30 cases,
30 controls) with d = 2 and d = 20, and with d = 70 for team_a, n_folds
equal to the smaller class, train_fraction close to 0 and to 1,
size_max = d and one resample. Each case ends in a Submission or a
ContestError, within a tracemalloc bound."""

import tracemalloc

import numpy as np
import pytest

import riskcontest as rc
from riskcontest import glm

# At n = 60 one chunk of fold fits sets the peak: about BATCH_ELEMENTS
# (fold fit, pattern) cells, each with a design row of up to 8 floats,
# which _irls_batch holds twice (team_a's wider rows come in far fewer
# cells). Cells count as padded to each fit's width class: none are added
# at 8 cells or fewer and under 25% above, and the largest case here,
# team_c at d = 20 with 30 folds, peaks near 9 MB. The rest is
# O(n + n_folds * k), under 4 MB here.
PEAK_BOUND = 2 * 8 * 8 * glm.BATCH_ELEMENTS + 4_000_000


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
