import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

import riskcontest as rc
from riskcontest.errors import ConfigurationError, SimulationBudgetError, ValidationError

from conftest import reference_simulate


class TestPrevalenceGrid:
    def test_endpoints(self):
        grid = rc.prevalence_grid(20, 0.03, 0.001)
        assert grid[0] == 0.03
        assert grid[-1] == pytest.approx(0.001, abs=1e-12)

    def test_interior_value(self):
        # 0.03 * 30 ** (-6/19), i.e. 1.0% once rounded
        grid = rc.prevalence_grid(20, 0.03, 0.001)
        assert grid[6] == pytest.approx(0.03 * 30 ** (-6 / 19), rel=1e-12)
        assert round(grid[6] * 100, 1) == 1.0

    def test_log_linear_and_decreasing(self):
        grid = rc.prevalence_grid(20, 0.03, 0.001)
        gaps = np.diff(np.log(grid))
        assert np.all(np.diff(grid) < 0)
        assert np.max(np.abs(gaps - gaps[0])) < 1e-12

    def test_classroom_percentages(self):
        expected = [3.0, 2.5, 2.1, 1.8, 1.5, 1.2, 1.0, 0.9, 0.7, 0.6,
                    0.5, 0.4, 0.4, 0.3, 0.2, 0.2, 0.2, 0.1, 0.1, 0.1]
        grid = rc.prevalence_grid(20, 0.03, 0.001)
        rounded = [math.floor(p * 1000 + 0.5) / 10 for p in grid]
        assert rounded == expected

    @pytest.mark.parametrize("d,hi,lo", [(1, 0.03, 0.001), (20, 0.001, 0.03),
                                         (20, 0.03, 0.0), (20, 1.5, 0.001)])
    def test_invalid_bounds(self, d, hi, lo):
        with pytest.raises(ConfigurationError):
            rc.prevalence_grid(d, hi, lo)


class TestDrawGroundTruth:
    def test_degenerate_k_range(self):
        config = rc.SimulationConfig(k_min=3, k_max=3)
        rng = np.random.default_rng(0)
        for _ in range(20):
            assert rc.draw_ground_truth(config, rng).k == 3

    def test_effect_bounds_and_keys(self):
        config = rc.SimulationConfig()
        rng = np.random.default_rng(1)
        for _ in range(50):
            truth = rc.draw_ground_truth(config, rng)
            assert set(truth.effects) == set(truth.relevant)
            assert all(0.5 <= abs(e) <= 1.5 for e in truth.effects.values())
            assert all(0.5 <= abs(c.log_or) <= 1.5 for c in truth.confounders)
            assert 3 <= truth.k <= 7
            # confounders only attach to non-relevant variables
            for c in truth.confounders:
                assert not set(c.linked) & set(truth.relevant)

    def test_classroom_instance_is_admissible(self, classroom_truth):
        assert classroom_truth.k == 7
        assert all(0.5 <= abs(e) <= 1.5 for e in classroom_truth.effects.values())
        assert classroom_truth.relevant == (3, 6, 10, 12, 14, 16, 20)

    def test_k_is_uniform(self):
        config = rc.SimulationConfig()
        rng = np.random.default_rng(7)
        ks = [rc.draw_ground_truth(config, rng).k for _ in range(10_000)]
        counts = np.bincount(ks, minlength=8)[3:8]
        result = stats.chisquare(counts)
        assert result.pvalue >= 0.01

    def test_effect_signs_are_balanced(self):
        config = rc.SimulationConfig(n_confounders=0)
        rng = np.random.default_rng(8)
        signs = [e > 0
                 for _ in range(2000)
                 for e in rc.draw_ground_truth(config, rng).effects.values()]
        result = stats.binomtest(sum(signs), len(signs), 0.5)
        assert result.pvalue >= 0.01

    def test_jittered_prevalences_sorted_within_bounds(self):
        config = rc.SimulationConfig(jitter_prevalences=True)
        rng = np.random.default_rng(9)
        truth = rc.draw_ground_truth(config, rng)
        prev = np.array(truth.prevalences)
        assert np.all(np.diff(prev) < 0)
        assert prev.min() >= 0.001 and prev.max() <= 0.03

    def test_truth_validation(self):
        with pytest.raises(ValidationError):
            rc.GroundTruth((1, 2), {1: 0.5}, (), (0.1, 0.05))
        with pytest.raises(ValidationError):
            rc.GroundTruth((3,), {3: 0.5}, (), (0.1, 0.05))
        with pytest.raises(ValidationError, match="relevant indices must be unique"):
            rc.GroundTruth((1, 1), {1: 0.5}, (), (0.1, 0.05))
        with pytest.raises(ValidationError, match=r"confounder link 3 outside 1\.\.2"):
            rc.GroundTruth((1,), {1: 0.5}, (rc.Confounder(0.5, (3,), 0.01),), (0.1, 0.05))


def _null_truth(d=20) -> rc.GroundTruth:
    grid = rc.prevalence_grid(d, 0.03, 0.001)
    return rc.GroundTruth((), {}, (), tuple(float(p) for p in grid))


class TestSimulateDataset:
    @pytest.mark.parametrize("x, y", [(np.zeros((4, 2)), np.zeros(3)),
                                      (np.zeros(4), np.zeros(4))])
    def test_dataset_shape_checked(self, x, y):
        with pytest.raises(ValidationError, match=r"x must be \(n, d\) with y of length n"):
            rc.Dataset(x, y)

    def test_default_dimensions(self, default_contest):
        _, data = default_contest
        assert data.x.shape == (4000, 20)
        assert data.n_cases == 2000
        assert int((1 - data.y).sum()) == 2000
        assert set(np.unique(data.x)) <= {0, 1}

    def test_determinism(self):
        config = rc.SimulationConfig(n_cases=200, n_controls=200, seed=5)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(config.seed)
            truth = rc.draw_ground_truth(config, rng)
            runs.append((truth, rc.simulate_dataset(truth, config, rng)))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1].x, runs[1][1].x)
        assert np.array_equal(runs[0][1].y, runs[1][1].y)

    def test_null_truth_statistics(self):
        """Without effects, columns look the same in cases and controls and
        pooled prevalences match the grid (4 MC standard errors, 50 reps)."""
        config = rc.SimulationConfig(n_confounders=0)
        truth = _null_truth()
        diffs, pooled = [], []
        for rep in range(50):
            data = rc.simulate_dataset(truth, config, np.random.default_rng(1000 + rep))
            cases = data.y == 1
            diffs.append(data.x[cases].mean(axis=0) - data.x[~cases].mean(axis=0))
            pooled.append(data.x.mean(axis=0))
        diffs = np.array(diffs)
        pooled = np.array(pooled)

        mean_diff = diffs.mean(axis=0)
        se_diff = diffs.std(axis=0, ddof=1) / math.sqrt(50)
        assert np.all(np.abs(mean_diff) <= 4 * se_diff + 1e-12)

        grid = np.array(truth.prevalences)
        mean_prev = pooled.mean(axis=0)
        se_prev = pooled.std(axis=0, ddof=1) / math.sqrt(50)
        assert np.all(np.abs(mean_prev - grid) <= 4 * se_prev + 1e-12)

    def test_log_odds_ratio_recovery(self):
        """Case-control sampling preserves the odds ratio; checked against
        the 2x2-table estimator averaged over replicate datasets."""
        grid = rc.prevalence_grid(20, 0.03, 0.001)
        truth = rc.GroundTruth((3,), {3: -0.9}, (), tuple(float(p) for p in grid))
        config = rc.SimulationConfig(n_confounders=0)
        estimates = []
        for rep in range(60):
            data = rc.simulate_dataset(truth, config, np.random.default_rng(2000 + rep))
            exposed = data.x[:, 2] == 1
            a = float(np.sum(exposed & (data.y == 1)))
            b = float(np.sum(exposed & (data.y == 0)))
            c = float(np.sum(~exposed & (data.y == 1)))
            d = float(np.sum(~exposed & (data.y == 0)))
            if min(a, b, c, d) == 0:
                a, b, c, d = a + 0.5, b + 0.5, c + 0.5, d + 0.5
            estimates.append(math.log(a * d / (b * c)))
        assert abs(np.mean(estimates) - (-0.9)) < 0.12

    def test_confounder_linkage_inflates_prevalence(self):
        # An always-active confounder multiplies a linked column's prevalence
        # by 10 (capped at 0.5) without touching the others. A prevalence
        # already above 0.5 is kept, linked (column 5) or not (column 4).
        prev = (0.03, 0.08, 0.02, 0.7, 0.6)
        truth = rc.GroundTruth((), {}, (rc.Confounder(0.0, (1, 2, 5), 1.0 - 1e-12),), prev)
        config = rc.SimulationConfig(d=5, n_cases=3000, n_controls=3000,
                                     k_min=1, k_max=1)
        data = rc.simulate_dataset(truth, config, np.random.default_rng(3))
        freq = data.x.mean(axis=0)
        assert freq[0] == pytest.approx(0.3, abs=0.02)
        assert freq[1] == pytest.approx(0.5, abs=0.02)  # 0.8 capped at 0.5
        assert freq[2] == pytest.approx(0.02, abs=0.01)
        assert freq[3] == pytest.approx(0.7, abs=0.02)
        assert freq[4] == pytest.approx(0.6, abs=0.02)

    def test_budget_error(self):
        config = rc.SimulationConfig(n_cases=50, n_controls=50,
                                     baseline_intercept=-14.0, draw_budget=4000)
        truth = _null_truth()
        with pytest.raises(SimulationBudgetError):
            rc.simulate_dataset(truth, config, np.random.default_rng(0))

    def test_confounder_export_does_not_change_dataset(self):
        config = rc.SimulationConfig(n_cases=150, n_controls=150, seed=11)
        rng = np.random.default_rng(11)
        truth = rc.draw_ground_truth(config, rng)
        plain = rc.simulate_dataset(truth, config, np.random.default_rng(12))
        with_conf, conf = rc.simulate_dataset(truth, config, np.random.default_rng(12),
                                              return_confounders=True)
        assert np.array_equal(plain.x, with_conf.x)
        assert np.array_equal(plain.y, with_conf.y)
        assert conf.shape == (300, 2)
        assert set(np.unique(conf)) <= {0, 1}

    def test_truth_config_mismatch(self):
        config = rc.SimulationConfig(d=10, k_min=1, k_max=3)
        with pytest.raises(ValidationError):
            rc.simulate_dataset(_null_truth(20), config, np.random.default_rng(0))


@st.composite
def sim_configs(draw):
    """Configs with 0-5 confounders active up to half the time, prevalences
    up to 0.9 (so caps and prevalences above 0.5 occur), small pools and,
    now and then, a draw budget that ends inside a batch or runs out."""
    d = draw(st.integers(2, 24))
    prev_max = draw(st.floats(0.005, 0.9))
    return rc.SimulationConfig(
        d=d, n_cases=draw(st.integers(1, 80)), n_controls=draw(st.integers(1, 80)),
        prev_max=prev_max, prev_min=prev_max * draw(st.floats(0.01, 0.99)),
        k_min=1, k_max=draw(st.integers(1, d - 1)),
        n_confounders=draw(st.integers(0, 5)),
        confounder_prev=draw(st.floats(0.001, 0.5)),
        baseline_intercept=draw(st.floats(-4.0, 1.0)),
        jitter_prevalences=draw(st.booleans()),
        draw_budget=draw(st.none() | st.integers(1, 40_000)),
        seed=draw(st.integers(0, 2**32)))


@settings(max_examples=80, deadline=None)
@given(sim_configs())
def test_simulate_matches_all_cells_reference(config):
    """x, y, the confounder matrix and the generator state after the draw
    equal the all-cells inflation loop byte for byte; a budget error has
    the same text."""
    def current(truth, config, rng):
        data, conf = rc.simulate_dataset(truth, config, rng, return_confounders=True)
        return data.x, data.y, conf

    outs = []
    for simulate in (current, reference_simulate):
        rng = np.random.default_rng(config.seed)
        truth = rc.draw_ground_truth(config, rng)
        try:
            arrays = simulate(truth, config, rng)
        except SimulationBudgetError as exc:
            outs.append(str(exc))
        else:
            outs.append(([a.dtype.str for a in arrays], [a.tobytes() for a in arrays],
                         rng.bit_generator.state))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("field,value", [
    ("prev_min", 0.0), ("prev_max", 1.0), ("k_min", 0), ("k_max", 20), ("k_max", 25),
    ("effect_lo", 0.0), ("n_cases", 0), ("d", 1), ("draw_budget", 0), ("draw_budget", -5),
    ("n_confounders", -1), ("confounder_prev", 0.0), ("confounder_prev", 1.0),
])
def test_config_validation(field, value):
    with pytest.raises(ConfigurationError):
        rc.SimulationConfig(**{field: value})


@st.composite
def built_truths(draw):
    """A truth that draw_ground_truth never makes, with a config of its d:
    any relevant set from empty to d - 1 columns (an effect may be 0), 0-4
    confounders linked to any columns, relevant ones included, and
    prevalences up to 0.9 for risk factors and confounders alike."""
    d = draw(st.integers(2, 24))
    relevant = sorted(draw(st.lists(st.integers(1, d), unique=True, max_size=d - 1)))
    columns = st.lists(st.integers(1, d), unique=True, max_size=d).map(sorted).map(tuple)
    confounders = draw(st.lists(st.builds(rc.Confounder, st.floats(-3.0, 3.0), columns,
                                          st.floats(0.001, 0.9)), max_size=4))
    truth = rc.GroundTruth(
        tuple(relevant), {j: draw(st.floats(-3.0, 3.0)) for j in relevant}, tuple(confounders),
        tuple(draw(st.lists(st.floats(0.001, 0.9), min_size=d, max_size=d))))
    return truth, rc.SimulationConfig(
        d=d, n_cases=draw(st.integers(1, 80)), n_controls=draw(st.integers(1, 80)),
        k_min=1, k_max=1, baseline_intercept=draw(st.floats(-4.0, 1.0)),
        draw_budget=draw(st.none() | st.integers(1, 40_000)), seed=draw(st.integers(0, 2**32)))


@settings(max_examples=80, deadline=None)
@given(built_truths())
def test_simulate_matches_all_cells_reference_on_built_truths(case):
    """The same byte-for-byte match, generator state and budget error text
    included, where a confounder may inflate a relevant column and so move
    the log odds."""
    def current(truth, config, rng):
        data, conf = rc.simulate_dataset(truth, config, rng, return_confounders=True)
        return data.x, data.y, conf

    truth, config = case
    outs = []
    for simulate in (current, reference_simulate):
        rng = np.random.default_rng(config.seed)
        try:
            arrays = simulate(truth, config, rng)
        except SimulationBudgetError as exc:
            outs.append(str(exc))
        else:
            outs.append(([a.dtype.str for a in arrays], [a.tobytes() for a in arrays],
                         rng.bit_generator.state))
    assert outs[0] == outs[1]
