import dataclasses
from itertools import combinations

import numpy as np
import pytest

import riskcontest as rc
from riskcontest import glm, selectors
from riskcontest.errors import (
    DegenerateOutcomeError,
    EnumerationBudgetError,
    UnsupportedFitError,
    ValidationError,
)
from riskcontest.glm import _collapse, _pattern_sums, cv_deviance, make_folds

from conftest import _irls, null_dataset, planted_dataset


def permute_columns(data: rc.Dataset, perm: np.ndarray) -> rc.Dataset:
    return rc.Dataset(data.x[:, perm], data.y)


class TestSubmissionType:
    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValidationError):
            rc.Submission("t", (1, 1, 2))

    def test_indices_are_one_based(self):
        with pytest.raises(ValidationError):
            rc.Submission("t", (0, 2))

    def test_empty_is_fine(self):
        assert rc.Submission("t", ()).selected == ()


class TestSpecValidation:
    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            rc.SelectorSpec("team_e")

    @pytest.mark.parametrize("kw", [
        {"size_min": 0}, {"size_min": 5, "size_max": 3}, {"n_folds": 1},
        {"n_resamples": 0}, {"train_fraction": 1.0}, {"max_select": -1},
    ])
    def test_bad_parameters(self, kw):
        with pytest.raises(ValidationError):
            rc.SelectorSpec("team_a", **kw)

    @pytest.mark.parametrize("kw", [
        {"lambda_min_ratio": 0.0}, {"lambda_min_ratio": -1e-3}, {"lambda_min_ratio": 1.0},
        {"lambda_min_ratio": float("nan")}, {"n_lambdas": 0}, {"n_lambdas": -2},
    ])
    def test_bad_lasso_grid(self, kw):
        with pytest.raises(ValidationError, match="lambda"):
            rc.SelectorSpec("team_b", **kw)


class TestTeamA:
    def test_recovers_planted_signal(self):
        hits = 0
        for seed in range(100):
            data = planted_dataset(n=500, d=8, seed=seed)
            spec = rc.SelectorSpec("team_a", seed=seed, size_min=3, size_max=5)
            if 1 in rc.run_selector(data, spec).selected:
                hits += 1
        assert hits >= 95

    def test_size_within_candidate_range(self):
        data = planted_dataset(n=400, d=10, seed=3)
        sub = rc.run_selector(data, rc.SelectorSpec("team_a", seed=1))
        assert 3 <= len(sub.selected) <= 7

    def test_deterministic(self):
        data = planted_dataset(n=400, d=10, seed=4)
        spec = rc.SelectorSpec("team_a", seed=9)
        assert rc.run_selector(data, spec) == rc.run_selector(data, spec)

    def test_report_mentions_split(self):
        data = planted_dataset(n=400, d=6, seed=5)
        sub = rc.run_selector(data, rc.SelectorSpec("team_a", seed=2, size_max=4))
        assert "train" in sub.method_report and "test deviance" in sub.method_report


class TestTeamB:
    def test_cap_is_enforced_on_null_data(self):
        for seed in (0, 1, 2):
            data = null_dataset(n=400, d=8, seed=seed)
            sub = rc.run_selector(data, rc.SelectorSpec("team_b", seed=seed))
            assert len(sub.selected) <= 3

    def test_recovers_planted_signal(self):
        data = planted_dataset(n=700, d=8, seed=6)
        sub = rc.run_selector(data, rc.SelectorSpec("team_b", seed=3))
        assert 1 in sub.selected

    def test_custom_cap(self):
        data = planted_dataset(n=700, d=8, seed=7)
        sub = rc.run_selector(data, rc.SelectorSpec("team_b", seed=3, max_select=1))
        assert len(sub.selected) <= 1

    @pytest.mark.parametrize("seed", [3, 4])
    def test_ridge_curve_is_one_call_per_penalty(self, seed):
        """team_b fits every penalty's fold fits of its ridge curve in one
        batch, whose fold fits have several cell counts (some folds hold
        the only rows of a pattern); each point equals its own cv_deviances
        call bit for bit."""
        data = planted_dataset(n=400, d=8, seed=6)
        plan = make_folds(data.y, 10, np.random.default_rng(seed))
        table = glm.PatternTable(data.x, data.y, plan)
        train_cells = (table.counts[0] > table.counts[2:2 + plan.n_folds]).sum(axis=1)
        assert len(set(train_cells.tolist())) > 1
        lams = np.geomspace(1e3, 1e-2, 11)
        expected = np.array([table.cv_deviances([np.arange(data.d)], lam)[0][0]
                             for lam in lams])
        subsets = np.tile(np.arange(data.d), (lams.size, 1))
        assert table.cv_deviances(subsets, lams)[0].tobytes() == expected.tobytes()
        with pytest.raises(ValidationError):
            table.cv_deviances(subsets, lams[1:])
        report = rc.run_selector(data, rc.SelectorSpec("team_b", seed=seed)).method_report
        assert "ridge CV (lambda: deviance): " + " ".join(
            f"{lam:.3g}:{dev:.4f}" for lam, dev in zip(lams, expected)) in report.splitlines()

    def test_report_has_cv_curve_and_counts(self):
        data = planted_dataset(n=400, d=5, seed=8)
        sub = rc.run_selector(data, rc.SelectorSpec("team_b", seed=4, n_lambdas=12))
        assert "lambda,mean_cv_deviance,se" in sub.method_report
        assert "exposed counts" in sub.method_report

    def test_report_counts_lasso_fits(self):
        data = planted_dataset(n=400, d=5, seed=8)
        sub = rc.run_selector(data, rc.SelectorSpec("team_b", seed=4, n_lambdas=12))
        assert sub.method_report.splitlines()[-1] == \
            "lasso fits: 132 run (11 paths x 12 penalties), 0 not converged"

    def test_report_counts_nonconverged_lasso_fits(self, monkeypatch):
        """One outer iteration leaves most fits short of the KKT conditions;
        the report's last line counts them."""
        data = planted_dataset(n=400, d=5, seed=8)
        spec = rc.SelectorSpec("team_b", seed=4, n_lambdas=12)
        plan = make_folds(data.y, 10, np.random.default_rng(spec.seed))
        grid = rc.default_lambda_grid(data.x, data.y, 12)
        monkeypatch.setattr(glm, "LASSO_MAX_OUTER", 1)
        _, _, converged = glm.PatternTable(data.x, data.y, plan).lasso_cv_deviance(grid)
        missed = int(converged.size - converged.sum())
        assert 0 < missed < converged.size
        lines = rc.run_selector(data, spec).method_report.splitlines()
        assert lines[-1] == \
            f"lasso fits: 132 run (11 paths x 12 penalties), {missed} not converged"

    def test_conservative_on_classroom_regime(self, classroom_truth):
        # The cautious style of play under the false-positive-heavy rule:
        # never more than the cap, whatever the regime.
        config = rc.SimulationConfig()
        data = rc.simulate_dataset(classroom_truth, config, np.random.default_rng(55))
        sub = rc.run_selector(data, rc.SelectorSpec("team_b", seed=14))
        assert len(sub.selected) <= 3


class TestTeamC:
    def test_enumeration_count_small(self):
        data = planted_dataset(n=300, d=8, seed=9)
        spec = rc.SelectorSpec("team_c", seed=5, size_min=2, size_max=3)
        sub = rc.run_selector(data, spec)
        assert "84 subsets" in sub.method_report  # C(8,2) + C(8,3)

    def test_budget_guard(self):
        data = planted_dataset(n=300, d=8, seed=9)
        with pytest.raises(EnumerationBudgetError):
            rc.run_selector(data, rc.SelectorSpec("team_c", seed=0, budget=10))

    def test_recovers_planted_signal(self):
        data = planted_dataset(n=500, d=8, seed=10)
        sub = rc.run_selector(data, rc.SelectorSpec("team_c", seed=6, size_min=2,
                                                    size_max=3))
        assert 1 in sub.selected

    def test_winner_beats_sampled_subsets(self):
        """The reported subset must beat any rescored competitor under the
        generic CV routine with the same shared folds."""
        data = planted_dataset(n=400, d=10, seed=11)
        spec = rc.SelectorSpec("team_c", seed=7, size_min=2, size_max=2)
        sub = rc.run_selector(data, spec)
        plan = make_folds(data.y, 4, np.random.default_rng(spec.seed))
        x = data.x.astype(float)
        y = data.y.astype(float)
        best = cv_deviance(x, y, [j - 1 for j in sub.selected], plan)
        rng = np.random.default_rng(0)
        for _ in range(100):
            cols = rng.choice(10, size=2, replace=False)
            assert best <= cv_deviance(x, y, cols, plan) + 1e-9

    def test_exact_ties_go_to_first_lexicographic(self):
        # Columns 1 and 2 are identical, so their singleton models tie exactly.
        rng = np.random.default_rng(12)
        col = (rng.random(300) < 0.5).astype(np.int8)
        noise = (rng.random((300, 2)) < 0.3).astype(np.int8)
        y = (rng.random(300) < rc.expit(-0.5 + 2.0 * col)).astype(np.int8)
        data = rc.Dataset(np.column_stack([col, col, noise]), y)
        sub = rc.run_selector(data, rc.SelectorSpec("team_c", seed=8, size_min=1,
                                                    size_max=1))
        assert sub.selected == (1,)


def scalar_fold_flags(table, cols):
    """(separated, converged) of the scalar _irls on each fold's training
    counts, built as PatternTable.fold_fits builds them."""
    sub, inv = _collapse(table.patterns[:, list(cols)])
    design = np.column_stack([np.ones(len(sub)), sub])
    all_n, all_c, *held = _pattern_sums(inv, len(sub), table.counts)
    flags = []
    for n_te, c_te in zip(held[:table.n_folds], held[table.n_folds:]):
        live = all_n > n_te
        *_, converged, _, separated = _irls(design[live], (all_n - n_te)[live],
                                            (all_c - c_te)[live], 0.0)
        flags.append((separated, converged))
    return flags


class TestTeamCBatched:
    """A sparse contest with 2^5 <= k < 2^6 distinct patterns, searched over
    sizes 3..6. Its rare last column makes some fold fits separate."""

    @pytest.fixture(scope="class")
    def contest(self):
        rng = np.random.default_rng(34)
        x = (rng.random((300, 8)) < 0.12).astype(np.int8)
        x[:, 7] = rng.random(300) < 0.02
        y = (rng.random(300) < rc.expit(-1.0 + 1.5 * x[:, 0])).astype(np.int8)
        spec = rc.SelectorSpec("team_c", seed=3, size_min=3, size_max=6)
        table = rc.PatternTable(x, y, make_folds(y, 4, np.random.default_rng(spec.seed)))
        assert 2**5 <= len(table.patterns) < 2**6
        return rc.Dataset(x, y), spec, table

    def test_matches_scalar_search(self, contest):
        """Selection and top-5 leaders equal a search on the scalar fold
        fits, with team_c's tie rules."""
        data, spec, table = contest
        best, leaders = None, []
        for s in range(spec.size_min, spec.size_max + 1):
            for cols in combinations(range(data.d), s):
                dev = sum(table.fold_fits([cols])[1][0].tolist()) / table.n_held
                if best is None or dev < best[0]:
                    best = (dev, cols)
                if len(leaders) < 5 or dev < leaders[-1][0]:
                    leaders.append((dev, cols))
                    leaders.sort(key=lambda t: t[0])
                    del leaders[5:]
        sub = rc.run_selector(data, spec)
        assert sub.selected == tuple(c + 1 for c in best[1])
        assert sub.method_report.splitlines()[2:7] == [
            f"  {dev:.6f}  {{{' '.join(f'x{c + 1}' for c in cols)}}}" for dev, cols in leaders]

    def test_fallback_counts_match_scalar_fits(self, contest):
        data, spec, table = contest
        flags = [flag for s in range(spec.size_min, spec.size_max + 1)
                 for cols in combinations(range(data.d), s)
                 for flag in scalar_fold_flags(table, cols)]
        separated = sum(sep for sep, _ in flags)
        unconverged = sum(not conv for _, conv in flags)
        assert separated > 0
        assert rc.run_selector(data, spec).method_report.splitlines()[-1] == (
            f"fold fits: {len(flags)} run, {separated} refit with the separation ridge, "
            f"{unconverged} not converged")

    def test_too_few_training_rows(self):
        """Eight rows in four folds leave six training rows for six columns."""
        rng = np.random.default_rng(32)
        data = rc.Dataset((rng.random((8, 8)) < 0.5).astype(np.int8),
                          np.array([1, 0] * 4, dtype=np.int8))
        with pytest.raises(ValidationError):
            rc.run_selector(data, rc.SelectorSpec("team_c", size_min=6, size_max=7))

    def test_single_class_training_fold(self, contest, monkeypatch):
        """make_folds never leaves a fold's complement with one class, so a
        plan that puts every case in fold 1 stands in for one."""
        data, spec, _ = contest
        monkeypatch.setattr(selectors, "make_folds",
                            lambda y, n_folds, rng: rc.CvPlan(2, np.where(y == 1, 1, 2)))
        with pytest.raises(DegenerateOutcomeError):
            rc.run_selector(data, spec)


class TestTeamD:
    def test_strong_variable_always_selected(self):
        data = planted_dataset(n=600, d=6, effect=3.5, seed=13)
        sub = rc.run_selector(data, rc.SelectorSpec("team_d", seed=9, n_resamples=40))
        assert 1 in sub.selected

    def test_null_data_selects_almost_nothing(self):
        many = 0
        for seed in range(100):
            data = null_dataset(n=300, d=8, seed=seed)
            sub = rc.run_selector(data, rc.SelectorSpec("team_d", seed=seed,
                                                        n_resamples=25))
            if len(sub.selected) > 2:
                many += 1
        assert many <= 5

    def test_cap_keeps_smallest_medians(self):
        data = planted_dataset(n=600, d=6, effect=3.5, seed=14)
        sub = rc.run_selector(data, rc.SelectorSpec("team_d", seed=10, n_resamples=30,
                                                    median_p_threshold=1.0, max_keep=2))
        assert len(sub.selected) == 2
        assert 1 in sub.selected

    def test_report_contains_full_pvalue_table(self):
        data = planted_dataset(n=300, d=5, seed=15)
        sub = rc.run_selector(data, rc.SelectorSpec("team_d", seed=11, n_resamples=12))
        table_rows = [line for line in sub.method_report.splitlines()
                      if line.startswith("x") and line.count(",") == 12]
        assert len(table_rows) == 5  # one row per variable, one column per resample

    def test_deterministic(self):
        data = planted_dataset(n=300, d=5, seed=16)
        spec = rc.SelectorSpec("team_d", seed=12, n_resamples=15)
        assert rc.run_selector(data, spec) == rc.run_selector(data, spec)

    def test_fit_without_standard_errors_is_dropped(self, monkeypatch):
        data = planted_dataset(n=300, d=5, seed=17)
        spec = rc.SelectorSpec("team_d", seed=14, n_resamples=9)
        fits = rc.bootstrap_fits(data.x, data.y, 9, np.random.default_rng(spec.seed))
        full = rc.run_selector(data, spec).method_report.splitlines()
        assert not any("dropped" in line for line in full)
        broken = list(fits)
        broken[4] = dataclasses.replace(fits[4], std_errors=None)
        monkeypatch.setattr(selectors, "bootstrap_fits", lambda *args: broken)
        sub = rc.run_selector(data, spec)
        lines = sub.method_report.splitlines()
        assert lines[-1] == "1 of 9 resamples dropped: fit without standard errors"
        medians = np.median([rc.wald_pvalues(f) for i, f in enumerate(fits) if i != 4], axis=0)
        assert lines[1] == "median p per variable: " + " ".join(
            f"x{j + 1}={m:.4f}" for j, m in enumerate(medians))
        assert lines[0] == full[0] and lines[2:4] == full[2:4]
        assert all(line.count(",") == 8 for line in lines[4:-1])

    def test_no_fit_with_standard_errors_raises(self, monkeypatch):
        data = planted_dataset(n=300, d=5, seed=17)
        fits = rc.bootstrap_fits(data.x, data.y, 3, np.random.default_rng(0))
        monkeypatch.setattr(selectors, "bootstrap_fits", lambda *args: [
            dataclasses.replace(fit, std_errors=None) for fit in fits])
        with pytest.raises(UnsupportedFitError):
            rc.run_selector(data, rc.SelectorSpec("team_d", n_resamples=3))

    def test_classroom_regime_flags_the_common_variables(self, classroom_truth):
        # Regenerated data from the classroom answer key: the two relevant
        # variables with the highest prevalence dominate the median ranking.
        config = rc.SimulationConfig()
        data = rc.simulate_dataset(classroom_truth, config, np.random.default_rng(77))
        sub = rc.run_selector(data, rc.SelectorSpec("team_d", seed=13))
        assert 3 in sub.selected and 6 in sub.selected


class TestBaselines:
    def test_empty(self):
        data = null_dataset(seed=17)
        assert rc.run_selector(data, rc.SelectorSpec("empty_baseline")).selected == ()

    def test_full(self):
        data = null_dataset(d=9, seed=18)
        sub = rc.run_selector(data, rc.SelectorSpec("full_baseline"))
        assert sub.selected == tuple(range(1, 10))

    def test_random_sizes_and_frequency(self):
        data = null_dataset(n=40, d=20, seed=19)
        appearances = np.zeros(20)
        for seed in range(10_000):
            sub = rc.run_selector(data, rc.SelectorSpec("random_baseline", seed=seed))
            assert 3 <= len(sub.selected) <= 7
            for j in sub.selected:
                appearances[j - 1] += 1
        freq = appearances / 10_000
        # mean size 5 over 20 variables -> 0.25 per variable
        assert np.all(np.abs(freq - 0.25) < 0.02)


@pytest.mark.parametrize("method,kw", [
    ("team_a", {"size_max": 4}),
    ("team_c", {"size_min": 2, "size_max": 2}),
    ("team_d", {"n_resamples": 20}),
])
def test_column_permutation_equivariance(method, kw):
    data = planted_dataset(n=400, d=6, seed=20)
    perm = np.array([3, 0, 5, 1, 4, 2])
    spec = rc.SelectorSpec(method, seed=21, **kw)
    base = rc.run_selector(data, spec).selected
    permuted = rc.run_selector(permute_columns(data, perm), spec).selected
    # new position of old column j (1-based on both sides)
    relabel = {int(perm[i]) + 1: i + 1 for i in range(6)}
    assert tuple(sorted(relabel[j] for j in base)) == permuted
