import numpy as np
import pytest

import riskcontest as rc
from riskcontest.cli import main
from riskcontest.errors import ConfigurationError, ValidationError
from riskcontest.tournament import (
    _method_seed,
    run_replicate,
    tournament_config_from_mapping,
    write_rows_csv,
    write_summary_csv,
)


def small_config(methods=("team_a", "random_baseline"), replicates=3, **sim_kw):
    sim = rc.SimulationConfig(n_cases=250, n_controls=250, **sim_kw)
    specs = tuple(rc.SelectorSpec(m, size_max=4) if m == "team_a" else rc.SelectorSpec(m)
                  for m in methods)
    return rc.TournamentConfig(replicates, specs, sim, rc.DEFAULT_WEIGHTS, master_seed=99)


class TestSeedDerivation:
    def test_replicate_row_matches_manual_pipeline(self):
        config = small_config(methods=("random_baseline",), replicates=1)
        rows = run_replicate(config, 1)
        truth = rc.draw_ground_truth(config.sim, np.random.default_rng([99, 1, 0]))
        data = rc.simulate_dataset(truth, config.sim, np.random.default_rng([99, 1, 1]))
        spec = rc.SelectorSpec("random_baseline", seed=_method_seed(99, 1, 0))
        report = rc.contest_score(rc.run_selector(data, spec), truth)
        assert rows[0].score == report.score
        assert rows[0].selected == rc.run_selector(data, spec).selected

    def test_single_replicate_reproducible(self):
        config = small_config(replicates=3)
        full_rows, _ = rc.run_tournament(config)
        only, _ = rc.run_tournament(config, only_replicate=2)
        assert only == [r for r in full_rows if r.replicate == 2]

    def test_replicate_out_of_range(self):
        config = small_config(replicates=2)
        with pytest.raises(ConfigurationError):
            rc.run_tournament(config, only_replicate=5)


class TestSummaries:
    def test_means_match_rows(self):
        config = small_config()
        rows, summaries = rc.run_tournament(config)
        for summary in summaries:
            own = [r for r in rows if r.team == summary.team and not r.error]
            assert summary.replicates_ok == len(own)
            assert summary.mean_score == pytest.approx(np.mean([r.score for r in own]))
            assert summary.mean_fp == pytest.approx(np.mean([r.fp for r in own]))

    def test_wins_sum_to_replicates(self):
        config = small_config(replicates=5)
        _, summaries = rc.run_tournament(config)
        assert sum(s.wins for s in summaries) == 5

    def test_failed_methods_are_tagged_not_fatal(self):
        sim = rc.SimulationConfig(n_cases=250, n_controls=250)
        specs = (rc.SelectorSpec("team_c", budget=1),  # always over budget
                 rc.SelectorSpec("empty_baseline"))
        config = rc.TournamentConfig(2, specs, sim, rc.DEFAULT_WEIGHTS, master_seed=1)
        rows, summaries = rc.run_tournament(config)
        failed = [r for r in rows if r.team == "team_c"]
        assert all("EnumerationBudgetError" in r.error for r in failed)
        by_team = {s.team: s for s in summaries}
        assert by_team["team_c"].replicates_ok == 0
        assert by_team["empty_baseline"].replicates_ok == 2
        assert by_team["empty_baseline"].wins == 2

    def test_subset_sizes_beyond_d_are_tagged_not_fatal(self):
        sim = rc.SimulationConfig(d=5, k_max=3, n_cases=250, n_controls=250)
        methods = ("team_a", "team_c", "random_baseline", "empty_baseline")
        config = rc.TournamentConfig(1, tuple(rc.SelectorSpec(m) for m in methods),
                                     sim, rc.DEFAULT_WEIGHTS, master_seed=3)
        rows, _ = rc.run_tournament(config)
        errors = {r.team: r.error for r in rows}
        assert all(errors[m].startswith("ValidationError") for m in methods[:3])
        assert errors["empty_baseline"] == ""

    def test_lasso_without_varying_column_is_tagged_not_fatal(self):
        # Prevalences of 0.1-0.2% over 40 rows leave every column at 0.
        sim = rc.SimulationConfig(d=2, k_min=1, k_max=1, prev_max=0.002, prev_min=0.001,
                                  n_cases=20, n_controls=20, n_confounders=0,
                                  baseline_intercept=0.0)
        config = rc.TournamentConfig(
            1, (rc.SelectorSpec("team_b"), rc.SelectorSpec("empty_baseline")),
            sim, rc.DEFAULT_WEIGHTS, master_seed=0)
        rows, _ = rc.run_tournament(config)
        errors = {r.team: r.error for r in rows}
        assert errors["team_b"].startswith("ValidationError: lasso lambda_max is 0")
        assert errors["empty_baseline"] == ""

    def test_holdout_without_test_rows_is_tagged_not_fatal(self):
        # round(0.99 * 20) = 20: the split holds out no row of either class.
        sim = rc.SimulationConfig(n_cases=20, n_controls=20)
        config = rc.TournamentConfig(
            1, (rc.SelectorSpec("team_a", train_fraction=0.99),
                rc.SelectorSpec("empty_baseline")),
            sim, rc.DEFAULT_WEIGHTS, master_seed=0)
        rows, _ = rc.run_tournament(config)
        errors = {r.team: r.error for r in rows}
        assert errors["team_a"].startswith("ValidationError: train_fraction 0.99")
        assert errors["empty_baseline"] == ""

    def test_replicate_level_failure_tags_every_method(self):
        sim = rc.SimulationConfig(n_cases=100, n_controls=100,
                                  baseline_intercept=-14.0, draw_budget=2000)
        config = rc.TournamentConfig(
            1, (rc.SelectorSpec("empty_baseline"), rc.SelectorSpec("full_baseline")),
            sim, rc.DEFAULT_WEIGHTS, master_seed=2)
        rows, summaries = rc.run_tournament(config)
        assert all("SimulationBudgetError" in r.error for r in rows)
        assert all(s.replicates_ok == 0 for s in summaries)


class TestCsvWriters:
    def test_deterministic_bytes(self, tmp_path):
        config = small_config()
        rows, summaries = rc.run_tournament(config)
        paths = []
        for tag in ("a", "b"):
            rows_path = tmp_path / f"rows_{tag}.csv"
            summary_path = tmp_path / f"summary_{tag}.csv"
            write_rows_csv(rows_path, rows)
            write_summary_csv(summary_path, summaries)
            paths.append((rows_path.read_bytes(), summary_path.read_bytes()))
        assert paths[0] == paths[1]
        assert paths[0][0].startswith(b"replicate,team,")


def test_penalized_and_bootstrap_reruns_byte_identical(tmp_path):
    config = tmp_path / "t.cfg"
    config.write_text(
        "replicates = 2\nmaster_seed = 8\nmethods = team_b, team_d\n"
        "team_d.n_resamples = 20\nn_cases = 250\nn_controls = 250\n")
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        assert main(["tournament", "--config", str(config), "--out", str(out)]) == 0
        outputs.append(((out / "results.csv").read_bytes(),
                        (out / "leaderboard.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    assert b"Error" not in outputs[0][0]


class TestConfigParsing:
    def test_full_mapping(self):
        mapping = {
            "replicates": "4",
            "master_seed": "123",
            "methods": "team_a, team_c, empty_baseline",
            "team_c.size_min": "2",
            "team_c.size_max": "3",
            "team_a.train_fraction": "0.8",
            "n_cases": "300",
            "weights": "proposed",
        }
        config = tournament_config_from_mapping(mapping)
        assert config.replicates == 4
        assert config.master_seed == 123
        assert [m.method for m in config.methods] == ["team_a", "team_c", "empty_baseline"]
        assert config.methods[1].size_min == 2
        assert config.methods[0].train_fraction == 0.8
        assert config.sim.n_cases == 300
        assert config.weights.w_fn == -4

    def test_bare_options_default_every_method(self):
        config = tournament_config_from_mapping({
            "methods": "team_a, team_c", "size_max": "4", "team_c.size_max": "3"})
        assert [m.size_max for m in config.methods] == [4, 3]

    def test_malformed_option_for_listed_method(self):
        with pytest.raises(ConfigurationError, match="unknown selector option"):
            tournament_config_from_mapping({"methods": "team_a", "team_a.seed": "2"})

    def test_requires_methods(self):
        with pytest.raises(ConfigurationError):
            tournament_config_from_mapping({"replicates": "2"})

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError):
            tournament_config_from_mapping({"methods": "team_x"})

    def test_unknown_key(self):
        with pytest.raises(ConfigurationError):
            tournament_config_from_mapping({"methods": "team_a", "replicas": "3"})

    def test_option_for_unlisted_method(self):
        with pytest.raises(ConfigurationError):
            tournament_config_from_mapping({"methods": "team_a", "team_c.size_min": "2"})

    def test_method_listed_twice(self):
        with pytest.raises(ConfigurationError, match="listed twice"):
            tournament_config_from_mapping({"methods": "empty_baseline, empty_baseline"})

    def test_lasso_grid_checked_when_read(self):
        with pytest.raises(ValidationError, match="lambda_min_ratio"):
            tournament_config_from_mapping({"methods": "team_b", "lambda_min_ratio": "0"})

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            rc.TournamentConfig(0, (rc.SelectorSpec("team_a"),),
                                rc.SimulationConfig(), rc.DEFAULT_WEIGHTS)
        with pytest.raises(ConfigurationError):
            rc.TournamentConfig(1, (), rc.SimulationConfig(), rc.DEFAULT_WEIGHTS)
